//! A sweep derives its frequent-contact map once for each distinct *(source,
//! window)*, before the fan-out, and hands every cell the same lists — and
//! that is invisible in the figure: the CSV equals the one assembled cell by
//! cell from `run_simulation` at the documented derived seeds, whether the
//! map came from a scan, from a shard directory's pair sidecars, or from the
//! scan a missing or mangled sidecar falls back to.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

use dtn_sim::rng::derive_seed;
use dtn_trace::generators::{DieselNetConfig, NusConfig};
use dtn_trace::{
    ContactSink as _, ContactStream, ContactTrace, NodeId, ShardWriter, ShardedTrace, SimDuration,
    SimTime, TraceSource,
};
use mbt_core::ProtocolSpec;
use mbt_experiments::report::figure_csv;
use mbt_experiments::{
    run_simulation, ExecConfig, Figure, ParallelRunner, ProtocolSeries, SeriesPoint, SimParams,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const XS: [f64; 3] = [0.1, 0.3, 0.5];
const REPLICATES: u32 = 2;
const MASTER_SEED: u64 = 11;
const DAYS: u64 = 5;

fn trace() -> ContactTrace {
    NusConfig::new(20, DAYS).seed(3).generate()
}

fn params_for(x: f64, window_days: u64) -> SimParams {
    SimParams::builder()
        .days(DAYS)
        .files_per_day(5)
        .internet_fraction(x)
        .frequent_window(SimDuration::from_days(window_days))
        .build()
}

fn runner(jobs: usize) -> ParallelRunner {
    let exec = ExecConfig::default()
        .jobs(jobs)
        .replicates(REPLICATES)
        .master_seed(MASTER_SEED);
    ParallelRunner::new(exec).with_protocols(ProtocolSpec::builtin())
}

/// The sweep over `source`; `window_days(x)` is the point's frequent-contact
/// window.
fn sweep(jobs: usize, source: Arc<dyn TraceSource>, window_days: fn(f64) -> u64) -> Figure {
    runner(jobs).sweep_shared_source(
        "t",
        "t",
        "internet",
        &XS,
        source,
        |x| params_for(x, window_days(x)),
        None,
    )
}

/// The same figure with no executor: every cell a `run_simulation` of its
/// own, seeded `derive_seed(&[master, point, protocol, replicate])`.
fn cell_by_cell(source: &dyn TraceSource, window_days: fn(f64) -> u64) -> Figure {
    let series = ProtocolSpec::builtin()
        .into_iter()
        .enumerate()
        .map(|(proto_idx, protocol)| {
            let points = XS.iter().enumerate().map(|(point_idx, &x)| {
                let replicates = (0..REPLICATES).map(|rep| {
                    let mut params = params_for(x, window_days(x));
                    params.protocol = protocol;
                    let (point, proto) = (point_idx as u64, proto_idx as u64);
                    params.seed = derive_seed(&[MASTER_SEED, point, proto, u64::from(rep)]);
                    run_simulation(source, &params, None)
                });
                SeriesPoint::from_replicates(x, replicates.collect())
            });
            ProtocolSeries {
                protocol,
                points: points.collect(),
            }
        });
    Figure {
        id: "t".to_string(),
        title: "t".to_string(),
        x_label: "internet".to_string(),
        series: series.collect(),
    }
}

/// A source that counts what is asked of it.
#[derive(Debug)]
struct Counting<S> {
    inner: S,
    streams: AtomicUsize,
    maps_asked: Mutex<Vec<SimDuration>>,
}

impl<S> Counting<S> {
    fn new(inner: S) -> Arc<Self> {
        Arc::new(Counting {
            inner,
            streams: AtomicUsize::new(0),
            maps_asked: Mutex::new(Vec::new()),
        })
    }

    fn streams(&self) -> usize {
        self.streams.load(Ordering::Relaxed)
    }

    fn maps_asked(&self) -> Vec<SimDuration> {
        self.maps_asked.lock().expect("no holder panics").clone()
    }
}

impl<S: TraceSource> TraceSource for Counting<S> {
    fn len(&self) -> usize {
        self.inner.len()
    }

    fn nodes(&self) -> Vec<NodeId> {
        self.inner.nodes()
    }

    fn id_space(&self) -> usize {
        self.inner.id_space()
    }

    fn start_time(&self) -> Option<SimTime> {
        self.inner.start_time()
    }

    fn end_time(&self) -> Option<SimTime> {
        self.inner.end_time()
    }

    fn stream(&self) -> Box<dyn ContactStream + '_> {
        self.streams.fetch_add(1, Ordering::Relaxed);
        self.inner.stream()
    }

    fn frequent_map(&self, every: SimDuration) -> Option<BTreeMap<NodeId, Vec<NodeId>>> {
        self.maps_asked
            .lock()
            .expect("no holder panics")
            .push(every);
        self.inner.frequent_map(every)
    }
}

fn one_day(_x: f64) -> u64 {
    1
}

fn the_whole_trace_past_the_first_point(x: f64) -> u64 {
    if x < 0.2 {
        1
    } else {
        DAYS
    }
}

#[test]
fn a_sweep_scans_its_trace_once_and_changes_no_cell() {
    let trace = trace();
    let cells = XS.len() * ProtocolSpec::builtin().len() * REPLICATES as usize;
    assert_eq!(cells, 30);
    let expected = cell_by_cell(&trace, one_day);
    for jobs in [1, 4] {
        let counting = Counting::new(trace.clone());
        let swept = sweep(jobs, counting.clone(), one_day);
        assert_eq!(figure_csv(&swept), figure_csv(&expected));
        assert_eq!(swept, expected, "and what the CSV leaves out");
        // One scan, then one replay a cell; the parent scanned in every
        // cell, 2 × cells streams.
        assert_eq!(counting.streams(), cells + 1, "jobs {jobs}");
        assert_eq!(counting.maps_asked(), [SimDuration::from_days(1)]);
    }
    // Cell by cell, every run asks and every run scans.
    let counting = Counting::new(trace.clone());
    assert_eq!(cell_by_cell(counting.as_ref(), one_day), expected);
    assert_eq!(counting.streams(), 2 * cells);
    assert_eq!(counting.maps_asked().len(), cells);
}

#[test]
fn a_sweep_derives_one_map_a_distinct_window() {
    let trace = DieselNetConfig::new(16, DAYS).seed(3).generate();
    let counting = Counting::new(trace.clone());
    let swept = sweep(2, counting.clone(), the_whole_trace_past_the_first_point);
    assert_eq!(
        swept,
        cell_by_cell(&trace, the_whole_trace_past_the_first_point)
    );
    // The delivery ratios of so small a run do not move with the window;
    // the queries MBT hands its frequent contacts do.
    let distributed = |fig: &Figure| fig.series[0].points[2].result.queries_distributed;
    assert_ne!(
        distributed(&swept),
        distributed(&cell_by_cell(&trace, one_day)),
        "the window is visible"
    );
    let windows = [1, DAYS].map(SimDuration::from_days);
    assert_eq!(counting.maps_asked(), windows);
    assert_eq!(counting.streams(), 30 + windows.len());
}

/// The trace as a shard directory of one-day windows, each with its pair
/// sidecar.
fn sharded(name: &str, trace: &ContactTrace) -> ShardedTrace {
    let dir = std::env::temp_dir()
        .join("mbt-sweep-scans-once")
        .join(format!("{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut writer = ShardWriter::create(&dir, SimDuration::from_days(1)).unwrap();
    for contact in trace.iter() {
        writer.push_contact(contact.clone());
    }
    writer.finish().unwrap()
}

fn sidecars(shards: &ShardedTrace) -> Vec<std::path::PathBuf> {
    let mut paths: Vec<_> = std::fs::read_dir(shards.dir())
        .unwrap()
        .map(|entry| entry.unwrap().path())
        .filter(|path| {
            let name = path.file_name().unwrap().to_string_lossy();
            name.starts_with("pairs-")
        })
        .collect();
    paths.sort();
    paths
}

#[test]
fn a_missing_or_mangled_sidecar_cannot_change_a_figure() {
    let trace = trace();
    let expected = cell_by_cell(&trace, one_day);
    let window = SimDuration::from_days(1);

    // Intact: the map comes from the sidecars and no scan is made.
    let counting = Counting::new(sharded("intact", &trace));
    assert!(counting.inner.frequent_map(window).is_some());
    assert_eq!(sweep(2, counting.clone(), one_day), expected);
    assert_eq!(counting.streams(), 30, "a replay a cell, no scan");
    assert_eq!(counting.maps_asked(), [window]);

    // Deleted: one sidecar, then all of them.
    let shards = sharded("deleted", &trace);
    let paths = sidecars(&shards);
    assert_eq!(paths.len(), shards.shard_count());
    std::fs::remove_file(&paths[1]).unwrap();
    assert_eq!(shards.frequent_map(window), None);
    let counting = Counting::new(shards);
    assert_eq!(sweep(2, counting.clone(), one_day), expected);
    assert_eq!(counting.streams(), 31, "the scan, once");
    for path in &paths[2..] {
        std::fs::remove_file(path).unwrap();
    }
    assert_eq!(sweep(1, counting.clone(), one_day), expected);

    // Overwritten: seeded arbitrary bytes, and texts that go wrong one
    // field at a time. Never a panic, always the scan's map.
    let rng = &mut StdRng::seed_from_u64(23);
    let noise: Vec<u8> = (0..300).map(|_| rng.gen()).collect();
    let header = "# dtn-pairs v1\n";
    let manglings: [Vec<u8>; 7] = [
        Vec::new(),
        noise.clone(),
        noise.iter().map(|b| b % 0x60 + 0x20).collect(),
        header.as_bytes().to_vec(),
        format!("{header}0 banana\n").into_bytes(),
        format!("{header}0 1\n0 4294967296\n").into_bytes(),
        format!("{header}0 1\n").into_bytes(),
    ];
    for (case, mangled) in manglings.iter().enumerate() {
        let shards = sharded(&format!("mangled-{case}"), &trace);
        let paths = sidecars(&shards);
        std::fs::write(&paths[case % paths.len()], mangled).unwrap();
        assert_eq!(shards.frequent_map(window), None, "case {case}");
        let reopened = ShardedTrace::open(shards.dir()).unwrap();
        assert_eq!(
            sweep(2, Arc::new(reopened), one_day),
            expected,
            "case {case}"
        );
    }
}
