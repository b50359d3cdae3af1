//! The tentpole contract of the sharded trace subsystem: a simulation or
//! sweep over a sharded on-disk trace is **byte-identical** to the same run
//! over the fully resident trace, for any `--jobs` count, while memory stays
//! bounded by the largest single shard.
//!
//! What differs between the backings — and only this — is the pair of shard
//! telemetry counters (`shards_loaded`, `peak_resident_contacts`), which
//! describe *how* the contacts were replayed, not what the simulation did.
//! Those counters are themselves pinned: deterministic across repeat runs
//! and worker counts per backing.

use std::sync::Arc;

use dtn_sim::telemetry::Counters;
use dtn_sim::{FaultPlan, Telemetry};
use dtn_trace::generators::{DieselNetConfig, NusConfig};
use dtn_trace::stats::{DIESELNET_FREQUENT_EVERY, NUS_FREQUENT_EVERY};
use dtn_trace::{
    ContactSink as _, ContactTrace, ShardWriter, ShardedTrace, SimDuration, TraceSource,
};
use mbt_experiments::figures::FIGURES;
use mbt_experiments::report::figure_csv;
use mbt_experiments::runner::{run_simulation, SimParams};
use mbt_experiments::{ExecConfig, ParallelRunner, RunContext, Scale};

/// Fresh per-test shard directory (tests run concurrently).
fn shard_dir(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir()
        .join("mbt-sharded-equivalence")
        .join(format!("{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// The simulation-visible counters: everything except the backing-dependent
/// shard counters. The node-table counters stay in — which nodes get a row
/// is a pure function of the contact sequence, identical across backings —
/// and so do the two residue counters, structural zeros since the runner
/// builds a node once.
fn sim_counters(c: &Counters) -> Counters {
    Counters {
        shards_loaded: 0,
        peak_resident_contacts: 0,
        ..*c
    }
}

/// Row `id` at quick scale on `jobs` workers, rendered twice: run from the
/// table in memory, and swept over the same points with every distinct
/// trace written to a shard directory of one-day windows and replayed from
/// there.
fn both_backings(id: &str, jobs: usize) -> [String; 2] {
    let row = FIGURES
        .iter()
        .find(|f| f.id == id)
        .expect("a row of FIGURES");
    let exec = ExecConfig::default().jobs(jobs);
    let memory = row.run(&RunContext::new(Scale::Quick).exec(exec), None);

    let mut written: Vec<(Arc<dyn TraceSource>, Arc<dyn TraceSource>)> = Vec::new();
    let mut points = Vec::new();
    for (i, (resident, params)) in row.points(Scale::Quick).into_iter().enumerate() {
        let sharded = match written.iter().find(|(r, _)| Arc::ptr_eq(r, &resident)) {
            Some((_, sharded)) => Arc::clone(sharded),
            None => {
                let dir = shard_dir(&format!("{id}-jobs{jobs}-x{i}"));
                let mut writer = ShardWriter::create(dir, SimDuration::from_days(1)).unwrap();
                for contact in resident.stream() {
                    writer.push_contact(contact);
                }
                let sharded: Arc<dyn TraceSource> = Arc::new(writer.finish().unwrap());
                written.push((resident, Arc::clone(&sharded)));
                sharded
            }
        };
        points.push((sharded, params));
    }
    let mut telemetry = Telemetry::default();
    let runner = ParallelRunner::new(exec).with_protocols(row.protocols);
    let from_shards = runner.run_prepared(
        row.id,
        row.title,
        row.x_label,
        row.quick_xs,
        &points,
        Some(&mut telemetry),
    );
    assert!(
        telemetry.counters.shards_loaded > 0,
        "{id}: no shard was read"
    );
    [figure_csv(&memory), figure_csv(&from_shards)]
}

#[test]
fn figure_csv_is_byte_identical_across_backings_and_jobs() {
    let renders = [both_backings("fig2a", 1), both_backings("fig2a", 8)].concat();
    for render in &renders[1..] {
        assert_eq!(
            &renders[0], render,
            "backing or worker count changed figure CSV bytes"
        );
    }
}

#[test]
fn fault_sweep_with_active_plan_is_byte_identical_across_backings() {
    // The fault sweep exercises non-noop fault plans (per-cell FAULT_STREAM
    // seeds), so this pins that injected faults replay identically when the
    // contacts arrive from disk shards.
    let [from_memory, from_shards] = both_backings("fault_sweep", 2);
    assert_eq!(
        from_memory, from_shards,
        "sharded backing changed fault-sweep CSV bytes"
    );
}

#[test]
fn a_trace_per_point_is_byte_identical_across_backings() {
    // fig3f's attendance rate changes mobility, so each point replays its
    // own shard directory.
    let [from_memory, from_shards] = both_backings("fig3f", 2);
    assert_eq!(
        from_memory, from_shards,
        "sharded backing changed fig3f CSV bytes"
    );
}

#[test]
fn single_simulation_result_is_identical_including_faults() {
    let trace = DieselNetConfig::new(16, 6).seed(42).generate();
    let dir = shard_dir("single-sim");
    let mut writer = ShardWriter::create(&dir, SimDuration::from_days(1)).unwrap();
    for c in trace.iter() {
        writer.push_contact(c.clone());
    }
    let sharded = writer.finish().unwrap();

    let params = SimParams {
        days: 6,
        files_per_day: 10,
        seed: 7,
        faults: FaultPlan::none().loss(0.2).churn(0.1).seed(7),
        ..SimParams::default()
    };
    let from_memory = run_simulation(&trace, &params, None);
    let from_shards = run_simulation(&sharded, &params, None);
    assert_eq!(from_memory, from_shards, "backing changed the SimResult");
}

#[test]
fn resharding_at_another_window_leaves_a_run_unchanged() {
    // Each model under its paper rule, sharded at 1 h (several sidecars fold
    // into one rule window), 1 d, 2 d and 7 d (neither nests in a rule
    // window, so the runner scans the shards for the frequent pairs first).
    let models: [(&str, ContactTrace, SimDuration); 2] = [
        (
            "dieselnet",
            DieselNetConfig::new(16, 8).seed(42).generate(),
            DIESELNET_FREQUENT_EVERY,
        ),
        (
            "nus",
            NusConfig::new(24, 8).seed(42).generate(),
            NUS_FREQUENT_EVERY,
        ),
    ];
    for (model, trace, rule) in models {
        let params = SimParams {
            days: 8,
            files_per_day: 10,
            seed: 7,
            frequent_window: rule,
            faults: FaultPlan::none().loss(0.2).churn(0.1).seed(7),
            ..SimParams::default()
        };
        let observe = |source: &dyn TraceSource| {
            let mut tel = Telemetry::default();
            let result = run_simulation(source, &params, Some(&mut tel));
            (result, tel.counters)
        };
        let (in_memory, counters) = observe(&trace);
        for hours in [1, 24, 48, 168] {
            let window = SimDuration::from_hours(hours);
            let dir = shard_dir(&format!("reshard-{model}-{hours}h"));
            let mut writer = ShardWriter::create(&dir, window).unwrap();
            for c in trace.iter() {
                writer.push_contact(c.clone());
            }
            let sharded = writer.finish().unwrap();
            let (result, sharded_counters) = observe(&sharded);
            assert_eq!(result, in_memory, "{model} at {hours} h: SimResult moved");
            assert_eq!(
                sim_counters(&sharded_counters),
                sim_counters(&counters),
                "{model} at {hours} h: counters moved"
            );
            // One decode a shard when the sidecars answer, two when the
            // frequent pairs needed a scan.
            let passes = if rule.as_secs().is_multiple_of(window.as_secs()) {
                1
            } else {
                2
            };
            assert_eq!(
                sharded_counters.shards_loaded,
                passes * sharded.shard_count() as u64,
                "{model} at {hours} h"
            );
        }
    }
}

#[test]
fn simulation_counters_match_and_shard_counters_are_deterministic() {
    let trace = DieselNetConfig::new(16, 6).seed(42).generate();
    let dir = shard_dir("counters");
    let mut writer = ShardWriter::create(&dir, SimDuration::from_days(1)).unwrap();
    for c in trace.iter() {
        writer.push_contact(c.clone());
    }
    let sharded = writer.finish().unwrap();
    let params = SimParams {
        days: 6,
        files_per_day: 10,
        seed: 7,
        ..SimParams::default()
    };

    let observe = |source: &dyn TraceSource| {
        let mut tel = Telemetry::default();
        run_simulation(source, &params, Some(&mut tel));
        tel.counters
    };
    let mem_1 = observe(&trace);
    let mem_2 = observe(&trace);
    let shard_1 = observe(&sharded);
    let shard_2 = observe(&sharded);

    // Simulation-visible counters are a pure function of the contact
    // sequence, which both backings replay identically.
    assert_eq!(sim_counters(&mem_1), sim_counters(&shard_1));
    // Shard counters describe the backing and are deterministic per backing.
    assert_eq!(mem_1, mem_2);
    assert_eq!(shard_1, shard_2);
    assert_eq!(mem_1.shards_loaded, 0, "in-memory run loaded shards");
    assert!(
        shard_1.shards_loaded >= sharded.shard_count() as u64,
        "streaming run must load every shard at least once"
    );
    // The in-memory backing holds the whole trace; the sharded backing never
    // holds more than its largest shard.
    assert_eq!(mem_1.peak_resident_contacts, trace.len() as u64);
    assert!(shard_1.peak_resident_contacts <= sharded.largest_shard_contacts());
}

#[test]
fn node_residency_counters_are_invariant_across_shard_jobs() {
    // `ShardWriter::finish` may sort shards on any number of worker threads;
    // the written bytes — and therefore every simulation counter, including
    // the node-arena residency telemetry — must not depend on the job count.
    let write = |name: &str, jobs: usize| {
        let dir = shard_dir(name);
        let mut writer = ShardWriter::create(&dir, SimDuration::from_days(1))
            .unwrap()
            .jobs(jobs);
        DieselNetConfig::new(16, 6)
            .seed(42)
            .generate_into(&mut writer);
        writer.finish().unwrap()
    };
    let serial = write("node-res-jobs1", 1);
    let threaded = write("node-res-jobs4", 4);
    assert_eq!(serial.shards(), threaded.shards(), "manifests diverged");

    let params = SimParams {
        days: 6,
        files_per_day: 10,
        seed: 7,
        ..SimParams::default()
    };
    let observe = |source: &dyn TraceSource| {
        let mut tel = Telemetry::default();
        run_simulation(source, &params, Some(&mut tel));
        tel.counters
    };
    let a = observe(&serial);
    let b = observe(&threaded);
    assert_eq!(a, b, "shard-sort job count leaked into simulation counters");
    assert!(a.nodes_instantiated > 0, "no nodes were ever materialized");
    assert!(
        a.peak_resident_nodes <= a.nodes_instantiated,
        "peak resident nodes cannot exceed total instantiations"
    );
    assert!(
        a.peak_resident_nodes <= 16,
        "peak resident nodes exceeds the trace's node population"
    );
}

#[test]
fn streaming_a_10x_trace_is_bounded_by_the_largest_shard() {
    // A DieselNet-style trace 10x the Quick span (60 days vs 6), written
    // straight to shards by the generator — the full contact sequence never
    // exists in memory. The streaming run's peak residency must stay at the
    // largest single shard, i.e. ~1/60th of the whole trace.
    let dir = shard_dir("10x");
    let mut writer = ShardWriter::create(&dir, SimDuration::from_days(1)).unwrap();
    DieselNetConfig::new(16, 60)
        .seed(42)
        .generate_into(&mut writer);
    let sharded = writer.finish().unwrap();
    assert!(sharded.shard_count() >= 50, "expected ~60 daily shards");
    let total = sharded.len() as u64;
    let largest = sharded.largest_shard_contacts();
    assert!(
        largest * 10 <= total,
        "largest shard {largest} is not a small fraction of {total} contacts"
    );

    let mut tel = Telemetry::default();
    let params = SimParams {
        days: 60,
        files_per_day: 10,
        seed: 42,
        ..SimParams::default()
    };
    let r = run_simulation(&sharded, &params, Some(&mut tel));
    assert!(r.queries > 0, "10x run did nothing");
    assert!(
        tel.counters.peak_resident_contacts <= largest,
        "peak residency {} exceeds largest shard {largest}",
        tel.counters.peak_resident_contacts
    );
    // Single-decode replay: the manifest supplies the frequent-contact map,
    // so the one simulation pass is the only shard decode.
    assert_eq!(tel.counters.shards_loaded, sharded.shard_count() as u64);
}

#[test]
fn shard_manifest_matches_golden_fixture() {
    // Golden pin of the on-disk shard format (`# dtn-shard v1`): a fixed
    // Quick-scale trace must always shard to byte-identical manifest and
    // first-shard bytes. Regenerate with UPDATE_GOLDEN=1 after an
    // *intentional* format change and commit the fixtures.
    let dir = shard_dir("golden");
    let mut writer = ShardWriter::create(&dir, SimDuration::from_days(1)).unwrap();
    DieselNetConfig::new(16, 6)
        .seed(42)
        .generate_into(&mut writer);
    let sharded = writer.finish().unwrap();

    let fixture_dir =
        std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../tests/fixtures/shard_quick");
    for name in ["manifest.txt", "shard-00000.txt"] {
        let produced = std::fs::read_to_string(sharded.dir().join(name)).unwrap();
        let fixture = fixture_dir.join(name);
        if std::env::var_os("UPDATE_GOLDEN").is_some() {
            std::fs::create_dir_all(&fixture_dir).unwrap();
            std::fs::write(&fixture, &produced).unwrap();
            continue;
        }
        let golden = std::fs::read_to_string(&fixture).unwrap_or_else(|e| {
            panic!(
                "missing golden shard fixture {} ({e}); run UPDATE_GOLDEN=1 \
                 cargo test -p mbt-experiments --test sharded_equivalence",
                fixture.display()
            )
        });
        assert_eq!(
            produced, golden,
            "{name} drifted from its golden fixture; if intentional, \
             regenerate with UPDATE_GOLDEN=1 and commit"
        );
    }
    // And the round trip: reopening the directory reproduces the manifest
    // facts the writer reported.
    let reopened = ShardedTrace::open(sharded.dir()).unwrap();
    assert_eq!(reopened.len(), sharded.len());
    assert_eq!(reopened.window(), sharded.window());
    assert_eq!(reopened.shards(), sharded.shards());
    assert_eq!(reopened.nodes(), sharded.nodes());
    assert_eq!(reopened.id_space(), sharded.id_space());
}
