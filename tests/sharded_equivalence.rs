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

use dtn_sim::telemetry::Counters;
use dtn_sim::{FaultPlan, Telemetry};
use dtn_trace::generators::DieselNetConfig;
use dtn_trace::{ContactSink as _, ShardWriter, ShardedTrace, SimDuration, TraceSource};
use mbt_experiments::figures::{fault_sweep, fig2a, RunContext};
use mbt_experiments::report::figure_csv;
use mbt_experiments::runner::{run_simulation, SimParams};
use mbt_experiments::{ExecConfig, Scale};

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

#[test]
fn figure_csv_is_byte_identical_across_backings_and_jobs() {
    let mut renders = Vec::new();
    for jobs in [1, 8] {
        let mut memory = RunContext::new(Scale::Quick).exec(ExecConfig::default().jobs(jobs));
        renders.push(figure_csv(&fig2a(&mut memory)));
        let mut sharded = RunContext::new(Scale::Quick)
            .exec(ExecConfig::default().jobs(jobs))
            .sharded(shard_dir(&format!("fig2a-jobs{jobs}")));
        renders.push(figure_csv(&fig2a(&mut sharded)));
    }
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
    let mut memory = RunContext::new(Scale::Quick).exec(ExecConfig::default().jobs(2));
    let from_memory = figure_csv(&fault_sweep(&mut memory));
    let mut sharded = RunContext::new(Scale::Quick)
        .exec(ExecConfig::default().jobs(2))
        .sharded(shard_dir("fault-sweep"));
    let from_shards = figure_csv(&fault_sweep(&mut sharded));
    assert_eq!(
        from_memory, from_shards,
        "sharded backing changed fault-sweep CSV bytes"
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
