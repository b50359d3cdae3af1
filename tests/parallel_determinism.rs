//! The parallel executor's determinism contract, end to end.
//!
//! The same figure run with `--jobs 1` and `--jobs 8` — and run twice with
//! the same configuration — must produce byte-identical merged results. This
//! holds because every sweep cell derives its seed from its grid coordinates
//! (`derive_seed(&[master, point, protocol, replicate])`) and the reduction
//! happens in grid order, never completion order.

use std::sync::Arc;

use dtn_sim::{FaultPlan, Telemetry};
use dtn_trace::generators::NusConfig;
use dtn_trace::TraceSource;
use mbt_experiments::figures::{FigureSpec, FIGURES};
use mbt_experiments::report::figure_csv;
use mbt_experiments::sweep::Figure;
use mbt_experiments::{ExecConfig, ParallelRunner, RunContext, Scale, SimParams};

fn exec(jobs: usize) -> ExecConfig {
    ExecConfig::default().jobs(jobs).replicates(2)
}

fn row(id: &str) -> &'static FigureSpec {
    FIGURES
        .iter()
        .find(|f| f.id == id)
        .expect("a row of FIGURES")
}

/// Row `id` at quick scale under `exec`, merging telemetry into `telemetry`.
fn run(id: &str, exec: ExecConfig, telemetry: Option<&mut Telemetry>) -> Figure {
    row(id).run(&RunContext::new(Scale::Quick).exec(exec), telemetry)
}

#[test]
fn jobs_1_and_jobs_8_are_byte_identical() {
    let serial = run("fig2a", exec(1), None);
    let parallel = run("fig2a", exec(8), None);
    assert_eq!(serial, parallel, "thread count changed sweep results");
    assert_eq!(
        figure_csv(&serial),
        figure_csv(&parallel),
        "thread count changed rendered CSV bytes"
    );
}

#[test]
fn repeated_invocations_are_byte_identical() {
    let first = run("fig2a", exec(8), None);
    let second = run("fig2a", exec(8), None);
    assert_eq!(first, second, "same config, different results across runs");
    assert_eq!(figure_csv(&first), figure_csv(&second));
}

#[test]
fn auto_jobs_matches_serial() {
    // jobs = 0 (one worker per core) must agree with explicit serial runs.
    let auto = run("fig2a", ExecConfig::default(), None);
    let serial = run("fig2a", ExecConfig::serial(), None);
    assert_eq!(auto, serial);
}

#[test]
fn fault_sweep_jobs_1_and_jobs_8_are_byte_identical() {
    // Fault streams reseed per cell from grid coordinates (with the extra
    // FAULT_STREAM tag), so the determinism contract extends to faulty runs.
    let serial = run("fault_sweep", exec(1), None);
    let parallel = run("fault_sweep", exec(8), None);
    assert_eq!(serial, parallel, "thread count changed fault-sweep results");
    assert_eq!(
        figure_csv(&serial),
        figure_csv(&parallel),
        "thread count changed rendered fault-sweep CSV bytes"
    );
}

#[test]
fn loss_zero_fault_sweep_is_byte_identical_to_no_fault_sweep() {
    // A sweep whose plan carries rate 0 must not disturb a single byte of
    // the fault-free output: zero-rate plans draw no random numbers and the
    // executor leaves their seeds untouched. The CSV contains no figure
    // id/title, so the two renders compare byte-for-byte.
    let runner = ParallelRunner::new(exec(2));
    let trace: Arc<dyn TraceSource> = Arc::new(
        NusConfig::new(20, 4)
            .seed(7)
            .attendance_rate(0.8)
            .generate(),
    );
    let base = || SimParams {
        days: 4,
        seed: 7,
        ..SimParams::default()
    };
    let faulty = runner.sweep_shared_source(
        "fault_sweep",
        "loss-zero fault sweep",
        "loss rate",
        &[0.0],
        Arc::clone(&trace),
        |x| SimParams {
            faults: FaultPlan::none().loss(x),
            ..base()
        },
        None,
    );
    let clean = runner.sweep_shared_source(
        "clean_sweep",
        "no-fault sweep",
        "loss rate",
        &[0.0],
        trace,
        |_| base(),
        None,
    );
    assert_eq!(
        figure_csv(&faulty),
        figure_csv(&clean),
        "a zero-rate fault plan perturbed the fault-free sweep"
    );
}

#[test]
fn telemetry_counters_are_identical_jobs_1_vs_8() {
    // Counters are a pure function of the deterministic event stream and are
    // merged in grid order, so they inherit the executor's determinism
    // contract: any worker count produces the same totals. (Phase timings
    // are wall clock and deliberately excluded from this comparison.)
    let (mut tel_serial, mut tel_parallel) = (Telemetry::default(), Telemetry::default());
    let fig_serial = run("fig2a", exec(1), Some(&mut tel_serial));
    let fig_parallel = run("fig2a", exec(8), Some(&mut tel_parallel));
    assert_eq!(fig_serial, fig_parallel);
    assert_eq!(
        tel_serial.counters, tel_parallel.counters,
        "thread count changed telemetry counters"
    );
    assert!(tel_serial.counters.contacts > 0, "counters never fired");
    assert!(tel_serial.counters.bytes_moved > 0, "no bytes accounted");

    let (mut tel_faulty_1, mut tel_faulty_8) = (Telemetry::default(), Telemetry::default());
    run("fault_sweep", exec(1), Some(&mut tel_faulty_1));
    run("fault_sweep", exec(8), Some(&mut tel_faulty_8));
    assert_eq!(
        tel_faulty_1.counters, tel_faulty_8.counters,
        "thread count changed fault-sweep telemetry counters"
    );
    assert!(
        tel_faulty_1.counters.frames_lost > 0,
        "loss cells drop frames"
    );
}

#[test]
fn telemetry_on_and_off_render_identical_csv() {
    // Enabling observation must not perturb simulation output: the observed
    // sweep's figure is byte-identical to the unobserved sweep's.
    let plain = run("fig2a", exec(2), None);
    let mut telemetry = Telemetry::default();
    let observed = run("fig2a", exec(2), Some(&mut telemetry));
    assert_eq!(plain, observed, "telemetry perturbed sweep results");
    assert_eq!(
        figure_csv(&plain),
        figure_csv(&observed),
        "telemetry changed rendered CSV bytes"
    );
    assert!(
        !telemetry.counters.is_zero(),
        "observation recorded nothing"
    );
}

#[test]
fn replicated_points_pool_counts_and_report_spread() {
    let fig = run("fig2a", exec(4), None);
    for series in &fig.series {
        for point in &series.points {
            assert_eq!(point.metadata.n, 2, "expected two replicates");
            assert!(point.metadata.min <= point.metadata.mean);
            assert!(point.metadata.mean <= point.metadata.max);
            assert!(point.metadata.stddev >= 0.0);
            // Pooled counts from both replicates back the merged result.
            assert!(point.result.queries > 0);
        }
    }
}
