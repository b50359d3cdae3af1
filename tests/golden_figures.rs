//! Golden-figure regression tests.
//!
//! Regenerates Fig. 2(a) and Fig. 3(a) at `Scale::Quick` and diffs the
//! rendered CSV against checked-in fixtures, so any change to the simulator,
//! workload, RNG, executor, or CSV schema that shifts figure output fails CI
//! explicitly instead of silently drifting. The paper's headline protocol
//! ordering (MBT ≥ MBT-Q ≥ MBT-QM on metadata delivery) is asserted
//! directly as well, and the telemetry counters the three sweeps accumulate
//! are pinned exactly (`quick_counters.txt`): they are a pure function of the
//! event stream, so any drift there is a behaviour change even when the
//! figures happen not to move. That sweep is dense (30 nodes, catalogs never
//! empty); `sparse_counters.txt` pins the opposite regime — a 2 000-bus city
//! where almost every contact moves nothing — result fields and counters,
//! under the triad and under the faulted bus.
//!
//! To update the fixtures after an *intentional* change:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test -p mbt-experiments --test golden_figures
//! ```
//!
//! and commit the resulting `tests/fixtures/*` alongside the change.

use dtn_sim::{FaultPlan, Telemetry};
use mbt_core::{ProtocolSpec, TransportKind};
use mbt_experiments::figures::{fault_sweep, fig2a, fig3a, RunContext};
use mbt_experiments::report::figure_csv;
use mbt_experiments::sweep::Figure;
use mbt_experiments::{run_simulation, ExecConfig, Scale, SimParams};

#[path = "support/golden.rs"]
mod golden;
#[path = "support/sparse.rs"]
mod sparse;

use golden::assert_text_matches_golden;

/// Compares `fig`'s CSV against the named fixture.
fn assert_matches_golden(fig: &Figure, name: &str) {
    assert_text_matches_golden(&figure_csv(fig), &fig.id, name);
}

fn series_mean(fig: &Figure, protocol: ProtocolSpec) -> f64 {
    let s = fig.series_for(protocol).expect("series present");
    s.points.iter().map(|p| p.metadata_ratio).sum::<f64>() / s.points.len() as f64
}

/// Per-point slack: a floor of 0.02 plus two combined standard errors of the
/// two points' replicate spreads. At `Scale::Quick` adjacent variants can
/// tie within simulation noise (sparse points generate only tens of
/// queries), but a genuine regression — a variant losing its mechanism —
/// shifts ratios far beyond this.
fn slack(a: &mbt_experiments::SeriesPoint, b: &mbt_experiments::SeriesPoint) -> f64 {
    let var = a.metadata.stddev * a.metadata.stddev + b.metadata.stddev * b.metadata.stddev;
    let n = a.metadata.n.max(1) as f64;
    0.02 + 2.0 * (var / n).sqrt()
}

/// The paper's §VI-B ordering: MBT ≥ MBT-Q ≥ MBT-QM on metadata delivery —
/// strictly on the series means, within [`slack`] per point.
fn assert_protocol_ordering(fig: &Figure) {
    let mean_mbt = series_mean(fig, ProtocolSpec::MBT);
    let mean_q = series_mean(fig, ProtocolSpec::MBT_Q);
    let mean_qm = series_mean(fig, ProtocolSpec::MBT_QM);
    assert!(
        mean_mbt >= mean_q && mean_q >= mean_qm,
        "{}: mean metadata ordering violated: MBT {mean_mbt} / MBT-Q {mean_q} / MBT-QM {mean_qm}",
        fig.id
    );

    let mbt = fig.series_for(ProtocolSpec::MBT).expect("MBT series");
    let q = fig.series_for(ProtocolSpec::MBT_Q).expect("MBT-Q series");
    let qm = fig.series_for(ProtocolSpec::MBT_QM).expect("MBT-QM series");
    for ((pm, pq), pqm) in mbt.points.iter().zip(&q.points).zip(&qm.points) {
        assert!(
            pm.metadata_ratio >= pq.metadata_ratio - slack(pm, pq),
            "{}: at x={}, MBT {} < MBT-Q {}",
            fig.id,
            pm.x,
            pm.metadata_ratio,
            pq.metadata_ratio
        );
        assert!(
            pq.metadata_ratio >= pqm.metadata_ratio - slack(pq, pqm),
            "{}: at x={}, MBT-Q {} < MBT-QM {}",
            fig.id,
            pq.x,
            pq.metadata_ratio,
            pqm.metadata_ratio
        );
    }
}

/// Three replicates: deterministic (seeds derive from grid coordinates),
/// smooths single-run noise, and pins non-zero stddev columns in the
/// fixtures.
fn golden_exec() -> ExecConfig {
    ExecConfig::default().replicates(3)
}

/// The fault sweep keeps the paper's per-point ordering only while the
/// channel still works: at loss ≤ 25% the protocols' mechanisms dominate,
/// beyond that every variant converges toward zero and the comparison is
/// pure noise. Same per-point [`slack`] as the clean figures.
fn assert_protocol_ordering_up_to(fig: &Figure, max_x: f64) {
    let mbt = fig.series_for(ProtocolSpec::MBT).expect("MBT series");
    let q = fig.series_for(ProtocolSpec::MBT_Q).expect("MBT-Q series");
    let qm = fig.series_for(ProtocolSpec::MBT_QM).expect("MBT-QM series");
    let mut checked = 0;
    for ((pm, pq), pqm) in mbt.points.iter().zip(&q.points).zip(&qm.points) {
        if pm.x > max_x {
            continue;
        }
        checked += 1;
        assert!(
            pm.metadata_ratio >= pq.metadata_ratio - slack(pm, pq),
            "{}: at x={}, MBT {} < MBT-Q {}",
            fig.id,
            pm.x,
            pm.metadata_ratio,
            pq.metadata_ratio
        );
        assert!(
            pq.metadata_ratio >= pqm.metadata_ratio - slack(pq, pqm),
            "{}: at x={}, MBT-Q {} < MBT-QM {}",
            fig.id,
            pq.x,
            pq.metadata_ratio,
            pqm.metadata_ratio
        );
    }
    assert!(checked > 0, "{}: no points at x <= {max_x}", fig.id);
}

#[test]
fn fault_sweep_quick_matches_golden() {
    let fig = fault_sweep(&mut RunContext::new(Scale::Quick).exec(golden_exec()));
    assert_protocol_ordering_up_to(&fig, 0.25);
    assert_matches_golden(&fig, "fault_sweep_quick.csv");
}

#[test]
fn fig2a_quick_matches_golden() {
    let fig = fig2a(&mut RunContext::new(Scale::Quick).exec(golden_exec()));
    assert_protocol_ordering(&fig);
    assert_matches_golden(&fig, "fig2a_quick.csv");
}

#[test]
fn fig3a_quick_matches_golden() {
    let fig = fig3a(&mut RunContext::new(Scale::Quick).exec(golden_exec()));
    assert_protocol_ordering(&fig);
    assert_matches_golden(&fig, "fig3a_quick.csv");
}

#[test]
fn quick_sweep_counters_match_golden() {
    // One replicate, default jobs: counters merge in grid order, so the
    // totals do not depend on the worker count.
    let mut ctx = RunContext::new(Scale::Quick).observed();
    fig2a(&mut ctx);
    fig3a(&mut ctx);
    fault_sweep(&mut ctx);
    let counters: String = ctx
        .take_telemetry()
        .counters
        .entries()
        .iter()
        .map(|(name, value)| format!("{name} {value}\n"))
        .collect();
    assert_text_matches_golden(&counters, "quick-sweep counters", "quick_counters.txt");
}

#[test]
fn sparse_regime_results_and_counters_match_golden() {
    let trace = sparse::trace();
    // MBT again with every message framed through the bus under an active
    // loss / truncation / corruption plan.
    let bus_faulted = SimParams {
        transport: TransportKind::Bus,
        faults: FaultPlan::none()
            .loss(0.1)
            .truncate(0.1)
            .corruption(0.05)
            .seed(7),
        ..sparse::params(ProtocolSpec::MBT)
    };
    let cells = ProtocolSpec::TRIAD
        .map(|spec| (spec.name().to_string(), sparse::params(spec)))
        .into_iter()
        .chain([("MBT bus faulted".to_string(), bus_faulted)]);
    let mut text = String::new();
    for (label, params) in cells {
        let mut telemetry = Telemetry::default();
        let result = run_simulation(&trace, &params, Some(&mut telemetry));
        text += &format!("# {label}\n{result:#?}\n");
        for (name, value) in telemetry.counters.entries() {
            text += &format!("{name} {value}\n");
        }
    }
    assert_text_matches_golden(&text, "sparse-regime results", "sparse_counters.txt");
}
