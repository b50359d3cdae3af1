//! Equivalence and golden tests for the pluggable protocol-variant API.
//!
//! Two contracts are pinned here. First, the `ProtocolSpec` refactor is a
//! pure re-plumbing for the paper's triad: running the legacy three-protocol
//! figures through the new spec-based runner yields *byte-identical* CSVs
//! whether the grid is triad-only or widened with the new variants, serial
//! or parallel. Second, the five-variant head-to-head figure is pinned to a
//! golden fixture at `Scale::Quick`, updated via:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test -p mbt-experiments --test protocol_variants
//! ```

use mbt_core::ProtocolSpec;
use mbt_experiments::figures::FIGURES;
use mbt_experiments::report::figure_csv;
use mbt_experiments::runner::SimParams;
use mbt_experiments::sweep::Figure;
use mbt_experiments::{ExecConfig, ParallelRunner, RunContext, Scale};

use dtn_trace::generators::NusConfig;
use dtn_trace::TraceSource;
use std::sync::Arc;

#[path = "support/golden.rs"]
mod golden;

fn sweep_with(protocols: Vec<ProtocolSpec>, jobs: usize) -> Figure {
    let source: Arc<dyn TraceSource> = Arc::new(NusConfig::new(24, 5).seed(11).generate());
    let exec = ExecConfig::default()
        .jobs(jobs)
        .replicates(2)
        .master_seed(7);
    ParallelRunner::new(exec)
        .with_protocols(protocols)
        .sweep_shared_source(
            "equiv",
            "equivalence sweep",
            "internet fraction",
            &[0.2, 0.6],
            source,
            |x| {
                SimParams::builder()
                    .internet_fraction(x)
                    .days(5)
                    .files_per_day(10)
                    .build()
            },
            None,
        )
}

/// The triad CSV is byte-identical whether the grid runs serial or on eight
/// workers: per-cell seeds derive from grid coordinates, not scheduling.
#[test]
fn triad_csv_is_byte_identical_across_job_counts() {
    let serial = figure_csv(&sweep_with(ProtocolSpec::TRIAD.to_vec(), 1));
    let parallel = figure_csv(&sweep_with(ProtocolSpec::TRIAD.to_vec(), 8));
    assert_eq!(serial, parallel);
}

/// Widening the protocol list with the new variants appends series without
/// disturbing the triad's cells: the first three series of the five-variant
/// run render byte-for-byte the same rows as the triad-only run.
#[test]
fn widened_grid_preserves_legacy_triad_rows() {
    let triad = sweep_with(ProtocolSpec::TRIAD.to_vec(), 8);
    let wide = sweep_with(ProtocolSpec::builtin().to_vec(), 8);
    assert_eq!(wide.series.len(), 5);
    assert_eq!(triad.series[..], wide.series[..3]);

    let triad_csv = figure_csv(&triad);
    let wide_csv = figure_csv(&wide);
    for line in triad_csv.lines() {
        assert!(
            wide_csv.lines().any(|l| l == line),
            "triad row missing from widened CSV: {line}"
        );
    }
}

/// The five-variant head-to-head figure at quick scale, pinned to a golden
/// fixture exactly like the legacy figures.
#[test]
fn head_to_head_nus_quick_matches_golden() {
    let row = FIGURES.iter().find(|f| f.id == "h2h_nus").unwrap();
    let ctx = RunContext::new(Scale::Quick).exec(ExecConfig::default().replicates(3));
    let fig = row.run(&ctx, None);
    assert_eq!(fig.series.len(), 5, "head-to-head must cover every builtin");
    for (series, spec) in fig.series.iter().zip(ProtocolSpec::builtin()) {
        assert_eq!(series.protocol, spec, "registry order must be preserved");
    }
    golden::assert_text_matches_golden(&figure_csv(&fig), &fig.id, "h2h_nus_quick.csv");
}
