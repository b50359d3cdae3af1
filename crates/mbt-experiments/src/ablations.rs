//! Ablations of the design choices called out in `DESIGN.md`.
//!
//! - **Cooperation mode** (§IV-B/§V-B): cooperative vs tit-for-tat, every
//!   node honest — measuring what the credit mechanism costs. No simulated
//!   node is selfish, so what it protects is not measured here.
//! - **Discovery-first contact ordering** (§V): metadata before files within
//!   a contact vs the reverse.
//! - **Short-contact gating** (§V): skipping the file phase on contacts too
//!   short to be worth bulk transfer.
//! - **Broadcast ordering** (§V-A): two-phase vs BitTorrent's rarest-first.
//! - **Failure injection**: broadcast frame loss and node churn.
//! - **Metadata pollution** (§I, §III-B item f): fake publishers, with and
//!   without publisher authentication.

use dtn_sim::FaultPlan;
use dtn_trace::generators::NusConfig;
use dtn_trace::ContactTrace;
use mbt_core::{BroadcastOrdering, CooperationMode, MbtConfig, ProtocolSpec};

use crate::figures::{RunContext, Scale};
use crate::runner::{run_simulation, SimParams, SimResult};

/// One ablation configuration and its outcome.
#[derive(Debug, Clone, PartialEq)]
pub struct AblationRow {
    /// Human-readable configuration label.
    pub label: String,
    /// The result of the run.
    pub result: SimResult,
}

fn scale_trace(scale: Scale) -> ContactTrace {
    let (students, days) = match scale {
        Scale::Quick => (30, 6),
        Scale::Full => (80, 15),
    };
    NusConfig::new(students, days).seed(42).generate()
}

/// Runs every labelled configuration against `trace` on the context's
/// pool, preserving input order.
fn run_rows(
    trace: &ContactTrace,
    configs: Vec<(String, SimParams)>,
    ctx: &RunContext,
) -> Vec<AblationRow> {
    ctx.runner()
        .run_all(&configs, |(label, params)| AblationRow {
            label: label.clone(),
            result: run_simulation(trace, params, None),
        })
}

fn scale_params(scale: Scale) -> SimParams {
    SimParams {
        days: match scale {
            Scale::Quick => 6,
            Scale::Full => 15,
        },
        seed: 42,
        ..SimParams::default()
    }
}

/// Cooperative vs tit-for-tat scheduling, full MBT.
pub fn cooperation_ablation(ctx: &RunContext) -> Vec<AblationRow> {
    let scale = ctx.scale();
    let trace = scale_trace(scale);
    let configs = [CooperationMode::Cooperative, CooperationMode::TitForTat]
        .into_iter()
        .map(|mode| {
            (
                format!("cooperation={mode}"),
                SimParams {
                    protocol: ProtocolSpec::MBT,
                    config: MbtConfig::new().cooperation(mode),
                    ..scale_params(scale)
                },
            )
        })
        .collect();
    run_rows(&trace, configs, ctx)
}

/// Discovery-first vs download-first contact ordering.
pub fn discovery_first_ablation(ctx: &RunContext) -> Vec<AblationRow> {
    let scale = ctx.scale();
    let trace = scale_trace(scale);
    let configs = [true, false]
        .into_iter()
        .map(|first| {
            (
                format!("discovery_first={first}"),
                SimParams {
                    config: MbtConfig::new().discovery_first(first),
                    ..scale_params(scale)
                },
            )
        })
        .collect();
    run_rows(&trace, configs, ctx)
}

/// Two-phase (paper §V-A) vs rarest-first (BitTorrent-style) broadcast
/// ordering, cooperative mode.
pub fn ordering_ablation(ctx: &RunContext) -> Vec<AblationRow> {
    let scale = ctx.scale();
    let trace = scale_trace(scale);
    let configs = [BroadcastOrdering::TwoPhase, BroadcastOrdering::RarestFirst]
        .into_iter()
        .map(|ordering| {
            (
                format!("ordering={ordering}"),
                SimParams {
                    config: MbtConfig::new().ordering(ordering),
                    ..scale_params(scale)
                },
            )
        })
        .collect();
    run_rows(&trace, configs, ctx)
}

/// Gating the file phase on minimum contact length (0 s, 60 s, 600 s).
pub fn short_contact_ablation(ctx: &RunContext) -> Vec<AblationRow> {
    let scale = ctx.scale();
    let trace = scale_trace(scale);
    let configs = [0u64, 60, 600]
        .into_iter()
        .map(|min_secs| {
            (
                format!("min_download_contact_secs={min_secs}"),
                SimParams {
                    config: MbtConfig::new().min_download_contact_secs(min_secs),
                    ..scale_params(scale)
                },
            )
        })
        .collect();
    run_rows(&trace, configs, ctx)
}

/// Failure injection: broadcast frame loss (0 %, 10 %, 30 %) and node churn
/// (0 %, 20 % of measured nodes dying mid-run), full MBT.
pub fn failure_ablation(ctx: &RunContext) -> Vec<AblationRow> {
    let scale = ctx.scale();
    let trace = scale_trace(scale);
    let mut configs: Vec<(String, SimParams)> = Vec::new();
    for loss in [0.0, 0.1, 0.3] {
        configs.push((
            format!("broadcast_loss={loss:.1}"),
            SimParams {
                faults: FaultPlan::none().loss(loss),
                ..scale_params(scale)
            },
        ));
    }
    let churn = 0.2;
    configs.push((
        format!("node_churn={churn:.1}"),
        SimParams {
            churn,
            ..scale_params(scale)
        },
    ));
    run_rows(&trace, configs, ctx)
}

/// Metadata pollution (§I "fake files" / §III-B item f): no adversary vs a
/// 20 % polluter population, with and without publisher authentication.
pub fn pollution_ablation(ctx: &RunContext) -> Vec<AblationRow> {
    let scale = ctx.scale();
    let trace = scale_trace(scale);
    let configs = [
        ("clean", 0.0, false),
        ("polluted, no auth", 0.2, false),
        ("polluted, auth on", 0.2, true),
    ]
    .into_iter()
    .map(|(label, polluter_fraction, verify_metadata)| {
        (
            label.to_string(),
            SimParams {
                polluter_fraction,
                fakes_per_day: 4,
                verify_metadata,
                ..scale_params(scale)
            },
        )
    })
    .collect();
    run_rows(&trace, configs, ctx)
}

/// Renders ablation rows as an aligned text table.
pub fn ablation_table(title: &str, rows: &[AblationRow]) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(out, "== {title} ==");
    let _ = writeln!(
        out,
        "{:>36} {:>12} {:>12} {:>10} {:>12} {:>12}",
        "configuration", "meta ratio", "file ratio", "queries", "meta bcasts", "file bcasts"
    );
    for r in rows {
        let _ = writeln!(
            out,
            "{:>36} {:>12.4} {:>12.4} {:>10} {:>12} {:>12}",
            r.label,
            r.result.metadata_ratio,
            r.result.file_ratio,
            r.result.queries,
            r.result.metadata_broadcasts,
            r.result.file_broadcasts
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cooperation_ablation_runs_both_modes() {
        let rows = cooperation_ablation(&RunContext::new(Scale::Quick));
        assert_eq!(rows.len(), 2);
        assert!(rows[0].label.contains("cooperative"));
        assert!(rows[1].label.contains("tit-for-tat"));
        for r in &rows {
            assert!(r.result.queries > 0);
        }
    }

    #[test]
    fn short_contact_gating_reduces_file_broadcasts() {
        let rows = short_contact_ablation(&RunContext::new(Scale::Quick));
        let open = &rows[0].result;
        let gated = &rows[2].result;
        assert!(
            gated.file_broadcasts <= open.file_broadcasts,
            "gating cannot increase file broadcasts"
        );
    }

    #[test]
    fn table_renders() {
        let rows = discovery_first_ablation(&RunContext::new(Scale::Quick));
        let t = ablation_table("discovery-first", &rows);
        assert!(t.contains("discovery_first=true"));
        assert!(t.contains("discovery_first=false"));
    }

    #[test]
    fn authentication_recovers_polluted_delivery() {
        let rows = pollution_ablation(&RunContext::new(Scale::Quick));
        let clean = &rows[0].result;
        let polluted = &rows[1].result;
        let defended = &rows[2].result;
        // Pollution cannot help, and authentication cannot hurt relative to
        // being polluted without it.
        assert!(
            polluted.file_ratio <= clean.file_ratio + 1e-9,
            "pollution should not improve delivery: {} vs {}",
            polluted.file_ratio,
            clean.file_ratio
        );
        assert!(
            defended.file_ratio + 1e-9 >= polluted.file_ratio,
            "auth should not be worse than no auth under attack: {} vs {}",
            defended.file_ratio,
            polluted.file_ratio
        );
    }

    #[test]
    fn loss_degrades_delivery_monotonically_ish() {
        let rows = failure_ablation(&RunContext::new(Scale::Quick));
        let no_loss = &rows[0].result;
        let heavy_loss = &rows[2].result;
        assert!(
            heavy_loss.file_ratio <= no_loss.file_ratio,
            "30% loss should not beat lossless: {} vs {}",
            heavy_loss.file_ratio,
            no_loss.file_ratio
        );
        assert!(
            heavy_loss.metadata_ratio <= no_loss.metadata_ratio,
            "metadata under loss: {} vs {}",
            heavy_loss.metadata_ratio,
            no_loss.metadata_ratio
        );
    }

    #[test]
    fn churn_reduces_queries_and_runs_clean() {
        let rows = failure_ablation(&RunContext::new(Scale::Quick));
        let baseline = &rows[0].result;
        let churned = rows.last().unwrap();
        assert!(churned.label.contains("churn"));
        assert!(
            churned.result.queries <= baseline.queries,
            "dead nodes must stop generating queries"
        );
    }

    #[test]
    fn ordering_ablation_runs_both_policies() {
        let rows = ordering_ablation(&RunContext::new(Scale::Quick));
        assert_eq!(rows.len(), 2);
        assert!(rows[0].label.contains("two-phase"));
        assert!(rows[1].label.contains("rarest-first"));
        for r in &rows {
            assert!(r.result.file_broadcasts > 0);
        }
    }
}
