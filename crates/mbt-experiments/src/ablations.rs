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

use std::fmt::Display;

use dtn_sim::FaultPlan;
use mbt_core::{BroadcastOrdering, CooperationMode, MbtConfig};

use crate::figures::{RunContext, Scale};
use crate::report::{aligned_table, Column};
use crate::runner::{run_simulation, SimParams, SimResult};

/// One ablation: the labelled configurations it compares, each run once on
/// the seed-42 NUS-style trace at full attendance.
#[derive(Debug, Clone, Copy)]
pub struct Ablation {
    /// Unique name: the `mbt experiment` name.
    pub name: &'static str,
    /// The table title.
    pub title: &'static str,
    /// The `(label, params)` of each configuration at a scale, in table
    /// order.
    pub configs: fn(Scale) -> Vec<(String, SimParams)>,
}

impl Ablation {
    /// Runs every configuration at the context's scale on its pool, and
    /// returns `(label, result)` in configuration order.
    pub fn run(&self, ctx: &RunContext) -> Vec<(String, SimResult)> {
        let trace = ctx.scale().nus(1.0);
        let configs = (self.configs)(ctx.scale());
        ctx.runner().run_all(&configs, |(label, params)| {
            (label.clone(), run_simulation(&trace, params, None))
        })
    }
}

/// Renders an ablation's `(label, result)`s as an aligned text table.
pub(crate) fn ablation_table(results: &[(String, SimResult)]) -> String {
    let columns: [Column<(String, SimResult)>; 6] = [
        ("configuration", 36, |c| c.0.clone()),
        ("meta ratio", 12, |c| format!("{:.4}", c.1.metadata_ratio)),
        ("file ratio", 12, |c| format!("{:.4}", c.1.file_ratio)),
        ("queries", 10, |c| c.1.queries.to_string()),
        ("meta bcasts", 12, |c| c.1.metadata_broadcasts.to_string()),
        ("file bcasts", 12, |c| c.1.file_broadcasts.to_string()),
    ];
    aligned_table(&columns, results)
}

/// The configuration `label`: the scale's parameters with `set` applied.
fn config(scale: Scale, label: String, set: impl FnOnce(&mut SimParams)) -> (String, SimParams) {
    let mut params = scale.params();
    set(&mut params);
    (label, params)
}

/// One configuration for each of `values`, labelled `name=value`, whose
/// protocol config is the default with `set` applied to the value.
fn knob<T: Display + Copy>(
    scale: Scale,
    name: &str,
    values: &[T],
    set: fn(MbtConfig, T) -> MbtConfig,
) -> Vec<(String, SimParams)> {
    let labelled = |&v| {
        config(scale, format!("{name}={v}"), |p| {
            p.config = set(MbtConfig::new(), v)
        })
    };
    values.iter().map(labelled).collect()
}

/// Every ablation, in catalogue order. Each configuration is the scale's
/// seed-42 parameters, full MBT, with one knob changed.
pub const ABLATIONS: &[Ablation] = &[
    Ablation {
        name: "cooperation",
        title: "cooperation mode (§IV-B/§V-B)",
        configs: |scale| {
            let modes = [CooperationMode::Cooperative, CooperationMode::TitForTat];
            knob(scale, "cooperation", &modes, MbtConfig::cooperation)
        },
    },
    Ablation {
        name: "discovery_first",
        title: "discovery-first contact ordering (§V)",
        configs: |scale| {
            let first = MbtConfig::discovery_first;
            knob(scale, "discovery_first", &[true, false], first)
        },
    },
    // Gating the file phase on minimum contact length.
    Ablation {
        name: "short_contact",
        title: "short-contact file-phase gating (§V)",
        configs: |scale| {
            let gate = MbtConfig::min_download_contact_secs;
            knob(scale, "min_download_contact_secs", &[0, 60, 600], gate)
        },
    },
    Ablation {
        name: "ordering",
        title: "broadcast ordering: two-phase (§V-A) vs rarest-first (BitTorrent)",
        configs: |scale| {
            let orderings = [BroadcastOrdering::TwoPhase, BroadcastOrdering::RarestFirst];
            knob(scale, "ordering", &orderings, MbtConfig::ordering)
        },
    },
    // Broadcast frame loss, then 20 % of measured nodes dying mid-run.
    Ablation {
        name: "failure",
        title: "failure injection: broadcast loss and node churn",
        configs: |scale| {
            let loss = |loss: f64| {
                let faults = FaultPlan::none().loss(loss);
                config(scale, format!("broadcast_loss={loss:.1}"), |p| {
                    p.faults = faults
                })
            };
            let churn = config(scale, "node_churn=0.2".into(), |p| p.churn = 0.2);
            vec![loss(0.0), loss(0.1), loss(0.3), churn]
        },
    },
    // No adversary vs a 20 % polluter population, with and without
    // publisher authentication.
    Ablation {
        name: "pollution",
        title: "metadata pollution: fake publishers vs authentication (§I, §III-B.f)",
        configs: |scale| {
            let polluted = |label: &str, fraction, verify| {
                config(scale, label.into(), |p| {
                    p.polluter_fraction = fraction;
                    p.fakes_per_day = 4;
                    p.verify_metadata = verify;
                })
            };
            vec![
                polluted("clean", 0.0, false),
                polluted("polluted, no auth", 0.2, false),
                polluted("polluted, auth on", 0.2, true),
            ]
        },
    },
];

#[cfg(test)]
mod tests {
    use super::*;

    fn quick(name: &str) -> Vec<(String, SimResult)> {
        let row = ABLATIONS.iter().find(|a| a.name == name);
        row.expect("a row of ABLATIONS")
            .run(&RunContext::new(Scale::Quick))
    }

    #[test]
    fn cooperation_ablation_runs_both_modes() {
        let rows = quick("cooperation");
        assert_eq!(rows.len(), 2);
        assert!(rows[0].0.contains("cooperative"));
        assert!(rows[1].0.contains("tit-for-tat"));
        for r in &rows {
            assert!(r.1.queries > 0);
        }
    }

    #[test]
    fn short_contact_gating_reduces_file_broadcasts() {
        let rows = quick("short_contact");
        let open = &rows[0].1;
        let gated = &rows[2].1;
        assert!(
            gated.file_broadcasts <= open.file_broadcasts,
            "gating cannot increase file broadcasts"
        );
    }

    #[test]
    fn table_renders() {
        let rows = quick("discovery_first");
        let t = ablation_table(&rows);
        assert!(t.contains("discovery_first=true"));
        assert!(t.contains("discovery_first=false"));
    }

    #[test]
    fn authentication_recovers_polluted_delivery() {
        let rows = quick("pollution");
        let clean = &rows[0].1;
        let polluted = &rows[1].1;
        let defended = &rows[2].1;
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
        let rows = quick("failure");
        let no_loss = &rows[0].1;
        let heavy_loss = &rows[2].1;
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
        let rows = quick("failure");
        let baseline = &rows[0].1;
        let churned = rows.last().unwrap();
        assert!(churned.0.contains("churn"));
        assert!(
            churned.1.queries <= baseline.queries,
            "dead nodes must stop generating queries"
        );
    }

    #[test]
    fn ordering_ablation_runs_both_policies() {
        let rows = quick("ordering");
        assert_eq!(rows.len(), 2);
        assert!(rows[0].0.contains("two-phase"));
        assert!(rows[1].0.contains("rarest-first"));
        for r in &rows {
            assert!(r.1.file_broadcasts > 0);
        }
    }
}
