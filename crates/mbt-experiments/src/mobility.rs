//! Cross-mobility comparison (extension).
//!
//! The paper evaluates on two mobility regimes (sparse pair-wise buses,
//! dense classroom cliques). This experiment runs the three protocol
//! variants over *four* regimes — adding the clustered community model and
//! organic random-waypoint mobility — to locate where each MBT mechanism
//! pays: query distribution matters on sparse/clustered traces, broadcast
//! cliques matter on dense ones.

use dtn_trace::generators::{CommunityConfig, DieselNetConfig, NusConfig, RandomWaypointConfig};
use dtn_trace::{AggregateGraph, ContactTrace, SimDuration, SECONDS_PER_DAY};
use mbt_core::ProtocolSpec;

use crate::figures::{RunContext, Scale};
use crate::runner::{run_simulation, SimParams, SimResult};

/// One row: a mobility model × protocol result, with trace shape context.
#[derive(Debug, Clone, PartialEq)]
pub struct MobilityRow {
    /// Mobility model name.
    pub model: &'static str,
    /// Protocol variant.
    pub protocol: ProtocolSpec,
    /// Contacts in the trace.
    pub contacts: usize,
    /// Mean clique size of the trace.
    pub mean_clique: f64,
    /// Aggregate-graph density.
    pub density: f64,
    /// The simulation result.
    pub result: SimResult,
}

fn models(scale: Scale) -> Vec<(&'static str, ContactTrace, u64)> {
    let days = match scale {
        Scale::Quick => 6,
        Scale::Full => 12,
    };
    let n = match scale {
        Scale::Quick => 24,
        Scale::Full => 48,
    };
    vec![
        (
            "dieselnet",
            DieselNetConfig::new(n, days).seed(42).generate(),
            3,
        ),
        ("nus", NusConfig::new(n, days).seed(42).generate(), 1),
        (
            "community",
            CommunityConfig::new(n, days).seed(42).generate(),
            1,
        ),
        (
            "rwp",
            RandomWaypointConfig::new(n.min(24), days.min(2) * SECONDS_PER_DAY)
                .seed(42)
                .arena_m(800.0)
                .generate(),
            1,
        ),
    ]
}

/// Runs every protocol over every mobility model.
pub fn mobility_comparison(ctx: &RunContext) -> Vec<MobilityRow> {
    let scale = ctx.scale();
    let days = match scale {
        Scale::Quick => 6,
        Scale::Full => 12,
    };
    let mut rows = Vec::new();
    for (model, trace, frequent_days) in models(scale) {
        if trace.node_count() < 2 {
            continue;
        }
        let graph = AggregateGraph::from_trace(&trace);
        let mean_clique =
            trace.iter().map(|c| c.size()).sum::<usize>() as f64 / trace.len().max(1) as f64;
        for protocol in ProtocolSpec::TRIAD {
            let params = SimParams::builder()
                .protocol(protocol)
                .days(days)
                .seed(42)
                .files_per_day(20)
                .frequent_window(SimDuration::from_days(frequent_days))
                .build();
            rows.push(MobilityRow {
                model,
                protocol,
                contacts: trace.len(),
                mean_clique,
                density: graph.density(),
                result: run_simulation(&trace, &params, None),
            });
        }
    }
    rows
}

/// Renders the comparison as a table.
pub fn mobility_table(rows: &[MobilityRow]) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:>11} {:>8} {:>9} {:>8} {:>8} {:>11} {:>11}",
        "model", "protocol", "contacts", "clique", "density", "meta ratio", "file ratio"
    );
    for r in rows {
        let _ = writeln!(
            out,
            "{:>11} {:>8} {:>9} {:>8.1} {:>8.3} {:>11.4} {:>11.4}",
            r.model,
            r.protocol,
            r.contacts,
            r.mean_clique,
            r.density,
            r.result.metadata_ratio,
            r.result.file_ratio
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn covers_all_models_and_protocols() {
        let rows = mobility_comparison(&RunContext::new(Scale::Quick));
        let models: std::collections::BTreeSet<&str> = rows.iter().map(|r| r.model).collect();
        assert!(models.len() >= 3, "models: {models:?}");
        for model in &models {
            let per: Vec<&MobilityRow> = rows.iter().filter(|r| &r.model == model).collect();
            assert_eq!(per.len(), 3, "{model} missing protocols");
        }
    }

    #[test]
    fn mbt_never_loses_to_mbtqm_on_metadata() {
        let rows = mobility_comparison(&RunContext::new(Scale::Quick));
        let models: std::collections::BTreeSet<&str> = rows.iter().map(|r| r.model).collect();
        for model in models {
            let get = |p: ProtocolSpec| {
                rows.iter()
                    .find(|r| r.model == model && r.protocol == p)
                    .unwrap()
            };
            let mbt = get(ProtocolSpec::MBT);
            let qm = get(ProtocolSpec::MBT_QM);
            assert!(
                mbt.result.metadata_ratio + 1e-9 >= qm.result.metadata_ratio,
                "{model}: MBT {} < MBT-QM {}",
                mbt.result.metadata_ratio,
                qm.result.metadata_ratio
            );
        }
    }

    #[test]
    fn table_renders_all_rows() {
        let rows = mobility_comparison(&RunContext::new(Scale::Quick));
        let t = mobility_table(&rows);
        assert_eq!(t.lines().count(), rows.len() + 1);
        assert!(t.contains("community"));
    }
}
