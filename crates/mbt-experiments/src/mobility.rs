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
use crate::report::{aligned_table, Column};
use crate::runner::{run_simulation, SimParams, SimResult};

/// One row: a mobility model × protocol result, with trace shape context.
#[derive(Debug, Clone, PartialEq)]
struct MobilityRow {
    /// Mobility model name.
    model: &'static str,
    /// Protocol variant.
    protocol: ProtocolSpec,
    /// Contacts in the trace.
    contacts: usize,
    /// Mean clique size of the trace.
    mean_clique: f64,
    /// Aggregate-graph density.
    density: f64,
    /// The simulation result.
    result: SimResult,
}

/// Runs every protocol over every mobility model, each run on the
/// context's pool.
fn mobility_comparison(ctx: &RunContext) -> Vec<MobilityRow> {
    // The four models are sized apart from the other experiments.
    let (n, days) = match ctx.scale() {
        Scale::Quick => (24, 6),
        Scale::Full => (48, 12),
    };
    let rwp_secs = days.min(2) * SECONDS_PER_DAY;
    let models: [(&'static str, ContactTrace, u64); 4] = [
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
            RandomWaypointConfig::new(n.min(24), rwp_secs)
                .seed(42)
                .arena_m(800.0)
                .generate(),
            1,
        ),
    ];
    let runs: Vec<_> = (models.iter())
        .flat_map(|model| ProtocolSpec::TRIAD.map(|protocol| (model, protocol)))
        .collect();
    ctx.runner()
        .run_all(&runs, |&(&(model, ref trace, frequent_days), protocol)| {
            let params = SimParams::builder()
                .protocol(protocol)
                .days(days)
                .seed(42)
                .files_per_day(20)
                .frequent_window(SimDuration::from_days(frequent_days))
                .build();
            let cliques = trace.iter().map(|c| c.size()).sum::<usize>();
            MobilityRow {
                model,
                protocol,
                contacts: trace.len(),
                mean_clique: cliques as f64 / trace.len().max(1) as f64,
                density: AggregateGraph::from_trace(trace).density(),
                result: run_simulation(trace, &params, None),
            }
        })
}

/// The comparison under `ctx`, rendered as a table.
pub(crate) fn mobility_table(ctx: &RunContext) -> String {
    let columns: [Column<MobilityRow>; 7] = [
        ("model", 11, |r| r.model.to_string()),
        ("protocol", 8, |r| r.protocol.to_string()),
        ("contacts", 9, |r| r.contacts.to_string()),
        ("clique", 8, |r| format!("{:.1}", r.mean_clique)),
        ("density", 8, |r| format!("{:.3}", r.density)),
        ("meta ratio", 11, |r| {
            format!("{:.4}", r.result.metadata_ratio)
        }),
        ("file ratio", 11, |r| format!("{:.4}", r.result.file_ratio)),
    ];
    aligned_table(&columns, &mobility_comparison(ctx))
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
        let t = mobility_table(&RunContext::new(Scale::Quick));
        assert_eq!(t.lines().count(), 4 * 3 + 1);
        assert!(t.contains("community"));
    }
}
