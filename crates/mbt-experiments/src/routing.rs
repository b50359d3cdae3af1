//! Routing-baseline experiments.
//!
//! Two extensions beyond the paper's figures:
//!
//! 1. [`routing_comparison`] — the classical store-carry-forward protocols
//!    (epidemic, direct delivery, PRoPHET, spray-and-wait; paper §II-A) on
//!    the same two traces, characterizing the mobility substrate MBT rides
//!    on: how hard is unicast delivery on each trace, and at what overhead.
//! 2. [`dissemination_bound`] — an oracle upper bound for metadata delivery:
//!    the space-time graph says which (node, day) pairs *any* protocol could
//!    possibly have reached from the Internet-access nodes before TTL;
//!    comparing MBT's measured metadata ratio against the bound shows how
//!    much of the physically-possible dissemination MBT actually achieves.

use std::collections::BTreeMap;

use dtn_routing::protocols::{DirectDelivery, Epidemic, Prophet, SprayAndWait};
use dtn_routing::sim::{uniform_messages, RoutingReport, RoutingSim};
use dtn_sim::rng::stream;
use dtn_trace::generators::{DieselNetConfig, NusConfig};
use dtn_trace::{ContactTrace, NodeId, SimDuration, SimTime, SpaceTimeGraph};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;

use crate::figures::{RunContext, Scale};
use crate::runner::{run_simulation, SimParams};
use crate::workload::{self, WorkloadConfig};

/// One row of the routing comparison: trace name + protocol report.
#[derive(Debug, Clone, PartialEq)]
pub struct RoutingRow {
    /// Which trace the row was measured on.
    pub trace: &'static str,
    /// The protocol's report.
    pub report: RoutingReport,
}

fn traces(scale: Scale) -> Vec<(&'static str, ContactTrace)> {
    let days = match scale {
        Scale::Quick => 6,
        Scale::Full => 15,
    };
    let (buses, students) = match scale {
        Scale::Quick => (16, 30),
        Scale::Full => (40, 80),
    };
    vec![
        (
            "dieselnet",
            DieselNetConfig::new(buses, days).seed(42).generate(),
        ),
        ("nus", NusConfig::new(students, days).seed(42).generate()),
    ]
}

/// Runs all four routing protocols over both traces with a uniform unicast
/// workload (200 messages, 2-day TTL at full scale).
pub fn routing_comparison(ctx: &RunContext) -> Vec<RoutingRow> {
    let scale = ctx.scale();
    let count = match scale {
        Scale::Quick => 60,
        Scale::Full => 200,
    };
    let mut rows = Vec::new();
    for (name, trace) in traces(scale) {
        let nodes = trace.nodes();
        if nodes.len() < 2 {
            continue;
        }
        let horizon = trace.end_time().unwrap_or(SimTime::from_secs(1));
        let mut rng: StdRng = stream(42, "routing-workload");
        let msgs = uniform_messages(
            &nodes,
            count,
            horizon,
            Some(SimDuration::from_days(2)),
            &mut rng,
        );
        rows.push(RoutingRow {
            trace: name,
            report: RoutingSim::new(&trace, Epidemic::new()).run(msgs.clone()),
        });
        rows.push(RoutingRow {
            trace: name,
            report: RoutingSim::new(&trace, Prophet::new()).run(msgs.clone()),
        });
        rows.push(RoutingRow {
            trace: name,
            report: RoutingSim::new(&trace, SprayAndWait::new(8)).run(msgs.clone()),
        });
        rows.push(RoutingRow {
            trace: name,
            report: RoutingSim::new(&trace, DirectDelivery::new()).run(msgs),
        });
    }
    rows
}

/// Renders the routing comparison as a table.
pub fn routing_table(rows: &[RoutingRow]) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:>10} {:>16} {:>9} {:>10} {:>12} {:>14} {:>10}",
        "trace", "protocol", "created", "delivered", "ratio", "mean delay(s)", "overhead"
    );
    for r in rows {
        let _ = writeln!(
            out,
            "{:>10} {:>16} {:>9} {:>10} {:>12.4} {:>14} {:>10}",
            r.trace,
            r.report.protocol,
            r.report.created,
            r.report.delivered,
            r.report.delivery_ratio,
            r.report
                .mean_delay_secs
                .map_or("-".to_string(), |d| format!("{d:.0}")),
            r.report
                .overhead
                .map_or("-".to_string(), |o| format!("{o:.2}")),
        );
    }
    out
}

/// One row of the dissemination-bound comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct BoundRow {
    /// Which trace.
    pub trace: &'static str,
    /// Queries generated by measured nodes.
    pub queries: u64,
    /// Queries whose metadata the space-time oracle could possibly deliver
    /// before TTL.
    pub oracle_deliverable: u64,
    /// Metadata MBT actually delivered.
    pub mbt_delivered: u64,
    /// MBT delivered ÷ oracle deliverable (achieved fraction of the bound).
    pub achieved_fraction: f64,
}

/// Computes the oracle bound and MBT's achieved fraction on both traces.
///
/// Replays the exact workload stream used by the runner (same seed and RNG
/// stream names), marks each measured node's query *oracle-deliverable* if a
/// store-carry-forward path exists from any Internet-access node between the
/// file's noon publication and its expiry, and compares against the measured
/// MBT metadata deliveries.
pub fn dissemination_bound(ctx: &RunContext) -> Vec<BoundRow> {
    let scale = ctx.scale();
    let days = match scale {
        Scale::Quick => 6,
        Scale::Full => 15,
    };
    let params = SimParams {
        days,
        seed: 42,
        ..SimParams::default()
    };
    let mut rows = Vec::new();
    for (name, trace) in traces(scale) {
        let nodes = trace.nodes();
        if nodes.len() < 2 {
            continue;
        }
        // Internet-node selection: identical to the runner's.
        let mut shuffled = nodes.clone();
        let mut pick_rng: StdRng = stream(params.seed, "internet-selection");
        shuffled.shuffle(&mut pick_rng);
        let internet_count = ((nodes.len() as f64) * params.internet_fraction).round() as usize;
        let internet: Vec<NodeId> = shuffled.into_iter().take(internet_count).collect();

        // Workload replay: identical stream as the runner.
        let workload = WorkloadConfig::new(params.files_per_day, params.ttl_days);
        let mut wl_rng: StdRng = stream(params.seed, "workload");
        let graph = SpaceTimeGraph::new(&trace);

        let mut queries = 0u64;
        let mut oracle = 0u64;
        for day in 0..days {
            let batch = workload::generate_batch(&workload, day, &mut wl_rng);
            // Earliest possible arrival from any Internet node, per node.
            let mut earliest: BTreeMap<NodeId, SimTime> = BTreeMap::new();
            for &src in &internet {
                for (node, at) in graph.earliest_delivery(src, batch.at) {
                    let e = earliest.entry(node).or_insert(at);
                    if at < *e {
                        *e = at;
                    }
                }
            }
            let expires = batch.at + workload.ttl();
            for &node in &nodes {
                let picks = workload::draw_queries(&batch, node, &mut wl_rng);
                if internet.contains(&node) {
                    continue; // unmeasured, like the runner
                }
                for _ in &picks {
                    queries += 1;
                    if earliest.get(&node).is_some_and(|&at| at < expires) {
                        oracle += 1;
                    }
                }
            }
        }

        let mbt = run_simulation(&trace, &params, None);
        rows.push(BoundRow {
            trace: name,
            queries,
            oracle_deliverable: oracle,
            mbt_delivered: mbt.metadata_delivered,
            achieved_fraction: if oracle == 0 {
                0.0
            } else {
                mbt.metadata_delivered as f64 / oracle as f64
            },
        });
    }
    rows
}

/// Renders the bound comparison as a table.
pub fn bound_table(rows: &[BoundRow]) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:>10} {:>9} {:>18} {:>14} {:>18}",
        "trace", "queries", "oracle deliverable", "MBT delivered", "achieved fraction"
    );
    for r in rows {
        let _ = writeln!(
            out,
            "{:>10} {:>9} {:>18} {:>14} {:>18.4}",
            r.trace, r.queries, r.oracle_deliverable, r.mbt_delivered, r.achieved_fraction
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn comparison_produces_rows_for_both_traces() {
        let rows = routing_comparison(&RunContext::new(Scale::Quick));
        assert_eq!(rows.len(), 8);
        let dieselnet: Vec<&RoutingRow> = rows.iter().filter(|r| r.trace == "dieselnet").collect();
        assert_eq!(dieselnet.len(), 4);
        // Epidemic dominates on each trace.
        for trace in ["dieselnet", "nus"] {
            let on: Vec<&RoutingRow> = rows.iter().filter(|r| r.trace == trace).collect();
            let epidemic = on.iter().find(|r| r.report.protocol == "epidemic").unwrap();
            for r in &on {
                assert!(
                    epidemic.report.delivered >= r.report.delivered,
                    "{trace}: epidemic {} < {} {}",
                    epidemic.report.delivered,
                    r.report.protocol,
                    r.report.delivered
                );
            }
        }
    }

    #[test]
    fn bound_is_a_true_upper_bound() {
        for row in dissemination_bound(&RunContext::new(Scale::Quick)) {
            assert!(
                row.mbt_delivered <= row.oracle_deliverable,
                "{}: MBT {} exceeds oracle {}",
                row.trace,
                row.mbt_delivered,
                row.oracle_deliverable
            );
            assert!(row.oracle_deliverable <= row.queries);
            assert!(row.achieved_fraction <= 1.0 + 1e-9);
        }
    }

    #[test]
    fn tables_render() {
        let rows = routing_comparison(&RunContext::new(Scale::Quick));
        let t = routing_table(&rows);
        assert!(t.contains("epidemic"));
        assert!(t.contains("spray-and-wait"));
    }
}
