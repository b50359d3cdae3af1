//! Routing-baseline experiments.
//!
//! Two extensions beyond the paper's figures:
//!
//! 1. [`baselines_table`] — the classical store-carry-forward protocols
//!    (epidemic, direct delivery, PRoPHET, spray-and-wait; paper §II-A) on
//!    the same two traces, characterizing the mobility substrate MBT rides
//!    on: how hard is unicast delivery on each trace, and at what overhead.
//! 2. [`bound_table`] — an oracle upper bound for metadata delivery:
//!    the space-time graph says which (node, day) pairs *any* protocol could
//!    possibly have reached from the Internet-access nodes before TTL;
//!    comparing MBT's measured metadata ratio against the bound shows how
//!    much of the physically-possible dissemination MBT actually achieves.

use std::collections::BTreeMap;

use dtn_routing::protocols::{DirectDelivery, Epidemic, Prophet, SprayAndWait};
use dtn_routing::sim::{uniform_messages, RoutingReport, RoutingSim};
use dtn_routing::Message;
use dtn_sim::rng::stream;
use dtn_trace::{ContactTrace, NodeId, SimDuration, SimTime, SpaceTimeGraph};
use rand::rngs::StdRng;

use crate::figures::{RunContext, Scale};
use crate::report::{aligned_table, Column};
use crate::runner::{internet_nodes, run_simulation};
use crate::workload::{self, WorkloadConfig};

/// The DieselNet- and NUS-style traces at `scale`.
fn traces(scale: Scale) -> [(&'static str, ContactTrace); 2] {
    [("dieselnet", scale.dieselnet()), ("nus", scale.nus(1.0))]
}

/// Routes a workload over a trace with one protocol.
type Protocol = fn(&ContactTrace, Vec<Message>) -> RoutingReport;

/// The compared protocols, in table order.
const PROTOCOLS: [Protocol; 4] = [
    |trace, msgs| RoutingSim::new(trace, Epidemic::new()).run(msgs),
    |trace, msgs| RoutingSim::new(trace, Prophet::new()).run(msgs),
    |trace, msgs| RoutingSim::new(trace, SprayAndWait::new(8)).run(msgs),
    |trace, msgs| RoutingSim::new(trace, DirectDelivery::new()).run(msgs),
];

/// Runs every protocol over both traces with a uniform unicast workload of
/// 2-day TTL, each run on the context's pool; each row is the trace's name
/// and the protocol's report.
fn routing_comparison(ctx: &RunContext) -> Vec<(&'static str, RoutingReport)> {
    let workloads: Vec<(&'static str, ContactTrace, Vec<Message>)> = traces(ctx.scale())
        .into_iter()
        .map(|(name, trace)| {
            let horizon = trace.end_time().unwrap_or(SimTime::from_secs(1));
            let mut rng: StdRng = stream(42, "routing-workload");
            let ttl = Some(SimDuration::from_days(2));
            let count = ctx.scale().messages();
            let msgs = uniform_messages(&trace.nodes(), count, horizon, ttl, &mut rng);
            (name, trace, msgs)
        })
        .collect();
    let runs: Vec<_> = (workloads.iter())
        .flat_map(|workload| PROTOCOLS.map(|protocol| (workload, protocol)))
        .collect();
    ctx.runner()
        .run_all(&runs, |&(&(name, ref trace, ref msgs), protocol)| {
            (name, protocol(trace, msgs.clone()))
        })
}

/// The routing comparison under `ctx`, rendered as a table.
pub(crate) fn baselines_table(ctx: &RunContext) -> String {
    let columns: [Column<(&str, RoutingReport)>; 7] = [
        ("trace", 10, |(trace, _)| trace.to_string()),
        ("protocol", 16, |(_, r)| r.protocol.to_string()),
        ("created", 9, |(_, r)| r.created.to_string()),
        ("delivered", 10, |(_, r)| r.delivered.to_string()),
        ("ratio", 12, |(_, r)| format!("{:.4}", r.delivery_ratio)),
        ("mean delay(s)", 14, |(_, r)| or_dash(r.mean_delay_secs, 0)),
        ("overhead", 10, |(_, r)| or_dash(r.overhead, 2)),
    ];
    aligned_table(&columns, &routing_comparison(ctx))
}

/// `value` to `digits` decimals, or `-` when there is none.
fn or_dash(value: Option<f64>, digits: usize) -> String {
    value.map_or("-".to_string(), |v| format!("{v:.digits$}"))
}

/// One row of the dissemination-bound comparison.
#[derive(Debug, Clone, PartialEq)]
struct BoundRow {
    /// Which trace.
    trace: &'static str,
    /// Queries generated by measured nodes.
    queries: u64,
    /// Queries whose metadata the space-time oracle could possibly deliver
    /// before TTL.
    oracle_deliverable: u64,
    /// Metadata MBT actually delivered.
    mbt_delivered: u64,
    /// MBT delivered ÷ oracle deliverable (achieved fraction of the bound).
    achieved_fraction: f64,
}

/// Computes the oracle bound and MBT's achieved fraction on both traces,
/// each trace on the context's pool.
///
/// Replays the exact workload stream used by the runner (same seed and RNG
/// stream names), marks each measured node's query *oracle-deliverable* if a
/// store-carry-forward path exists from any Internet-access node between the
/// file's noon publication and its expiry, and compares against the measured
/// MBT metadata deliveries.
fn dissemination_bound(ctx: &RunContext) -> Vec<BoundRow> {
    let params = ctx.scale().params();
    ctx.runner()
        .run_all(&traces(ctx.scale()), |&(name, ref trace)| {
            let nodes = trace.nodes();
            let internet = internet_nodes(&nodes, &params);

            // Workload replay: identical stream as the runner.
            let workload = WorkloadConfig::new(params.files_per_day, params.ttl_days);
            let mut wl_rng: StdRng = stream(params.seed, "workload");
            let graph = SpaceTimeGraph::new(trace);

            let mut queries = 0u64;
            let mut oracle = 0u64;
            for day in 0..params.days {
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
                    let picks = workload::draw_queries(&batch, &mut wl_rng);
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

            let mbt = run_simulation(trace, &params, None);
            BoundRow {
                trace: name,
                queries,
                oracle_deliverable: oracle,
                mbt_delivered: mbt.metadata_delivered,
                achieved_fraction: if oracle == 0 {
                    0.0
                } else {
                    mbt.metadata_delivered as f64 / oracle as f64
                },
            }
        })
}

/// The dissemination bound under `ctx`, rendered as a table.
pub(crate) fn bound_table(ctx: &RunContext) -> String {
    let columns: [Column<BoundRow>; 5] = [
        ("trace", 10, |r| r.trace.to_string()),
        ("queries", 9, |r| r.queries.to_string()),
        ("oracle deliverable", 18, |r| {
            r.oracle_deliverable.to_string()
        }),
        ("MBT delivered", 14, |r| r.mbt_delivered.to_string()),
        ("achieved fraction", 18, |r| {
            format!("{:.4}", r.achieved_fraction)
        }),
    ];
    aligned_table(&columns, &dissemination_bound(ctx))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn comparison_produces_rows_for_both_traces() {
        let rows = routing_comparison(&RunContext::new(Scale::Quick));
        assert_eq!(rows.len(), 8);
        assert_eq!(rows.iter().filter(|r| r.0 == "dieselnet").count(), 4);
        // Epidemic dominates on each trace.
        for trace in ["dieselnet", "nus"] {
            let on: Vec<&RoutingReport> = (rows.iter())
                .filter(|r| r.0 == trace)
                .map(|r| &r.1)
                .collect();
            let epidemic = on.iter().find(|r| r.protocol == "epidemic").unwrap();
            for r in &on {
                assert!(
                    epidemic.delivered >= r.delivered,
                    "{trace}: epidemic {} < {} {}",
                    epidemic.delivered,
                    r.protocol,
                    r.delivered
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
    fn bound_replays_the_runners_workload() {
        let quick = RunContext::new(Scale::Quick);
        let rows = dissemination_bound(&quick);
        let traces = traces(Scale::Quick);
        assert_eq!(rows.len(), traces.len());
        for (row, (name, trace)) in rows.iter().zip(&traces) {
            let run = run_simulation(trace, &Scale::Quick.params(), None);
            assert_eq!(row.queries, run.queries, "{name}");
        }
    }

    #[test]
    fn tables_render() {
        let t = baselines_table(&RunContext::new(Scale::Quick));
        assert!(t.contains("epidemic"));
        assert!(t.contains("spray-and-wait"));
        assert_eq!(t.lines().count(), 1 + 8);
    }
}
