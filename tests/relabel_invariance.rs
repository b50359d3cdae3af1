//! A metamorphic oracle for the runner's node table (ROADMAP, "Independent
//! oracles"): nothing a simulation reports may depend on what the nodes are
//! *called*, only on the order of their names.
//!
//! The runner picks Internet-access nodes by position in the ascending node
//! list, draws queries in that order and elects the lowest id of a clique as
//! its coordinator — so relabelling every node by an order-preserving map
//! must leave every [`SimResult`] field as it was, and ids the trace never
//! names (holes inside the id space, padding past its end) must cost the run
//! nothing it can observe: a node's row is found through the id, never
//! assumed dense.

use std::collections::BTreeMap;

use dtn_sim::Telemetry;
use dtn_trace::generators::NusConfig;
use dtn_trace::{Contact, ContactStream, ContactTrace, NodeId, SimDuration, SimTime, TraceSource};
use mbt_core::ProtocolSpec;
use mbt_experiments::{run_simulation, SimParams, SimResult};

#[path = "support/sparse.rs"]
mod sparse;

/// `id → 3·id + 7`: order-preserving, and two ids in three name nobody.
fn relabelled(trace: &ContactTrace) -> ContactTrace {
    let rename = |id: &NodeId| NodeId::new(3 * id.raw() + 7);
    trace
        .iter()
        .map(|c| {
            let participants = c.participants().iter().map(rename).collect();
            Contact::clique(participants, c.start(), c.end()).expect("a valid contact")
        })
        .collect()
}

/// `trace` claiming an id space `factor` times the nodes it names.
#[derive(Debug)]
struct Padded<'a> {
    trace: &'a ContactTrace,
    factor: usize,
}

impl TraceSource for Padded<'_> {
    fn len(&self) -> usize {
        self.trace.len()
    }
    fn nodes(&self) -> Vec<NodeId> {
        self.trace.nodes()
    }
    fn id_space(&self) -> usize {
        self.factor * self.trace.node_count()
    }
    fn start_time(&self) -> Option<SimTime> {
        self.trace.start_time()
    }
    fn end_time(&self) -> Option<SimTime> {
        self.trace.end_time()
    }
    fn stream(&self) -> Box<dyn ContactStream + '_> {
        TraceSource::stream(self.trace)
    }
    fn frequent_map(&self, every: SimDuration) -> Option<BTreeMap<NodeId, Vec<NodeId>>> {
        self.trace.frequent_map(every)
    }
}

fn observed(source: &dyn TraceSource, params: &SimParams) -> (SimResult, Telemetry) {
    let mut telemetry = Telemetry::default();
    let result = run_simulation(source, params, Some(&mut telemetry));
    (result, telemetry)
}

/// The Quick-scale NUS campus of the figures: cliques, a third of the
/// students with Internet access.
fn quick_nus() -> (ContactTrace, SimParams) {
    let trace = NusConfig::new(30, 6)
        .seed(42)
        .attendance_rate(0.8)
        .generate();
    let params = SimParams::builder()
        .days(6)
        .seed(42)
        .frequent_window(SimDuration::from_days(1))
        .build();
    (trace, params)
}

fn fixtures() -> Vec<(&'static str, ContactTrace, SimParams)> {
    let (nus, nus_params) = quick_nus();
    vec![
        ("sparse", sparse::trace(), sparse::params(ProtocolSpec::MBT)),
        ("quick NUS", nus, nus_params),
    ]
}

#[test]
fn relabelling_the_nodes_in_order_changes_no_result() {
    for (name, trace, params) in fixtures() {
        let renamed = relabelled(&trace);
        assert_eq!(renamed.node_count(), trace.node_count());
        assert!(renamed.id_space() > 3 * (trace.id_space() - 1), "{name}");
        for protocol in [ProtocolSpec::MBT, ProtocolSpec::POP_CACHE] {
            let params = SimParams {
                protocol,
                ..params.clone()
            };
            let (plain, plain_tel) = observed(&trace, &params);
            let (moved, moved_tel) = observed(&renamed, &params);
            assert!(plain.files_delivered > 0, "{name} {protocol}: an idle run");
            assert_eq!(plain, moved, "{name} {protocol}");
            assert_eq!(
                plain_tel.counters, moved_tel.counters,
                "{name} {protocol}: the counters are functions of the same events"
            );
        }
    }
}

#[test]
fn an_id_space_eight_times_the_nodes_costs_no_rows_and_no_result() {
    for (name, trace, params) in fixtures() {
        let padded = Padded {
            trace: &trace,
            factor: 8,
        };
        let (plain, plain_tel) = observed(&trace, &params);
        let (wide, wide_tel) = observed(&padded, &params);
        assert_eq!(plain, wide, "{name}");
        assert_eq!(plain_tel.counters, wide_tel.counters, "{name}");
        // Every node of these traces is addressed — by a query if not by a
        // contact — and none twice: a row is built once.
        let named = trace.node_count() as u64;
        assert_eq!(wide_tel.counters.nodes_instantiated, named, "{name}");
        assert_eq!(wide_tel.counters.peak_resident_nodes, named, "{name}");
    }
}
