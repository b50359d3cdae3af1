//! Aggregated (time-collapsed) contact graphs.
//!
//! Collapsing a trace over time yields a weighted graph — the meeting count
//! per node pair — the standard first view of a mobility
//! dataset: how clustered is it, is it connected at all, which nodes are
//! hubs. Used by `mbt trace-stats` and the mobility experiments.

use std::collections::{BTreeMap, BTreeSet};

use crate::node::NodeId;
use crate::trace::ContactTrace;

/// The time-collapsed weighted contact graph of a trace.
///
/// # Example
///
/// ```
/// use dtn_trace::{aggregate::AggregateGraph, Contact, ContactTrace, NodeId, SimTime};
///
/// let trace: ContactTrace = vec![
///     Contact::pairwise(NodeId::new(0), NodeId::new(1), SimTime::from_secs(0), SimTime::from_secs(60))?,
///     Contact::pairwise(NodeId::new(2), NodeId::new(3), SimTime::from_secs(0), SimTime::from_secs(60))?,
/// ].into_iter().collect();
///
/// let graph = AggregateGraph::from_trace(&trace);
/// assert_eq!(graph.components().len(), 2, "two islands");
/// assert_eq!(graph.meeting_count(NodeId::new(0), NodeId::new(1)), 1);
/// # Ok::<(), dtn_trace::ContactError>(())
/// ```
#[derive(Debug, Clone, Default)]
pub struct AggregateGraph {
    /// Per unordered pair: the meeting count.
    edges: BTreeMap<(NodeId, NodeId), u64>,
    nodes: BTreeSet<NodeId>,
}

impl AggregateGraph {
    /// Builds the aggregate graph from a trace. Clique contacts contribute
    /// each of their pairs.
    pub fn from_trace(trace: &ContactTrace) -> Self {
        let mut graph = AggregateGraph::default();
        for contact in trace.iter() {
            for &p in contact.participants() {
                graph.nodes.insert(p);
            }
            for pair in contact.pairs() {
                *graph.edges.entry(pair).or_insert(0) += 1;
            }
        }
        graph
    }

    /// All nodes that appear in the trace, sorted.
    pub fn nodes(&self) -> Vec<NodeId> {
        self.nodes.iter().copied().collect()
    }

    /// Number of weighted edges (pairs that ever met).
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// How many times the pair met.
    pub fn meeting_count(&self, a: NodeId, b: NodeId) -> u64 {
        self.edges.get(&ordered(a, b)).copied().unwrap_or(0)
    }

    /// The degree (distinct peers ever met) of each node.
    pub fn degrees(&self) -> BTreeMap<NodeId, usize> {
        let mut deg: BTreeMap<NodeId, usize> = self.nodes.iter().map(|&n| (n, 0)).collect();
        for &(a, b) in self.edges.keys() {
            *deg.entry(a).or_insert(0) += 1;
            *deg.entry(b).or_insert(0) += 1;
        }
        deg
    }

    /// Connected components of the aggregate graph, each sorted, largest
    /// first (ties broken by smallest member).
    pub fn components(&self) -> Vec<Vec<NodeId>> {
        let mut adjacency: BTreeMap<NodeId, Vec<NodeId>> = BTreeMap::new();
        for &(a, b) in self.edges.keys() {
            adjacency.entry(a).or_default().push(b);
            adjacency.entry(b).or_default().push(a);
        }
        let mut seen: BTreeSet<NodeId> = BTreeSet::new();
        let mut components = Vec::new();
        for &start in &self.nodes {
            if seen.contains(&start) {
                continue;
            }
            let mut component = Vec::new();
            let mut stack = vec![start];
            seen.insert(start);
            while let Some(n) = stack.pop() {
                component.push(n);
                for &peer in adjacency.get(&n).into_iter().flatten() {
                    if seen.insert(peer) {
                        stack.push(peer);
                    }
                }
            }
            component.sort_unstable();
            components.push(component);
        }
        components.sort_by(|a, b| b.len().cmp(&a.len()).then_with(|| a.cmp(b)));
        components
    }

    /// True if every node can (eventually) reach every other, ignoring time.
    ///
    /// A necessary — not sufficient — condition for full delivery: the
    /// time-respecting reachability of
    /// [`SpaceTimeGraph`](crate::SpaceTimeGraph) is strictly stronger.
    pub fn is_connected(&self) -> bool {
        self.components().len() <= 1
    }

    /// Clustering summary: the graph density `edges / (n choose 2)`.
    pub fn density(&self) -> f64 {
        let n = self.nodes.len();
        if n < 2 {
            return 0.0;
        }
        self.edges.len() as f64 / (n * (n - 1) / 2) as f64
    }
}

fn ordered(a: NodeId, b: NodeId) -> (NodeId, NodeId) {
    if a <= b {
        (a, b)
    } else {
        (b, a)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::contact::Contact;
    use crate::time::SimTime;

    fn pc(a: u32, b: u32, start: u64, end: u64) -> Contact {
        Contact::pairwise(
            NodeId::new(a),
            NodeId::new(b),
            SimTime::from_secs(start),
            SimTime::from_secs(end),
        )
        .unwrap()
    }

    #[test]
    fn accumulates_weights() {
        let t: ContactTrace = vec![pc(0, 1, 0, 30), pc(1, 0, 100, 150)]
            .into_iter()
            .collect();
        let g = AggregateGraph::from_trace(&t);
        assert_eq!(g.meeting_count(NodeId::new(1), NodeId::new(0)), 2);
        assert_eq!(g.edge_count(), 1);
    }

    #[test]
    fn clique_contributes_all_pairs() {
        let c = Contact::clique(
            vec![NodeId::new(0), NodeId::new(1), NodeId::new(2)],
            SimTime::from_secs(0),
            SimTime::from_secs(10),
        )
        .unwrap();
        let t: ContactTrace = vec![c].into_iter().collect();
        let g = AggregateGraph::from_trace(&t);
        assert_eq!(g.edge_count(), 3);
        assert_eq!(g.density(), 1.0);
    }

    #[test]
    fn components_detect_partition() {
        let t: ContactTrace = vec![pc(0, 1, 0, 10), pc(2, 3, 0, 10), pc(3, 4, 20, 30)]
            .into_iter()
            .collect();
        let g = AggregateGraph::from_trace(&t);
        let comps = g.components();
        assert_eq!(comps.len(), 2);
        assert_eq!(
            comps[0],
            vec![NodeId::new(2), NodeId::new(3), NodeId::new(4)]
        );
        assert!(!g.is_connected());
    }

    #[test]
    fn connected_chain() {
        let t: ContactTrace = vec![pc(0, 1, 0, 10), pc(1, 2, 0, 10), pc(2, 3, 0, 10)]
            .into_iter()
            .collect();
        let g = AggregateGraph::from_trace(&t);
        assert!(g.is_connected());
        let deg = g.degrees();
        assert_eq!(deg[&NodeId::new(0)], 1);
        assert_eq!(deg[&NodeId::new(1)], 2);
    }

    #[test]
    fn empty_trace_graph() {
        let g = AggregateGraph::from_trace(&ContactTrace::default());
        assert!(g.nodes().is_empty());
        assert_eq!(g.density(), 0.0);
        assert!(g.is_connected(), "vacuously connected");
        assert_eq!(g.meeting_count(NodeId::new(0), NodeId::new(1)), 0);
    }

    #[test]
    fn unknown_pairs_have_zero_weight() {
        let t: ContactTrace = vec![pc(0, 1, 0, 10)].into_iter().collect();
        let g = AggregateGraph::from_trace(&t);
        assert_eq!(g.meeting_count(NodeId::new(0), NodeId::new(9)), 0);
    }
}
