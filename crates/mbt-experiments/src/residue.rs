//! A per-node store of [`ColdNodeState`], kept only for the benchmark.
//!
//! Nothing in the pipeline uses it: the runner builds a node once and
//! evicts nothing. The benchmark's `residue.absorb_take.ns_per_op` probe
//! compiles against [`ResidueStore::new`], [`absorb`](ResidueStore::absorb)
//! and [`take`](ResidueStore::take), so the store (and
//! `mbt_core::ColdNodeState`) goes when the benchmark's next version drops
//! that probe; ROADMAP "Ledger v2" records the order of deletion.

use std::collections::HashMap;

use dtn_trace::NodeId;
use mbt_core::ColdNodeState;

/// The buffered residue of each node that holds any.
#[derive(Debug, Default)]
pub struct ResidueStore {
    nodes: HashMap<NodeId, ColdNodeState>,
}

impl ResidueStore {
    /// Creates an empty store sized for `id_space` node ids.
    pub fn new(id_space: usize) -> Self {
        ResidueStore {
            nodes: HashMap::with_capacity(id_space),
        }
    }

    /// Folds a node's cold state in: queries append (preserving order), the
    /// credit ledger replaces what was buffered.
    pub fn absorb(&mut self, id: NodeId, residue: ColdNodeState) {
        let entry = self.nodes.entry(id).or_default();
        entry.queries.extend(residue.queries);
        entry.credits = residue.credits;
    }

    /// Removes and returns a node's residue: queries in insertion order,
    /// credits as stored. `None` if the node holds none.
    pub fn take(&mut self, id: NodeId) -> Option<ColdNodeState> {
        self.nodes.remove(&id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dtn_trace::SimTime;
    use mbt_core::Query;

    fn q(text: &str) -> Query {
        Query::new(text).unwrap()
    }

    fn n(id: u32) -> NodeId {
        NodeId::new(id)
    }

    fn queries(texts: &[(&str, Option<u64>)]) -> ColdNodeState {
        ColdNodeState {
            queries: texts
                .iter()
                .map(|&(text, expires)| (q(text), expires.map(SimTime::from_secs)))
                .collect(),
            credits: vec![],
        }
    }

    #[test]
    fn take_returns_queries_in_insertion_order() {
        let mut store = ResidueStore::new(8);
        store.absorb(n(3), queries(&[("beta", None), ("alpha", Some(100))]));
        store.absorb(n(3), queries(&[("beta", Some(50))]));
        let residue = store.take(n(3)).unwrap();
        let texts: Vec<&str> = residue.queries.iter().map(|(q, _)| q.text()).collect();
        assert_eq!(
            texts,
            ["beta", "alpha", "beta"],
            "order and duplicates preserved"
        );
        assert_eq!(residue.queries[1].1, Some(SimTime::from_secs(100)));
        assert!(store.take(n(3)).is_none(), "take drains");
    }

    #[test]
    fn absorb_appends_queries_and_replaces_credits() {
        let mut store = ResidueStore::new(4);
        store.absorb(
            n(0),
            ColdNodeState {
                queries: vec![(q("buffered"), None)],
                credits: vec![(n(2), 5.0)],
            },
        );
        store.absorb(
            n(0),
            ColdNodeState {
                queries: vec![(q("evicted"), Some(SimTime::from_secs(5)))],
                credits: vec![(n(1), 2.0)],
            },
        );
        let residue = store.take(n(0)).unwrap();
        let texts: Vec<&str> = residue.queries.iter().map(|(q, _)| q.text()).collect();
        assert_eq!(texts, ["buffered", "evicted"]);
        assert_eq!(residue.credits, vec![(n(1), 2.0)]);
    }

    #[test]
    fn ids_beyond_the_initial_space_work() {
        let mut store = ResidueStore::new(2);
        store.absorb(n(1000), queries(&[("far", None)]));
        assert_eq!(store.take(n(1000)).unwrap().queries.len(), 1);
    }
}
