//! The tit-for-tat credit mechanism.
//!
//! Paper §IV-B: each node `u` maintains a credit value for every other node
//! `v`, proportional to the metadata `u` received from `v` that `u`
//! requested. If `v` sends `u` a new metadata matching one of `u`'s query
//! strings, `v`'s credit increases by 5; otherwise it increases by the
//! popularity of the metadata. Nodes weigh peers' requests by these credits,
//! so contributors receive their desired metadata (and file pieces — §V-B
//! reuses the same mechanism) earlier.

use std::collections::BTreeMap;

use dtn_trace::NodeId;

use crate::popularity::Popularity;

/// Credit awarded for a new metadata that matches the receiver's query
/// (paper §IV-B).
pub const MATCHED_METADATA_CREDIT: f64 = 5.0;

/// Per-peer credit ledger.
///
/// # Example
///
/// ```
/// use mbt_core::{CreditLedger, Popularity};
/// use dtn_trace::NodeId;
///
/// let mut ledger = CreditLedger::new();
/// ledger.reward_matched(NodeId::new(1));
/// ledger.reward_unmatched(NodeId::new(2), Popularity::new(0.3));
/// assert_eq!(ledger.credit_of(NodeId::new(1)), 5.0);
/// assert_eq!(ledger.credit_of(NodeId::new(2)), 0.3);
/// assert_eq!(ledger.credit_of(NodeId::new(3)), 0.0);
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CreditLedger {
    credits: BTreeMap<NodeId, f64>,
}

impl CreditLedger {
    /// Creates an empty ledger.
    pub fn new() -> Self {
        CreditLedger::default()
    }

    /// The credit of `peer` (0 for unknown peers).
    pub fn credit_of(&self, peer: NodeId) -> f64 {
        self.credits.get(&peer).copied().unwrap_or(0.0)
    }

    /// Rewards `peer` for delivering a new metadata that matched one of our
    /// queries (+5).
    pub fn reward_matched(&mut self, peer: NodeId) {
        *self.credits.entry(peer).or_insert(0.0) += MATCHED_METADATA_CREDIT;
    }

    /// Rewards `peer` for delivering a new metadata we did not request
    /// (+popularity of the metadata).
    pub fn reward_unmatched(&mut self, peer: NodeId, popularity: Popularity) {
        *self.credits.entry(peer).or_insert(0.0) += popularity.value();
    }

    /// The combined credit weight of a set of requesters — the paper weighs
    /// "metadata by the sum of the credits of the nodes requesting" it.
    pub fn weight_of<I: IntoIterator<Item = NodeId>>(&self, requesters: I) -> f64 {
        requesters.into_iter().map(|n| self.credit_of(n)).sum()
    }

    /// Peers with recorded credit, sorted by descending credit (ties by id).
    pub fn ranked_peers(&self) -> Vec<(NodeId, f64)> {
        let mut out: Vec<(NodeId, f64)> = self.credits.iter().map(|(&n, &c)| (n, c)).collect();
        out.sort_by(|a, b| {
            b.1.partial_cmp(&a.1)
                .expect("credits are finite")
                .then_with(|| a.0.cmp(&b.0))
        });
        out
    }

    /// The raw `(peer, credit)` entries in ascending peer id — what a hello
    /// frame carries, bit for bit. A contact's tit-for-tat scheduler reads
    /// the ledger itself.
    pub fn entries(&self) -> impl Iterator<Item = (NodeId, f64)> + '_ {
        self.credits.iter().map(|(&n, &c)| (n, c))
    }

    /// Number of peers with recorded credit.
    pub fn len(&self) -> usize {
        self.credits.len()
    }

    /// True if no credit is recorded.
    pub fn is_empty(&self) -> bool {
        self.credits.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(i: u32) -> NodeId {
        NodeId::new(i)
    }

    #[test]
    fn matched_pays_five() {
        let mut l = CreditLedger::new();
        l.reward_matched(n(1));
        l.reward_matched(n(1));
        assert_eq!(l.credit_of(n(1)), 10.0);
    }

    #[test]
    fn unmatched_pays_popularity() {
        let mut l = CreditLedger::new();
        l.reward_unmatched(n(2), Popularity::new(0.25));
        l.reward_unmatched(n(2), Popularity::new(0.5));
        assert!((l.credit_of(n(2)) - 0.75).abs() < 1e-12);
    }

    #[test]
    fn matched_beats_unmatched() {
        // A contributor sending wanted metadata out-earns one sending only
        // popular noise — the incentive the paper designs for.
        let mut l = CreditLedger::new();
        l.reward_matched(n(1));
        for _ in 0..4 {
            l.reward_unmatched(n(2), Popularity::MAX);
        }
        assert!(l.credit_of(n(1)) > l.credit_of(n(2)));
    }

    #[test]
    fn weight_sums_requesters() {
        let mut l = CreditLedger::new();
        l.reward_matched(n(1)); // 5
        l.reward_unmatched(n(2), Popularity::new(0.5));
        assert!((l.weight_of([n(1), n(2), n(3)]) - 5.5).abs() < 1e-12);
        assert_eq!(l.weight_of([]), 0.0);
    }

    #[test]
    fn ranked_peers_descending() {
        let mut l = CreditLedger::new();
        l.reward_unmatched(n(5), Popularity::new(0.1));
        l.reward_matched(n(3));
        let ranked = l.ranked_peers();
        assert_eq!(ranked[0].0, n(3));
        assert_eq!(ranked.len(), 2);
        assert_eq!(l.len(), 2);
    }

    #[test]
    fn unknown_peers_have_zero_credit() {
        let l = CreditLedger::new();
        assert_eq!(l.credit_of(n(9)), 0.0);
        assert!(l.is_empty());
    }
}
