//! Broadcast-based file download (paper §V).
//!
//! All previous DTN content distribution uses pair-wise transmission, which
//! contends between geometrically close links and reaches exactly one
//! receiver per transmission. MBT instead divides nodes into *cliques* in
//! which each node can receive from every other; within a clique only one
//! node sends at a time while all others are silent receivers, giving
//! per-node capacity `(n-1)/n` instead of `1/n` (see
//! [`dtn_sim::channel`]).
//!
//! The schedulers here are generic over the broadcast *item*: a contact,
//! simulated or live, schedules the rows of its catalog by index — one row a
//! URI, in URI order, so an index ties exactly as its URI would — at the
//! file-level granularity of the paper's evaluation model, whose broadcast
//! the live transport sends as piece frames; a piece-level swarm can
//! schedule [`crate::piece::PieceId`]s (`examples/piece_swarm.rs`).
//!
//! - [`cooperative`]: a coordinator (deterministically elected) orders the
//!   broadcasts — requested items first, most-requested first (§V-A), or
//!   rarest first (BitTorrent, §II-B);
//! - [`tft`]: no coordinator can be trusted, so members broadcast in an
//!   agreed-upon cyclic order derived from a PRNG seeded with the sum of
//!   their IDs, each choosing what to send by credit weight (§V-B).

pub mod cooperative;
pub mod tft;

use dtn_trace::NodeId;

use crate::popularity::Popularity;

/// An item (file or piece) available for broadcast within a clique.
#[derive(Debug, Clone, PartialEq)]
pub struct Offer<I> {
    /// The item to broadcast.
    pub item: I,
    /// The item's popularity.
    pub popularity: Popularity,
    /// Clique members requesting the item (and not holding it).
    pub requesters: Vec<NodeId>,
    /// Clique members holding the item (candidate senders).
    pub holders: Vec<NodeId>,
}

impl<I> Offer<I> {
    /// Creates an offer; requester/holder lists are sorted and deduplicated.
    pub fn new(
        item: I,
        popularity: Popularity,
        mut requesters: Vec<NodeId>,
        mut holders: Vec<NodeId>,
    ) -> Self {
        requesters.sort_unstable();
        requesters.dedup();
        holders.sort_unstable();
        holders.dedup();
        Offer {
            item,
            popularity,
            requesters,
            holders,
        }
    }

    /// Number of distinct requesters.
    pub fn request_count(&self) -> usize {
        self.requesters.len()
    }

    /// True if at least one clique member can send this item.
    pub fn sendable(&self) -> bool {
        !self.holders.is_empty()
    }
}

/// One scheduled broadcast: `sender` transmits `item` to the whole clique.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Broadcast<I> {
    /// The transmitting node.
    pub sender: NodeId,
    /// The item transmitted.
    pub item: I,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(i: u32) -> NodeId {
        NodeId::new(i)
    }

    #[test]
    fn offer_dedups_and_sorts() {
        let o = Offer::new(
            'a',
            Popularity::new(0.5),
            vec![n(3), n(1), n(3)],
            vec![n(2), n(2)],
        );
        assert_eq!(o.requesters, vec![n(1), n(3)]);
        assert_eq!(o.holders, vec![n(2)]);
        assert_eq!(o.request_count(), 2);
        assert!(o.sendable());
    }

    #[test]
    fn offer_without_holders_not_sendable() {
        let o = Offer::new('a', Popularity::MIN, vec![n(1)], vec![]);
        assert!(!o.sendable());
    }
}
