//! Cooperative (coordinator-driven) broadcast scheduling (paper §V-A).
//!
//! "To prevent collisions and facilitate cooperation, a coordinator is
//! selected in each clique. The coordinator determines the order in which
//! file pieces are broadcasted ... In the first phase, file pieces requested
//! by the nodes in the clique are sent. Those requested by more nodes are
//! sent first. File pieces requested by equal numbers of nodes are broadcast
//! in decreasing file popularity. In the second phase, other file pieces are
//! sent in decreasing popularity."
//!
//! Both phases are one ranking: an unrequested item has fewer requesters
//! than every requested one, so sorting by requester count, then popularity,
//! puts phase 1 before phase 2. BitTorrent — the system MBT adapts (§II-B) —
//! sends the *rarest* item first instead; [`BroadcastOrdering::RarestFirst`]
//! puts the holder count in front of the same key, so the two policies can
//! be compared head-to-head (the `ordering` ablation).

use std::cmp::Ordering;

use crate::config::BroadcastOrdering;
use crate::download::{Broadcast, Offer};
use crate::popularity::cmp_popularity;

/// Produces the coordinator's broadcast schedule, at most `slots` entries.
///
/// Only sendable offers (with at least one holder) are scheduled, each at
/// most once; the sender is the lowest-ID holder. Under
/// [`BroadcastOrdering::TwoPhase`] offers go by requester count descending,
/// then popularity descending, then item order — so offers nobody requests
/// still fill the slots the requested leave (receivers may want them later).
/// [`BroadcastOrdering::RarestFirst`] ranks by holder count ascending first
/// (its own example shows the rare item jumping the queue).
///
/// # Example
///
/// ```
/// use mbt_core::download::{cooperative, Offer};
/// use mbt_core::{BroadcastOrdering, Popularity, Uri};
/// use dtn_trace::NodeId;
///
/// let n = NodeId::new;
/// let hot = Offer::new(Uri::new("mbt://hot")?, Popularity::new(0.2),
///     vec![n(1), n(2)], vec![n(0), n(3)]);
/// let cold = Offer::new(Uri::new("mbt://cold")?, Popularity::new(0.9),
///     vec![n(1)], vec![n(0)]);
/// let schedule = cooperative::schedule(vec![cold, hot], 2, BroadcastOrdering::TwoPhase);
/// assert_eq!(schedule[0].item.as_str(), "mbt://hot", "two requesters beat one");
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn schedule<I: Ord>(
    offers: Vec<Offer<I>>,
    slots: usize,
    ordering: BroadcastOrdering,
) -> Vec<Broadcast<I>> {
    let mut sendable: Vec<Offer<I>> = offers.into_iter().filter(Offer::sendable).collect();
    sendable.sort_by(|a, b| {
        let rarity = match ordering {
            BroadcastOrdering::TwoPhase => Ordering::Equal,
            BroadcastOrdering::RarestFirst => a.holders.len().cmp(&b.holders.len()),
        };
        rarity
            .then_with(|| b.request_count().cmp(&a.request_count()))
            .then_with(|| cmp_popularity(b.popularity, a.popularity))
            .then_with(|| a.item.cmp(&b.item))
    });
    sendable
        .into_iter()
        .take(slots)
        .map(|offer| Broadcast {
            sender: offer.holders[0],
            item: offer.item,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::popularity::Popularity;
    use crate::uri::Uri;
    use dtn_trace::NodeId;
    use BroadcastOrdering::{RarestFirst, TwoPhase};

    fn n(i: u32) -> NodeId {
        NodeId::new(i)
    }

    fn uri(s: &str) -> Uri {
        Uri::new(s).unwrap()
    }

    fn offer(u: &str, pop: f64, req: &[u32], hold: &[u32]) -> Offer<Uri> {
        Offer::new(
            uri(u),
            Popularity::new(pop),
            req.iter().copied().map(n).collect(),
            hold.iter().copied().map(n).collect(),
        )
    }

    #[test]
    fn requested_by_more_first() {
        let offers = vec![
            offer("mbt://one", 1.0, &[1], &[0]),
            offer("mbt://two", 0.0, &[1, 2], &[0]),
        ];
        let s = schedule(offers, 10, TwoPhase);
        assert_eq!(s[0].item, uri("mbt://two"));
        assert_eq!(s[1].item, uri("mbt://one"));
    }

    #[test]
    fn popularity_breaks_request_ties() {
        let offers = vec![
            offer("mbt://a", 0.1, &[1], &[0]),
            offer("mbt://b", 0.9, &[2], &[0]),
        ];
        let s = schedule(offers, 10, TwoPhase);
        assert_eq!(s[0].item, uri("mbt://b"));
    }

    #[test]
    fn unrequested_items_fill_phase_two() {
        let offers = vec![
            offer("mbt://req", 0.0, &[1], &[0]),
            offer("mbt://pop", 1.0, &[], &[0]),
        ];
        let s = schedule(offers, 10, TwoPhase);
        assert_eq!(s[0].item, uri("mbt://req"));
        assert_eq!(s[1].item, uri("mbt://pop"));
    }

    #[test]
    fn unsendable_offers_skipped() {
        let offers = vec![offer("mbt://ghost", 1.0, &[1], &[])];
        assert!(schedule(offers, 10, TwoPhase).is_empty());
    }

    #[test]
    fn sender_is_lowest_id_holder() {
        let offers = vec![offer("mbt://a", 1.0, &[1], &[5, 3])];
        let s = schedule(offers, 10, TwoPhase);
        assert_eq!(s[0].sender, n(3));
    }

    #[test]
    fn slots_truncate_schedule() {
        let offers: Vec<Offer<Uri>> = (0..5)
            .map(|i| offer(&format!("mbt://{i}"), 0.5, &[1], &[0]))
            .collect();
        assert_eq!(schedule(offers, 3, TwoPhase).len(), 3);
    }

    #[test]
    fn deterministic_ordering() {
        let mk = || {
            vec![
                offer("mbt://b", 0.5, &[1], &[0]),
                offer("mbt://a", 0.5, &[2], &[0]),
            ]
        };
        assert_eq!(schedule(mk(), 10, TwoPhase), schedule(mk(), 10, TwoPhase));
        // Equal count + popularity → item order decides.
        assert_eq!(schedule(mk(), 10, TwoPhase)[0].item, uri("mbt://a"));
    }

    #[test]
    fn rarest_goes_first() {
        let offers = vec![
            offer("mbt://common", 0.9, &[5], &[0, 1, 2, 3]),
            offer("mbt://rare", 0.1, &[5], &[0]),
        ];
        let s = schedule(offers, 10, RarestFirst);
        assert_eq!(s[0].item, uri("mbt://rare"));
        assert_eq!(s[1].item, uri("mbt://common"));
    }

    #[test]
    fn rarest_first_ties_broken_by_requests_then_popularity() {
        let offers = vec![
            offer("mbt://a", 0.1, &[5, 6], &[0]),
            offer("mbt://b", 0.9, &[5], &[1]),
        ];
        let s = schedule(offers, 10, RarestFirst);
        assert_eq!(s[0].item, uri("mbt://a"), "more requesters wins the tie");
        let offers = vec![
            offer("mbt://a", 0.1, &[5], &[0]),
            offer("mbt://b", 0.9, &[6], &[1]),
        ];
        let s = schedule(offers, 10, RarestFirst);
        assert_eq!(
            s[0].item,
            uri("mbt://b"),
            "popularity breaks equal-request ties"
        );
    }

    #[test]
    fn rarest_first_skips_unsendable_and_respects_slots() {
        let offers = vec![
            offer("mbt://ghost", 0.9, &[5], &[]),
            offer("mbt://a", 0.5, &[], &[0]),
            offer("mbt://b", 0.5, &[], &[1]),
        ];
        let s = schedule(offers, 1, RarestFirst);
        assert_eq!(s.len(), 1);
        assert_ne!(s[0].item, uri("mbt://ghost"));
    }

    #[test]
    fn rarest_first_is_deterministic() {
        let mk = || {
            vec![
                offer("mbt://b", 0.5, &[5], &[0]),
                offer("mbt://a", 0.5, &[5], &[1]),
            ]
        };
        let s = schedule(mk(), 10, RarestFirst);
        assert_eq!(s, schedule(mk(), 10, RarestFirst));
        assert_eq!(s[0].item, uri("mbt://a"));
    }
}
