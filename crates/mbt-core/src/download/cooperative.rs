//! Cooperative (coordinator-driven) broadcast scheduling (paper §V-A).
//!
//! "To prevent collisions and facilitate cooperation, a coordinator is
//! selected in each clique. The coordinator determines the order in which
//! file pieces are broadcasted ... In the first phase, file pieces requested
//! by the nodes in the clique are sent. Those requested by more nodes are
//! sent first. File pieces requested by equal numbers of nodes are broadcast
//! in decreasing file popularity. In the second phase, other file pieces are
//! sent in decreasing popularity."

use crate::download::{Broadcast, Offer};
use crate::popularity::cmp_popularity;

/// Produces the coordinator's broadcast schedule, at most `slots` entries.
///
/// Only sendable offers (with at least one holder) are scheduled, each at
/// most once; the sender is the lowest-ID holder. Offers nobody requests are
/// still scheduled in phase 2 (receivers may want them later), popularity
/// descending.
///
/// # Example
///
/// ```
/// use mbt_core::download::{cooperative, Offer};
/// use mbt_core::{Popularity, Uri};
/// use dtn_trace::NodeId;
///
/// let hot = Offer::new(Uri::new("mbt://hot")?, Popularity::new(0.2),
///     vec![NodeId::new(1), NodeId::new(2)], vec![NodeId::new(0)]);
/// let cold = Offer::new(Uri::new("mbt://cold")?, Popularity::new(0.9),
///     vec![NodeId::new(1)], vec![NodeId::new(0)]);
/// let schedule = cooperative::schedule(vec![cold, hot], 2);
/// assert_eq!(schedule[0].item.as_str(), "mbt://hot", "two requesters beat one");
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn schedule<I: Clone + Ord>(offers: Vec<Offer<I>>, slots: usize) -> Vec<Broadcast<I>> {
    let mut phase1: Vec<Offer<I>> = Vec::new();
    let mut phase2: Vec<Offer<I>> = Vec::new();
    for offer in offers {
        if !offer.sendable() {
            continue;
        }
        if offer.request_count() > 0 {
            phase1.push(offer);
        } else {
            phase2.push(offer);
        }
    }
    phase1.sort_by(|a, b| {
        b.request_count()
            .cmp(&a.request_count())
            .then_with(|| cmp_popularity(b.popularity, a.popularity))
            .then_with(|| a.item.cmp(&b.item))
    });
    phase2.sort_by(|a, b| {
        cmp_popularity(b.popularity, a.popularity).then_with(|| a.item.cmp(&b.item))
    });
    phase1
        .into_iter()
        .chain(phase2)
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

    fn n(i: u32) -> NodeId {
        NodeId::new(i)
    }

    fn uri(s: &str) -> Uri {
        Uri::new(s).unwrap()
    }

    #[test]
    fn requested_by_more_first() {
        let offers = vec![
            Offer::new(uri("mbt://one"), Popularity::MAX, vec![n(1)], vec![n(0)]),
            Offer::new(
                uri("mbt://two"),
                Popularity::MIN,
                vec![n(1), n(2)],
                vec![n(0)],
            ),
        ];
        let s = schedule(offers, 10);
        assert_eq!(s[0].item, uri("mbt://two"));
        assert_eq!(s[1].item, uri("mbt://one"));
    }

    #[test]
    fn popularity_breaks_request_ties() {
        let offers = vec![
            Offer::new(uri("mbt://a"), Popularity::new(0.1), vec![n(1)], vec![n(0)]),
            Offer::new(uri("mbt://b"), Popularity::new(0.9), vec![n(2)], vec![n(0)]),
        ];
        let s = schedule(offers, 10);
        assert_eq!(s[0].item, uri("mbt://b"));
    }

    #[test]
    fn unrequested_items_fill_phase_two() {
        let offers = vec![
            Offer::new(uri("mbt://req"), Popularity::MIN, vec![n(1)], vec![n(0)]),
            Offer::new(uri("mbt://pop"), Popularity::MAX, vec![], vec![n(0)]),
        ];
        let s = schedule(offers, 10);
        assert_eq!(s[0].item, uri("mbt://req"));
        assert_eq!(s[1].item, uri("mbt://pop"));
    }

    #[test]
    fn unsendable_offers_skipped() {
        let offers = vec![Offer::new(
            uri("mbt://ghost"),
            Popularity::MAX,
            vec![n(1)],
            vec![],
        )];
        assert!(schedule(offers, 10).is_empty());
    }

    #[test]
    fn sender_is_lowest_id_holder() {
        let offers = vec![Offer::new(
            uri("mbt://a"),
            Popularity::MAX,
            vec![n(1)],
            vec![n(5), n(3)],
        )];
        let s = schedule(offers, 10);
        assert_eq!(s[0].sender, n(3));
    }

    #[test]
    fn slots_truncate_schedule() {
        let offers: Vec<Offer<Uri>> = (0..5)
            .map(|i| {
                Offer::new(
                    uri(&format!("mbt://{i}")),
                    Popularity::new(0.5),
                    vec![n(1)],
                    vec![n(0)],
                )
            })
            .collect();
        assert_eq!(schedule(offers, 3).len(), 3);
    }

    #[test]
    fn deterministic_ordering() {
        let mk = || {
            vec![
                Offer::new(uri("mbt://b"), Popularity::new(0.5), vec![n(1)], vec![n(0)]),
                Offer::new(uri("mbt://a"), Popularity::new(0.5), vec![n(2)], vec![n(0)]),
            ]
        };
        assert_eq!(schedule(mk(), 10), schedule(mk(), 10));
        // Equal count + popularity → item order decides.
        assert_eq!(schedule(mk(), 10)[0].item, uri("mbt://a"));
    }
}
