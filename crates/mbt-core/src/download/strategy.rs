//! Alternative broadcast orderings (extensions beyond the paper).
//!
//! The paper's §V-A orders broadcasts by request count then popularity.
//! BitTorrent — the system MBT adapts (§II-B) — instead transmits the
//! *rarest* block first, maximizing swarm diversity. This module provides a
//! rarest-first scheduler over the same [`Offer`] type so the two policies
//! can be compared head-to-head (see the `ablations` experiment).

use crate::download::{Broadcast, Offer};
use crate::popularity::cmp_popularity;

/// Schedules broadcasts rarest-first: fewest holders first, ties broken by
/// request count (descending), popularity (descending), then item order.
/// Sender selection and slot semantics match
/// [`cooperative::schedule`](crate::download::cooperative::schedule).
///
/// # Example
///
/// ```
/// use mbt_core::download::{strategy, Offer};
/// use mbt_core::{Popularity, Uri};
/// use dtn_trace::NodeId;
///
/// let n = NodeId::new;
/// let common = Offer::new(Uri::new("mbt://common")?, Popularity::MAX,
///     vec![n(5)], vec![n(0), n(1), n(2)]);
/// let rare = Offer::new(Uri::new("mbt://rare")?, Popularity::MIN,
///     vec![n(5)], vec![n(0)]);
/// let schedule = strategy::rarest_first_schedule(vec![common, rare], 2);
/// assert_eq!(schedule[0].item.as_str(), "mbt://rare");
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn rarest_first_schedule<I: Clone + Ord>(
    offers: Vec<Offer<I>>,
    slots: usize,
) -> Vec<Broadcast<I>> {
    let mut sendable: Vec<Offer<I>> = offers.into_iter().filter(Offer::sendable).collect();
    sendable.sort_by(|a, b| {
        a.holders
            .len()
            .cmp(&b.holders.len())
            .then_with(|| b.request_count().cmp(&a.request_count()))
            .then_with(|| cmp_popularity(b.popularity, a.popularity))
            .then_with(|| a.item.cmp(&b.item))
    });
    sendable
        .into_iter()
        .take(slots)
        .map(|o| Broadcast {
            sender: o.holders[0],
            item: o.item,
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

    fn offer(u: &str, pop: f64, req: &[u32], hold: &[u32]) -> Offer<Uri> {
        Offer::new(
            uri(u),
            Popularity::new(pop),
            req.iter().copied().map(n).collect(),
            hold.iter().copied().map(n).collect(),
        )
    }

    #[test]
    fn rarest_goes_first() {
        let s = rarest_first_schedule(
            vec![
                offer("mbt://common", 0.9, &[5], &[0, 1, 2, 3]),
                offer("mbt://rare", 0.1, &[5], &[0]),
            ],
            10,
        );
        assert_eq!(s[0].item, uri("mbt://rare"));
        assert_eq!(s[1].item, uri("mbt://common"));
    }

    #[test]
    fn ties_broken_by_requests_then_popularity() {
        let s = rarest_first_schedule(
            vec![
                offer("mbt://a", 0.1, &[5, 6], &[0]),
                offer("mbt://b", 0.9, &[5], &[1]),
            ],
            10,
        );
        assert_eq!(s[0].item, uri("mbt://a"), "more requesters wins the tie");
        let s2 = rarest_first_schedule(
            vec![
                offer("mbt://a", 0.1, &[5], &[0]),
                offer("mbt://b", 0.9, &[6], &[1]),
            ],
            10,
        );
        assert_eq!(
            s2[0].item,
            uri("mbt://b"),
            "popularity breaks equal-request ties"
        );
    }

    #[test]
    fn unsendable_skipped_and_slots_respected() {
        let s = rarest_first_schedule(
            vec![
                offer("mbt://ghost", 0.9, &[5], &[]),
                offer("mbt://a", 0.5, &[], &[0]),
                offer("mbt://b", 0.5, &[], &[1]),
            ],
            1,
        );
        assert_eq!(s.len(), 1);
        assert_ne!(s[0].item, uri("mbt://ghost"));
    }

    #[test]
    fn deterministic() {
        let mk = || {
            vec![
                offer("mbt://b", 0.5, &[5], &[0]),
                offer("mbt://a", 0.5, &[5], &[1]),
            ]
        };
        assert_eq!(
            rarest_first_schedule(mk(), 10),
            rarest_first_schedule(mk(), 10)
        );
        assert_eq!(rarest_first_schedule(mk(), 10)[0].item, uri("mbt://a"));
    }
}
