//! Property-based tests for the simulation substrate.

use proptest::prelude::*;

use dtn_sim::channel::{broadcast_per_node_capacity, pairwise_per_node_capacity};
use dtn_sim::rng::cyclic_order;
use dtn_sim::{SimHandler, StreamSimulator};
use dtn_trace::{Contact, NodeId, SimTime};

/// `(seconds, kind, id)`: kind 0 is a tick and `id` its tag, kind 1 a
/// contact start and `id` the contact's position in the stream.
type Dispatch = (u64, u8, u64);

/// The engine's dispatches, logged. Contact `i` of `n` is the pair
/// `(2(n-i), 2(n-i)+1)`, so stream order is the reverse of participant
/// order: a merge that re-sorted equal starts would show.
struct Logged {
    contacts: u64,
    log: Vec<Dispatch>,
}

impl SimHandler for Logged {
    fn on_contact(&mut self, contact: &Contact) {
        let id = self.contacts - u64::from(contact.participants()[0].raw()) / 2;
        self.log.push((contact.start().as_secs(), 1, id));
    }
    fn on_tick(&mut self, at: SimTime, tag: u64) {
        self.log.push((at.as_secs(), 0, tag));
    }
}

/// The reference the merge replaced: every contact start queued up front
/// beside the ticks in one heap ordered by (time, rank, key, insertion),
/// rank tick < start, key the tag or the stream position.
fn queue_everything(starts: &[u64], ticks: &[(u64, u64)], horizon: Option<u64>) -> Vec<Dispatch> {
    use std::cmp::Reverse;
    let mut heap = std::collections::BinaryHeap::new();
    let entries = starts.iter().zip(0..).map(|(&start, i)| (start, 1, i));
    let entries = entries.chain(ticks.iter().map(|&(at, tag)| (at, 0, tag)));
    for (seq, entry) in entries.enumerate() {
        heap.push(Reverse((entry, seq)));
    }
    let within = |t: u64| horizon.is_none_or(|h| t <= h);
    std::iter::from_fn(|| heap.pop())
        .map(|Reverse((entry, _))| entry)
        .take_while(|&(now, ..)| within(now))
        .collect()
}

proptest! {
    #[test]
    fn cyclic_order_is_permutation_and_member_order_free(
        ids in proptest::collection::btree_set(0u32..1_000, 0..30)
    ) {
        let members: Vec<NodeId> = ids.iter().copied().map(NodeId::new).collect();
        let mut reversed = members.clone();
        reversed.reverse();
        let a = cyclic_order(&members);
        let b = cyclic_order(&reversed);
        prop_assert_eq!(&a, &b, "order depends on argument order");
        let mut sorted = a.clone();
        sorted.sort_unstable();
        prop_assert_eq!(sorted, members);
    }

    #[test]
    fn capacity_formulas_sum_correctly(n in 2usize..100) {
        // Broadcast: n-1 receivers per slot ⇒ per-node (n-1)/n; pair-wise: 1.
        let b = broadcast_per_node_capacity(n);
        let p = pairwise_per_node_capacity(n);
        prop_assert!((b * n as f64 - (n as f64 - 1.0)).abs() < 1e-9);
        prop_assert!((p * n as f64 - 1.0).abs() < 1e-9);
        prop_assert!(b >= p);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// The engine's merge dispatches exactly what a queue holding every
    /// contact start up front would: gaps of 0 give equal starts, and the
    /// small time and tag ranges put starts on tick instants and on the
    /// horizon and give ticks equal instants and equal tags, so the
    /// `(time, tag, registration)` order of the ticks is checked too.
    #[test]
    fn the_merge_dispatches_in_queue_everything_order(
        gaps in proptest::collection::vec(0u64..4, 0..40),
        ticks in proptest::collection::vec((0u64..60, 0u64..4), 0..8),
        (bounded, horizon) in (proptest::bool::ANY, 0u64..70),
    ) {
        let starts: Vec<u64> = gaps
            .iter()
            .scan(0, |at, gap| {
                *at += gap;
                Some(*at)
            })
            .collect();
        let n = starts.len() as u32;
        let stream = starts.iter().zip(0u32..).map(|(&start, i)| {
            let (a, b) = (NodeId::new(2 * (n - i)), NodeId::new(2 * (n - i) + 1));
            let at = SimTime::from_secs(start);
            Contact::pairwise(a, b, at, SimTime::from_secs(start + 1 + u64::from(i % 3))).unwrap()
        });
        let horizon = bounded.then_some(horizon);
        let mut sim = StreamSimulator::new(stream);
        if let Some(h) = horizon {
            sim = sim.horizon(SimTime::from_secs(h));
        }
        for &(at, tag) in &ticks {
            sim = sim.schedule(SimTime::from_secs(at), tag);
        }
        let mut handler = Logged { contacts: u64::from(n), log: Vec::new() };
        let end = sim.run(&mut handler);
        let expected = queue_everything(&starts, &ticks, horizon);
        prop_assert_eq!(end.as_secs(), expected.last().map_or(0, |d| d.0));
        prop_assert_eq!(handler.log, expected);
    }
}
