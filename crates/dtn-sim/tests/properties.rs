//! Property-based tests for the simulation substrate.

use proptest::prelude::*;

use dtn_sim::channel::{broadcast_per_node_capacity, pairwise_per_node_capacity};
use dtn_sim::rng::cyclic_order;
use dtn_sim::{EventQueue, SimCtx, SimHandler, StreamSimulator};
use dtn_trace::{Contact, NodeId, SimTime};

/// What a scripted handler does at its `k`-th dispatch, on both sides of the
/// ordering property: maybe schedule one event `delta` seconds from `now`
/// (before it, at it or after it). `left` bounds the schedules of a run, so
/// one that re-schedules at `now` for ever cannot exist.
type Script = Vec<(bool, i64, u64)>;

fn react(script: &Script, k: usize, left: &mut u32, now: SimTime) -> Option<(SimTime, u64)> {
    let &(fires, delta, tag) = script.get(k % script.len().max(1))?;
    if !fires || *left == 0 {
        return None;
    }
    *left -= 1;
    let at = now.as_secs().saturating_add_signed(delta);
    Some((SimTime::from_secs(at), tag))
}

/// `(seconds, kind, id)`: kind 0 is a scheduled event and `id` its tag, kind
/// 1 a contact start and `id` the contact's position in the stream.
type Dispatch = (u64, u8, u64);

const SCHEDULES: u32 = 24;

/// The engine under a scripted handler. Contact `i` of `n` is the pair
/// `(2(n-i), 2(n-i)+1)`, so stream order is the reverse of participant
/// order: a merge that re-sorted equal starts would show.
struct Scripted<'a> {
    script: &'a Script,
    contacts: u64,
    left: u32,
    log: Vec<Dispatch>,
}

impl Scripted<'_> {
    fn dispatched(&mut self, ctx: &mut SimCtx<'_>, kind: u8, id: u64) {
        let k = self.log.len();
        self.log.push((ctx.now().as_secs(), kind, id));
        if let Some((at, tag)) = react(self.script, k, &mut self.left, ctx.now()) {
            ctx.schedule(at, tag);
        }
    }
}

impl SimHandler for Scripted<'_> {
    fn on_contact_start(&mut self, ctx: &mut SimCtx<'_>, contact: &Contact) {
        let id = self.contacts - u64::from(contact.participants()[0].raw()) / 2;
        self.dispatched(ctx, 1, id);
    }
    fn on_scheduled(&mut self, ctx: &mut SimCtx<'_>, tag: u64) {
        self.dispatched(ctx, 0, tag);
    }
}

/// The reference the merge replaced: every contact start queued up front
/// beside the scheduled events in one heap ordered by (time, rank, key,
/// insertion), rank scheduled < start, key the tag or the stream position.
fn queue_everything(
    starts: &[u64],
    ticks: &[(u64, u64)],
    horizon: Option<u64>,
    script: &Script,
) -> Vec<Dispatch> {
    use std::cmp::Reverse;
    let mut heap = std::collections::BinaryHeap::new();
    let mut seq = 0u64;
    let mut push = |heap: &mut std::collections::BinaryHeap<_>, entry: (u64, u8, u64)| {
        heap.push(Reverse((entry, seq)));
        seq += 1;
    };
    for (i, &start) in starts.iter().enumerate() {
        push(&mut heap, (start, 1, i as u64));
    }
    for &(at, tag) in ticks {
        push(&mut heap, (at, 0, tag));
    }
    let within = |t: u64| horizon.is_none_or(|h| t <= h);
    let (mut log, mut left) = (Vec::new(), SCHEDULES);
    while let Some(Reverse(((now, kind, id), _))) = heap.pop() {
        if !within(now) {
            break;
        }
        log.push((now, kind, id));
        let reaction = react(script, log.len() - 1, &mut left, SimTime::from_secs(now));
        if let Some((at, tag)) = reaction {
            let at = at.as_secs().max(now);
            if within(at) {
                push(&mut heap, (at, 0, tag));
            }
        }
    }
    log
}

proptest! {
    #[test]
    fn event_queue_pops_in_nondecreasing_time(
        items in proptest::collection::vec((0u64..10_000, 0u64..100), 0..200)
    ) {
        let mut q = EventQueue::new();
        for &(t, tag) in &items {
            q.push(SimTime::from_secs(t), tag);
        }
        prop_assert_eq!(q.len(), items.len());
        let mut last = SimTime::ZERO;
        while let Some((t, _)) = q.pop() {
            prop_assert!(t >= last);
            last = t;
        }
    }

    #[test]
    fn event_queue_order_is_insertion_order_invariant_for_distinct_keys(
        mut items in proptest::collection::btree_set((0u64..1_000, 0u64..1_000), 0..100)
    ) {
        // Distinct (time, tag) pairs: popping order must not depend on push order.
        let v: Vec<(u64, u64)> = items.iter().copied().collect();
        let mut q1 = EventQueue::new();
        for &(t, tag) in &v {
            q1.push(SimTime::from_secs(t), tag);
        }
        let mut q2 = EventQueue::new();
        for &(t, tag) in v.iter().rev() {
            q2.push(SimTime::from_secs(t), tag);
        }
        let drain = |mut q: EventQueue| {
            let mut out = Vec::new();
            while let Some(e) = q.pop() {
                out.push(e);
            }
            out
        };
        prop_assert_eq!(drain(q1), drain(q2));
        items.clear();
    }

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
    /// contact start up front would: gaps of 0 give equal starts, the small
    /// time range puts starts on tick instants and on the horizon, and the
    /// script schedules before, at and after `now`.
    #[test]
    fn the_merge_dispatches_in_queue_everything_order(
        gaps in proptest::collection::vec(0u64..4, 0..40),
        ticks in proptest::collection::vec((0u64..60, 0u64..4), 0..8),
        (bounded, horizon) in (proptest::bool::ANY, 0u64..70),
        script in proptest::collection::vec((proptest::bool::ANY, -3i64..4, 0u64..4), 0..6),
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
        let mut handler = Scripted {
            script: &script,
            contacts: u64::from(n),
            left: SCHEDULES,
            log: Vec::new(),
        };
        let end = sim.run(&mut handler);
        let expected = queue_everything(&starts, &ticks, horizon, &script);
        prop_assert_eq!(end.as_secs(), expected.last().map_or(0, |d| d.0));
        prop_assert_eq!(handler.log, expected);
    }
}
