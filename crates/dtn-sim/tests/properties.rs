//! Property-based tests for the simulation substrate.

use proptest::prelude::*;

use dtn_sim::channel::{broadcast_per_node_capacity, pairwise_per_node_capacity, ContactBudget};
use dtn_sim::rng::cyclic_order;
use dtn_sim::{Event, EventQueue};
use dtn_trace::{NodeId, SimTime};

proptest! {
    #[test]
    fn event_queue_pops_in_nondecreasing_time(
        items in proptest::collection::vec((0u64..10_000, 0u64..100), 0..200)
    ) {
        let mut q = EventQueue::new();
        for &(t, tag) in &items {
            q.push(SimTime::from_secs(t), Event::Scheduled { tag });
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
            q1.push(SimTime::from_secs(t), Event::Scheduled { tag });
        }
        let mut q2 = EventQueue::new();
        for &(t, tag) in v.iter().rev() {
            q2.push(SimTime::from_secs(t), Event::Scheduled { tag });
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

    #[test]
    fn budget_accounting_is_exact(meta in 0u32..50, files in 0u32..50) {
        let mut budget = ContactBudget::new(meta, files);
        let mut sent_meta = 0u32;
        while budget.try_send_metadata().is_ok() {
            sent_meta += 1;
        }
        let mut sent_files = 0u32;
        while budget.try_send_file().is_ok() {
            sent_files += 1;
        }
        prop_assert_eq!(sent_meta, meta);
        prop_assert_eq!(sent_files, files);
        prop_assert!(budget.is_exhausted() || (meta == 0 && files == 0));
        budget.reset();
        prop_assert_eq!(budget.metadata_left(), meta);
        prop_assert_eq!(budget.files_left(), files);
    }
}
