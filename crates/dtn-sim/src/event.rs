//! The deterministic queue of scheduled events.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use dtn_trace::SimTime;

/// A deterministic time-ordered queue of scheduled events.
///
/// An event is an instant and a handler-chosen tag (e.g. "the noon tick of
/// day 3"), created by
/// [`StreamSimulator::schedule`](crate::StreamSimulator::schedule) or
/// [`SimCtx::schedule`](crate::SimCtx::schedule). Contacts are not events:
/// they arrive sorted, and the engine merges their stream with this queue.
/// Ties at the same instant are broken by tag, then by insertion order — so
/// two runs over the same inputs pop events in exactly the same order.
///
/// # Example
///
/// ```
/// use dtn_sim::EventQueue;
/// use dtn_trace::SimTime;
///
/// let mut q = EventQueue::new();
/// q.push(SimTime::from_secs(10), 1);
/// q.push(SimTime::from_secs(5), 2);
/// assert_eq!(q.pop(), Some((SimTime::from_secs(5), 2)));
/// ```
#[derive(Debug, Clone, Default)]
pub struct EventQueue {
    /// `(time, tag, insertion number)`, earliest on top.
    heap: BinaryHeap<Reverse<(SimTime, u64, u64)>>,
    next_seq: u64,
}

impl EventQueue {
    /// Creates an empty queue.
    pub fn new() -> Self {
        EventQueue::default()
    }

    /// Schedules an event tagged `tag` at `time`.
    pub fn push(&mut self, time: SimTime, tag: u64) {
        self.heap.push(Reverse((time, tag, self.next_seq)));
        self.next_seq += 1;
    }

    /// Removes and returns the earliest event, or `None` if empty.
    pub fn pop(&mut self) -> Option<(SimTime, u64)> {
        self.heap.pop().map(|Reverse((time, tag, _))| (time, tag))
    }

    /// The time of the earliest event without removing it.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|Reverse((time, ..))| *time)
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// True if no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(secs: u64) -> SimTime {
        SimTime::from_secs(secs)
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(t(30), 3);
        q.push(t(10), 1);
        q.push(t(20), 2);
        let tags: Vec<u64> = std::iter::from_fn(|| q.pop()).map(|(_, tag)| tag).collect();
        assert_eq!(tags, vec![1, 2, 3]);
    }

    #[test]
    fn same_kind_ties_broken_by_key_then_insertion() {
        let mut q = EventQueue::new();
        q.push(t(10), 5);
        q.push(t(10), 2);
        assert_eq!(q.pop(), Some((t(10), 2)));
    }

    #[test]
    fn len_and_peek() {
        let mut q = EventQueue::new();
        assert!(q.is_empty());
        assert_eq!(q.peek_time(), None);
        q.push(t(4), 0);
        assert_eq!(q.len(), 1);
        assert_eq!(q.peek_time(), Some(t(4)));
    }

    #[test]
    fn identical_events_pop_in_insertion_order() {
        let mut q = EventQueue::new();
        q.push(t(1), 7);
        q.push(t(1), 7);
        assert_eq!(q.pop(), Some((t(1), 7)));
        assert_eq!(q.len(), 1);
    }
}
