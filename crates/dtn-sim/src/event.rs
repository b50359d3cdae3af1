//! Simulation events and the deterministic event queue.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use dtn_trace::SimTime;

/// A simulation event.
///
/// Contact events are injected by the
/// [`StreamSimulator`](crate::StreamSimulator) from the contact stream;
/// [`Event::Scheduled`] events are created by handlers via
/// [`SimCtx::schedule`](crate::SimCtx::schedule) and carry a user-chosen tag.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Event {
    /// A contact (identified by its index in the trace) begins.
    ContactStart {
        /// Index into the trace's contact slice.
        contact: usize,
    },
    /// A contact (identified by its index in the trace) ends.
    ContactEnd {
        /// Index into the trace's contact slice.
        contact: usize,
    },
    /// A user-scheduled event with an opaque tag.
    Scheduled {
        /// Handler-defined discriminator (e.g. "daily noon tick").
        tag: u64,
    },
}

impl Event {
    /// Rank used for same-instant ordering: contact ends fire first (so state
    /// from a closing contact is torn down), then scheduled events, then
    /// contact starts.
    fn rank(&self) -> u8 {
        match self {
            Event::ContactEnd { .. } => 0,
            Event::Scheduled { .. } => 1,
            Event::ContactStart { .. } => 2,
        }
    }

    /// Secondary key for deterministic ordering among same-rank events.
    fn key(&self) -> u64 {
        match self {
            Event::ContactStart { contact } | Event::ContactEnd { contact } => *contact as u64,
            Event::Scheduled { tag } => *tag,
        }
    }
}

#[derive(Debug, Clone, PartialEq, Eq)]
struct QueuedEvent {
    time: SimTime,
    rank: u8,
    key: u64,
    seq: u64,
    event: Event,
}

impl Ord for QueuedEvent {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert so the earliest event is on top.
        other
            .time
            .cmp(&self.time)
            .then(other.rank.cmp(&self.rank))
            .then(other.key.cmp(&self.key))
            .then(other.seq.cmp(&self.seq))
    }
}

impl PartialOrd for QueuedEvent {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// A deterministic time-ordered event queue.
///
/// Ties at the same instant are broken by event kind (ends before scheduled
/// before starts), then by a stable key, then by insertion order — so two
/// runs over the same inputs pop events in exactly the same order.
///
/// # Example
///
/// ```
/// use dtn_sim::{Event, EventQueue};
/// use dtn_trace::SimTime;
///
/// let mut q = EventQueue::new();
/// q.push(SimTime::from_secs(10), Event::Scheduled { tag: 1 });
/// q.push(SimTime::from_secs(5), Event::Scheduled { tag: 2 });
/// let (t, e) = q.pop().unwrap();
/// assert_eq!(t, SimTime::from_secs(5));
/// assert_eq!(e, Event::Scheduled { tag: 2 });
/// ```
#[derive(Debug, Clone, Default)]
pub struct EventQueue {
    heap: BinaryHeap<QueuedEvent>,
    next_seq: u64,
}

impl EventQueue {
    /// Creates an empty queue.
    pub fn new() -> Self {
        EventQueue::default()
    }

    /// Schedules `event` at `time`.
    pub fn push(&mut self, time: SimTime, event: Event) {
        let q = QueuedEvent {
            time,
            rank: event.rank(),
            key: event.key(),
            seq: self.next_seq,
            event,
        };
        self.next_seq += 1;
        self.heap.push(q);
    }

    /// Removes and returns the earliest event, or `None` if empty.
    pub fn pop(&mut self) -> Option<(SimTime, Event)> {
        self.heap.pop().map(|q| (q.time, q.event))
    }

    /// The time of the earliest event without removing it.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|q| q.time)
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
        q.push(t(30), Event::Scheduled { tag: 3 });
        q.push(t(10), Event::Scheduled { tag: 1 });
        q.push(t(20), Event::Scheduled { tag: 2 });
        let tags: Vec<u64> = std::iter::from_fn(|| q.pop())
            .map(|(_, e)| match e {
                Event::Scheduled { tag } => tag,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(tags, vec![1, 2, 3]);
    }

    #[test]
    fn ends_fire_before_starts_at_same_instant() {
        let mut q = EventQueue::new();
        q.push(t(10), Event::ContactStart { contact: 0 });
        q.push(t(10), Event::ContactEnd { contact: 1 });
        let (_, first) = q.pop().unwrap();
        assert_eq!(first, Event::ContactEnd { contact: 1 });
    }

    #[test]
    fn scheduled_fires_between_ends_and_starts() {
        let mut q = EventQueue::new();
        q.push(t(10), Event::ContactStart { contact: 0 });
        q.push(t(10), Event::Scheduled { tag: 9 });
        q.push(t(10), Event::ContactEnd { contact: 1 });
        let order: Vec<Event> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(
            order,
            vec![
                Event::ContactEnd { contact: 1 },
                Event::Scheduled { tag: 9 },
                Event::ContactStart { contact: 0 },
            ]
        );
    }

    #[test]
    fn same_kind_ties_broken_by_key_then_insertion() {
        let mut q = EventQueue::new();
        q.push(t(10), Event::ContactStart { contact: 5 });
        q.push(t(10), Event::ContactStart { contact: 2 });
        let (_, first) = q.pop().unwrap();
        assert_eq!(first, Event::ContactStart { contact: 2 });
    }

    #[test]
    fn len_and_peek() {
        let mut q = EventQueue::new();
        assert!(q.is_empty());
        assert_eq!(q.peek_time(), None);
        q.push(t(4), Event::Scheduled { tag: 0 });
        assert_eq!(q.len(), 1);
        assert_eq!(q.peek_time(), Some(t(4)));
    }

    #[test]
    fn identical_events_pop_in_insertion_order() {
        let mut q = EventQueue::new();
        q.push(t(1), Event::Scheduled { tag: 7 });
        q.push(t(1), Event::Scheduled { tag: 7 });
        assert_eq!(q.pop().unwrap().1, Event::Scheduled { tag: 7 });
        assert_eq!(q.len(), 1);
    }
}
