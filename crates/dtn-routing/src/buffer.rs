//! Per-node message buffers with bounded capacity and drop policies.
//!
//! DTN nodes carry message copies in finite storage; when a buffer is full a
//! drop policy decides which copy to evict. Copy counts (for spray-and-wait)
//! are stored alongside each message.
//!
//! This module is also the home of the shared eviction choice
//! ([`evict_lowest_score`]): `mbt-core`'s popularity-ranked bounded file
//! cache ranks its candidates and picks its victims through it.

use std::collections::BTreeMap;

use dtn_trace::SimTime;

use crate::message::{Message, MessageId};

/// What to evict when a full buffer receives a new message.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DropPolicy {
    /// Reject the incoming message (drop-tail).
    #[default]
    Tail,
    /// Evict the oldest stored message (by creation time) to make room.
    Oldest,
}

/// Picks the capacity-eviction victim: the lowest-scored of the `(key,
/// score)` candidates, score ties broken by key order so the choice is
/// deterministic regardless of candidate ordering.
///
/// Callers present the *evictable* candidates (items protected by the
/// protocol — e.g. files a node's own user still wants — are simply not
/// offered); `None` means there is nothing to evict, and the incoming item
/// is rejected instead.
///
/// # Example
///
/// ```
/// use dtn_routing::evict_lowest_score;
///
/// let candidates = vec![("b", 2.0), ("a", 1.0), ("c", 1.0)];
/// assert_eq!(evict_lowest_score(&candidates), Some("a"));
/// let empty: Vec<(&str, f64)> = Vec::new();
/// assert_eq!(evict_lowest_score(&empty), None);
/// ```
pub fn evict_lowest_score<K: Ord + Clone>(candidates: &[(K, f64)]) -> Option<K> {
    candidates
        .iter()
        .min_by(|x, y| x.1.total_cmp(&y.1).then_with(|| x.0.cmp(&y.0)))
        .map(|(k, _)| k.clone())
}

/// One stored copy: the message plus protocol state (remaining copy tokens).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StoredCopy {
    /// The message.
    pub message: Message,
    /// Copy tokens held (used by spray-and-wait; 1 elsewhere).
    pub tokens: u32,
}

/// A bounded per-node message buffer.
///
/// # Example
///
/// ```
/// use dtn_routing::{Buffer, DropPolicy, Message};
/// use dtn_trace::{NodeId, SimTime};
///
/// let mut buf = Buffer::new(2, DropPolicy::Oldest);
/// let m = |id, t| Message::new(id, NodeId::new(0), NodeId::new(1), SimTime::from_secs(t), None);
/// buf.insert(m(0, 10), 1);
/// buf.insert(m(1, 20), 1);
/// buf.insert(m(2, 30), 1); // evicts the oldest (id 0)
/// assert!(!buf.contains(dtn_routing::MessageId(0)));
/// assert_eq!(buf.len(), 2);
/// ```
#[derive(Debug, Clone)]
pub struct Buffer {
    capacity: usize,
    policy: DropPolicy,
    copies: BTreeMap<MessageId, StoredCopy>,
}

impl Buffer {
    /// Creates a buffer holding at most `capacity` messages.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize, policy: DropPolicy) -> Self {
        assert!(capacity > 0, "buffer capacity must be positive");
        Buffer {
            capacity,
            policy,
            copies: BTreeMap::new(),
        }
    }

    /// Creates an effectively unbounded buffer.
    pub fn unbounded() -> Self {
        Buffer::new(usize::MAX, DropPolicy::Tail)
    }

    /// Inserts a copy with `tokens` copy tokens. Returns `true` if stored
    /// (duplicates are rejected; a full drop-tail buffer rejects; a full
    /// drop-oldest buffer evicts first).
    pub fn insert(&mut self, message: Message, tokens: u32) -> bool {
        if self.copies.contains_key(&message.id()) {
            return false;
        }
        if self.copies.len() >= self.capacity {
            match self.policy {
                DropPolicy::Tail => return false,
                DropPolicy::Oldest => {
                    if let Some(oldest) = self
                        .copies
                        .values()
                        .min_by_key(|c| (c.message.created(), c.message.id()))
                        .map(|c| c.message.id())
                    {
                        self.copies.remove(&oldest);
                    }
                }
            }
        }
        self.copies
            .insert(message.id(), StoredCopy { message, tokens });
        true
    }

    /// True if a copy of `id` is stored.
    pub fn contains(&self, id: MessageId) -> bool {
        self.copies.contains_key(&id)
    }

    /// The stored copy of `id`, if any.
    pub fn get(&self, id: MessageId) -> Option<&StoredCopy> {
        self.copies.get(&id)
    }

    /// Mutable access to the stored copy of `id`.
    pub fn get_mut(&mut self, id: MessageId) -> Option<&mut StoredCopy> {
        self.copies.get_mut(&id)
    }

    /// Removes the copy of `id`, returning it.
    pub fn remove(&mut self, id: MessageId) -> Option<StoredCopy> {
        self.copies.remove(&id)
    }

    /// Iterates over stored copies in message-id order.
    pub fn iter(&self) -> impl Iterator<Item = &StoredCopy> {
        self.copies.values()
    }

    /// Number of stored copies.
    pub fn len(&self) -> usize {
        self.copies.len()
    }

    /// True if nothing is stored.
    pub fn is_empty(&self) -> bool {
        self.copies.is_empty()
    }

    /// Drops expired copies; returns how many were dropped.
    pub fn prune_expired(&mut self, now: SimTime) -> usize {
        let before = self.copies.len();
        self.copies.retain(|_, c| !c.message.is_expired(now));
        before - self.copies.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dtn_trace::NodeId;

    fn msg(id: u64, created: u64) -> Message {
        Message::new(
            id,
            NodeId::new(0),
            NodeId::new(1),
            SimTime::from_secs(created),
            None,
        )
    }

    #[test]
    fn insert_and_duplicate_rejection() {
        let mut b = Buffer::unbounded();
        assert!(b.insert(msg(1, 0), 1));
        assert!(!b.insert(msg(1, 0), 1));
        assert_eq!(b.len(), 1);
        assert!(b.contains(MessageId(1)));
    }

    #[test]
    fn drop_tail_rejects_when_full() {
        let mut b = Buffer::new(1, DropPolicy::Tail);
        assert!(b.insert(msg(1, 0), 1));
        assert!(!b.insert(msg(2, 10), 1));
        assert!(b.contains(MessageId(1)));
    }

    #[test]
    fn drop_oldest_evicts_by_creation() {
        let mut b = Buffer::new(2, DropPolicy::Oldest);
        b.insert(msg(1, 50), 1);
        b.insert(msg(2, 10), 1);
        b.insert(msg(3, 99), 1);
        assert!(!b.contains(MessageId(2)), "oldest (t=10) evicted");
        assert!(b.contains(MessageId(1)));
        assert!(b.contains(MessageId(3)));
    }

    #[test]
    fn tokens_are_mutable() {
        let mut b = Buffer::unbounded();
        b.insert(msg(1, 0), 8);
        b.get_mut(MessageId(1)).unwrap().tokens = 4;
        assert_eq!(b.get(MessageId(1)).unwrap().tokens, 4);
    }

    #[test]
    fn prune_expired_drops_dead_messages() {
        let mut b = Buffer::unbounded();
        b.insert(
            Message::new(
                1,
                NodeId::new(0),
                NodeId::new(1),
                SimTime::ZERO,
                Some(SimTime::from_secs(10)),
            ),
            1,
        );
        b.insert(msg(2, 0), 1);
        assert_eq!(b.prune_expired(SimTime::from_secs(20)), 1);
        assert_eq!(b.len(), 1);
    }

    #[test]
    fn remove_returns_copy() {
        let mut b = Buffer::unbounded();
        b.insert(msg(1, 0), 3);
        let copy = b.remove(MessageId(1)).unwrap();
        assert_eq!(copy.tokens, 3);
        assert!(b.is_empty());
    }

    #[test]
    #[should_panic(expected = "capacity")]
    fn zero_capacity_panics() {
        let _ = Buffer::new(0, DropPolicy::Tail);
    }

    #[test]
    fn evict_lowest_score_is_order_independent() {
        let fwd = vec![(1u32, 0.5), (2, 0.25), (3, 0.25)];
        let mut rev = fwd.clone();
        rev.reverse();
        assert_eq!(evict_lowest_score(&fwd), Some(2));
        assert_eq!(evict_lowest_score(&rev), Some(2), "ties by key");
    }

    #[test]
    fn evict_lowest_score_refuses_without_candidates() {
        let empty: Vec<(u32, f64)> = Vec::new();
        assert_eq!(evict_lowest_score(&empty), None);
    }
}
