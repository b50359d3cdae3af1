//! Per-node message buffers.
//!
//! DTN nodes carry message copies, each stored once per node with its copy
//! count (the tokens spray-and-wait splits). Buffers are unbounded: every
//! copy a protocol hands over is stored.

use std::collections::BTreeMap;

use dtn_trace::SimTime;

use crate::message::{Message, MessageId};

/// One stored copy: the message plus protocol state (remaining copy tokens).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StoredCopy {
    /// The message.
    pub message: Message,
    /// Copy tokens held (used by spray-and-wait; 1 elsewhere).
    pub tokens: u32,
}

/// A per-node message buffer. Storage is unbounded: a copy is refused only
/// when the buffer already holds that message.
///
/// # Example
///
/// ```
/// use dtn_routing::{Buffer, Message, MessageId};
/// use dtn_trace::{NodeId, SimTime};
///
/// let mut buf = Buffer::default();
/// let m = Message::new(0, NodeId::new(0), NodeId::new(1), SimTime::from_secs(10), None);
/// assert!(buf.insert(m.clone(), 1));
/// assert!(!buf.insert(m, 1), "a duplicate is refused");
/// assert!(buf.contains(MessageId(0)));
/// ```
#[derive(Debug, Clone, Default)]
pub struct Buffer {
    copies: BTreeMap<MessageId, StoredCopy>,
}

impl Buffer {
    /// Inserts a copy with `tokens` copy tokens. Returns `true` if stored,
    /// `false` if a copy of the message is already held.
    pub fn insert(&mut self, message: Message, tokens: u32) -> bool {
        if self.copies.contains_key(&message.id()) {
            return false;
        }
        self.copies
            .insert(message.id(), StoredCopy { message, tokens });
        true
    }

    /// True if a copy of `id` is stored.
    pub fn contains(&self, id: MessageId) -> bool {
        self.copies.contains_key(&id)
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
    fn buffers_hold_every_distinct_message() {
        let mut b = Buffer::default();
        for id in 0..1_000 {
            assert!(b.insert(msg(id, id), 1));
        }
        assert_eq!(b.iter().count(), 1_000);
    }

    #[test]
    fn insert_and_duplicate_rejection() {
        let mut b = Buffer::default();
        assert!(b.insert(msg(1, 0), 1));
        assert!(!b.insert(msg(1, 0), 1));
        assert_eq!(b.iter().count(), 1);
        assert!(b.contains(MessageId(1)));
    }

    #[test]
    fn tokens_are_mutable() {
        let mut b = Buffer::default();
        b.insert(msg(1, 0), 8);
        b.get_mut(MessageId(1)).unwrap().tokens = 4;
        assert_eq!(b.get_mut(MessageId(1)).unwrap().tokens, 4);
    }

    #[test]
    fn prune_expired_drops_dead_messages() {
        let mut b = Buffer::default();
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
        assert!(!b.contains(MessageId(1)) && b.contains(MessageId(2)));
    }

    #[test]
    fn remove_returns_copy() {
        let mut b = Buffer::default();
        b.insert(msg(1, 0), 3);
        let copy = b.remove(MessageId(1)).unwrap();
        assert_eq!(copy.tokens, 3);
        assert!(!b.contains(MessageId(1)));
    }
}
