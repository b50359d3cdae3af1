//! Time-sorted contact containers.

use std::cmp::Ordering;
use std::collections::BTreeSet;
use std::fmt;

use crate::contact::Contact;
use crate::node::NodeId;
use crate::time::{SimDuration, SimTime};

/// An immutable, time-sorted sequence of [`Contact`]s — a DTN trace.
///
/// Contacts are sorted by start time (ties broken by end time, then by
/// participants), which is the order a discrete-event simulator consumes them
/// in. Build one by collecting contacts in any order: collecting sorts them.
/// A generator fills a `Vec<Contact>` (a [`ContactSink`]) that is then
/// collected.
///
/// # Example
///
/// ```
/// use dtn_trace::{Contact, ContactTrace, NodeId, SimTime};
///
/// let trace: ContactTrace = vec![
///     Contact::pairwise(NodeId::new(0), NodeId::new(1), SimTime::from_secs(50), SimTime::from_secs(60))?,
///     Contact::pairwise(NodeId::new(1), NodeId::new(2), SimTime::from_secs(10), SimTime::from_secs(20))?,
/// ]
/// .into_iter()
/// .collect();
///
/// assert_eq!(trace.len(), 2);
/// // Sorted by start time:
/// assert_eq!(trace.contacts()[0].start(), SimTime::from_secs(10));
/// # Ok::<(), dtn_trace::ContactError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ContactTrace {
    contacts: Vec<Contact>,
}

/// A destination for generated contacts.
///
/// Generators emit through this trait so the same generation code can fill
/// a `Vec<Contact>`, collected into a [`ContactTrace`], or stream straight
/// to on-disk shards (`ShardWriter`) without ever materializing the full
/// trace.
pub trait ContactSink {
    /// Accepts one contact, in any order.
    fn push_contact(&mut self, contact: Contact);
}

impl ContactSink for Vec<Contact> {
    fn push_contact(&mut self, contact: Contact) {
        self.push(contact);
    }
}

/// The event order: start time, then end time, then participants. This is
/// the one canonical order — shard files use it too, so concatenating
/// time-windowed shards reproduces the in-memory order. The key is the
/// whole contact, so contacts that compare equal are equal.
pub(crate) fn event_order(a: &Contact, b: &Contact) -> Ordering {
    a.start()
        .cmp(&b.start())
        .then(a.end().cmp(&b.end()))
        .then_with(|| a.participants().cmp(b.participants()))
}

/// Sorts contacts into [`event_order`]. Equal keys are equal contacts, so
/// an unstable sort yields the same sequence a stable one would.
pub(crate) fn sort_contacts(contacts: &mut [Contact]) {
    contacts.sort_unstable_by(event_order);
}

impl ContactTrace {
    /// The contacts, sorted by start time.
    pub fn contacts(&self) -> &[Contact] {
        &self.contacts
    }

    /// Iterates over contacts in event order.
    pub fn iter(&self) -> std::slice::Iter<'_, Contact> {
        self.contacts.iter()
    }

    /// Number of contacts.
    pub fn len(&self) -> usize {
        self.contacts.len()
    }

    /// True if the trace has no contacts.
    pub fn is_empty(&self) -> bool {
        self.contacts.is_empty()
    }

    /// The set of all node ids appearing in any contact, sorted.
    pub fn nodes(&self) -> Vec<NodeId> {
        let set: BTreeSet<NodeId> = self
            .contacts
            .iter()
            .flat_map(|c| c.participants().iter().copied())
            .collect();
        set.into_iter().collect()
    }

    /// Number of distinct nodes in the trace.
    pub fn node_count(&self) -> usize {
        self.nodes().len()
    }

    /// Largest node id plus one, or zero if the trace is empty.
    ///
    /// Useful for sizing dense per-node vectors.
    pub fn id_space(&self) -> usize {
        self.contacts
            .iter()
            .flat_map(|c| c.participants().iter())
            .map(|n| n.index() + 1)
            .max()
            .unwrap_or(0)
    }

    /// First contact start time, if any.
    pub fn start_time(&self) -> Option<SimTime> {
        self.contacts.first().map(|c| c.start())
    }

    /// Latest contact end time, if any.
    pub fn end_time(&self) -> Option<SimTime> {
        self.contacts.iter().map(|c| c.end()).max()
    }

    /// Total time covered from first start to last end.
    pub fn span(&self) -> SimDuration {
        match (self.start_time(), self.end_time()) {
            (Some(s), Some(e)) => e.duration_since(s),
            _ => SimDuration::ZERO,
        }
    }

    /// Contacts involving `node`, preserving order.
    pub fn involving(&self, node: NodeId) -> ContactTrace {
        let contacts = self
            .contacts
            .iter()
            .filter(|c| c.involves(node))
            .cloned()
            .collect();
        ContactTrace { contacts }
    }
}

impl FromIterator<Contact> for ContactTrace {
    fn from_iter<I: IntoIterator<Item = Contact>>(iter: I) -> Self {
        let mut contacts: Vec<Contact> = iter.into_iter().collect();
        sort_contacts(&mut contacts);
        ContactTrace { contacts }
    }
}

impl<'a> IntoIterator for &'a ContactTrace {
    type Item = &'a Contact;
    type IntoIter = std::slice::Iter<'a, Contact>;

    fn into_iter(self) -> Self::IntoIter {
        self.contacts.iter()
    }
}

impl IntoIterator for ContactTrace {
    type Item = Contact;
    type IntoIter = std::vec::IntoIter<Contact>;

    fn into_iter(self) -> Self::IntoIter {
        self.contacts.into_iter()
    }
}

impl fmt::Display for ContactTrace {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "trace[{} contacts, {} nodes, span {}]",
            self.len(),
            self.node_count(),
            self.span()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pc(a: u32, b: u32, start: u64, end: u64) -> Contact {
        Contact::pairwise(
            NodeId::new(a),
            NodeId::new(b),
            SimTime::from_secs(start),
            SimTime::from_secs(end),
        )
        .unwrap()
    }

    #[test]
    fn builder_sorts_by_start() {
        let mut b = Vec::new();
        b.push_contact(pc(0, 1, 100, 110));
        b.push_contact(pc(1, 2, 5, 10));
        b.push_contact(pc(2, 3, 50, 60));
        let t = ContactTrace::from_iter(b);
        let starts: Vec<u64> = t.iter().map(|c| c.start().as_secs()).collect();
        assert_eq!(starts, vec![5, 50, 100]);
    }

    #[test]
    fn collect_sorts_too() {
        let t: ContactTrace = vec![pc(0, 1, 9, 10), pc(0, 1, 1, 2)].into_iter().collect();
        assert_eq!(t.contacts()[0].start().as_secs(), 1);
    }

    #[test]
    fn ties_broken_deterministically() {
        let a = pc(0, 1, 10, 20);
        let b = pc(2, 3, 10, 20);
        let t1: ContactTrace = vec![a.clone(), b.clone()].into_iter().collect();
        let t2: ContactTrace = vec![b, a].into_iter().collect();
        assert_eq!(t1, t2);
    }

    #[test]
    fn nodes_and_counts() {
        let t: ContactTrace = vec![pc(0, 5, 0, 1), pc(5, 9, 2, 3)].into_iter().collect();
        assert_eq!(
            t.nodes(),
            vec![NodeId::new(0), NodeId::new(5), NodeId::new(9)]
        );
        assert_eq!(t.node_count(), 3);
        assert_eq!(t.id_space(), 10);
    }

    #[test]
    fn empty_trace_properties() {
        let t = ContactTrace::default();
        assert!(t.is_empty());
        assert_eq!(t.node_count(), 0);
        assert_eq!(t.id_space(), 0);
        assert_eq!(t.start_time(), None);
        assert_eq!(t.span(), SimDuration::ZERO);
    }

    #[test]
    fn span_covers_first_to_last() {
        let t: ContactTrace = vec![pc(0, 1, 10, 100), pc(1, 2, 20, 30)]
            .into_iter()
            .collect();
        assert_eq!(t.span(), SimDuration::from_secs(90));
        assert_eq!(t.end_time(), Some(SimTime::from_secs(100)));
    }

    #[test]
    fn involving_filters_by_node() {
        let t: ContactTrace = vec![pc(0, 1, 0, 1), pc(1, 2, 2, 3), pc(2, 3, 4, 5)]
            .into_iter()
            .collect();
        let sub = t.involving(NodeId::new(1));
        assert_eq!(sub.len(), 2);
    }

    #[test]
    fn display_summarizes() {
        let t: ContactTrace = vec![pc(0, 1, 0, 10)].into_iter().collect();
        assert!(t.to_string().contains("1 contacts"));
    }
}
