//! Contacts: the edges of a DTN's space-time graph.
//!
//! A *contact* is a period of time during which a set of nodes can
//! communicate (paper §II-A). Vehicular traces such as UMassDieselNet record
//! pair-wise contacts; campus traces such as the NUS student trace put all
//! students attending the same class session in one *clique contact* in which
//! every node can receive every other node's broadcasts.

use std::error::Error;
use std::fmt;

use crate::node::NodeId;
use crate::time::{SimDuration, SimTime};

/// Error produced when constructing an invalid [`Contact`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ContactError {
    /// The contact would end at or before it starts.
    EmptyInterval {
        /// Claimed start instant.
        start: SimTime,
        /// Claimed end instant.
        end: SimTime,
    },
    /// Fewer than two distinct participants.
    TooFewParticipants {
        /// Number of distinct participants supplied.
        distinct: usize,
    },
    /// The same node appears twice in the participant list.
    DuplicateParticipant(NodeId),
}

impl fmt::Display for ContactError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ContactError::EmptyInterval { start, end } => {
                write!(f, "contact interval [{start}, {end}) is empty")
            }
            ContactError::TooFewParticipants { distinct } => {
                write!(f, "contact needs at least 2 distinct nodes, got {distinct}")
            }
            ContactError::DuplicateParticipant(id) => {
                write!(f, "node {id} appears more than once in contact")
            }
        }
    }
}

impl Error for ContactError {}

/// A single contact: a set of nodes mutually connected over `[start, end)`.
///
/// Participants are stored sorted by [`NodeId`], which makes equality and
/// hashing independent of construction order.
///
/// # Example
///
/// ```
/// use dtn_trace::{Contact, NodeId, SimTime};
///
/// let c = Contact::clique(
///     vec![NodeId::new(2), NodeId::new(0), NodeId::new(1)],
///     SimTime::from_secs(0),
///     SimTime::from_secs(3600),
/// )?;
/// assert_eq!(c.size(), 3);
/// assert_eq!(c.participants()[0], NodeId::new(0));
/// assert!(c.involves(NodeId::new(2)));
/// # Ok::<(), dtn_trace::ContactError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Contact {
    participants: Participants,
    start: SimTime,
    end: SimTime,
}

/// A contact's members, ascending. Every vehicular contact is a pair, so a
/// pair lives inside the contact and only a clique owns a heap block; the
/// constructors never put two members in a `Clique`, which is what lets the
/// derived equality and hash see one representation per member set.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
enum Participants {
    Pair([NodeId; 2]),
    Clique(Vec<NodeId>),
}

impl Contact {
    /// Creates a pair-wise contact between `a` and `b` over `[start, end)`.
    ///
    /// # Errors
    ///
    /// Returns [`ContactError::EmptyInterval`] if `end <= start` and
    /// [`ContactError::DuplicateParticipant`] if `a == b`.
    pub fn pairwise(
        a: NodeId,
        b: NodeId,
        start: SimTime,
        end: SimTime,
    ) -> Result<Self, ContactError> {
        if a == b {
            return Err(ContactError::DuplicateParticipant(a));
        }
        Self::pair(a, b, start, end)
    }

    /// [`Contact::clique`] for exactly two members — the same checks in the
    /// same order — without the `Vec`.
    pub(crate) fn pair(
        a: NodeId,
        b: NodeId,
        start: SimTime,
        end: SimTime,
    ) -> Result<Self, ContactError> {
        if end <= start {
            return Err(ContactError::EmptyInterval { start, end });
        }
        if a == b {
            return Err(ContactError::DuplicateParticipant(a));
        }
        Ok(Contact {
            participants: Participants::Pair([a.min(b), a.max(b)]),
            start,
            end,
        })
    }

    /// Creates a contact among the given participants over `[start, end)`.
    ///
    /// With exactly two participants this is equivalent to
    /// [`Contact::pairwise`]; with more, the contact is a clique.
    ///
    /// # Errors
    ///
    /// Returns an error if the interval is empty, a participant is repeated,
    /// or fewer than two nodes are given.
    pub fn clique(
        mut participants: Vec<NodeId>,
        start: SimTime,
        end: SimTime,
    ) -> Result<Self, ContactError> {
        if let [a, b] = participants[..] {
            return Self::pair(a, b, start, end);
        }
        if end <= start {
            return Err(ContactError::EmptyInterval { start, end });
        }
        participants.sort_unstable();
        if let Some(dup) = first_duplicate(&participants) {
            return Err(ContactError::DuplicateParticipant(dup));
        }
        if participants.len() < 2 {
            return Err(ContactError::TooFewParticipants {
                distinct: participants.len(),
            });
        }
        Ok(Contact {
            participants: Participants::Clique(participants),
            start,
            end,
        })
    }

    /// The participants, sorted by node id.
    pub fn participants(&self) -> &[NodeId] {
        match &self.participants {
            Participants::Pair(pair) => pair,
            Participants::Clique(members) => members,
        }
    }

    /// Number of participants.
    pub fn size(&self) -> usize {
        self.participants().len()
    }

    /// Start instant (inclusive).
    pub fn start(&self) -> SimTime {
        self.start
    }

    /// End instant (exclusive).
    pub fn end(&self) -> SimTime {
        self.end
    }

    /// Contact duration.
    pub fn duration(&self) -> SimDuration {
        self.end.duration_since(self.start)
    }

    /// True if `node` participates in this contact.
    pub fn involves(&self, node: NodeId) -> bool {
        self.participants().binary_search(&node).is_ok()
    }

    /// The participants other than `node`.
    ///
    /// Returns an empty vector if `node` does not participate.
    pub fn peers_of(&self, node: NodeId) -> Vec<NodeId> {
        if !self.involves(node) {
            return Vec::new();
        }
        self.participants()
            .iter()
            .copied()
            .filter(|&p| p != node)
            .collect()
    }

    /// All unordered participant pairs `(a, b)` with `a < b`.
    ///
    /// A pair-wise contact yields one pair; a clique of size `n` yields
    /// `n * (n - 1) / 2`, ascending.
    pub fn pairs(&self) -> impl Iterator<Item = (NodeId, NodeId)> + '_ {
        let members = self.participants();
        members
            .iter()
            .enumerate()
            .flat_map(move |(i, &a)| members[i + 1..].iter().map(move |&b| (a, b)))
    }
}

impl fmt::Display for Contact {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "contact[{}..{}](", self.start, self.end)?;
        for (i, p) in self.participants().iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            write!(f, "{p}")?;
        }
        write!(f, ")")
    }
}

fn first_duplicate(sorted: &[NodeId]) -> Option<NodeId> {
    sorted.windows(2).find(|w| w[0] == w[1]).map(|w| w[0])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(secs: u64) -> SimTime {
        SimTime::from_secs(secs)
    }

    #[test]
    fn pairwise_contact_is_pairwise() {
        let c = Contact::pairwise(NodeId::new(1), NodeId::new(0), t(0), t(10)).unwrap();
        assert_eq!(c.size(), 2);
        assert_eq!(c.participants(), &[NodeId::new(0), NodeId::new(1)]);
    }

    #[test]
    fn clique_contact_is_clique() {
        let c = Contact::clique(
            vec![NodeId::new(5), NodeId::new(3), NodeId::new(4)],
            t(0),
            t(10),
        )
        .unwrap();
        assert_eq!(c.size(), 3);
    }

    #[test]
    fn rejects_empty_interval() {
        let err = Contact::pairwise(NodeId::new(0), NodeId::new(1), t(10), t(10)).unwrap_err();
        assert!(matches!(err, ContactError::EmptyInterval { .. }));
    }

    #[test]
    fn rejects_self_contact() {
        let err = Contact::pairwise(NodeId::new(2), NodeId::new(2), t(0), t(10)).unwrap_err();
        assert_eq!(err, ContactError::DuplicateParticipant(NodeId::new(2)));
    }

    #[test]
    fn rejects_duplicate_in_clique() {
        let err = Contact::clique(
            vec![NodeId::new(1), NodeId::new(2), NodeId::new(1)],
            t(0),
            t(10),
        )
        .unwrap_err();
        assert_eq!(err, ContactError::DuplicateParticipant(NodeId::new(1)));
    }

    #[test]
    fn rejects_singleton() {
        let err = Contact::clique(vec![NodeId::new(1)], t(0), t(10)).unwrap_err();
        assert!(matches!(
            err,
            ContactError::TooFewParticipants { distinct: 1 }
        ));
    }

    #[test]
    fn duration_and_activity() {
        let c = Contact::pairwise(NodeId::new(0), NodeId::new(1), t(10), t(40)).unwrap();
        assert_eq!(c.duration(), SimDuration::from_secs(30));
    }

    #[test]
    fn peers_of_excludes_self() {
        let c = Contact::clique(
            vec![NodeId::new(0), NodeId::new(1), NodeId::new(2)],
            t(0),
            t(10),
        )
        .unwrap();
        assert_eq!(
            c.peers_of(NodeId::new(1)),
            vec![NodeId::new(0), NodeId::new(2)]
        );
        assert!(c.peers_of(NodeId::new(9)).is_empty());
    }

    #[test]
    fn pairs_enumerates_all() {
        let c = Contact::clique(
            vec![
                NodeId::new(0),
                NodeId::new(1),
                NodeId::new(2),
                NodeId::new(3),
            ],
            t(0),
            t(10),
        )
        .unwrap();
        assert_eq!(c.pairs().count(), 6);
        assert!(c
            .pairs()
            .any(|pair| pair == (NodeId::new(1), NodeId::new(3))));
    }

    #[test]
    fn equality_independent_of_order() {
        let a = Contact::clique(vec![NodeId::new(0), NodeId::new(1)], t(0), t(5)).unwrap();
        let b = Contact::clique(vec![NodeId::new(1), NodeId::new(0)], t(0), t(5)).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn a_two_member_contact_is_always_the_inline_pair() {
        use std::hash::{BuildHasher, RandomState};
        let (n0, n1) = (NodeId::new(0), NodeId::new(1));
        let built = [
            Contact::pairwise(n1, n0, t(0), t(5)).unwrap(),
            Contact::clique(vec![n0, n1], t(0), t(5)).unwrap(),
            Contact::clique(vec![n1, n0], t(0), t(5)).unwrap(),
        ];
        let hasher = RandomState::new();
        for c in &built {
            assert!(matches!(c.participants, Participants::Pair(_)));
            assert_eq!(c.size(), 2);
            assert_eq!(c.participants(), &[n0, n1]);
            assert_eq!(c, &built[0]);
            assert_eq!(hasher.hash_one(c), hasher.hash_one(&built[0]));
        }
        // Inline members cost the contact nothing: it is no larger than
        // when every contact owned a `Vec`.
        assert!(std::mem::size_of::<Contact>() <= 40);
    }

    #[test]
    fn display_lists_participants() {
        let c = Contact::pairwise(NodeId::new(0), NodeId::new(1), t(0), t(5)).unwrap();
        let s = c.to_string();
        assert!(s.contains("n0"));
        assert!(s.contains("n1"));
    }

    #[test]
    fn error_display_is_informative() {
        let err = Contact::pairwise(NodeId::new(0), NodeId::new(1), t(10), t(5)).unwrap_err();
        assert!(err.to_string().contains("empty"));
    }
}
