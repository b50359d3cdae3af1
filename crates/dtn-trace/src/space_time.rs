//! Space-time graph analysis.
//!
//! A DTN can be described abstractly using a *space-time graph* in which each
//! edge corresponds to a contact (paper §II-A, citing Merugu et al.). This
//! module computes store-carry-forward reachability over a
//! [`ContactTrace`]: given a message created at a source node at some time,
//! the earliest instant every other node could possibly receive it assuming
//! instantaneous transfers — a lower bound any real protocol (including MBT)
//! is measured against.

use std::collections::BTreeMap;

use crate::node::NodeId;
use crate::time::SimTime;
use crate::trace::ContactTrace;

/// Store-carry-forward reachability oracle over a contact trace.
///
/// # Example
///
/// ```
/// use dtn_trace::{Contact, ContactTrace, NodeId, SimTime, SpaceTimeGraph};
///
/// // n0 meets n1 at t=10, n1 meets n2 at t=20: a message from n0 can reach
/// // n2 at t=20 by store-carry-forward through n1.
/// let trace: ContactTrace = vec![
///     Contact::pairwise(NodeId::new(0), NodeId::new(1), SimTime::from_secs(10), SimTime::from_secs(15))?,
///     Contact::pairwise(NodeId::new(1), NodeId::new(2), SimTime::from_secs(20), SimTime::from_secs(25))?,
/// ].into_iter().collect();
///
/// let graph = SpaceTimeGraph::new(&trace);
/// let arrivals = graph.earliest_delivery(NodeId::new(0), SimTime::ZERO);
/// assert_eq!(arrivals[&NodeId::new(2)], SimTime::from_secs(20));
/// # Ok::<(), dtn_trace::ContactError>(())
/// ```
#[derive(Debug, Clone)]
pub struct SpaceTimeGraph {
    trace: ContactTrace,
}

impl SpaceTimeGraph {
    /// Builds the graph over a trace (the trace is cloned).
    pub fn new(trace: &ContactTrace) -> Self {
        SpaceTimeGraph {
            trace: trace.clone(),
        }
    }

    /// The underlying trace.
    pub fn trace(&self) -> &ContactTrace {
        &self.trace
    }

    /// Earliest time each node can receive a message created at `source` at
    /// instant `created`, assuming every contact relays instantly.
    ///
    /// The map always contains `source` (at `created`). Unreachable nodes are
    /// absent. Within a clique contact the message reaches all participants
    /// as soon as any carrier participates.
    pub fn earliest_delivery(&self, source: NodeId, created: SimTime) -> BTreeMap<NodeId, SimTime> {
        let mut earliest: BTreeMap<NodeId, SimTime> = BTreeMap::new();
        earliest.insert(source, created);

        // A contact relays whenever some participant holds the message before
        // the contact ends; the transfer instant is max(contact start, hold
        // time). Contacts are sorted by start but long contacts can relay
        // "backwards" in processing order, so iterate to a fixpoint.
        loop {
            let mut changed = false;
            for contact in self.trace.iter() {
                // Earliest instant any participant can inject the message
                // into this contact.
                let inject = contact
                    .participants()
                    .iter()
                    .filter_map(|p| earliest.get(p).copied())
                    .min();
                let Some(hold) = inject else { continue };
                if hold >= contact.end() {
                    continue;
                }
                let at = hold.max(contact.start());
                for &p in contact.participants() {
                    let better = earliest.get(&p).is_none_or(|&cur| at < cur);
                    if better {
                        earliest.insert(p, at);
                        changed = true;
                    }
                }
            }
            if !changed {
                return earliest;
            }
        }
    }

    /// Nodes reachable from `source` (including itself) for a message created
    /// at `created`, optionally bounded by a deadline.
    pub fn reachable(
        &self,
        source: NodeId,
        created: SimTime,
        deadline: Option<SimTime>,
    ) -> Vec<NodeId> {
        self.earliest_delivery(source, created)
            .into_iter()
            .filter(|&(_, t)| deadline.is_none_or(|d| t <= d))
            .map(|(n, _)| n)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::contact::Contact;

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
    fn direct_contact_delivers_at_start() {
        let t: ContactTrace = vec![pc(0, 1, 10, 20)].into_iter().collect();
        let g = SpaceTimeGraph::new(&t);
        let d = g.earliest_delivery(NodeId::new(0), SimTime::ZERO);
        assert_eq!(d[&NodeId::new(1)], SimTime::from_secs(10));
    }

    #[test]
    fn message_created_mid_contact_delivers_immediately() {
        let t: ContactTrace = vec![pc(0, 1, 10, 20)].into_iter().collect();
        let g = SpaceTimeGraph::new(&t);
        let d = g.earliest_delivery(NodeId::new(0), SimTime::from_secs(15));
        assert_eq!(d[&NodeId::new(1)], SimTime::from_secs(15));
    }

    #[test]
    fn expired_contact_does_not_deliver() {
        let t: ContactTrace = vec![pc(0, 1, 10, 20)].into_iter().collect();
        let g = SpaceTimeGraph::new(&t);
        let d = g.earliest_delivery(NodeId::new(0), SimTime::from_secs(25));
        assert!(!d.contains_key(&NodeId::new(1)));
    }

    #[test]
    fn two_hop_store_carry_forward() {
        let t: ContactTrace = vec![pc(0, 1, 10, 15), pc(1, 2, 50, 60)]
            .into_iter()
            .collect();
        let g = SpaceTimeGraph::new(&t);
        let d = g.earliest_delivery(NodeId::new(0), SimTime::ZERO);
        assert_eq!(d[&NodeId::new(2)], SimTime::from_secs(50));
    }

    #[test]
    fn long_contact_relays_after_late_infection() {
        // Contact B starts before A but is still open when A infects n1.
        let t: ContactTrace = vec![pc(1, 2, 5, 30), pc(0, 1, 10, 20)]
            .into_iter()
            .collect();
        let g = SpaceTimeGraph::new(&t);
        let d = g.earliest_delivery(NodeId::new(0), SimTime::ZERO);
        assert_eq!(d[&NodeId::new(2)], SimTime::from_secs(10));
    }

    #[test]
    fn clique_reaches_all_participants() {
        let clique = Contact::clique(
            vec![
                NodeId::new(0),
                NodeId::new(1),
                NodeId::new(2),
                NodeId::new(3),
            ],
            SimTime::from_secs(100),
            SimTime::from_secs(200),
        )
        .unwrap();
        let t: ContactTrace = vec![clique].into_iter().collect();
        let g = SpaceTimeGraph::new(&t);
        let d = g.earliest_delivery(NodeId::new(2), SimTime::ZERO);
        assert_eq!(d.len(), 4);
        assert_eq!(d[&NodeId::new(2)], SimTime::ZERO);
        for peer in [0, 1, 3] {
            assert_eq!(d[&NodeId::new(peer)], SimTime::from_secs(100));
        }
    }

    #[test]
    fn reachable_respects_deadline() {
        let t: ContactTrace = vec![pc(0, 1, 10, 15), pc(1, 2, 50, 60)]
            .into_iter()
            .collect();
        let g = SpaceTimeGraph::new(&t);
        let within = g.reachable(NodeId::new(0), SimTime::ZERO, Some(SimTime::from_secs(20)));
        assert_eq!(within, vec![NodeId::new(0), NodeId::new(1)]);
        let all = g.reachable(NodeId::new(0), SimTime::ZERO, None);
        assert_eq!(all.len(), 3);
    }

    #[test]
    fn source_always_present_at_creation_time() {
        let g = SpaceTimeGraph::new(&ContactTrace::default());
        let d = g.earliest_delivery(NodeId::new(4), SimTime::from_secs(7));
        assert_eq!(d.len(), 1);
        assert_eq!(d[&NodeId::new(4)], SimTime::from_secs(7));
    }
}
