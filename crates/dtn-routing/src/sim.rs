//! Routing simulation over a contact trace, hosted on `dtn_sim`'s engine.
//!
//! The simulator owns the meeting: for each pair of a contact it prunes
//! both buffers, lets the protocol [`meet`](RoutingProtocol::meet), asks it
//! to [`decide`](RoutingProtocol::decide) every copy one endpoint holds and
//! the other lacks, and applies the answers.

use std::collections::BTreeMap;
use std::iter::Peekable;

use dtn_sim::{SimHandler, StreamSimulator};
use dtn_trace::{Contact, NodeId, SimDuration, SimTime, TraceSource};
use rand::seq::SliceRandom;
use rand::Rng;

use crate::buffer::Buffer;
use crate::message::{Message, MessageId};
use crate::protocols::{RoutingProtocol, Transfer};

/// Outcome of a routing simulation.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RoutingReport {
    /// Protocol name.
    pub protocol: &'static str,
    /// Messages created.
    pub created: u64,
    /// Messages delivered to their destinations.
    pub delivered: u64,
    /// Delivered ÷ created.
    pub delivery_ratio: f64,
    /// Mean delivery delay in seconds over delivered messages.
    pub mean_delay_secs: Option<f64>,
    /// Total transmissions (replications + forwards).
    pub transmissions: u64,
    /// Transmissions per delivered message (∞-free: `None` when nothing
    /// delivered).
    pub overhead: Option<f64>,
}

/// Runs `protocol` over any [`TraceSource`] on the shared
/// [`StreamSimulator`] engine with the given messages; returns the report.
///
/// Clique contacts are decomposed into their node pairs (in deterministic
/// order); messages are injected at their creation times; expired messages
/// are pruned from buffers as the clock advances. Buffers are unbounded and
/// every transfer a protocol decides on in a contact is applied.
pub fn simulate<P: RoutingProtocol>(
    trace: &dyn TraceSource,
    protocol: P,
    mut messages: Vec<Message>,
) -> RoutingReport {
    messages.sort_by_key(|m| (m.created(), m.id()));
    let mut run = Run {
        buffers: vec![Buffer::default(); trace.id_space()],
        protocol,
        pending: messages.into_iter().peekable(),
        created: 0,
        delay_secs: BTreeMap::new(),
        transmissions: 0,
    };
    StreamSimulator::new(trace.stream()).run(&mut run);
    run.report()
}

/// The state of one run: the [`SimHandler`] the engine drives.
struct Run<P> {
    protocol: P,
    buffers: Vec<Buffer>,
    pending: Peekable<std::vec::IntoIter<Message>>,
    created: u64,
    /// Each delivered message's delay, from its first delivery.
    delay_secs: BTreeMap<MessageId, u64>,
    transmissions: u64,
}

impl<P: RoutingProtocol> Run<P> {
    /// Injects every pending message created at or before `now`.
    fn inject(&mut self, now: SimTime) {
        let tokens = self.protocol.initial_tokens();
        while let Some(m) = self.pending.next_if(|m| m.created() <= now) {
            self.created += 1;
            if m.src() == m.dst() {
                self.delay_secs.insert(m.id(), 0);
            } else if let Some(buffer) = self.buffers.get_mut(m.src().index()) {
                buffer.insert(m, tokens);
            }
        }
    }

    /// The meeting of `a` and `b` at `now`.
    fn meet(&mut self, a: NodeId, b: NodeId, now: SimTime) {
        self.buffers[a.index()].prune_expired(now);
        self.buffers[b.index()].prune_expired(now);
        self.protocol.meet(a, b, now);
        // Both directions are decided on the buffers as the pair met: a copy
        // is asked about only if its carrier held it unexpired and its peer
        // lacked it, and no other transfer of the pair touches that
        // (carrier, id) or that (peer, id) — so each applies as decided.
        let mut transfers = Vec::new();
        for (carrier, peer) in [(a, b), (b, a)] {
            let (mine, theirs) = (&self.buffers[carrier.index()], &self.buffers[peer.index()]);
            for copy in mine
                .iter()
                .filter(|copy| !theirs.contains(copy.message.id()))
            {
                if let Some(transfer) = self.protocol.decide(copy, carrier, peer) {
                    transfers.push((carrier, peer, copy.message.id(), transfer));
                }
            }
        }
        for (carrier, peer, id, transfer) in transfers {
            let mine = &mut self.buffers[carrier.index()];
            let copy = mine.get_mut(id).expect("a decided copy is held");
            let message = copy.message.clone();
            let tokens_to_peer = match transfer {
                Transfer::Replicate {
                    tokens_to_peer,
                    tokens_kept,
                } => {
                    copy.tokens = tokens_kept;
                    tokens_to_peer
                }
                Transfer::Forward => {
                    mine.remove(id);
                    1
                }
            };
            if message.dst() == peer {
                let delay = now.as_secs() - message.created().as_secs();
                self.delay_secs.entry(id).or_insert(delay);
            }
            self.buffers[peer.index()].insert(message, tokens_to_peer);
            self.transmissions += 1;
        }
    }

    fn report(self) -> RoutingReport {
        let (created, transmissions) = (self.created, self.transmissions);
        let delivered = self.delay_secs.len() as u64;
        let delay_sum: u64 = self.delay_secs.values().sum();
        let per_delivery = |total: u64| (delivered > 0).then(|| total as f64 / delivered as f64);
        RoutingReport {
            protocol: self.protocol.name(),
            created,
            delivered,
            delivery_ratio: if created == 0 {
                0.0
            } else {
                delivered as f64 / created as f64
            },
            mean_delay_secs: per_delivery(delay_sum),
            transmissions,
            overhead: per_delivery(transmissions),
        }
    }
}

impl<P: RoutingProtocol> SimHandler for Run<P> {
    fn on_contact(&mut self, contact: &Contact) {
        let now = contact.start();
        self.inject(now);
        for (a, b) in contact.pairs() {
            if a.index() < self.buffers.len() && b.index() < self.buffers.len() {
                self.meet(a, b, now);
            }
        }
    }

    /// Messages created after the last contact still count as created.
    fn on_finish(&mut self, now: SimTime) {
        self.inject(now.saturating_add(SimDuration::from_days(10_000)));
    }
}

/// Generates `count` uniform unicast messages among `nodes`, with creation
/// times uniform in `[0, horizon)` and the given TTL, deterministically from
/// `rng`.
///
/// # Panics
///
/// Panics if fewer than two nodes are given.
pub fn uniform_messages<R: Rng>(
    nodes: &[NodeId],
    count: u64,
    horizon: SimTime,
    ttl: Option<SimDuration>,
    rng: &mut R,
) -> Vec<Message> {
    assert!(nodes.len() >= 2, "need at least two nodes for unicast");
    (0..count)
        .map(|i| {
            let src = *nodes.choose(rng).expect("non-empty");
            let dst = loop {
                let d = *nodes.choose(rng).expect("non-empty");
                if d != src {
                    break d;
                }
            };
            let created = SimTime::from_secs(rng.gen_range(0..horizon.as_secs().max(1)));
            Message::new(i, src, dst, created, ttl.map(|t| created + t))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use std::cell::RefCell;
    use std::collections::BTreeSet;
    use std::rc::Rc;

    use super::*;
    use crate::buffer::StoredCopy;
    use crate::protocols::{DirectDelivery, Epidemic, Prophet, SprayAndWait};
    use dtn_trace::ContactTrace;

    fn pc(a: u32, b: u32, start: u64, end: u64) -> Contact {
        Contact::pairwise(
            NodeId::new(a),
            NodeId::new(b),
            SimTime::from_secs(start),
            SimTime::from_secs(end),
        )
        .unwrap()
    }

    fn chain_trace() -> ContactTrace {
        // 0-1 at t=10, 1-2 at t=20, 2-3 at t=30.
        vec![pc(0, 1, 10, 15), pc(1, 2, 20, 25), pc(2, 3, 30, 35)]
            .into_iter()
            .collect()
    }

    fn msg_0_to_3() -> Vec<Message> {
        vec![Message::new(
            0,
            NodeId::new(0),
            NodeId::new(3),
            SimTime::ZERO,
            None,
        )]
    }

    #[test]
    fn epidemic_delivers_along_chain() {
        let trace = chain_trace();
        let r = simulate(&trace, Epidemic::new(), msg_0_to_3());
        assert_eq!(r.delivered, 1);
        assert_eq!(r.delivery_ratio, 1.0);
        assert_eq!(r.mean_delay_secs, Some(30.0));
        assert_eq!(r.transmissions, 3);
        assert_eq!(r.protocol, "epidemic");
    }

    #[test]
    fn direct_delivery_needs_a_direct_contact() {
        let trace = chain_trace();
        let r = simulate(&trace, DirectDelivery::new(), msg_0_to_3());
        assert_eq!(r.delivered, 0, "0 never meets 3 directly");
        // With a direct contact it works, with exactly one transmission.
        let trace2: ContactTrace = vec![pc(0, 3, 40, 50)].into_iter().collect();
        let r2 = simulate(&trace2, DirectDelivery::new(), msg_0_to_3());
        assert_eq!(r2.delivered, 1);
        assert_eq!(r2.transmissions, 1);
        assert_eq!(r2.overhead, Some(1.0));
    }

    #[test]
    fn spray_and_wait_bounded_copies() {
        // Star: node 0 meets 1..=5; only node 5 is the destination.
        let contacts: Vec<Contact> = (1..=5)
            .map(|i| pc(0, i, i as u64 * 10, i as u64 * 10 + 5))
            .collect();
        let trace: ContactTrace = contacts.into_iter().collect();
        let msgs = vec![Message::new(
            0,
            NodeId::new(0),
            NodeId::new(5),
            SimTime::ZERO,
            None,
        )];
        let r = simulate(&trace, SprayAndWait::new(4), msgs);
        assert_eq!(r.delivered, 1);
        // Tokens 4: gives 2, then 1; then wait-phase; plus the final direct
        // delivery ⇒ at most 4 transmissions, far fewer than epidemic's.
        assert!(r.transmissions <= 4, "transmissions {}", r.transmissions);
    }

    #[test]
    fn prophet_runs_and_delivers_on_repeat_mobility() {
        // Node 1 shuttles between 0 and 2 repeatedly.
        let mut contacts = Vec::new();
        for round in 0..5u64 {
            contacts.push(pc(0, 1, round * 100 + 10, round * 100 + 15));
            contacts.push(pc(1, 2, round * 100 + 50, round * 100 + 55));
        }
        let trace: ContactTrace = contacts.into_iter().collect();
        let msgs = vec![Message::new(
            0,
            NodeId::new(0),
            NodeId::new(2),
            SimTime::from_secs(120),
            None,
        )];
        let r = simulate(&trace, Prophet::new(), msgs);
        assert_eq!(r.delivered, 1, "prophet should route through the shuttle");
    }

    #[test]
    fn a_contact_carries_every_transfer_asked_for() {
        let trace: ContactTrace = vec![pc(0, 1, 10, 20)].into_iter().collect();
        let msgs: Vec<Message> = (0..10)
            .map(|i| Message::new(i, NodeId::new(0), NodeId::new(1), SimTime::ZERO, None))
            .collect();
        let r = simulate(&trace, Epidemic::new(), msgs);
        assert_eq!(r.transmissions, 10);
        assert_eq!(r.delivered, 10);
    }

    #[test]
    fn ttl_prevents_late_delivery() {
        let trace = chain_trace();
        let msgs = vec![Message::new(
            0,
            NodeId::new(0),
            NodeId::new(3),
            SimTime::ZERO,
            Some(SimTime::from_secs(25)), // expires before the 2-3 contact
        )];
        let r = simulate(&trace, Epidemic::new(), msgs);
        assert_eq!(r.delivered, 0);
    }

    #[test]
    fn clique_contacts_decompose_into_pairs() {
        let clique = Contact::clique(
            vec![NodeId::new(0), NodeId::new(1), NodeId::new(2)],
            SimTime::from_secs(10),
            SimTime::from_secs(20),
        )
        .unwrap();
        let trace: ContactTrace = vec![clique].into_iter().collect();
        let msgs = vec![Message::new(
            0,
            NodeId::new(0),
            NodeId::new(2),
            SimTime::ZERO,
            None,
        )];
        let r = simulate(&trace, Epidemic::new(), msgs);
        assert_eq!(r.delivered, 1);
    }

    #[test]
    fn self_addressed_messages_deliver_instantly() {
        let trace = chain_trace();
        let msgs = vec![Message::new(
            0,
            NodeId::new(1),
            NodeId::new(1),
            SimTime::ZERO,
            None,
        )];
        let r = simulate(&trace, Epidemic::new(), msgs);
        assert_eq!(r.delivered, 1);
        assert_eq!(r.transmissions, 0);
    }

    /// What a [`Recording`] protocol was told or asked.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    enum Heard {
        Meet(NodeId, NodeId),
        Decide(NodeId, NodeId, MessageId),
    }

    /// Answers like epidemic and logs each meeting and each question.
    struct Recording(Rc<RefCell<Vec<Heard>>>);

    impl RoutingProtocol for Recording {
        fn name(&self) -> &'static str {
            "recording"
        }

        fn meet(&mut self, a: NodeId, b: NodeId, _now: SimTime) {
            self.0.borrow_mut().push(Heard::Meet(a, b));
        }

        fn decide(&self, copy: &StoredCopy, carrier: NodeId, peer: NodeId) -> Option<Transfer> {
            let id = copy.message.id();
            self.0.borrow_mut().push(Heard::Decide(carrier, peer, id));
            Some(Transfer::Replicate {
                tokens_to_peer: 1,
                tokens_kept: 1,
            })
        }
    }

    #[test]
    fn a_pair_is_asked_once_about_each_copy_one_holds_and_the_other_lacks() {
        let n = NodeId::new;
        let clique = Contact::clique(
            vec![n(0), n(1), n(2)],
            SimTime::from_secs(10),
            SimTime::from_secs(20),
        )
        .unwrap();
        let trace: ContactTrace = vec![clique, pc(2, 3, 30, 40)].into_iter().collect();
        // Nodes 0, 1 and 3 start with one message each, for a node nobody
        // meets.
        let sources = [(0, 0), (1, 1), (2, 3)];
        let messages = sources
            .iter()
            .map(|&(id, src)| Message::new(id, n(src), n(9), SimTime::ZERO, None))
            .collect();
        let log = Rc::new(RefCell::new(Vec::new()));
        let r = simulate(&trace, Recording(Rc::clone(&log)), messages);

        // Replay the log over a model of who holds what: each meeting with
        // the buffers as its pair met and the questions it was asked.
        let mut held: Vec<BTreeSet<MessageId>> = vec![BTreeSet::new(); 4];
        for &(id, src) in &sources {
            held[src as usize].insert(MessageId(id));
        }
        let mut meetings = Vec::new();
        for &heard in log.borrow().iter() {
            match heard {
                Heard::Meet(a, b) => meetings.push(((a, b), held.clone(), Vec::new())),
                Heard::Decide(carrier, peer, id) => {
                    let ((a, b), _, asked) =
                        meetings.last_mut().expect("`meet` precedes every question");
                    assert!(
                        [(*a, *b), (*b, *a)].contains(&(carrier, peer)),
                        "{carrier}->{peer} asked while {a} met {b}"
                    );
                    asked.push((carrier, peer, id));
                    held[peer.index()].insert(id);
                }
            }
        }
        assert_eq!(meetings.len(), 4, "the clique's three pairs, then 2-3");
        for ((a, b), as_met, asked) in &meetings {
            // a→b, then b→a, each in id order: every copy the carrier held
            // and the peer lacked, once, and nothing else.
            let lacking = |carrier: &NodeId, peer: &NodeId| {
                let theirs = &as_met[peer.index()];
                as_met[carrier.index()]
                    .difference(theirs)
                    .map(|&id| (*carrier, *peer, id))
                    .collect::<Vec<_>>()
            };
            assert_eq!(*asked, [lacking(a, b), lacking(b, a)].concat(), "{a}-{b}");
        }
        // The clique's last pair met with equal buffers and was asked nothing.
        let ((a, b), as_met, asked) = &meetings[2];
        assert_eq!(as_met[a.index()], as_met[b.index()]);
        assert!(asked.is_empty());
        assert_eq!(r.transmissions, 7);
    }

    #[test]
    fn uniform_messages_are_valid() {
        use rand::SeedableRng;
        let nodes: Vec<NodeId> = (0..5).map(NodeId::new).collect();
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        let msgs = uniform_messages(
            &nodes,
            50,
            SimTime::from_secs(1000),
            Some(SimDuration::from_secs(500)),
            &mut rng,
        );
        assert_eq!(msgs.len(), 50);
        for m in &msgs {
            assert_ne!(m.src(), m.dst());
            assert!(m.created().as_secs() < 1000);
            assert_eq!(
                m.expires().unwrap(),
                m.created() + SimDuration::from_secs(500)
            );
        }
    }

    #[test]
    fn report_with_no_messages() {
        let trace = chain_trace();
        let r = simulate(&trace, Epidemic::new(), Vec::new());
        assert_eq!(r.created, 0);
        assert_eq!(r.delivery_ratio, 0.0);
        assert_eq!(r.overhead, None);
        assert_eq!(r.mean_delay_secs, None);
    }
}
