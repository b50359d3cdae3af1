//! Routing simulation over a contact trace, hosted on `dtn_sim`'s engine.

use std::collections::BTreeMap;
use std::iter::Peekable;

use dtn_sim::{SimCtx, SimHandler, StreamSimulator};
use dtn_trace::{Contact, NodeId, SimDuration, SimTime, TraceSource};
use rand::seq::SliceRandom;
use rand::Rng;

use crate::buffer::Buffer;
use crate::message::{Message, MessageId};
use crate::protocols::{Action, ContactView, RoutingProtocol};

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
    /// Median delivery delay in seconds over delivered messages.
    pub median_delay_secs: Option<f64>,
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
/// every transfer a protocol asks for in a contact is applied.
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
        created_time: BTreeMap::new(),
        delivered_at: BTreeMap::new(),
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
    created_time: BTreeMap<MessageId, SimTime>,
    delivered_at: BTreeMap<MessageId, SimTime>,
    transmissions: u64,
}

impl<P: RoutingProtocol> Run<P> {
    /// Injects every pending message created at or before `now`.
    fn inject(&mut self, now: SimTime) {
        let tokens = self.protocol.initial_tokens();
        while let Some(m) = self.pending.next_if(|m| m.created() <= now) {
            self.created_time.insert(m.id(), m.created());
            if m.src() == m.dst() {
                self.delivered_at.insert(m.id(), m.created());
            } else if let Some(buffer) = self.buffers.get_mut(m.src().index()) {
                buffer.insert(m, tokens);
            }
        }
    }

    fn report(self) -> RoutingReport {
        let created = self.created_time.len() as u64;
        let delivered = self.delivered_at.len() as u64;
        let mut delays: dtn_sim::histogram::DelayHistogram = self
            .delivered_at
            .iter()
            .filter_map(|(id, &at)| {
                self.created_time
                    .get(id)
                    .and_then(|&c| at.checked_duration_since(c))
            })
            .collect();
        RoutingReport {
            protocol: self.protocol.name(),
            created,
            delivered,
            delivery_ratio: if created == 0 {
                0.0
            } else {
                delivered as f64 / created as f64
            },
            mean_delay_secs: delays.mean_secs(),
            median_delay_secs: delays.median().map(|d| d.as_secs() as f64),
            transmissions: self.transmissions,
            overhead: if delivered == 0 {
                None
            } else {
                Some(self.transmissions as f64 / delivered as f64)
            },
        }
    }
}

impl<P: RoutingProtocol> SimHandler for Run<P> {
    fn on_contact_start(&mut self, ctx: &mut SimCtx<'_>, contact: &Contact) {
        let now = ctx.now();
        self.inject(now);
        for (a, b) in contact.pairs() {
            if a.index() >= self.buffers.len() || b.index() >= self.buffers.len() {
                continue;
            }
            self.buffers[a.index()].prune_expired(now);
            self.buffers[b.index()].prune_expired(now);
            let actions = {
                let view = ContactView {
                    a: &self.buffers[a.index()],
                    b: &self.buffers[b.index()],
                };
                self.protocol.on_contact(a, b, &view, now)
            };
            for action in actions {
                self.transmissions +=
                    apply_action(&mut self.buffers, a, b, action, now, &mut self.delivered_at);
            }
        }
    }

    /// Messages created after the last contact still count as created.
    fn on_finish(&mut self, now: SimTime) {
        self.inject(now.saturating_add(SimDuration::from_days(10_000)));
    }
}

/// Applies one action; returns 1 if a transmission happened, 0 otherwise.
fn apply_action(
    buffers: &mut [Buffer],
    a: NodeId,
    b: NodeId,
    action: Action,
    now: SimTime,
    delivered_at: &mut BTreeMap<MessageId, SimTime>,
) -> u64 {
    let (from, id, forward, tokens_to_peer, tokens_kept) = match action {
        Action::Replicate {
            id,
            from,
            tokens_to_peer,
            tokens_kept,
        } => (from, id, false, tokens_to_peer, tokens_kept),
        Action::Forward { id, from } => (from, id, true, 1, 0),
    };
    let to = if from == a { b } else { a };
    let Some(copy) = buffers[from.index()].get(id).cloned() else {
        return 0;
    };
    let message = copy.message.clone();
    if message.is_expired(now) {
        buffers[from.index()].remove(id);
        return 0;
    }
    let stored = buffers[to.index()].insert(message.clone(), tokens_to_peer);
    if !stored {
        return 0;
    }
    if forward {
        buffers[from.index()].remove(id);
    } else if let Some(mine) = buffers[from.index()].get_mut(id) {
        mine.tokens = tokens_kept;
    }
    if message.dst() == to {
        delivered_at.entry(id).or_insert(now);
    }
    1
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
    use super::*;
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
