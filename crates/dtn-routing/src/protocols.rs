//! The routing protocols.
//!
//! All four follow the store-carry-forward pattern over pair-wise contacts
//! (clique contacts are decomposed into pairs by the simulator — broadcast
//! scheduling is the MBT paper's contribution, not the routing baselines').

use std::collections::BTreeMap;

use dtn_trace::{NodeId, SimTime};

use crate::buffer::Buffer;
use crate::message::MessageId;

/// A read-only view of the two endpoints' buffers during a contact.
#[derive(Debug)]
pub struct ContactView<'a> {
    /// First endpoint's buffer.
    pub a: &'a Buffer,
    /// Second endpoint's buffer.
    pub b: &'a Buffer,
}

/// A transfer decision returned by a protocol.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Action {
    /// Copy `id` from `from` to the other endpoint; the receiver's copy gets
    /// `tokens_to_peer` copy tokens and the sender's copy is updated to
    /// `tokens_kept` (spray-and-wait splits its tokens this way; epidemic
    /// uses 1/1).
    Replicate {
        /// The message to copy.
        id: MessageId,
        /// The sending endpoint.
        from: NodeId,
        /// Tokens granted to the receiver's new copy.
        tokens_to_peer: u32,
        /// Tokens the sender keeps.
        tokens_kept: u32,
    },
    /// Move `id` from `from` to the other endpoint (the sender's copy is
    /// removed).
    Forward {
        /// The message to move.
        id: MessageId,
        /// The sending endpoint.
        from: NodeId,
    },
}

/// A store-carry-forward routing protocol.
///
/// Implementations decide, per contact, which messages to replicate or
/// forward; the simulator applies the actions and tracks deliveries. The
/// trait is object-safe so simulations can switch protocols at runtime.
pub trait RoutingProtocol {
    /// A short protocol name for reports.
    fn name(&self) -> &'static str;

    /// Called when `a` and `b` meet; returns the transfers to apply, in
    /// order.
    fn on_contact(
        &mut self,
        a: NodeId,
        b: NodeId,
        view: &ContactView<'_>,
        now: SimTime,
    ) -> Vec<Action>;

    /// Initial copy tokens a freshly created message starts with at its
    /// source (1 for all protocols except spray-and-wait).
    fn initial_tokens(&self) -> u32 {
        1
    }
}

/// Epidemic routing: replicate every message the peer is missing
/// (paper §II-A's flooding family; the delivery upper bound).
#[derive(Debug, Clone, Default)]
pub struct Epidemic {
    _private: (),
}

impl Epidemic {
    /// Creates the protocol.
    pub fn new() -> Self {
        Epidemic::default()
    }
}

impl RoutingProtocol for Epidemic {
    fn name(&self) -> &'static str {
        "epidemic"
    }

    fn on_contact(
        &mut self,
        a: NodeId,
        b: NodeId,
        view: &ContactView<'_>,
        _now: SimTime,
    ) -> Vec<Action> {
        let mut actions = Vec::new();
        for copy in view.a.iter() {
            if !view.b.contains(copy.message.id()) {
                actions.push(Action::Replicate {
                    id: copy.message.id(),
                    from: a,
                    tokens_to_peer: 1,
                    tokens_kept: 1,
                });
            }
        }
        for copy in view.b.iter() {
            if !view.a.contains(copy.message.id()) {
                actions.push(Action::Replicate {
                    id: copy.message.id(),
                    from: b,
                    tokens_to_peer: 1,
                    tokens_kept: 1,
                });
            }
        }
        actions
    }
}

/// Direct delivery: a message is only ever handed to its destination
/// (the overhead lower bound — exactly one transmission per delivery).
#[derive(Debug, Clone, Default)]
pub struct DirectDelivery {
    _private: (),
}

impl DirectDelivery {
    /// Creates the protocol.
    pub fn new() -> Self {
        DirectDelivery::default()
    }
}

impl RoutingProtocol for DirectDelivery {
    fn name(&self) -> &'static str {
        "direct"
    }

    fn on_contact(
        &mut self,
        a: NodeId,
        b: NodeId,
        view: &ContactView<'_>,
        _now: SimTime,
    ) -> Vec<Action> {
        let mut actions = Vec::new();
        for copy in view.a.iter() {
            if copy.message.dst() == b && !view.b.contains(copy.message.id()) {
                actions.push(Action::Forward {
                    id: copy.message.id(),
                    from: a,
                });
            }
        }
        for copy in view.b.iter() {
            if copy.message.dst() == a && !view.a.contains(copy.message.id()) {
                actions.push(Action::Forward {
                    id: copy.message.id(),
                    from: b,
                });
            }
        }
        actions
    }
}

/// PRoPHET: probabilistic routing using history of encounters and
/// transitivity (Lindgren, Doria, Schelén — the paper's ref \[10\]).
///
/// Each node `x` maintains delivery predictabilities `P(x, y)`; on a contact
/// the predictability for the encountered peer is reinforced, all entries
/// age with time, and transitivity propagates predictability through the
/// peer. A copy is replicated to the peer when the peer's predictability for
/// the destination exceeds the carrier's.
#[derive(Debug, Clone, Default)]
pub struct Prophet {
    p: BTreeMap<(NodeId, NodeId), f64>,
    last_aged: BTreeMap<NodeId, SimTime>,
}

/// PRoPHET's canonical parameters: a fresh encounter's predictability, the
/// transitivity weight, and the aging factor per 30-minute unit.
const P_INIT: f64 = 0.75;
const BETA: f64 = 0.25;
const GAMMA: f64 = 0.98;
const UNIT_SECS: f64 = 1_800.0;

impl Prophet {
    /// Creates PRoPHET with the canonical parameters:
    /// `P_init = 0.75`, `β = 0.25`, `γ = 0.98`, aging unit 30 minutes.
    pub fn new() -> Self {
        Prophet::default()
    }

    /// The current predictability `P(x, y)`.
    pub fn predictability(&self, x: NodeId, y: NodeId) -> f64 {
        self.p.get(&(x, y)).copied().unwrap_or(0.0)
    }

    fn age(&mut self, node: NodeId, now: SimTime) {
        let last = self.last_aged.insert(node, now).unwrap_or(SimTime::ZERO);
        let Some(elapsed) = now.checked_duration_since(last) else {
            return;
        };
        if elapsed.is_zero() {
            return;
        }
        let k = elapsed.as_secs() as f64 / UNIT_SECS;
        let factor = GAMMA.powf(k);
        for ((x, _), v) in self.p.iter_mut() {
            if *x == node {
                *v *= factor;
            }
        }
    }

    fn reinforce(&mut self, x: NodeId, y: NodeId) {
        let entry = self.p.entry((x, y)).or_insert(0.0);
        *entry += (1.0 - *entry) * P_INIT;
    }

    fn transit(&mut self, x: NodeId, via: NodeId) {
        // P(x, d) += (1 - P(x, d)) * P(x, via) * P(via, d) * beta
        let p_x_via = self.predictability(x, via);
        let through: Vec<(NodeId, f64)> = self
            .p
            .iter()
            .filter(|((from, _), _)| *from == via)
            .map(|((_, d), v)| (*d, *v))
            .collect();
        for (d, p_via_d) in through {
            if d == x {
                continue;
            }
            let entry = self.p.entry((x, d)).or_insert(0.0);
            *entry += (1.0 - *entry) * p_x_via * p_via_d * BETA;
        }
    }
}

impl RoutingProtocol for Prophet {
    fn name(&self) -> &'static str {
        "prophet"
    }

    fn on_contact(
        &mut self,
        a: NodeId,
        b: NodeId,
        view: &ContactView<'_>,
        now: SimTime,
    ) -> Vec<Action> {
        self.age(a, now);
        self.age(b, now);
        self.reinforce(a, b);
        self.reinforce(b, a);
        self.transit(a, b);
        self.transit(b, a);

        let mut actions = Vec::new();
        for copy in view.a.iter() {
            let dst = copy.message.dst();
            let better = dst == b || self.predictability(b, dst) > self.predictability(a, dst);
            if better && !view.b.contains(copy.message.id()) {
                actions.push(Action::Replicate {
                    id: copy.message.id(),
                    from: a,
                    tokens_to_peer: 1,
                    tokens_kept: 1,
                });
            }
        }
        for copy in view.b.iter() {
            let dst = copy.message.dst();
            let better = dst == a || self.predictability(a, dst) > self.predictability(b, dst);
            if better && !view.a.contains(copy.message.id()) {
                actions.push(Action::Replicate {
                    id: copy.message.id(),
                    from: b,
                    tokens_to_peer: 1,
                    tokens_kept: 1,
                });
            }
        }
        actions
    }
}

/// Binary spray-and-wait: a message starts with `L` copy tokens; a carrier
/// with more than one token hands half to any peer missing the message, and
/// with one token left waits for the destination (Spyropoulos et al.).
#[derive(Debug, Clone)]
pub struct SprayAndWait {
    initial_copies: u32,
}

impl Default for SprayAndWait {
    fn default() -> Self {
        SprayAndWait::new(8)
    }
}

impl SprayAndWait {
    /// Creates the protocol with `initial_copies` tokens per message.
    ///
    /// # Panics
    ///
    /// Panics if `initial_copies` is zero.
    pub fn new(initial_copies: u32) -> Self {
        assert!(initial_copies > 0, "need at least one copy");
        SprayAndWait { initial_copies }
    }
}

impl RoutingProtocol for SprayAndWait {
    fn name(&self) -> &'static str {
        "spray-and-wait"
    }

    fn initial_tokens(&self) -> u32 {
        self.initial_copies
    }

    fn on_contact(
        &mut self,
        a: NodeId,
        b: NodeId,
        view: &ContactView<'_>,
        _now: SimTime,
    ) -> Vec<Action> {
        let mut actions = Vec::new();
        let mut side = |from: NodeId, to: NodeId, mine: &Buffer, theirs: &Buffer| {
            for copy in mine.iter() {
                if theirs.contains(copy.message.id()) {
                    continue;
                }
                if copy.message.dst() == to {
                    actions.push(Action::Forward {
                        id: copy.message.id(),
                        from,
                    });
                } else if copy.tokens > 1 {
                    let give = copy.tokens / 2;
                    actions.push(Action::Replicate {
                        id: copy.message.id(),
                        from,
                        tokens_to_peer: give,
                        tokens_kept: copy.tokens - give,
                    });
                }
            }
        };
        side(a, b, view.a, view.b);
        side(b, a, view.b, view.a);
        actions
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::Message;

    fn n(i: u32) -> NodeId {
        NodeId::new(i)
    }

    fn msg(id: u64, src: u32, dst: u32) -> Message {
        Message::new(id, n(src), n(dst), SimTime::ZERO, None)
    }

    fn buf_with(messages: &[(u64, u32, u32, u32)]) -> Buffer {
        let mut b = Buffer::default();
        for &(id, src, dst, tokens) in messages {
            b.insert(msg(id, src, dst), tokens);
        }
        b
    }

    #[test]
    fn epidemic_copies_everything_missing() {
        let a = buf_with(&[(1, 0, 5, 1), (2, 0, 6, 1)]);
        let b = buf_with(&[(2, 0, 6, 1), (3, 1, 7, 1)]);
        let mut p = Epidemic::new();
        let actions = p.on_contact(n(0), n(1), &ContactView { a: &a, b: &b }, SimTime::ZERO);
        assert_eq!(actions.len(), 2); // 1 goes a→b, 3 goes b→a; 2 is shared.
        assert!(actions.contains(&Action::Replicate {
            id: MessageId(1),
            from: n(0),
            tokens_to_peer: 1,
            tokens_kept: 1
        }));
        assert!(actions.contains(&Action::Replicate {
            id: MessageId(3),
            from: n(1),
            tokens_to_peer: 1,
            tokens_kept: 1
        }));
    }

    #[test]
    fn direct_delivery_only_to_destination() {
        let a = buf_with(&[(1, 0, 1, 1), (2, 0, 9, 1)]);
        let b = Buffer::default();
        let mut p = DirectDelivery::new();
        let actions = p.on_contact(n(0), n(1), &ContactView { a: &a, b: &b }, SimTime::ZERO);
        assert_eq!(
            actions,
            vec![Action::Forward {
                id: MessageId(1),
                from: n(0)
            }]
        );
    }

    #[test]
    fn prophet_reinforces_and_ages() {
        let mut p = Prophet::new();
        let empty = Buffer::default();
        p.on_contact(
            n(0),
            n(1),
            &ContactView {
                a: &empty,
                b: &empty,
            },
            SimTime::from_secs(0),
        );
        let fresh = p.predictability(n(0), n(1));
        assert!((fresh - 0.75).abs() < 1e-9);
        // A day later the predictability has aged below its fresh value.
        p.on_contact(
            n(0),
            n(2),
            &ContactView {
                a: &empty,
                b: &empty,
            },
            SimTime::from_days(1),
        );
        assert!(p.predictability(n(0), n(1)) < fresh);
        // Repeated encounters push toward 1.
        for _ in 0..10 {
            p.reinforce(n(0), n(1));
        }
        assert!(p.predictability(n(0), n(1)) > 0.95);
    }

    #[test]
    fn prophet_transitivity_builds_indirect_predictability() {
        let mut p = Prophet::new();
        let empty = Buffer::default();
        // b meets dst often, then a meets b: a gains predictability for dst.
        for t in 0..3 {
            p.on_contact(
                n(1),
                n(2),
                &ContactView {
                    a: &empty,
                    b: &empty,
                },
                SimTime::from_secs(t * 10),
            );
        }
        p.on_contact(
            n(0),
            n(1),
            &ContactView {
                a: &empty,
                b: &empty,
            },
            SimTime::from_secs(100),
        );
        assert!(p.predictability(n(0), n(2)) > 0.0);
        assert!(p.predictability(n(0), n(2)) < p.predictability(n(1), n(2)));
    }

    #[test]
    fn prophet_forwards_to_better_carrier() {
        let mut p = Prophet::new();
        let empty = Buffer::default();
        // b frequently meets node 5.
        for t in 0..3 {
            p.on_contact(
                n(1),
                n(5),
                &ContactView {
                    a: &empty,
                    b: &empty,
                },
                SimTime::from_secs(t),
            );
        }
        let a = buf_with(&[(1, 0, 5, 1)]);
        let b = Buffer::default();
        let actions = p.on_contact(
            n(0),
            n(1),
            &ContactView { a: &a, b: &b },
            SimTime::from_secs(10),
        );
        assert!(actions.iter().any(|act| matches!(
            act,
            Action::Replicate { id: MessageId(1), from, .. } if *from == n(0)
        )));
    }

    #[test]
    fn prophet_keeps_message_when_self_is_better() {
        let mut p = Prophet::new();
        let empty = Buffer::default();
        // a (node 0) frequently meets the destination, b never has.
        for t in 0..3 {
            p.on_contact(
                n(0),
                n(5),
                &ContactView {
                    a: &empty,
                    b: &empty,
                },
                SimTime::from_secs(t),
            );
        }
        let a = buf_with(&[(1, 0, 5, 1)]);
        let b = Buffer::default();
        let actions = p.on_contact(
            n(0),
            n(1),
            &ContactView { a: &a, b: &b },
            SimTime::from_secs(10),
        );
        assert!(actions.is_empty(), "worse carrier must not receive a copy");
    }

    #[test]
    fn spray_splits_tokens_binary() {
        let a = buf_with(&[(1, 0, 9, 8)]);
        let b = Buffer::default();
        let mut p = SprayAndWait::new(8);
        let actions = p.on_contact(n(0), n(1), &ContactView { a: &a, b: &b }, SimTime::ZERO);
        assert_eq!(
            actions,
            vec![Action::Replicate {
                id: MessageId(1),
                from: n(0),
                tokens_to_peer: 4,
                tokens_kept: 4
            }]
        );
    }

    #[test]
    fn spray_waits_with_single_token() {
        let a = buf_with(&[(1, 0, 9, 1)]);
        let b = Buffer::default();
        let mut p = SprayAndWait::new(8);
        let actions = p.on_contact(n(0), n(1), &ContactView { a: &a, b: &b }, SimTime::ZERO);
        assert!(
            actions.is_empty(),
            "wait phase: no relay to non-destination"
        );
    }

    #[test]
    fn spray_always_delivers_to_destination() {
        let a = buf_with(&[(1, 0, 1, 1)]);
        let b = Buffer::default();
        let mut p = SprayAndWait::new(8);
        let actions = p.on_contact(n(0), n(1), &ContactView { a: &a, b: &b }, SimTime::ZERO);
        assert_eq!(
            actions,
            vec![Action::Forward {
                id: MessageId(1),
                from: n(0)
            }]
        );
    }

    #[test]
    fn initial_tokens_per_protocol() {
        assert_eq!(Epidemic::new().initial_tokens(), 1);
        assert_eq!(SprayAndWait::new(16).initial_tokens(), 16);
    }

    #[test]
    #[should_panic(expected = "at least one copy")]
    fn spray_rejects_zero_copies() {
        let _ = SprayAndWait::new(0);
    }
}
