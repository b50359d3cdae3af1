//! The routing protocols, each a per-copy rule.
//!
//! All four follow the store-carry-forward pattern over pair-wise contacts
//! (clique contacts are decomposed into pairs by the simulator — broadcast
//! scheduling is the MBT paper's contribution, not the routing baselines').
//! A protocol answers one question: what a carrier does with one copy when
//! it meets a node that lacks it. The simulator ([`crate::sim`]) owns the
//! meeting — both directions, the "peer already holds it" test, and
//! applying the answers.

use std::collections::BTreeMap;

use dtn_trace::{NodeId, SimTime};

use crate::buffer::StoredCopy;

/// What a carrier does with a copy its peer lacks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Transfer {
    /// Copy it: the peer's new copy gets `tokens_to_peer` copy tokens and
    /// the carrier's copy keeps `tokens_kept` (spray-and-wait splits its
    /// tokens this way; epidemic uses 1/1).
    Replicate {
        /// Tokens granted to the peer's new copy.
        tokens_to_peer: u32,
        /// Tokens the carrier keeps.
        tokens_kept: u32,
    },
    /// Move it: the peer's copy gets one token and the carrier's is removed.
    Forward,
}

/// One more copy for the peer, one kept: the flooding answer.
const COPY: Transfer = Transfer::Replicate {
    tokens_to_peer: 1,
    tokens_kept: 1,
};

/// A store-carry-forward routing protocol: a rule for one copy.
///
/// The simulator calls [`meet`](RoutingProtocol::meet) once for each pair
/// of a contact, then [`decide`](RoutingProtocol::decide) for every copy one
/// endpoint holds and the other lacks, and applies the answers. The trait
/// is object-safe so simulations can switch protocols at runtime.
pub trait RoutingProtocol {
    /// A short protocol name for reports.
    fn name(&self) -> &'static str;

    /// Called when `a` and `b` meet at `now`, before any copy of the pair is
    /// decided on: where a protocol learns from encounters.
    fn meet(&mut self, _a: NodeId, _b: NodeId, _now: SimTime) {}

    /// What `carrier` does with `copy` on meeting `peer`, which lacks it:
    /// `None` keeps the copy where it is.
    fn decide(&self, copy: &StoredCopy, carrier: NodeId, peer: NodeId) -> Option<Transfer>;

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

    fn decide(&self, _copy: &StoredCopy, _carrier: NodeId, _peer: NodeId) -> Option<Transfer> {
        Some(COPY)
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

    fn decide(&self, copy: &StoredCopy, _carrier: NodeId, peer: NodeId) -> Option<Transfer> {
        (copy.message.dst() == peer).then_some(Transfer::Forward)
    }
}

/// PRoPHET: probabilistic routing using history of encounters and
/// transitivity (Lindgren, Doria, Schelén — the paper's ref \[10\]).
///
/// Each node `x` maintains delivery predictabilities `P(x, y)`; on a contact
/// the predictability for the encountered peer is reinforced, all entries
/// age with time, and transitivity propagates predictability through the
/// peer. A copy is replicated to the peer when the peer's predictability for
/// the destination exceeds the carrier's, or the peer is the destination.
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

    fn meet(&mut self, a: NodeId, b: NodeId, now: SimTime) {
        self.age(a, now);
        self.age(b, now);
        self.reinforce(a, b);
        self.reinforce(b, a);
        self.transit(a, b);
        self.transit(b, a);
    }

    fn decide(&self, copy: &StoredCopy, carrier: NodeId, peer: NodeId) -> Option<Transfer> {
        let dst = copy.message.dst();
        let better =
            dst == peer || self.predictability(peer, dst) > self.predictability(carrier, dst);
        better.then_some(COPY)
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

    fn decide(&self, copy: &StoredCopy, _carrier: NodeId, peer: NodeId) -> Option<Transfer> {
        if copy.message.dst() == peer {
            Some(Transfer::Forward)
        } else if copy.tokens > 1 {
            let give = copy.tokens / 2;
            Some(Transfer::Replicate {
                tokens_to_peer: give,
                tokens_kept: copy.tokens - give,
            })
        } else {
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::Message;

    fn n(i: u32) -> NodeId {
        NodeId::new(i)
    }

    fn copy(id: u64, src: u32, dst: u32, tokens: u32) -> StoredCopy {
        StoredCopy {
            message: Message::new(id, n(src), n(dst), SimTime::ZERO, None),
            tokens,
        }
    }

    #[test]
    fn epidemic_copies_everything_missing() {
        // Whatever the copy and whichever way it goes: one more copy.
        let p = Epidemic::new();
        assert_eq!(p.decide(&copy(1, 0, 5, 1), n(0), n(1)), Some(COPY));
        assert_eq!(p.decide(&copy(3, 1, 7, 1), n(1), n(0)), Some(COPY));
        assert_eq!(p.decide(&copy(4, 0, 1, 1), n(0), n(1)), Some(COPY));
    }

    #[test]
    fn direct_delivery_only_to_destination() {
        let p = DirectDelivery::new();
        assert_eq!(
            p.decide(&copy(1, 0, 1, 1), n(0), n(1)),
            Some(Transfer::Forward)
        );
        assert_eq!(p.decide(&copy(2, 0, 9, 1), n(0), n(1)), None);
    }

    #[test]
    fn prophet_reinforces_and_ages() {
        let mut p = Prophet::new();
        p.meet(n(0), n(1), SimTime::from_secs(0));
        let fresh = p.predictability(n(0), n(1));
        assert!((fresh - 0.75).abs() < 1e-9);
        // A day later the predictability has aged below its fresh value.
        p.meet(n(0), n(2), SimTime::from_secs(86_400));
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
        // b meets dst often, then a meets b: a gains predictability for dst.
        for t in 0..3 {
            p.meet(n(1), n(2), SimTime::from_secs(t * 10));
        }
        p.meet(n(0), n(1), SimTime::from_secs(100));
        assert!(p.predictability(n(0), n(2)) > 0.0);
        assert!(p.predictability(n(0), n(2)) < p.predictability(n(1), n(2)));
    }

    #[test]
    fn prophet_forwards_to_better_carrier() {
        let mut p = Prophet::new();
        // b frequently meets node 5.
        for t in 0..3 {
            p.meet(n(1), n(5), SimTime::from_secs(t));
        }
        p.meet(n(0), n(1), SimTime::from_secs(10));
        assert_eq!(p.decide(&copy(1, 0, 5, 1), n(0), n(1)), Some(COPY));
    }

    #[test]
    fn prophet_keeps_message_when_self_is_better() {
        let mut p = Prophet::new();
        // a (node 0) frequently meets the destination, b never has.
        for t in 0..3 {
            p.meet(n(0), n(5), SimTime::from_secs(t));
        }
        p.meet(n(0), n(1), SimTime::from_secs(10));
        assert_eq!(
            p.decide(&copy(1, 0, 5, 1), n(0), n(1)),
            None,
            "worse carrier must not receive a copy"
        );
    }

    #[test]
    fn spray_splits_tokens_binary() {
        let p = SprayAndWait::new(8);
        assert_eq!(
            p.decide(&copy(1, 0, 9, 8), n(0), n(1)),
            Some(Transfer::Replicate {
                tokens_to_peer: 4,
                tokens_kept: 4
            })
        );
    }

    #[test]
    fn spray_waits_with_single_token() {
        let p = SprayAndWait::new(8);
        assert_eq!(
            p.decide(&copy(1, 0, 9, 1), n(0), n(1)),
            None,
            "wait phase: no relay to non-destination"
        );
    }

    #[test]
    fn spray_always_delivers_to_destination() {
        let p = SprayAndWait::new(8);
        assert_eq!(
            p.decide(&copy(1, 0, 1, 1), n(0), n(1)),
            Some(Transfer::Forward)
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
