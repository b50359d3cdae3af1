//! Deterministic fault injection.
//!
//! The paper's evaluation assumes *clean* contacts: every broadcast the trace
//! allows completes, every contact runs its full length, and every node stays
//! up. Real DieselNet-style deployments are lossy, truncated, and
//! churn-prone, so the robustness experiments perturb the simulation with a
//! [`FaultPlan`]: per-frame broadcast loss, per-contact truncation, per-node
//! down intervals (churn), and per-reception piece corruption.
//!
//! # Determinism contract
//!
//! Every decision is a pure function of the plan and the event's coordinates
//! — no RNG state is carried between decisions. Each roll seeds a fresh
//! stream as
//!
//! ```text
//! derive_seed(&[plan.seed, fault_kind, event coordinates...])
//! ```
//!
//! so results are bit-identical regardless of evaluation order or thread
//! count, and the parallel executor only needs to derive `plan.seed` from a
//! cell's grid coordinates (see `mbt-experiments::exec`). A rate of zero
//! draws **no** random numbers at all, which keeps a zero-rate plan
//! byte-identical to the fault-free code path.

use dtn_trace::{NodeId, SimDuration, SimTime};
use rand::Rng as _;

use crate::rng::{derive_seed, stream};

/// Domain tag mixed into seed derivations by the parallel executor so fault
/// streams never collide with the workload stream of the same cell.
pub const FAULT_STREAM: u64 = 0xFA17;

/// The independent fault streams of a [`FaultPlan`]. Each kind derives its
/// rolls from its own seed domain, so e.g. enabling corruption never shifts
/// the loss rolls.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) enum FaultKind {
    /// A broadcast frame fails to reach one receiver.
    Loss,
    /// A contact ends early, shrinking its transfer budget.
    Truncate,
    /// A node is down (powered off, crashed) for an interval.
    Churn,
    /// A received file's pieces are corrupted in transit.
    Corrupt,
}

impl FaultKind {
    /// Stable per-kind seed domain (mixed into every derivation).
    fn domain(self) -> u64 {
        match self {
            FaultKind::Loss => 1,
            FaultKind::Truncate => 2,
            FaultKind::Churn => 3,
            FaultKind::Corrupt => 4,
        }
    }
}

/// A deterministic fault-injection plan.
///
/// The default ([`FaultPlan::none`]) injects nothing and draws no random
/// numbers, so a no-fault run is byte-identical whether or not a plan is
/// threaded through.
///
/// # Example
///
/// ```
/// use dtn_sim::FaultPlan;
/// use dtn_trace::{NodeId, SimTime};
///
/// let plan = FaultPlan::none().loss(0.5).seed(7);
/// let a = plan.frame_lost(SimTime::ZERO, NodeId::new(0), NodeId::new(1), "mbt://a");
/// let b = plan.frame_lost(SimTime::ZERO, NodeId::new(0), NodeId::new(1), "mbt://a");
/// assert_eq!(a, b, "rolls are deterministic");
/// assert!(!FaultPlan::none().frame_lost(SimTime::ZERO, NodeId::new(0), NodeId::new(1), "mbt://a"));
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultPlan {
    /// Per-receiver probability that a broadcast frame is lost.
    pub loss_rate: f64,
    /// Maximum fraction of a contact that truncation removes: each contact
    /// keeps a deterministic fraction drawn uniformly from
    /// `[1 - truncate_rate, 1]` of its duration and transfer budget.
    pub truncate_rate: f64,
    /// Probability that a node suffers one down interval within the horizon.
    pub churn: f64,
    /// Per-reception probability that a file arrives with corrupted pieces
    /// (caught by checksum verification; the file is not stored).
    pub corruption_rate: f64,
    /// Base seed for every fault stream.
    pub seed: u64,
}

impl Default for FaultPlan {
    fn default() -> Self {
        FaultPlan::none()
    }
}

fn check_rate(what: &str, rate: f64) {
    assert!(
        (0.0..=1.0).contains(&rate),
        "{what} rate must be in [0, 1], got {rate}"
    );
}

impl FaultPlan {
    /// The no-fault plan: all rates zero, seed zero.
    pub fn none() -> FaultPlan {
        FaultPlan {
            loss_rate: 0.0,
            truncate_rate: 0.0,
            churn: 0.0,
            corruption_rate: 0.0,
            seed: 0,
        }
    }

    /// Sets the broadcast frame loss probability.
    ///
    /// # Panics
    ///
    /// Panics unless `rate` ∈ [0, 1].
    pub fn loss(mut self, rate: f64) -> FaultPlan {
        check_rate("loss", rate);
        self.loss_rate = rate;
        self
    }

    /// Sets the maximum truncated fraction per contact.
    ///
    /// # Panics
    ///
    /// Panics unless `rate` ∈ [0, 1].
    pub fn truncate(mut self, rate: f64) -> FaultPlan {
        check_rate("truncate", rate);
        self.truncate_rate = rate;
        self
    }

    /// Sets the per-node down-interval probability.
    ///
    /// # Panics
    ///
    /// Panics unless `rate` ∈ [0, 1].
    pub fn churn(mut self, rate: f64) -> FaultPlan {
        check_rate("churn", rate);
        self.churn = rate;
        self
    }

    /// Sets the per-reception piece-corruption probability.
    ///
    /// # Panics
    ///
    /// Panics unless `rate` ∈ [0, 1].
    pub fn corruption(mut self, rate: f64) -> FaultPlan {
        check_rate("corruption", rate);
        self.corruption_rate = rate;
        self
    }

    /// Sets the base seed for all fault streams.
    pub fn seed(mut self, seed: u64) -> FaultPlan {
        self.seed = seed;
        self
    }

    /// True if the plan injects nothing (all rates zero). A no-op plan draws
    /// no random numbers regardless of its seed.
    pub fn is_noop(&self) -> bool {
        self.loss_rate <= 0.0
            && self.truncate_rate <= 0.0
            && self.churn <= 0.0
            && self.corruption_rate <= 0.0
    }

    /// One independent Bernoulli roll in `kind`'s seed domain.
    fn roll(&self, kind: FaultKind, coords: &[u64], name: &str, rate: f64) -> bool {
        let mut parts = Vec::with_capacity(coords.len() + 2);
        parts.push(self.seed);
        parts.push(kind.domain());
        parts.extend_from_slice(coords);
        stream(derive_seed(&parts), name).gen::<f64>() < rate
    }

    /// Whether the broadcast of `item` from `sender` fails to reach
    /// `receiver` during the contact at `now`. Each (instant, sender,
    /// receiver, item) draws independently; zero loss draws nothing.
    pub fn frame_lost(&self, now: SimTime, sender: NodeId, receiver: NodeId, item: &str) -> bool {
        if self.loss_rate <= 0.0 {
            return false;
        }
        self.roll(
            FaultKind::Loss,
            &[
                now.as_secs(),
                u64::from(sender.raw()),
                u64::from(receiver.raw()),
            ],
            item,
            self.loss_rate,
        )
    }

    /// Whether `item`, broadcast by `sender`, arrives at `receiver` with
    /// corrupted pieces. Rolled after (and independently of) frame loss.
    pub fn corrupts(&self, now: SimTime, sender: NodeId, receiver: NodeId, item: &str) -> bool {
        if self.corruption_rate <= 0.0 {
            return false;
        }
        self.roll(
            FaultKind::Corrupt,
            &[
                now.as_secs(),
                u64::from(sender.raw()),
                u64::from(receiver.raw()),
            ],
            item,
            self.corruption_rate,
        )
    }

    /// The fraction of the contact starting at `start` among `members` that
    /// survives truncation, in `[1 - truncate_rate, 1]`. Exactly `1.0`
    /// (drawing nothing) when truncation is off.
    pub fn contact_keep(&self, start: SimTime, members: &[NodeId]) -> f64 {
        if self.truncate_rate <= 0.0 {
            return 1.0;
        }
        let mut parts = Vec::with_capacity(members.len() + 3);
        parts.push(self.seed);
        parts.push(FaultKind::Truncate.domain());
        parts.push(start.as_secs());
        parts.extend(members.iter().map(|n| u64::from(n.raw())));
        let cut = stream(derive_seed(&parts), "truncate").gen::<f64>() * self.truncate_rate;
        1.0 - cut
    }

    /// `duration` scaled by [`FaultPlan::contact_keep`] (never below one
    /// second, so a truncated contact is still a valid interval).
    pub fn truncated_duration(
        &self,
        start: SimTime,
        members: &[NodeId],
        duration: SimDuration,
    ) -> SimDuration {
        if self.truncate_rate <= 0.0 {
            return duration;
        }
        let keep = self.contact_keep(start, members);
        let secs = (duration.as_secs() as f64 * keep).floor() as u64;
        SimDuration::from_secs(secs.max(1))
    }

    /// The down interval `[start, end)` of `node` within `[0, horizon)`, if
    /// churn selects it. Deterministic per node; `None` (drawing nothing)
    /// when churn is off. The interval never exceeds half the horizon.
    pub fn down_interval(&self, node: NodeId, horizon: SimDuration) -> Option<(SimTime, SimTime)> {
        if self.churn <= 0.0 {
            return None;
        }
        let h = horizon.as_secs();
        if h == 0 {
            return None;
        }
        let seed = derive_seed(&[self.seed, FaultKind::Churn.domain(), u64::from(node.raw())]);
        let mut rng = stream(seed, "churn");
        if rng.gen::<f64>() >= self.churn {
            return None;
        }
        let start = rng.gen_range(0..h);
        let len = rng.gen_range(1..=(h / 2).max(1));
        Some((
            SimTime::from_secs(start),
            SimTime::from_secs((start + len).min(h)),
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(i: u32) -> NodeId {
        NodeId::new(i)
    }

    fn t(secs: u64) -> SimTime {
        SimTime::from_secs(secs)
    }

    #[test]
    fn none_is_noop_and_never_faults() {
        let plan = FaultPlan::none();
        assert!(plan.is_noop());
        assert!(!plan.frame_lost(t(5), n(0), n(1), "mbt://x"));
        assert!(!plan.corrupts(t(5), n(0), n(1), "mbt://x"));
        assert_eq!(plan.contact_keep(t(5), &[n(0), n(1)]), 1.0);
        assert_eq!(plan.down_interval(n(0), SimDuration::from_days(1)), None);
    }

    #[test]
    fn seed_alone_does_not_make_a_plan_active() {
        assert!(FaultPlan::none().seed(99).is_noop());
        assert!(!FaultPlan::none().loss(0.1).is_noop());
        assert!(!FaultPlan::none().truncate(0.1).is_noop());
        assert!(!FaultPlan::none().churn(0.1).is_noop());
        assert!(!FaultPlan::none().corruption(0.1).is_noop());
    }

    #[test]
    fn rolls_are_deterministic_and_coordinate_sensitive() {
        let plan = FaultPlan::none().loss(0.5).seed(3);
        let roll = |time, s, r, item| plan.frame_lost(t(time), n(s), n(r), item);
        for time in 0..50u64 {
            assert_eq!(
                roll(time, 0, 1, "mbt://a"),
                roll(time, 0, 1, "mbt://a"),
                "same coordinates must agree"
            );
        }
        // Across many coordinates, both outcomes occur at rate 0.5.
        let hits = (0..200u64).filter(|&i| roll(i, 0, 1, "mbt://a")).count();
        assert!(
            (50..150).contains(&hits),
            "loss rolls look degenerate: {hits}"
        );
    }

    #[test]
    fn full_loss_drops_everything() {
        let plan = FaultPlan::none().loss(1.0);
        for i in 0..40u64 {
            assert!(plan.frame_lost(t(i), n(0), n(1), "mbt://a"));
        }
    }

    #[test]
    fn loss_and_corruption_streams_are_independent() {
        // Same coordinates, different kinds: outcomes must not be the same
        // function (they differ somewhere over a coordinate sweep).
        let plan = FaultPlan::none().loss(0.5).corruption(0.5).seed(11);
        let differs = (0..100u64).any(|i| {
            plan.frame_lost(t(i), n(0), n(1), "mbt://a")
                != plan.corrupts(t(i), n(0), n(1), "mbt://a")
        });
        assert!(differs, "loss and corruption rolls are identical streams");
    }

    #[test]
    fn contact_keep_is_bounded_and_deterministic() {
        let plan = FaultPlan::none().truncate(0.6).seed(5);
        let members = [n(2), n(7), n(9)];
        for i in 0..50u64 {
            let keep = plan.contact_keep(t(i * 100), &members);
            assert!((0.4..=1.0).contains(&keep), "keep {keep} out of range");
            assert_eq!(keep, plan.contact_keep(t(i * 100), &members));
        }
    }

    #[test]
    fn truncated_duration_shrinks_but_stays_positive() {
        let plan = FaultPlan::none().truncate(1.0).seed(8);
        let members = [n(0), n(1)];
        for i in 0..50u64 {
            let d = plan.truncated_duration(t(i), &members, SimDuration::from_secs(600));
            assert!(d.as_secs() >= 1);
            assert!(d.as_secs() <= 600);
        }
        // Truncation off: identity, regardless of seed.
        let clean = FaultPlan::none().seed(8);
        assert_eq!(
            clean.truncated_duration(t(0), &members, SimDuration::from_secs(600)),
            SimDuration::from_secs(600)
        );
    }

    #[test]
    fn down_intervals_live_within_the_horizon() {
        let plan = FaultPlan::none().churn(1.0).seed(13);
        let horizon = SimDuration::from_days(3);
        for i in 0..40u32 {
            let (start, end) = plan
                .down_interval(n(i), horizon)
                .expect("churn 1.0 downs every node");
            assert!(start < end, "empty interval");
            assert!(end.as_secs() <= horizon.as_secs());
            assert_eq!(plan.down_interval(n(i), horizon), Some((start, end)));
        }
    }

    #[test]
    fn partial_churn_downs_some_nodes_only() {
        let plan = FaultPlan::none().churn(0.5).seed(21);
        let horizon = SimDuration::from_days(2);
        let down = (0..100u32)
            .filter(|&i| plan.down_interval(n(i), horizon).is_some())
            .count();
        assert!(
            (20..80).contains(&down),
            "churn selection degenerate: {down}"
        );
    }

    #[test]
    #[should_panic(expected = "loss rate must be in [0, 1]")]
    fn rejects_out_of_range_rates() {
        let _ = FaultPlan::none().loss(1.5);
    }
}
