//! Trace-level perturbation: deterministic degradation of a recorded trace.
//!
//! While `dtn_sim::faults` injects faults *during* a simulation, this adapter
//! degrades the trace *before* it — dropping whole contacts and truncating
//! contact windows — so any downstream consumer (simulation, routing
//! analysis, statistics) sees the perturbed mobility. Every decision is a
//! pure function of the perturbation seed and the contact's identity
//! (participants + start time), so the output is reproducible regardless of
//! evaluation order, and zero-rate perturbations return the input trace
//! without drawing a single random number.

use rand::rngs::StdRng;
use rand::{Rng as _, SeedableRng as _};

use crate::contact::Contact;
use crate::hash::seed_hash;
use crate::time::SimTime;
use crate::trace::ContactTrace;

/// A deterministic trace perturbation: drop a fraction of contacts entirely
/// and truncate the rest by up to a fraction of their length.
///
/// # Example
///
/// ```
/// use dtn_trace::{Contact, ContactTrace, NodeId, Perturbation, SimTime};
///
/// let trace: ContactTrace = (0..10)
///     .map(|i| {
///         Contact::pairwise(
///             NodeId::new(0),
///             NodeId::new(1),
///             SimTime::from_secs(i * 100),
///             SimTime::from_secs(i * 100 + 60),
///         )
///         .unwrap()
///     })
///     .collect();
/// let degraded = Perturbation::new().drop_rate(0.5).seed(7).apply(&trace);
/// assert!(degraded.len() < trace.len());
/// // Zero rates are the identity.
/// assert_eq!(Perturbation::new().apply(&trace).len(), trace.len());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Perturbation {
    drop_rate: f64,
    truncate_rate: f64,
    seed: u64,
}

fn check_rate(what: &str, rate: f64) {
    assert!(
        (0.0..=1.0).contains(&rate),
        "{what} rate must be in [0, 1], got {rate}"
    );
}

impl Perturbation {
    /// The identity perturbation (nothing dropped, nothing truncated).
    pub fn new() -> Perturbation {
        Perturbation::default()
    }

    /// Sets the probability that a contact is removed entirely.
    ///
    /// # Panics
    ///
    /// Panics unless `rate` ∈ [0, 1].
    pub fn drop_rate(mut self, rate: f64) -> Perturbation {
        check_rate("drop", rate);
        self.drop_rate = rate;
        self
    }

    /// Sets the maximum truncated fraction: each surviving contact keeps a
    /// length drawn uniformly from `[1 - rate, 1]` of its original length
    /// (never below one second).
    ///
    /// # Panics
    ///
    /// Panics unless `rate` ∈ [0, 1].
    pub fn truncate_rate(mut self, rate: f64) -> Perturbation {
        check_rate("truncate", rate);
        self.truncate_rate = rate;
        self
    }

    /// Sets the seed the per-contact decisions derive from.
    pub fn seed(mut self, seed: u64) -> Perturbation {
        self.seed = seed;
        self
    }

    /// True if this perturbation changes nothing.
    pub fn is_noop(&self) -> bool {
        self.drop_rate <= 0.0 && self.truncate_rate <= 0.0
    }

    /// Applies the perturbation, returning the degraded trace. The identity
    /// perturbation returns a clone of the input (and draws no randomness).
    pub fn apply(&self, trace: &ContactTrace) -> ContactTrace {
        if self.is_noop() {
            return trace.clone();
        }
        trace
            .iter()
            .filter_map(|contact| {
                let mut rng = self.contact_rng(contact);
                if self.drop_rate > 0.0 && rng.gen::<f64>() < self.drop_rate {
                    return None;
                }
                if self.truncate_rate > 0.0 {
                    let keep = 1.0 - rng.gen::<f64>() * self.truncate_rate;
                    let kept_secs =
                        ((contact.duration().as_secs() as f64 * keep).floor() as u64).max(1);
                    let end = SimTime::from_secs(contact.start().as_secs() + kept_secs);
                    if end < contact.end() {
                        let truncated =
                            Contact::clique(contact.participants().to_vec(), contact.start(), end)
                                .expect(
                                    "kept interval is non-empty with the original participants",
                                );
                        return Some(truncated);
                    }
                }
                Some(contact.clone())
            })
            .collect()
    }

    /// A per-contact RNG seeded from the perturbation seed and the contact's
    /// identity — stable under reordering of the trace. The drop roll is
    /// always drawn first, so enabling truncation never changes which
    /// contacts survive.
    fn contact_rng(&self, contact: &Contact) -> StdRng {
        let mut bytes = Vec::with_capacity(8 * (contact.size() + 2));
        bytes.extend_from_slice(&self.seed.to_le_bytes());
        bytes.extend_from_slice(&contact.start().as_secs().to_le_bytes());
        for node in contact.participants() {
            bytes.extend_from_slice(&u64::from(node.raw()).to_le_bytes());
        }
        StdRng::seed_from_u64(seed_hash(&bytes))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::NodeId;

    fn sample_trace() -> ContactTrace {
        (0..40u64)
            .map(|i| {
                Contact::pairwise(
                    NodeId::new((i % 5) as u32),
                    NodeId::new((i % 5) as u32 + 1),
                    SimTime::from_secs(i * 1_000),
                    SimTime::from_secs(i * 1_000 + 120),
                )
                .unwrap()
            })
            .collect()
    }

    #[test]
    fn identity_perturbation_returns_equal_trace() {
        let trace = sample_trace();
        let out = Perturbation::new().seed(99).apply(&trace);
        assert_eq!(out.contacts(), trace.contacts());
    }

    #[test]
    fn apply_is_deterministic() {
        let trace = sample_trace();
        let p = Perturbation::new()
            .drop_rate(0.3)
            .truncate_rate(0.5)
            .seed(4);
        let a = p.apply(&trace);
        let b = p.apply(&trace);
        assert_eq!(a.contacts(), b.contacts());
    }

    #[test]
    fn drop_rate_removes_contacts() {
        let trace = sample_trace();
        let out = Perturbation::new().drop_rate(0.5).seed(1).apply(&trace);
        assert!(out.len() < trace.len(), "nothing dropped");
        assert!(!out.is_empty(), "everything dropped at rate 0.5");
        // Survivors are untouched originals.
        for c in out.iter() {
            assert!(trace.contacts().contains(c));
        }
        // Full drop removes everything.
        assert!(Perturbation::new().drop_rate(1.0).apply(&trace).is_empty());
    }

    #[test]
    fn truncation_shortens_but_preserves_contacts() {
        let trace = sample_trace();
        let out = Perturbation::new().truncate_rate(0.9).seed(2).apply(&trace);
        assert_eq!(out.len(), trace.len(), "truncation must not drop contacts");
        let mut shortened = 0;
        for (orig, cut) in trace.iter().zip(out.iter()) {
            assert_eq!(orig.participants(), cut.participants());
            assert_eq!(orig.start(), cut.start());
            assert!(cut.end() <= orig.end());
            assert!(cut.duration().as_secs() >= 1);
            if cut.end() < orig.end() {
                shortened += 1;
            }
        }
        assert!(shortened > 0, "rate 0.9 should shorten something");
    }

    #[test]
    fn drop_decisions_are_independent_of_truncation() {
        let trace = sample_trace();
        let dropped_only: Vec<SimTime> = Perturbation::new()
            .drop_rate(0.4)
            .seed(6)
            .apply(&trace)
            .iter()
            .map(|c| c.start())
            .collect();
        let dropped_and_cut: Vec<SimTime> = Perturbation::new()
            .drop_rate(0.4)
            .truncate_rate(0.8)
            .seed(6)
            .apply(&trace)
            .iter()
            .map(|c| c.start())
            .collect();
        assert_eq!(dropped_only, dropped_and_cut, "survivor set must not shift");
    }

    #[test]
    #[should_panic(expected = "drop rate must be in [0, 1]")]
    fn rejects_out_of_range_rates() {
        let _ = Perturbation::new().drop_rate(-0.1);
    }
}
