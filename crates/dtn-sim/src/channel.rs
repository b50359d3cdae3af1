//! Wireless channel capacity models.
//!
//! Paper §V: for a clique of `n` mutually-reachable nodes,
//!
//! - **broadcast-based** communication lets one node send while all `n - 1`
//!   others receive, so the per-node useful communication bandwidth is
//!   `(n - 1) / n` — *increasing* in `n`;
//! - **pair-wise** communication serializes to one sender/receiver pair at a
//!   time (geometrically close links contend), so per-node bandwidth is
//!   `1 / n` — *decreasing* in `n`.
//!
//! [`simulate_receptions`] complements the closed forms with a slot-level
//! counting simulation used by the `capacity` experiment. The evaluation
//! model's fixed number of metadata and files exchanged per contact (§VI-A)
//! is `MbtConfig`'s pair of per-contact values; [`truncated_budget`] scales
//! them to what a truncated contact leaves.

/// Per-node useful bandwidth share under broadcast in a clique of `n` nodes:
/// `(n - 1) / n`. Returns 0 for `n < 2`.
///
/// # Example
///
/// ```
/// let c4 = dtn_sim::broadcast_per_node_capacity(4);
/// let c8 = dtn_sim::broadcast_per_node_capacity(8);
/// assert!(c8 > c4, "broadcast capacity grows with density");
/// ```
pub fn broadcast_per_node_capacity(n: usize) -> f64 {
    if n < 2 {
        return 0.0;
    }
    (n as f64 - 1.0) / n as f64
}

/// Per-node useful bandwidth share under pair-wise transmission in a clique
/// of `n` nodes: `1 / n`. Returns 0 for `n < 2`.
///
/// # Example
///
/// ```
/// let c4 = dtn_sim::pairwise_per_node_capacity(4);
/// let c8 = dtn_sim::pairwise_per_node_capacity(8);
/// assert!(c8 < c4, "pair-wise capacity shrinks with density");
/// ```
pub fn pairwise_per_node_capacity(n: usize) -> f64 {
    if n < 2 {
        return 0.0;
    }
    1.0 / n as f64
}

/// Nominal per-frame link-layer overhead in bytes (MAC + network headers),
/// charged once per broadcast reception by the byte-accounting telemetry.
/// The exact figure only scales `bytes_moved` reports; nothing in the
/// simulation reads it back.
pub const FRAME_HEADER_BYTES: u64 = 64;

/// On-air bytes of one received frame carrying `payload` application bytes:
/// payload plus [`FRAME_HEADER_BYTES`], saturating on overflow.
pub fn frame_bytes(payload: u64) -> u64 {
    payload.saturating_add(FRAME_HEADER_BYTES)
}

/// Scales a per-contact transfer allowance by the surviving fraction of a
/// truncated contact: `floor(slots * keep)`, with `keep` clamped to `[0, 1]`.
/// A keep fraction of exactly 1 is the identity.
pub fn truncated_budget(slots: u32, keep: f64) -> u32 {
    let keep = keep.clamp(0.0, 1.0);
    if keep >= 1.0 {
        return slots;
    }
    (f64::from(slots) * keep).floor() as u32
}

/// Transmission mode within a clique.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TransmissionMode {
    /// One sender per slot; every other clique member receives the frame.
    Broadcast,
    /// One sender/receiver pair per slot; exactly one node receives.
    Pairwise,
}

/// Counts total useful receptions in a clique of `n` nodes over `slots`
/// transmission slots under the given mode.
///
/// Broadcast yields `slots * (n - 1)` receptions; pair-wise yields `slots`.
/// Cliques smaller than 2 yield zero.
pub fn simulate_receptions(mode: TransmissionMode, n: usize, slots: u64) -> u64 {
    if n < 2 {
        return 0;
    }
    match mode {
        TransmissionMode::Broadcast => slots * (n as u64 - 1),
        TransmissionMode::Pairwise => slots,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn broadcast_capacity_increases_with_density() {
        let caps: Vec<f64> = (2..10).map(broadcast_per_node_capacity).collect();
        assert!(caps.windows(2).all(|w| w[1] > w[0]));
        assert!((broadcast_per_node_capacity(2) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn pairwise_capacity_decreases_with_density() {
        let caps: Vec<f64> = (2..10).map(pairwise_per_node_capacity).collect();
        assert!(caps.windows(2).all(|w| w[1] < w[0]));
        assert!((pairwise_per_node_capacity(2) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn capacities_equal_at_n2_diverge_after() {
        assert_eq!(
            broadcast_per_node_capacity(2),
            pairwise_per_node_capacity(2)
        );
        assert!(broadcast_per_node_capacity(3) > pairwise_per_node_capacity(3));
    }

    #[test]
    fn degenerate_cliques_have_zero_capacity() {
        assert_eq!(broadcast_per_node_capacity(0), 0.0);
        assert_eq!(broadcast_per_node_capacity(1), 0.0);
        assert_eq!(pairwise_per_node_capacity(1), 0.0);
    }

    #[test]
    fn simulated_receptions_match_closed_form() {
        for n in 2..12usize {
            let slots = 100;
            let b = simulate_receptions(TransmissionMode::Broadcast, n, slots);
            let p = simulate_receptions(TransmissionMode::Pairwise, n, slots);
            // Per-node per-slot reception rates equal the capacity formulas.
            let b_rate = b as f64 / (n as f64 * slots as f64);
            let p_rate = p as f64 / (n as f64 * slots as f64);
            assert!((b_rate - broadcast_per_node_capacity(n)).abs() < 1e-12);
            assert!((p_rate - pairwise_per_node_capacity(n)).abs() < 1e-12);
        }
    }

    #[test]
    fn simulate_receptions_degenerate() {
        assert_eq!(simulate_receptions(TransmissionMode::Broadcast, 1, 10), 0);
        assert_eq!(simulate_receptions(TransmissionMode::Pairwise, 0, 10), 0);
    }

    #[test]
    fn frame_bytes_add_header_and_saturate() {
        assert_eq!(frame_bytes(0), FRAME_HEADER_BYTES);
        assert_eq!(frame_bytes(1000), 1000 + FRAME_HEADER_BYTES);
        assert_eq!(frame_bytes(u64::MAX), u64::MAX);
    }

    #[test]
    fn truncated_budget_scales_and_keeps_identity() {
        assert_eq!(truncated_budget(20, 1.0), 20);
        assert_eq!(truncated_budget(20, 0.5), 10);
        assert_eq!(truncated_budget(20, 0.0), 0);
        assert_eq!(truncated_budget(3, 0.9), 2);
        assert_eq!(truncated_budget(20, 1.5), 20);
    }
}
