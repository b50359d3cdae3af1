//! Deterministic random-number utilities.
//!
//! Simulations must be reproducible: the same seed must produce the same run
//! regardless of which other components drew random numbers in between. The
//! helpers here derive *independent named streams* from a master seed, and
//! implement the paper's agreed-upon cyclic transmission order, "generated by
//! a pseudo random number generator known by all nodes, using the sum of the
//! IDs as the seed" (§V-B).

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use dtn_trace::hash::seed_hash;
use dtn_trace::NodeId;

/// Derives an independent RNG for a named stream from a master seed.
///
/// Different `stream` strings yield statistically independent generators;
/// the same `(seed, stream)` always yields the same generator.
///
/// # Example
///
/// ```
/// use rand::Rng;
///
/// let mut a = dtn_sim::rng::stream(42, "workload");
/// let mut b = dtn_sim::rng::stream(42, "workload");
/// assert_eq!(a.gen::<u64>(), b.gen::<u64>());
/// ```
pub fn stream(seed: u64, stream: &str) -> StdRng {
    StdRng::seed_from_u64(seed ^ seed_hash(stream.as_bytes()))
}

/// The shared cyclic broadcast order for a clique (paper §V-B): every member
/// computes the same permutation because the PRNG is seeded by the sum of
/// the members' IDs.
///
/// The input is sorted first, so the result does not depend on argument
/// order. Returns an empty vector for an empty clique.
///
/// # Example
///
/// ```
/// use dtn_trace::NodeId;
///
/// let clique = [NodeId::new(3), NodeId::new(1), NodeId::new(2)];
/// let order_a = dtn_sim::rng::cyclic_order(&clique);
/// let order_b = dtn_sim::rng::cyclic_order(&[NodeId::new(1), NodeId::new(2), NodeId::new(3)]);
/// assert_eq!(order_a, order_b, "all members agree on the order");
/// ```
pub fn cyclic_order(members: &[NodeId]) -> Vec<NodeId> {
    let mut sorted: Vec<NodeId> = members.to_vec();
    sorted.sort_unstable();
    sorted.dedup();
    let seed: u64 = sorted.iter().map(|n| u64::from(n.raw())).sum();
    let mut rng = StdRng::seed_from_u64(seed);
    sorted.shuffle(&mut rng);
    sorted
}

/// Combines integer parts into one deterministic seed ([`seed_hash`] over
/// the little-endian bytes). Useful for per-event randomness — e.g. an
/// independent loss roll per (time, sender, receiver) triple — without
/// threading an RNG through the call stack.
///
/// # Example
///
/// ```
/// let a = dtn_sim::rng::derive_seed(&[1, 2, 3]);
/// let b = dtn_sim::rng::derive_seed(&[1, 2, 3]);
/// let c = dtn_sim::rng::derive_seed(&[3, 2, 1]);
/// assert_eq!(a, b);
/// assert_ne!(a, c);
/// ```
pub fn derive_seed(parts: &[u64]) -> u64 {
    let mut bytes = Vec::with_capacity(parts.len() * 8);
    for p in parts {
        bytes.extend_from_slice(&p.to_le_bytes());
    }
    seed_hash(&bytes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;

    #[test]
    fn streams_are_reproducible() {
        let mut a = stream(7, "x");
        let mut b = stream(7, "x");
        let va: Vec<u64> = (0..5).map(|_| a.gen()).collect();
        let vb: Vec<u64> = (0..5).map(|_| b.gen()).collect();
        assert_eq!(va, vb);
    }

    #[test]
    fn streams_differ_by_name() {
        let mut a = stream(7, "x");
        let mut b = stream(7, "y");
        let va: Vec<u64> = (0..5).map(|_| a.gen()).collect();
        let vb: Vec<u64> = (0..5).map(|_| b.gen()).collect();
        assert_ne!(va, vb);
    }

    #[test]
    fn streams_differ_by_seed() {
        let mut a = stream(1, "x");
        let mut b = stream(2, "x");
        assert_ne!(a.gen::<u64>(), b.gen::<u64>());
    }

    #[test]
    fn cyclic_order_is_member_order_independent() {
        let a = cyclic_order(&[NodeId::new(5), NodeId::new(9), NodeId::new(2)]);
        let b = cyclic_order(&[NodeId::new(9), NodeId::new(2), NodeId::new(5)]);
        assert_eq!(a, b);
        assert_eq!(a.len(), 3);
    }

    #[test]
    fn cyclic_order_is_a_permutation() {
        let members: Vec<NodeId> = (0..10).map(NodeId::new).collect();
        let order = cyclic_order(&members);
        let mut sorted = order.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, members);
    }

    #[test]
    fn cyclic_order_dedups() {
        let order = cyclic_order(&[NodeId::new(1), NodeId::new(1), NodeId::new(2)]);
        assert_eq!(order.len(), 2);
    }

    #[test]
    fn cyclic_order_empty() {
        assert!(cyclic_order(&[]).is_empty());
    }

    #[test]
    fn derive_seed_is_order_sensitive_and_stable() {
        assert_eq!(derive_seed(&[]), derive_seed(&[]));
        assert_eq!(derive_seed(&[7, 8]), derive_seed(&[7, 8]));
        assert_ne!(derive_seed(&[7, 8]), derive_seed(&[8, 7]));
        assert_ne!(derive_seed(&[1]), derive_seed(&[1, 0]));
    }

    #[test]
    fn different_cliques_usually_differ() {
        // Not guaranteed for every pair, but these two differ.
        let a = cyclic_order(&(0..8).map(NodeId::new).collect::<Vec<_>>());
        let b = cyclic_order(&(1..9).map(NodeId::new).collect::<Vec<_>>());
        assert_ne!(a, b);
    }
}
