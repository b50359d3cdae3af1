//! The workspace's one FNV-1a loop, under two multipliers, and the stable
//! hash built on it. [`stable_hash`] (the hash a URI stores, keyword
//! signatures and the contact catalog's token keys) finishes true FNV-1a;
//! [`seed_hash`], the seed mix (`dtn_sim::rng`, trace perturbation), has
//! always used another multiplier. Each output must stay byte-for-byte what
//! it is: a change would move every committed seed-derived result or
//! reorder every node's URI maps.

/// FNV-1a's 64-bit offset basis.
const OFFSET_BASIS: u64 = 0xcbf2_9ce4_8422_2325;
/// FNV-1a's 64-bit prime.
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
/// The seed mix's multiplier, 2⁴⁸ + 0x1b3 where FNV's prime is 2⁴⁰ + 0x1b3.
/// Not the FNV prime, but every seed-derived output is pinned to it.
const SEED_PRIME: u64 = 0x0001_0000_0000_01b3;

#[inline]
fn fnv1a_by(prime: u64, bytes: &[u8]) -> u64 {
    let mut h = OFFSET_BASIS;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(prime);
    }
    h
}

/// 64-bit FNV-1a of `bytes`.
#[inline]
fn fnv1a(bytes: &[u8]) -> u64 {
    fnv1a_by(FNV_PRIME, bytes)
}

/// The seed mix: FNV-1a's loop over `bytes` with the seed multiplier.
#[inline]
pub fn seed_hash(bytes: &[u8]) -> u64 {
    fnv1a_by(SEED_PRIME, bytes)
}

/// Stable 64-bit hash of `bytes`: FNV-1a with a splitmix64 finalizer.
///
/// The hash a `Uri` stores (a node's URI maps are ordered by it), and the
/// source of keyword signatures; must never change, or committed outputs
/// and bench digests would silently move. The finalizer matters: a
/// signature picks its bit by the *high* bits, which raw FNV-1a barely
/// stirs for short or near-constant keys.
#[inline]
pub fn stable_hash(bytes: &[u8]) -> u64 {
    let mut h = fnv1a(bytes);
    h ^= h >> 30;
    h = h.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    h ^= h >> 27;
    h = h.wrapping_mul(0x94d0_49bb_1331_11eb);
    h ^ (h >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stable_hash_is_fixed() {
        // Pinned values: a silent hash change would re-partition every
        // committed digest.
        assert_eq!(stable_hash(b""), 0xf52a_15e9_a9b5_e89b);
        assert_eq!(stable_hash(b"fox"), stable_hash(b"fox"));
        assert_ne!(stable_hash(b"fox"), stable_hash(b"fax"));
    }

    #[test]
    fn fnv1a_matches_the_published_vector_and_the_seed_mix_is_pinned() {
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(seed_hash(b"a"), 0xb084_984c_8601_ec8c);
    }
}
