//! The metadata server's one index: a record slab and a keyword map.
//!
//! - The [`Slab`] keeps every record: a `Uri → slot` map beside parallel
//!   `metadata`, `popularity` and `expires` columns and a free list, so a
//!   record is addressed by one integer, its slot, which a republish keeps.
//! - The [`Keywords`] map holds each token's posting list: a hash set of
//!   slots, the compact integer postings of Grunthal's *Efficient Indexing
//!   of the BitTorrent DHT*.
//!
//! The maps are hash tables under two hashers:
//!
//! - the `Uri → slot` map and the `token → postings` map hash the key's text
//!   under `RandomState` (not the URI's stored stable hash): URIs and tokens
//!   come from publishers, who must not be able to craft collisions. A
//!   token is hashed once a look-up, by the map it lives in;
//! - a posting set hashes slots under `IdHasher`, one fixed folded
//!   multiply: slots are assigned by the server, never chosen by a
//!   publisher, so a fixed hash exposes no collision attack; under SipHash
//!   the `server_storm` benchmark ran ≈ 1.2× slower.
//!
//! Each map is only ever probed by key or walked into candidates that the
//! server ranks by a total order (popularity, then URI), so no iteration
//! order reaches an answer.
//!
//! Every operation costs what it touches: a search walks the rarest query
//! token's postings and tests the others' sets in expected O(1) each, and
//! resolves survivors by slab index; a refresh or expiry pass scans a
//! column; adding, dropping or testing one posting is expected O(1) even in
//! the list every record is on (the publisher's name).

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

use dtn_trace::SimTime;

use crate::metadata::Metadata;
use crate::popularity::Popularity;
use crate::uri::Uri;

/// The hasher of a posting set: one 64 × 64 → 128-bit multiply by a fixed
/// odd constant, the two halves XORed, so every bit of a slot reaches the
/// bucket index in the low bits and the tag in the top ones.
///
/// Fixed, not seeded: slots are assigned by the server, so no publisher
/// can choose colliding ones.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct IdHasher(u64);

impl Hasher for IdHasher {
    fn write_u64(&mut self, n: u64) {
        // The fractional bits of the golden ratio, as in Fibonacci hashing.
        const K: u64 = 0x9e37_79b9_7f4a_7c15;
        let product = u128::from(self.0 ^ n) * u128::from(K);
        self.0 = (product as u64) ^ (product >> 64) as u64;
    }

    /// A slot is one multiply, as a `u64` is; the default would feed its
    /// four bytes through [`write`](Self::write), one multiply each.
    fn write_u32(&mut self, n: u32) {
        self.write_u64(u64::from(n));
    }

    fn write(&mut self, bytes: &[u8]) {
        for &byte in bytes {
            self.write_u64(u64::from(byte));
        }
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// One token's posting list: the slots of every record carrying the token,
/// in no order — adding, dropping or testing a slot is expected O(1).
pub(crate) type Postings = HashSet<u32, BuildHasherDefault<IdHasher>>;

/// Every published record, stored as a slab.
///
/// Slot `i` of every column describes one record; a freed slot holds `None`
/// in `metadata` and waits on the `free` list for the next new URI. Storing
/// popularity and expiry beside, not inside, the record makes a popularity
/// refresh a `fill` plus a few writes and an expiry pass one scan of
/// integers.
#[derive(Debug, Clone, Default)]
pub(crate) struct Slab {
    slots: HashMap<Uri, u32>,
    metadata: Vec<Option<Metadata>>,
    popularity: Vec<Popularity>,
    /// Expiry instant in seconds; `u64::MAX` = no TTL (or a free slot).
    expires: Vec<u64>,
    free: Vec<u32>,
}

impl Slab {
    /// Number of records held.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// The slot holding `uri`'s record.
    pub fn slot_of(&self, uri: &Uri) -> Option<u32> {
        self.slots.get(uri).copied()
    }

    /// The record in `slot`, which must be occupied.
    pub fn metadata(&self, slot: u32) -> &Metadata {
        self.metadata[slot as usize]
            .as_ref()
            .expect("the slot holds a record")
    }

    /// The popularity and record in `slot`, which must be occupied.
    pub fn entry(&self, slot: u32) -> (Popularity, &Metadata) {
        (self.popularity[slot as usize], self.metadata(slot))
    }

    /// The assigned popularity of `uri` (0 if unknown).
    pub fn popularity_of(&self, uri: &Uri) -> Popularity {
        self.slot_of(uri)
            .map_or(Popularity::MIN, |slot| self.popularity[slot as usize])
    }

    /// Sets the popularity of the record in `slot`.
    pub fn set_popularity(&mut self, slot: u32, popularity: Popularity) {
        self.popularity[slot as usize] = popularity;
    }

    /// Sets every record's popularity to [`Popularity::MIN`].
    pub fn reset_popularities(&mut self) {
        self.popularity.fill(Popularity::MIN);
    }

    /// Stores `metadata` in the slot its URI already occupies, else in a
    /// free one; returns the slot and the record it replaced.
    pub fn insert(
        &mut self,
        metadata: Metadata,
        popularity: Popularity,
    ) -> (u32, Option<Metadata>) {
        let expires = metadata.expires().map_or(u64::MAX, SimTime::as_secs);
        // Probed before `entry`, which takes an owned key: a republish
        // clones no `Uri`.
        let slot = match self.slots.get(metadata.uri()) {
            Some(&slot) => slot,
            None => {
                let slot = self.free.pop().unwrap_or_else(|| {
                    let slot = u32::try_from(self.metadata.len())
                        .expect("the server holds fewer than 2^32 records");
                    self.metadata.push(None);
                    self.popularity.push(Popularity::MIN);
                    self.expires.push(u64::MAX);
                    slot
                });
                self.slots.insert(metadata.uri().clone(), slot);
                slot
            }
        };
        self.popularity[slot as usize] = popularity;
        self.expires[slot as usize] = expires;
        (slot, self.metadata[slot as usize].replace(metadata))
    }

    /// Frees `slot`, which must be occupied, and returns its record.
    pub fn remove(&mut self, slot: u32) -> Metadata {
        let metadata = self.metadata[slot as usize]
            .take()
            .expect("the slot holds a record");
        self.slots.remove(metadata.uri());
        self.expires[slot as usize] = u64::MAX;
        self.free.push(slot);
        metadata
    }

    /// True if `slot` holds a record expired at `now`. The integer column
    /// answers "no" alone; the record is consulted only for a slot the
    /// column flags, which keeps the no-TTL sentinel exact even at
    /// `now = u64::MAX` seconds.
    fn is_expired(&self, slot: usize, now: SimTime) -> bool {
        self.expires[slot] <= now.as_secs()
            && self.metadata[slot]
                .as_ref()
                .is_some_and(|m| m.is_expired(now))
    }

    /// The slots whose records have expired at `now`, ascending: one scan
    /// of the `expires` column.
    pub fn expired_slots(&self, now: SimTime) -> impl Iterator<Item = u32> + '_ {
        (0..self.expires.len())
            .filter(move |&slot| self.is_expired(slot, now))
            .map(|slot| slot as u32)
    }

    /// Every record in slot order (not URI order).
    pub fn records(&self) -> impl Iterator<Item = &Metadata> {
        self.metadata.iter().flatten()
    }

    /// Every record unexpired at `now` beside its popularity, in slot order.
    pub fn unexpired(&self, now: SimTime) -> impl Iterator<Item = (Popularity, &Metadata)> {
        self.metadata
            .iter()
            .enumerate()
            .filter_map(move |(slot, m)| {
                let m = m.as_ref()?;
                (!self.is_expired(slot, now)).then_some((self.popularity[slot], m))
            })
    }
}

/// The keyword index: the posting list of every token a record carries.
///
/// There is no reverse record → tokens map (the reference server's index in
/// `tests/support/` keeps one) — the publisher removes a record's postings from
/// the record's own cached [`TokenSet`](crate::keyword::TokenSet), so each
/// token string is stored exactly once. The token map is a hash table under
/// `RandomState` (tokens are chosen by publishers) and each posting list a
/// hash set under [`IdHasher`] (slots are chosen by the server), so finding
/// a list is one probe and adding, removing or testing one record is
/// expected O(1) even in the list every record is on (the publisher's name).
#[derive(Debug, Clone, Default)]
pub(crate) struct Keywords {
    postings: HashMap<Box<str>, Postings>,
}

impl Keywords {
    /// `token`'s posting list, if any record carries the token.
    pub fn postings(&self, token: &str) -> Option<&Postings> {
        self.postings.get(token)
    }

    /// Adds `slot` to `token`'s posting list.
    pub fn insert_posting(&mut self, token: &str, slot: u32) {
        match self.postings.get_mut(token) {
            Some(set) => {
                set.insert(slot);
            }
            None => {
                self.postings
                    .insert(Box::from(token), Postings::from_iter([slot]));
            }
        }
    }

    /// Removes `slots` from `token`'s posting list — one look-up of the list
    /// however many slots go — dropping the list when it empties.
    pub fn remove_postings(&mut self, token: &str, slots: impl IntoIterator<Item = u32>) {
        if let Some(set) = self.postings.get_mut(token) {
            for slot in slots {
                set.remove(&slot);
            }
            if set.is_empty() {
                self.postings.remove(token);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::BuildHasher;

    #[test]
    fn posting_lists_insert_and_remove() {
        let mut keywords = Keywords::default();
        let (a, b) = (0, 1);
        keywords.insert_posting("fox", a);
        keywords.insert_posting("fox", b);
        assert_eq!(keywords.postings("fox").unwrap().len(), 2);
        keywords.remove_postings("fox", [a]);
        assert_eq!(keywords.postings("fox").unwrap().len(), 1);
        keywords.remove_postings("fox", [a, b]); // `a` is already gone
        assert!(keywords.postings("fox").is_none(), "empty list dropped");
        keywords.remove_postings("gone", [a]); // no-op on absent token
    }

    #[test]
    fn a_slot_is_hashed_as_the_u64_of_its_value() {
        // One multiply, as a `u64` id took: the default `write_u32` would
        // take four, one a byte, and answer differently.
        let hasher = BuildHasherDefault::<IdHasher>::default();
        for n in (0..4_096u32).chain([u32::MAX - 1, u32::MAX]) {
            assert_eq!(hasher.hash_one(n), hasher.hash_one(u64::from(n)), "{n}");
        }
    }

    #[test]
    fn id_hash_spreads_slots_over_the_bucket_bits() {
        // 4 096 consecutive slots into 4 096 buckets: a uniform hash fills
        // ≈ 63 % of them, and so must this one, from the slot bits alone.
        let hasher = BuildHasherDefault::<IdHasher>::default();
        let buckets: HashSet<u64> = (0..4_096u32)
            .map(|slot| hasher.hash_one(slot) & 0xfff)
            .collect();
        assert!(buckets.len() > 2_400, "{} buckets", buckets.len());
    }

    #[test]
    fn slab_reuses_a_freed_slot_and_keeps_a_republished_one() {
        let meta = |uri: &str, ttl: Option<u64>| {
            let mut b = Metadata::builder("x", "p", Uri::new(uri).unwrap());
            if let Some(secs) = ttl {
                b = b.ttl(dtn_trace::SimDuration::from_secs(secs));
            }
            b.build()
        };
        let mut slab = Slab::default();
        let (a, replaced) = slab.insert(meta("mbt://a", Some(10)), Popularity::MAX);
        assert!(replaced.is_none());
        let (b, _) = slab.insert(meta("mbt://b", None), Popularity::MIN);
        assert_eq!((a, b), (0, 1));
        // A republish keeps the slot and hands the old record back.
        let (again, replaced) = slab.insert(meta("mbt://a", Some(20)), Popularity::MIN);
        assert_eq!(again, a);
        assert_eq!(replaced.unwrap().expires(), Some(SimTime::from_secs(10)));
        assert_eq!(slab.len(), 2);

        assert_eq!(slab.expired_slots(SimTime::from_secs(19)).count(), 0);
        let expired: Vec<u32> = slab.expired_slots(SimTime::from_secs(20)).collect();
        assert_eq!(expired, vec![a]);
        assert_eq!(slab.remove(a).uri().as_str(), "mbt://a");
        assert_eq!(slab.len(), 1);
        assert_eq!(slab.slot_of(&Uri::new("mbt://a").unwrap()), None);
        // The freed slot goes to the next new URI; its expiry went with it.
        let (c, replaced) = slab.insert(meta("mbt://c", None), Popularity::MAX);
        assert_eq!(c, a);
        assert!(replaced.is_none());
        assert_eq!(slab.expired_slots(SimTime::from_secs(u64::MAX)).count(), 0);
        assert_eq!(slab.records().count(), 2);
    }
}
