//! Partitioning primitives for the sharded metadata server.
//!
//! Two independent hash partitions cover the server's state, following the
//! token-sharded keyword indexes and ID-space partitioning of Grunthal's
//! *Efficient Indexing of the BitTorrent DHT*:
//!
//! - the **URI space** (metadata records and their popularities) is
//!   ring-partitioned by URI hash: each `UriShard` owns a contiguous arc of
//!   the `u64` hash ring and keeps its records in a *slab* — a `Uri → slot`
//!   map beside parallel `metadata`, `popularity` and `expires` columns and a
//!   free list — so a record is addressed by one integer, its `RecordId`
//!   `(uri shard, slot)`, which a republish keeps;
//! - the **keyword index** is split by token hash: a token's full posting
//!   list — a hash set of `RecordId`s, the compact integer postings of the
//!   same paper — lives in exactly one `TokenShard`, so a query fans out to
//!   at most one shard per query token.
//!
//! Both use the same [`stable_hash`] (FNV-1a, finalized) — deterministic across processes and
//! toolchains, unlike `std`'s seeded `RandomState` — so a shard layout is a
//! pure function of `(key, shard count)` and committed bench digests never
//! drift. Inside a shard, the maps are hash tables under two hashers:
//!
//! - the `Uri → slot` map and the `token → postings` map hash the key's text
//!   under `RandomState` (not the URI's stored stable hash): URIs and tokens
//!   come from publishers, who must not be able to craft collisions;
//! - a posting set hashes `RecordId`s under `IdHasher`, one fixed folded
//!   multiply: ids are assigned by the server, never chosen by a publisher,
//!   so a fixed hash exposes no collision attack; under SipHash the
//!   `server_storm` benchmark ran ≈ 1.2× slower.
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

use dtn_trace::hash::stable_hash;
use dtn_trace::SimTime;

use crate::metadata::Metadata;
use crate::popularity::Popularity;
use crate::uri::Uri;

/// Maps a hash onto one of `shards` equal arcs of the `u64` ring.
///
/// The multiply-shift form `(hash * shards) >> 64` assigns shard `i` the
/// interval `[i·2⁶⁴/n, (i+1)·2⁶⁴/n)` — the contiguous ring ranges of a
/// consistent-hashing layout, rather than the scattered residue classes of
/// `hash % n`.
fn ring_index(hash: u64, shards: usize) -> usize {
    debug_assert!(shards > 0);
    ((u128::from(hash) * shards as u128) >> 64) as usize
}

/// The token shard owning `token`'s posting list.
pub fn shard_of_token(token: &str, shards: usize) -> usize {
    ring_index(stable_hash(token.as_bytes()), shards)
}

/// The URI shard owning `uri`'s metadata record and popularity, placed by
/// the [`stable_hash`] its `Uri` computed once when it was made.
pub fn shard_of_uri(uri: &Uri, shards: usize) -> usize {
    ring_index(uri.stable_hash(), shards)
}

/// The address of one record: its URI shard and its slot in that shard's
/// slab, packed into one integer (shard in the high half). Postings hold
/// these instead of URIs; ordering is by shard, then slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub(crate) struct RecordId(u64);

impl RecordId {
    pub fn new(shard: usize, slot: u32) -> Self {
        let shard = u32::try_from(shard).expect("the shard count fits 32 bits");
        RecordId(u64::from(shard) << 32 | u64::from(slot))
    }

    pub fn shard(self) -> usize {
        (self.0 >> 32) as usize
    }

    pub fn slot(self) -> u32 {
        self.0 as u32 // the low half
    }
}

/// The hasher of a posting set: one 64 × 64 → 128-bit multiply by a fixed
/// odd constant, the two halves XORed, so every bit of a [`RecordId`] —
/// the shard in the high half too — reaches the bucket index in the low
/// bits and the tag in the top ones.
///
/// Fixed, not seeded: record ids are assigned by the server, so no
/// publisher can choose colliding ones.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct IdHasher(u64);

impl Hasher for IdHasher {
    fn write_u64(&mut self, n: u64) {
        // The fractional bits of the golden ratio, as in Fibonacci hashing.
        const K: u64 = 0x9e37_79b9_7f4a_7c15;
        let product = u128::from(self.0 ^ n) * u128::from(K);
        self.0 = (product as u64) ^ (product >> 64) as u64;
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

/// One token's posting list: the ids of every record carrying the token,
/// in no order — adding, dropping or testing an id is expected O(1).
pub(crate) type Postings = HashSet<RecordId, BuildHasherDefault<IdHasher>>;

/// One arc of the URI ring: every record whose URI hashes into this shard,
/// stored as a slab.
///
/// Slot `i` of every column describes one record; a freed slot holds `None`
/// in `metadata` and waits on the `free` list for the next new URI. Storing
/// popularity and expiry beside, not inside, the record makes a popularity
/// refresh a `fill` plus a few writes and an expiry pass one scan of
/// integers.
#[derive(Debug, Clone, Default)]
pub(crate) struct UriShard {
    slots: HashMap<Uri, u32>,
    metadata: Vec<Option<Metadata>>,
    popularity: Vec<Popularity>,
    /// Expiry instant in seconds; `u64::MAX` = no TTL (or a free slot).
    expires: Vec<u64>,
    free: Vec<u32>,
}

impl UriShard {
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
                        .expect("a shard holds fewer than 2^32 records");
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

/// One slice of the keyword index: the full posting lists of every token
/// that hashes into this shard.
///
/// There is no reverse record → tokens map (the reference server's index in
/// `tests/support/` keeps one) — the publisher removes a record's postings from
/// the record's own cached [`TokenSet`](crate::keyword::TokenSet), so each
/// token string is stored exactly once per shard. The token map is a hash
/// table under `RandomState` (tokens are chosen by publishers) and each
/// posting list a hash set under [`IdHasher`] (ids are chosen by the
/// server), so finding a list is one probe and adding, removing or testing
/// one record is expected O(1) even in the list every record is on (the
/// publisher's name).
#[derive(Debug, Clone, Default)]
pub(crate) struct TokenShard {
    postings: HashMap<Box<str>, Postings>,
}

impl TokenShard {
    /// `token`'s posting list, if any record carries the token.
    pub fn postings(&self, token: &str) -> Option<&Postings> {
        self.postings.get(token)
    }

    /// Adds `id` to `token`'s posting list.
    pub fn insert_posting(&mut self, token: &str, id: RecordId) {
        match self.postings.get_mut(token) {
            Some(set) => {
                set.insert(id);
            }
            None => {
                self.postings
                    .insert(Box::from(token), Postings::from_iter([id]));
            }
        }
    }

    /// Removes `ids` from `token`'s posting list — one look-up of the list
    /// however many ids go — dropping the list when it empties.
    pub fn remove_postings(&mut self, token: &str, ids: impl IntoIterator<Item = RecordId>) {
        if let Some(set) = self.postings.get_mut(token) {
            for id in ids {
                set.remove(&id);
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

    #[test]
    fn ring_index_covers_all_shards_and_stays_in_range() {
        for shards in [1usize, 2, 7, 16] {
            let mut seen = vec![false; shards];
            for i in 0..10_000u64 {
                let idx = ring_index(stable_hash(&i.to_be_bytes()), shards);
                assert!(idx < shards);
                seen[idx] = true;
            }
            assert!(seen.iter().all(|&s| s), "{shards} shards not all hit");
        }
    }

    #[test]
    fn uri_placement_is_pinned() {
        // The shards of the placement that hashed each URI's text at every
        // call: reading the hash a `Uri` stores must not move a record.
        let pinned = [
            ("mbt://x", [0, 1, 1]),
            ("mbt://fox/news", [0, 2, 2]),
            ("mbt://bench/file-0", [0, 6, 7]),
            ("mbt://bench/file-12345", [0, 4, 5]),
            ("mbt://publisher-3/fd00ab12", [0, 3, 3]),
        ];
        for (text, shards) in pinned {
            let uri = Uri::new(text).unwrap();
            let placed = [1, 7, 8].map(|n| shard_of_uri(&uri, n));
            assert_eq!(placed, shards, "{text}");
        }
    }

    #[test]
    fn single_shard_owns_everything() {
        assert_eq!(shard_of_token("anything", 1), 0);
        assert_eq!(shard_of_uri(&Uri::new("mbt://x").unwrap(), 1), 0);
    }

    #[test]
    fn posting_lists_insert_and_remove() {
        let mut shard = TokenShard::default();
        let (a, b) = (RecordId::new(0, 0), RecordId::new(3, 1));
        shard.insert_posting("fox", a);
        shard.insert_posting("fox", b);
        assert_eq!(shard.postings("fox").unwrap().len(), 2);
        shard.remove_postings("fox", [a]);
        assert_eq!(shard.postings("fox").unwrap().len(), 1);
        shard.remove_postings("fox", [a, b]); // `a` is already gone
        assert!(shard.postings("fox").is_none(), "empty list dropped");
        shard.remove_postings("gone", [a]); // no-op on absent token
    }

    #[test]
    fn id_hash_spreads_shard_and_slot_over_the_bucket_bits() {
        use std::hash::BuildHasher;
        // 8 shards × 512 slots into 4 096 buckets: a hash that kept only
        // the low half (the slot) would fill 512 of them; a uniform one
        // fills ≈ 63 %.
        let hasher = BuildHasherDefault::<IdHasher>::default();
        let buckets: HashSet<u64> = (0..8)
            .flat_map(|shard| (0..512).map(move |slot| RecordId::new(shard, slot)))
            .map(|id| hasher.hash_one(id) & 0xfff)
            .collect();
        assert!(buckets.len() > 2_400, "{} buckets", buckets.len());
    }

    #[test]
    fn record_id_packs_shard_and_slot_and_orders_by_them() {
        let id = RecordId::new(7, u32::MAX);
        assert_eq!((id.shard(), id.slot()), (7, u32::MAX));
        assert!(RecordId::new(0, u32::MAX) < RecordId::new(1, 0));
        assert!(RecordId::new(1, 0) < RecordId::new(1, 1));
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
        let mut shard = UriShard::default();
        let (a, replaced) = shard.insert(meta("mbt://a", Some(10)), Popularity::MAX);
        assert!(replaced.is_none());
        let (b, _) = shard.insert(meta("mbt://b", None), Popularity::MIN);
        assert_eq!((a, b), (0, 1));
        // A republish keeps the slot and hands the old record back.
        let (again, replaced) = shard.insert(meta("mbt://a", Some(20)), Popularity::MIN);
        assert_eq!(again, a);
        assert_eq!(replaced.unwrap().expires(), Some(SimTime::from_secs(10)));

        assert_eq!(shard.expired_slots(SimTime::from_secs(19)).count(), 0);
        let expired: Vec<u32> = shard.expired_slots(SimTime::from_secs(20)).collect();
        assert_eq!(expired, vec![a]);
        assert_eq!(shard.remove(a).uri().as_str(), "mbt://a");
        assert_eq!(shard.slots.len(), 1);
        assert_eq!(shard.slot_of(&Uri::new("mbt://a").unwrap()), None);
        // The freed slot goes to the next new URI; its expiry went with it.
        let (c, replaced) = shard.insert(meta("mbt://c", None), Popularity::MAX);
        assert_eq!(c, a);
        assert!(replaced.is_none());
        assert_eq!(shard.expired_slots(SimTime::from_secs(u64::MAX)).count(), 0);
        assert_eq!(shard.records().count(), 2);
    }
}
