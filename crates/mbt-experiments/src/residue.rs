//! Compact residue storage for dormant (cold) nodes — the second
//! city-scale memory seam, behind the lazy arena.
//!
//! **The runner no longer uses this module**: it builds a node once and
//! evicts nothing (eviction never lowered the peak it existed for). The
//! module, its re-export and `mbt_core::ColdNodeState` remain because the
//! benchmark's `residue.absorb_take.ns_per_op` probe compiles against
//! [`ResidueStore::new`], [`absorb`](ResidueStore::absorb) and
//! [`take`](ResidueStore::take), and a change that claims a gain may not
//! edit the benchmark; ROADMAP "Ledger v2" records the order of deletion.
//!
//! A million-node month keeps only the *active* population resident as
//! [`MbtNode`](mbt_core::MbtNode)s, but every dormant node still owns a
//! residue: buffered `(query, expiry)` pairs awaiting materialization and a
//! spilled credit ledger. The old representation — a
//! `BTreeMap<NodeId, ColdNodeState>` of per-node `Vec`s holding un-interned
//! query text — made that residue the dominant allocation at city scale:
//! city traces issue the same few thousand query strings from millions of
//! nodes, so almost every byte was a duplicate.
//!
//! [`ResidueStore`] packs the same data three ways:
//!
//! - **Interned queries**: one [`Query`] (an `Arc` around the text and its
//!   tokens) per distinct string, shared across every node that buffered
//!   it, reference-counted so the pool shrinks as residue drains. `Query`
//!   equality, ordering and hashing are content-based, so substituting the
//!   pooled handle for a caller's equal copy is behaviourally invisible.
//! - **Packed entries**: per-node residue lives in exactly-sized
//!   `Box<[…]>` slices (no `Vec` growth slack), indexed by a dense
//!   slot vector exactly like the node arena itself.
//! - **Compacting prune**: the day-boundary expiry sweep rebuilds the
//!   store — entries, index and intern pool — from the survivors, so
//!   memory returns to the floor after each decay instead of ratcheting.
//!
//! The store also meters itself: [`ResidueStore::peak_nodes`] and
//! [`ResidueStore::peak_bytes_est`] feed the `peak_residue_nodes` /
//! `residue_bytes_est` telemetry counters. The byte figure is an estimate
//! built from data-structure sizes, but a *deterministic* one — a pure
//! function of the event stream, never of allocator behaviour — so it
//! merges and compares like every other counter.
//!
//! # Determinism contract
//!
//! Queries preserve **insertion order** per node (`MbtNode::add_query`
//! dedups by text keeping the first occurrence, so replay order is
//! observable). The intern pool is a hash map but is only ever probed by
//! key — nothing iterates it — so its order cannot leak into behaviour.
//! `randomized_operations_match_the_btreemap_oracle` holds the store to the
//! `BTreeMap` representation it replaced.

use std::collections::HashMap;
use std::mem::size_of;

use dtn_trace::{NodeId, SimTime};
use mbt_core::{ColdNodeState, Query};

/// Sentinel in the dense index for "no residue entry".
const NONE: u32 = u32::MAX;

/// Estimated heap bytes per pooled distinct query beyond its text: the
/// `QueryInner` allocation, its token vector, and the pool's own slot.
const POOL_QUERY_OVERHEAD: usize = 64;

/// Per-slot sizes of the packed representations.
const QUERY_SLOT: usize = size_of::<(Query, Option<SimTime>)>();
const CREDIT_SLOT: usize = size_of::<(NodeId, f64)>();

/// Fixed estimated cost of one node's entry: the boxed-slice headers, the
/// dense id, and the index slot.
const ENTRY_OVERHEAD: usize = size_of::<ResidueEntry>() + size_of::<NodeId>() + size_of::<u32>();

fn entry_footprint(queries: usize, credits: usize) -> u64 {
    (ENTRY_OVERHEAD + queries * QUERY_SLOT + credits * CREDIT_SLOT) as u64
}

/// One dormant node's packed residue.
#[derive(Debug, Default)]
struct ResidueEntry {
    /// Buffered `(query, expiry)` pairs in insertion order (replay order is
    /// observable — see the module docs).
    queries: Box<[(Query, Option<SimTime>)]>,
    /// The spilled credit ledger, `(peer, credit)` ascending by peer.
    credits: Box<[(NodeId, f64)]>,
}

/// Residue of every dormant node, packed and interned — see the module
/// docs. Drop-in behavioural replacement for the arena's former
/// `BTreeMap<NodeId, ColdNodeState>`.
#[derive(Debug, Default)]
pub struct ResidueStore {
    /// Node index → dense slot, or [`NONE`]. Grows on demand so the store
    /// works for ids beyond the initial space.
    slot_of: Vec<u32>,
    /// Dense node ids, parallel to `entries`; swap-remove order, never
    /// meaningful.
    ids: Vec<NodeId>,
    entries: Vec<ResidueEntry>,
    /// Intern pool: one pooled [`Query`] per distinct text, with the number
    /// of packed slots referencing it. Probed by key only — never iterated
    /// — so hash order cannot leak into behaviour.
    pool: HashMap<Query, u64>,
    pool_bytes: u64,
    entry_bytes: u64,
    peak_nodes: u64,
    peak_bytes: u64,
}

impl ResidueStore {
    /// Creates an empty store sized for `id_space` addressable node ids.
    pub fn new(id_space: usize) -> Self {
        ResidueStore {
            slot_of: vec![NONE; id_space],
            ..ResidueStore::default()
        }
    }

    /// Number of nodes currently holding residue.
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// True if no node holds residue.
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// High-water number of nodes holding residue at once.
    pub fn peak_nodes(&self) -> u64 {
        self.peak_nodes
    }

    /// High-water estimated bytes (packed entries plus intern pool).
    /// Deterministic: computed from element counts and type sizes, never
    /// from allocator state.
    pub fn peak_bytes_est(&self) -> u64 {
        self.peak_bytes
    }

    /// Current estimated bytes held.
    pub fn bytes_est(&self) -> u64 {
        self.entry_bytes + self.pool_bytes
    }

    /// Buffers one query for a dormant node, interning its text.
    pub fn add_query(&mut self, id: NodeId, query: Query, expires: Option<SimTime>) {
        let query = self.intern(query);
        let slot = self.slot(id);
        let entry = &mut self.entries[slot];
        self.entry_bytes -= entry_footprint(entry.queries.len(), entry.credits.len());
        let mut queries = std::mem::take(&mut entry.queries).into_vec();
        queries.push((query, expires));
        entry.queries = queries.into_boxed_slice();
        self.entry_bytes += entry_footprint(entry.queries.len(), entry.credits.len());
        self.note_peaks();
    }

    /// Folds an evicted node's cold state in: queries append (preserving
    /// order), the credit ledger replaces what was buffered — exactly the
    /// eviction semantics of the map this store supersedes.
    pub fn absorb(&mut self, id: NodeId, residue: ColdNodeState) {
        let interned: Vec<(Query, Option<SimTime>)> = residue
            .queries
            .into_iter()
            .map(|(query, expires)| (self.intern(query), expires))
            .collect();
        let slot = self.slot(id);
        let entry = &mut self.entries[slot];
        self.entry_bytes -= entry_footprint(entry.queries.len(), entry.credits.len());
        let mut queries = std::mem::take(&mut entry.queries).into_vec();
        queries.extend(interned);
        entry.queries = queries.into_boxed_slice();
        entry.credits = residue.credits.into_boxed_slice();
        self.entry_bytes += entry_footprint(entry.queries.len(), entry.credits.len());
        self.note_peaks();
    }

    /// Removes and returns a node's residue for materialization: queries in
    /// insertion order, credits as stored. `None` if the node holds none.
    pub fn take(&mut self, id: NodeId) -> Option<ColdNodeState> {
        let slot = match self.slot_of.get(id.index()) {
            Some(&slot) if slot != NONE => slot as usize,
            _ => return None,
        };
        self.slot_of[id.index()] = NONE;
        self.ids.swap_remove(slot);
        let entry = self.entries.swap_remove(slot);
        if let Some(&moved) = self.ids.get(slot) {
            self.slot_of[moved.index()] = slot as u32;
        }
        self.entry_bytes -= entry_footprint(entry.queries.len(), entry.credits.len());
        let queries = entry.queries.into_vec();
        for (query, _) in &queries {
            self.release(query);
        }
        Some(ColdNodeState {
            queries,
            credits: entry.credits.into_vec(),
        })
    }

    /// Day-boundary decay: drops queries expired by `now` (the same
    /// `now >= expiry` rule node stores prune by) and nodes left with no
    /// queries and no credits. Implemented as a compacting rebuild — the
    /// index, packed entries and intern pool are reconstructed from the
    /// survivors, so memory returns to the post-decay floor.
    pub fn prune(&mut self, now: SimTime) {
        let old_ids = std::mem::take(&mut self.ids);
        let old_entries = std::mem::take(&mut self.entries);
        for slot in self.slot_of.iter_mut() {
            *slot = NONE;
        }
        self.pool.clear();
        self.pool_bytes = 0;
        self.entry_bytes = 0;
        for (id, entry) in old_ids.into_iter().zip(old_entries) {
            let credits = entry.credits;
            let survivors: Vec<(Query, Option<SimTime>)> = entry
                .queries
                .into_vec()
                .into_iter()
                .filter(|(_, expires)| !expires.is_some_and(|e| now >= e))
                .collect();
            if survivors.is_empty() && credits.is_empty() {
                continue;
            }
            let interned: Vec<(Query, Option<SimTime>)> = survivors
                .into_iter()
                .map(|(query, expires)| (self.intern(query), expires))
                .collect();
            let slot = self.slot(id);
            let entry = &mut self.entries[slot];
            self.entry_bytes -= entry_footprint(entry.queries.len(), entry.credits.len());
            entry.queries = interned.into_boxed_slice();
            entry.credits = credits;
            self.entry_bytes += entry_footprint(entry.queries.len(), entry.credits.len());
        }
        // Pruning only shrinks; peaks are deliberately left untouched.
    }

    /// Dense slot for `id`, creating an empty entry on first touch.
    fn slot(&mut self, id: NodeId) -> usize {
        let idx = id.index();
        if idx >= self.slot_of.len() {
            self.slot_of.resize(idx + 1, NONE);
        }
        let slot = self.slot_of[idx];
        if slot != NONE {
            return slot as usize;
        }
        let slot = self.ids.len();
        self.slot_of[idx] = slot as u32;
        self.ids.push(id);
        self.entries.push(ResidueEntry::default());
        self.entry_bytes += entry_footprint(0, 0);
        slot
    }

    /// Returns the pooled handle for `query`'s text, bumping its refcount
    /// (content-based equality makes the substitution invisible).
    fn intern(&mut self, query: Query) -> Query {
        if let Some((pooled, _)) = self.pool.get_key_value(&query) {
            let pooled = pooled.clone();
            *self.pool.get_mut(&pooled).expect("just found") += 1;
            return pooled;
        }
        self.pool_bytes += (POOL_QUERY_OVERHEAD + query.text().len()) as u64;
        self.pool.insert(query.clone(), 1);
        query
    }

    /// Drops one reference to a pooled query, evicting the pool entry when
    /// the last packed slot referencing it is gone.
    fn release(&mut self, query: &Query) {
        if let Some(count) = self.pool.get_mut(query) {
            *count -= 1;
            if *count == 0 {
                self.pool_bytes -= (POOL_QUERY_OVERHEAD + query.text().len()) as u64;
                self.pool.remove(query);
            }
        }
    }

    fn note_peaks(&mut self) {
        self.peak_nodes = self.peak_nodes.max(self.ids.len() as u64);
        self.peak_bytes = self.peak_bytes.max(self.bytes_est());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    fn q(text: &str) -> Query {
        Query::new(text).unwrap()
    }

    fn t(secs: u64) -> SimTime {
        SimTime::from_secs(secs)
    }

    fn n(id: u32) -> NodeId {
        NodeId::new(id)
    }

    /// The representation this store replaced, driven by the same calls —
    /// the behavioural oracle.
    #[derive(Default)]
    struct MapStore(BTreeMap<NodeId, ColdNodeState>);

    impl MapStore {
        fn add_query(&mut self, id: NodeId, query: Query, expires: Option<SimTime>) {
            self.0.entry(id).or_default().queries.push((query, expires));
        }

        fn absorb(&mut self, id: NodeId, residue: ColdNodeState) {
            let entry = self.0.entry(id).or_default();
            entry.queries.extend(residue.queries);
            entry.credits = residue.credits;
        }

        fn take(&mut self, id: NodeId) -> Option<ColdNodeState> {
            self.0.remove(&id)
        }

        fn prune(&mut self, now: SimTime) {
            self.0.retain(|_, residue| {
                residue
                    .queries
                    .retain(|(_, expires)| !expires.is_some_and(|e| now >= e));
                !residue.queries.is_empty() || !residue.credits.is_empty()
            });
        }
    }

    #[test]
    fn take_returns_queries_in_insertion_order() {
        let mut store = ResidueStore::new(8);
        store.add_query(n(3), q("beta"), None);
        store.add_query(n(3), q("alpha"), Some(t(100)));
        store.add_query(n(3), q("beta"), Some(t(50)));
        let residue = store.take(n(3)).unwrap();
        let texts: Vec<&str> = residue.queries.iter().map(|(q, _)| q.text()).collect();
        assert_eq!(
            texts,
            ["beta", "alpha", "beta"],
            "order and duplicates preserved"
        );
        assert_eq!(residue.queries[1].1, Some(t(100)));
        assert!(store.take(n(3)).is_none(), "take drains");
        assert!(store.is_empty());
    }

    #[test]
    fn interning_shares_one_handle_across_nodes() {
        let mut store = ResidueStore::new(1024);
        let baseline = {
            let mut probe = ResidueStore::new(1024);
            probe.add_query(n(0), q("the same query text"), None);
            probe.bytes_est()
        };
        for id in 0..1024u32 {
            store.add_query(n(id), q("the same query text"), None);
        }
        // 1024 nodes share one pooled string: total bytes grow by packed
        // slots only, far below 1024 independent copies.
        let per_extra_node = (store.bytes_est() - baseline) / 1023;
        assert_eq!(
            per_extra_node,
            entry_footprint(1, 0),
            "no per-node text copies"
        );
        assert_eq!(store.pool.len(), 1);
        // Every handle compares equal to a fresh copy of the text.
        let residue = store.take(n(512)).unwrap();
        assert_eq!(residue.queries[0].0, q("the same query text"));
    }

    #[test]
    fn pool_shrinks_as_residue_drains() {
        let mut store = ResidueStore::new(4);
        store.add_query(n(0), q("shared"), None);
        store.add_query(n(1), q("shared"), None);
        store.add_query(n(1), q("solo"), None);
        assert_eq!(store.pool.len(), 2);
        store.take(n(1));
        assert_eq!(
            store.pool.len(),
            1,
            "solo released, shared still held by n0"
        );
        store.take(n(0));
        assert_eq!(store.pool.len(), 0);
        assert_eq!(store.bytes_est(), 0);
    }

    #[test]
    fn prune_rebuilds_and_releases_expired_text() {
        let mut store = ResidueStore::new(8);
        store.add_query(n(0), q("keep"), Some(t(100)));
        store.add_query(n(0), q("drop"), Some(t(10)));
        store.add_query(n(1), q("drop"), Some(t(10)));
        store.absorb(
            n(2),
            ColdNodeState {
                queries: vec![],
                credits: vec![(n(9), 1.5)],
            },
        );
        store.prune(t(10));
        assert_eq!(store.len(), 2, "n1 emptied out; n0 and creditor n2 stay");
        assert_eq!(store.pool.len(), 1, "`drop`'s pooled text is gone");
        let kept = store.take(n(0)).unwrap();
        assert_eq!(kept.queries.len(), 1);
        assert_eq!(kept.queries[0].0.text(), "keep");
        let creditor = store.take(n(2)).unwrap();
        assert_eq!(creditor.credits, vec![(n(9), 1.5)]);
    }

    #[test]
    fn absorb_appends_queries_and_replaces_credits() {
        let mut store = ResidueStore::new(4);
        store.add_query(n(0), q("buffered"), None);
        store.absorb(
            n(0),
            ColdNodeState {
                queries: vec![(q("evicted"), Some(t(5)))],
                credits: vec![(n(1), 2.0)],
            },
        );
        let residue = store.take(n(0)).unwrap();
        let texts: Vec<&str> = residue.queries.iter().map(|(q, _)| q.text()).collect();
        assert_eq!(texts, ["buffered", "evicted"]);
        assert_eq!(residue.credits, vec![(n(1), 2.0)]);
    }

    #[test]
    fn ids_beyond_the_initial_space_work() {
        let mut store = ResidueStore::new(2);
        store.add_query(n(1000), q("far"), None);
        assert_eq!(store.len(), 1);
        assert_eq!(store.take(n(1000)).unwrap().queries.len(), 1);
    }

    #[test]
    fn peaks_are_high_water_marks() {
        let mut store = ResidueStore::new(8);
        store.add_query(n(0), q("a"), None);
        store.add_query(n(1), q("b"), None);
        let peak_bytes = store.bytes_est();
        store.take(n(0));
        store.take(n(1));
        assert_eq!(store.peak_nodes(), 2);
        assert_eq!(store.peak_bytes_est(), peak_bytes);
        assert_eq!(store.bytes_est(), 0);
    }

    #[test]
    fn randomized_operations_match_the_btreemap_oracle() {
        // Deterministic pseudo-random op sequence (no external RNG):
        // a simple LCG drives add/absorb/take/prune over a small id space
        // and a small query alphabet, comparing `take`-visible state after
        // every step.
        let mut lcg: u64 = 0x2545F4914F6CDD1D;
        let mut next = move || {
            lcg = lcg
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            lcg >> 33
        };
        let alphabet = ["alpha", "beta", "gamma", "delta"];
        let mut store = ResidueStore::new(8);
        let mut oracle = MapStore::default();
        for step in 0..600 {
            let id = n((next() % 8) as u32);
            match next() % 10 {
                0..=4 => {
                    let text = alphabet[(next() % 4) as usize];
                    let expires = match next() % 3 {
                        0 => None,
                        _ => Some(t(next() % 50)),
                    };
                    store.add_query(id, q(text), expires);
                    oracle.add_query(id, q(text), expires);
                }
                5..=6 => {
                    let queries = (0..next() % 3)
                        .map(|_| (q(alphabet[(next() % 4) as usize]), Some(t(next() % 50))))
                        .collect::<Vec<_>>();
                    let credits = (0..next() % 2)
                        .map(|_| (n((next() % 8) as u32), (next() % 5) as f64))
                        .collect::<Vec<_>>();
                    let residue = ColdNodeState { queries, credits };
                    store.absorb(id, residue.clone());
                    oracle.absorb(id, residue);
                }
                7..=8 => {
                    assert_eq!(store.take(id), oracle.take(id), "take diverged at {step}");
                }
                _ => {
                    let now = t(next() % 50);
                    store.prune(now);
                    oracle.prune(now);
                }
            }
            assert_eq!(store.len(), oracle.0.len(), "len diverged at {step}");
        }
        // Drain both and compare everything left.
        for id in 0..8u32 {
            assert_eq!(store.take(n(id)), oracle.take(n(id)));
        }
    }
}
