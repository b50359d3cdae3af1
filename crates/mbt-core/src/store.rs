//! Node-local storage.
//!
//! Each node's file discovery process "collects metadata and stores them in
//! the local storage of the node" (paper §III-B); nodes also store the query
//! strings of their most frequently connected nodes (§IV) and the files they
//! have completed. Everything here is TTL-aware: expired entries are pruned
//! so stale advertisements do not circulate forever.

use std::sync::Arc;

use dtn_trace::{NodeId, SimTime};

use crate::metadata::Metadata;
use crate::query::Query;
use crate::uri::{Uri, UriMap};

/// A lower bound on the earliest expiry a TTL'd store holds. Contacts prune
/// every member on entry and almost never drop anything, so each store keeps
/// one of these and its prune is O(1) until `now` reaches the bound; the
/// pass that then runs recomputes it from the survivors.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct NextExpiry(Option<SimTime>);

impl NextExpiry {
    /// An entry expiring at `expires` entered the store.
    pub(crate) fn note(&mut self, expires: Option<SimTime>) {
        if let Some(e) = expires {
            self.0 = Some(self.0.map_or(e, |bound| bound.min(e)));
        }
    }

    /// True if something may have expired at `now`.
    pub(crate) fn due(&self, now: SimTime) -> bool {
        self.0.is_some_and(|bound| now >= bound)
    }

    /// Sets the bound to the earliest of the surviving entries' expiries.
    pub(crate) fn reset(&mut self, survivors: impl IntoIterator<Item = Option<SimTime>>) {
        self.0 = survivors.into_iter().flatten().min();
    }
}

pub(crate) fn is_expired(expires: Option<SimTime>, now: SimTime) -> bool {
    expires.is_some_and(|e| now >= e)
}

/// A node's local metadata collection: one map, ordered by each URI's
/// stored hash and then its text so that a probe compares integers, and its
/// expiry watermark.
///
/// Nobody searches a node's store — the node matches each arriving record
/// against its own standing queries once, when it is stored
/// ([`MbtNode::wanted_uris`](crate::MbtNode::wanted_uris)) — so the store
/// keeps no index.
///
/// # Example
///
/// ```
/// use mbt_core::{Metadata, MetadataStore, Uri};
///
/// let mut store = MetadataStore::new();
/// let meta = Metadata::builder("FOX News", "FOX", Uri::new("mbt://a")?).build();
/// assert!(store.insert(meta.clone()));
/// assert!(!store.insert(meta), "duplicates are ignored");
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone, Default)]
pub struct MetadataStore {
    map: UriMap<Metadata>,
    next_expiry: NextExpiry,
}

impl MetadataStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        MetadataStore::default()
    }

    /// Inserts metadata; returns `true` if it was new (an existing record for
    /// the same URI is kept unchanged).
    pub fn insert(&mut self, metadata: Metadata) -> bool {
        let (_, fresh) = (self.map).get_or_insert_with(metadata.uri(), || metadata.clone());
        if fresh {
            self.next_expiry.note(metadata.expires());
        }
        fresh
    }

    /// Looks up metadata by URI.
    pub fn get(&self, uri: &Uri) -> Option<&Metadata> {
        self.map.get(uri)
    }

    /// True if metadata for `uri` is stored.
    pub fn contains(&self, uri: &Uri) -> bool {
        self.map.contains(uri)
    }

    /// Number of stored records.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True if the store is empty.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Iterates over stored metadata in map order: by each URI's stored
    /// hash, which is not URI order. Sort what you collect if order matters.
    pub fn iter(&self) -> impl Iterator<Item = &Metadata> {
        self.map.values()
    }

    /// Iterates over `(key, record)` in map order. The key shares its
    /// allocation with the record's URI, and reading it touches no record.
    pub(crate) fn entries(&self) -> impl Iterator<Item = (&Uri, &Metadata)> {
        self.map.iter()
    }

    /// Removes records expired at `now`; returns how many were dropped.
    pub fn prune_expired(&mut self, now: SimTime) -> usize {
        if !self.next_expiry.due(now) {
            return 0;
        }
        let before = self.map.len();
        self.map.retain(|_, m| !m.is_expired(now));
        self.next_expiry
            .reset(self.map.values().map(Metadata::expires));
        before - self.map.len()
    }
}

/// An active query with an optional expiry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QueryEntry {
    query: Query,
    expires: Option<SimTime>,
}

impl QueryEntry {
    /// Creates an entry.
    pub fn new(query: Query, expires: Option<SimTime>) -> Self {
        QueryEntry { query, expires }
    }

    /// The query.
    pub fn query(&self) -> &Query {
        &self.query
    }

    /// Expiry instant, if any.
    pub fn expires(&self) -> Option<SimTime> {
        self.expires
    }

    /// True if expired at `now`.
    pub fn is_expired(&self, now: SimTime) -> bool {
        is_expired(self.expires, now)
    }
}

/// One of a node's own queries with its optional expiry — the element of the
/// list a hello carries.
pub type OwnQuery = (Query, Option<SimTime>);

/// A node's query collection: its user's own queries plus queries collected
/// on behalf of other nodes (frequent contacts under MBT; currently-connected
/// peers during a contact).
///
/// The own list is an immutable shared slice, replaced on every change: a
/// hello carries a reference to it instead of a copy, and a peer that has
/// stored every entry of one such list remembers it
/// ([`mark_synced`](QueryStore::mark_synced)) so the next contact between
/// the two — the common one, in which neither side's queries changed —
/// re-stores nothing.
///
/// # Example
///
/// ```
/// use mbt_core::{Query, QueryStore};
/// use dtn_trace::NodeId;
///
/// let mut store = QueryStore::new();
/// store.add_own_batch([(Query::new("fox news")?, None)]);
/// store.add_foreign(NodeId::new(7), Query::new("abc comedy")?, None);
/// assert_eq!(store.own().len(), 1);
/// assert_eq!(store.foreign().count(), 1);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone, Default)]
pub struct QueryStore {
    /// Insertion-ordered, deduplicated by text (a scan: a user holds a
    /// handful of live queries).
    own: Arc<[OwnQuery]>,
    /// Insertion-ordered, deduplicated by owner + text — a scan too: a node
    /// carries a few queries for each of its frequent contacts, the owner
    /// ids tell most entries apart, and `Query` equality (by text; tokens
    /// are a pure function of it) starts at the shared allocation.
    foreign: Vec<(NodeId, QueryEntry)>,
    /// Per owner, the own list of theirs whose every entry is in `foreign`
    /// — in the simulator the owner's very allocation, so the usual
    /// comparison with a later hello's list is one pointer. Probed by owner
    /// only and cleared whenever a foreign entry is dropped; never iterated
    /// into results.
    synced: Vec<(NodeId, Arc<[OwnQuery]>)>,
    own_version: u64,
    next_expiry: NextExpiry,
}

impl QueryStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        QueryStore::default()
    }

    /// Adds the user's own queries, in order and deduplicated by text
    /// (against the held ones and inside the batch, the first entry of a
    /// text winning); returns how many were new. The shared list is rebuilt
    /// once, and only if something was.
    pub fn add_own_batch(&mut self, batch: impl IntoIterator<Item = OwnQuery>) -> usize {
        let mut fresh: Vec<OwnQuery> = Vec::new();
        for (query, expires) in batch {
            if !self.own.iter().chain(&fresh).any(|(q, _)| *q == query) {
                self.next_expiry.note(expires);
                fresh.push((query, expires));
            }
        }
        let added = fresh.len();
        if added > 0 {
            self.own = self.own.iter().cloned().chain(fresh).collect();
            self.own_version += 1;
        }
        added
    }

    /// Adds a query on behalf of `owner` (deduplicated by owner + text).
    /// Returns `true` if it was new.
    pub fn add_foreign(&mut self, owner: NodeId, query: Query, expires: Option<SimTime>) -> bool {
        if (self.foreign.iter()).any(|(o, held)| *o == owner && held.query == query) {
            return false;
        }
        self.next_expiry.note(expires);
        self.foreign.push((owner, QueryEntry::new(query, expires)));
        true
    }

    /// True if `list` equals the own-query list of `owner` that
    /// [`mark_synced`](Self::mark_synced) recorded and no foreign query has
    /// been dropped since — so [`add_foreign`](Self::add_foreign) would
    /// return `false` for every entry of it.
    pub fn is_synced(&self, owner: NodeId, list: &Arc<[OwnQuery]>) -> bool {
        list.is_empty()
            || self
                .synced
                .iter()
                // `Arc<T: Eq>` equality tries the pointers first.
                .any(|(o, held)| *o == owner && held == list)
    }

    /// Records that every entry of `owner`'s own-query `list` has been
    /// offered to [`add_foreign`](Self::add_foreign).
    pub fn mark_synced(&mut self, owner: NodeId, list: Arc<[OwnQuery]>) {
        match self.synced.iter_mut().find(|(o, _)| *o == owner) {
            Some((_, held)) => *held = list,
            None => self.synced.push((owner, list)),
        }
    }

    /// The user's own queries, in insertion order.
    pub fn own(&self) -> &Arc<[OwnQuery]> {
        &self.own
    }

    /// Queries held for other nodes.
    pub fn foreign(&self) -> impl Iterator<Item = (NodeId, &QueryEntry)> {
        self.foreign.iter().map(|(o, e)| (*o, e))
    }

    /// Removes a satisfied own query by text; returns `true` if found.
    pub fn remove_own(&mut self, text: &str) -> bool {
        self.retain_own(|(q, _)| q.text() != text)
    }

    fn retain_own(&mut self, keep: impl Fn(&OwnQuery) -> bool) -> bool {
        if self.own.iter().all(&keep) {
            return false;
        }
        self.own = self.own.iter().filter(|e| keep(e)).cloned().collect();
        self.own_version += 1;
        true
    }

    /// Drops expired queries; returns how many were dropped.
    pub fn prune_expired(&mut self, now: SimTime) -> usize {
        if !self.next_expiry.due(now) {
            return 0;
        }
        let before = self.len();
        self.retain_own(|(_, expires)| !is_expired(*expires, now));
        let foreign_before = self.foreign.len();
        self.foreign.retain(|(_, e)| !e.is_expired(now));
        if self.foreign.len() != foreign_before {
            self.synced.clear();
        }
        let own = self.own.iter().map(|(_, expires)| *expires);
        self.next_expiry
            .reset(own.chain(self.foreign.iter().map(|(_, e)| e.expires)));
        before - self.len()
    }

    /// Monotonic mutation counter for the **own** query set (one of the
    /// three inputs of a node's wanted set); foreign-query changes do not
    /// bump it.
    pub fn own_version(&self) -> u64 {
        self.own_version
    }

    /// Total number of stored queries (own + foreign).
    pub fn len(&self) -> usize {
        self.own.len() + self.foreign.len()
    }

    /// True if no queries are stored.
    pub fn is_empty(&self) -> bool {
        self.own.is_empty() && self.foreign.is_empty()
    }
}

/// The set of complete files a node holds (file-level granularity, as used by
/// the paper's evaluation model), each with its expiry, in one map ordered
/// like [`MetadataStore`]'s.
#[derive(Debug, Clone, Default)]
pub struct FileStore {
    files: UriMap<Option<SimTime>>,
    next_expiry: NextExpiry,
}

impl FileStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        FileStore::default()
    }

    /// Records that the node holds the complete file at `uri`, expiring at
    /// `expires`. Returns `true` if it was new.
    pub fn insert(&mut self, uri: Uri, expires: Option<SimTime>) -> bool {
        self.next_expiry.note(expires);
        self.files.insert(uri, expires).is_none()
    }

    /// True if the node holds `uri`.
    pub fn contains(&self, uri: &Uri) -> bool {
        self.files.contains(uri)
    }

    /// Iterates over held URIs in map order: by each URI's stored hash,
    /// which is not URI order. Sort what you collect if order matters.
    pub fn iter(&self) -> impl Iterator<Item = &Uri> {
        self.files.keys()
    }

    /// Number of held files.
    pub fn len(&self) -> usize {
        self.files.len()
    }

    /// True if no files are held.
    pub fn is_empty(&self) -> bool {
        self.files.is_empty()
    }

    /// Drops expired files; returns the URIs dropped, in map order (a file
    /// can expire before its metadata, which makes it wanted again).
    pub fn prune_expired(&mut self, now: SimTime) -> Vec<Uri> {
        let mut dropped = Vec::new();
        if !self.next_expiry.due(now) {
            return dropped;
        }
        self.files.retain(|uri, expires| {
            let keep = !is_expired(*expires, now);
            if !keep {
                dropped.push(uri.clone());
            }
            keep
        });
        self.next_expiry.reset(self.files.values().copied());
        dropped
    }

    /// Evicts a held file (bounded-buffer cache policies); returns `true` if
    /// it was present.
    pub fn remove(&mut self, uri: &Uri) -> bool {
        self.files.remove(uri).is_some()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dtn_trace::SimDuration;

    fn meta(name: &str, uri: &str) -> Metadata {
        Metadata::builder(name, "FOX", Uri::new(uri).unwrap()).build()
    }

    fn expiring_meta(uri: &str, ttl_secs: u64) -> Metadata {
        Metadata::builder("x", "FOX", Uri::new(uri).unwrap())
            .ttl(SimDuration::from_secs(ttl_secs))
            .build()
    }

    #[test]
    fn metadata_store_dedups() {
        let mut s = MetadataStore::new();
        assert!(s.insert(meta("a", "mbt://a")));
        assert!(!s.insert(meta("a-again", "mbt://a")));
        assert_eq!(s.len(), 1);
        assert_eq!(s.get(&Uri::new("mbt://a").unwrap()).unwrap().name(), "a");
    }

    #[test]
    fn metadata_store_matching() {
        let mut s = MetadataStore::new();
        s.insert(meta("fox news", "mbt://a"));
        s.insert(meta("abc comedy", "mbt://b"));
        let q = Query::new("news").unwrap();
        let matching: Vec<&str> = (s.iter().filter(|m| m.matches_query(&q)))
            .map(Metadata::name)
            .collect();
        assert_eq!(matching, ["fox news"]);
    }

    #[test]
    fn metadata_store_prunes_expired() {
        let mut s = MetadataStore::new();
        s.insert(expiring_meta("mbt://old", 10));
        s.insert(meta("fresh", "mbt://fresh"));
        assert_eq!(s.prune_expired(SimTime::from_secs(20)), 1);
        assert_eq!(s.len(), 1);
        assert!(s.contains(&Uri::new("mbt://fresh").unwrap()));
    }

    #[test]
    fn query_store_dedups_own_by_text() {
        let mut s = QueryStore::new();
        assert_eq!(
            s.add_own_batch([(Query::new("fox news").unwrap(), None)]),
            1
        );
        assert_eq!(
            s.add_own_batch([(Query::new("fox news").unwrap(), None)]),
            0
        );
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn query_store_foreign_per_owner() {
        let mut s = QueryStore::new();
        let q = Query::new("x").unwrap();
        assert!(s.add_foreign(NodeId::new(1), q.clone(), None));
        assert!(!s.add_foreign(NodeId::new(1), q.clone(), None));
        assert!(s.add_foreign(NodeId::new(2), q, None));
        assert_eq!(s.foreign().count(), 2);
    }

    #[test]
    fn query_store_sync_memo_follows_content_and_foreign_drops() {
        let owner = NodeId::new(1);
        let mut theirs = QueryStore::new();
        theirs.add_own_batch([(Query::new("x").unwrap(), Some(SimTime::from_secs(10)))]);
        let mut mine = QueryStore::new();
        assert!(
            mine.is_synced(owner, QueryStore::new().own()),
            "nothing to store"
        );
        assert!(!mine.is_synced(owner, theirs.own()));

        for (q, expires) in theirs.own().iter() {
            mine.add_foreign(owner, q.clone(), *expires);
        }
        mine.mark_synced(owner, theirs.own().clone());
        assert!(mine.is_synced(owner, theirs.own()));
        assert!(!mine.is_synced(NodeId::new(2), theirs.own()), "per owner");
        // An equal list in another allocation (a decoded hello) still counts.
        let decoded: Arc<[OwnQuery]> = theirs.own().iter().cloned().collect();
        assert!(mine.is_synced(owner, &decoded));

        theirs.add_own_batch([(Query::new("y").unwrap(), None)]);
        assert!(!mine.is_synced(owner, theirs.own()), "the list changed");
        assert!(mine.is_synced(owner, &decoded));
        mine.prune_expired(SimTime::from_secs(10));
        assert!(
            !mine.is_synced(owner, &decoded),
            "a foreign query was dropped"
        );
    }

    #[test]
    fn query_store_shares_its_own_list_until_it_changes() {
        let mut s = QueryStore::new();
        s.add_own_batch([(Query::new("a").unwrap(), None)]);
        let before = s.own().clone();
        assert_eq!(s.add_own_batch([(Query::new("a").unwrap(), None)]), 0);
        assert!(!s.remove_own("missing"));
        assert_eq!(s.prune_expired(SimTime::from_secs(99)), 0);
        assert!(Arc::ptr_eq(&before, s.own()), "no change, same allocation");
        s.add_own_batch([(Query::new("b").unwrap(), None)]);
        assert_eq!(before.len(), 1, "a carried hello keeps the list it took");
        assert_eq!(s.own().len(), 2);
    }

    #[test]
    fn query_store_remove_own() {
        let mut s = QueryStore::new();
        s.add_own_batch([(Query::new("fox news").unwrap(), None)]);
        assert!(s.remove_own("fox news"));
        assert!(!s.remove_own("fox news"));
        assert!(s.is_empty());
    }

    #[test]
    fn query_store_prunes_expired() {
        let mut s = QueryStore::new();
        s.add_own_batch([(Query::new("a").unwrap(), Some(SimTime::from_secs(10)))]);
        s.add_foreign(
            NodeId::new(1),
            Query::new("b").unwrap(),
            Some(SimTime::from_secs(5)),
        );
        s.add_own_batch([(Query::new("keep").unwrap(), None)]);
        assert_eq!(s.prune_expired(SimTime::from_secs(10)), 2);
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn file_store_basics() {
        let mut s = FileStore::new();
        let uri = Uri::new("mbt://f").unwrap();
        assert!(s.insert(uri.clone(), None));
        assert!(!s.insert(uri.clone(), None));
        assert!(s.contains(&uri));
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn file_store_remove_drops_a_held_file() {
        let mut s = FileStore::new();
        let uri = Uri::new("mbt://f").unwrap();
        s.insert(uri.clone(), None);
        assert!(s.remove(&uri));
        assert!(!s.contains(&uri));
        assert!(!s.remove(&uri), "removing a missing file is a no-op");
    }

    #[test]
    fn file_store_prunes_expired() {
        let mut s = FileStore::new();
        s.insert(Uri::new("mbt://old").unwrap(), Some(SimTime::from_secs(10)));
        s.insert(Uri::new("mbt://keep").unwrap(), None);
        let old = Uri::new("mbt://old").unwrap();
        assert_eq!(s.prune_expired(SimTime::from_secs(10)), [old]);
        assert_eq!(s.iter().next().unwrap().as_str(), "mbt://keep");
    }

    #[test]
    fn query_entry_expiry() {
        let e = QueryEntry::new(Query::new("x").unwrap(), Some(SimTime::from_secs(5)));
        assert!(!e.is_expired(SimTime::from_secs(4)));
        assert!(e.is_expired(SimTime::from_secs(5)));
        assert_eq!(e.expires(), Some(SimTime::from_secs(5)));
    }
}
