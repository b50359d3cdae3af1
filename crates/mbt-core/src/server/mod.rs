//! The central metadata server on the Internet.
//!
//! In a hybrid DTN the Internet is the sole source of files; metadata "can be
//! placed on different servers than those of their files" and popularities
//! "can be maintained by a central metadata server" (paper §III, §IV). When a
//! node connects to the Internet it sends its query strings to the server,
//! which returns the best-matched metadata; the server can also estimate
//! request popularity over a 24-hour window.
//!
//! [`MetadataServer`] is that server, its state split over `N` shards by the
//! partitioning primitives of [`shard`]: stable placement of tokens and URIs
//! onto ring shards, the slab each URI shard keeps its records in, and the
//! integer posting lists. Every shard and the request log sit behind
//! copy-on-write `Arc`s, so a snapshot is a clone of the server that copies
//! no record and no request.
//!
//! The proof machinery lives with the tests: the original single-registry
//! implementation is kept verbatim as `tests/support/reference_server.rs`,
//! the oracle `tests/server_equivalence.rs` and `tests/query_storm.rs` hold
//! every answer to, for every shard count.

pub mod shard;

use std::sync::Arc;

use dtn_trace::{NodeId, SimTime};

use crate::keyword::TokenSet;
use crate::metadata::Metadata;
use crate::popularity::{cmp_popularity, Popularity, PopularityEstimator};
use crate::query::Query;
use crate::uri::Uri;

use shard::{shard_of_token, shard_of_uri, Postings, RecordId, TokenShard, UriShard};

/// The central metadata server, sharded for heavy query traffic.
///
/// Holds every published metadata record, a keyword index over it, and the
/// authoritative popularity of each file — exactly the role of the paper's
/// Internet-side server (§III, §IV) — but split across `N` shards: the
/// keyword index by token hash, the URI/popularity space by URI hash on a
/// ring (see [`shard`]). Every answer is independent of the shard count —
/// the property suite holds it to the single-registry reference — while
/// publishes, expiries, and popularity refreshes touch only the shards they
/// must.
///
/// Every shard and the popularity estimator live behind an [`Arc`] under the
/// copy-on-write discipline of the node-local stores: [`snapshot`] is a
/// clone for the price of `N` reference counts, and a concurrent query storm
/// reads snapshots lock-free while the writer mutates (and thereby
/// un-shares) its own copies.
///
/// [`snapshot`]: Self::snapshot
///
/// # Example
///
/// ```
/// use mbt_core::{Metadata, MetadataServer, Popularity, Query, Uri};
///
/// let mut server = MetadataServer::new(10);
/// let uri = Uri::new("mbt://fox/news-1")?;
/// let meta = Metadata::builder("FOX Evening News", "FOX", uri).build();
/// server.publish(meta, Popularity::new(0.3));
///
/// let hits = server.search(&Query::new("evening news")?, 5);
/// assert_eq!(hits.len(), 1);
/// assert_eq!(hits[0].name(), "FOX Evening News");
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone)]
pub struct MetadataServer {
    uri_shards: Vec<Arc<UriShard>>,
    token_shards: Vec<Arc<TokenShard>>,
    estimator: Arc<PopularityEstimator>,
    /// Total record count, maintained incrementally so `len` never walks
    /// the shards.
    len: usize,
}

impl MetadataServer {
    /// Creates an unsharded (`N = 1`) server; `internet_population` is the
    /// number of Internet-access nodes, used to normalize estimated
    /// popularity.
    pub fn new(internet_population: u32) -> Self {
        Self::with_shards(internet_population, 1)
    }

    /// Creates a server partitioned over `shards` shards (clamped to at
    /// least 1). Every query answer is independent of the shard count.
    pub fn with_shards(internet_population: u32, shards: usize) -> Self {
        let shards = shards.max(1);
        MetadataServer {
            uri_shards: (0..shards).map(|_| Arc::default()).collect(),
            token_shards: (0..shards).map(|_| Arc::default()).collect(),
            estimator: Arc::new(PopularityEstimator::new(internet_population)),
            len: 0,
        }
    }

    /// Publishes metadata with an assigned popularity (the workload's ground
    /// truth). Re-publishing a URI replaces the record.
    ///
    /// A republished record keeps its slot, so only the *difference* of the
    /// old and new token sets reaches the keyword index: a token both carry
    /// (the publisher's name is on every record) costs nothing.
    pub fn publish(&mut self, metadata: Metadata, popularity: Popularity) {
        let MetadataServer {
            uri_shards,
            token_shards,
            len,
            ..
        } = self;
        let shards = token_shards.len();
        let shard = shard_of_uri(metadata.uri(), shards);
        let (slot, replaced) = Arc::make_mut(&mut uri_shards[shard]).insert(metadata, popularity);
        let id = RecordId::new(shard, slot);
        let new = uri_shards[shard].metadata(slot).token_set();
        let no_tokens = TokenSet::default();
        let old = replaced.as_ref().map_or(&no_tokens, Metadata::token_set);
        for token in old.iter().filter(|token| !new.contains(token)) {
            Arc::make_mut(&mut token_shards[shard_of_token(token, shards)])
                .remove_postings(token, [id]);
        }
        for token in new.iter().filter(|token| !old.contains(token)) {
            Arc::make_mut(&mut token_shards[shard_of_token(token, shards)])
                .insert_posting(token, id);
        }
        if replaced.is_none() {
            *len += 1;
        }
    }

    /// Number of published records.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if nothing is published.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The assigned popularity of `uri` (0 if unknown).
    pub fn popularity_of(&self, uri: &Uri) -> Popularity {
        self.uri_shards[shard_of_uri(uri, self.uri_shards.len())].popularity_of(uri)
    }

    /// Updates the assigned popularity (e.g. daily refresh from the
    /// estimator). URIs with no published record are ignored.
    pub fn set_popularity(&mut self, uri: &Uri, popularity: Popularity) {
        let shard = shard_of_uri(uri, self.uri_shards.len());
        let shard = &mut self.uri_shards[shard];
        if let Some(slot) = shard.slot_of(uri) {
            Arc::make_mut(shard).set_popularity(slot, popularity);
        }
    }

    /// The records carrying every token of `query`, at most `limit`, ranked
    /// by popularity descending, then URI ascending.
    ///
    /// Fetches each query token's posting list from its (single) owning
    /// token shard, intersects them rarest-first — a token no record carries
    /// ends the search before anything is allocated — resolves each survivor
    /// by direct slab index, and keeps the top `limit`. Query tokens are
    /// deduplicated and every survivor carries all of them, so the reference
    /// scan's leading "match count" key is the same for all.
    pub fn search(&self, query: &Query, limit: usize) -> Vec<&Metadata> {
        let shards = self.token_shards.len();
        let lists = query
            .tokens()
            .iter()
            .map(|token| self.token_shards[shard_of_token(token, shards)].postings(token));
        let survivors = intersect_rarest_first(lists)
            .map(|&id| {
                let (popularity, record) = self.uri_shards[id.shard()].entry(id.slot());
                debug_assert!(record.matches_query(query), "postings and token sets agree");
                (popularity, record)
            })
            .collect();
        top_k(survivors, limit)
    }

    /// The `limit` most popular unexpired metadata at `now` (the push phase
    /// of metadata distribution).
    pub fn most_popular(&self, limit: usize, now: SimTime) -> Vec<&Metadata> {
        let unexpired = self
            .uri_shards
            .iter()
            .flat_map(|shard| shard.unexpired(now))
            .collect();
        top_k(unexpired, limit)
    }

    /// Records a download request (feeds the 24-hour popularity estimator).
    pub fn record_request(&mut self, uri: &Uri, node: NodeId, now: SimTime) {
        Arc::make_mut(&mut self.estimator).record_request(uri, node, now);
    }

    /// The estimated popularity from the 24-hour request window.
    pub fn estimated_popularity(&self, uri: &Uri, now: SimTime) -> Popularity {
        self.estimator.popularity(uri, now)
    }

    /// Refreshes every assigned popularity from the estimator (the paper's
    /// daily popularity update).
    ///
    /// Fills each shard's popularity column with [`Popularity::MIN`] — what
    /// the estimator answers for a URI nobody requested — then visits only
    /// the URIs the estimator holds: no per-record probe, no clone of the
    /// URI keyspace, no allocation for records the estimator has never seen
    /// (`tests/refresh_alloc.rs` pins this).
    pub fn refresh_popularities(&mut self, now: SimTime) {
        let MetadataServer {
            uri_shards,
            estimator,
            ..
        } = self;
        for shard in uri_shards.iter_mut() {
            Arc::make_mut(shard).reset_popularities();
        }
        let shards = uri_shards.len();
        for (uri, popularity) in estimator.popularities(now) {
            let shard = &mut uri_shards[shard_of_uri(uri, shards)];
            if let Some(slot) = shard.slot_of(uri) {
                Arc::make_mut(shard).set_popularity(slot, popularity);
            }
        }
        Arc::make_mut(estimator).prune(now);
    }

    /// Removes metadata expired at `now`; returns how many were dropped.
    ///
    /// One scan of each shard's expiry column; a shard with nothing expired
    /// stays shared with outstanding snapshots. The dropped records'
    /// postings are removed batched per list — one look-up of each affected
    /// token, not one per (record, token) pair.
    pub fn expire(&mut self, now: SimTime) -> usize {
        let MetadataServer {
            uri_shards,
            token_shards,
            len,
            ..
        } = self;
        let mut expired: Vec<(RecordId, Metadata)> = Vec::new();
        for (idx, shard) in uri_shards.iter_mut().enumerate() {
            let slots: Vec<u32> = shard.expired_slots(now).collect();
            if slots.is_empty() {
                continue; // nothing expired: leave the shard shared
            }
            let shard = Arc::make_mut(shard);
            expired.extend(
                slots
                    .into_iter()
                    .map(|slot| (RecordId::new(idx, slot), shard.remove(slot))),
            );
        }
        let mut removals: Vec<(&str, RecordId)> = expired
            .iter()
            .flat_map(|(id, metadata)| metadata.token_set().iter().map(move |token| (token, *id)))
            .collect();
        removals.sort_unstable();
        let shards = token_shards.len();
        for list in removals.chunk_by(|a, b| a.0 == b.0) {
            let token = list[0].0;
            Arc::make_mut(&mut token_shards[shard_of_token(token, shards)])
                .remove_postings(token, list.iter().map(|&(_, id)| id));
        }
        *len -= expired.len();
        expired.len()
    }

    /// Iterates over all published metadata in global URI order (the
    /// iteration contract of the reference registry).
    pub fn iter(&self) -> impl Iterator<Item = &Metadata> {
        let mut all: Vec<&Metadata> = self.uri_shards.iter().flat_map(|s| s.records()).collect();
        all.sort_unstable_by(|a, b| a.uri().cmp(b.uri()));
        all.into_iter()
    }

    /// A consistent, immutable view of the server for concurrent readers:
    /// a clone, which costs `N` reference-count bumps and copies no record
    /// and no request.
    ///
    /// The snapshot keeps answering from the state at the time of the call
    /// while this server keeps mutating — [`Arc::make_mut`] un-shares each
    /// shard the writer touches, so a reader can never observe a torn
    /// in-between state.
    pub fn snapshot(&self) -> MetadataServer {
        self.clone()
    }
}

/// The record ids on every posting list, in no particular order (the
/// caller ranks them by [`top_k`]'s total order).
///
/// One `lists` item per query token, `None` where the index has no list for
/// it — which, like an empty `lists`, makes the answer empty. Walks the
/// smallest list and tests the others' hash sets, expected O(1) a test, so
/// the cost is proportional to the rarest token's postings rather than to
/// the lists' union. Nothing is allocated unless more than four lists are
/// given.
fn intersect_rarest_first<'a>(
    lists: impl IntoIterator<Item = Option<&'a Postings>>,
) -> impl Iterator<Item = &'a RecordId> {
    // Posting lists for the common short query stay on the stack.
    const INLINE: usize = 4;
    let mut inline: [Option<&'a Postings>; INLINE] = [None; INLINE];
    let mut spilled: Vec<&'a Postings> = Vec::new();
    for (i, list) in lists.into_iter().enumerate() {
        let Some(set) = list else {
            // A token nothing carries: no list left to walk, no answer.
            inline = [None; INLINE];
            spilled.clear();
            break;
        };
        match inline.get_mut(i) {
            Some(slot) => *slot = Some(set),
            None => spilled.push(set),
        }
    }
    let (smallest, rarest) = inline
        .iter()
        .flatten()
        .chain(&spilled)
        .copied()
        .enumerate()
        .min_by_key(|(_, set)| set.len())
        .unzip();
    rarest.into_iter().flatten().filter(move |item| {
        inline
            .iter()
            .flatten()
            .chain(&spilled)
            .enumerate()
            .all(|(i, set)| Some(i) == smallest || set.contains(item))
    })
}

/// The best `limit` of `candidates` in rank order: popularity descending,
/// then URI ascending. URIs are unique, so the order is total and neither
/// the candidates' incoming order nor the unstable selection can reach the
/// result. Selects before sorting: only the head that is returned is sorted.
fn top_k(mut candidates: Vec<(Popularity, &Metadata)>, limit: usize) -> Vec<&Metadata> {
    let by_rank = |a: &(Popularity, &Metadata), b: &(Popularity, &Metadata)| {
        cmp_popularity(b.0, a.0).then_with(|| a.1.uri().cmp(b.1.uri()))
    };
    if limit < candidates.len() {
        candidates.select_nth_unstable_by(limit, by_rank);
        candidates.truncate(limit);
    }
    candidates.sort_unstable_by(by_rank);
    candidates.into_iter().map(|(_, m)| m).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metadata::Metadata;
    use crate::popularity::Popularity;
    use crate::query::Query;
    use crate::uri::Uri;
    use dtn_trace::{NodeId, SimDuration, SimTime};

    fn meta(name: &str, uri: &str) -> Metadata {
        Metadata::builder(name, "FOX", Uri::new(uri).unwrap()).build()
    }

    fn server_with(entries: &[(&str, &str, f64)]) -> MetadataServer {
        let mut s = MetadataServer::new(10);
        for &(name, uri, pop) in entries {
            s.publish(meta(name, uri), Popularity::new(pop));
        }
        s
    }

    fn sharded_with(shards: usize, entries: &[(&str, &str, f64)]) -> MetadataServer {
        let mut s = MetadataServer::with_shards(10, shards);
        for &(name, uri, pop) in entries {
            s.publish(meta(name, uri), Popularity::new(pop));
        }
        s
    }

    #[test]
    fn publish_and_lookup() {
        let s = server_with(&[("FOX News", "mbt://a", 0.5)]);
        assert_eq!(s.len(), 1);
        let uri = Uri::new("mbt://a").unwrap();
        assert_eq!(
            s.iter().map(Metadata::name).collect::<Vec<_>>(),
            ["FOX News"]
        );
        assert_eq!(s.popularity_of(&uri).value(), 0.5);
    }

    #[test]
    fn search_ranks_by_match_then_popularity() {
        // Zero shards is clamped to one.
        for shards in [0, 1, 7] {
            let s = sharded_with(
                shards,
                &[
                    ("fox news tonight", "mbt://a", 0.1),
                    ("fox news", "mbt://b", 0.9),
                    ("fox comedy", "mbt://c", 0.99),
                ],
            );
            let q = Query::new("fox news").unwrap();
            let hits = s.search(&q, 10);
            // Both a and b match fully (AND semantics filter others out).
            assert_eq!(hits.len(), 2);
            // Same match count (2 tokens) → popularity decides: b first.
            assert_eq!(hits[0].uri().as_str(), "mbt://b");
        }
    }

    #[test]
    fn search_respects_limit_and_best_match() {
        let s = server_with(&[("news one", "mbt://a", 0.2), ("news two", "mbt://b", 0.8)]);
        let q = Query::new("news").unwrap();
        let best = s.search(&q, 1);
        assert_eq!(best.len(), 1);
        assert_eq!(best[0].uri().as_str(), "mbt://b");
    }

    #[test]
    fn search_requires_all_tokens() {
        for shards in [1, 16] {
            let s = sharded_with(shards, &[("fox comedy", "mbt://c", 0.9)]);
            assert!(s.search(&Query::new("fox news").unwrap(), 10).is_empty());
        }
    }

    #[test]
    fn most_popular_sorted_desc() {
        for shards in [1, 2, 7] {
            let s = sharded_with(
                shards,
                &[
                    ("a", "mbt://a", 0.2),
                    ("b", "mbt://b", 0.9),
                    ("c", "mbt://c", 0.5),
                ],
            );
            let top: Vec<&str> = s
                .most_popular(2, SimTime::ZERO)
                .iter()
                .map(|m| m.uri().as_str())
                .collect();
            assert_eq!(top, vec!["mbt://b", "mbt://c"]);
        }
    }

    #[test]
    fn most_popular_skips_expired() {
        let mut s = MetadataServer::new(10);
        let m = Metadata::builder("old", "FOX", Uri::new("mbt://old").unwrap())
            .ttl(SimDuration::from_secs(10))
            .build();
        s.publish(m, Popularity::MAX);
        assert!(s.most_popular(5, SimTime::from_secs(20)).is_empty());
    }

    #[test]
    fn expire_removes_records() {
        for shards in [1, 7] {
            let mut s = MetadataServer::with_shards(10, shards);
            let m = Metadata::builder("old", "FOX", Uri::new("mbt://old").unwrap())
                .ttl(SimDuration::from_secs(10))
                .build();
            s.publish(m, Popularity::MAX);
            s.publish(meta("fresh", "mbt://fresh"), Popularity::MAX);
            assert_eq!(s.expire(SimTime::from_secs(20)), 1);
            assert_eq!(s.len(), 1);
            assert!(s.search(&Query::new("old").unwrap(), 5).is_empty());
        }
    }

    #[test]
    fn estimator_integration() {
        let mut s = server_with(&[("a", "mbt://a", 0.0)]);
        let uri = Uri::new("mbt://a").unwrap();
        let t = SimTime::from_secs(100);
        s.record_request(&uri, NodeId::new(0), t);
        s.record_request(&uri, NodeId::new(1), t);
        assert!((s.estimated_popularity(&uri, t).value() - 0.2).abs() < 1e-12);
        s.refresh_popularities(t);
        assert!((s.popularity_of(&uri).value() - 0.2).abs() < 1e-12);
    }

    #[test]
    fn republish_replaces() {
        for shards in [1, 7] {
            let mut s = sharded_with(shards, &[("first title", "mbt://a", 0.1)]);
            s.publish(meta("second title", "mbt://a"), Popularity::new(0.7));
            assert_eq!(s.len(), 1);
            assert!(s.search(&Query::new("first").unwrap(), 5).is_empty());
            assert_eq!(s.search(&Query::new("second").unwrap(), 5).len(), 1);
        }
    }

    #[test]
    fn set_popularity_only_for_known() {
        let mut s = server_with(&[("a", "mbt://a", 0.1)]);
        let unknown = Uri::new("mbt://nope").unwrap();
        s.set_popularity(&unknown, Popularity::MAX);
        assert_eq!(s.popularity_of(&unknown), Popularity::MIN);
    }

    #[test]
    fn iter_covers_all() {
        let s = server_with(&[("a", "mbt://a", 0.1), ("b", "mbt://b", 0.2)]);
        assert_eq!(s.iter().count(), 2);
        assert!(!s.is_empty());
    }

    #[test]
    fn iter_is_uri_ordered_across_shards() {
        let s = sharded_with(
            7,
            &[
                ("c", "mbt://c", 0.1),
                ("a", "mbt://a", 0.2),
                ("b", "mbt://b", 0.3),
            ],
        );
        let order: Vec<&str> = s.iter().map(|m| m.uri().as_str()).collect();
        assert_eq!(order, vec!["mbt://a", "mbt://b", "mbt://c"]);
    }

    #[test]
    fn snapshot_is_frozen_while_writer_mutates() {
        let mut s = sharded_with(
            4,
            &[("fox news", "mbt://a", 0.4), ("fox talk", "mbt://b", 0.6)],
        );
        let frozen = s.snapshot();
        let q = Query::new("fox").unwrap();

        // Writer mutates every shard class after the snapshot was taken.
        s.publish(meta("fox extra", "mbt://c"), Popularity::new(0.9));
        s.set_popularity(&Uri::new("mbt://a").unwrap(), Popularity::MAX);
        s.expire(SimTime::ZERO + SimDuration::from_days(9999));

        assert_eq!(frozen.len(), 2);
        let hits = frozen.search(&q, 10);
        assert_eq!(hits.len(), 2);
        assert_eq!(hits[0].uri().as_str(), "mbt://b"); // pre-mutation order
        assert_eq!(
            frozen.popularity_of(&Uri::new("mbt://a").unwrap()),
            Popularity::new(0.4)
        );
        assert_eq!(
            frozen
                .search(&q, 1)
                .first()
                .map(|m| m.uri().as_str().to_owned()),
            Some("mbt://b".to_owned())
        );
        assert_eq!(frozen.most_popular(1, SimTime::ZERO).len(), 1);
        assert!(frozen.iter().all(|m| m.uri().as_str() != "mbt://c"));
        assert!(!frozen.is_empty());
    }

    /// The intersection of `lists` of `RecordId::new(0, slot)`s, as slots
    /// in ascending order.
    fn intersect(lists: &[Option<&Postings>]) -> Vec<u32> {
        let mut slots: Vec<u32> = intersect_rarest_first(lists.iter().copied())
            .map(|id| id.slot())
            .collect();
        slots.sort_unstable();
        slots
    }

    fn postings(slots: impl IntoIterator<Item = u32>) -> Postings {
        slots
            .into_iter()
            .map(|slot| RecordId::new(0, slot))
            .collect()
    }

    #[test]
    fn intersection_requires_every_list() {
        let (a, b) = (postings([1, 2, 3]), postings([2, 3, 4]));
        assert_eq!(intersect(&[Some(&a), Some(&b)]), [2, 3]);
        assert_eq!(intersect(&[Some(&a)]), [1, 2, 3]);
        assert_eq!(intersect(&[Some(&a), None]), [], "a token nothing carries");
        assert_eq!(intersect(&[]), [], "no token matches nothing");
    }

    #[test]
    fn intersection_handles_more_lists_than_the_inline_scratch() {
        // Six lists: four inline, two spilled; the rarest is a spilled one.
        let wide = postings(0..10);
        let (rare, other) = (postings([3, 7]), postings([7, 9]));
        let six = [&wide, &wide, &wide, &wide, &wide, &rare].map(Some);
        assert_eq!(intersect(&six), [3, 7]);
        let mut with_other = six;
        with_other[4] = Some(&other);
        assert_eq!(intersect(&with_other), [7]);
        with_other[5] = None;
        assert_eq!(intersect(&with_other), []);
    }
}
