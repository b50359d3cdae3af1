//! The production sharded metadata server.

use std::sync::Arc;

use dtn_trace::{NodeId, SimTime};

use crate::keyword::TokenSet;
use crate::metadata::Metadata;
use crate::popularity::{Popularity, PopularityEstimator};
use crate::query::Query;
use crate::uri::Uri;

use super::shard::{
    iter_uri_order, ranked_matches, shard_of_token, shard_of_uri, top_popular, RecordId,
    TokenShard, UriShard,
};
use super::snapshot::ServerSnapshot;

/// The central metadata server, sharded for heavy query traffic.
///
/// Holds every published metadata record, a keyword index over it, and the
/// authoritative popularity of each file — exactly the role of the paper's
/// Internet-side server (§III, §IV) — but split across `N` shards: the
/// keyword index by token hash, the URI/popularity space by URI hash on a
/// ring (see [`super::shard`]). With one shard (the [`new`](Self::new)
/// default) it is byte-identical to the original single-registry server;
/// with more, every answer is still byte-identical — the property suite
/// proves it — while publishes, expiries, and popularity refreshes touch
/// only the shards they must.
///
/// Every shard lives behind an [`Arc`] under the copy-on-write discipline of
/// the node-local stores: [`snapshot`](Self::snapshot) hands out a
/// consistent, immutable [`ServerSnapshot`] for the price of `N` reference
/// counts, and a concurrent query storm reads snapshots lock-free while the
/// writer mutates (and thereby un-shares) its own copies.
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
pub struct ShardedMetadataServer {
    uri_shards: Vec<Arc<UriShard>>,
    token_shards: Vec<Arc<TokenShard>>,
    estimator: PopularityEstimator,
    /// Total record count, maintained incrementally so `len` never walks
    /// the shards.
    len: usize,
}

impl ShardedMetadataServer {
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
        ShardedMetadataServer {
            uri_shards: (0..shards).map(|_| Arc::default()).collect(),
            token_shards: (0..shards).map(|_| Arc::default()).collect(),
            estimator: PopularityEstimator::new(internet_population),
            len: 0,
        }
    }

    /// The number of shards the key spaces are partitioned over.
    pub fn shard_count(&self) -> usize {
        self.uri_shards.len()
    }

    /// Publishes metadata with an assigned popularity (the workload's ground
    /// truth). Re-publishing a URI replaces the record.
    ///
    /// A republished record keeps its slot, so only the *difference* of the
    /// old and new token sets reaches the keyword index: a token both carry
    /// (the publisher's name is on every record) costs nothing.
    pub fn publish(&mut self, metadata: Metadata, popularity: Popularity) {
        let ShardedMetadataServer {
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

    /// Looks up metadata by URI.
    pub fn metadata_of(&self, uri: &Uri) -> Option<&Metadata> {
        self.uri_shards[shard_of_uri(uri, self.uri_shards.len())].metadata_of(uri)
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
    pub fn search(&self, query: &Query, limit: usize) -> Vec<&Metadata> {
        ranked_matches(&self.uri_shards, &self.token_shards, query, limit)
    }

    /// The `limit` most popular unexpired metadata at `now` (the push phase
    /// of metadata distribution).
    pub fn most_popular(&self, limit: usize, now: SimTime) -> Vec<&Metadata> {
        top_popular(&self.uri_shards, limit, now)
    }

    /// Records a download request (feeds the 24-hour popularity estimator).
    pub fn record_request(&mut self, uri: &Uri, node: NodeId, now: SimTime) {
        self.estimator.record_request(uri, node, now);
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
        let ShardedMetadataServer {
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
        estimator.prune(now);
    }

    /// Removes metadata expired at `now`; returns how many were dropped.
    ///
    /// One scan of each shard's expiry column; a shard with nothing expired
    /// stays shared with outstanding snapshots. The dropped records'
    /// postings are removed batched per list — one look-up of each affected
    /// token, not one per (record, token) pair.
    pub fn expire(&mut self, now: SimTime) -> usize {
        let ShardedMetadataServer {
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

    /// Iterates over all published metadata in URI order (rank-merged
    /// across shards).
    pub fn iter(&self) -> impl Iterator<Item = &Metadata> {
        iter_uri_order(&self.uri_shards)
    }

    /// A consistent, immutable view of the current shard set for the
    /// concurrent read path: `N` reference-count bumps, no copying.
    ///
    /// The snapshot keeps answering from the state at the time of the call
    /// while this server keeps mutating — [`Arc::make_mut`] un-shares each
    /// shard the writer touches, so a reader can never observe a torn
    /// in-between state.
    pub fn snapshot(&self) -> ServerSnapshot {
        ServerSnapshot::new(self.uri_shards.clone(), self.token_shards.clone())
    }
}
