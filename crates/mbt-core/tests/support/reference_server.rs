//! The pre-sharding single-registry server, kept verbatim as the
//! equivalence oracle.
//!
//! [`ReferenceServer`] is the original linear implementation of the central
//! metadata server: one `BTreeMap` registry, one [`InvertedIndex`], and a
//! full-keyspace popularity refresh. It is deliberately simple and obviously
//! correct; the property suite (`tests/server_equivalence.rs`) replays
//! arbitrary operation sequences against it and the sharded
//! [`MetadataServer`](mbt_core::MetadataServer) and requires
//! byte-identical answers for every shard count.
//!
//! Shared by path (`#[path = "support/reference_server.rs"] mod
//! reference_server;`) between `server_equivalence.rs` and `query_storm.rs`,
//! and brings its index (`inverted_index.rs`, beside it) along the same way;
//! both use only `mbt_core`'s public API.
//!
//! Do not optimise this type — its value is that it never changes.

use std::cmp::Ordering;
use std::collections::BTreeMap;

use dtn_trace::{NodeId, SimTime};

use mbt_core::metadata::Metadata;
use mbt_core::popularity::{cmp_popularity, Popularity, PopularityEstimator};
use mbt_core::query::Query;
use mbt_core::uri::Uri;

#[path = "inverted_index.rs"]
mod inverted_index;
use inverted_index::InvertedIndex;

/// The reference single-registry metadata server (test oracle).
#[derive(Debug, Clone)]
pub struct ReferenceServer {
    metadata: BTreeMap<Uri, Metadata>,
    index: InvertedIndex,
    popularity: BTreeMap<Uri, Popularity>,
    estimator: PopularityEstimator,
}

impl ReferenceServer {
    /// Creates a server; `internet_population` is the number of
    /// Internet-access nodes, used to normalize estimated popularity.
    pub fn new(internet_population: u32) -> Self {
        ReferenceServer {
            metadata: BTreeMap::new(),
            index: InvertedIndex::new(),
            popularity: BTreeMap::new(),
            estimator: PopularityEstimator::new(internet_population),
        }
    }

    /// Publishes metadata with an assigned popularity. Re-publishing a URI
    /// replaces the record.
    pub fn publish(&mut self, metadata: Metadata, popularity: Popularity) {
        let uri = metadata.uri().clone();
        self.index.remove(&uri);
        self.index.insert_tokens(&uri, metadata.token_set().iter());
        self.popularity.insert(uri.clone(), popularity);
        self.metadata.insert(uri, metadata);
    }

    /// Number of published records.
    pub fn len(&self) -> usize {
        self.metadata.len()
    }

    /// True if nothing is published.
    pub fn is_empty(&self) -> bool {
        self.metadata.is_empty()
    }

    /// Looks up metadata by URI.
    pub fn metadata_of(&self, uri: &Uri) -> Option<&Metadata> {
        self.metadata.get(uri)
    }

    /// The assigned popularity of `uri` (0 if unknown).
    pub fn popularity_of(&self, uri: &Uri) -> Popularity {
        self.popularity.get(uri).copied().unwrap_or(Popularity::MIN)
    }

    /// Updates the assigned popularity of a known URI.
    pub fn set_popularity(&mut self, uri: &Uri, popularity: Popularity) {
        if self.metadata.contains_key(uri) {
            self.popularity.insert(uri.clone(), popularity);
        }
    }

    /// Best-matched metadata for `query`, at most `limit`, ranked by match
    /// count then popularity then URI (all descending except URI).
    pub fn search(&self, query: &Query, limit: usize) -> Vec<&Metadata> {
        let mut ranked: Vec<(&Uri, usize)> = self
            .index
            .lookup_ranked(query.tokens())
            .into_iter()
            .filter(|(uri, _)| {
                self.metadata
                    .get(uri)
                    .is_some_and(|m| m.matches_query(query))
            })
            .map(|(uri, hits)| {
                let uri_ref = self.metadata.get_key_value(&uri).expect("checked above").0;
                (uri_ref, hits)
            })
            .collect();
        ranked.sort_by(|a, b| {
            b.1.cmp(&a.1)
                .then_with(|| self.cmp_by_popularity(b.0, a.0))
                .then_with(|| a.0.cmp(b.0))
        });
        ranked
            .into_iter()
            .take(limit)
            .map(|(uri, _)| &self.metadata[uri])
            .collect()
    }

    /// The `limit` most popular unexpired metadata at `now`.
    pub fn most_popular(&self, limit: usize, now: SimTime) -> Vec<&Metadata> {
        let mut all: Vec<&Uri> = self
            .metadata
            .iter()
            .filter(|(_, m)| !m.is_expired(now))
            .map(|(u, _)| u)
            .collect();
        all.sort_by(|a, b| self.cmp_by_popularity(b, a).then_with(|| a.cmp(b)));
        all.into_iter()
            .take(limit)
            .map(|u| &self.metadata[u])
            .collect()
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
    /// daily popularity update) — via the original full-keyspace clone.
    pub fn refresh_popularities(&mut self, now: SimTime) {
        let uris: Vec<Uri> = self.metadata.keys().cloned().collect();
        for uri in uris {
            let p = self.estimator.popularity(&uri, now);
            self.popularity.insert(uri, p);
        }
        self.estimator.prune(now);
    }

    /// Removes metadata expired at `now`; returns how many were dropped.
    pub fn expire(&mut self, now: SimTime) -> usize {
        let expired: Vec<Uri> = self
            .metadata
            .iter()
            .filter(|(_, m)| m.is_expired(now))
            .map(|(u, _)| u.clone())
            .collect();
        for uri in &expired {
            self.metadata.remove(uri);
            self.index.remove(uri);
            self.popularity.remove(uri);
        }
        expired.len()
    }

    /// Iterates over all published metadata in URI order.
    pub fn iter(&self) -> impl Iterator<Item = &Metadata> {
        self.metadata.values()
    }

    fn cmp_by_popularity(&self, a: &Uri, b: &Uri) -> Ordering {
        cmp_popularity(self.popularity_of(a), self.popularity_of(b))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn publish_then_search() {
        let mut server = ReferenceServer::new(10);
        let uri = Uri::new("mbt://fox/news-1").unwrap();
        server.publish(
            Metadata::builder("FOX Evening News", "FOX", uri).build(),
            Popularity::new(0.3),
        );
        let query = Query::new("evening news").unwrap();
        assert_eq!(server.search(&query, 5).len(), 1);
    }
}
