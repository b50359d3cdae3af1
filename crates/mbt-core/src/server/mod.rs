//! The central metadata server on the Internet.
//!
//! In a hybrid DTN the Internet is the sole source of files; metadata "can be
//! placed on different servers than those of their files" and popularities
//! "can be maintained by a central metadata server" (paper §III, §IV). When a
//! node connects to the Internet it sends its query strings to the server,
//! which returns the best-matched metadata; the server also tracks request
//! popularity over a 24-hour window.
//!
//! The module tree:
//!
//! - [`shard`] — the partitioning primitives: stable FNV-1a placement of
//!   tokens and URIs onto `N` ring shards, the slab each URI shard keeps its
//!   records in, the integer posting lists, and the shared rarest-first
//!   query core both the live server and its snapshots call;
//! - [`ShardedMetadataServer`] — the mutable server itself, every shard
//!   behind a copy-on-write `Arc`;
//! - [`ServerSnapshot`] — a frozen, lock-free view for concurrent readers.
//!
//! The proof machinery lives with the tests: the original single-registry
//! implementation is kept verbatim as `tests/support/reference_server.rs`,
//! the oracle `tests/server_equivalence.rs` and `tests/query_storm.rs` hold
//! every answer to.
//!
//! [`MetadataServer`] remains the name the rest of the system uses; it is
//! the sharded server, whose answers are byte-identical to the reference
//! for every shard count.

pub mod shard;

mod sharded;
mod snapshot;

pub use sharded::ShardedMetadataServer;
pub use snapshot::ServerSnapshot;

/// The system-wide name for the central metadata server.
///
/// Constructed via [`ShardedMetadataServer::new`] everywhere the simulation
/// needs one; `new` picks a single shard, which is byte-identical to the
/// pre-sharding registry.
pub type MetadataServer = ShardedMetadataServer;

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
        assert_eq!(s.metadata_of(&uri).unwrap().name(), "FOX News");
        assert_eq!(s.popularity_of(&uri).value(), 0.5);
    }

    #[test]
    fn search_ranks_by_match_then_popularity() {
        for shards in [1, 7] {
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
        assert_eq!(s.search(&q, 1).len(), 1);
        assert_eq!(s.best_match(&q).unwrap().uri().as_str(), "mbt://b");
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
        s.expire(SimTime::from_days(9999));

        assert_eq!(frozen.len(), 2);
        let hits = frozen.search(&q, 10);
        assert_eq!(hits.len(), 2);
        assert_eq!(hits[0].uri().as_str(), "mbt://b"); // pre-mutation order
        assert_eq!(
            frozen.popularity_of(&Uri::new("mbt://a").unwrap()),
            Popularity::new(0.4)
        );
        assert_eq!(
            frozen.best_match(&q).map(|m| m.uri().as_str().to_owned()),
            Some("mbt://b".to_owned())
        );
        assert_eq!(frozen.most_popular(1, SimTime::ZERO).len(), 1);
        assert!(frozen.metadata_of(&Uri::new("mbt://c").unwrap()).is_none());
        assert!(!frozen.is_empty());
    }

    #[test]
    fn shard_count_reports_partitioning() {
        assert_eq!(MetadataServer::new(10).shard_count(), 1);
        assert_eq!(MetadataServer::with_shards(10, 7).shard_count(), 7);
        assert_eq!(MetadataServer::with_shards(10, 0).shard_count(), 1);
    }
}
