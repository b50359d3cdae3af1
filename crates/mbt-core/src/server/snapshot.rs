//! Immutable, shareable point-in-time views of the sharded server.

use std::sync::Arc;

use dtn_trace::SimTime;

use crate::metadata::Metadata;
use crate::popularity::Popularity;
use crate::query::Query;
use crate::uri::Uri;

use super::shard::{ranked_matches, shard_of_uri, top_popular, TokenShard, UriShard};

/// A consistent, immutable view of a
/// [`ShardedMetadataServer`](super::ShardedMetadataServer) at the moment
/// [`snapshot`](super::ShardedMetadataServer::snapshot) was called.
///
/// Taking one costs `N` reference-count bumps; no shard data is copied. The
/// snapshot is `Send + Sync` and answers the whole read API lock-free, so a
/// rayon query storm can fan out over clones of it while the originating
/// server keeps publishing — the writer's [`Arc::make_mut`] copy-on-write
/// un-shares whatever it touches, leaving every outstanding snapshot frozen
/// at its own instant. Queries return owned [`Metadata`] (an `Arc`-backed
/// cheap clone) rather than borrows, so results outlive the snapshot.
///
/// # Example
///
/// ```
/// use mbt_core::{Metadata, MetadataServer, Popularity, Query, Uri};
///
/// let mut server = MetadataServer::with_shards(10, 4);
/// let uri = Uri::new("mbt://fox/news-1")?;
/// server.publish(
///     Metadata::builder("FOX Evening News", "FOX", uri.clone()).build(),
///     Popularity::new(0.3),
/// );
///
/// let frozen = server.snapshot();
/// server.expire(dtn_trace::SimTime::from_days(400)); // writer moves on…
/// assert_eq!(frozen.len(), 1); // …the snapshot does not
/// assert_eq!(frozen.best_match(&Query::new("evening news")?).unwrap().uri(), &uri);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone)]
pub struct ServerSnapshot {
    uri_shards: Vec<Arc<UriShard>>,
    token_shards: Vec<Arc<TokenShard>>,
}

impl ServerSnapshot {
    pub(crate) fn new(uri_shards: Vec<Arc<UriShard>>, token_shards: Vec<Arc<TokenShard>>) -> Self {
        ServerSnapshot {
            uri_shards,
            token_shards,
        }
    }

    /// Number of records in the snapshot.
    pub fn len(&self) -> usize {
        self.uri_shards.iter().map(|s| s.len()).sum()
    }

    /// True if the snapshot holds no records.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Looks up metadata by URI.
    pub fn metadata_of(&self, uri: &Uri) -> Option<Metadata> {
        self.uri_shards[shard_of_uri(uri, self.uri_shards.len())]
            .metadata_of(uri)
            .cloned()
    }

    /// The assigned popularity of `uri` (0 if unknown).
    pub fn popularity_of(&self, uri: &Uri) -> Popularity {
        self.uri_shards[shard_of_uri(uri, self.uri_shards.len())].popularity_of(uri)
    }

    /// Best-matched metadata for `query`, at most `limit`, in exactly the
    /// order the live server would return.
    pub fn search(&self, query: &Query, limit: usize) -> Vec<Metadata> {
        ranked_matches(&self.uri_shards, &self.token_shards, query, limit)
            .into_iter()
            .cloned()
            .collect()
    }

    /// The single best match for `query`, if any.
    pub fn best_match(&self, query: &Query) -> Option<Metadata> {
        self.search(query, 1).into_iter().next()
    }

    /// The `limit` most popular unexpired metadata at `now`.
    pub fn most_popular(&self, limit: usize, now: SimTime) -> Vec<Metadata> {
        top_popular(&self.uri_shards, limit, now)
            .into_iter()
            .cloned()
            .collect()
    }
}
