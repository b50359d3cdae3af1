//! Protocol variants: the paper's MBT triad (§VI-A) and two variants from
//! the related literature.
//!
//! A [`ProtocolSpec`] is plain data: the two behaviour flags the paper's
//! triad toggles, plus a [`CachePolicy`] and a [`ReplicationPolicy`]. The
//! triad is three canned specs with the default (no-op) policies:
//!
//! - [`ProtocolSpec::MBT`] — the full protocol: queries are distributed to
//!   frequent contacting nodes, metadata are distributed standalone, files
//!   are downloaded by request and popularity.
//! - [`ProtocolSpec::MBT_Q`] — "without distribution of queries": a node can
//!   only pull metadata from currently-connected peers; it cannot ask its
//!   frequent contacting nodes to collect metadata it is interested in.
//! - [`ProtocolSpec::MBT_QM`] — "without distribution of both queries and
//!   metadata": a node can only pull files from other nodes; metadata travel
//!   only together with their files (as in prior content-distribution
//!   systems) and file selection is purely popularity-driven.
//!
//! Two further variants change only the policy fields:
//!
//! - [`ProtocolSpec::POP_CACHE`] — cooperative cache eviction ranked by file
//!   popularity under a bounded per-node file buffer, after Wang & Kulkarni,
//!   *Cooperative Caching based on File Popularity Ranking in DTNs*.
//! - [`ProtocolSpec::DIFFUSE_REP`] — proactive seeding driven by a diffusion
//!   model of file availability, after Napoli et al., *Improving files
//!   availability for BitTorrent using a diffusion model*.

use std::fmt;

/// How a node's bounded file buffer decides what to keep.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum CachePolicy {
    /// No bound: every completed file is kept until its TTL expires (the
    /// paper's model; all three MBT variants).
    #[default]
    Unbounded,
    /// At most `capacity` files; when full, the *unwanted* file (one
    /// matching none of the node's own queries) of lowest known popularity
    /// (the paper's §IV counters) is evicted to admit a better one. Files
    /// the node itself wants are never evicted.
    PopularityRanked {
        /// Maximum number of complete files held at once.
        capacity: u32,
    },
}

/// Picks the [`CachePolicy::PopularityRanked`] eviction victim: the
/// lowest-scored of the `(key, score)` candidates, score ties broken by key
/// order so the choice is deterministic regardless of candidate ordering.
///
/// Callers present the *evictable* candidates (files a node's own user still
/// wants are simply not offered); `None` means there is nothing to evict,
/// and the incoming file is refused instead.
pub(crate) fn evict_lowest_score<K: Ord + Clone>(candidates: &[(K, f64)]) -> Option<K> {
    candidates
        .iter()
        .min_by(|x, y| x.1.total_cmp(&y.1).then_with(|| x.0.cmp(&y.0)))
        .map(|(k, _)| k.clone())
}

/// How a node proactively replicates files beyond request-driven download.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum ReplicationPolicy {
    /// Request-driven only (the paper's model; all three MBT variants).
    #[default]
    None,
    /// Availability-diffusion seeding, after Napoli, Anceaume, et al.,
    /// *Improving files availability for BitTorrent using a diffusion
    /// model*: during a contact, each member diffuses its estimate `e` of
    /// every known file's availability toward the observed fraction `o` of
    /// clique members holding it, `e + α·(o − e)` with α = 0.5, and
    /// proactively pulls files whose estimate sits below 0.35.
    Diffusion,
}

/// The weight α of the newest availability observation under
/// [`ReplicationPolicy::Diffusion`].
pub(crate) const DIFFUSION_SMOOTHING: f64 = 0.5;

/// The availability estimate below which [`ReplicationPolicy::Diffusion`]
/// counts a file scarce and replicates it proactively.
pub(crate) const DIFFUSION_THRESHOLD: f64 = 0.35;

/// A protocol variant.
///
/// A spec is plain data: two behaviour flags (the axes the paper's triad
/// toggles) plus a [`CachePolicy`] and a [`ReplicationPolicy`]. The canned
/// triad specs use the default policies; the other variants change only
/// the policy fields.
///
/// # Example
///
/// ```
/// use mbt_core::ProtocolSpec;
///
/// assert_eq!(ProtocolSpec::by_name("mbt-q").unwrap(), ProtocolSpec::MBT_Q);
/// assert_eq!(ProtocolSpec::by_name("popcache").unwrap().name(), "PopCache");
/// assert!(ProtocolSpec::by_name("carrier-pigeon").is_err());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ProtocolSpec {
    name: &'static str,
    distributes_queries: bool,
    distributes_metadata: bool,
    cache: CachePolicy,
    replication: ReplicationPolicy,
}

impl ProtocolSpec {
    /// Full mobile BitTorrent.
    pub const MBT: ProtocolSpec = ProtocolSpec {
        name: "MBT",
        distributes_queries: true,
        distributes_metadata: true,
        cache: CachePolicy::Unbounded,
        replication: ReplicationPolicy::None,
    };

    /// MBT without query distribution.
    pub const MBT_Q: ProtocolSpec = ProtocolSpec {
        name: "MBT-Q",
        distributes_queries: false,
        distributes_metadata: true,
        cache: CachePolicy::Unbounded,
        replication: ReplicationPolicy::None,
    };

    /// MBT without query and metadata distribution.
    pub const MBT_QM: ProtocolSpec = ProtocolSpec {
        name: "MBT-QM",
        distributes_queries: false,
        distributes_metadata: false,
        cache: CachePolicy::Unbounded,
        replication: ReplicationPolicy::None,
    };

    /// Full MBT behaviour plus popularity-ranked eviction under a bounded
    /// per-node file buffer of 8 files.
    pub const POP_CACHE: ProtocolSpec = ProtocolSpec {
        name: "PopCache",
        distributes_queries: true,
        distributes_metadata: true,
        cache: CachePolicy::PopularityRanked { capacity: 8 },
        replication: ReplicationPolicy::None,
    };

    /// Full MBT behaviour plus availability-diffusion proactive seeding
    /// (smoothing 50%, scarcity threshold 35%).
    pub const DIFFUSE_REP: ProtocolSpec = ProtocolSpec {
        name: "DiffuseRep",
        distributes_queries: true,
        distributes_metadata: true,
        cache: CachePolicy::Unbounded,
        replication: ReplicationPolicy::Diffusion,
    };

    /// The paper's triad, in figure order — the default sweep-grid protocol
    /// list (a cell's grid position seeds it, so this order is pinned).
    pub const TRIAD: [ProtocolSpec; 3] =
        [ProtocolSpec::MBT, ProtocolSpec::MBT_Q, ProtocolSpec::MBT_QM];

    /// The registry of built-in variants: the triad followed by the two new
    /// protocol families, in head-to-head figure order.
    pub const fn builtin() -> [ProtocolSpec; 5] {
        [
            ProtocolSpec::MBT,
            ProtocolSpec::MBT_Q,
            ProtocolSpec::MBT_QM,
            ProtocolSpec::POP_CACHE,
            ProtocolSpec::DIFFUSE_REP,
        ]
    }

    /// Looks a built-in spec up by name (case-insensitive; `"mbt-qm"` and
    /// `"mbt_qm"` both match MBT-QM). On failure the error suggests the
    /// closest registered name.
    pub fn by_name(name: &str) -> Result<ProtocolSpec, UnknownProtocol> {
        let key = canonical(name);
        for spec in ProtocolSpec::builtin() {
            if canonical(spec.name) == key {
                return Ok(spec);
            }
        }
        let suggestion = ProtocolSpec::builtin()
            .into_iter()
            .map(|s| (edit_distance(&key, &canonical(s.name)), s.name))
            .min()
            .filter(|(d, _)| *d <= 3)
            .map(|(_, n)| n);
        Err(UnknownProtocol {
            name: name.to_string(),
            suggestion,
        })
    }

    /// The variant's display name ("MBT", "PopCache", ...).
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// True if nodes store and serve the queries of their frequent
    /// contacting nodes.
    pub fn distributes_queries(&self) -> bool {
        self.distributes_queries
    }

    /// True if metadata circulate standalone, ahead of files.
    pub fn distributes_metadata(&self) -> bool {
        self.distributes_metadata
    }

    /// The file-buffer eviction policy.
    pub fn cache(&self) -> CachePolicy {
        self.cache
    }

    /// The proactive replication policy.
    pub fn replication(&self) -> ReplicationPolicy {
        self.replication
    }

    /// Derives a new named spec with a different cache policy (for sweeps
    /// over capacities). The name must be `'static`; use a leaked or
    /// interned string for dynamic names.
    pub fn with_cache(self, name: &'static str, cache: CachePolicy) -> ProtocolSpec {
        ProtocolSpec {
            name,
            cache,
            ..self
        }
    }
}

impl Default for ProtocolSpec {
    fn default() -> Self {
        ProtocolSpec::MBT
    }
}

impl fmt::Display for ProtocolSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.pad(self.name)
    }
}

/// Error returned by [`ProtocolSpec::by_name`] for an unregistered name.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UnknownProtocol {
    name: String,
    suggestion: Option<&'static str>,
}

impl UnknownProtocol {
    /// The name that failed to resolve.
    pub fn name(&self) -> &str {
        &self.name
    }
}

impl fmt::Display for UnknownProtocol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let names: Vec<&str> = ProtocolSpec::builtin().iter().map(|s| s.name).collect();
        write!(f, "unknown protocol `{}`", self.name)?;
        if let Some(s) = self.suggestion {
            write!(f, " (did you mean `{s}`?)")?;
        }
        write!(f, "; known protocols: {}", names.join(", "))
    }
}

impl std::error::Error for UnknownProtocol {}

/// Lowercases and strips separators so `"MBT-QM"`, `"mbt_qm"` and `"mbtqm"`
/// compare equal.
fn canonical(name: &str) -> String {
    name.chars()
        .filter(|c| *c != '-' && *c != '_' && *c != ' ')
        .map(|c| c.to_ascii_lowercase())
        .collect()
}

/// Levenshtein distance, for the did-you-mean suggestion. Inputs are short
/// protocol names, so the O(a·b) DP is fine.
fn edit_distance(a: &str, b: &str) -> usize {
    let a: Vec<char> = a.chars().collect();
    let b: Vec<char> = b.chars().collect();
    let mut prev: Vec<usize> = (0..=b.len()).collect();
    for (i, ca) in a.iter().enumerate() {
        let mut cur = vec![i + 1];
        for (j, cb) in b.iter().enumerate() {
            let sub = prev[j] + usize::from(ca != cb);
            cur.push(sub.min(prev[j + 1] + 1).min(cur[j] + 1));
        }
        prev = cur;
    }
    prev[b.len()]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn evict_lowest_score_is_order_independent() {
        let fwd = vec![(1u32, 0.5), (2, 0.25), (3, 0.25)];
        let mut rev = fwd.clone();
        rev.reverse();
        assert_eq!(evict_lowest_score(&fwd), Some(2));
        assert_eq!(evict_lowest_score(&rev), Some(2), "ties by key");
    }

    #[test]
    fn evict_lowest_score_refuses_without_candidates() {
        let empty: Vec<(u32, f64)> = Vec::new();
        assert_eq!(evict_lowest_score(&empty), None);
    }

    #[test]
    fn capability_matrix() {
        assert!(ProtocolSpec::MBT.distributes_queries());
        assert!(ProtocolSpec::MBT.distributes_metadata());
        assert!(!ProtocolSpec::MBT_Q.distributes_queries());
        assert!(ProtocolSpec::MBT_Q.distributes_metadata());
        assert!(!ProtocolSpec::MBT_QM.distributes_queries());
        assert!(!ProtocolSpec::MBT_QM.distributes_metadata());
        for spec in ProtocolSpec::TRIAD {
            assert_eq!(spec.cache(), CachePolicy::Unbounded);
            assert_eq!(spec.replication(), ReplicationPolicy::None);
        }
    }

    #[test]
    fn labels() {
        assert_eq!(ProtocolSpec::MBT.to_string(), "MBT");
        assert_eq!(ProtocolSpec::MBT_Q.to_string(), "MBT-Q");
        assert_eq!(ProtocolSpec::MBT_QM.to_string(), "MBT-QM");
    }

    #[test]
    fn spec_display_honours_width() {
        assert_eq!(format!("{:>9}", ProtocolSpec::MBT), "      MBT");
        assert_eq!(format!("{:<8}|", ProtocolSpec::MBT_QM), "MBT-QM  |");
        assert_eq!(format!("{}", ProtocolSpec::MBT_Q), "MBT-Q");
    }

    #[test]
    fn all_lists_three() {
        assert_eq!(
            ProtocolSpec::TRIAD,
            [ProtocolSpec::MBT, ProtocolSpec::MBT_Q, ProtocolSpec::MBT_QM]
        );
        assert_eq!(ProtocolSpec::builtin()[..3], ProtocolSpec::TRIAD);
        assert_eq!(ProtocolSpec::default(), ProtocolSpec::MBT);
    }

    #[test]
    fn registry_resolves_names() {
        for spec in ProtocolSpec::builtin() {
            assert_eq!(ProtocolSpec::by_name(spec.name()).unwrap(), spec);
            assert_eq!(
                ProtocolSpec::by_name(&spec.name().to_lowercase()).unwrap(),
                spec
            );
        }
        assert_eq!(
            ProtocolSpec::by_name("mbt_qm").unwrap(),
            ProtocolSpec::MBT_QM
        );
        assert_eq!(
            ProtocolSpec::by_name("POPCACHE").unwrap(),
            ProtocolSpec::POP_CACHE
        );
    }

    #[test]
    fn unknown_name_suggests_closest() {
        let err = ProtocolSpec::by_name("popcash").unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("unknown protocol `popcash`"), "{msg}");
        assert!(msg.contains("did you mean `PopCache`?"), "{msg}");
        assert!(msg.contains("known protocols: MBT, MBT-Q"), "{msg}");

        let far = ProtocolSpec::by_name("carrier-pigeon").unwrap_err();
        let msg = far.to_string();
        assert!(!msg.contains("did you mean"), "{msg}");
        assert!(msg.contains("known protocols"), "{msg}");
    }

    #[test]
    fn new_variants_carry_policies() {
        assert_eq!(
            ProtocolSpec::POP_CACHE.cache(),
            CachePolicy::PopularityRanked { capacity: 8 }
        );
        assert_eq!(
            ProtocolSpec::DIFFUSE_REP.replication(),
            ReplicationPolicy::Diffusion
        );
        let small = ProtocolSpec::POP_CACHE
            .with_cache("PopCache-4", CachePolicy::PopularityRanked { capacity: 4 });
        assert_eq!(small.name(), "PopCache-4");
        assert!(small.distributes_queries());
    }

    #[test]
    fn edit_distance_basics() {
        assert_eq!(edit_distance("mbt", "mbt"), 0);
        assert_eq!(edit_distance("mbtq", "mbtqm"), 1);
        assert_eq!(edit_distance("", "abc"), 3);
    }
}
