//! The paper's simulation workload (§VI-A).
//!
//! "A number n of new files are generated on the Internet everyday at noon,
//! all of which have a time-to-live (TTL). Each file is generated with a
//! popularity p, which is the probability that each node is interested in
//! this file. At the same time, each node generates queries for these new
//! files according to their popularity." Popularities are drawn from the
//! truncated-exponential density `λe^{-λx}` with `λ = n/2`, so each node
//! generates about two queries per day.

use dtn_trace::{SimDuration, SimTime, SECONDS_PER_DAY};
use mbt_core::auth::{sign, KeyRegistry, PublisherKey};
use mbt_core::popularity::{lambda_for_files_per_day, sample_popularity};
use mbt_core::{Metadata, Popularity, Query, Uri};
use rand::rngs::StdRng;
use rand::Rng;

/// Master secret the workload's publisher keys derive from.
const PUBLISHER_MASTER: &[u8] = b"mbt-workload-publishers";

/// Master secret for the adversary forging fake metadata.
const ATTACKER_MASTER: &[u8] = b"mbt-workload-attacker";

/// Second-of-day at which the daily batch is published (noon).
pub const PUBLISH_SECOND_OF_DAY: u64 = 12 * 3_600;

/// The publishers files are attributed to ("well known organizations or
/// companies, such as FOX and ABC", §III-B).
pub const PUBLISHERS: [&str; 4] = ["FOX", "ABC", "CBS", "NBC"];

/// Workload parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadConfig {
    files_per_day: u32,
    ttl: SimDuration,
    lambda: f64,
}

impl WorkloadConfig {
    /// Creates a workload generating `files_per_day` new files per day, each
    /// living for `ttl_days` days, with the paper's `λ = n/2`.
    pub fn new(files_per_day: u32, ttl_days: u64) -> Self {
        WorkloadConfig {
            files_per_day,
            ttl: SimDuration::from_days(ttl_days),
            lambda: lambda_for_files_per_day(files_per_day),
        }
    }

    /// Overrides λ (the popularity-distribution parameter).
    ///
    /// # Panics
    ///
    /// Panics if `lambda <= 0`.
    pub fn lambda(mut self, lambda: f64) -> Self {
        assert!(lambda > 0.0, "lambda must be positive");
        self.lambda = lambda;
        self
    }

    /// New files per day.
    pub fn files_per_day(&self) -> u32 {
        self.files_per_day
    }

    /// File time-to-live.
    pub fn ttl(&self) -> SimDuration {
        self.ttl
    }

    /// The λ in use.
    pub fn lambda_value(&self) -> f64 {
        self.lambda
    }
}

/// One file generated by the workload.
#[derive(Debug, Clone)]
pub struct GeneratedFile {
    /// The file's URI.
    pub uri: Uri,
    /// The (signed-free) metadata record describing it.
    pub metadata: Metadata,
    /// The ground-truth popularity — the probability each node queries it.
    pub popularity: Popularity,
    /// The exact query text that matches this file and nothing else.
    pub query_text: String,
    /// [`query_text`](Self::query_text) as a query, tokenised once: every
    /// node that draws this file is handed a clone of this handle.
    pub query: Query,
}

/// The files published on one day, plus the instant they appear.
#[derive(Debug, Clone)]
pub struct DailyBatch {
    /// The day index (0-based).
    pub day: u64,
    /// The publish instant (noon of `day`).
    pub at: SimTime,
    /// The files.
    pub files: Vec<GeneratedFile>,
}

/// The publish instant (noon) of the given day.
pub fn publish_time(day: u64) -> SimTime {
    SimTime::from_secs(day * SECONDS_PER_DAY + PUBLISH_SECOND_OF_DAY)
}

/// Generates the batch of files for `day`.
///
/// File names contain a unique token (`fD<day>N<idx>`), so the generated
/// query matches exactly one file under the AND keyword semantics — the
/// one-to-one query/file mapping the evaluation measures delivery against.
pub fn generate_batch(config: &WorkloadConfig, day: u64, rng: &mut StdRng) -> DailyBatch {
    let at = publish_time(day);
    let mut files = Vec::with_capacity(config.files_per_day as usize);
    for idx in 0..config.files_per_day {
        let token = format!("fd{day}n{idx}");
        let publisher = PUBLISHERS[(idx as usize) % PUBLISHERS.len()];
        let uri = Uri::new(format!(
            "mbt://{}/{}",
            publisher.to_ascii_lowercase(),
            token
        ))
        .expect("generated uri is valid");
        let popularity = sample_popularity(rng, config.lambda);
        let name = format!("{token} {publisher} daily release");
        let mut metadata = Metadata::builder(name, publisher, uri.clone())
            .description(format!("episode published on day {day}"))
            .sized(4 * 256 * 1024, 256 * 1024, Vec::new())
            .created(at)
            .ttl(config.ttl)
            .build();
        sign(
            &mut metadata,
            &PublisherKey::derive(PUBLISHER_MASTER, publisher),
        );
        files.push(GeneratedFile {
            uri,
            metadata,
            popularity,
            query: Query::new(token.as_str()).expect("generated queries are non-empty"),
            query_text: token,
        });
    }
    DailyBatch { day, at, files }
}

/// The registry holding every legitimate publisher's key — what a node
/// installs to reject fake-publisher metadata.
pub fn publisher_registry() -> KeyRegistry {
    let mut registry = KeyRegistry::new();
    for p in PUBLISHERS {
        registry.register(p, PublisherKey::derive(PUBLISHER_MASTER, p));
    }
    registry
}

/// Forges a fake advertisement for `real`: same searchable keywords (so it
/// matches the same queries), a different URI, a maximal popularity claim,
/// and a signature under the *attacker's* key — exactly the "fake files"
/// threat of §I. Verifying nodes reject it; naive nodes waste budget on it.
pub fn forge_fake(real: &GeneratedFile, variant: u32) -> GeneratedFile {
    let uri = Uri::new(format!("{}-fake{variant}", real.uri)).expect("forged uri is valid");
    let mut metadata =
        Metadata::builder(real.metadata.name(), real.metadata.publisher(), uri.clone())
            .description(real.metadata.description())
            .sized(real.metadata.size(), real.metadata.piece_size(), Vec::new())
            .created(real.metadata.created())
            .build();
    if let Some(expires) = real.metadata.expires() {
        let ttl = expires.duration_since(real.metadata.created());
        metadata = Metadata::builder(real.metadata.name(), real.metadata.publisher(), uri.clone())
            .description(real.metadata.description())
            .sized(real.metadata.size(), real.metadata.piece_size(), Vec::new())
            .created(real.metadata.created())
            .ttl(ttl)
            .build();
    }
    sign(
        &mut metadata,
        &PublisherKey::derive(ATTACKER_MASTER, real.metadata.publisher()),
    );
    GeneratedFile {
        uri,
        metadata,
        popularity: Popularity::MAX,
        query_text: real.query_text.clone(),
        query: real.query.clone(),
    }
}

/// Draws which of the batch's files one node queries for: each file is
/// queried with probability equal to its popularity. Returns `(file index,
/// query)` pairs. Nodes draw in turn from the one shared stream, so a
/// node's draws are fixed by its place in that order.
pub fn draw_queries(batch: &DailyBatch, rng: &mut StdRng) -> Vec<(usize, Query)> {
    batch
        .files
        .iter()
        .enumerate()
        .filter(|(_, f)| rng.gen::<f64>() < f.popularity.value())
        .map(|(i, f)| (i, f.query.clone()))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use dtn_sim::rng::stream;

    #[test]
    fn batch_has_requested_size_and_unique_uris() {
        let cfg = WorkloadConfig::new(20, 3);
        let mut rng = stream(1, "workload");
        let batch = generate_batch(&cfg, 2, &mut rng);
        assert_eq!(batch.files.len(), 20);
        assert_eq!(batch.day, 2);
        assert_eq!(batch.at.second_of_day(), PUBLISH_SECOND_OF_DAY);
        let uris: std::collections::BTreeSet<&str> =
            batch.files.iter().map(|f| f.uri.as_str()).collect();
        assert_eq!(uris.len(), 20);
    }

    #[test]
    fn metadata_expire_after_ttl() {
        let cfg = WorkloadConfig::new(5, 2);
        let mut rng = stream(2, "workload");
        let batch = generate_batch(&cfg, 0, &mut rng);
        let expires = batch.files[0].metadata.expires().unwrap();
        assert_eq!(expires, batch.at + SimDuration::from_days(2));
    }

    #[test]
    fn query_matches_exactly_its_file() {
        let cfg = WorkloadConfig::new(10, 3);
        let mut rng = stream(3, "workload");
        let batch = generate_batch(&cfg, 1, &mut rng);
        for (i, f) in batch.files.iter().enumerate() {
            let q = Query::new(f.query_text.clone()).unwrap();
            for (j, other) in batch.files.iter().enumerate() {
                assert_eq!(other.metadata.matches_query(&q), i == j);
            }
        }
    }

    #[test]
    fn queries_across_days_stay_distinct() {
        let cfg = WorkloadConfig::new(3, 3);
        let mut rng = stream(4, "workload");
        let day0 = generate_batch(&cfg, 0, &mut rng);
        let day1 = generate_batch(&cfg, 1, &mut rng);
        let q = Query::new(day0.files[0].query_text.clone()).unwrap();
        assert!(day1.files.iter().all(|f| !f.metadata.matches_query(&q)));
    }

    #[test]
    fn draw_queries_rate_tracks_popularity() {
        let cfg = WorkloadConfig::new(50, 3);
        let mut rng = stream(5, "workload");
        let batch = generate_batch(&cfg, 0, &mut rng);
        let mut total = 0usize;
        let trials = 400;
        for _ in 0..trials {
            total += draw_queries(&batch, &mut rng).len();
        }
        let mean = total as f64 / trials as f64;
        // λ = 25 ⇒ ≈ 2 queries/node/day.
        assert!((mean - 2.0).abs() < 0.5, "mean queries {mean}");
    }

    #[test]
    fn draws_hand_out_the_files_own_query() {
        let cfg = WorkloadConfig::new(50, 3);
        let mut rng = stream(6, "workload");
        let batch = generate_batch(&cfg, 0, &mut rng);
        let picks: Vec<(usize, Query)> = (0..40)
            .flat_map(|_| draw_queries(&batch, &mut rng))
            .collect();
        assert!(!picks.is_empty());
        for (i, query) in picks {
            assert_eq!(query, batch.files[i].query);
            assert_eq!(query.text(), batch.files[i].query_text);
        }
    }

    #[test]
    fn deterministic_given_stream() {
        let cfg = WorkloadConfig::new(10, 3);
        let a = generate_batch(&cfg, 0, &mut stream(7, "workload"));
        let b = generate_batch(&cfg, 0, &mut stream(7, "workload"));
        assert_eq!(a.files.len(), b.files.len());
        for (fa, fb) in a.files.iter().zip(&b.files) {
            assert_eq!(fa.uri, fb.uri);
            assert_eq!(fa.popularity, fb.popularity);
        }
    }

    #[test]
    fn publish_time_is_noon() {
        assert_eq!(publish_time(0).as_secs(), 12 * 3600);
        assert_eq!(publish_time(3).day(), 3);
    }

    #[test]
    #[should_panic(expected = "lambda")]
    fn bad_lambda_panics() {
        let _ = WorkloadConfig::new(10, 1).lambda(0.0);
    }

    #[test]
    fn generated_metadata_verify_against_registry() {
        let cfg = WorkloadConfig::new(5, 3);
        let mut rng = stream(9, "workload");
        let batch = generate_batch(&cfg, 0, &mut rng);
        let registry = publisher_registry();
        for f in &batch.files {
            assert!(registry.verify(&f.metadata).is_ok(), "{} unsigned", f.uri);
        }
    }

    #[test]
    fn forged_fakes_match_queries_but_fail_verification() {
        let cfg = WorkloadConfig::new(5, 3);
        let mut rng = stream(10, "workload");
        let batch = generate_batch(&cfg, 0, &mut rng);
        let registry = publisher_registry();
        for real in &batch.files {
            let fake = forge_fake(real, 0);
            assert_ne!(fake.uri, real.uri);
            let q = Query::new(real.query_text.clone()).unwrap();
            assert!(fake.metadata.matches_query(&q), "fake must lure the query");
            assert!(
                registry.verify(&fake.metadata).is_err(),
                "fake must not verify"
            );
            assert_eq!(fake.popularity, Popularity::MAX, "fakes claim popularity");
            assert_eq!(fake.metadata.expires(), real.metadata.expires());
        }
    }
}
