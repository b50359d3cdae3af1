//! The concurrency contract of the metadata server: a rayon query storm —
//! worker threads hammering a snapshot (a clone of the server, sharing its
//! slab, keyword map and request log) with mixed searches while a writer thread
//! concurrently publishes, re-popularizes, refreshes, and expires on the
//! live server — produces a **deterministic, jobs-invariant digest**, and
//! every answer matches a serially-advanced [`ReferenceServer`] at the
//! snapshot's instant (i.e. no reader ever observes a torn in-between
//! state).
//!
//! The storm is round-structured: round `r` freezes a snapshot, then the
//! writer applies batch `r` *while* the readers drain the round's queries
//! against the frozen view. Because the snapshot pins round-start state, the
//! expected answers are exactly those of an oracle that has applied batches
//! `0..r` and nothing else — any torn read, lost posting, or slab/posting
//! inconsistency shows up as a digest mismatch.

use rayon::prelude::*;
use rayon::{ThreadPool, ThreadPoolBuilder};

use dtn_trace::{NodeId, SimDuration, SimTime};
use mbt_core::{Metadata, MetadataServer, Popularity, Query, Uri};

// The storm drives only the oracle's mutating surface and `search`.
#[allow(dead_code)]
#[path = "support/reference_server.rs"]
mod reference_server;
use reference_server::ReferenceServer;

const ROUNDS: usize = 10;
const QUERIES_PER_ROUND: usize = 1_000; // 10⁴ concurrent searches per storm
const SEED_RECORDS: usize = 600;
const SEARCH_LIMIT: usize = 8;

const TOKENS: [&str; 12] = [
    "fox", "news", "evening", "comedy", "sports", "weather", "tonight", "daily", "talk", "show",
    "live", "special",
];

fn fnv(h: u64, bytes: &[u8]) -> u64 {
    let mut h = h;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn uri(idx: usize) -> Uri {
    Uri::new(format!("mbt://storm/file-{idx}")).unwrap()
}

fn record(idx: usize) -> (Metadata, Popularity) {
    let name = format!(
        "{} {} {}",
        TOKENS[idx % 12],
        TOKENS[(idx / 12) % 12],
        TOKENS[(idx * 7 + 3) % 12]
    );
    let mut b = Metadata::builder(name, ["FOX", "ABC", "CBS"][idx % 3], uri(idx));
    if idx.is_multiple_of(5) {
        // A fifth of the corpus expires mid-storm so writer batches shrink
        // the server while readers hold older snapshots.
        b = b.ttl(SimDuration::from_hours(1 + (idx % 40) as u64));
    }
    (
        b.build(),
        Popularity::new(((idx * 37) % 100) as f64 / 100.0),
    )
}

fn round_time(round: usize) -> SimTime {
    SimTime::from_secs(round as u64 * 4 * 3_600)
}

/// The deterministic query mix: one- and two-token queries cycling over the
/// vocabulary, identical every round (state, not input, changes per round).
fn query_pool() -> Vec<Query> {
    (0..QUERIES_PER_ROUND)
        .map(|i| {
            let text = if i % 3 == 0 {
                TOKENS[i % 12].to_owned()
            } else {
                format!("{} {}", TOKENS[i % 12], TOKENS[(i / 3 + 1) % 12])
            };
            Query::new(text).unwrap()
        })
        .collect()
}

/// Writer batch `round`: publishes (fresh URIs and replacements),
/// popularity churn, request recording plus a daily-style refresh, and an
/// expiry pass — every mutating entry point, deterministically.
fn apply_batch(round: usize, ops: &mut dyn Ops) {
    let now = round_time(round);
    for k in 0..40 {
        let idx = SEED_RECORDS + round * 40 + k; // fresh
        let (m, p) = record(idx);
        ops.publish(m, p);
        let (m, p) = record((round * 31 + k * 7) % SEED_RECORDS); // replace
        ops.publish(m, p);
    }
    for k in 0..20 {
        let target = uri((round * 13 + k * 11) % SEED_RECORDS);
        ops.set_popularity(
            &target,
            Popularity::new(((round * 17 + k) % 100) as f64 / 100.0),
        );
        ops.record_request(&target, NodeId::new((k % 9) as u32), now);
    }
    ops.refresh(now);
    ops.expire(now);
}

/// The mutating surface shared by the live server and the oracle.
trait Ops {
    fn publish(&mut self, m: Metadata, p: Popularity);
    fn set_popularity(&mut self, uri: &Uri, p: Popularity);
    fn record_request(&mut self, uri: &Uri, node: NodeId, now: SimTime);
    fn refresh(&mut self, now: SimTime);
    fn expire(&mut self, now: SimTime);
}

impl Ops for MetadataServer {
    fn publish(&mut self, m: Metadata, p: Popularity) {
        MetadataServer::publish(self, m, p);
    }
    fn set_popularity(&mut self, uri: &Uri, p: Popularity) {
        MetadataServer::set_popularity(self, uri, p);
    }
    fn record_request(&mut self, uri: &Uri, node: NodeId, now: SimTime) {
        MetadataServer::record_request(self, uri, node, now);
    }
    fn refresh(&mut self, now: SimTime) {
        self.refresh_popularities(now);
    }
    fn expire(&mut self, now: SimTime) {
        MetadataServer::expire(self, now);
    }
}

impl Ops for ReferenceServer {
    fn publish(&mut self, m: Metadata, p: Popularity) {
        ReferenceServer::publish(self, m, p);
    }
    fn set_popularity(&mut self, uri: &Uri, p: Popularity) {
        ReferenceServer::set_popularity(self, uri, p);
    }
    fn record_request(&mut self, uri: &Uri, node: NodeId, now: SimTime) {
        ReferenceServer::record_request(self, uri, node, now);
    }
    fn refresh(&mut self, now: SimTime) {
        self.refresh_popularities(now);
    }
    fn expire(&mut self, now: SimTime) {
        ReferenceServer::expire(self, now);
    }
}

fn seeded_server() -> MetadataServer {
    let mut s = MetadataServer::new(9);
    for idx in 0..SEED_RECORDS {
        let (m, p) = record(idx);
        s.publish(m, p);
    }
    s
}

fn seeded_reference() -> ReferenceServer {
    let mut s = ReferenceServer::new(9);
    for idx in 0..SEED_RECORDS {
        let (m, p) = record(idx);
        s.publish(m, p);
    }
    s
}

/// One full storm: returns the digest over every concurrent search result,
/// folded in query order (the shim's `par_iter` preserves input order, so
/// the digest is a pure function of the answers — not of scheduling).
fn run_storm(pool: &ThreadPool) -> u64 {
    let mut server = seeded_server();
    let queries = query_pool();
    let mut digest: u64 = 0xcbf2_9ce4_8422_2325;
    for round in 0..ROUNDS {
        let snap = server.snapshot();
        let pre_len = snap.len();
        let now = round_time(round);
        let round_hashes: Vec<u64> = std::thread::scope(|scope| {
            let server = &mut server;
            let writer = scope.spawn(move || {
                apply_batch(round, server);
            });
            let hashes = pool.install(|| {
                queries
                    .par_iter()
                    .map(|q| {
                        let mut h = 0xcbf2_9ce4_8422_2325u64;
                        for m in snap.search(q, SEARCH_LIMIT) {
                            h = fnv(h, m.uri().as_str().as_bytes());
                            h = fnv(h, m.name().as_bytes());
                        }
                        h
                    })
                    .collect()
            });
            // One popularity ranking per round, concurrent with the
            // writer like the searches (per-query would be quadratic).
            let mut top = 0xcbf2_9ce4_8422_2325u64;
            for m in snap.most_popular(5, now) {
                top = fnv(top, m.uri().as_str().as_bytes());
            }
            writer.join().expect("writer thread panicked");
            digest = fnv(digest, &top.to_be_bytes());
            hashes
        });
        // The frozen view never moved while the writer ran.
        assert_eq!(snap.len(), pre_len, "snapshot length tore in round {round}");
        for h in round_hashes {
            digest = fnv(digest, &h.to_be_bytes());
        }
    }
    digest = fnv(digest, &server.len().to_be_bytes());
    digest
}

/// The oracle digest: the same rounds and queries, fully serial, answered by
/// the reference server frozen at each round boundary.
fn oracle_digest() -> u64 {
    let mut reference = seeded_reference();
    let queries = query_pool();
    let mut digest: u64 = 0xcbf2_9ce4_8422_2325;
    for round in 0..ROUNDS {
        let now = round_time(round);
        // Answers first (the snapshot state), then the batch.
        let round_hashes: Vec<u64> = queries
            .iter()
            .map(|q| {
                let mut h = 0xcbf2_9ce4_8422_2325u64;
                for m in reference.search(q, SEARCH_LIMIT) {
                    h = fnv(h, m.uri().as_str().as_bytes());
                    h = fnv(h, m.name().as_bytes());
                }
                h
            })
            .collect();
        let mut top = 0xcbf2_9ce4_8422_2325u64;
        for m in reference.most_popular(5, now) {
            top = fnv(top, m.uri().as_str().as_bytes());
        }
        digest = fnv(digest, &top.to_be_bytes());
        apply_batch(round, &mut reference);
        for h in round_hashes {
            digest = fnv(digest, &h.to_be_bytes());
        }
    }
    digest = fnv(digest, &reference.len().to_be_bytes());
    digest
}

#[test]
fn query_storm_digest_is_jobs_invariant_and_matches_the_serial_oracle() {
    // Two independent storms reproducing one digest double as a
    // bit-identical-repeat check.
    let expected = oracle_digest();
    for jobs in [2, 8] {
        let pool = ThreadPoolBuilder::new().num_threads(jobs).build().unwrap();
        assert_eq!(
            run_storm(&pool),
            expected,
            "storm digest with {jobs} worker threads diverged from the serial oracle"
        );
    }
}
