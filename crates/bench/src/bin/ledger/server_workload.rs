//! `server_storm`: a closed-loop single client against one `MetadataServer`.
//!
//! The corpus and operation mix follow the shape of the repository's own
//! server bench (three-token names over a shared vocabulary, Zipf(0.8)
//! popularity and query skew) but are generated here, so the ledger does
//! not depend on `mbt_experiments::perf`.

use std::path::Path;
use std::time::{Duration, Instant};

use dtn_sim::rng::{derive_seed, stream};
use dtn_trace::{NodeId, SimDuration, SimTime};
use mbt_core::{Metadata, MetadataServer, Popularity, Query, Uri};
use rand::Rng;

use crate::run::{Bench, Layers, Outcome};
use crate::spans::{Recorder, SpanId};
use crate::stats::{median, Digest};

const SHARDS: usize = 8;
const ZIPF_S: f64 = 0.8;
const SEARCH_LIMIT: usize = 10;
const MAINTENANCE_ROUNDS: u64 = 10;

pub struct ServerStorm;

pub struct ServerInput {
    server: MetadataServer,
    /// Cumulative Zipf weights over the corpus ranks.
    zipf: Vec<f64>,
    vocab: u64,
    records: u64,
    ops: u64,
    seed: u64,
    build: Duration,
}

/// Vocabulary for a corpus of `records`: ~24 records per posting list for
/// small corpora, capped so a large corpus keeps triple-digit lists.
fn vocabulary(records: u64) -> u64 {
    (records / 8).clamp(32, 16_384)
}

fn file_uri(idx: u64) -> Uri {
    Uri::new(format!("mbt://bench/file-{idx}")).expect("static scheme")
}

/// Record `idx`: three vocabulary tokens, Zipf popularity by rank, and a TTL
/// on every 20th record so expiry has work.
fn record(idx: u64, vocab: u64, rng: &mut impl Rng) -> (Metadata, Popularity) {
    let tokens: [u64; 3] = std::array::from_fn(|_| rng.gen_range(0..vocab));
    let name = format!("kw{} kw{} kw{}", tokens[0], tokens[1], tokens[2]);
    let mut builder = Metadata::builder(name, "FOX", file_uri(idx));
    if idx.is_multiple_of(20) {
        builder = builder.ttl(SimDuration::from_hours(1 + idx % 24));
    }
    let popularity = 1.0 / ((idx + 1) as f64).powf(ZIPF_S);
    (builder.build(), Popularity::new(popularity))
}

fn sample_zipf(cumulative: &[f64], rng: &mut impl Rng) -> u64 {
    let total = *cumulative.last().expect("non-empty corpus");
    let x = rng.gen_range(0.0..total);
    cumulative.partition_point(|&c| c <= x) as u64
}

/// The operation classes of the storm, as the span names of their layers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Op {
    Search,
    Publish,
    RecordRequest,
    SetPopularity,
    Maintenance,
}

/// What the storm hands each operation to for timing. The untraced run
/// times searches only (their latency is an end-to-end metric); the traced
/// run times every class.
trait OpClock {
    fn run<R>(&mut self, op: Op, f: impl FnOnce() -> R) -> R;
}

#[derive(Default)]
struct SearchClock {
    search_ns: Vec<u64>,
}

impl OpClock for SearchClock {
    fn run<R>(&mut self, op: Op, f: impl FnOnce() -> R) -> R {
        if op != Op::Search {
            return f();
        }
        let started = Instant::now();
        let out = f();
        self.search_ns.push(started.elapsed().as_nanos() as u64);
        out
    }
}

#[derive(Default)]
struct FullClock {
    search: Duration,
    publish_ns: Vec<u64>,
    record_request: Duration,
    set_popularity: Duration,
    maintenance_ns: Vec<u64>,
}

impl OpClock for FullClock {
    fn run<R>(&mut self, op: Op, f: impl FnOnce() -> R) -> R {
        let started = Instant::now();
        let out = f();
        let elapsed = started.elapsed();
        match op {
            Op::Search => self.search += elapsed,
            Op::Publish => self.publish_ns.push(elapsed.as_nanos() as u64),
            Op::RecordRequest => self.record_request += elapsed,
            Op::SetPopularity => self.set_popularity += elapsed,
            Op::Maintenance => self.maintenance_ns.push(elapsed.as_nanos() as u64),
        }
        out
    }
}

/// Deterministic tallies of one storm.
#[derive(Debug, Default, PartialEq)]
struct StormCounts {
    searches: u64,
    hits: u64,
    publishes: u64,
    expired: u64,
    digest: u64,
}

/// The storm: per 20 ops, 14 searches, 1 fresh publish, 1 republish, 3
/// request recordings, 1 popularity update; `refresh_popularities` +
/// `expire` ten times a run. The simulated clock spans ~28 h whatever the
/// op count, so TTLs lapse and the estimator window slides mid-run.
fn storm(input: &mut ServerInput, clock: &mut impl OpClock) -> StormCounts {
    let ServerInput {
        server,
        zipf,
        vocab,
        records,
        ops,
        seed,
        ..
    } = input;
    let (vocab, ops) = (*vocab, *ops);
    let mut rng = stream(derive_seed(&[*seed, 2]), "ledger-server-driver");
    let mut counts = StormCounts::default();
    let mut digest = Digest::new();
    let mut fresh = *records;
    let maintenance_every = (ops / MAINTENANCE_ROUNDS).max(1);
    let sim_step = (100_000 / ops).max(1);
    for op in 0..ops {
        let now = SimTime::from_secs(op * sim_step);
        match op % 20 {
            0 | 1 => {
                let idx = if op % 20 == 0 {
                    fresh += 1;
                    fresh - 1
                } else {
                    sample_zipf(zipf, &mut rng)
                };
                let (meta, popularity) = record(idx, vocab, &mut rng);
                clock.run(Op::Publish, || server.publish(meta, popularity));
                counts.publishes += 1;
            }
            2..=4 => {
                let uri = file_uri(sample_zipf(zipf, &mut rng));
                let node = NodeId::new(rng.gen_range(0..100u32));
                clock.run(Op::RecordRequest, || server.record_request(&uri, node, now));
            }
            5 => {
                let uri = file_uri(sample_zipf(zipf, &mut rng));
                let popularity = Popularity::new(rng.gen_range(0.0..1.0));
                clock.run(Op::SetPopularity, || {
                    server.set_popularity(&uri, popularity)
                });
            }
            _ => {
                let t1 = rng.gen_range(0..vocab);
                let text = if rng.gen_range(0..4u32) != 0 {
                    format!("kw{t1} kw{}", rng.gen_range(0..vocab))
                } else {
                    format!("kw{t1}")
                };
                let query = Query::new(text).expect("vocabulary tokens are valid");
                let results = clock.run(Op::Search, || server.search(&query, SEARCH_LIMIT));
                counts.searches += 1;
                counts.hits += results.len() as u64;
                digest.u64(results.len() as u64);
                for meta in results {
                    digest.bytes(meta.uri().as_str().as_bytes());
                }
            }
        }
        if (op + 1) % maintenance_every == 0 {
            counts.expired += clock.run(Op::Maintenance, || {
                server.refresh_popularities(now);
                server.expire(now) as u64
            });
        }
    }
    digest.u64(counts.hits);
    digest.u64(server.len() as u64);
    counts.digest = digest.0;
    counts
}

impl Bench for ServerStorm {
    type Input = ServerInput;

    const NAME: &'static str = "server_storm";
    const WHY: &'static str = "reads beside writes on one sharded index, no simulator code: a \
        search-side win that slows publish, expiry or refresh is caught";
    const EVENT: &'static str = "op";
    const NOMINAL_BODY_S: f64 = 9.0;
    const BODY_CONSUMES_INPUT: bool = true;

    fn setup(seed: u64, smoke: bool, _scratch: &Path) -> Result<ServerInput, String> {
        let (records, ops) = if smoke {
            (400, 2_000)
        } else {
            (200_000, 100_000)
        };
        let vocab = vocabulary(records);
        let started = Instant::now();
        let mut rng = stream(derive_seed(&[seed, 1]), "ledger-server-corpus");
        let mut server = MetadataServer::with_shards(100, SHARDS);
        for idx in 0..records {
            let (meta, popularity) = record(idx, vocab, &mut rng);
            server.publish(meta, popularity);
        }
        let build = started.elapsed();
        let mut total = 0.0;
        let zipf = (1..=records)
            .map(|rank| {
                total += 1.0 / (rank as f64).powf(ZIPF_S);
                total
            })
            .collect();
        Ok(ServerInput {
            server,
            zipf,
            vocab,
            records,
            ops,
            seed,
            build,
        })
    }

    fn body(input: &mut ServerInput) -> Outcome {
        let mut clock = SearchClock::default();
        let counts = storm(input, &mut clock);
        Outcome {
            events: input.ops,
            digest: counts.digest,
            inner_ops: input.ops,
            search_ns: clock.search_ns,
            ..Outcome::default()
        }
    }

    fn traced(
        input: &mut ServerInput,
        reference: &Outcome,
        rec: &mut Recorder,
        root: SpanId,
    ) -> (Layers, Vec<String>) {
        let mut clock = FullClock::default();
        let counts = storm(input, &mut clock);
        rec.close(root);
        let sum_ns = |ns: &[u64]| Duration::from_nanos(ns.iter().sum());
        rec.aggregate("server.search", root, clock.search);
        rec.aggregate("server.publish", root, sum_ns(&clock.publish_ns));
        rec.aggregate("server.record_request", root, clock.record_request);
        rec.aggregate("server.set_popularity", root, clock.set_popularity);
        rec.aggregate("server.maintenance", root, sum_ns(&clock.maintenance_ns));

        let mut violations = Vec::new();
        if counts.digest != reference.digest {
            violations.push("traced search answers differ from untraced".to_string());
        }

        let median_of = |ns: &[u64], per: f64| {
            let scaled: Vec<f64> = ns.iter().map(|&n| n as f64 / per).collect();
            median(&scaled).unwrap_or(0.0)
        };
        let snapshot_us: Vec<f64> = (0..5)
            .map(|_| {
                let (_snapshot, took) =
                    rec.time("probe.server_snapshot", None, || input.server.snapshot());
                took.as_secs_f64() * 1e6
            })
            .collect();
        let layers = Layers::from([
            (
                "server.build.records_per_s",
                input.records as f64 / input.build.as_secs_f64(),
            ),
            ("server.search.count", counts.searches as f64),
            (
                "server.search.hits_per_search",
                counts.hits as f64 / counts.searches.max(1) as f64,
            ),
            ("server.publish.count", counts.publishes as f64),
            ("server.publish.p50_us", median_of(&clock.publish_ns, 1e3)),
            (
                "server.maintenance.count",
                clock.maintenance_ns.len() as f64,
            ),
            (
                "server.maintenance.p50_ms",
                median_of(&clock.maintenance_ns, 1e6),
            ),
            ("server.maintenance.expired", counts.expired as f64),
            ("server.snapshot.us", median(&snapshot_us).unwrap_or(0.0)),
        ]);
        (layers, violations)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn storm_mix_and_clocks_agree() {
        let scratch = Path::new("unused");
        let mut a = ServerStorm::setup(7, true, scratch).unwrap();
        let mut b = ServerStorm::setup(7, true, scratch).unwrap();
        let (mut lean, mut full) = (SearchClock::default(), FullClock::default());
        let untraced = storm(&mut a, &mut lean);
        let traced = storm(&mut b, &mut full);
        assert_eq!(untraced, traced, "the clock must not change the storm");
        assert_eq!(untraced.searches, 1_400, "70% of 2000 ops");
        assert_eq!(untraced.publishes, 200, "10%");
        assert_eq!(lean.search_ns.len(), 1_400);
        assert_eq!(full.publish_ns.len(), 200);
        assert_eq!(full.maintenance_ns.len(), MAINTENANCE_ROUNDS as usize);
        assert!(untraced.hits > 0, "the vocabulary is sized so searches hit");
        assert!(untraced.expired > 0, "TTLs lapse mid-run");
        let other = storm(
            &mut ServerStorm::setup(8, true, scratch).unwrap(),
            &mut lean,
        );
        assert_ne!(other.digest, untraced.digest, "the seed drives the input");
    }
}
