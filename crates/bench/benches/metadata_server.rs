//! The sharded metadata server, isolated.
//!
//! `sweep_throughput` and the figure benches exercise the server only as a
//! side effect of simulated internet sessions; this bench drives it
//! directly at {10³, 10⁴, 10⁵} records × {1, 8} shards so the cost of the
//! partitioning itself is visible: `search` and `publish` should be flat
//! across shard counts (the query core touches one token shard per token
//! either way), while `refresh_popularities` and `snapshot` show the
//! per-shard structure (in-place value walks and Arc bumps respectively).
//!
//! Corpus and queries mirror the generator shape of the `ledger`
//! benchmark's `server_storm` workload — three vocabulary tokens per record
//! name — but scaled down and fully inlined so the bench has no dependency
//! on the experiment harness.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use dtn_trace::{NodeId, SimTime};
use mbt_core::server::ShardedMetadataServer;
use mbt_core::{Metadata, Popularity, Query, Uri};
use std::hint::black_box;

const RECORD_COUNTS: [usize; 3] = [1_000, 10_000, 100_000];
const SHARD_COUNTS: [usize; 2] = [1, 8];
const VOCAB: usize = 512;

fn record(idx: usize) -> (Metadata, Popularity) {
    let (t1, t2, t3) = (
        (idx * 7) % VOCAB,
        (idx * 13 + 5) % VOCAB,
        (idx * 31 + 11) % VOCAB,
    );
    let uri = Uri::new(format!("mbt://bench/file-{idx}")).unwrap();
    let meta = Metadata::builder(format!("kw{t1} kw{t2} kw{t3}"), "FOX", uri).build();
    (meta, Popularity::new(1.0 / (idx + 1) as f64))
}

fn seeded(records: usize, shards: usize) -> ShardedMetadataServer {
    let mut server = ShardedMetadataServer::with_shards(50, shards);
    for idx in 0..records {
        let (m, p) = record(idx);
        server.publish(m, p);
    }
    // A few requested URIs so refresh has estimator work, like production.
    let t = SimTime::from_secs(100);
    for idx in 0..16 {
        let uri = Uri::new(format!("mbt://bench/file-{idx}")).unwrap();
        server.record_request(&uri, NodeId::new(idx as u32), t);
    }
    server
}

fn queries() -> Vec<Query> {
    (0..64)
        .map(|i| {
            let t1 = (i * 97) % VOCAB;
            if i % 4 == 0 {
                Query::new(format!("kw{t1}")).unwrap()
            } else {
                let t2 = (i * 41 + 3) % VOCAB;
                Query::new(format!("kw{t1} kw{t2}")).unwrap()
            }
        })
        .collect()
}

fn bench_publish(c: &mut Criterion) {
    let mut group = c.benchmark_group("server_publish");
    for &records in &RECORD_COUNTS[..2] {
        for &shards in &SHARD_COUNTS {
            group.throughput(Throughput::Elements(records as u64));
            group.bench_function(BenchmarkId::new(format!("shards{shards}"), records), |b| {
                b.iter(|| black_box(seeded(records, shards)).len());
            });
        }
    }
    group.finish();
}

fn bench_search(c: &mut Criterion) {
    let mut group = c.benchmark_group("server_search");
    let queries = queries();
    for &records in &RECORD_COUNTS {
        for &shards in &SHARD_COUNTS {
            let server = seeded(records, shards);
            group.throughput(Throughput::Elements(queries.len() as u64));
            group.bench_function(BenchmarkId::new(format!("shards{shards}"), records), |b| {
                b.iter(|| {
                    let mut hits = 0usize;
                    for q in &queries {
                        hits += server.search(black_box(q), 10).len();
                    }
                    black_box(hits)
                });
            });
        }
    }
    group.finish();
}

fn bench_refresh(c: &mut Criterion) {
    let mut group = c.benchmark_group("server_refresh");
    let now = SimTime::from_secs(2_000);
    for &records in &RECORD_COUNTS {
        for &shards in &SHARD_COUNTS {
            let mut server = seeded(records, shards);
            server.refresh_popularities(now); // settle first-walk churn
            group.throughput(Throughput::Elements(records as u64));
            group.bench_function(BenchmarkId::new(format!("shards{shards}"), records), |b| {
                b.iter(|| server.refresh_popularities(black_box(now)));
            });
        }
    }
    group.finish();
}

fn bench_snapshot(c: &mut Criterion) {
    // Snapshot cost is O(shards) Arc clones, independent of record count —
    // the reason the storm's readers can freeze views at query rate.
    let mut group = c.benchmark_group("server_snapshot");
    let queries = queries();
    for &shards in &SHARD_COUNTS {
        let server = seeded(RECORD_COUNTS[2], shards);
        group.bench_function(BenchmarkId::new("freeze", shards), |b| {
            b.iter(|| black_box(server.snapshot()).len());
        });
        group.bench_function(BenchmarkId::new("freeze_and_search", shards), |b| {
            b.iter(|| {
                let snap = server.snapshot();
                let mut hits = 0usize;
                for q in queries.iter().take(8) {
                    hits += snap.search(black_box(q), 10).len();
                }
                black_box(hits)
            });
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_publish,
    bench_search,
    bench_refresh,
    bench_snapshot
);
criterion_main!(benches);
