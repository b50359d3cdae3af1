//! The per-contact matching hot path, isolated.
//!
//! `run_contact` matches every stored metadata record against every connected
//! peer's query strings at every contact (paper §IV-A); at sweep scale that
//! loop dominates wall clock. This bench drives a single clique contact at
//! {64, 512, 4096} stored records × {2, 8} members — entirely
//! single-threaded, so the measured speedup reflects the matching pipeline
//! itself (cached token sets, index-backed lookups, interned URIs) rather
//! than core count.
//!
//! Each iteration clones the prepared clique before running the contact;
//! snapshot cloning is part of the hot path being measured (the per-contact
//! member snapshots deep-copy the same state).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use dtn_trace::{NodeId, SimDuration, SimTime};
use mbt_core::node::run_contact;
use mbt_core::{MbtConfig, MbtNode, Metadata, Popularity, ProtocolKind, Query, Uri};
use std::hint::black_box;

const RECORD_COUNTS: [usize; 3] = [64, 512, 4096];
const CLIQUE_SIZES: [usize; 2] = [2, 8];

/// Deterministic synthetic catalog: `records` metadata records over a few
/// publishers, with names drawn from a small keyword pool so that peer
/// queries match a realistic fraction of the store.
fn catalog(records: usize) -> Vec<(Metadata, Popularity)> {
    const TOPICS: [&str; 8] = [
        "news", "comedy", "sports", "weather", "drama", "music", "talk", "film",
    ];
    const PUBLISHERS: [&str; 4] = ["FOX", "ABC", "CBS", "NBC"];
    (0..records)
        .map(|i| {
            let topic = TOPICS[i % TOPICS.len()];
            let publisher = PUBLISHERS[i % PUBLISHERS.len()];
            let uri = Uri::new(format!("mbt://{publisher}/{topic}/ep-{i}")).unwrap();
            let meta =
                Metadata::builder(format!("{publisher} {topic} episode {i}"), publisher, uri)
                    .description(format!("nightly {topic} broadcast number {i}"))
                    .build();
            let pop = Popularity::new(((i % 97) as f64 + 1.0) / 97.0);
            (meta, pop)
        })
        .collect()
}

/// One library node carrying the full catalog (metadata + files) plus
/// `clique - 1` querying peers, each wanting a handful of topics.
fn clique(records: usize, members: usize) -> Vec<MbtNode> {
    let catalog = catalog(records);
    let mut nodes: Vec<MbtNode> = (0..members)
        .map(|i| MbtNode::new(NodeId::new(i as u32), ProtocolKind::Mbt, MbtConfig::new()))
        .collect();
    for (meta, pop) in &catalog {
        nodes[0].seed_content(meta.clone(), *pop, true);
    }
    let _ = nodes[0].drain_events();
    let queries = [
        "fox news",
        "abc comedy",
        "cbs sports",
        "nbc weather",
        "drama",
        "music",
    ];
    for (i, node) in nodes.iter_mut().enumerate().skip(1) {
        for q in queries.iter().skip(i % 2).step_by(2) {
            node.add_query(Query::new(*q).unwrap(), None);
        }
    }
    nodes
}

fn bench_contact_hot_path(c: &mut Criterion) {
    let mut group = c.benchmark_group("contact_hot_path");
    for &records in &RECORD_COUNTS {
        for &members in &CLIQUE_SIZES {
            let nodes = clique(records, members);
            let member_idx: Vec<usize> = (0..members).collect();
            group.throughput(Throughput::Elements(records as u64));
            group.bench_function(
                BenchmarkId::new(format!("records_{records}"), format!("clique_{members}")),
                |b| {
                    b.iter(|| {
                        let mut fresh = nodes.clone();
                        black_box(run_contact(
                            &mut fresh,
                            &member_idx,
                            SimTime::from_secs(3600),
                            SimDuration::from_secs(300),
                        ))
                    })
                },
            );
        }
    }
    group.finish();
}

criterion_group!(benches, bench_contact_hot_path);
criterion_main!(benches);
