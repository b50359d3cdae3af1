//! Discovery benchmarks: tokenization and metadata send-ordering
//! (cooperative and tit-for-tat). Server search is the ledger's
//! `server.search.*`, on a corpus 200 times the size the bench here used.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use dtn_trace::NodeId;
use mbt_core::discovery::{cooperative, tft, MetadataOffer};
use mbt_core::keyword::tokenize;
use mbt_core::{CreditLedger, Metadata, Popularity, Query, Uri};
use std::hint::black_box;

fn corpus(n: usize) -> Vec<Metadata> {
    (0..n)
        .map(|i| {
            Metadata::builder(
                format!("show{i} episode {} season {}", i % 20, i % 5),
                ["FOX", "ABC", "CBS"][i % 3],
                Uri::new(format!("mbt://pub/{i}")).unwrap(),
            )
            .description(format!("daily release number {i} with extras"))
            .build()
        })
        .collect()
}

fn bench_tokenize(c: &mut Criterion) {
    let text = "The Late-Night Show, season 4 episode 12: a very special guest appears";
    c.bench_function("tokenize_sentence", |b| {
        b.iter(|| black_box(tokenize(black_box(text))));
    });
}

fn bench_send_order(c: &mut Criterion) {
    let metas = corpus(500);
    let queries: Vec<(NodeId, Query)> = (0..10)
        .map(|i| {
            (
                NodeId::new(i),
                Query::new(format!("show{}", i * 37)).unwrap(),
            )
        })
        .collect();
    let mut ledger = CreditLedger::new();
    for i in 0..10 {
        for _ in 0..i {
            ledger.reward_matched(NodeId::new(i));
        }
    }
    let mut group = c.benchmark_group("metadata_send_order");
    for &budget in &[10usize, 100] {
        group.bench_with_input(
            BenchmarkId::new("cooperative", budget),
            &budget,
            |b, &budget| {
                b.iter(|| {
                    let offers: Vec<MetadataOffer<'_>> = metas
                        .iter()
                        .enumerate()
                        .map(|(i, m)| {
                            MetadataOffer::build(
                                m,
                                Popularity::new((i % 100) as f64 / 100.0),
                                &queries,
                            )
                        })
                        .collect();
                    black_box(cooperative::send_order(offers, budget))
                });
            },
        );
        group.bench_with_input(
            BenchmarkId::new("tit_for_tat", budget),
            &budget,
            |b, &budget| {
                b.iter(|| {
                    let offers: Vec<MetadataOffer<'_>> = metas
                        .iter()
                        .enumerate()
                        .map(|(i, m)| {
                            MetadataOffer::build(
                                m,
                                Popularity::new((i % 100) as f64 / 100.0),
                                &queries,
                            )
                        })
                        .collect();
                    black_box(tft::send_order(offers, &ledger, budget))
                });
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_tokenize, bench_send_order);
criterion_main!(benches);
