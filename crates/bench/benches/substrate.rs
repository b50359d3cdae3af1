//! Substrate benchmarks: event queue, trace generation, space-time
//! reachability.

use criterion::{criterion_group, criterion_main, Criterion};
use dtn_sim::EventQueue;
use dtn_trace::generators::{DieselNetConfig, NusConfig};
use dtn_trace::{NodeId, SimTime, SpaceTimeGraph, TraceStats};
use std::hint::black_box;

fn bench_event_queue(c: &mut Criterion) {
    c.bench_function("event_queue_push_pop_10k", |b| {
        b.iter(|| {
            let mut q = EventQueue::new();
            for i in 0..10_000u64 {
                q.push(SimTime::from_secs((i * 7919) % 100_000), i);
            }
            let mut count = 0;
            while q.pop().is_some() {
                count += 1;
            }
            black_box(count)
        });
    });
}

fn bench_trace_generation(c: &mut Criterion) {
    let mut group = c.benchmark_group("trace_generation");
    group.sample_size(10);
    group.bench_function("dieselnet_40_buses_15_days", |b| {
        b.iter(|| black_box(DieselNetConfig::new(40, 15).seed(1).generate()));
    });
    group.bench_function("nus_80_students_15_days", |b| {
        b.iter(|| black_box(NusConfig::new(80, 15).seed(1).generate()));
    });
    group.finish();
}

fn bench_trace_stats(c: &mut Criterion) {
    let trace = DieselNetConfig::new(30, 10).seed(2).generate();
    c.bench_function("trace_stats_with_frequent_contacts", |b| {
        b.iter(|| {
            let stats = TraceStats::compute(&trace);
            black_box(stats.frequent_contact_map(dtn_trace::stats::DIESELNET_FREQUENT_EVERY))
        });
    });
}

fn bench_space_time(c: &mut Criterion) {
    let trace = DieselNetConfig::new(20, 5).seed(3).generate();
    let graph = SpaceTimeGraph::new(&trace);
    c.bench_function("space_time_earliest_delivery", |b| {
        b.iter(|| black_box(graph.earliest_delivery(NodeId::new(0), SimTime::ZERO)));
    });
}

criterion_group!(
    benches,
    bench_event_queue,
    bench_trace_generation,
    bench_trace_stats,
    bench_space_time
);
criterion_main!(benches);
