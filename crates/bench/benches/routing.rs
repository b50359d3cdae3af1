//! Routing-baseline benchmarks: each store-carry-forward protocol over the
//! DieselNet-style trace, plus the space-time oracle bound computation.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use dtn_routing::protocols::{DirectDelivery, Epidemic, Prophet, SprayAndWait};
use dtn_routing::sim::{uniform_messages, RoutingSim};
use dtn_trace::generators::DieselNetConfig;
use dtn_trace::{SimDuration, SimTime};
use mbt_experiments::routing::dissemination_bound;
use mbt_experiments::{RunContext, Scale};
use std::hint::black_box;

fn bench_protocols(c: &mut Criterion) {
    let trace = DieselNetConfig::new(16, 5).seed(9).generate();
    let nodes = trace.nodes();
    let horizon = trace.end_time().unwrap_or(SimTime::from_secs(1));
    let mut rng = dtn_sim::rng::stream(9, "bench-routing");
    let msgs = uniform_messages(
        &nodes,
        80,
        horizon,
        Some(SimDuration::from_days(2)),
        &mut rng,
    );

    let mut group = c.benchmark_group("routing_protocols");
    group.sample_size(20);
    group.bench_with_input(BenchmarkId::from_parameter("epidemic"), &msgs, |b, msgs| {
        b.iter(|| black_box(RoutingSim::new(&trace, Epidemic::new()).run(msgs.clone())));
    });
    group.bench_with_input(BenchmarkId::from_parameter("prophet"), &msgs, |b, msgs| {
        b.iter(|| black_box(RoutingSim::new(&trace, Prophet::new()).run(msgs.clone())));
    });
    group.bench_with_input(
        BenchmarkId::from_parameter("spray_and_wait"),
        &msgs,
        |b, msgs| {
            b.iter(|| black_box(RoutingSim::new(&trace, SprayAndWait::new(8)).run(msgs.clone())));
        },
    );
    group.bench_with_input(BenchmarkId::from_parameter("direct"), &msgs, |b, msgs| {
        b.iter(|| black_box(RoutingSim::new(&trace, DirectDelivery::new()).run(msgs.clone())));
    });
    group.finish();
}

fn bench_dissemination_bound(c: &mut Criterion) {
    let mut group = c.benchmark_group("dissemination_bound");
    group.sample_size(10);
    group.bench_function("oracle_bound_quick", |b| {
        b.iter(|| black_box(dissemination_bound(&mut RunContext::new(Scale::Quick))));
    });
    group.finish();
}

criterion_group!(benches, bench_protocols, bench_dissemination_bound);
criterion_main!(benches);
