//! One benchmark per reproduced table/figure, at quick scale — regenerating
//! the paper's series end-to-end so `cargo bench` exercises every
//! experiment: Fig 2(a)–(e), Fig 3(a)–(f), and the §V capacity analysis.
//!
//! The full-scale series behind `EXPERIMENTS.md` come from
//! `mbt experiment all`.

use criterion::{criterion_group, criterion_main, Criterion};
use mbt_experiments::capacity::capacity_table;
use mbt_experiments::figures::{self, RunContext, Scale};
use std::hint::black_box;

fn bench_fig2(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig2");
    group.sample_size(10);
    group.bench_function("fig2a", |b| {
        b.iter(|| black_box(figures::fig2a(&mut RunContext::new(Scale::Quick))))
    });
    group.bench_function("fig2b", |b| {
        b.iter(|| black_box(figures::fig2b(&mut RunContext::new(Scale::Quick))))
    });
    group.bench_function("fig2c", |b| {
        b.iter(|| black_box(figures::fig2c(&mut RunContext::new(Scale::Quick))))
    });
    group.bench_function("fig2d", |b| {
        b.iter(|| black_box(figures::fig2d(&mut RunContext::new(Scale::Quick))))
    });
    group.bench_function("fig2e", |b| {
        b.iter(|| black_box(figures::fig2e(&mut RunContext::new(Scale::Quick))))
    });
    group.finish();
}

fn bench_fig3(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig3");
    group.sample_size(10);
    group.bench_function("fig3a", |b| {
        b.iter(|| black_box(figures::fig3a(&mut RunContext::new(Scale::Quick))))
    });
    group.bench_function("fig3b", |b| {
        b.iter(|| black_box(figures::fig3b(&mut RunContext::new(Scale::Quick))))
    });
    group.bench_function("fig3c", |b| {
        b.iter(|| black_box(figures::fig3c(&mut RunContext::new(Scale::Quick))))
    });
    group.bench_function("fig3d", |b| {
        b.iter(|| black_box(figures::fig3d(&mut RunContext::new(Scale::Quick))))
    });
    group.bench_function("fig3e", |b| {
        b.iter(|| black_box(figures::fig3e(&mut RunContext::new(Scale::Quick))))
    });
    group.bench_function("fig3f", |b| {
        b.iter(|| black_box(figures::fig3f(&mut RunContext::new(Scale::Quick))))
    });
    group.finish();
}

fn bench_capacity(c: &mut Criterion) {
    c.bench_function("capacity_table_n20", |b| {
        b.iter(|| black_box(capacity_table(20, 10_000)));
    });
}

criterion_group!(benches, bench_fig2, bench_fig3, bench_capacity);
criterion_main!(benches);
