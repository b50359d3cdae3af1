//! Parallel, replicated sweep execution.
//!
//! The paper's Fig. 2/3 evaluations are parameter sweeps (internet fraction,
//! files/day, TTL, buffers) over three protocol variants. Run serially with
//! a single seed they are slow and report point estimates with no variance.
//! [`ParallelRunner`] fans every *(figure point × protocol × replicate)*
//! cell of a sweep out over a rayon thread pool and merges the per-replicate
//! results into mean/min/max/stddev summaries per [`SeriesPoint`].
//!
//! # Determinism contract
//!
//! Results are **bit-identical regardless of thread count or scheduling
//! order** because no randomness flows through the executor itself:
//!
//! - every cell derives its own seed as
//!   `derive_seed(&[master, point_idx, protocol_idx, replicate_idx])`, so a
//!   cell's seed depends only on its grid coordinates;
//! - the immutable [`TraceSource`] (an in-memory trace or an on-disk
//!   sharded trace) is shared via [`Arc`], never regenerated per cell;
//! - cell results are collected and reduced in grid order, never in
//!   completion order.
//!
//! `tests/parallel_determinism.rs` pins this contract: the same figure run
//! with `--jobs 1` and `--jobs 8` must render byte-identical CSV.
//!
//! Every sweep entry point takes an optional [`Telemetry`] sink as its last
//! argument: `None` runs the plain path (no telemetry work at all), `Some`
//! merges per-cell counters and phase spans **in grid order** so the
//! counters too are bit-identical for any worker count.

use std::sync::Arc;
use std::time::Instant;

use dtn_sim::rng::derive_seed;
use dtn_sim::telemetry::{Phase, Telemetry};
use dtn_trace::{ContactTrace, TraceSource};
use mbt_core::ProtocolSpec;
use rayon::prelude::*;
use rayon::{ThreadPool, ThreadPoolBuilder};

use crate::runner::{frequent_contacts, simulate, FrequentMap, SimParams, SimResult};
use crate::sweep::{Figure, ProtocolSeries, SeriesPoint};

/// How a sweep executes: worker count, replicate count, and the master seed
/// every cell seed is derived from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExecConfig {
    /// Worker threads; `0` means one per available core.
    pub jobs: usize,
    /// Independent replicate runs per (point, protocol) cell, read through
    /// [`ParallelRunner::replicates`]: `0` runs one. The grid is allocated up
    /// front; `mbt` refuses `0` and anything past 10 000 where it parses it.
    pub replicates: u32,
    /// Master seed: cell seeds are
    /// `derive_seed(&[master_seed, point_idx, protocol_idx, replicate_idx])`.
    pub master_seed: u64,
}

impl Default for ExecConfig {
    fn default() -> Self {
        ExecConfig {
            jobs: 0,
            replicates: 1,
            master_seed: 42,
        }
    }
}

impl ExecConfig {
    /// Single-threaded execution (identical results, no parallelism).
    pub fn serial() -> ExecConfig {
        ExecConfig {
            jobs: 1,
            ..ExecConfig::default()
        }
    }

    /// Sets the worker count (`0` = one per core).
    pub fn jobs(mut self, jobs: usize) -> ExecConfig {
        self.jobs = jobs;
        self
    }

    /// Sets the replicate count ([`ParallelRunner::replicates`] reads `0` as 1).
    pub fn replicates(mut self, replicates: u32) -> ExecConfig {
        self.replicates = replicates;
        self
    }

    /// Sets the master seed.
    pub fn master_seed(mut self, seed: u64) -> ExecConfig {
        self.master_seed = seed;
        self
    }
}

/// One executable cell of a sweep grid.
#[derive(Debug, Clone)]
struct Cell {
    point_idx: usize,
    source: Arc<dyn TraceSource>,
    params: SimParams,
}

/// Parallel sweep executor. See the module docs for the determinism
/// contract.
#[derive(Debug)]
pub struct ParallelRunner {
    cfg: ExecConfig,
    pool: ThreadPool,
    /// The protocol list every sweep expands its grid over, in series (and
    /// grid-index) order. Defaults to the paper's triad; a cell's grid
    /// indices derive its seed, so the triad keeps indices 0–2 in every
    /// grid.
    protocols: Vec<ProtocolSpec>,
}

impl ParallelRunner {
    /// Builds a runner (and its thread pool) for `cfg`, sweeping the default
    /// triad protocol list.
    pub fn new(cfg: ExecConfig) -> ParallelRunner {
        let pool = ThreadPoolBuilder::new()
            .num_threads(cfg.jobs)
            .build()
            .expect("thread pool construction cannot fail");
        ParallelRunner {
            cfg,
            pool,
            protocols: ProtocolSpec::TRIAD.to_vec(),
        }
    }

    /// Replaces the protocol list subsequent sweeps run over (one series per
    /// spec, in list order). Panics on an empty list — a sweep over no
    /// protocols has no grid.
    pub fn with_protocols(mut self, protocols: impl Into<Vec<ProtocolSpec>>) -> ParallelRunner {
        let protocols = protocols.into();
        assert!(!protocols.is_empty(), "sweep needs at least one protocol");
        self.protocols = protocols;
        self
    }

    /// The protocol list sweeps expand over.
    pub fn protocols(&self) -> &[ProtocolSpec] {
        &self.protocols
    }

    /// The effective replicate count (≥ 1).
    pub fn replicates(&self) -> u32 {
        self.cfg.replicates.max(1)
    }

    /// Runs `f` over `items` on this runner's pool, returning results in
    /// input order. The generic escape hatch for non-sweep workloads
    /// (ablations, progression) that still want deterministic parallelism.
    pub fn run_all<T: Sync, R: Send>(&self, items: &[T], f: impl Fn(&T) -> R + Sync) -> Vec<R> {
        self.pool.install(|| items.par_iter().map(f).collect())
    }

    /// Runs a sweep: `setup` produces the [`TraceSource`] and base parameters
    /// per x value (serially, in x order, charged to the trace-load span when
    /// observed), then every *(point × protocol × replicate)* cell is
    /// simulated on the pool, each source shared across its cells.
    pub fn sweep_sources<F>(
        &self,
        id: &str,
        title: &str,
        x_label: &str,
        xs: &[f64],
        mut setup: F,
        mut telemetry: Option<&mut Telemetry>,
    ) -> Figure
    where
        F: FnMut(f64) -> (Arc<dyn TraceSource>, SimParams),
    {
        let started = Instant::now();
        let prepared: Vec<(Arc<dyn TraceSource>, SimParams)> =
            xs.iter().map(|&x| setup(x)).collect();
        if let Some(tel) = telemetry.as_deref_mut() {
            tel.phases.add(Phase::TraceLoad, started.elapsed());
        }
        self.run_prepared(id, title, x_label, xs, &prepared, telemetry)
    }

    /// Like [`ParallelRunner::sweep_sources`] but with one fixed
    /// [`TraceSource`] shared by every x value — the common case when the swept parameter
    /// does not affect mobility.
    #[allow(clippy::too_many_arguments)] // mirrors sweep_sources()'s figure-metadata prefix
    pub fn sweep_shared_source<F>(
        &self,
        id: &str,
        title: &str,
        x_label: &str,
        xs: &[f64],
        source: Arc<dyn TraceSource>,
        mut params_for: F,
        telemetry: Option<&mut Telemetry>,
    ) -> Figure
    where
        F: FnMut(f64) -> SimParams,
    {
        let prepared: Vec<(Arc<dyn TraceSource>, SimParams)> = xs
            .iter()
            .map(|&x| (Arc::clone(&source), params_for(x)))
            .collect();
        self.run_prepared(id, title, x_label, xs, &prepared, telemetry)
    }

    /// Convenience wrapper over [`ParallelRunner::sweep_shared_source`] for
    /// an in-memory trace: the trace is cloned once into an [`Arc`], never
    /// per cell.
    #[allow(clippy::too_many_arguments)] // mirrors sweep_sources()'s figure-metadata prefix
    pub fn sweep_shared_trace<F>(
        &self,
        id: &str,
        title: &str,
        x_label: &str,
        xs: &[f64],
        trace: &ContactTrace,
        params_for: F,
        mut telemetry: Option<&mut Telemetry>,
    ) -> Figure
    where
        F: FnMut(f64) -> SimParams,
    {
        let started = Instant::now();
        let shared: Arc<dyn TraceSource> = Arc::new(trace.clone());
        if let Some(tel) = telemetry.as_deref_mut() {
            tel.phases.add(Phase::TraceLoad, started.elapsed());
        }
        self.sweep_shared_source(id, title, x_label, xs, shared, params_for, telemetry)
    }

    fn run_prepared(
        &self,
        id: &str,
        title: &str,
        x_label: &str,
        xs: &[f64],
        prepared: &[(Arc<dyn TraceSource>, SimParams)],
        mut telemetry: Option<&mut Telemetry>,
    ) -> Figure {
        let cells = self.build_cells(prepared);
        // The frequent-contact map is a function of (source, window) alone:
        // one a distinct pair, derived before the fan-out, for all its cells.
        let mut maps: Vec<Arc<FrequentMap>> = Vec::with_capacity(prepared.len());
        for (source, params) in prepared {
            let window = params.frequent_window;
            let same =
                |(s, p): &(_, SimParams)| Arc::ptr_eq(s, source) && p.frequent_window == window;
            maps.push(match prepared[..maps.len()].iter().position(same) {
                Some(earlier) => Arc::clone(&maps[earlier]),
                None => {
                    let sink = telemetry.as_deref_mut();
                    Arc::new(frequent_contacts(source.as_ref(), window, sink))
                }
            });
        }
        let traced = telemetry.is_some();
        let observed: Vec<(SimResult, Option<Telemetry>)> = self.run_all(&cells, |cell| {
            let mut cell_telemetry = traced.then(Telemetry::default);
            let (source, frequent) = (cell.source.as_ref(), &maps[cell.point_idx]);
            let result = simulate(source, &cell.params, frequent, cell_telemetry.as_mut());
            (result, cell_telemetry)
        });
        // run_all returns results in input (= grid) order, so merging here
        // keeps the counters bit-identical for any worker count; only the
        // wall-clock spans vary run to run.
        let mut results: Vec<SimResult> = Vec::with_capacity(observed.len());
        for (result, cell_telemetry) in observed {
            if let (Some(sink), Some(cell_telemetry)) = (telemetry.as_deref_mut(), cell_telemetry) {
                sink.merge(&cell_telemetry);
            }
            results.push(result);
        }
        let started = traced.then(Instant::now);
        let fig = reduce(
            id,
            title,
            x_label,
            xs,
            &self.protocols,
            self.replicates(),
            &cells,
            &results,
        );
        if let (Some(sink), Some(started)) = (telemetry, started) {
            sink.phases.add(Phase::Reduction, started.elapsed());
        }
        fig
    }

    /// Expands the prepared per-point inputs into the flat cell grid.
    fn build_cells(&self, prepared: &[(Arc<dyn TraceSource>, SimParams)]) -> Vec<Cell> {
        let replicates = self.replicates();
        let protocols = &self.protocols;

        // Grid order: point-major, then protocol, then replicate. The cell
        // at flat index ((point * n_protos) + proto) * replicates + rep is
        // fully determined by its coordinates, including its derived seed.
        let mut cells: Vec<Cell> =
            Vec::with_capacity(prepared.len() * protocols.len() * replicates as usize);
        for (point_idx, (source, base)) in prepared.iter().enumerate() {
            for (proto_idx, &protocol) in protocols.iter().enumerate() {
                for rep in 0..replicates {
                    let mut params = base.clone();
                    params.protocol = protocol;
                    params.seed = derive_seed(&[
                        self.cfg.master_seed,
                        point_idx as u64,
                        proto_idx as u64,
                        u64::from(rep),
                    ]);
                    // Fault streams get their own per-cell seed in a
                    // disjoint domain: derive_seed(&[master, point, proto,
                    // rep, FAULT_STREAM]); each fault kind then mixes in its
                    // own tag (see `dtn_sim::faults`). A noop plan keeps
                    // seed untouched so the cell stays byte-identical to a
                    // fault-free run.
                    if !params.faults.is_noop() {
                        params.faults = params.faults.seed(derive_seed(&[
                            self.cfg.master_seed,
                            point_idx as u64,
                            proto_idx as u64,
                            u64::from(rep),
                            dtn_sim::faults::FAULT_STREAM,
                        ]));
                    }
                    cells.push(Cell {
                        point_idx,
                        source: Arc::clone(source),
                        params,
                    });
                }
            }
        }
        cells
    }
}

/// Deterministic reduction in grid order.
#[allow(clippy::too_many_arguments)] // one call site, mirrors the grid axes
fn reduce(
    id: &str,
    title: &str,
    x_label: &str,
    xs: &[f64],
    protocols: &[ProtocolSpec],
    replicates: u32,
    cells: &[Cell],
    results: &[SimResult],
) -> Figure {
    let series: Vec<ProtocolSeries> = protocols
        .iter()
        .enumerate()
        .map(|(proto_idx, &protocol)| {
            let points: Vec<SeriesPoint> = xs
                .iter()
                .enumerate()
                .map(|(point_idx, &x)| {
                    let base = (point_idx * protocols.len() + proto_idx) * replicates as usize;
                    let replicate_results: Vec<SimResult> = (0..replicates as usize)
                        .map(|rep| {
                            debug_assert_eq!(cells[base + rep].point_idx, point_idx);
                            results[base + rep].clone()
                        })
                        .collect();
                    SeriesPoint::from_replicates(x, replicate_results)
                })
                .collect();
            ProtocolSeries { protocol, points }
        })
        .collect();

    Figure {
        id: id.to_string(),
        title: title.to_string(),
        x_label: x_label.to_string(),
        series,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dtn_trace::generators::NusConfig;

    fn quick_params(days: u64) -> SimParams {
        SimParams {
            files_per_day: 5,
            days,
            ..SimParams::default()
        }
    }

    fn run_with(cfg: ExecConfig) -> Figure {
        let trace = NusConfig::new(20, 5).seed(3).generate();
        ParallelRunner::new(cfg).sweep_shared_trace(
            "t",
            "t",
            "x",
            &[0.2, 0.6],
            &trace,
            |x| SimParams {
                internet_fraction: x,
                ..quick_params(5)
            },
            None,
        )
    }

    #[test]
    fn grid_is_complete() {
        let fig = run_with(ExecConfig::default());
        assert_eq!(fig.series.len(), ProtocolSpec::TRIAD.len());
        for s in &fig.series {
            assert_eq!(s.points.len(), 2);
            assert_eq!(s.points[0].x, 0.2);
            assert_eq!(s.points[1].x, 0.6);
        }
    }

    #[test]
    fn custom_protocol_list_expands_the_grid() {
        let trace = NusConfig::new(20, 5).seed(3).generate();
        let run = |cfg: ExecConfig| {
            ParallelRunner::new(cfg)
                .with_protocols(ProtocolSpec::builtin())
                .sweep_shared_trace(
                    "t",
                    "t",
                    "x",
                    &[0.3],
                    &trace,
                    |x| SimParams {
                        internet_fraction: x,
                        ..quick_params(5)
                    },
                    None,
                )
        };
        let fig = run(ExecConfig::serial());
        assert_eq!(fig.series.len(), ProtocolSpec::builtin().len());
        assert!(fig.series_for(ProtocolSpec::POP_CACHE).is_some());
        assert!(fig.series_for(ProtocolSpec::DIFFUSE_REP).is_some());
        // The determinism contract holds for any protocol list.
        assert_eq!(fig, run(ExecConfig::default().jobs(8)));
    }

    #[test]
    fn triad_prefix_of_wider_grids_keeps_legacy_seeds() {
        // Extending the protocol list appends series without disturbing the
        // triad's grid indices, so every legacy cell keeps its derived seed.
        let triad = run_with(ExecConfig::default());
        let trace = NusConfig::new(20, 5).seed(3).generate();
        let wide = ParallelRunner::new(ExecConfig::default())
            .with_protocols(ProtocolSpec::builtin())
            .sweep_shared_trace(
                "t",
                "t",
                "x",
                &[0.2, 0.6],
                &trace,
                |x| SimParams {
                    internet_fraction: x,
                    ..quick_params(5)
                },
                None,
            );
        assert_eq!(triad.series, wide.series[..3]);
    }

    #[test]
    fn jobs_do_not_change_results() {
        let serial = run_with(ExecConfig::serial());
        let parallel = run_with(ExecConfig::default().jobs(8));
        assert_eq!(serial, parallel);
    }

    #[test]
    fn telemetry_sink_does_not_change_the_figure() {
        let plain = run_with(ExecConfig::serial());
        let trace = NusConfig::new(20, 5).seed(3).generate();
        let mut telemetry = Telemetry::default();
        let observed = ParallelRunner::new(ExecConfig::serial()).sweep_shared_trace(
            "t",
            "t",
            "x",
            &[0.2, 0.6],
            &trace,
            |x| SimParams {
                internet_fraction: x,
                ..quick_params(5)
            },
            Some(&mut telemetry),
        );
        assert_eq!(plain, observed);
        assert!(telemetry.counters.contacts > 0);
        assert_eq!(telemetry.counters.shards_loaded, 0, "in-memory source");
        assert!(telemetry.counters.peak_resident_contacts > 0);
    }

    #[test]
    fn shared_source_matches_shared_trace() {
        let trace = NusConfig::new(20, 5).seed(3).generate();
        let runner = ParallelRunner::new(ExecConfig::serial());
        let params_for = |x| SimParams {
            internet_fraction: x,
            ..quick_params(5)
        };
        let by_trace =
            runner.sweep_shared_trace("t", "t", "x", &[0.2, 0.6], &trace, params_for, None);
        let shared: Arc<dyn TraceSource> = Arc::new(trace);
        let by_source =
            runner.sweep_shared_source("t", "t", "x", &[0.2, 0.6], shared, params_for, None);
        assert_eq!(by_trace, by_source);
    }

    #[test]
    fn replicates_populate_summaries() {
        let fig = run_with(ExecConfig::serial().replicates(3));
        for s in &fig.series {
            for p in &s.points {
                assert_eq!(p.metadata.n, 3);
                assert_eq!(p.file.n, 3);
                assert!(p.metadata.min <= p.metadata.mean);
                assert!(p.metadata.mean <= p.metadata.max);
                assert!(p.metadata.stddev >= 0.0);
                // Pooled counts: three replicates' queries accumulated.
                assert!(p.result.queries > 0);
            }
        }
    }

    #[test]
    fn faulty_cells_get_grid_derived_seeds_and_stay_deterministic() {
        use dtn_sim::FaultPlan;
        let trace = NusConfig::new(20, 5).seed(3).generate();
        let run = |cfg: ExecConfig| {
            ParallelRunner::new(cfg).sweep_shared_trace(
                "t",
                "t",
                "loss",
                &[0.25],
                &trace,
                |x| SimParams {
                    faults: FaultPlan::none().loss(x),
                    ..quick_params(5)
                },
                None,
            )
        };
        let serial = run(ExecConfig::serial());
        let parallel = run(ExecConfig::default().jobs(8));
        assert_eq!(serial, parallel);
        let lost: u64 = serial
            .series
            .iter()
            .map(|s| s.points[0].result.frames_lost)
            .sum();
        assert!(lost > 0, "loss plan should drop frames");
    }

    #[test]
    fn master_seed_changes_results() {
        let a = run_with(ExecConfig::serial());
        let b = run_with(ExecConfig::serial().master_seed(7));
        assert_ne!(a, b);
    }

    #[test]
    fn replicate_count_changes_spread_not_grid() {
        let one = run_with(ExecConfig::serial());
        let three = run_with(ExecConfig::serial().replicates(3));
        assert_eq!(one.series.len(), three.series.len());
        // Replicate 0 of each cell uses the same derived seed, so the first
        // replicate's contribution is shared; the summaries differ.
        for (s1, s3) in one.series.iter().zip(&three.series) {
            for (p1, p3) in s1.points.iter().zip(&s3.points) {
                assert_eq!(p1.metadata.n, 1);
                assert_eq!(p3.metadata.n, 3);
                assert!(p3.metadata.min <= p1.metadata_ratio + 1e-12);
                assert!(p3.metadata.max + 1e-12 >= p1.metadata_ratio);
            }
        }
    }
}
