//! The experiment registry: one function per figure of the paper's
//! evaluation (§VI-B).
//!
//! Figure 2 (a)–(e) sweep five parameters on the DieselNet-style pair-wise
//! bus trace; Figure 3 (a)–(f) sweeps the same five plus attendance rate on
//! the NUS-style classroom clique trace. Each function takes a mutable
//! [`RunContext`] — the one knob bundle for scale, execution, trace backing
//! and telemetry — and returns a [`Figure`] holding one series per protocol
//! (MBT, MBT-Q, MBT-QM).
//!
//! ```no_run
//! use mbt_experiments::figures::{fig2a, RunContext, Scale};
//!
//! let mut ctx = RunContext::new(Scale::Quick);
//! let fig = fig2a(&mut ctx);
//! assert_eq!(fig.id, "fig2a");
//! ```
//!
//! The context decides *where the contacts live*: by default every figure
//! generates its trace in memory; [`RunContext::sharded`] redirects
//! generation into on-disk time-windowed shards which the sweep then
//! replays with bounded memory. The resulting figures are byte-identical
//! either way — the backing store is invisible to the simulation.

use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

use dtn_sim::telemetry::{Phase, Telemetry};
use dtn_sim::FaultPlan;
use dtn_trace::generators::{DieselNetConfig, NusConfig};
use dtn_trace::{ContactSink, ShardWriter, SimDuration, TraceBuilder, TraceSource};
use mbt_core::{MbtConfig, ProtocolSpec};

use crate::exec::{ExecConfig, ParallelRunner};
use crate::runner::SimParams;
use crate::sweep::Figure;

/// How big to run the experiments.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Scale {
    /// Small population / short horizon — for tests and benches.
    Quick,
    /// The full scale used for `EXPERIMENTS.md`.
    #[default]
    Full,
}

impl Scale {
    fn days(self) -> u64 {
        match self {
            Scale::Quick => 6,
            Scale::Full => 15,
        }
    }

    fn buses(self) -> u32 {
        match self {
            Scale::Quick => 16,
            Scale::Full => 40,
        }
    }

    fn students(self) -> u32 {
        match self {
            Scale::Quick => 30,
            Scale::Full => 80,
        }
    }

    fn xs(self, full: &[f64], quick: &[f64]) -> Vec<f64> {
        match self {
            Scale::Quick => quick.to_vec(),
            Scale::Full => full.to_vec(),
        }
    }
}

const SEED: u64 = 42;

/// Everything a figure run needs beyond its identity: the [`Scale`], the
/// execution config (jobs/replicates/master seed), where the generated
/// trace lives (in memory, or spilled to on-disk shards), and whether to
/// collect [`Telemetry`].
///
/// One context serves many figure calls; the accumulated telemetry is
/// merged across them and retrieved with [`RunContext::take_telemetry`].
///
/// The figure output is a pure function of `(scale, exec, xs)` — the trace
/// backing and the telemetry flag never change a single byte of it.
#[derive(Debug)]
pub struct RunContext {
    scale: Scale,
    exec: ExecConfig,
    shard_dir: Option<PathBuf>,
    collect_telemetry: bool,
    telemetry: Telemetry,
    xs_override: Option<Vec<f64>>,
    protocols: Vec<ProtocolSpec>,
}

impl RunContext {
    /// A context at `scale` with default execution, in-memory traces and no
    /// telemetry.
    pub fn new(scale: Scale) -> RunContext {
        RunContext {
            scale,
            exec: ExecConfig::default(),
            shard_dir: None,
            collect_telemetry: false,
            telemetry: Telemetry::default(),
            xs_override: None,
            protocols: ProtocolSpec::TRIAD.to_vec(),
        }
    }

    /// Replaces the protocol list every subsequent figure sweeps over (one
    /// series per spec, in list order). Defaults to the paper's triad; the
    /// head-to-head figures override it with the full
    /// [`ProtocolSpec::builtin`] registry regardless.
    pub fn protocols(mut self, protocols: impl Into<Vec<ProtocolSpec>>) -> RunContext {
        self.protocols = protocols.into();
        self
    }

    /// Sets the execution config (jobs/replicates/master seed).
    pub fn exec(mut self, exec: ExecConfig) -> RunContext {
        self.exec = exec;
        self
    }

    /// Spills every generated trace into one-day shards under
    /// `dir/<figure-id>` and replays the sweep from disk with bounded
    /// memory. Figures are byte-identical to the in-memory backing.
    pub fn sharded(mut self, dir: impl Into<PathBuf>) -> RunContext {
        self.shard_dir = Some(dir.into());
        self
    }

    /// Turns on telemetry collection: counters and phase spans of every
    /// subsequent figure call are merged into the context, to be claimed
    /// with [`RunContext::take_telemetry`].
    pub fn observed(mut self) -> RunContext {
        self.collect_telemetry = true;
        self
    }

    /// The context's scale.
    pub fn scale(&self) -> Scale {
        self.scale
    }

    /// Overrides the x values of the *next* figure call (consumed by it).
    /// The determinism tests use this to pin e.g. the loss=0 point of
    /// [`fault_sweep`] against the fault-free path.
    pub fn set_xs(&mut self, xs: Vec<f64>) {
        self.xs_override = Some(xs);
    }

    /// Claims the telemetry merged so far, leaving an empty sink behind.
    pub fn take_telemetry(&mut self) -> Telemetry {
        std::mem::take(&mut self.telemetry)
    }

    fn xs_for(&mut self, default: Vec<f64>) -> Vec<f64> {
        self.xs_override.take().unwrap_or(default)
    }

    fn telemetry_sink(&mut self) -> Option<&mut Telemetry> {
        self.collect_telemetry.then_some(&mut self.telemetry)
    }

    /// A sweep runner for this context's execution config and protocol list.
    pub(crate) fn runner(&self) -> ParallelRunner {
        ParallelRunner::new(self.exec).with_protocols(self.protocols.clone())
    }

    /// A runner pinned to the full built-in registry (the head-to-head
    /// figures compare every variant whatever the context's default list).
    fn registry_runner(&self) -> ParallelRunner {
        ParallelRunner::new(self.exec).with_protocols(ProtocolSpec::builtin())
    }

    /// Materializes one figure's trace through the configured backing:
    /// straight into a [`TraceBuilder`] (in memory) or through a
    /// [`ShardWriter`] under `shard_dir/<name>`. Generation is charged to
    /// the trace-load span when observed.
    ///
    /// Panics on shard I/O errors — an experiment cannot meaningfully
    /// continue on a half-written trace.
    fn source<F>(&mut self, name: &str, fill: F) -> Arc<dyn TraceSource>
    where
        F: FnOnce(&mut dyn ContactSink),
    {
        let started = Instant::now();
        let source: Arc<dyn TraceSource> = match &self.shard_dir {
            None => {
                let mut builder = TraceBuilder::new();
                fill(&mut builder);
                Arc::new(builder.build())
            }
            Some(dir) => {
                let mut writer = ShardWriter::create(dir.join(name), SimDuration::from_days(1))
                    .unwrap_or_else(|e| panic!("creating shard directory for {name}: {e}"));
                fill(&mut writer);
                let sharded = writer
                    .finish()
                    .unwrap_or_else(|e| panic!("writing shards for {name}: {e}"));
                Arc::new(sharded)
            }
        };
        if self.collect_telemetry {
            self.telemetry
                .phases
                .add(Phase::TraceLoad, started.elapsed());
        }
        source
    }
}

fn dieselnet_cfg(scale: Scale) -> DieselNetConfig {
    DieselNetConfig::new(scale.buses(), scale.days()).seed(SEED)
}

fn nus_cfg(scale: Scale, attendance: f64) -> NusConfig {
    NusConfig::new(scale.students(), scale.days())
        .seed(SEED)
        .attendance_rate(attendance)
}

fn base_params(scale: Scale, frequent_days: u64) -> SimParams {
    SimParams {
        days: scale.days(),
        seed: SEED,
        frequent_window: SimDuration::from_days(frequent_days),
        ..SimParams::default()
    }
}

fn dieselnet_params(scale: Scale) -> SimParams {
    base_params(scale, 3)
}

fn nus_params(scale: Scale) -> SimParams {
    base_params(scale, 1)
}

fn dieselnet_source(ctx: &mut RunContext, name: &str) -> Arc<dyn TraceSource> {
    let cfg = dieselnet_cfg(ctx.scale);
    ctx.source(name, |sink| cfg.generate_into(sink))
}

fn nus_source(ctx: &mut RunContext, name: &str) -> Arc<dyn TraceSource> {
    let cfg = nus_cfg(ctx.scale, 0.8);
    ctx.source(name, |sink| cfg.generate_into(sink))
}

// ----- Figure 2: UMassDieselNet-style trace -----

/// Fig 2(a): delivery ratios vs percentage of Internet-access nodes.
pub fn fig2a(ctx: &mut RunContext) -> Figure {
    let scale = ctx.scale;
    let xs = ctx.xs_for(scale.xs(&[0.1, 0.3, 0.5, 0.7, 0.9], &[0.1, 0.5, 0.9]));
    let source = dieselnet_source(ctx, "fig2a");
    ctx.runner().sweep_shared_source(
        "fig2a",
        "DieselNet: delivery ratio vs % Internet-access nodes",
        "internet-access fraction",
        &xs,
        source,
        |x| SimParams {
            internet_fraction: x,
            ..dieselnet_params(scale)
        },
        ctx.telemetry_sink(),
    )
}

/// Fig 2(b): delivery ratios vs number of new files per day.
pub fn fig2b(ctx: &mut RunContext) -> Figure {
    let scale = ctx.scale;
    let xs = ctx.xs_for(scale.xs(&[10.0, 25.0, 50.0, 75.0, 100.0], &[10.0, 50.0]));
    let source = dieselnet_source(ctx, "fig2b");
    ctx.runner().sweep_shared_source(
        "fig2b",
        "DieselNet: delivery ratio vs new files per day",
        "new files per day",
        &xs,
        source,
        |x| SimParams {
            files_per_day: x as u32,
            ..dieselnet_params(scale)
        },
        ctx.telemetry_sink(),
    )
}

/// Fig 2(c): delivery ratios vs file time-to-live.
pub fn fig2c(ctx: &mut RunContext) -> Figure {
    let scale = ctx.scale;
    let xs = ctx.xs_for(scale.xs(&[1.0, 2.0, 3.0, 4.0, 5.0], &[1.0, 3.0, 5.0]));
    let source = dieselnet_source(ctx, "fig2c");
    ctx.runner().sweep_shared_source(
        "fig2c",
        "DieselNet: delivery ratio vs TTL of file (days)",
        "TTL (days)",
        &xs,
        source,
        |x| SimParams {
            ttl_days: x as u64,
            ..dieselnet_params(scale)
        },
        ctx.telemetry_sink(),
    )
}

/// Fig 2(d): delivery ratios vs metadata exchanged per contact. Captures the
/// paper's exception: at very small metadata budgets, MBT-QM's file ratio and
/// MBT-Q's metadata ratio can win because the few circulating metadata are
/// biased.
pub fn fig2d(ctx: &mut RunContext) -> Figure {
    let scale = ctx.scale;
    let xs = ctx.xs_for(scale.xs(&[1.0, 5.0, 10.0, 20.0, 40.0], &[1.0, 20.0]));
    let source = dieselnet_source(ctx, "fig2d");
    ctx.runner().sweep_shared_source(
        "fig2d",
        "DieselNet: delivery ratio vs metadata per contact",
        "metadata per contact",
        &xs,
        source,
        |x| SimParams {
            config: MbtConfig::new().metadata_per_contact(x as u32),
            ..dieselnet_params(scale)
        },
        ctx.telemetry_sink(),
    )
}

/// Fig 2(e): delivery ratios vs files exchanged per contact.
pub fn fig2e(ctx: &mut RunContext) -> Figure {
    let scale = ctx.scale;
    let xs = ctx.xs_for(scale.xs(&[1.0, 2.0, 4.0, 6.0, 10.0], &[1.0, 4.0]));
    let source = dieselnet_source(ctx, "fig2e");
    ctx.runner().sweep_shared_source(
        "fig2e",
        "DieselNet: delivery ratio vs files per contact",
        "files per contact",
        &xs,
        source,
        |x| SimParams {
            config: MbtConfig::new().files_per_contact(x as u32),
            ..dieselnet_params(scale)
        },
        ctx.telemetry_sink(),
    )
}

// ----- Figure 3: NUS-style student trace -----

/// Fig 3(a): delivery ratios vs percentage of Internet-access nodes. The
/// paper highlights that MBT/MBT-Q file ratios rise quickly while MBT-QM
/// stays flat (it has no file discovery process).
pub fn fig3a(ctx: &mut RunContext) -> Figure {
    let scale = ctx.scale;
    let xs = ctx.xs_for(scale.xs(&[0.1, 0.3, 0.5, 0.7, 0.9], &[0.1, 0.5, 0.9]));
    let source = nus_source(ctx, "fig3a");
    ctx.runner().sweep_shared_source(
        "fig3a",
        "NUS: delivery ratio vs % Internet-access nodes",
        "internet-access fraction",
        &xs,
        source,
        |x| SimParams {
            internet_fraction: x,
            ..nus_params(scale)
        },
        ctx.telemetry_sink(),
    )
}

/// Fig 3(b): delivery ratios vs number of new files per day.
pub fn fig3b(ctx: &mut RunContext) -> Figure {
    let scale = ctx.scale;
    let xs = ctx.xs_for(scale.xs(&[10.0, 25.0, 50.0, 75.0, 100.0], &[10.0, 50.0]));
    let source = nus_source(ctx, "fig3b");
    ctx.runner().sweep_shared_source(
        "fig3b",
        "NUS: delivery ratio vs new files per day",
        "new files per day",
        &xs,
        source,
        |x| SimParams {
            files_per_day: x as u32,
            ..nus_params(scale)
        },
        ctx.telemetry_sink(),
    )
}

/// Fig 3(c): delivery ratios vs file time-to-live.
pub fn fig3c(ctx: &mut RunContext) -> Figure {
    let scale = ctx.scale;
    let xs = ctx.xs_for(scale.xs(&[1.0, 2.0, 3.0, 4.0, 5.0], &[1.0, 3.0, 5.0]));
    let source = nus_source(ctx, "fig3c");
    ctx.runner().sweep_shared_source(
        "fig3c",
        "NUS: delivery ratio vs TTL of file (days)",
        "TTL (days)",
        &xs,
        source,
        |x| SimParams {
            ttl_days: x as u64,
            ..nus_params(scale)
        },
        ctx.telemetry_sink(),
    )
}

/// Fig 3(d): delivery ratios vs metadata exchanged per contact.
pub fn fig3d(ctx: &mut RunContext) -> Figure {
    let scale = ctx.scale;
    let xs = ctx.xs_for(scale.xs(&[1.0, 5.0, 10.0, 20.0, 40.0], &[1.0, 20.0]));
    let source = nus_source(ctx, "fig3d");
    ctx.runner().sweep_shared_source(
        "fig3d",
        "NUS: delivery ratio vs metadata per contact",
        "metadata per contact",
        &xs,
        source,
        |x| SimParams {
            config: MbtConfig::new().metadata_per_contact(x as u32),
            ..nus_params(scale)
        },
        ctx.telemetry_sink(),
    )
}

/// Fig 3(e): delivery ratios vs files exchanged per contact.
pub fn fig3e(ctx: &mut RunContext) -> Figure {
    let scale = ctx.scale;
    let xs = ctx.xs_for(scale.xs(&[1.0, 2.0, 4.0, 6.0, 10.0], &[1.0, 4.0]));
    let source = nus_source(ctx, "fig3e");
    ctx.runner().sweep_shared_source(
        "fig3e",
        "NUS: delivery ratio vs files per contact",
        "files per contact",
        &xs,
        source,
        |x| SimParams {
            config: MbtConfig::new().files_per_contact(x as u32),
            ..nus_params(scale)
        },
        ctx.telemetry_sink(),
    )
}

/// Fig 3(f): delivery ratios vs attendance rate — the probability an
/// enrolled student actually attends a class session. Mobility itself changes
/// with x, so each x generates its own trace (its own shard directory
/// `fig3f/x<i>` under a sharded context).
pub fn fig3f(ctx: &mut RunContext) -> Figure {
    let scale = ctx.scale;
    let xs = ctx.xs_for(scale.xs(&[0.5, 0.6, 0.7, 0.8, 0.9, 1.0], &[0.5, 1.0]));
    let sources: Vec<Arc<dyn TraceSource>> = xs
        .iter()
        .enumerate()
        .map(|(i, &x)| {
            let cfg = nus_cfg(scale, x);
            ctx.source(&format!("fig3f/x{i}"), |sink| cfg.generate_into(sink))
        })
        .collect();
    let mut sources = sources.into_iter();
    ctx.runner().sweep_sources(
        "fig3f",
        "NUS: delivery ratio vs attendance rate",
        "attendance rate",
        &xs,
        |_| (sources.next().expect("one source per x"), nus_params(scale)),
        ctx.telemetry_sink(),
    )
}

// ----- Fault injection -----

/// Robustness sweep (not in the paper): delivery ratios vs broadcast
/// frame-loss rate on the NUS trace, across all three protocol variants.
/// Loss 0 is the clean baseline — a noop plan, byte-identical to the
/// fault-free sweep; for lossy cells the executor derives the fault seed
/// from the cell's grid coordinates, so `--jobs N` runs stay bit-identical.
/// Override the loss rates with [`RunContext::set_xs`].
pub fn fault_sweep(ctx: &mut RunContext) -> Figure {
    let scale = ctx.scale;
    let xs = ctx.xs_for(scale.xs(&[0.0, 0.1, 0.2, 0.3, 0.4, 0.5], &[0.0, 0.25, 0.5]));
    let source = nus_source(ctx, "fault_sweep");
    ctx.runner().sweep_shared_source(
        "fault_sweep",
        "NUS: delivery ratio vs broadcast loss rate",
        "loss rate",
        &xs,
        source,
        |x| SimParams {
            faults: FaultPlan::none().loss(x),
            ..nus_params(scale)
        },
        ctx.telemetry_sink(),
    )
}

// ----- Protocol-variant head-to-head (extension) -----

/// Head-to-head on the DieselNet-style trace: every built-in protocol
/// variant ([`ProtocolSpec::builtin`] — the triad plus PopCache and
/// DiffuseRep) swept over the Internet-access fraction. Delivery ratios sit
/// in the series points; per-point delivery *delays* ride along in each
/// point's pooled [`crate::runner::SimResult`] and are rendered by
/// [`crate::report::figure_delay_csv`].
pub fn head_to_head_dieselnet(ctx: &mut RunContext) -> Figure {
    let scale = ctx.scale;
    let xs = ctx.xs_for(scale.xs(&[0.1, 0.3, 0.5, 0.7, 0.9], &[0.1, 0.5, 0.9]));
    let source = dieselnet_source(ctx, "h2h_dieselnet");
    ctx.registry_runner().sweep_shared_source(
        "h2h_dieselnet",
        "DieselNet: protocol variants head-to-head",
        "internet-access fraction",
        &xs,
        source,
        |x| SimParams {
            internet_fraction: x,
            ..dieselnet_params(scale)
        },
        ctx.telemetry_sink(),
    )
}

/// Head-to-head on the NUS-style trace: every built-in protocol variant
/// swept over the Internet-access fraction (see
/// [`head_to_head_dieselnet`]).
pub fn head_to_head_nus(ctx: &mut RunContext) -> Figure {
    let scale = ctx.scale;
    let xs = ctx.xs_for(scale.xs(&[0.1, 0.3, 0.5, 0.7, 0.9], &[0.1, 0.5, 0.9]));
    let source = nus_source(ctx, "h2h_nus");
    ctx.registry_runner().sweep_shared_source(
        "h2h_nus",
        "NUS: protocol variants head-to-head",
        "internet-access fraction",
        &xs,
        source,
        |x| SimParams {
            internet_fraction: x,
            ..nus_params(scale)
        },
        ctx.telemetry_sink(),
    )
}

/// [`fault_sweep`] extended to every built-in variant: delivery ratios vs
/// broadcast frame-loss rate with PopCache and DiffuseRep alongside the
/// triad. A distinct figure id keeps its CSV separate from the legacy
/// three-series `fault_sweep` output.
pub fn fault_sweep_variants(ctx: &mut RunContext) -> Figure {
    let scale = ctx.scale;
    let xs = ctx.xs_for(scale.xs(&[0.0, 0.1, 0.2, 0.3, 0.4, 0.5], &[0.0, 0.25, 0.5]));
    let source = nus_source(ctx, "fault_sweep_variants");
    ctx.registry_runner().sweep_shared_source(
        "fault_sweep_variants",
        "NUS: delivery ratio vs loss rate, all protocol variants",
        "loss rate",
        &xs,
        source,
        |x| SimParams {
            faults: FaultPlan::none().loss(x),
            ..nus_params(scale)
        },
        ctx.telemetry_sink(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_fig2a_has_expected_shape() {
        let fig = fig2a(&mut RunContext::new(Scale::Quick));
        assert_eq!(fig.series.len(), 3);
        let mbt = fig.series_for(ProtocolSpec::MBT).unwrap();
        assert_eq!(mbt.points.len(), 3);
        // Delivery grows with Internet access for the full protocol.
        assert!(
            mbt.points.last().unwrap().file_ratio >= mbt.points[0].file_ratio,
            "file ratio should not fall as internet access rises"
        );
    }

    #[test]
    fn quick_fig3a_mbtqm_flat_without_discovery() {
        let fig = fig3a(&mut RunContext::new(Scale::Quick));
        let mbt = fig.series_for(ProtocolSpec::MBT).unwrap();
        let qm = fig.series_for(ProtocolSpec::MBT_QM).unwrap();
        // At high internet fraction MBT should clearly beat MBT-QM on files.
        let last = mbt.points.len() - 1;
        assert!(
            mbt.points[last].file_ratio >= qm.points[last].file_ratio,
            "MBT {} < MBT-QM {}",
            mbt.points[last].file_ratio,
            qm.points[last].file_ratio
        );
    }

    #[test]
    fn quick_fault_sweep_loses_delivery_at_high_loss() {
        let fig = fault_sweep(&mut RunContext::new(Scale::Quick));
        assert_eq!(fig.series.len(), 3);
        let mbt = fig.series_for(ProtocolSpec::MBT).unwrap();
        assert_eq!(mbt.points[0].x, 0.0);
        let clean = mbt.points.first().unwrap();
        let lossy = mbt.points.last().unwrap();
        assert_eq!(clean.result.frames_lost, 0, "loss 0 drops nothing");
        assert!(lossy.result.frames_lost > 0, "loss 0.5 drops frames");
        assert!(
            lossy.file_ratio <= clean.file_ratio,
            "heavy loss should not improve delivery ({} > {})",
            lossy.file_ratio,
            clean.file_ratio
        );
    }

    #[test]
    fn quick_fig3f_attendance_helps() {
        let fig = fig3f(&mut RunContext::new(Scale::Quick));
        let mbt = fig.series_for(ProtocolSpec::MBT).unwrap();
        assert!(
            mbt.points.last().unwrap().file_ratio >= mbt.points[0].file_ratio,
            "full attendance should deliver at least as much"
        );
    }

    #[test]
    fn quick_head_to_head_covers_every_builtin_variant() {
        let mut ctx = RunContext::new(Scale::Quick);
        ctx.set_xs(vec![0.5]);
        let fig = head_to_head_nus(&mut ctx);
        assert_eq!(fig.series.len(), ProtocolSpec::builtin().len());
        for (series, spec) in fig.series.iter().zip(ProtocolSpec::builtin()) {
            assert_eq!(series.protocol, spec);
            assert!(series.points[0].result.queries > 0, "{spec}: no queries");
        }
    }

    #[test]
    fn context_protocol_list_widens_standard_figures() {
        let mut ctx = RunContext::new(Scale::Quick)
            .protocols(vec![ProtocolSpec::MBT, ProtocolSpec::POP_CACHE]);
        ctx.set_xs(vec![0.5]);
        let fig = fig3a(&mut ctx);
        assert_eq!(fig.series.len(), 2);
        assert!(fig.series_for(ProtocolSpec::POP_CACHE).is_some());
    }

    #[test]
    fn quick_fault_sweep_variants_has_five_series() {
        let mut ctx = RunContext::new(Scale::Quick);
        ctx.set_xs(vec![0.0, 0.5]);
        let fig = fault_sweep_variants(&mut ctx);
        assert_eq!(fig.series.len(), 5);
        for s in &fig.series {
            assert_eq!(s.points.len(), 2);
        }
    }

    #[test]
    fn set_xs_overrides_next_figure_only() {
        let mut ctx = RunContext::new(Scale::Quick);
        ctx.set_xs(vec![0.0]);
        let pinned = fault_sweep(&mut ctx);
        assert_eq!(pinned.series[0].points.len(), 1);
        assert_eq!(pinned.series[0].points[0].x, 0.0);
        let default = fault_sweep(&mut ctx);
        assert_eq!(default.series[0].points.len(), 3, "override was consumed");
    }

    #[test]
    fn observed_context_accumulates_telemetry_without_changing_figures() {
        let plain = fig2a(&mut RunContext::new(Scale::Quick));
        let mut ctx = RunContext::new(Scale::Quick).observed();
        let observed = fig2a(&mut ctx);
        assert_eq!(plain, observed);
        let telemetry = ctx.take_telemetry();
        assert!(telemetry.counters.contacts > 0);
        assert_eq!(telemetry.counters.shards_loaded, 0, "in-memory backing");
    }
}
