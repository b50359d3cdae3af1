//! The figure table: every figure of the paper's evaluation (§VI-B), and
//! the fault and head-to-head figures that extend it, is a row of
//! [`FIGURES`], and [`FigureSpec::run`] is the one function that runs a row.
//!
//! Figure 2 (a)–(e) sweep five parameters on the DieselNet-style pair-wise
//! bus trace; Figure 3 (a)–(f) sweep the same five plus attendance rate on
//! the NUS-style classroom clique trace. A row names its trace, its x values
//! at each [`Scale`], its protocols and the axis that writes x into
//! [`SimParams`]; running it returns a [`Figure`] holding one series per
//! protocol.
//!
//! ```no_run
//! use mbt_experiments::figures::{RunContext, Scale, FIGURES};
//!
//! let fig2a = &FIGURES[0];
//! let fig = fig2a.run(&RunContext::new(Scale::Quick), None);
//! assert_eq!(fig.id, "fig2a");
//! ```
//!
//! A run that needs other xs or another protocol list runs a modified row
//! (`FigureSpec { quick_xs: &[0.5], ..*row }`). One that needs another trace
//! backing — the row's traces replayed from on-disk shards, say — takes the
//! row's [`FigureSpec::points`], swaps the sources and sweeps them with
//! [`ParallelRunner::run_prepared`](crate::exec::ParallelRunner::run_prepared).
//! Either way the figure is byte-identical to the in-memory run.

use std::sync::Arc;
use std::time::Instant;

use dtn_sim::telemetry::{Phase, Telemetry};
use dtn_sim::FaultPlan;
use dtn_trace::generators::{DieselNetConfig, NusConfig};
use dtn_trace::{ContactTrace, SimDuration, TraceSource};
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
    /// The days every experiment but the mobility comparison simulates.
    pub(crate) fn days(self) -> u64 {
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

    /// The unicast messages of the routing-baseline workload.
    pub(crate) fn messages(self) -> u64 {
        match self {
            Scale::Quick => 60,
            Scale::Full => 200,
        }
    }

    /// The seed-42 DieselNet-style bus trace at this scale.
    pub(crate) fn dieselnet(self) -> ContactTrace {
        DieselNetConfig::new(self.buses(), self.days())
            .seed(SEED)
            .generate()
    }

    /// The seed-42 NUS-style classroom trace at this scale, at `attendance`.
    pub(crate) fn nus(self, attendance: f64) -> ContactTrace {
        NusConfig::new(self.students(), self.days())
            .seed(SEED)
            .attendance_rate(attendance)
            .generate()
    }

    /// The seed-42 parameters at this scale, every other field at its
    /// default.
    pub(crate) fn params(self) -> SimParams {
        SimParams {
            days: self.days(),
            seed: SEED,
            ..SimParams::default()
        }
    }
}

const SEED: u64 = 42;

/// What every experiment runs under: the [`Scale`] and the execution config
/// (jobs/replicates/master seed). Every output is a pure function of the
/// two, and the worker count never changes a byte of it.
#[derive(Debug)]
pub struct RunContext {
    scale: Scale,
    exec: ExecConfig,
}

impl RunContext {
    /// A context at `scale` with default execution.
    pub fn new(scale: Scale) -> RunContext {
        RunContext {
            scale,
            exec: ExecConfig::default(),
        }
    }

    /// Sets the execution config (jobs/replicates/master seed).
    pub fn exec(mut self, exec: ExecConfig) -> RunContext {
        self.exec = exec;
        self
    }

    /// The context's scale.
    pub fn scale(&self) -> Scale {
        self.scale
    }

    /// A sweep runner for this context's execution config, over the triad.
    pub(crate) fn runner(&self) -> ParallelRunner {
        ParallelRunner::new(self.exec)
    }
}

/// The trace a figure sweeps over, generated at the run's [`Scale`] with
/// seed 42.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FigureTrace {
    /// The DieselNet-style pair-wise bus trace; frequent contacts are
    /// counted over three days.
    DieselNet,
    /// The NUS-style classroom trace at attendance 0.8; frequent contacts
    /// are counted over one day.
    Nus,
    /// The NUS-style trace at attendance x. Mobility itself changes with x,
    /// so every point has its own trace.
    NusAttendance,
}

impl FigureTrace {
    fn generate(self, scale: Scale, x: f64) -> ContactTrace {
        match self {
            FigureTrace::DieselNet => scale.dieselnet(),
            FigureTrace::Nus => scale.nus(0.8),
            FigureTrace::NusAttendance => scale.nus(x),
        }
    }

    fn frequent_days(self) -> u64 {
        match self {
            FigureTrace::DieselNet => 3,
            FigureTrace::Nus | FigureTrace::NusAttendance => 1,
        }
    }
}

/// One figure: what [`FigureSpec::run`] sweeps and how its table is
/// labelled.
#[derive(Debug, Clone, Copy)]
pub struct FigureSpec {
    /// Unique id: the `mbt experiment` name and the CSV file stem.
    pub id: &'static str,
    /// The catalogue group it runs with (`mbt experiment <group>`).
    pub group: &'static str,
    /// The table title.
    pub title: &'static str,
    /// The x-axis label.
    pub x_label: &'static str,
    /// The trace every point is simulated on.
    pub trace: FigureTrace,
    /// The x values at [`Scale::Full`].
    pub full_xs: &'static [f64],
    /// The x values at [`Scale::Quick`].
    pub quick_xs: &'static [f64],
    /// One series per protocol, in this order.
    pub protocols: &'static [ProtocolSpec],
    /// Writes x into the point's parameters.
    pub axis: fn(&mut SimParams, f64),
}

impl FigureSpec {
    fn xs(&self, scale: Scale) -> &'static [f64] {
        match scale {
            Scale::Quick => self.quick_xs,
            Scale::Full => self.full_xs,
        }
    }

    /// The sweep's inputs at `scale`: one `(source, params)` per x, in x
    /// order, each trace in memory. A trace that does not change with x is
    /// generated once and shared by every point.
    pub fn points(&self, scale: Scale) -> Vec<(Arc<dyn TraceSource>, SimParams)> {
        let mut shared: Option<Arc<dyn TraceSource>> = None;
        let mut source = |x| -> Arc<dyn TraceSource> {
            if self.trace == FigureTrace::NusAttendance {
                return Arc::new(self.trace.generate(scale, x));
            }
            let trace = shared.get_or_insert_with(|| Arc::new(self.trace.generate(scale, x)));
            Arc::clone(trace)
        };
        self.xs(scale)
            .iter()
            .map(|&x| {
                let mut params = SimParams {
                    frequent_window: SimDuration::from_days(self.trace.frequent_days()),
                    ..scale.params()
                };
                (self.axis)(&mut params, x);
                (source(x), params)
            })
            .collect()
    }

    /// Runs the row under `ctx`: builds its [`points`](FigureSpec::points)
    /// (charged to [`Phase::TraceLoad`] when `telemetry` is given) and
    /// sweeps every *(point × protocol × replicate)* cell. Telemetry is
    /// merged into `telemetry` in grid order and never changes the figure.
    pub fn run(&self, ctx: &RunContext, mut telemetry: Option<&mut Telemetry>) -> Figure {
        let started = telemetry.is_some().then(Instant::now);
        let points = self.points(ctx.scale);
        if let (Some(tel), Some(started)) = (telemetry.as_deref_mut(), started) {
            tel.phases.add(Phase::TraceLoad, started.elapsed());
        }
        ctx.runner().with_protocols(self.protocols).run_prepared(
            self.id,
            self.title,
            self.x_label,
            self.xs(ctx.scale),
            &points,
            telemetry,
        )
    }
}

/// Every figure, in catalogue order: Figure 2 on the DieselNet-style trace,
/// Figure 3 on the NUS-style trace, then the fault sweeps and the
/// protocol-variant head-to-heads (extensions, not in the paper).
pub const FIGURES: &[FigureSpec] = &[
    FigureSpec {
        id: "fig2a",
        group: "fig2",
        title: "DieselNet: delivery ratio vs % Internet-access nodes",
        x_label: "internet-access fraction",
        trace: FigureTrace::DieselNet,
        full_xs: &[0.1, 0.3, 0.5, 0.7, 0.9],
        quick_xs: &[0.1, 0.5, 0.9],
        protocols: &ProtocolSpec::TRIAD,
        axis: |p, x| p.internet_fraction = x,
    },
    FigureSpec {
        id: "fig2b",
        group: "fig2",
        title: "DieselNet: delivery ratio vs new files per day",
        x_label: "new files per day",
        trace: FigureTrace::DieselNet,
        full_xs: &[10.0, 25.0, 50.0, 75.0, 100.0],
        quick_xs: &[10.0, 50.0],
        protocols: &ProtocolSpec::TRIAD,
        axis: |p, x| p.files_per_day = x as u32,
    },
    FigureSpec {
        id: "fig2c",
        group: "fig2",
        title: "DieselNet: delivery ratio vs TTL of file (days)",
        x_label: "TTL (days)",
        trace: FigureTrace::DieselNet,
        full_xs: &[1.0, 2.0, 3.0, 4.0, 5.0],
        quick_xs: &[1.0, 3.0, 5.0],
        protocols: &ProtocolSpec::TRIAD,
        axis: |p, x| p.ttl_days = x as u64,
    },
    // The paper's exception: at very small metadata budgets, MBT-QM's file
    // ratio and MBT-Q's metadata ratio can win because the few circulating
    // metadata are biased.
    FigureSpec {
        id: "fig2d",
        group: "fig2",
        title: "DieselNet: delivery ratio vs metadata per contact",
        x_label: "metadata per contact",
        trace: FigureTrace::DieselNet,
        full_xs: &[1.0, 5.0, 10.0, 20.0, 40.0],
        quick_xs: &[1.0, 20.0],
        protocols: &ProtocolSpec::TRIAD,
        axis: |p, x| p.config = MbtConfig::new().metadata_per_contact(x as u32),
    },
    FigureSpec {
        id: "fig2e",
        group: "fig2",
        title: "DieselNet: delivery ratio vs files per contact",
        x_label: "files per contact",
        trace: FigureTrace::DieselNet,
        full_xs: &[1.0, 2.0, 4.0, 6.0, 10.0],
        quick_xs: &[1.0, 4.0],
        protocols: &ProtocolSpec::TRIAD,
        axis: |p, x| p.config = MbtConfig::new().files_per_contact(x as u32),
    },
    // The paper highlights that MBT/MBT-Q file ratios rise quickly while
    // MBT-QM stays flat (it has no file discovery process).
    FigureSpec {
        id: "fig3a",
        group: "fig3",
        title: "NUS: delivery ratio vs % Internet-access nodes",
        x_label: "internet-access fraction",
        trace: FigureTrace::Nus,
        full_xs: &[0.1, 0.3, 0.5, 0.7, 0.9],
        quick_xs: &[0.1, 0.5, 0.9],
        protocols: &ProtocolSpec::TRIAD,
        axis: |p, x| p.internet_fraction = x,
    },
    FigureSpec {
        id: "fig3b",
        group: "fig3",
        title: "NUS: delivery ratio vs new files per day",
        x_label: "new files per day",
        trace: FigureTrace::Nus,
        full_xs: &[10.0, 25.0, 50.0, 75.0, 100.0],
        quick_xs: &[10.0, 50.0],
        protocols: &ProtocolSpec::TRIAD,
        axis: |p, x| p.files_per_day = x as u32,
    },
    FigureSpec {
        id: "fig3c",
        group: "fig3",
        title: "NUS: delivery ratio vs TTL of file (days)",
        x_label: "TTL (days)",
        trace: FigureTrace::Nus,
        full_xs: &[1.0, 2.0, 3.0, 4.0, 5.0],
        quick_xs: &[1.0, 3.0, 5.0],
        protocols: &ProtocolSpec::TRIAD,
        axis: |p, x| p.ttl_days = x as u64,
    },
    FigureSpec {
        id: "fig3d",
        group: "fig3",
        title: "NUS: delivery ratio vs metadata per contact",
        x_label: "metadata per contact",
        trace: FigureTrace::Nus,
        full_xs: &[1.0, 5.0, 10.0, 20.0, 40.0],
        quick_xs: &[1.0, 20.0],
        protocols: &ProtocolSpec::TRIAD,
        axis: |p, x| p.config = MbtConfig::new().metadata_per_contact(x as u32),
    },
    FigureSpec {
        id: "fig3e",
        group: "fig3",
        title: "NUS: delivery ratio vs files per contact",
        x_label: "files per contact",
        trace: FigureTrace::Nus,
        full_xs: &[1.0, 2.0, 4.0, 6.0, 10.0],
        quick_xs: &[1.0, 4.0],
        protocols: &ProtocolSpec::TRIAD,
        axis: |p, x| p.config = MbtConfig::new().files_per_contact(x as u32),
    },
    // Attendance rate: the probability an enrolled student actually attends
    // a class session. x lives in the trace, not in the parameters.
    FigureSpec {
        id: "fig3f",
        group: "fig3",
        title: "NUS: delivery ratio vs attendance rate",
        x_label: "attendance rate",
        trace: FigureTrace::NusAttendance,
        full_xs: &[0.5, 0.6, 0.7, 0.8, 0.9, 1.0],
        quick_xs: &[0.5, 1.0],
        protocols: &ProtocolSpec::TRIAD,
        axis: |_, _| {},
    },
    // Robustness (not in the paper): loss 0 is the clean baseline — a noop
    // plan, byte-identical to the fault-free sweep; for lossy cells the
    // executor derives the fault seed from the cell's grid coordinates, so
    // `--jobs N` runs stay bit-identical.
    FigureSpec {
        id: "fault_sweep",
        group: "faults",
        title: "NUS: delivery ratio vs broadcast loss rate",
        x_label: "loss rate",
        trace: FigureTrace::Nus,
        full_xs: &[0.0, 0.1, 0.2, 0.3, 0.4, 0.5],
        quick_xs: &[0.0, 0.25, 0.5],
        protocols: &ProtocolSpec::TRIAD,
        axis: |p, x| p.faults = FaultPlan::none().loss(x),
    },
    // `fault_sweep` with PopCache and DiffuseRep alongside the triad; its own
    // id keeps its CSV apart from the three-series `fault_sweep`.
    FigureSpec {
        id: "fault_sweep_variants",
        group: "faults",
        title: "NUS: delivery ratio vs loss rate, all protocol variants",
        x_label: "loss rate",
        trace: FigureTrace::Nus,
        full_xs: &[0.0, 0.1, 0.2, 0.3, 0.4, 0.5],
        quick_xs: &[0.0, 0.25, 0.5],
        protocols: &ProtocolSpec::builtin(),
        axis: |p, x| p.faults = FaultPlan::none().loss(x),
    },
    // Head-to-heads: every built-in variant over the Internet-access
    // fraction. Per-point delivery delays ride along in each point's pooled
    // `SimResult` and are rendered by `report::figure_delay_csv`.
    FigureSpec {
        id: "h2h_dieselnet",
        group: "h2h",
        title: "DieselNet: protocol variants head-to-head",
        x_label: "internet-access fraction",
        trace: FigureTrace::DieselNet,
        full_xs: &[0.1, 0.3, 0.5, 0.7, 0.9],
        quick_xs: &[0.1, 0.5, 0.9],
        protocols: &ProtocolSpec::builtin(),
        axis: |p, x| p.internet_fraction = x,
    },
    FigureSpec {
        id: "h2h_nus",
        group: "h2h",
        title: "NUS: protocol variants head-to-head",
        x_label: "internet-access fraction",
        trace: FigureTrace::Nus,
        full_xs: &[0.1, 0.3, 0.5, 0.7, 0.9],
        quick_xs: &[0.1, 0.5, 0.9],
        protocols: &ProtocolSpec::builtin(),
        axis: |p, x| p.internet_fraction = x,
    },
];

#[cfg(test)]
mod tests {
    use super::*;

    fn row(id: &str) -> &'static FigureSpec {
        FIGURES
            .iter()
            .find(|f| f.id == id)
            .expect("a row of FIGURES")
    }

    fn quick(spec: &FigureSpec) -> Figure {
        spec.run(&RunContext::new(Scale::Quick), None)
    }

    #[test]
    fn quick_fig2a_has_expected_shape() {
        let fig = quick(row("fig2a"));
        assert_eq!(fig.series.len(), 3);
        let mbt = fig.series_for(ProtocolSpec::MBT).unwrap();
        assert_eq!(mbt.points.len(), 3);
        // Delivery grows with Internet access for the full protocol.
        assert!(
            mbt.points.last().unwrap().file.mean >= mbt.points[0].file.mean,
            "file ratio should not fall as internet access rises"
        );
    }

    #[test]
    fn quick_fig3a_mbtqm_flat_without_discovery() {
        let fig = quick(row("fig3a"));
        let mbt = fig.series_for(ProtocolSpec::MBT).unwrap();
        let qm = fig.series_for(ProtocolSpec::MBT_QM).unwrap();
        // At high internet fraction MBT should clearly beat MBT-QM on files.
        let last = mbt.points.len() - 1;
        assert!(
            mbt.points[last].file.mean >= qm.points[last].file.mean,
            "MBT {} < MBT-QM {}",
            mbt.points[last].file.mean,
            qm.points[last].file.mean
        );
    }

    #[test]
    fn quick_fault_sweep_loses_delivery_at_high_loss() {
        let fig = quick(row("fault_sweep"));
        assert_eq!(fig.series.len(), 3);
        let mbt = fig.series_for(ProtocolSpec::MBT).unwrap();
        assert_eq!(mbt.points[0].x, 0.0);
        let clean = mbt.points.first().unwrap();
        let lossy = mbt.points.last().unwrap();
        assert_eq!(clean.result.frames_lost, 0, "loss 0 drops nothing");
        assert!(lossy.result.frames_lost > 0, "loss 0.5 drops frames");
        assert!(
            lossy.file.mean <= clean.file.mean,
            "heavy loss should not improve delivery ({} > {})",
            lossy.file.mean,
            clean.file.mean
        );
    }

    #[test]
    fn quick_fig3f_attendance_helps() {
        let fig = quick(row("fig3f"));
        let mbt = fig.series_for(ProtocolSpec::MBT).unwrap();
        assert!(
            mbt.points.last().unwrap().file.mean >= mbt.points[0].file.mean,
            "full attendance should deliver at least as much"
        );
    }

    #[test]
    fn quick_head_to_head_covers_every_builtin_variant() {
        let fig = quick(&FigureSpec {
            quick_xs: &[0.5],
            ..*row("h2h_nus")
        });
        assert_eq!(fig.series.len(), ProtocolSpec::builtin().len());
        for (series, spec) in fig.series.iter().zip(ProtocolSpec::builtin()) {
            assert_eq!(series.protocol, spec);
            assert!(series.points[0].result.queries > 0, "{spec}: no queries");
        }
    }

    #[test]
    fn a_row_with_another_protocol_list_widens_the_figure() {
        let fig = quick(&FigureSpec {
            quick_xs: &[0.5],
            protocols: &[ProtocolSpec::MBT, ProtocolSpec::POP_CACHE],
            ..*row("fig3a")
        });
        assert_eq!(fig.series.len(), 2);
        assert!(fig.series_for(ProtocolSpec::POP_CACHE).is_some());
    }

    #[test]
    fn quick_fault_sweep_variants_has_five_series() {
        let fig = quick(&FigureSpec {
            quick_xs: &[0.0, 0.5],
            ..*row("fault_sweep_variants")
        });
        assert_eq!(fig.series.len(), 5);
        for s in &fig.series {
            assert_eq!(s.points.len(), 2);
        }
    }

    #[test]
    fn observed_context_accumulates_telemetry_without_changing_figures() {
        let plain = quick(row("fig2a"));
        let mut telemetry = Telemetry::default();
        let observed = row("fig2a").run(&RunContext::new(Scale::Quick), Some(&mut telemetry));
        assert_eq!(plain, observed);
        assert!(telemetry.counters.contacts > 0);
        assert_eq!(telemetry.counters.shards_loaded, 0, "in-memory backing");
    }

    #[test]
    fn a_trace_that_does_not_change_with_x_is_generated_once() {
        for spec in FIGURES {
            let points = spec.points(Scale::Quick);
            assert_eq!(points.len(), spec.quick_xs.len());
            let shared = points.iter().all(|(s, _)| Arc::ptr_eq(s, &points[0].0));
            assert_eq!(
                shared,
                spec.trace != FigureTrace::NusAttendance,
                "{}",
                spec.id
            );
        }
    }
}
