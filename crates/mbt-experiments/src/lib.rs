//! Experiment harness reproducing the evaluation of *"Cooperative File
//! Sharing in Hybrid Delay Tolerant Networks"* (ICDCS 2011).
//!
//! - [`workload`] — the paper's daily file/query workload (§VI-A),
//! - [`runner`] — the end-to-end simulation measuring delivery ratios among
//!   non-Internet-access nodes,
//! - [`exec`] / [`figures`] — parameter sweeps regenerating every panel of
//!   Figures 2 and 3, one table row each ([`sweep`] holds the series types
//!   they return), and [`Scale`], which holds the per-scale sizes and
//!   builds the seed-42 traces,
//! - [`ablations`] — the six design ablations, one table row each,
//! - [`residue`] — a per-node map of cold node state that nothing in the
//!   pipeline uses; it exists only for the benchmark's probe and goes with
//!   the benchmark's next version,
//! - [`report`] — text/CSV rendering: the figure tables and CSVs, and the
//!   aligned and grouped tables every other experiment prints,
//! - private modules for the other tables: the §V broadcast-vs-pair-wise
//!   capacity analysis, the routing baselines and oracle bound, and the
//!   mobility and delivery-progress extensions,
//! - [`catalogue`] — every experiment above as one named row; the crate has
//!   no binaries, `mbt experiment <name|group|all|list>` runs the rows.
//!
//! # Example
//!
//! ```
//! use dtn_trace::generators::NusConfig;
//! use mbt_experiments::runner::{run_simulation, SimParams};
//!
//! let trace = NusConfig::new(20, 5).seed(1).generate();
//! let result = run_simulation(&trace, &SimParams { days: 5, ..SimParams::default() }, None);
//! assert!(result.queries > 0);
//! ```
//!
//! The trace argument is any [`dtn_trace::TraceSource`] — an in-memory
//! [`dtn_trace::ContactTrace`] as above, or an on-disk
//! [`dtn_trace::ShardedTrace`] replayed with bounded memory, whose loads the
//! telemetry counts:
//!
//! ```no_run
//! use dtn_sim::Telemetry;
//! use dtn_trace::ShardedTrace;
//! use mbt_experiments::runner::{run_simulation, SimParams};
//!
//! let trace = ShardedTrace::open("shards").unwrap();
//! let mut telemetry = Telemetry::default();
//! run_simulation(&trace, &SimParams::default(), Some(&mut telemetry));
//! assert!(telemetry.counters.shards_loaded > 0);
//! ```
//!
//! Every figure is a row of [`figures::FIGURES`]; a run takes a
//! [`RunContext`] (scale and execution) and an optional telemetry sink, and a
//! modified row changes its xs or protocols:
//!
//! ```
//! use dtn_sim::Telemetry;
//! use mbt_experiments::figures::{FigureSpec, FIGURES};
//! use mbt_experiments::{RunContext, Scale};
//!
//! let fig3a = FIGURES.iter().find(|f| f.id == "fig3a").unwrap();
//! let one_point = FigureSpec { quick_xs: &[0.5], ..*fig3a };
//! let mut telemetry = Telemetry::default();
//! let fig = one_point.run(&RunContext::new(Scale::Quick), Some(&mut telemetry));
//! assert_eq!(fig.series.len(), 3);
//! assert!(telemetry.counters.contacts > 0);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod ablations;
mod capacity;
pub mod catalogue;
pub mod exec;
pub mod figures;
mod mobility;
mod progress;
pub mod report;
pub mod residue;
mod routing;
pub mod runner;
pub mod sweep;
pub mod workload;

pub use exec::{ExecConfig, ParallelRunner};
pub use figures::{RunContext, Scale};
pub use residue::ResidueStore;
pub use runner::{run_simulation, SimParams, SimResult};
pub use sweep::{Figure, ProtocolSeries, RatioSummary, SeriesPoint};
