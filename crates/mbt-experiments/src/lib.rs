//! Experiment harness reproducing the evaluation of *"Cooperative File
//! Sharing in Hybrid Delay Tolerant Networks"* (ICDCS 2011).
//!
//! - [`workload`] — the paper's daily file/query workload (§VI-A),
//! - [`runner`] — the end-to-end simulation measuring delivery ratios among
//!   non-Internet-access nodes,
//! - [`exec`] / [`figures`] — parameter sweeps regenerating every panel of
//!   Figures 2 and 3 ([`sweep`] holds the series types they return),
//! - [`capacity`] — the §V broadcast-vs-pair-wise capacity analysis,
//! - [`ablations`] — cooperation-mode and contact-ordering ablations,
//! - [`report`] — text/CSV rendering,
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
//! [`dtn_trace::ShardedTrace`] replayed with bounded memory. Figure sweeps
//! take a [`figures::RunContext`] bundling scale, execution, trace backing
//! and telemetry:
//!
//! ```no_run
//! use mbt_experiments::figures::{fig2a, RunContext, Scale};
//!
//! let mut ctx = RunContext::new(Scale::Quick).sharded("shards").observed();
//! let fig = fig2a(&mut ctx);
//! let telemetry = ctx.take_telemetry();
//! assert!(telemetry.counters.shards_loaded > 0);
//! # let _ = fig;
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod ablations;
pub mod capacity;
pub mod catalogue;
pub mod exec;
pub mod figures;
pub mod mobility;
pub mod progress;
pub mod report;
pub mod residue;
pub mod routing;
pub mod runner;
pub mod sweep;
pub mod workload;

pub use exec::{ExecConfig, ParallelRunner};
pub use figures::{RunContext, Scale};
pub use residue::ResidueStore;
pub use runner::{run_simulation, SimParams, SimResult};
pub use sweep::{Figure, ProtocolSeries, RatioSummary, SeriesPoint};
