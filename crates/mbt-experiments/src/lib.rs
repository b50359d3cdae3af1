//! Experiment harness reproducing the evaluation of *"Cooperative File
//! Sharing in Hybrid Delay Tolerant Networks"* (ICDCS 2011).
//!
//! - [`workload`] — the paper's daily file/query workload (§VI-A),
//! - [`runner`] — the end-to-end simulation measuring delivery ratios among
//!   non-Internet-access nodes,
//! - [`sweep`] / [`figures`] — parameter sweeps regenerating every panel of
//!   Figures 2 and 3,
//! - [`capacity`] — the §V broadcast-vs-pair-wise capacity analysis,
//! - [`ablations`] — cooperation-mode and contact-ordering ablations,
//! - [`report`] — text/CSV rendering.
//!
//! Binaries: `fig2`, `fig3`, `capacity`, `ablations`, `all_experiments`
//! (each accepts `--quick`).
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

/// Parses the common `--quick` flag from argv.
pub fn scale_from_args() -> Scale {
    if std::env::args().any(|a| a == "--quick") {
        Scale::Quick
    } else {
        Scale::Full
    }
}

/// Parses the common execution flags from argv: `--jobs N` (worker threads,
/// 0 = one per core) and `--replicates R` (independent runs per sweep
/// cell). Unrecognised or malformed values fall back to the defaults.
pub fn exec_from_args() -> ExecConfig {
    let mut cfg = ExecConfig::default();
    let mut args = std::env::args();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--jobs" => {
                if let Some(n) = args.next().and_then(|v| v.parse().ok()) {
                    cfg.jobs = n;
                }
            }
            "--replicates" => {
                if let Some(r) = args.next().and_then(|v| v.parse().ok()) {
                    cfg.replicates = r;
                }
            }
            _ => {}
        }
    }
    cfg
}

/// Writes a CSV string to `results/<name>.csv` (creating the directory),
/// returning the path written. I/O errors are reported, not fatal.
pub fn write_csv(name: &str, csv: &str) -> Option<std::path::PathBuf> {
    let dir = std::path::Path::new("results");
    if std::fs::create_dir_all(dir).is_err() {
        return None;
    }
    let path = dir.join(format!("{name}.csv"));
    match std::fs::write(&path, csv) {
        Ok(()) => Some(path),
        Err(e) => {
            eprintln!("warning: could not write {}: {e}", path.display());
            None
        }
    }
}
