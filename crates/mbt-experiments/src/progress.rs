//! Delivery progression over time (extension).
//!
//! The paper reports steady-state delivery ratios; this experiment shows the
//! *trajectory*: cumulative deliveries per day for each protocol variant,
//! exposing warm-up (metadata must spread before files flow) and the
//! day-boundary workload rhythm.

use dtn_trace::generators::NusConfig;
use mbt_core::ProtocolSpec;

use crate::figures::{RunContext, Scale};
use crate::runner::{run_simulation, SimParams};

/// One protocol's cumulative daily trajectory.
#[derive(Debug, Clone, PartialEq)]
pub struct ProgressSeries {
    /// The protocol variant.
    pub protocol: ProtocolSpec,
    /// Total queries over the run.
    pub queries: u64,
    /// Cumulative metadata deliveries by end of each day.
    pub cumulative_metadata: Vec<u64>,
    /// Cumulative file deliveries by end of each day.
    pub cumulative_files: Vec<u64>,
}

/// Runs the progression experiment on the NUS-style trace: the three
/// protocol runs execute on the context's pool, with results collected in
/// protocol order.
pub fn delivery_progress(ctx: &mut RunContext) -> Vec<ProgressSeries> {
    let (students, days) = match ctx.scale() {
        Scale::Quick => (30, 6),
        Scale::Full => (80, 15),
    };
    let trace = NusConfig::new(students, days).seed(42).generate();
    ctx.runner().run_all(&ProtocolSpec::TRIAD, |&protocol| {
        let r = run_simulation(
            &trace,
            &SimParams::builder()
                .protocol(protocol)
                .days(days)
                .seed(42)
                .build(),
            None,
        );
        let cumulate = |v: &[u64]| {
            v.iter()
                .scan(0u64, |acc, &x| {
                    *acc += x;
                    Some(*acc)
                })
                .collect::<Vec<u64>>()
        };
        ProgressSeries {
            protocol,
            queries: r.queries,
            cumulative_metadata: cumulate(&r.daily_metadata_delivered),
            cumulative_files: cumulate(&r.daily_files_delivered),
        }
    })
}

/// Renders the progression as a day-by-day table.
pub fn progress_table(series: &[ProgressSeries]) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let days = series.first().map_or(0, |s| s.cumulative_metadata.len());
    let mut header = format!("{:>4}", "day");
    for s in series {
        let _ = write!(header, " | {:>9}.meta {:>9}.file", s.protocol, s.protocol);
    }
    let _ = writeln!(out, "{header}");
    for d in 0..days {
        let mut row = format!("{d:>4}");
        for s in series {
            let _ = write!(
                row,
                " | {:>14} {:>14}",
                s.cumulative_metadata[d], s.cumulative_files[d]
            );
        }
        let _ = writeln!(out, "{row}");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trajectories_are_monotone_nondecreasing() {
        for s in delivery_progress(&mut RunContext::new(Scale::Quick)) {
            for w in s.cumulative_metadata.windows(2) {
                assert!(w[1] >= w[0], "{}: metadata trajectory dipped", s.protocol);
            }
            for w in s.cumulative_files.windows(2) {
                assert!(w[1] >= w[0], "{}: file trajectory dipped", s.protocol);
            }
        }
    }

    #[test]
    fn metadata_leads_files_every_day() {
        for s in delivery_progress(&mut RunContext::new(Scale::Quick)) {
            for (m, f) in s.cumulative_metadata.iter().zip(&s.cumulative_files) {
                assert!(m >= f, "{}: files outran metadata", s.protocol);
            }
        }
    }

    #[test]
    fn table_has_one_row_per_day() {
        let series = delivery_progress(&mut RunContext::new(Scale::Quick));
        let t = progress_table(&series);
        assert_eq!(t.lines().count(), 7); // header + 6 days
    }
}
