//! Delivery progression over time (extension).
//!
//! The paper reports steady-state delivery ratios; this experiment shows the
//! *trajectory*: cumulative deliveries per day for each protocol variant,
//! exposing warm-up (metadata must spread before files flow) and the
//! day-boundary workload rhythm.

use mbt_core::ProtocolSpec;

use crate::figures::RunContext;
use crate::report::grouped_table;
use crate::runner::{run_simulation, SimParams};

/// One protocol's cumulative daily trajectory.
#[derive(Debug, Clone, PartialEq)]
struct ProgressSeries {
    /// The protocol variant.
    protocol: ProtocolSpec,
    /// Cumulative metadata deliveries by end of each day.
    cumulative_metadata: Vec<u64>,
    /// Cumulative file deliveries by end of each day.
    cumulative_files: Vec<u64>,
}

/// Runs the progression experiment on the NUS-style trace: the three
/// protocol runs execute on the context's pool, with results collected in
/// protocol order.
fn delivery_progress(ctx: &RunContext) -> Vec<ProgressSeries> {
    let trace = ctx.scale().nus(1.0);
    ctx.runner().run_all(&ProtocolSpec::TRIAD, |&protocol| {
        let params = SimParams {
            protocol,
            ..ctx.scale().params()
        };
        let r = run_simulation(&trace, &params, None);
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
            cumulative_metadata: cumulate(&r.daily_metadata_delivered),
            cumulative_files: cumulate(&r.daily_files_delivered),
        }
    })
}

/// The progression under `ctx`, rendered as a day-by-day table.
pub(crate) fn progress_table(ctx: &RunContext) -> String {
    let series = delivery_progress(ctx);
    let days = series.first().map_or(0, |s| s.cumulative_metadata.len());
    let rows = (0..days).map(|d| {
        let pairs = (series.iter())
            .map(|s| [s.cumulative_metadata[d], s.cumulative_files[d]].map(|n| n.to_string()))
            .collect();
        (d.to_string(), pairs)
    });
    let protocols: Vec<ProtocolSpec> = series.iter().map(|s| s.protocol).collect();
    grouped_table(("day", 4), &protocols, rows)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::figures::Scale;

    #[test]
    fn trajectories_are_monotone_nondecreasing() {
        for s in delivery_progress(&RunContext::new(Scale::Quick)) {
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
        for s in delivery_progress(&RunContext::new(Scale::Quick)) {
            for (m, f) in s.cumulative_metadata.iter().zip(&s.cumulative_files) {
                assert!(m >= f, "{}: files outran metadata", s.protocol);
            }
        }
    }

    #[test]
    fn table_has_one_row_per_day() {
        let t = progress_table(&RunContext::new(Scale::Quick));
        assert_eq!(t.lines().count(), 7); // header + 6 days
    }
}
