//! The series and figure types a parameter sweep produces
//! ([`crate::exec::ParallelRunner`] is the executor).

use mbt_core::ProtocolSpec;

use crate::runner::SimResult;

/// Summary statistics of one delivery ratio across replicate runs.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct RatioSummary {
    /// Mean ratio across replicates.
    pub mean: f64,
    /// Smallest replicate ratio.
    pub min: f64,
    /// Largest replicate ratio.
    pub max: f64,
    /// Sample standard deviation (0 with fewer than two replicates).
    pub stddev: f64,
    /// Number of replicates summarised.
    pub n: u32,
}

impl RatioSummary {
    /// Summarises `samples`. The mean is accumulated in sample order, so the
    /// result is bit-identical for a fixed sample list. An empty sample list
    /// (e.g. every replicate lost to heavy churn) yields the all-zero
    /// default rather than NaN.
    pub fn from_samples(samples: &[f64]) -> RatioSummary {
        if samples.is_empty() {
            return RatioSummary::default();
        }
        let n = samples.len();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let min = samples.iter().copied().fold(f64::INFINITY, f64::min);
        let max = samples.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        let stddev = if n < 2 {
            0.0
        } else {
            let var = samples.iter().map(|s| (s - mean) * (s - mean)).sum::<f64>() / (n - 1) as f64;
            var.sqrt()
        };
        RatioSummary {
            mean,
            min,
            max,
            stddev,
            n: n as u32,
        }
    }
}

/// One point of a sweep: the x value and both delivery ratios, summarised
/// over however many replicate runs produced it.
#[derive(Debug, Clone, PartialEq)]
pub struct SeriesPoint {
    /// The swept parameter's value.
    pub x: f64,
    /// Metadata delivery ratio across replicates: `metadata.mean` is the
    /// point's ratio.
    pub metadata: RatioSummary,
    /// File delivery ratio across replicates: `file.mean` is the point's
    /// ratio.
    pub file: RatioSummary,
    /// The full result: the run itself for a single run, or every
    /// replicate merged (pooled counts) for a replicated point.
    pub result: SimResult,
}

impl SeriesPoint {
    /// A point summarising one or more replicate runs: the headline ratios
    /// are means of the per-replicate ratios, and `result` pools counts via
    /// [`SimResult::merge`]. Panics on an empty replicate list.
    pub fn from_replicates(x: f64, replicates: Vec<SimResult>) -> SeriesPoint {
        assert!(
            !replicates.is_empty(),
            "SeriesPoint needs at least one replicate"
        );
        let meta_samples: Vec<f64> = replicates.iter().map(|r| r.metadata_ratio).collect();
        let file_samples: Vec<f64> = replicates.iter().map(|r| r.file_ratio).collect();
        let metadata = RatioSummary::from_samples(&meta_samples);
        let file = RatioSummary::from_samples(&file_samples);
        let mut iter = replicates.into_iter();
        let mut result = iter.next().expect("non-empty");
        for r in iter {
            result.merge(&r);
        }
        SeriesPoint {
            x,
            metadata,
            file,
            result,
        }
    }
}

/// One protocol's curve across the sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct ProtocolSeries {
    /// The protocol variant.
    pub protocol: ProtocolSpec,
    /// Points in sweep order.
    pub points: Vec<SeriesPoint>,
}

/// A reproduced figure: every protocol's series over the same x values.
#[derive(Debug, Clone, PartialEq)]
pub struct Figure {
    /// Experiment id (e.g. "fig2a").
    pub id: String,
    /// Human-readable title.
    pub title: String,
    /// The x-axis label.
    pub x_label: String,
    /// One series per protocol.
    pub series: Vec<ProtocolSeries>,
}

impl Figure {
    /// The series for `protocol`, if present.
    pub fn series_for(&self, protocol: ProtocolSpec) -> Option<&ProtocolSeries> {
        self.series.iter().find(|s| s.protocol == protocol)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::{ExecConfig, ParallelRunner};
    use crate::runner::SimParams;
    use dtn_trace::generators::NusConfig;

    fn quick_sweep(xs: &[f64]) -> Figure {
        let trace = NusConfig::new(20, 5).seed(3).generate();
        ParallelRunner::new(ExecConfig::serial()).sweep_shared_source(
            "test",
            "test sweep",
            "x",
            xs,
            std::sync::Arc::new(trace),
            |x| SimParams {
                internet_fraction: x,
                files_per_day: 5,
                days: 5,
                ..SimParams::default()
            },
            None,
        )
    }

    #[test]
    fn sweep_produces_full_grid() {
        let fig = quick_sweep(&[0.2, 0.6]);
        assert_eq!(fig.series.len(), 3);
        for s in &fig.series {
            assert_eq!(s.points.len(), 2);
            assert_eq!(s.points[0].x, 0.2);
        }
        assert!(fig.series_for(ProtocolSpec::MBT_QM).is_some());
    }

    #[test]
    fn empty_ratio_summary_is_zero_not_nan() {
        let s = RatioSummary::from_samples(&[]);
        assert_eq!(s, RatioSummary::default());
        assert!(s.mean.is_finite() && s.stddev.is_finite());
    }

    #[test]
    fn ratios_copied_from_results() {
        let fig = quick_sweep(&[0.5]);
        for s in &fig.series {
            for p in &s.points {
                assert_eq!(p.metadata.mean, p.result.metadata_ratio);
                assert_eq!(p.file.mean, p.result.file_ratio);
            }
        }
    }
}
