//! `ledger --compare A.json B.json`: B measured against base A.

use std::fmt::Write as _;

use crate::metrics::{self, Better, Kind};
use crate::run::{Report, Sample};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Within the bound, and both runs' spreads are too.
    Ok,
    /// The spread is wider than the bound, but every run of B reads better
    /// than every run of A.
    Improved,
    /// Exact metric, identical.
    Same,
    /// Per-layer host time: shown, never gated.
    Info,
    /// Worse than the bound allows, and the ranges do not overlap.
    Regressed,
    /// The run-to-run spread is wider than the bound, so neither "unchanged"
    /// nor "regressed" can be claimed.
    Unresolved,
    /// Exact metric, not identical.
    Different,
    /// Present in one file only.
    Missing,
}

impl Verdict {
    pub fn passes(self) -> bool {
        matches!(
            self,
            Verdict::Ok | Verdict::Improved | Verdict::Same | Verdict::Info
        )
    }

    fn as_str(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Improved => "improved",
            Verdict::Same => "same",
            Verdict::Info => "info",
            Verdict::Regressed => "REGRESSED",
            Verdict::Unresolved => "unresolved",
            Verdict::Different => "DIFFERENT",
            Verdict::Missing => "MISSING",
        }
    }
}

/// Judges B against base A for a metric that may worsen by `bound`.
pub fn judge_bounded(better: Better, bound: f64, a: Sample, b: Sample) -> Verdict {
    let (worse, all_better) = match better {
        Better::Lower => ((b.value - a.value) / a.value, b.max < a.min),
        Better::Higher => ((a.value - b.value) / a.value, b.min > a.max),
    };
    let overlap = a.min <= b.max && b.min <= a.max;
    let spread = |s: Sample| (s.max - s.min) / s.value;
    if worse <= bound && spread(a).max(spread(b)) <= bound {
        Verdict::Ok
    } else if all_better {
        Verdict::Improved
    } else if worse > bound && !overlap {
        Verdict::Regressed
    } else {
        Verdict::Unresolved
    }
}

fn judge(name: &str, a: Sample, b: Sample) -> Verdict {
    match metrics::find(name).map(|m| (m.kind, m.better)) {
        Some((Kind::Bounded(bound), better)) => judge_bounded(better, bound, a, b),
        Some((Kind::Exact, _)) => {
            if a.value.to_bits() == b.value.to_bits() {
                Verdict::Same
            } else {
                Verdict::Different
            }
        }
        Some((Kind::Info, _)) | None => Verdict::Info,
    }
}

pub struct Comparison {
    pub table: String,
    pub passed: bool,
}

/// One row per (metric, workload) with both medians, the ratio and its
/// base, plus the deterministic header fields of every report.
pub fn compare(a: &[Report], b: &[Report]) -> Comparison {
    let mut table = String::new();
    let mut passed = true;
    let _ = writeln!(
        table,
        "{:<13} {:<8} {:<36} {:>16} {:>16} {:>9}  verdict",
        "workload", "run", "metric", "A median", "B median", "B/A"
    );
    let mut row = |workload: &str, traced: bool, metric: &str, a: f64, b: f64, v: Verdict| {
        passed &= v.passes();
        let run = if traced { "traced" } else { "untraced" };
        let ratio = if a == 0.0 {
            "-".to_string()
        } else {
            format!("{:.4}", b / a)
        };
        let _ = writeln!(
            table,
            "{workload:<13} {run:<8} {metric:<36} {a:>16.6} {b:>16.6} {ratio:>9}  {}",
            v.as_str()
        );
    };
    for ra in a {
        let Some(rb) = b
            .iter()
            .find(|r| r.workload == ra.workload && r.traced == ra.traced)
        else {
            row(
                &ra.workload,
                ra.traced,
                "(report)",
                1.0,
                0.0,
                Verdict::Missing,
            );
            continue;
        };
        let exact = |a: u64, b: u64| {
            if a == b {
                Verdict::Same
            } else {
                Verdict::Different
            }
        };
        for (name, x, y) in [
            ("events", ra.events, rb.events),
            ("digest", ra.digest, rb.digest),
            ("ops_attempted", ra.ops_attempted, rb.ops_attempted),
            ("ops_failed", ra.ops_failed, rb.ops_failed),
        ] {
            // Digests print as ratio 1 or not; their value is in the files.
            let (x_shown, y_shown) = if name == "digest" {
                (1.0, if x == y { 1.0 } else { 0.0 })
            } else {
                (x as f64, y as f64)
            };
            row(&ra.workload, ra.traced, name, x_shown, y_shown, exact(x, y));
        }
        for (name, sa) in &ra.metrics {
            match rb.metric(name) {
                Some(sb) => row(
                    &ra.workload,
                    ra.traced,
                    name,
                    sa.value,
                    sb.value,
                    judge(name, *sa, sb),
                ),
                None => row(
                    &ra.workload,
                    ra.traced,
                    name,
                    sa.value,
                    0.0,
                    Verdict::Missing,
                ),
            }
        }
        for (name, sb) in &rb.metrics {
            if ra.metric(name).is_none() {
                row(
                    &ra.workload,
                    ra.traced,
                    name,
                    0.0,
                    sb.value,
                    Verdict::Missing,
                );
            }
        }
    }
    for rb in b {
        if !a
            .iter()
            .any(|r| r.workload == rb.workload && r.traced == rb.traced)
        {
            row(
                &rb.workload,
                rb.traced,
                "(report)",
                0.0,
                1.0,
                Verdict::Missing,
            );
        }
    }
    let _ = writeln!(
        table,
        "ratios are B/A with A as the base; {}",
        if passed {
            "every row passes"
        } else {
            "some rows fail"
        }
    );
    Comparison { table, passed }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(value: f64, min: f64, max: f64) -> Sample {
        Sample {
            value,
            min,
            max,
            n: 3,
        }
    }

    #[test]
    fn bounded_verdicts() {
        use Better::{Higher, Lower};
        let base = s(100.0, 98.0, 102.0);
        assert_eq!(
            judge_bounded(Lower, 0.10, base, s(104.0, 101.0, 106.0)),
            Verdict::Ok
        );
        // 20% slower and not even the fastest B rep reaches A's slowest.
        assert_eq!(
            judge_bounded(Lower, 0.10, base, s(120.0, 118.0, 121.0)),
            Verdict::Regressed
        );
        // Past the bound on medians, but the ranges still overlap.
        assert_eq!(
            judge_bounded(Lower, 0.10, base, s(112.0, 101.0, 125.0)),
            Verdict::Unresolved
        );
        // Medians agree, but B's own reps wander by more than the bound.
        assert_eq!(
            judge_bounded(Lower, 0.10, base, s(101.0, 90.0, 115.0)),
            Verdict::Unresolved
        );
        // Better, and steady: plain ok. Better but wandering: still accepted,
        // because every B run beats every A run.
        assert_eq!(
            judge_bounded(Lower, 0.10, base, s(80.0, 79.0, 81.0)),
            Verdict::Ok
        );
        assert_eq!(
            judge_bounded(Lower, 0.10, base, s(80.0, 70.0, 95.0)),
            Verdict::Improved
        );
        // Direction flips for throughput.
        assert_eq!(
            judge_bounded(Higher, 0.10, base, s(80.0, 79.0, 81.0)),
            Verdict::Regressed
        );
        assert_eq!(
            judge_bounded(Higher, 0.10, base, s(130.0, 110.0, 131.0)),
            Verdict::Improved
        );
    }

    #[test]
    fn exact_metrics_compare_bit_for_bit() {
        let x = Sample::one(0.1 + 0.2);
        assert_eq!(judge("file_delivery_ratio", x, x), Verdict::Same);
        assert_eq!(
            judge("file_delivery_ratio", x, Sample::one(0.3)),
            Verdict::Different
        );
        assert_eq!(
            judge("node.contact.busy_s", x, Sample::one(9.0)),
            Verdict::Info
        );
    }
}
