//! Text and CSV rendering of reproduced figures.

use std::fmt::Write as _;

use crate::capacity::CapacityRow;
use crate::sweep::Figure;

/// Renders a figure as an aligned text table with one column pair
/// (metadata ratio, file ratio) per protocol — the rows/series the paper's
/// plots report.
pub fn figure_table(fig: &Figure) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "== {} ({}) ==", fig.title, fig.id);
    let mut header = format!("{:>22}", fig.x_label);
    for s in &fig.series {
        let _ = write!(header, " | {:>9}.meta {:>9}.file", s.protocol, s.protocol);
    }
    let _ = writeln!(out, "{header}");
    let n_points = fig.series.first().map_or(0, |s| s.points.len());
    for i in 0..n_points {
        let x = fig.series[0].points[i].x;
        let mut row = format!("{x:>22.3}");
        for s in &fig.series {
            let p = &s.points[i];
            let _ = write!(row, " | {:>14.4} {:>14.4}", p.metadata_ratio, p.file_ratio);
        }
        let _ = writeln!(out, "{row}");
    }
    out
}

/// Renders a figure as CSV: `x,protocol,metadata_ratio,file_ratio,
/// metadata_stddev,file_stddev,replicates,queries,metadata_delivered,
/// files_delivered`. The stddev columns carry the replicate spread (0 when a
/// point was produced by a single run).
pub fn figure_csv(fig: &Figure) -> String {
    let mut out = String::from(
        "x,protocol,metadata_ratio,file_ratio,metadata_stddev,file_stddev,\
         replicates,queries,metadata_delivered,files_delivered\n",
    );
    for s in &fig.series {
        for p in &s.points {
            let _ = writeln!(
                out,
                "{},{},{:.6},{:.6},{:.6},{:.6},{},{},{},{}",
                p.x,
                s.protocol,
                p.metadata_ratio,
                p.file_ratio,
                p.metadata.stddev,
                p.file.stddev,
                p.metadata.n,
                p.result.queries,
                p.result.metadata_delivered,
                p.result.files_delivered
            );
        }
    }
    out
}

/// Renders a figure as CSV with delivery *delay* columns alongside the
/// ratios: `x,protocol,metadata_ratio,file_ratio,metadata_delay_hours,
/// file_delay_hours,replicates,queries,metadata_delivered,files_delivered`.
/// Delay cells are the pooled mean delays in hours, blank when a point saw
/// no deliveries at all. The head-to-head figures are rendered with this;
/// the legacy triad figures keep [`figure_csv`] untouched.
pub fn figure_delay_csv(fig: &Figure) -> String {
    let mut out = String::from(
        "x,protocol,metadata_ratio,file_ratio,metadata_delay_hours,file_delay_hours,\
         replicates,queries,metadata_delivered,files_delivered\n",
    );
    let delay_cell = |d: Option<f64>| d.map_or(String::new(), |h| format!("{h:.3}"));
    for s in &fig.series {
        for p in &s.points {
            let _ = writeln!(
                out,
                "{},{},{:.6},{:.6},{},{},{},{},{},{}",
                p.x,
                s.protocol,
                p.metadata_ratio,
                p.file_ratio,
                delay_cell(p.result.mean_metadata_delay_hours),
                delay_cell(p.result.mean_file_delay_hours),
                p.metadata.n,
                p.result.queries,
                p.result.metadata_delivered,
                p.result.files_delivered
            );
        }
    }
    out
}

/// Renders the §V capacity table.
pub fn capacity_table_text(rows: &[CapacityRow]) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:>4} {:>12} {:>12} {:>14} {:>14} {:>14} {:>14}",
        "n", "bcast (n-1)/n", "pair 1/n", "bcast (sim)", "pair (sim)", "slots bcast", "slots pair"
    );
    for r in rows {
        let _ = writeln!(
            out,
            "{:>4} {:>12.4} {:>12.4} {:>14.4} {:>14.4} {:>14} {:>14}",
            r.n,
            r.broadcast,
            r.pairwise,
            r.broadcast_sim,
            r.pairwise_sim,
            r.slots_broadcast,
            r.slots_pairwise
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::capacity::capacity_table;
    use crate::runner::SimResult;
    use crate::sweep::{ProtocolSeries, SeriesPoint};
    use mbt_core::ProtocolSpec;

    fn tiny_figure() -> Figure {
        Figure {
            id: "figX".into(),
            title: "test".into(),
            x_label: "x".into(),
            series: vec![ProtocolSeries {
                protocol: ProtocolSpec::MBT,
                points: vec![SeriesPoint::single(
                    0.5,
                    SimResult {
                        metadata_ratio: 0.75,
                        file_ratio: 0.5,
                        mean_metadata_delay_hours: Some(2.25),
                        ..SimResult::default()
                    },
                )],
            }],
        }
    }

    #[test]
    fn table_mentions_everything() {
        let t = figure_table(&tiny_figure());
        assert!(t.contains("figX"));
        assert!(t.contains("MBT"));
        assert!(t.contains("0.7500"));
        assert!(t.contains("0.5000"));
    }

    #[test]
    fn table_columns_line_up() {
        let mut fig = tiny_figure();
        let points = fig.series[0].points.clone();
        for protocol in [ProtocolSpec::MBT_Q, ProtocolSpec::MBT_QM] {
            fig.series.push(ProtocolSeries {
                protocol,
                points: points.clone(),
            });
        }
        let offsets = |line: &str| -> Vec<usize> {
            line.char_indices()
                .filter(|&(_, c)| c == '|')
                .map(|(i, _)| i)
                .collect()
        };
        let table = figure_table(&fig);
        let mut lines = table.lines().skip(1); // title
        let header = lines.next().unwrap();
        assert_eq!(offsets(header).len(), 3);
        for row in lines {
            assert_eq!(offsets(row), offsets(header), "{table}");
            assert_eq!(row.len(), header.len(), "{table}");
        }
    }

    #[test]
    fn csv_has_header_and_rows() {
        let csv = figure_csv(&tiny_figure());
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].starts_with("x,protocol"));
        assert!(lines[0].contains("metadata_stddev,file_stddev"));
        assert!(lines[1].starts_with("0.5,MBT,0.750000,0.500000,0.000000,0.000000,1"));
    }

    #[test]
    fn delay_csv_renders_delays_and_blanks() {
        let csv = figure_delay_csv(&tiny_figure());
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].contains("metadata_delay_hours,file_delay_hours"));
        // Metadata delay present, file delay blank (no file deliveries).
        assert!(
            lines[1].starts_with("0.5,MBT,0.750000,0.500000,2.250,,1"),
            "{}",
            lines[1]
        );
    }

    #[test]
    fn capacity_text_renders_rows() {
        let text = capacity_table_text(&capacity_table(4, 10));
        assert_eq!(text.lines().count(), 4); // header + n=2,3,4
        assert!(text.contains("0.5000"));
    }
}
