//! Text and CSV rendering of every experiment's output.

use std::fmt::Write as _;

use mbt_core::ProtocolSpec;

use crate::sweep::{Figure, SeriesPoint};

/// One column of an [`aligned_table`]: its header, its width, and the cell
/// a row renders in it.
pub(crate) type Column<R> = (&'static str, usize, fn(&R) -> String);

/// Renders `rows` as an aligned text table: the header line, then one line
/// a row.
pub(crate) fn aligned_table<R>(columns: &[Column<R>], rows: &[R]) -> String {
    let widths: Vec<usize> = columns.iter().map(|&(_, width, _)| width).collect();
    let header = columns.iter().map(|(name, ..)| name.to_string()).collect();
    let cells = (rows.iter()).map(|row| columns.iter().map(|(.., cell)| cell(row)).collect());
    lines(&widths, std::iter::once(header).chain(cells))
}

/// Renders a first column (`first` is its header and width), then a `|`
/// and a `.meta`/`.file` column pair for each of `protocols`. A row is its
/// first cell and one `[meta, file]` pair a protocol.
pub(crate) fn grouped_table(
    first: (&str, usize),
    protocols: &[ProtocolSpec],
    rows: impl Iterator<Item = (String, Vec<[String; 2]>)>,
) -> String {
    let names = protocols
        .iter()
        .map(|p| [format!("{p}.meta"), format!("{p}.file")]);
    let header = (first.0.to_string(), names.collect());
    let widths: Vec<usize> = std::iter::once(first.1)
        .chain(protocols.iter().flat_map(|_| [1, 14, 14]))
        .collect();
    let cells = std::iter::once(header).chain(rows).map(|(first, pairs)| {
        let groups = pairs
            .into_iter()
            .flat_map(|[meta, file]| ["|".to_string(), meta, file]);
        std::iter::once(first).chain(groups).collect()
    });
    lines(&widths, cells)
}

/// Writes each line's cells right-aligned to `widths`, one space apart.
fn lines(widths: &[usize], rows: impl Iterator<Item = Vec<String>>) -> String {
    let mut out = String::new();
    for cells in rows {
        debug_assert_eq!(cells.len(), widths.len(), "one cell a column");
        let padded: Vec<String> = (cells.iter().zip(widths))
            .map(|(cell, &width)| format!("{cell:>width$}"))
            .collect();
        out.push_str(&padded.join(" "));
        out.push('\n');
    }
    out
}

/// Renders a figure as an aligned text table with one column pair
/// (metadata ratio, file ratio) per protocol — the rows/series the paper's
/// plots report.
pub fn figure_table(fig: &Figure) -> String {
    let protocols: Vec<ProtocolSpec> = fig.series.iter().map(|s| s.protocol).collect();
    let n_points = fig.series.first().map_or(0, |s| s.points.len());
    let ratios = |p: &SeriesPoint| [p.metadata.mean, p.file.mean].map(|r| format!("{r:.4}"));
    let rows = (0..n_points).map(|i| {
        let pairs = fig.series.iter().map(|s| ratios(&s.points[i])).collect();
        (format!("{:.3}", fig.series[0].points[i].x), pairs)
    });
    let table = grouped_table((fig.x_label.as_str(), 22), &protocols, rows);
    format!("== {} ({}) ==\n{table}", fig.title, fig.id)
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
                p.metadata.mean,
                p.file.mean,
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
                p.metadata.mean,
                p.file.mean,
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::SimResult;
    use crate::sweep::ProtocolSeries;

    fn tiny_figure() -> Figure {
        Figure {
            id: "figX".into(),
            title: "test".into(),
            x_label: "x".into(),
            series: vec![ProtocolSeries {
                protocol: ProtocolSpec::MBT,
                points: vec![SeriesPoint::from_replicates(
                    0.5,
                    vec![SimResult {
                        metadata_ratio: 0.75,
                        file_ratio: 0.5,
                        mean_metadata_delay_hours: Some(2.25),
                        ..SimResult::default()
                    }],
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
}
