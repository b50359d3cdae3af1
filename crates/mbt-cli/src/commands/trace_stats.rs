//! `mbt trace-stats` — inspect a contact trace.

use std::fmt::Write as _;
use std::fs::File;

use dtn_trace::{read_trace, AggregateGraph, FrequentScan, SimDuration, TraceStats};

use crate::args::Args;
use crate::commands::days_or;
use crate::CliError;

/// Usage text for the subcommand.
pub const USAGE: &str = "mbt trace-stats <trace-file> [--frequent-days N]";

/// Runs the subcommand.
pub fn run(args: &Args) -> Result<String, CliError> {
    let path = args.positional(0, "trace-file")?.to_string();
    let file = File::open(&path).map_err(|e| CliError::Io(path.clone(), e))?;
    let trace = read_trace(file).map_err(|e| CliError::Usage(e.to_string()))?;
    let frequent_days = days_or(args, "frequent-days", 1, &trace)?;
    let stats = TraceStats::compute(&trace);

    let mut out = String::new();
    let _ = writeln!(out, "trace: {path}");
    let _ = writeln!(out, "  contacts:        {}", trace.len());
    let _ = writeln!(out, "  nodes:           {}", trace.node_count());
    let _ = writeln!(
        out,
        "  span:            {:.2} days",
        trace.span().as_days_f64()
    );
    if let Some(mean) = stats.mean_contact_duration_secs() {
        let _ = writeln!(out, "  mean duration:   {mean:.0} s");
    }
    if let Some(size) = stats.mean_contact_size() {
        let _ = writeln!(out, "  mean clique:     {size:.1} nodes");
    }
    let pooled = stats.pooled_inter_contact_times();
    if !pooled.is_empty() {
        let median = pooled[pooled.len() / 2];
        let _ = writeln!(
            out,
            "  median inter-contact: {:.2} hours",
            median.as_secs() as f64 / 3600.0
        );
    }
    let mut scan = FrequentScan::new(SimDuration::from_days(frequent_days));
    for contact in trace.iter() {
        scan.observe(contact);
    }
    let with_frequent = scan.finish().values().filter(|v| !v.is_empty()).count();
    let _ = writeln!(
        out,
        "  nodes with frequent contacts (every {frequent_days}d): {with_frequent} / {}",
        trace.node_count()
    );
    let graph = AggregateGraph::from_trace(&trace);
    let components = graph.components();
    let _ = writeln!(
        out,
        "  aggregate graph:  {} edges, density {:.3}, {} component(s){}",
        graph.edge_count(),
        graph.density(),
        components.len(),
        if graph.is_connected() {
            " (connected)"
        } else {
            ""
        }
    );
    if let Some(largest) = components.first() {
        let _ = writeln!(out, "  largest component: {} nodes", largest.len());
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dtn_trace::generators::NusConfig;
    use dtn_trace::write_trace;

    #[test]
    fn reports_basic_stats() {
        let dir = std::env::temp_dir().join("mbt-cli-test-stats");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.trace");
        let trace = NusConfig::new(20, 5).seed(3).generate();
        write_trace(std::fs::File::create(&path).unwrap(), &trace).unwrap();
        let args = crate::parse_line("trace-stats", &path.display().to_string());
        let out = run(&args).unwrap();
        assert!(out.contains("contacts:"));
        assert!(out.contains("mean clique:"));
    }

    #[test]
    fn missing_file_is_an_io_error() {
        let args = crate::parse_line("trace-stats", "/nonexistent/nope.trace");
        assert!(matches!(run(&args), Err(CliError::Io(..))));
    }
}
