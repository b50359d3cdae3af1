//! `mbt experiment` — regenerate any experiment of the evaluation by name.

use std::fmt::Write as _;
use std::path::Path;

use mbt_experiments::catalogue;
use mbt_experiments::{ExecConfig, RunContext, Scale};

use crate::args::{ArgError, Args};
use crate::CliError;

/// Usage text for the subcommand.
pub const USAGE: &str = "mbt experiment <name|group|all|list>... \
[--quick] [--jobs N] [--replicates R] [--csv-dir DIR]

Runs experiments from the catalogue — every Fig 2 / Fig 3 panel, the
capacity analysis, the ablations, the routing baselines, the extensions and
the fault / protocol-variant figures — and prints their tables. Name one or
more experiments or groups, or `all`; `list` prints every name by group.
--quick runs the small test scale (seconds) instead of the full one.
--jobs N sets the worker threads (0, the default, = one per core; at most
256) for every experiment, and results are bit-identical for any --jobs.
--replicates R applies to figure rows: it runs R independently seeded
replicates per sweep cell, filling the stddev CSV columns. Table rows (capacity, ablations,
routing, extensions) run once at seed 42 whatever R is.
CSVs are written only with --csv-dir DIR, one <figure>.csv per figure run.";

/// Runs the subcommand.
pub fn run(args: &Args) -> Result<String, CliError> {
    let selectors: Vec<&str> = args.positionals().iter().map(String::as_str).collect();
    if selectors.is_empty() {
        return Err(ArgError::MissingPositional("name|group|all|list").into());
    }
    if selectors == ["list"] {
        return Ok(catalogue::list());
    }
    let rows = catalogue::select(&selectors).map_err(|e| CliError::Usage(e.to_string()))?;
    let scale = if args.flag("quick") {
        Scale::Quick
    } else {
        Scale::Full
    };
    let exec = ExecConfig::default()
        .jobs(super::jobs(args)?)
        .replicates(super::replicates(args)?);
    let csv_dir = args.opt_str("csv-dir").map(Path::new);
    if let Some(dir) = csv_dir {
        std::fs::create_dir_all(dir).map_err(|e| CliError::Io(dir.display().to_string(), e))?;
    }

    let ctx = RunContext::new(scale).exec(exec);
    let report = catalogue::run(&selectors.join(", "), &rows, &ctx);
    let mut out = report.text;
    if let Some(dir) = csv_dir {
        out.push('\n');
        for (stem, csv) in &report.csvs {
            let path = dir.join(format!("{stem}.csv"));
            std::fs::write(&path, csv).map_err(|e| CliError::Io(path.display().to_string(), e))?;
            let _ = writeln!(out, "  -> {}", path.display());
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_line(line: &str) -> Result<String, CliError> {
        run(&crate::parse_line("experiment", line))
    }

    #[test]
    fn capacity_prints_table() {
        let out = run_line("capacity").unwrap();
        assert!(out.contains("capacity experiments (scale Full)"), "{out}");
        assert!(out.contains("crossover statement: HOLDS"));
        assert_eq!(out.lines().count(), 2 + 1 + 1 + 19 + 1); // banner, title, header, n=2..20, verdict
    }

    #[test]
    fn list_names_every_experiment() {
        let out = run_line("list").unwrap();
        for e in catalogue::catalogue() {
            assert!(out.contains(e.name()), "{} missing: {out}", e.name());
        }
    }

    #[test]
    fn unknown_name_lists_the_valid_ones() {
        let err = run_line("nope --quick").unwrap_err().to_string();
        assert!(err.contains("`nope`"), "{err}");
        assert!(err.contains("fig2a") && err.contains("h2h_nus"), "{err}");
        assert!(run_line("--quick")
            .unwrap_err()
            .to_string()
            .contains("name|group"));
    }

    #[test]
    fn csvs_are_written_only_under_csv_dir() {
        let dir = std::env::temp_dir().join("mbt-cli-test-experiment/csv");
        let _ = std::fs::remove_dir_all(&dir);
        let plain = run_line("fig3f capacity --quick --jobs 1").unwrap();
        assert!(!plain.contains("->"), "{plain}");
        assert!(!dir.exists());
        let with_csv = run_line(&format!(
            "fig3f capacity --quick --jobs 2 --csv-dir {}",
            dir.display()
        ))
        .unwrap();
        // Same tables for any job count, plus one line per file written.
        assert!(with_csv.starts_with(&plain));
        let written = dir.join("fig3f.csv");
        assert!(with_csv.ends_with(&format!("\n  -> {}\n", written.display())));
        let csv = std::fs::read_to_string(written).unwrap();
        assert!(csv.starts_with("x,protocol,"), "{csv}");
        assert_eq!(std::fs::read_dir(&dir).unwrap().count(), 1);
    }

    #[test]
    fn an_unwritable_csv_dir_is_an_io_error() {
        let file = std::env::temp_dir().join("mbt-cli-test-experiment-not-a-dir");
        std::fs::write(&file, "").unwrap();
        let err = run_line(&format!("capacity --csv-dir {}/sub", file.display())).unwrap_err();
        assert!(matches!(err, CliError::Io(..)), "{err}");
    }
}
