//! `mbt sweep` — run a parameter sweep over a trace with a named protocol
//! list, rendering a paper-style table or CSV.
//!
//! Where `mbt simulate` runs one cell, this expands the full
//! *(x value × protocol × replicate)* grid on a thread pool. Protocols are
//! selected by registry name ([`ProtocolSpec::by_name`]), so the new
//! variants (PopCache, DiffuseRep) line up next to the paper's triad with
//! one flag.

use dtn_trace::SimDuration;
use mbt_core::ProtocolSpec;
use mbt_experiments::report::{figure_csv, figure_delay_csv, figure_table};
use mbt_experiments::runner::SimParams;
use mbt_experiments::{ExecConfig, ParallelRunner};

use crate::args::{rate, ArgError, Args};
use crate::commands::{days_of, days_or, files_per_day, open_source, refuse_both, run_size};
use crate::CliError;

/// Usage text for the subcommand.
pub const USAGE: &str = "mbt sweep <trace-file|shard-dir> \
[--protocols name,name,...] [--param internet|files-per-day|ttl] \
[--xs v,v,...] [--jobs N] [--replicates N] [--seed N] [--days N] \
[--files-per-day N] [--frequent-days N] [--csv | --delay-csv]

Expands the (x value x protocol x replicate) grid over the trace and prints
one series per selected protocol. --protocols picks registry names
(default: mbt,mbt-q,mbt-qm; also popcache, diffuserep — see
`mbt simulate`). --param chooses the swept axis (default: internet, the
Internet-access fraction; files-per-day and ttl take whole numbers and have
no default --xs). Output is an aligned table, `--csv` the legacy
ratio CSV, `--delay-csv` the ratio+delay CSV. --jobs N sets the worker
threads (0, the default, = one per core; at most 256); results are
bit-identical for any --jobs value.";

/// Runs the subcommand.
pub fn run(args: &Args) -> Result<String, CliError> {
    refuse_both(args, "csv", "delay-csv", "each picks the one table printed")?;
    let path = args.positional(0, "trace-file")?.to_string();
    let source = open_source(&path)?;

    let protocols = distinct(
        "protocols",
        args.str_or("protocols", "mbt,mbt-q,mbt-qm"),
        |name| ProtocolSpec::by_name(name).map_err(|e| CliError::Usage(e.to_string())),
    )?;

    let param = args.str_or("param", "internet").to_string();
    if !["internet", "files-per-day", "ttl"].contains(&param.as_str()) {
        return Err(CliError::Usage(format!(
            "unknown sweep parameter `{param}` (expected internet, files-per-day, or ttl)"
        )));
    }
    // The Internet-access fraction is a rate; the other axes are counts,
    // which have no default (the default x values are fractions) and the
    // bounds of the flags they stand for.
    let x_value = |v: &str| -> Result<f64, ArgError> {
        match param.as_str() {
            "internet" => rate("xs", v),
            "files-per-day" => files_per_day("xs", v).map(f64::from),
            _ => days_of("xs", v, source.as_ref()).map(|days| days as f64),
        }
    };
    let xs = match args.opt_str("xs") {
        Some(xs) => xs,
        None if param == "internet" => "0.1,0.3,0.5,0.7,0.9",
        None => {
            return Err(CliError::Usage(format!(
                "--param {param} needs --xs: the default x values are Internet-access fractions"
            )))
        }
    };
    let xs = distinct("xs", xs, |v| Ok(x_value(v)?))?;

    let (days, files) = run_size(args, source.as_ref())?;
    let base = SimParams::builder()
        .days(days)
        .files_per_day(files)
        .frequent_window(SimDuration::from_days(days_or(
            args,
            "frequent-days",
            1,
            source.as_ref(),
        )?))
        .build();

    let params_for = |x: f64| -> SimParams {
        let mut p = base.clone();
        match param.as_str() {
            // Exact: a count axis holds what `x_value` read as an integer
            // far below 2⁵³.
            "files-per-day" => p.files_per_day = x as u32,
            "ttl" => p.ttl_days = x as u64,
            _ => p.internet_fraction = x,
        }
        p
    };
    let exec = ExecConfig::default()
        .jobs(super::jobs(args)?)
        .replicates(super::replicates(args)?)
        .master_seed(args.parse_or("seed", 42u64, "an integer")?);
    let fig = ParallelRunner::new(exec)
        .with_protocols(protocols)
        .sweep_shared_source(
            "sweep",
            &format!("sweep of {param} over {path}"),
            &param,
            &xs,
            source,
            params_for,
            None,
        );

    if args.flag("delay-csv") {
        Ok(figure_delay_csv(&fig))
    } else if args.flag("csv") {
        Ok(figure_csv(&fig))
    } else {
        Ok(figure_table(&fig))
    }
}

/// The comma-separated `list` of `--option`, each entry parsed. An entry
/// equal to an earlier one is refused, naming its token: it would print a
/// second series or row, with other numbers, that cannot be told from the
/// first.
fn distinct<T: PartialEq>(
    option: &str,
    list: &str,
    parse: impl Fn(&str) -> Result<T, CliError>,
) -> Result<Vec<T>, CliError> {
    let mut values = Vec::new();
    for token in list.split(',').map(str::trim) {
        let value = parse(token)?;
        if values.contains(&value) {
            return Err(CliError::Usage(format!(
                "--{option} repeats `{token}`: its two runs would print under one label"
            )));
        }
        values.push(value);
    }
    Ok(values)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dtn_trace::generators::NusConfig;
    use dtn_trace::write_trace;

    fn trace_file(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("mbt-cli-test-sweep");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("{name}.trace"));
        let trace = NusConfig::new(20, 5).seed(3).generate();
        write_trace(std::fs::File::create(&path).unwrap(), &trace).unwrap();
        path
    }

    fn args(s: &str) -> Args {
        crate::parse_line("sweep", s)
    }

    #[test]
    fn default_sweep_prints_triad_table() {
        let path = trace_file("default");
        let out = run(&args(&format!(
            "{} --xs 0.3,0.7 --files-per-day 5",
            path.display()
        )))
        .unwrap();
        assert!(out.contains("MBT-QM"), "{out}");
        assert!(out.contains("0.300"), "{out}");
    }

    #[test]
    fn named_protocols_drive_csv_columns() {
        let path = trace_file("named");
        let out = run(&args(&format!(
            "{} --protocols popcache,diffuserep --xs 0.5 --files-per-day 5 --csv",
            path.display()
        )))
        .unwrap();
        assert!(out.starts_with("x,protocol"), "{out}");
        assert!(out.contains("0.5,PopCache,"), "{out}");
        assert!(out.contains("0.5,DiffuseRep,"), "{out}");
        assert!(!out.contains("MBT-Q,"), "unselected protocol leaked: {out}");
    }

    #[test]
    fn delay_csv_has_delay_columns() {
        let path = trace_file("delay");
        let out = run(&args(&format!(
            "{} --protocols mbt --xs 0.5 --files-per-day 5 --delay-csv",
            path.display()
        )))
        .unwrap();
        assert!(
            out.contains("metadata_delay_hours,file_delay_hours"),
            "{out}"
        );
    }

    #[test]
    fn unknown_protocol_name_gets_did_you_mean() {
        let path = trace_file("badname");
        let err = run(&args(&format!("{} --protocols mbtt", path.display()))).unwrap_err();
        assert!(err.to_string().contains("did you mean"), "{err}");
    }

    #[test]
    fn jobs_do_not_change_output() {
        let path = trace_file("jobs");
        let base = format!("{} --xs 0.3,0.7 --files-per-day 5 --csv", path.display());
        let serial = run(&args(&format!("{base} --jobs 1"))).unwrap();
        let parallel = run(&args(&format!("{base} --jobs 8"))).unwrap();
        assert_eq!(serial, parallel);
    }

    #[test]
    fn internet_x_values_are_rates() {
        let path = trace_file("badrate");
        for bad in ["1.5", "-0.1", "nan"] {
            let line = format!("{} --xs 0.5,{bad} --files-per-day 5", path.display());
            let err = run(&args(&line)).unwrap_err().to_string();
            assert!(
                err.contains("--xs") && err.contains(&format!("`{bad}`")),
                "{err}"
            );
        }
        // The other axes are counts, not rates.
        let line = format!("{} --param ttl --xs 2 --files-per-day 5", path.display());
        run(&args(&line)).unwrap();
    }

    #[test]
    fn count_axes_take_whole_numbers_in_range_and_have_no_default() {
        let path = trace_file("counts");
        let sweep = |rest: &str| run(&args(&format!("{} --days 2 {rest}", path.display())));
        for (param, bad) in [
            ("files-per-day", "2.7"),
            ("files-per-day", "1e30"),
            ("files-per-day", "100001"),
            ("ttl", "-1"),
            ("ttl", "0.5"),
            ("ttl", "4294967296"),
            ("ttl", "999999999999999999"),
            ("ttl", "5121"),
        ] {
            let err = sweep(&format!("--param {param} --xs 2,{bad}")).unwrap_err();
            let err = err.to_string();
            assert!(
                err.contains("--xs") && err.contains(&format!("`{bad}`")),
                "{err}"
            );
        }
        // The default x values are fractions: not a default for a count.
        for param in ["files-per-day", "ttl"] {
            let err = sweep(&format!("--param {param}")).unwrap_err().to_string();
            assert!(
                err.contains(&format!("--param {param} needs --xs")),
                "{err}"
            );
        }
        // A row is labelled with the count it ran.
        let out = sweep("--param files-per-day --xs 2,3 --protocols mbt --csv").unwrap();
        assert!(
            out.contains("\n2,MBT,") && out.contains("\n3,MBT,"),
            "{out}"
        );
    }

    #[test]
    fn days_and_files_per_day_are_bounded_as_in_simulate() {
        let path = trace_file("sizes");
        for (flags, names) in [
            ("--days 99999999999", "--days 99999999999"),
            ("--files-per-day 4000000000", "`4000000000`"),
        ] {
            let err = run(&args(&format!("{} --xs 0.5 {flags}", path.display()))).unwrap_err();
            assert!(err.to_string().contains(names), "{err}");
        }
    }

    #[test]
    fn rejects_unknown_param() {
        let path = trace_file("badparam");
        let err = run(&args(&format!("{} --param beard-length", path.display()))).unwrap_err();
        assert!(err.to_string().contains("unknown sweep parameter"), "{err}");
    }
}
