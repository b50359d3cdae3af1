//! `mbt` — command-line tool for the hybrid-DTN cooperative file sharing
//! reproduction.
//!
//! ```text
//! mbt experiment   regenerate any figure, table or ablation of the evaluation
//! mbt gen-trace    generate a synthetic contact trace (dieselnet | nus | rwp)
//! mbt shard        write a trace as time-windowed on-disk shards
//! mbt shard-info   inspect a sharded trace's manifest
//! mbt trace-stats  inspect a trace: contacts, cliques, inter-contact times
//! mbt simulate     run a protocol variant over a trace or shard dir
//! mbt sweep        sweep a parameter over named protocol variants
//! mbt routing      run a routing baseline (epidemic | prophet | spray | direct)
//! mbt node         run live MBT nodes and a seeded gateway node on the frame bus
//! ```

use std::error::Error;
use std::fmt;
use std::process::ExitCode;

mod args;
mod commands;

use args::{ArgError, Args};

/// Errors surfaced to the user.
#[derive(Debug)]
pub enum CliError {
    /// Bad arguments or input content.
    Usage(String),
    /// I/O failure on a named path.
    Io(String, std::io::Error),
}

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CliError::Usage(msg) => f.write_str(msg),
            CliError::Io(path, e) => write!(f, "{path}: {e}"),
        }
    }
}

impl Error for CliError {}

impl From<ArgError> for CliError {
    fn from(e: ArgError) -> Self {
        CliError::Usage(e.to_string())
    }
}

const TOP_USAGE: &str = "usage: mbt <command> [options]

commands:
  experiment   regenerate the paper's figures, tables and ablations by name
  gen-trace    generate a synthetic contact trace
  shard        write a trace as time-windowed on-disk shards
  shard-info   inspect a sharded trace's manifest
  trace-stats  inspect a contact trace
  simulate     run the MBT file-sharing simulation (trace file or shard dir)
  sweep        sweep a parameter over named protocol variants (table/CSV)
  routing      run a store-carry-forward routing baseline (file or shard dir)
  node         run live MBT nodes and a seeded gateway node on the frame bus

run `mbt <command> --help` for command options; `mbt experiment list` names
every experiment.";

/// One subcommand: everything `mbt` knows about it. [`Args::parse`] rejects
/// whatever a row does not declare, and `Args` debug-asserts that `run`
/// reads only what its row declares.
#[derive(Debug)]
pub struct Command {
    /// The subcommand name.
    pub name: &'static str,
    /// What `--help` prints.
    pub usage: &'static str,
    /// How many positional arguments it takes at most.
    pub positionals: usize,
    /// Options that take a value (`--name value`).
    pub options: &'static [&'static str],
    /// Options that take none (`--name`).
    pub flags: &'static [&'static str],
    /// Runs it, returning what to print.
    pub run: fn(&Args) -> Result<String, CliError>,
}

/// Every subcommand: the one place a command, its options and its flags
/// are declared.
static COMMANDS: [Command; 9] = {
    use commands::*;
    [
        Command {
            name: "experiment",
            usage: experiment::USAGE,
            positionals: usize::MAX,
            options: &["jobs", "replicates", "csv-dir"],
            flags: &["quick"],
            run: experiment::run,
        },
        Command {
            name: "gen-trace",
            usage: gen_trace::USAGE,
            positionals: 0,
            options: &[
                "out",
                "model",
                "nodes",
                "days",
                "seed",
                "routes",
                "attendance",
                "drop",
                "truncate",
            ],
            flags: &["weekends"],
            run: gen_trace::run,
        },
        Command {
            name: "shard",
            usage: shard::USAGE,
            positionals: 0,
            options: &[
                "out",
                "model",
                "nodes",
                "days",
                "seed",
                "routes",
                "attendance",
                "window-days",
                "window-secs",
                "jobs",
                "from",
            ],
            flags: &["weekends"],
            run: shard::run,
        },
        Command {
            name: "shard-info",
            usage: shard_info::USAGE,
            positionals: 1,
            options: &[],
            flags: &["verify"],
            run: shard_info::run,
        },
        Command {
            name: "trace-stats",
            usage: trace_stats::USAGE,
            positionals: 1,
            options: &["frequent-days"],
            flags: &[],
            run: trace_stats::run,
        },
        Command {
            name: "simulate",
            usage: simulate::USAGE,
            positionals: 1,
            options: &[
                "protocol",
                "internet",
                "files-per-day",
                "ttl",
                "days",
                "seed",
                "metadata-per-contact",
                "files-per-contact",
                "frequent-days",
                "loss",
                "churn",
                "truncate",
                "corrupt",
                "polluters",
                "fakes-per-day",
                "transport",
                "perf-report",
            ],
            flags: &["tft", "rarest-first", "verify"],
            run: simulate::run,
        },
        Command {
            name: "sweep",
            usage: sweep::USAGE,
            positionals: 1,
            options: &[
                "protocols",
                "param",
                "xs",
                "jobs",
                "replicates",
                "seed",
                "days",
                "files-per-day",
                "frequent-days",
            ],
            flags: &["csv", "delay-csv"],
            run: sweep::run,
        },
        Command {
            name: "routing",
            usage: routing::USAGE,
            positionals: 1,
            options: &["protocol", "messages", "ttl-days", "copies", "seed"],
            flags: &[],
            run: routing::run,
        },
        Command {
            name: "node",
            usage: node::USAGE,
            positionals: 0,
            options: &["nodes", "files", "file-bytes", "piece-size", "seed"],
            flags: &[],
            run: node::run,
        },
    ]
};

fn dispatch(command: &str, raw: impl IntoIterator<Item = String>) -> Result<String, CliError> {
    let Some(cmd) = COMMANDS.iter().find(|c| c.name == command) else {
        return Err(CliError::Usage(format!(
            "unknown command `{command}`\n\n{TOP_USAGE}"
        )));
    };
    let args =
        Args::parse(cmd, raw).map_err(|e| CliError::Usage(format!("{e}\n\n{}", cmd.usage)))?;
    if args.flag("help") {
        return Ok(cmd.usage.to_string());
    }
    (cmd.run)(&args)
}

fn main() -> ExitCode {
    let mut raw = std::env::args().skip(1);
    let Some(command) = raw.next() else {
        eprintln!("{TOP_USAGE}");
        return ExitCode::FAILURE;
    };
    if command == "--help" || command == "help" {
        println!("{TOP_USAGE}");
        return ExitCode::SUCCESS;
    }
    match dispatch(&command, raw) {
        Ok(output) => {
            if output.ends_with('\n') {
                print!("{output}");
            } else {
                println!("{output}");
            }
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Parses `line` for `command` the way `main` would (command unit tests).
#[cfg(test)]
pub(crate) fn parse_line(command: &str, line: &str) -> Args {
    let cmd = COMMANDS.iter().find(|c| c.name == command).unwrap();
    Args::parse(cmd, line.split_whitespace().map(String::from)).unwrap()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::Path;

    fn strings(items: &[&str]) -> Vec<String> {
        items.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn unknown_command_mentions_usage() {
        // `bench` and `capacity` were subcommands once; the benchmark is
        // `ledger` and the table is `mbt experiment capacity` now.
        for cmd in ["teleport", "bench", "capacity"] {
            let err = dispatch(cmd, Vec::new()).unwrap_err();
            assert!(err.to_string().contains("unknown command"));
            assert!(err.to_string().contains("gen-trace"));
        }
        // The search gateway is gone: no command by that name.
        let err = dispatch("gateway", strings(&["--query", "news"])).unwrap_err();
        assert!(
            err.to_string().contains("unknown command `gateway`"),
            "{err}"
        );
    }

    #[test]
    fn help_flags_print_usage() {
        for cmd in &COMMANDS {
            let out = dispatch(cmd.name, strings(&["--help"])).unwrap();
            assert_eq!(out, cmd.usage);
            assert!(out.starts_with(&format!("mbt {}", cmd.name)), "{out}");
            assert!(TOP_USAGE.contains(&format!("\n  {} ", cmd.name)));
        }
    }

    /// The `--name` tokens of a usage string.
    fn usage_options(usage: &str) -> Vec<&str> {
        let mut names: Vec<&str> = usage
            .split("--")
            .skip(1)
            .map(|rest| {
                let end = rest
                    .find(|c: char| !(c.is_ascii_alphanumeric() || c == '-'))
                    .unwrap_or(rest.len());
                &rest[..end]
            })
            .filter(|name| !name.is_empty())
            .collect();
        names.sort_unstable();
        names.dedup();
        names
    }

    #[test]
    fn table_and_usage_text_declare_the_same_options() {
        for cmd in &COMMANDS {
            let mut declared: Vec<&str> = cmd.options.iter().chain(cmd.flags).copied().collect();
            declared.sort_unstable();
            assert_eq!(declared, usage_options(cmd.usage), "{}", cmd.name);
        }
    }

    /// Minimal arguments under which `command` succeeds (filling every
    /// positional it takes), given a trace file and a shard directory
    /// under `dir`.
    fn base_args(command: &str, dir: &Path) -> Vec<String> {
        let trace = dir.join("t.trace").display().to_string();
        let shards = dir.join("shards").display().to_string();
        match command {
            "experiment" => strings(&["capacity"]),
            "gen-trace" => strings(&["--out", &trace, "--nodes", "8", "--days", "2"]),
            "shard" => strings(&["--out", &shards, "--nodes", "8", "--days", "2"]),
            "shard-info" => vec![shards],
            "trace-stats" => vec![trace],
            "simulate" => strings(&[&trace, "--files-per-day", "4"]),
            "sweep" => strings(&[&trace, "--xs", "0.5", "--files-per-day", "4"]),
            "routing" => vec![trace],
            _ => Vec::new(),
        }
    }

    #[test]
    fn every_command_rejects_what_it_does_not_declare() {
        let dir = std::env::temp_dir().join("mbt-cli-test-strict");
        std::fs::create_dir_all(&dir).unwrap();
        // `gen-trace` and `shard` precede the commands that read what
        // their base runs write.
        for cmd in &COMMANDS {
            let base = base_args(cmd.name, &dir);
            let run =
                |extra: &[&str]| dispatch(cmd.name, base.iter().cloned().chain(strings(extra)));
            let rejected = |extra: &[&str], token: &str| {
                let err = run(extra).unwrap_err().to_string();
                assert!(err.contains(token), "{} {extra:?}: {err}", cmd.name);
            };
            run(&[]).unwrap_or_else(|e| panic!("{} {base:?}: {e}", cmd.name));

            rejected(&["--bogus", "7"], "`--bogus`");
            let (twice, value): (_, &[&str]) = match cmd.options.first() {
                Some(option) => (format!("--{option}"), &["1"]),
                None => (format!("--{}", cmd.flags[0]), &[]),
            };
            let once = [&[twice.as_str()], value].concat();
            rejected(&[&once[..], &once[..]].concat(), &format!("`{twice}`"));
            // A malformed count, and a rate outside [0, 1] or not a number:
            // named and refused, never defaulted, clamped or panicked on.
            for (option, bad) in [
                ("--jobs", "banana"),
                // Not a request for 257 threads at once.
                ("--jobs", "257"),
                ("--replicates", "-1"),
                // Neither read as one nor sized a grid for.
                ("--replicates", "0"),
                ("--replicates", "4000000000"),
                ("--loss", "1.5"),
                ("--internet", "-0.1"),
                ("--loss", "nan"),
                ("--drop", "7"),
                // A count of days whose seconds overflow.
                ("--ttl", "999999999999999999"),
                ("--frequent-days", "999999999999999999"),
                ("--ttl-days", "999999999999999999"),
                ("--window-days", "999999999999999999"),
                // A message count generated up front: neither a 4 TB
                // allocation nor a capacity overflow.
                ("--messages", "100000000000"),
                ("--messages", "18446744073709551615"),
                // Live-session sizes outside what the command runs.
                ("--files", "0"),
                // Options no command declares any more.
                ("--limit", "0"),
                ("--catalog", "99"),
                ("--prefetch", "1"),
                ("--settle-ms", "60"),
            ] {
                let declared = cmd.options.contains(&&option[2..]);
                let token = if declared { bad } else { option };
                rejected(&[option, bad], &format!("`{token}`"));
            }
            if cmd.positionals < usize::MAX {
                rejected(&["3"], "`3`");
            }
            // A count out of proportion to the trace, and a fractional x on
            // a count axis (the base's `--xs 0.5`): refused, never cast.
            if ["simulate", "sweep"].contains(&cmd.name) {
                rejected(&["--days", "99999999999"], "--days 99999999999");
            }
            if cmd.name == "sweep" {
                rejected(&["--param", "ttl"], "`0.5`");
                rejected(&["--param", "files-per-day"], "`0.5`");
            }
            // `--nodes` sizes a trace for `gen-trace` and `shard`, but a
            // live session of nodes for `node`: 1 to 64, ends included.
            if cmd.name == "node" {
                rejected(&["--nodes", "0"], "`0`");
                rejected(&["--nodes", "500"], "`500`");
                run(&["--nodes", "64"]).unwrap();
            }
        }
    }

    #[test]
    fn options_a_run_would_ignore_are_refused_before_anything_is_written() {
        let dir = std::env::temp_dir().join("mbt-cli-test-ignored");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let trace = dir.join("t.trace").display().to_string();
        dispatch("gen-trace", base_args("gen-trace", &dir)).unwrap();
        let out = dir.join("out");
        // `(command, arguments, what the refusal names)`; the model defaults
        // to dieselnet.
        for (command, line, named) in [
            ("shard", "--from {trace} --model nus", ["--from", "--model"]),
            ("shard", "--from {trace} --nodes 999", ["--from", "--nodes"]),
            ("shard", "--from {trace} --days 3", ["--from", "--days"]),
            ("shard", "--from {trace} --seed 7", ["--from", "--seed"]),
            ("shard", "--from {trace} --routes 5", ["--from", "--routes"]),
            (
                "shard",
                "--from {trace} --attendance 0.3",
                ["--from", "--attendance"],
            ),
            (
                "shard",
                "--from {trace} --weekends",
                ["--from", "--weekends"],
            ),
            (
                "shard",
                "--window-days 2 --window-secs 60",
                ["--window-days", "--window-secs"],
            ),
            ("shard", "--model nus --routes 5", ["--routes", "nus"]),
            ("shard", "--attendance 0.3", ["--attendance", "dieselnet"]),
            ("gen-trace", "--model nus --routes 5", ["--routes", "nus"]),
            ("gen-trace", "--model rwp --routes 5", ["--routes", "rwp"]),
            (
                "gen-trace",
                "--model rwp --attendance 0.3",
                ["--attendance", "rwp"],
            ),
            ("gen-trace", "--model rwp --weekends", ["--weekends", "rwp"]),
            ("gen-trace", "--weekends", ["--weekends", "dieselnet"]),
            (
                "sweep",
                "{trace} --csv --delay-csv",
                ["--csv", "--delay-csv"],
            ),
            (
                "sweep",
                "{trace} --protocols mbt,mbt --xs 0.5",
                ["--protocols", "`mbt`"],
            ),
            (
                "sweep",
                "{trace} --protocols mbt,popcache,MBT --xs 0.5 --csv",
                ["--protocols", "`MBT`"],
            ),
            ("sweep", "{trace} --xs 0.5,0.5", ["--xs", "`0.5`"]),
            (
                "sweep",
                "{trace} --xs 0.5,0.3,0.50 --csv",
                ["--xs", "`0.50`"],
            ),
            ("sweep", "{trace} --param ttl --xs 2,1,2", ["--xs", "`2`"]),
            (
                "simulate",
                "{trace} --tft --rarest-first",
                ["--tft", "--rarest-first"],
            ),
            (
                "simulate",
                "{trace} --fakes-per-day 3",
                ["--fakes-per-day", "--polluters"],
            ),
            (
                "simulate",
                "{trace} --polluters 0 --fakes-per-day 3",
                ["--fakes-per-day", "--polluters"],
            ),
            (
                "simulate",
                "{trace} --polluters 0.2 --fakes-per-day 0",
                ["--polluters", "--fakes-per-day"],
            ),
            ("routing", "{trace} --copies 4", ["--copies", "epidemic"]),
            (
                "routing",
                "{trace} --protocol prophet --copies 4",
                ["--copies", "prophet"],
            ),
        ] {
            let mut raw: Vec<String> = line
                .replace("{trace}", &trace)
                .split_whitespace()
                .map(String::from)
                .collect();
            // `sweep` and `routing` write nothing but their report.
            let target = match command {
                "simulate" => Some("--perf-report"),
                "sweep" | "routing" => None,
                _ => Some("--out"),
            };
            if let Some(target) = target {
                raw.extend(strings(&[target, &out.display().to_string()]));
            }
            let err = dispatch(command, raw).unwrap_err();
            assert!(
                matches!(err, CliError::Usage(_)),
                "{command} {line}: {err:?}"
            );
            let err = err.to_string();
            for name in named {
                assert!(err.contains(name), "{command} {line}: {err}");
            }
            assert!(!out.exists(), "{command} {line} wrote {}", out.display());
        }
    }
}
