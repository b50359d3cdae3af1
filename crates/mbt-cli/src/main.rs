//! `mbt` — command-line tool for the hybrid-DTN cooperative file sharing
//! reproduction.
//!
//! ```text
//! mbt gen-trace    generate a synthetic contact trace (dieselnet | nus | rwp)
//! mbt shard        write a trace as time-windowed on-disk shards
//! mbt shard-info   inspect a sharded trace's manifest
//! mbt trace-stats  inspect a trace: contacts, cliques, inter-contact times
//! mbt simulate     run a protocol variant over a trace or shard dir
//! mbt sweep        sweep a parameter over named protocol variants
//! mbt routing      run a routing baseline (epidemic | prophet | spray | direct)
//! mbt capacity     print the §V broadcast vs pair-wise capacity table
//! mbt node         run live nodes + a gateway on the threaded frame bus
//! mbt gateway      stand up a live gateway and probe it with a search
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
  gen-trace    generate a synthetic contact trace
  shard        write a trace as time-windowed on-disk shards
  shard-info   inspect a sharded trace's manifest
  trace-stats  inspect a contact trace
  simulate     run the MBT file-sharing simulation (trace file or shard dir)
  sweep        sweep a parameter over named protocol variants (table/CSV)
  routing      run a store-carry-forward routing baseline
  capacity     print the broadcast vs pair-wise capacity table
  node         run live nodes + a gateway on the threaded frame bus
  gateway      stand up a live gateway and probe it with a search

run `mbt <command> --help` for command options.";

fn dispatch(command: &str, args: &Args) -> Result<String, CliError> {
    match command {
        "gen-trace" => {
            if args.flag("help") {
                return Ok(commands::gen_trace::USAGE.to_string());
            }
            commands::gen_trace::run(args)
        }
        "shard" => {
            if args.flag("help") {
                return Ok(commands::shard::USAGE.to_string());
            }
            commands::shard::run(args)
        }
        "shard-info" => {
            if args.flag("help") {
                return Ok(commands::shard_info::USAGE.to_string());
            }
            commands::shard_info::run(args)
        }
        "trace-stats" => {
            if args.flag("help") {
                return Ok(commands::trace_stats::USAGE.to_string());
            }
            commands::trace_stats::run(args)
        }
        "simulate" => {
            if args.flag("help") {
                return Ok(commands::simulate::USAGE.to_string());
            }
            commands::simulate::run(args)
        }
        "sweep" => {
            if args.flag("help") {
                return Ok(commands::sweep::USAGE.to_string());
            }
            commands::sweep::run(args)
        }
        "routing" => {
            if args.flag("help") {
                return Ok(commands::routing::USAGE.to_string());
            }
            commands::routing::run(args)
        }
        "capacity" => {
            if args.flag("help") {
                return Ok(commands::capacity::USAGE.to_string());
            }
            commands::capacity::run(args)
        }
        "node" => {
            if args.flag("help") {
                return Ok(commands::node::USAGE.to_string());
            }
            commands::node::run(args)
        }
        "gateway" => {
            if args.flag("help") {
                return Ok(commands::gateway::USAGE.to_string());
            }
            commands::gateway::run(args)
        }
        other => Err(CliError::Usage(format!(
            "unknown command `{other}`\n\n{TOP_USAGE}"
        ))),
    }
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
    let args = match Args::parse(raw) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    match dispatch(&command, &args) {
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unknown_command_mentions_usage() {
        let args = Args::parse(Vec::new()).unwrap();
        // `bench` was a subcommand once; the benchmark is `ledger` now.
        for cmd in ["teleport", "bench"] {
            let err = dispatch(cmd, &args).unwrap_err();
            assert!(err.to_string().contains("unknown command"));
            assert!(err.to_string().contains("gen-trace"));
        }
    }

    #[test]
    fn help_flags_print_usage() {
        let args = Args::parse(vec!["--help".to_string()]).unwrap();
        for cmd in [
            "gen-trace",
            "shard",
            "shard-info",
            "trace-stats",
            "simulate",
            "sweep",
            "routing",
            "capacity",
            "node",
            "gateway",
        ] {
            let out = dispatch(cmd, &args).unwrap();
            assert!(out.contains("mbt"), "{cmd} help: {out}");
        }
    }

    #[test]
    fn capacity_command_works_end_to_end() {
        let args = Args::parse(vec!["--max-n".to_string(), "4".to_string()]).unwrap();
        let out = dispatch("capacity", &args).unwrap();
        assert!(out.contains("HOLDS"));
    }
}
