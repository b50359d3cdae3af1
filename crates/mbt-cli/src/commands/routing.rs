//! `mbt routing` — run a store-carry-forward routing protocol over a trace
//! file or a sharded trace directory.

use std::fmt::Write as _;

use dtn_routing::protocols::{DirectDelivery, Epidemic, Prophet, SprayAndWait};
use dtn_routing::sim::{simulate, uniform_messages, RoutingReport};
use dtn_trace::{SimDuration, SimTime};

use crate::args::Args;
use crate::commands::{days_or, open_source};
use crate::CliError;

/// Usage text for the subcommand.
pub const USAGE: &str =
    "mbt routing <trace-file|shard-dir> [--protocol epidemic|prophet|spray|direct] \
[--messages N] [--ttl-days N] [--copies N] [--seed N]";

/// The most messages one run may route (`--messages`): every message is
/// generated up front. The paper-scale workload is 200; a count parsed as
/// `u64` alone would ask for terabytes.
const MAX_MESSAGES: u64 = 1_000_000;

/// Runs the subcommand.
pub fn run(args: &Args) -> Result<String, CliError> {
    let protocol = args.str_or("protocol", "epidemic");
    if args.given("copies") && protocol != "spray" {
        return Err(CliError::Usage(format!(
            "--copies applies only to --protocol spray, not `{protocol}`: \
             no other protocol splits copies"
        )));
    }
    let path = args.positional(0, "trace-file")?.to_string();
    let trace = open_source(&path)?;
    let nodes = trace.nodes();
    if nodes.len() < 2 {
        return Err(CliError::Usage(
            "trace has fewer than two nodes".to_string(),
        ));
    }

    let count = args.parse_in(
        "messages",
        200,
        0..=MAX_MESSAGES,
        "an integer up to 1000000",
    )?;
    let ttl_days = days_or(args, "ttl-days", 2, trace.as_ref())?;
    let copies = args.parse_in(
        "copies",
        8u32,
        1..=u32::MAX,
        "an integer from 1 to 4294967295",
    )?;
    let seed = args.parse_or("seed", 42u64, "an integer")?;
    let horizon = trace.end_time().unwrap_or(SimTime::from_secs(1));
    let mut rng = dtn_sim::rng::stream(seed, "cli-routing");
    let msgs = uniform_messages(
        &nodes,
        count,
        horizon,
        Some(SimDuration::from_days(ttl_days)),
        &mut rng,
    );

    let report: RoutingReport = match protocol {
        "epidemic" => simulate(trace.as_ref(), Epidemic::new(), msgs),
        "prophet" => simulate(trace.as_ref(), Prophet::new(), msgs),
        "spray" => simulate(trace.as_ref(), SprayAndWait::new(copies), msgs),
        "direct" => simulate(trace.as_ref(), DirectDelivery::new(), msgs),
        other => {
            return Err(CliError::Usage(format!(
                "unknown protocol `{other}` (expected epidemic, prophet, spray, or direct)"
            )))
        }
    };

    let mut out = String::new();
    let _ = writeln!(out, "{} over {path}", report.protocol);
    let _ = writeln!(out, "  created:    {}", report.created);
    let _ = writeln!(
        out,
        "  delivered:  {} (ratio {:.4})",
        report.delivered, report.delivery_ratio
    );
    if let Some(d) = report.mean_delay_secs {
        let _ = writeln!(out, "  mean delay: {:.1} h", d / 3600.0);
    }
    let _ = writeln!(out, "  transmissions: {}", report.transmissions);
    if let Some(o) = report.overhead {
        let _ = writeln!(out, "  overhead:   {o:.2} tx/delivery");
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dtn_trace::generators::DieselNetConfig;
    use dtn_trace::write_trace;

    fn trace_file(name: &str) -> std::path::PathBuf {
        // One file per test: tests run concurrently and must not share paths.
        let dir = std::env::temp_dir().join("mbt-cli-test-routing");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("{name}.trace"));
        let trace = DieselNetConfig::new(10, 3).seed(5).generate();
        write_trace(std::fs::File::create(&path).unwrap(), &trace).unwrap();
        path
    }

    fn args(s: &str) -> Args {
        crate::parse_line("routing", s)
    }

    #[test]
    fn runs_each_protocol() {
        let path = trace_file("each");
        for p in ["epidemic", "prophet", "spray", "direct"] {
            let out = run(&args(&format!(
                "{} --protocol {p} --messages 20",
                path.display()
            )))
            .unwrap();
            assert!(out.contains("delivered:"), "{p}: {out}");
        }
    }

    #[test]
    fn shard_directory_input_matches_file_input() {
        let path = trace_file("shard-src");
        let shard_dir = path.with_extension("shards");
        let _ = std::fs::remove_dir_all(&shard_dir);
        let reshard = format!("--from {} --out {}", path.display(), shard_dir.display());
        crate::commands::shard::run(&crate::parse_line("shard", &reshard)).unwrap();
        // The first line names the input path; the report must not differ.
        let report = |input: &std::path::Path| {
            let out = run(&args(&format!("{} --protocol prophet", input.display()))).unwrap();
            out.split_once('\n').unwrap().1.to_string()
        };
        assert_eq!(report(&path), report(&shard_dir));
    }

    #[test]
    fn zero_copies_is_refused_not_run_as_one() {
        let path = trace_file("copies");
        let line = format!("{} --protocol spray --copies 0", path.display());
        let err = run(&args(&line)).unwrap_err();
        assert_eq!(
            err.to_string(),
            "--copies expects an integer from 1 to 4294967295, got `0`"
        );
        let one = format!("{} --protocol spray --copies 1", path.display());
        assert!(run(&args(&one)).unwrap().contains("delivered:"));
    }

    #[test]
    fn rejects_unknown_protocol() {
        let path = trace_file("reject");
        let err = run(&args(&format!("{} --protocol warp", path.display()))).unwrap_err();
        assert!(err.to_string().contains("warp"));
    }
}
