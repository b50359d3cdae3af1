//! `mbt gen-trace` — generate a synthetic contact trace.

use std::fs::File;
use std::io::BufWriter;

use dtn_trace::{write_trace, ContactTrace, Perturbation};

use crate::args::Args;
use crate::commands::{generate_into, Generated};
use crate::CliError;

/// Usage text for the subcommand.
pub const USAGE: &str = "mbt gen-trace --out <file> [--model dieselnet|nus|rwp] \
[--nodes N] [--days N] [--seed N] [--routes N] [--attendance 0..1] [--weekends] \
[--drop 0..1] [--truncate 0..1]";

/// Runs the subcommand.
pub fn run(args: &Args) -> Result<String, CliError> {
    let out = args
        .opt_str("out")
        .ok_or(crate::args::ArgError::MissingOption("out"))?
        .to_string();
    let mut builder = ContactTrace::builder();
    let Generated {
        model, days, seed, ..
    } = generate_into(args, &mut builder)?;
    let mut trace = builder.build();

    // Optional degradation: drop contacts and truncate windows before
    // writing, so the file itself records the perturbed mobility.
    let drop = args.rate_or("drop", 0.0)?;
    let truncate = args.rate_or("truncate", 0.0)?;
    let perturbation = Perturbation::new()
        .drop_rate(drop)
        .truncate_rate(truncate)
        .seed(seed);
    let mut note = String::new();
    if !perturbation.is_noop() {
        let before = trace.len();
        trace = perturbation.apply(&trace);
        note = format!(
            " (perturbed: drop {drop:.2}, truncate {truncate:.2}; {before} -> {} contacts)",
            trace.len()
        );
    }

    let file = File::create(&out).map_err(|e| CliError::Io(out.clone(), e))?;
    write_trace(BufWriter::new(file), &trace).map_err(|e| CliError::Io(out.clone(), e))?;
    Ok(format!(
        "wrote {} contacts among {} nodes ({} days, model {model}) to {out}{note}",
        trace.len(),
        trace.node_count(),
        days
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Args {
        crate::parse_line("gen-trace", s)
    }

    #[test]
    fn generates_dieselnet_file() {
        let dir = std::env::temp_dir().join("mbt-cli-test-gen");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("d.trace");
        let msg = run(&args(&format!(
            "--model dieselnet --nodes 10 --days 2 --seed 1 --out {}",
            path.display()
        )))
        .unwrap();
        assert!(msg.contains("wrote"));
        let trace = dtn_trace::read_trace(std::fs::File::open(&path).unwrap()).unwrap();
        assert!(!trace.is_empty());
    }

    #[test]
    fn routes_sets_the_dieselnet_route_count() {
        let dir = std::env::temp_dir().join("mbt-cli-test-gen");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("routes.trace");
        run(&args(&format!(
            "--model dieselnet --nodes 20 --days 2 --seed 3 --routes 10 --out {}",
            path.display()
        )))
        .unwrap();
        let written = dtn_trace::read_trace(std::fs::File::open(&path).unwrap()).unwrap();
        let config = dtn_trace::generators::DieselNetConfig::new(20, 2).seed(3);
        assert_eq!(written, config.clone().routes(10).generate());
        assert_ne!(written, config.generate(), "the default is 8 routes");
    }

    #[test]
    fn drop_perturbation_thins_the_written_trace() {
        let dir = std::env::temp_dir().join("mbt-cli-test-gen");
        std::fs::create_dir_all(&dir).unwrap();
        let clean = dir.join("clean.trace");
        let thinned = dir.join("thinned.trace");
        run(&args(&format!(
            "--model dieselnet --nodes 10 --days 3 --seed 1 --out {}",
            clean.display()
        )))
        .unwrap();
        let msg = run(&args(&format!(
            "--model dieselnet --nodes 10 --days 3 --seed 1 --drop 0.5 --out {}",
            thinned.display()
        )))
        .unwrap();
        assert!(msg.contains("perturbed"), "missing note: {msg}");
        let full = dtn_trace::read_trace(std::fs::File::open(&clean).unwrap()).unwrap();
        let thin = dtn_trace::read_trace(std::fs::File::open(&thinned).unwrap()).unwrap();
        assert!(thin.len() < full.len(), "drop 0.5 should remove contacts");
    }

    #[test]
    fn rates_outside_the_unit_interval_are_refused() {
        for (option, bad) in [("attendance", "1.5"), ("drop", "-0.1"), ("truncate", "nan")] {
            let line =
                format!("--model nus --nodes 8 --days 2 --out /tmp/x.trace --{option} {bad}");
            let err = run(&args(&line)).unwrap_err().to_string();
            assert!(
                err.contains(&format!("--{option}")) && err.contains(&format!("`{bad}`")),
                "{err}"
            );
        }
    }

    #[test]
    fn rejects_unknown_model() {
        let err = run(&args("--model teleport --out /tmp/x.trace")).unwrap_err();
        assert!(err.to_string().contains("teleport"));
    }

    #[test]
    fn requires_out() {
        let err = run(&args("--model nus")).unwrap_err();
        assert!(err.to_string().contains("--out"));
    }
}
