//! `mbt gen-trace` — generate a synthetic contact trace.

use std::fs::File;
use std::io::BufWriter;

use dtn_trace::{write_trace, ContactTrace, Perturbation};

use crate::args::Args;
use crate::commands::{generator, Generated};
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
    let generated = generator(args)?;
    let mut contacts = Vec::new();
    generated.generate_into(&mut contacts);
    let mut trace: ContactTrace = contacts.into_iter().collect();
    let Generated {
        model, days, seed, ..
    } = generated;

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
    fn zero_routes_is_refused_not_a_panic() {
        let line = "--model dieselnet --nodes 4 --days 1 --routes 0 --out /tmp/x.trace";
        let err = run(&args(line)).unwrap_err().to_string();
        assert_eq!(
            err,
            "--routes expects an integer from 1 to 4294967295, got `0`"
        );
    }

    /// `--days` is bounded before it becomes seconds: 213 503 982 334 602
    /// days is past 2⁶⁴ seconds and used to wrap into a 17-hour trace.
    #[test]
    fn days_past_a_century_are_refused() {
        for model in ["rwp", "dieselnet", "nus"] {
            let line =
                format!("--model {model} --nodes 4 --days 213503982334602 --out /tmp/x.trace");
            let err = run(&args(&line)).unwrap_err().to_string();
            assert_eq!(
                err, "--days expects a number of days up to 36500, got `213503982334602`",
                "{model}"
            );
        }
        let err = run(&args("--nodes 4 --days 36501 --out /tmp/x.trace")).unwrap_err();
        assert!(err.to_string().contains("`36501`"), "{err}");
    }

    /// The bytes `gen-trace` writes for each model at seed 42, as SHA-1
    /// digests of the file: the generators' model constants and draw order
    /// are pinned here, including rwp at its default 1 000 m arena and nus
    /// with weekend sessions, which no figure exercises.
    #[test]
    fn generated_files_keep_their_bytes() {
        let dir = std::env::temp_dir().join("mbt-cli-test-gen");
        std::fs::create_dir_all(&dir).unwrap();
        for (name, options, digest) in [
            (
                "dieselnet",
                "--model dieselnet --nodes 12 --days 3 --routes 3",
                "efa660c0bfba8167766533578ab0a444f49e280f",
            ),
            (
                "nus",
                "--model nus --nodes 24 --days 9 --attendance 0.8 --weekends",
                "b59a6573b9e9ff094bb31963a9caa38252f773f1",
            ),
            (
                "rwp",
                "--model rwp --nodes 8 --days 1",
                "c97a718d13d3d5d8d97e169c63932641a528c1fa",
            ),
        ] {
            let path = dir.join(format!("pinned-{name}.trace"));
            run(&args(&format!(
                "{options} --seed 42 --out {}",
                path.display()
            )))
            .unwrap();
            let bytes = std::fs::read(&path).unwrap();
            assert_eq!(mbt_core::checksum::sha1(&bytes).to_hex(), digest, "{name}");
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
