//! `ledger` — the repository's benchmark: four workloads, end-to-end
//! metrics from an untraced run, and a per-layer ledger from a traced run
//! whose exclusive busy times add up to the wall clock. See `README.md`
//! beside this file for the tables and the first measured medians.
//!
//! ```text
//! ledger --all [--seed N] [--seconds S] [--out FILE] [--smoke]
//!                                       every workload, untraced then traced
//! ledger --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//!        [--trace-out FILE] [--out FILE] [--smoke]     one workload, one process
//! ledger --compare A.json B.json        B against base A, by the bounds
//! ```
//!
//! Everything is measured from outside the program. The public items the
//! harness depends on — a simplicity change may remove anything else:
//!
//! - `dtn_trace`: `generators::{DieselNetConfig, NusConfig}` (`new`, `seed`,
//!   `routes`, `generate`, `generate_into`), `ShardWriter` (`create`, `jobs`,
//!   `finish`), `ShardedTrace` (`verify`, `shard_count`), `TraceSource`,
//!   `ContactStream`, `StreamStats`, `ContactSink`, `ContactTrace`,
//!   `Contact`, `NodeId`, `SimTime`, `SimDuration`
//! - `dtn_sim`: `StreamSimulator`, `SimHandler`, `FaultPlan`,
//!   `rng::{stream, derive_seed}`,
//!   `telemetry::{Telemetry, Phase, PhaseTimes, rate_per_sec}`
//! - `mbt_core`: `MetadataServer` (`with_shards`, `publish`, `search`,
//!   `record_request`, `set_popularity`, `refresh_popularities`, `expire`,
//!   `snapshot`, `len`), `Metadata`, `Popularity`, `Query`, `Uri`,
//!   `ProtocolSpec`, `TransportKind`, `ColdNodeState`,
//!   `transport::{encode_frame, decode_frame, HelloFrame, WireMessage}`,
//!   `transport::live::LiveBus` (`open`, `send`, `recv`, `close`)
//! - `mbt_experiments`: `run_simulation`, `SimParams`, `SimResult`,
//!   `ExecConfig`, `ParallelRunner` (`with_protocols`,
//!   `sweep_shared_source`), `ResidueStore` (`absorb`, `take`),
//!   `report::figure_csv`
//!
//! It uses nothing of `dtn_sim::Simulator`, `generate_into_all_pairs`,
//! `server::reference`, `dtn_routing`, `mbt_experiments::perf`,
//! `scale_from_args` or `exec_from_args`.

mod compare;
mod json;
mod metrics;
mod pins;
mod probes;
mod run;
mod server_workload;
mod sim_workloads;
mod spans;
mod stats;

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

use run::{Bench, Report, RunSpec};
use server_workload::ServerStorm;
use sim_workloads::{BusFaulted, CampusSweep, CityStream};
use spans::Recorder;

const DEFAULT_SEED: u64 = 42;
/// `BENCHMARK.json`'s `run_seconds`.
const DEFAULT_SECONDS: f64 = 15.0;

/// `(name, why)` of every workload, in running order.
const WORKLOADS: [(&str, &str); 4] = [
    (CityStream::NAME, CityStream::WHY),
    (CampusSweep::NAME, CampusSweep::WHY),
    (BusFaulted::NAME, BusFaulted::WHY),
    (ServerStorm::NAME, ServerStorm::WHY),
];

#[derive(Debug, PartialEq)]
enum Mode {
    Workload(String),
    All,
    Compare(PathBuf, PathBuf),
}

#[derive(Debug, PartialEq)]
struct Args {
    mode: Mode,
    seed: u64,
    seconds: f64,
    trace: bool,
    trace_out: Option<PathBuf>,
    out: Option<PathBuf>,
    smoke: bool,
}

impl Args {
    fn parse(argv: &[String]) -> Result<Args, String> {
        let mut mode = None;
        let mut args = Args {
            mode: Mode::All,
            seed: DEFAULT_SEED,
            seconds: DEFAULT_SECONDS,
            trace: false,
            trace_out: None,
            out: None,
            smoke: false,
        };
        let mut options = Vec::new();
        let mut it = argv.iter();
        while let Some(flag) = it.next() {
            let mut value = |what: &str| {
                it.next()
                    .cloned()
                    .ok_or_else(|| format!("`{flag}` needs {what}"))
            };
            if !matches!(flag.as_str(), "--all" | "--workload" | "--compare") {
                options.push(flag.as_str());
            }
            match flag.as_str() {
                "--all" => mode = Some(Mode::All),
                "--workload" => {
                    let name = value("a workload name")?;
                    if !WORKLOADS.iter().any(|(n, _)| *n == name) {
                        return Err(format!("unknown workload `{name}`"));
                    }
                    mode = Some(Mode::Workload(name));
                }
                "--compare" => {
                    let a = value("two report files")?;
                    let b = value("two report files")?;
                    mode = Some(Mode::Compare(a.into(), b.into()));
                }
                "--seed" => {
                    let v = value("a number")?;
                    args.seed = v.parse().map_err(|_| format!("bad --seed `{v}`"))?;
                }
                "--seconds" => {
                    let v = value("a duration")?;
                    args.seconds = match v.parse::<f64>() {
                        Ok(s) if s.is_finite() && s >= 0.0 => s,
                        _ => return Err(format!("bad --seconds `{v}`")),
                    };
                }
                "--trace" => {
                    args.trace = match value("0 or 1")?.as_str() {
                        "0" => false,
                        "1" => true,
                        v => return Err(format!("bad --trace `{v}`")),
                    };
                }
                "--trace-out" => args.trace_out = Some(value("a file")?.into()),
                "--out" => args.out = Some(value("a file")?.into()),
                "--smoke" => args.smoke = true,
                other => return Err(format!("unknown argument `{other}`")),
            }
        }
        args.mode = mode.ok_or("one of --all, --workload NAME, --compare A B is required")?;
        // A flag the chosen mode would ignore is refused, not dropped.
        let (what, heeded): (_, &[&str]) = match args.mode {
            Mode::Workload(_) => ("--workload", &options),
            Mode::All => ("--all", &["--seed", "--seconds", "--out", "--smoke"]),
            Mode::Compare(..) => ("--compare", &[]),
        };
        match options.iter().find(|flag| !heeded.contains(flag)) {
            Some(flag) => Err(format!("`{flag}` has no effect with {what}")),
            None => Ok(args),
        }
    }
}

/// Where on-disk inputs go: under the build directory, which every
/// checkout ignores.
fn scratch_root() -> PathBuf {
    let target = std::env::var_os("CARGO_TARGET_DIR").map_or("target".into(), PathBuf::from);
    target
        .join("ledger-scratch")
        .join(std::process::id().to_string())
}

fn run_workload(name: &str, spec: &RunSpec, traced: bool) -> (Report, Option<Recorder>) {
    fn go<B: Bench>(spec: &RunSpec, traced: bool) -> (Report, Option<Recorder>) {
        if traced {
            let (report, rec) = run::run_traced::<B>(spec);
            (report, Some(rec))
        } else {
            (run::run_untraced::<B>(spec), None)
        }
    }
    match name {
        CityStream::NAME => go::<CityStream>(spec, traced),
        CampusSweep::NAME => go::<CampusSweep>(spec, traced),
        BusFaulted::NAME => go::<BusFaulted>(spec, traced),
        _ => go::<ServerStorm>(spec, traced),
    }
}

/// One workload in this process. Prints every metric, then the driver's
/// result line last.
fn workload_main(name: &str, args: &Args) -> Result<bool, String> {
    let scratch = scratch_root();
    let spec = RunSpec {
        seed: pins::input_seed(args.seed),
        smoke: args.smoke,
        seconds: args.seconds,
        scratch: &scratch,
    };
    let (report, rec) = run_workload(name, &spec, args.trace);
    let _ = std::fs::remove_dir_all(&scratch);
    if let (Some(path), Some(rec)) = (&args.trace_out, rec) {
        write_file(path, &rec.to_jsonl())?;
    }
    if let Some(path) = &args.out {
        write_file(path, &format!("{}\n", report.to_json().render()))?;
    }
    print!("{}", report.render_text());
    println!("{}", report.driver_line());
    Ok(report.correct())
}

fn write_file(path: &Path, text: &str) -> Result<(), String> {
    std::fs::write(path, text).map_err(|e| format!("writing `{}`: {e}", path.display()))
}

/// Every workload, each run in a process of its own (so `peak_rss_mb` is
/// per workload), untraced then traced, strictly one after the other.
fn all_main(args: &Args) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating the ledger binary: {e}"))?;
    let scratch = scratch_root();
    std::fs::create_dir_all(&scratch).map_err(|e| format!("creating scratch: {e}"))?;
    let mut merged = String::new();
    let mut ok = true;
    for (name, _) in WORKLOADS {
        for traced in [false, true] {
            let part = scratch.join(format!("{name}-{}.json", u8::from(traced)));
            let mut cmd = Command::new(&exe);
            cmd.args(["--workload", name, "--seed", &args.seed.to_string()])
                .args(["--seconds", &args.seconds.to_string()])
                .args(["--trace", if traced { "1" } else { "0" }])
                .arg("--out")
                .arg(&part);
            if args.smoke {
                cmd.arg("--smoke");
            }
            let status = cmd.status().map_err(|e| format!("running {name}: {e}"))?;
            ok &= status.success();
            merged.push_str(
                &std::fs::read_to_string(&part)
                    .map_err(|e| format!("{name} left no report: {e}"))?,
            );
        }
    }
    let _ = std::fs::remove_dir_all(&scratch);
    if let Some(path) = &args.out {
        write_file(path, &merged)?;
    }
    Ok(ok)
}

fn compare_main(a: &Path, b: &Path) -> Result<bool, String> {
    let result = compare::compare(&run::read_reports(a)?, &run::read_reports(b)?);
    print!("{}", result.table);
    Ok(result.passed)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match Args::parse(&argv) {
        Ok(args) => args,
        Err(why) => {
            eprintln!("ledger: {why}");
            return ExitCode::from(2);
        }
    };
    let outcome = match &args.mode {
        Mode::Workload(name) => workload_main(name, &args),
        Mode::All => all_main(&args),
        Mode::Compare(a, b) => compare_main(a, b),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(why) => {
            eprintln!("ledger: {why}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Value;
    use crate::metrics::{per_layer, Better, Kind, MetricDef, SPECIFIC, UNIVERSAL};
    use crate::run::MIN_REPS;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn flags_parse_strictly() {
        let a = Args::parse(&argv(
            "--workload city_stream --seed 7 --seconds 15 --trace 1",
        ))
        .unwrap();
        assert_eq!(a.mode, Mode::Workload("city_stream".to_string()));
        assert_eq!((a.seed, a.seconds, a.trace), (7, 15.0, true));
        let a = Args::parse(&argv("--workload bus_faulted --trace 0 --smoke")).unwrap();
        assert!(!a.trace && a.smoke);
        let a = Args::parse(&argv("--all --seconds 25")).unwrap();
        assert_eq!((a.mode, a.seed, a.seconds), (Mode::All, DEFAULT_SEED, 25.0));
        assert!(Args::parse(&argv("--compare a.json b.json")).is_ok());
        for bad in [
            "",
            "--workload",
            "--workload nope",
            "--workload city_stream --trace",
            "--workload city_stream --trace yes",
            "--workload city_stream --reps 2",
            "--all --seed x",
            "--all --seconds -1",
            "--all --jobs 4",
            "--all --trace 1",
            "--all --trace-out spans.jsonl",
            "--compare only-one",
            "--compare a.json b.json --seed 7",
        ] {
            assert!(
                Args::parse(&argv(bad)).is_err(),
                "`{bad}` should be refused"
            );
        }
    }

    /// The names a contract list holds, in order.
    fn contract_names(bench: &Value, list: &str) -> Vec<String> {
        bench
            .get(list)
            .and_then(Value::as_arr)
            .unwrap_or_else(|| panic!("BENCHMARK.json lacks `{list}`"))
            .iter()
            .map(|m| m.get("name").and_then(Value::as_str).unwrap().to_string())
            .collect()
    }

    #[test]
    fn names_match_benchmark_json_one_for_one() {
        let bench = json::parse(include_str!("../../../../../BENCHMARK.json")).unwrap();
        let well_formed = |name: &str| {
            !name.is_empty()
                && name.len() <= 64
                && name
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
        };
        let workloads: Vec<&str> = WORKLOADS.iter().map(|(n, _)| *n).collect();
        assert_eq!(contract_names(&bench, "workloads"), workloads);
        let run_seconds = bench.get("run_seconds").and_then(Value::as_f64);
        assert_eq!(run_seconds, Some(DEFAULT_SECONDS));
        let universal: Vec<&str> = UNIVERSAL.iter().map(|m| m.name).collect();
        assert_eq!(contract_names(&bench, "end_to_end"), universal);
        let per_layer: Vec<MetricDef> = per_layer().copied().collect();
        let layers: Vec<&str> = per_layer.iter().map(|m| m.name).collect();
        assert_eq!(contract_names(&bench, "per_layer"), layers);
        let mut seen = std::collections::BTreeSet::new();
        for name in workloads
            .iter()
            .chain(&universal)
            .chain(&layers)
            .copied()
            .chain(SPECIFIC.iter().map(|m| m.name))
        {
            assert!(well_formed(name), "`{name}` breaks [A-Za-z0-9_.-]+");
            assert!(seen.insert(name), "`{name}` is used twice");
        }

        // Units, directions, bounds and reasons agree too.
        for (list, defs) in [
            ("end_to_end", &UNIVERSAL[..]),
            ("per_layer", &per_layer[..]),
        ] {
            for (entry, def) in bench.get(list).unwrap().as_arr().unwrap().iter().zip(defs) {
                let field = |k: &str| entry.get(k).and_then(Value::as_str);
                assert_eq!(field("unit"), Some(def.unit), "{}", def.name);
                let better = match def.better {
                    Better::Higher => "higher",
                    Better::Lower => "lower",
                };
                assert_eq!(field("better"), Some(better), "{}", def.name);
                let bound = entry.get("bound").and_then(Value::as_f64);
                match def.kind {
                    Kind::Bounded(b) if list == "end_to_end" => assert_eq!(bound, Some(b)),
                    _ => assert_eq!(bound, None, "{} carries no bound", def.name),
                }
            }
        }
        for (entry, (_, why)) in bench
            .get("workloads")
            .unwrap()
            .as_arr()
            .unwrap()
            .iter()
            .zip(WORKLOADS)
        {
            let collapsed = why.split_whitespace().collect::<Vec<_>>().join(" ");
            assert_eq!(entry.get("why").and_then(Value::as_str), Some(&*collapsed));
            assert!(collapsed.len() <= 200);
        }
    }

    /// This directory is also a package of its own — what `BENCHMARK.json`
    /// builds. Its manifest may depend only on what `bench`'s does, so the
    /// two ways of building these sources cannot drift apart unnoticed.
    #[test]
    fn standalone_manifest_depends_only_on_what_bench_does() {
        fn dependencies(manifest: &str) -> Vec<(&str, &str)> {
            manifest
                .lines()
                .skip_while(|l| l.trim() != "[dependencies]")
                .skip(1)
                .take_while(|l| !l.starts_with('['))
                .filter_map(|l| l.split_once('='))
                .map(|(name, spec)| (name.trim(), spec.trim()))
                .collect()
        }
        let own = dependencies(include_str!("Cargo.toml"));
        let bench = dependencies(include_str!("../../../Cargo.toml"));
        assert!(!own.is_empty() && !bench.is_empty());
        for (name, spec) in own {
            assert!(
                bench.iter().any(|(b, _)| *b == name),
                "`{name}` is no dependency of bench"
            );
            assert!(
                spec.contains(&format!("/{name}\"")),
                "`{name}` must be the in-tree crate: {spec}"
            );
        }
    }

    fn smoke_spec(scratch: &Path) -> RunSpec<'_> {
        RunSpec {
            seed: pins::input_seed(11),
            smoke: true,
            seconds: 0.0,
            scratch,
        }
    }

    /// Drives all four workloads at the smoke scale, untraced and traced,
    /// through `--out` files and back through `--compare`.
    #[test]
    fn smoke_scale_runs_every_workload_and_compares_clean() {
        let dir = std::env::temp_dir().join(format!("ledger-smoke-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let mut lines = String::new();
        for (name, _) in WORKLOADS {
            for traced in [false, true] {
                let (report, rec) = run_workload(name, &smoke_spec(&dir.join("scratch")), traced);
                assert!(
                    report.correct(),
                    "{name} traced={traced}: {:?}",
                    report.notes
                );
                assert!(report.events > 0 && report.ops_attempted > 0);
                if traced {
                    let rec = rec.expect("traced runs return their spans");
                    assert!(rec.to_jsonl().lines().count() >= 2);
                    // Exclusive busy times plus the remainder are the wall.
                    let busy: f64 = report
                        .metrics
                        .iter()
                        .filter(|(n, _)| n.ends_with(".busy_s"))
                        .map(|(_, s)| s.value)
                        .sum();
                    let wall = report.metric("body_s").unwrap().value;
                    assert!(
                        (busy - wall).abs() <= wall * 1e-6,
                        "{name}: {busy} vs {wall}"
                    );
                    let coverage = report.metric("ledger.coverage").unwrap().value;
                    assert!((0.0..=1.0).contains(&coverage), "{name}: {coverage}");
                } else {
                    assert_eq!(report.reps, MIN_REPS);
                    assert!(report.metric("events_per_s").unwrap().value > 0.0);
                    assert!(report.metric("setup_s").unwrap().n >= MIN_REPS);
                }
                let driver = json::parse(&report.driver_line()).unwrap();
                assert_eq!(driver.get("correct"), Some(&Value::Bool(true)));
                lines.push_str(&report.to_json().render());
                lines.push('\n');
            }
        }
        let file = dir.join("run.json");
        std::fs::write(&file, &lines).unwrap();
        let reports = run::read_reports(&file).unwrap();
        assert_eq!(reports.len(), 8);
        // A file compared with itself: exact rows are the same, host rows
        // cannot regress; only a spread wider than a bound may be flagged.
        let result = compare::compare(&reports, &reports);
        assert!(!result.table.contains("DIFFERENT") && !result.table.contains("MISSING"));
        assert!(!result.table.contains("REGRESSED"), "{}", result.table);
        // A changed digest or a dropped report is caught.
        let mut other = reports.clone();
        other[0].digest ^= 1;
        other.pop();
        let result = compare::compare(&reports, &other);
        assert!(!result.passed);
        assert!(result.table.contains("DIFFERENT") && result.table.contains("MISSING"));
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
