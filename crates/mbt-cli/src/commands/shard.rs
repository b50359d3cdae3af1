//! `mbt shard` — write a contact trace as time-windowed on-disk shards.
//!
//! Either generates a synthetic trace straight into the shard writer (the
//! contacts never exist in memory all at once) or re-shards an existing
//! trace file streamed contact by contact.

use std::fs::File;

use dtn_trace::{ContactReader, ContactSink as _, ShardWriter, SimDuration};

use crate::args::{ArgError, Args};
use crate::commands::{generator, refuse_both, Generated, GENERATOR_OPTIONS, MAX_SPAN_DAYS};
use crate::CliError;

/// Usage text for the subcommand.
pub const USAGE: &str = "mbt shard --out <dir> [--model dieselnet|nus|rwp] \
[--nodes N] [--days N] [--seed N] [--routes N] [--attendance 0..1] [--weekends] \
[--window-days N | --window-secs N] [--jobs N] [--from <trace-file>]

Writes time-windowed shards plus a manifest under <dir>. With --from, an
existing trace file is streamed into shards instead of generating one.
The generator options are `mbt gen-trace`'s (--routes sets the dieselnet
route count). The dieselnet and nus models emit directly into the shard
writer, so the full trace is never resident; feed the result to
`mbt simulate <dir>` or inspect it with `mbt shard-info <dir>`. --jobs
bounds the worker threads used to sort finished shards (0 = one per core,
at most 256);
output bytes are identical for every job count.";

/// What a run shards: a trace file given with `--from`, or a generated trace.
enum Input<'a> {
    File(&'a str),
    Generated(Generated),
}

/// Runs the subcommand.
pub fn run(args: &Args) -> Result<String, CliError> {
    let out = args
        .opt_str("out")
        .ok_or(ArgError::MissingOption("out"))?
        .to_string();
    refuse_both(
        args,
        "window-days",
        "window-secs",
        "both set the shard window",
    )?;
    let window = if let Some(secs) = args.parse_opt("window-secs", "an integer")? {
        SimDuration::from_secs(secs)
    } else {
        SimDuration::from_days(args.parse_in(
            "window-days",
            1,
            0..=MAX_SPAN_DAYS,
            "a number of days up to 36500",
        )?)
    };
    let input = match args.opt_str("from") {
        Some(from) => {
            for option in GENERATOR_OPTIONS {
                refuse_both(
                    args,
                    "from",
                    option,
                    "the trace file is sharded as it is, not generated",
                )?;
            }
            Input::File(from)
        }
        None => Input::Generated(generator(args)?),
    };

    let jobs = super::jobs(args)?;
    let mut writer = ShardWriter::create(&out, window)
        .map_err(|e| CliError::Usage(e.to_string()))?
        .jobs(jobs);

    let described = match input {
        Input::File(from) => {
            let file = File::open(from).map_err(|e| CliError::Io(from.to_string(), e))?;
            for contact in ContactReader::new(file) {
                writer.push_contact(contact.map_err(|e| CliError::Usage(e.to_string()))?);
            }
            format!("from {from}")
        }
        Input::Generated(generated) => {
            generated.generate_into(&mut writer);
            let Generated {
                model, nodes, days, ..
            } = generated;
            format!("model {model}, {nodes} nodes, {days} days")
        }
    };

    let sharded = writer
        .finish()
        .map_err(|e| CliError::Usage(e.to_string()))?;
    Ok(format!(
        "sharded {} contacts ({described}) into {} shards of window {} s at {out}; \
         largest shard holds {} contacts",
        dtn_trace::TraceSource::len(&sharded),
        sharded.shard_count(),
        sharded.window().as_secs(),
        sharded.largest_shard_contacts()
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use dtn_trace::{ShardedTrace, TraceSource};

    fn args(s: &str) -> Args {
        crate::parse_line("shard", s)
    }

    fn out_dir(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("mbt-cli-test-shard/{name}"));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn shards_generated_dieselnet_trace() {
        let dir = out_dir("gen");
        let msg = run(&args(&format!(
            "--model dieselnet --nodes 10 --days 3 --seed 1 --out {}",
            dir.display()
        )))
        .unwrap();
        assert!(msg.contains("sharded"), "{msg}");
        let sharded = ShardedTrace::open(&dir).unwrap();
        assert!(sharded.len() > 0);
        assert!(sharded.shard_count() > 1, "3 days, 1-day windows");
    }

    #[test]
    fn an_attendance_outside_the_unit_interval_is_refused() {
        let dir = out_dir("attendance");
        let line = format!("--model nus --attendance 1.5 --out {}", dir.display());
        let err = run(&args(&line)).unwrap_err().to_string();
        assert!(
            err.contains("--attendance") && err.contains("`1.5`"),
            "{err}"
        );
    }

    #[test]
    fn zero_routes_is_refused_not_a_panic() {
        let dir = out_dir("zero-routes");
        let line = format!("--nodes 4 --routes 0 --out {}", dir.display());
        let err = run(&args(&line)).unwrap_err().to_string();
        assert_eq!(
            err,
            "--routes expects an integer from 1 to 4294967295, got `0`"
        );
    }

    #[test]
    fn days_past_a_century_are_refused() {
        let dir = out_dir("century");
        let line = format!(
            "--model rwp --nodes 4 --days 213503982334602 --out {}",
            dir.display()
        );
        let err = run(&args(&line)).unwrap_err().to_string();
        assert_eq!(
            err,
            "--days expects a number of days up to 36500, got `213503982334602`"
        );
    }

    #[test]
    fn sharded_generation_matches_in_memory_generation() {
        let dir = out_dir("match");
        run(&args(&format!(
            "--model nus --nodes 12 --days 2 --seed 7 --attendance 0.9 --out {}",
            dir.display()
        )))
        .unwrap();
        let expected = dtn_trace::generators::NusConfig::new(12, 2)
            .seed(7)
            .attendance_rate(0.9)
            .generate();
        let sharded = ShardedTrace::open(&dir).unwrap();
        let replayed: Vec<_> = sharded.stream().collect();
        assert_eq!(replayed, expected.contacts());
    }

    #[test]
    fn routes_and_jobs_flags_are_wired_and_deterministic() {
        let serial = out_dir("jobs1");
        let parallel = out_dir("jobs4");
        let cmd = |dir: &std::path::Path, jobs: u32| {
            format!(
                "--model dieselnet --nodes 20 --days 2 --seed 3 --routes 10 \
                 --jobs {jobs} --out {}",
                dir.display()
            )
        };
        run(&args(&cmd(&serial, 1))).unwrap();
        run(&args(&cmd(&parallel, 4))).unwrap();
        let expected = dtn_trace::generators::DieselNetConfig::new(20, 2)
            .seed(3)
            .routes(10)
            .generate();
        let a: Vec<_> = ShardedTrace::open(&serial).unwrap().stream().collect();
        let b: Vec<_> = ShardedTrace::open(&parallel).unwrap().stream().collect();
        assert_eq!(a, expected.contacts());
        assert_eq!(a, b, "--jobs must not change the sharded output");
    }

    #[test]
    fn reshards_existing_trace_file() {
        let dir = out_dir("from");
        let trace = dtn_trace::generators::DieselNetConfig::new(8, 2)
            .seed(5)
            .generate();
        let file = std::env::temp_dir().join("mbt-cli-test-shard/from.trace");
        std::fs::create_dir_all(file.parent().unwrap()).unwrap();
        dtn_trace::write_trace(std::fs::File::create(&file).unwrap(), &trace).unwrap();
        let msg = run(&args(&format!(
            "--from {} --window-secs 43200 --out {}",
            file.display(),
            dir.display()
        )))
        .unwrap();
        assert!(msg.contains(&format!("{} contacts", trace.len())), "{msg}");
        let sharded = ShardedTrace::open(&dir).unwrap();
        assert_eq!(sharded.window(), SimDuration::from_secs(43200));
        let replayed: Vec<_> = sharded.stream().collect();
        assert_eq!(replayed, trace.contacts());
    }

    #[test]
    fn requires_out() {
        let err = run(&args("--model nus")).unwrap_err();
        assert!(err.to_string().contains("--out"));
    }

    #[test]
    fn rejects_unknown_model() {
        let dir = out_dir("bad");
        let err = run(&args(&format!("--model teleport --out {}", dir.display()))).unwrap_err();
        assert!(err.to_string().contains("teleport"));
    }
}
