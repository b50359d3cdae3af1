//! `mbt simulate` — run the MBT file-sharing simulation over a trace file
//! or a sharded trace directory.

use std::fmt::Write as _;
use std::time::Instant;

use dtn_sim::{FaultPlan, Telemetry};
use dtn_trace::SimDuration;
use mbt_core::{BroadcastOrdering, CooperationMode, MbtConfig, ProtocolSpec, TransportKind};
use mbt_experiments::runner::{run_simulation, SimParams};

use crate::args::Args;
use crate::commands::{days_or, open_source, refuse_both, run_size};
use crate::CliError;

/// Usage text for the subcommand.
pub const USAGE: &str = "mbt simulate <trace-file|shard-dir> \
[--protocol mbt|mbt-q|mbt-qm|popcache|diffuserep] \
[--internet 0..1] [--files-per-day N] [--ttl N] [--days N] [--seed N] \
[--metadata-per-contact N] [--files-per-contact N] [--frequent-days N] \
[--loss 0..1] [--churn 0..1] [--truncate 0..1] [--corrupt 0..1] \
[--polluters 0..1] [--fakes-per-day N] [--tft] [--rarest-first] [--verify] \
[--transport sim|bus] [--perf-report PATH]

A directory argument is opened as a sharded trace (see `mbt shard`) and
replayed shard by shard with bounded memory; a file argument is read fully
into memory. Results are identical either way.";

/// Runs the subcommand.
pub fn run(args: &Args) -> Result<String, CliError> {
    refuse_both(
        args,
        "tft",
        "rarest-first",
        "the tit-for-tat scheduler never reads the broadcast order",
    )?;
    // The runner draws polluters only when both counts are positive.
    let polluters = args.rate_or("polluters", 0.0)?;
    let fakes_per_day = args.parse_or("fakes-per-day", 4u32, "an integer")?;
    if polluters == 0.0 && args.given("fakes-per-day") {
        return Err(CliError::Usage(
            "--fakes-per-day needs --polluters above 0: nobody is drawn to forge".to_string(),
        ));
    }
    if polluters > 0.0 && fakes_per_day == 0 {
        return Err(CliError::Usage(
            "--polluters cannot be combined with --fakes-per-day 0: \
             no polluter is drawn when none forges"
                .to_string(),
        ));
    }
    let path = args.positional(0, "trace-file")?.to_string();
    let source = open_source(&path)?;

    let protocol = ProtocolSpec::by_name(args.str_or("protocol", "mbt"))
        .map_err(|e| CliError::Usage(e.to_string()))?;

    let (days, files) = run_size(args, source.as_ref())?;
    let mut config = MbtConfig::new()
        .metadata_per_contact(args.parse_or("metadata-per-contact", 20u32, "an integer")?)
        .files_per_contact(args.parse_or("files-per-contact", 4u32, "an integer")?);
    if args.flag("tft") {
        config = config.cooperation(CooperationMode::TitForTat);
    }
    if args.flag("rarest-first") {
        config = config.ordering(BroadcastOrdering::RarestFirst);
    }

    let seed = args.parse_or("seed", 42u64, "an integer")?;
    let rate = |name: &str| args.rate_or(name, 0.0);
    let faults = FaultPlan::none()
        .loss(rate("loss")?)
        .truncate(rate("truncate")?)
        .churn(rate("churn")?)
        .corruption(rate("corrupt")?)
        .seed(seed);

    // Structured fault injection subsumes the legacy permanent-death churn:
    // `--churn` drives the plan's down intervals, not SimParams::churn.
    let params = SimParams::builder()
        .protocol(protocol)
        .config(config)
        .internet_fraction(args.rate_or("internet", 0.3)?)
        .files_per_day(files)
        .ttl_days(days_or(args, "ttl", 3, source.as_ref())?)
        .days(days)
        .seed(seed)
        .frequent_window(SimDuration::from_days(days_or(
            args,
            "frequent-days",
            1,
            source.as_ref(),
        )?))
        .faults(faults)
        .polluter_fraction(polluters)
        .fakes_per_day(fakes_per_day)
        .verify_metadata(args.flag("verify"))
        .transport(
            args.str_or("transport", "sim")
                .parse::<TransportKind>()
                .map_err(CliError::Usage)?,
        )
        .build();
    // With --perf-report the run goes through the observed path (identical
    // results — telemetry never feeds back) and the telemetry is written
    // as JSON.
    let perf_path = args.opt_str("perf-report").map(str::to_string);
    let started = Instant::now();
    let (r, perf_line) = match &perf_path {
        None => (run_simulation(source.as_ref(), &params, None), None),
        Some(report_path) => {
            let mut telemetry = Telemetry::default();
            let r = run_simulation(source.as_ref(), &params, Some(&mut telemetry));
            std::fs::write(report_path, telemetry.to_json(started.elapsed()))
                .map_err(|e| CliError::Io(report_path.clone(), e))?;
            (r, Some(format!("  perf report written to {report_path}")))
        }
    };

    let mut out = String::new();
    let _ = writeln!(
        out,
        "protocol {protocol} over {path} ({} contacts)",
        r.contacts
    );
    let _ = writeln!(out, "  queries (measured nodes): {}", r.queries);
    let _ = writeln!(
        out,
        "  metadata delivered: {:>6}  (ratio {:.4})",
        r.metadata_delivered, r.metadata_ratio
    );
    let _ = writeln!(
        out,
        "  files delivered:    {:>6}  (ratio {:.4})",
        r.files_delivered, r.file_ratio
    );
    if let Some(d) = r.mean_metadata_delay_hours {
        let _ = writeln!(out, "  mean metadata delay: {d:.1} h");
    }
    if let Some(d) = r.mean_file_delay_hours {
        let _ = writeln!(out, "  mean file delay:     {d:.1} h");
    }
    let _ = writeln!(
        out,
        "  broadcasts: {} metadata, {} files; {} queries distributed",
        r.metadata_broadcasts, r.file_broadcasts, r.queries_distributed
    );
    if !faults.is_noop() {
        let _ = writeln!(
            out,
            "  faults: loss {:.2}, truncate {:.2}, churn {:.2}, corrupt {:.2} \
             -> {} frames lost, {} corrupt receptions",
            faults.loss_rate,
            faults.truncate_rate,
            faults.churn,
            faults.corruption_rate,
            r.frames_lost,
            r.corrupt_receptions
        );
    }
    if let Some(line) = perf_line {
        let _ = writeln!(out, "{line}");
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dtn_trace::generators::NusConfig;
    use dtn_trace::write_trace;

    fn trace_file(name: &str) -> std::path::PathBuf {
        // One file per test: tests run concurrently and must not share paths.
        let dir = std::env::temp_dir().join("mbt-cli-test-sim");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("{name}.trace"));
        let trace = NusConfig::new(20, 5).seed(3).generate();
        write_trace(std::fs::File::create(&path).unwrap(), &trace).unwrap();
        path
    }

    fn args(s: &str) -> Args {
        crate::parse_line("simulate", s)
    }

    #[test]
    fn runs_default_simulation() {
        let path = trace_file("default");
        let out = run(&args(&format!("{} --files-per-day 8", path.display()))).unwrap();
        assert!(out.contains("metadata delivered"));
        assert!(out.contains("ratio"));
    }

    #[test]
    fn accepts_variant_and_flags() {
        let path = trace_file("flags");
        let out = run(&args(&format!(
            "{} --protocol mbt-qm --tft --loss 0.2 --files-per-day 8",
            path.display()
        )))
        .unwrap();
        assert!(out.contains("MBT-QM"));
    }

    #[test]
    fn fault_flags_print_a_summary_line() {
        let path = trace_file("faults");
        let out = run(&args(&format!(
            "{} --loss 0.3 --truncate 0.4 --churn 0.2 --corrupt 0.1 --files-per-day 8",
            path.display()
        )))
        .unwrap();
        assert!(out.contains("faults: loss 0.30"), "missing summary: {out}");
        assert!(out.contains("frames lost"));
    }

    #[test]
    fn clean_run_prints_no_fault_line() {
        let path = trace_file("clean");
        let out = run(&args(&format!("{} --files-per-day 8", path.display()))).unwrap();
        assert!(!out.contains("faults:"), "unexpected fault line: {out}");
    }

    #[test]
    fn perf_report_flag_writes_parseable_json_without_changing_results() {
        let path = trace_file("perf");
        let report_path = std::env::temp_dir().join("mbt-cli-test-sim/perf_report.json");
        let plain = run(&args(&format!("{} --files-per-day 8", path.display()))).unwrap();
        let observed = run(&args(&format!(
            "{} --files-per-day 8 --perf-report {}",
            path.display(),
            report_path.display()
        )))
        .unwrap();
        assert!(observed.contains("perf report written"));
        // Identical simulation output apart from the report line.
        assert_eq!(
            plain,
            observed.replace(
                &format!("  perf report written to {}\n", report_path.display()),
                ""
            )
        );
        // The report carries the run's counters: `contacts` is the figure
        // the first output line prints.
        let contacts = plain
            .split_once(" contacts)")
            .and_then(|(head, _)| head.rsplit_once('('))
            .map(|(_, n)| n.parse::<u64>().unwrap())
            .unwrap();
        assert!(contacts > 0);
        let report = std::fs::read_to_string(&report_path).unwrap();
        assert!(report.contains("\"wall_secs\": "), "{report}");
        assert!(report.contains("\"contact_processing\": "), "{report}");
        assert!(
            report.contains(&format!("\"contacts\": {contacts},")),
            "{report}"
        );
    }

    #[test]
    fn perf_report_says_what_the_bus_carried() {
        let path = trace_file("bus-perf");
        let counter = |transport: &str, name: &str| -> u64 {
            let report_path =
                std::env::temp_dir().join(format!("mbt-cli-test-sim/{transport}_report.json"));
            run(&args(&format!(
                "{} --files-per-day 8 --transport {transport} --perf-report {}",
                path.display(),
                report_path.display()
            )))
            .unwrap();
            let report = std::fs::read_to_string(&report_path).unwrap();
            let (_, rest) = report.split_once(&format!("\"{name}\": ")).unwrap();
            let digits = rest.split(|c: char| !c.is_ascii_digit()).next().unwrap();
            digits.parse().unwrap()
        };
        let frames = counter("bus", "bus_frames_carried");
        assert!(frames > 0);
        assert!(
            counter("bus", "bus_bytes_on_wire") > 64 * frames,
            "headers alone"
        );
        assert_eq!(counter("bus", "bus_frames_rebuilt"), 0);
        assert_eq!(counter("bus", "bus_frames_dropped"), 0);
        assert_eq!(counter("sim", "bus_frames_carried"), 0);
        assert_eq!(counter("sim", "bus_bytes_on_wire"), 0);
    }

    #[test]
    fn shard_directory_input_matches_file_input() {
        use dtn_trace::ContactSink as _;
        let path = trace_file("shard-src");
        let shard_dir = std::env::temp_dir().join("mbt-cli-test-sim/shard-src-dir");
        let _ = std::fs::remove_dir_all(&shard_dir);
        let trace = dtn_trace::read_trace(std::fs::File::open(&path).unwrap()).unwrap();
        let mut writer =
            dtn_trace::ShardWriter::create(&shard_dir, SimDuration::from_days(1)).unwrap();
        for c in trace.iter() {
            writer.push_contact(c.clone());
        }
        writer.finish().unwrap();
        let from_file = run(&args(&format!("{} --files-per-day 8", path.display()))).unwrap();
        let from_shards =
            run(&args(&format!("{} --files-per-day 8", shard_dir.display()))).unwrap();
        // The first line names the input path; everything after it must be
        // byte-identical across the two backings.
        let tail = |s: &str| s.split_once('\n').unwrap().1.to_string();
        assert_eq!(tail(&from_file), tail(&from_shards));
    }

    #[test]
    fn rejects_an_id_space_out_of_proportion_to_the_nodes_named() {
        // Two lines that would size every dense per-id table at 4·10⁹
        // entries: refused where the trace is opened, naming the id.
        let dir = std::env::temp_dir().join("mbt-cli-test-sim");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("hostile-ids.trace");
        std::fs::write(&path, "contact 0 10 1 2\ncontact 20 30 2 4000000000\n").unwrap();
        let err = run(&args(&path.display().to_string())).unwrap_err();
        assert!(matches!(err, CliError::Usage(_)), "{err:?}");
        assert!(err.to_string().contains("node id 4000000000"), "{err}");
    }

    #[test]
    fn rejects_days_and_files_per_day_out_of_proportion_to_the_trace() {
        // Either flag sizes a table before the first contact is read: 800 GB
        // of daily tallies, a 256 GB batch of files.
        let path = trace_file("hostile-sizes");
        let run_with = |flags: &str| run(&args(&format!("{} {flags}", path.display())));
        let err = run_with("--days 99999999999").unwrap_err();
        assert!(matches!(err, CliError::Usage(_)), "{err:?}");
        let err = err.to_string();
        assert!(err.contains("--days 99999999999"), "{err}");
        assert!(
            err.contains("1024 times the 5 days the trace spans"),
            "{err}"
        );
        assert!(err.contains("at most 5120"), "{err}");
        for bad in ["4000000000", "100001"] {
            let err = run_with(&format!("--files-per-day {bad}")).unwrap_err();
            assert_eq!(
                err.to_string(),
                format!("--files-per-day expects an integer up to 100000, got `{bad}`")
            );
        }
        // Past the trace's last contact, within the bound: a run.
        run_with("--days 12 --files-per-day 2").unwrap();
    }

    #[test]
    fn rejects_a_ttl_or_frequent_window_out_of_proportion_to_the_trace() {
        // A count of days becomes seconds by multiplication: 10¹⁸ days wraps
        // in release (a TTL of some hours, exit 0) and panics in debug.
        let path = trace_file("hostile-days");
        let run_with = |flags: &str| run(&args(&format!("{} {flags}", path.display())));
        for option in ["--ttl", "--frequent-days"] {
            for bad in ["999999999999999999", "5121", "-1", "1.5"] {
                let err = run_with(&format!("{option} {bad}")).unwrap_err();
                assert_eq!(
                    err.to_string(),
                    format!(
                        "{option} expects a number of days up to 1024 times the days the \
                         trace spans, got `{bad}`"
                    )
                );
            }
        }
        // The trace spans 5 days: 5120 is the most either may be.
        run_with("--ttl 5120 --frequent-days 5120 --files-per-day 2").unwrap();
    }

    #[test]
    fn rejects_a_manifest_whose_span_its_shard_windows_do_not_bear_out() {
        use dtn_trace::ContactSink as _;
        let path = trace_file("span-src");
        let trace = dtn_trace::read_trace(std::fs::File::open(&path).unwrap()).unwrap();
        let shard_dir = std::env::temp_dir().join("mbt-cli-test-sim/span-claimed");
        let _ = std::fs::remove_dir_all(&shard_dir);
        let mut writer =
            dtn_trace::ShardWriter::create(&shard_dir, SimDuration::from_days(1)).unwrap();
        for c in trace.iter() {
            writer.push_contact(c.clone());
        }
        writer.finish().unwrap();
        let line = format!("{} --files-per-day 8", shard_dir.display());
        run(&args(&line)).expect("the untouched manifest opens");

        // 10¹⁵ s is 11.6 billion days: the default `--days`, and with it the
        // length of the per-day tallies.
        let manifest = shard_dir.join("manifest.txt");
        let text = std::fs::read_to_string(&manifest).unwrap();
        let honest = text
            .lines()
            .find(|l| l.starts_with("span-end "))
            .expect("a span-end line")
            .to_string();
        std::fs::write(
            &manifest,
            text.replace(&honest, "span-end 1000000000000000"),
        )
        .unwrap();
        let err = run(&args(&line)).unwrap_err();
        assert!(matches!(err, CliError::Usage(_)), "{err:?}");
        let err = err.to_string();
        assert!(err.contains("claims a span of 11574074074 days"), "{err}");
        assert!(
            err.contains("1024 times the 5 its shard windows cover"),
            "{err}"
        );
    }

    #[test]
    fn rejects_a_manifest_whose_span_ends_before_it_starts() {
        use dtn_trace::ContactSink as _;
        let path = trace_file("span-reversed-src");
        let trace = dtn_trace::read_trace(std::fs::File::open(&path).unwrap()).unwrap();
        let shard_dir = std::env::temp_dir().join("mbt-cli-test-sim/span-reversed");
        let _ = std::fs::remove_dir_all(&shard_dir);
        let mut writer =
            dtn_trace::ShardWriter::create(&shard_dir, SimDuration::from_days(1)).unwrap();
        for c in trace.iter() {
            writer.push_contact(c.clone());
        }
        writer.finish().unwrap();

        // Swap the two bounds: the span's length would be computed as a
        // negative duration.
        let manifest = shard_dir.join("manifest.txt");
        let text = std::fs::read_to_string(&manifest).unwrap();
        let value = |key: &str| {
            let line = text.lines().find(|l| l.starts_with(key)).unwrap();
            line.split_once(' ').unwrap().1.to_string()
        };
        let (start, end) = (value("span-start "), value("span-end "));
        let reversed = text
            .replace(
                &format!("span-start {start}\n"),
                &format!("span-start {end}\n"),
            )
            .replace(&format!("span-end {end}\n"), &format!("span-end {start}\n"));
        std::fs::write(&manifest, reversed).unwrap();
        let err = run(&args(&shard_dir.display().to_string())).unwrap_err();
        assert!(matches!(err, CliError::Usage(_)), "{err:?}");
        assert_eq!(
            err.to_string(),
            format!("manifest error on line 6: span-end {start} precedes span-start {end}")
        );
    }

    #[test]
    fn rejects_a_manifest_whose_id_space_was_edited_up_or_down() {
        use dtn_trace::ContactSink as _;
        let path = trace_file("id-space-src");
        let trace = dtn_trace::read_trace(std::fs::File::open(&path).unwrap()).unwrap();
        let honest = format!("id-space {}\n", trace.id_space());
        for (name, tampered, names) in [
            ("up", "id-space 16000000000\n", "id space 16000000000"),
            (
                "down",
                "id-space 5\n",
                "id space 5 does not cover node id 19",
            ),
        ] {
            let shard_dir = std::env::temp_dir().join(format!("mbt-cli-test-sim/id-space-{name}"));
            let _ = std::fs::remove_dir_all(&shard_dir);
            let mut writer =
                dtn_trace::ShardWriter::create(&shard_dir, SimDuration::from_days(1)).unwrap();
            for c in trace.iter() {
                writer.push_contact(c.clone());
            }
            writer.finish().unwrap();
            let line = format!("{} --files-per-day 8", shard_dir.display());
            run(&args(&line)).expect("the untouched manifest opens");

            let manifest = shard_dir.join("manifest.txt");
            let text = std::fs::read_to_string(&manifest).unwrap();
            assert!(text.contains(&honest), "{text}");
            std::fs::write(&manifest, text.replace(&honest, tampered)).unwrap();
            let err = run(&args(&line)).unwrap_err();
            assert!(matches!(err, CliError::Usage(_)), "{err:?}");
            assert!(err.to_string().contains(names), "{err}");
        }
    }

    #[test]
    fn bus_transport_matches_sim_transport() {
        let path = trace_file("transport");
        let sim = run(&args(&format!(
            "{} --files-per-day 8 --transport sim",
            path.display()
        )))
        .unwrap();
        let bus = run(&args(&format!(
            "{} --files-per-day 8 --transport bus",
            path.display()
        )))
        .unwrap();
        assert_eq!(sim, bus);
    }

    #[test]
    fn rejects_unknown_transport() {
        let path = trace_file("bad-transport");
        let err = run(&args(&format!("{} --transport tcp", path.display()))).unwrap_err();
        assert!(err.to_string().contains("unknown transport"));
    }

    #[test]
    fn accepts_new_variants_by_name() {
        let path = trace_file("popcache");
        let out = run(&args(&format!(
            "{} --protocol popcache --files-per-day 8",
            path.display()
        )))
        .unwrap();
        assert!(out.contains("PopCache"), "{out}");
    }

    #[test]
    fn unknown_protocol_suggests_closest() {
        let path = trace_file("suggest");
        let err = run(&args(&format!("{} --protocol popcash", path.display()))).unwrap_err();
        assert!(err.to_string().contains("did you mean `PopCache`"), "{err}");
    }

    #[test]
    fn rejects_unknown_protocol() {
        let path = trace_file("reject");
        let err = run(&args(&format!(
            "{} --protocol carrier-pigeon",
            path.display()
        )))
        .unwrap_err();
        assert!(err.to_string().contains("carrier-pigeon"));
    }
}
