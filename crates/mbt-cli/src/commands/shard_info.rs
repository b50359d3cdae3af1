//! `mbt shard-info` — inspect a sharded trace directory's manifest.

use std::fmt::Write as _;

use dtn_trace::{ShardedTrace, TraceSource};

use crate::args::Args;
use crate::CliError;

/// Usage text for the subcommand.
pub const USAGE: &str = "mbt shard-info <shard-dir> [--verify]

Prints the manifest facts of a sharded trace (see `mbt shard`): contact
and node counts, id space, time span, shard window, and the per-shard
contact distribution. Reads only the manifest, never the shards — unless
--verify is given, which re-reads every shard and checks its contact and
pair counts (and pair sidecars) against the manifest.";

/// Runs the subcommand.
pub fn run(args: &Args) -> Result<String, CliError> {
    let path = args.positional(0, "shard-dir")?.to_string();
    let sharded = ShardedTrace::open(&path).map_err(|e| CliError::Usage(e.to_string()))?;
    let verified = if args.flag("verify") {
        sharded
            .verify()
            .map_err(|e| CliError::Usage(e.to_string()))?;
        true
    } else {
        false
    };

    let mut out = String::new();
    let _ = writeln!(out, "sharded trace: {path}");
    let _ = writeln!(out, "  contacts:      {}", sharded.len());
    let _ = writeln!(out, "  nodes:         {}", sharded.nodes().len());
    let _ = writeln!(out, "  id space:      {}", sharded.id_space());
    let _ = writeln!(
        out,
        "  span:          {:.2} days (start {} s, end {} s)",
        sharded.span().as_days_f64(),
        sharded.start_time().map_or(0, |t| t.as_secs()),
        sharded.end_time().map_or(0, |t| t.as_secs())
    );
    let _ = writeln!(out, "  window:        {} s", sharded.window().as_secs());
    let _ = writeln!(out, "  shards:        {}", sharded.shard_count());
    let _ = writeln!(
        out,
        "  largest shard: {} contacts (bounds resident memory during replay)",
        sharded.largest_shard_contacts()
    );
    for meta in sharded.shards() {
        let _ = writeln!(
            out,
            "    {}  window {:>4}  {:>8} contacts",
            meta.file, meta.window_index, meta.contacts
        );
    }
    if verified {
        let _ = writeln!(
            out,
            "  verified: all {} shards match the manifest",
            sharded.shard_count()
        );
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dtn_trace::generators::DieselNetConfig;
    use dtn_trace::{ShardWriter, SimDuration};

    #[test]
    fn reports_manifest_facts() {
        let dir = std::env::temp_dir().join("mbt-cli-test-shard-info/basic");
        let _ = std::fs::remove_dir_all(&dir);
        let mut writer = ShardWriter::create(&dir, SimDuration::from_days(1)).unwrap();
        DieselNetConfig::new(10, 3)
            .seed(1)
            .generate_into(&mut writer);
        let sharded = writer.finish().unwrap();
        let args = crate::parse_line("shard-info", &dir.display().to_string());
        let out = run(&args).unwrap();
        assert!(
            out.contains(&format!("contacts:      {}", sharded.len())),
            "{out}"
        );
        assert!(out.contains(&format!("shards:        {}", sharded.shard_count())));
        assert!(out.contains("largest shard:"));
        assert!(out.contains("shard-00000.txt"));
    }

    #[test]
    fn missing_directory_is_a_usage_error() {
        let args = crate::parse_line("shard-info", "/nonexistent/shards");
        assert!(matches!(run(&args), Err(CliError::Usage(_))));
    }

    fn verify_dir(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("mbt-cli-test-shard-info/{name}"));
        let _ = std::fs::remove_dir_all(&dir);
        let mut writer = ShardWriter::create(&dir, SimDuration::from_days(1)).unwrap();
        DieselNetConfig::new(10, 3)
            .seed(1)
            .generate_into(&mut writer);
        writer.finish().unwrap();
        dir
    }

    #[test]
    fn verify_flag_checks_every_shard() {
        let dir = verify_dir("verify-ok");
        let args = crate::parse_line("shard-info", &format!("{} --verify", dir.display()));
        let out = run(&args).unwrap();
        assert!(out.contains("verified: all"), "{out}");
    }

    #[test]
    fn verify_flag_surfaces_corruption_as_a_structured_error() {
        let dir = verify_dir("verify-bad");
        // Drop the last line of shard 0: the manifest count no longer holds.
        let shard = dir.join("shard-00000.txt");
        let text = std::fs::read_to_string(&shard).unwrap();
        let truncated: Vec<&str> = text.lines().collect();
        std::fs::write(&shard, truncated[..truncated.len() - 1].join("\n")).unwrap();
        let args = crate::parse_line("shard-info", &format!("{} --verify", dir.display()));
        let err = run(&args).unwrap_err();
        assert!(matches!(err, CliError::Usage(_)), "{err}");
        assert!(err.to_string().contains("disagrees with manifest"), "{err}");
    }

    #[test]
    fn without_verify_corruption_goes_unnoticed() {
        let dir = verify_dir("no-verify");
        let shard = dir.join("shard-00000.txt");
        let text = std::fs::read_to_string(&shard).unwrap();
        let truncated: Vec<&str> = text.lines().collect();
        std::fs::write(&shard, truncated[..truncated.len() - 1].join("\n")).unwrap();
        let args = crate::parse_line("shard-info", &dir.display().to_string());
        assert!(
            run(&args).is_ok(),
            "manifest-only path must not read shards"
        );
    }
}
