//! The `mbt` subcommands.

use std::fs::File;
use std::path::Path;
use std::sync::Arc;

use dtn_trace::generators::{DieselNetConfig, NusConfig, RandomWaypointConfig};
use dtn_trace::{read_trace, ContactSink, ShardedTrace, TraceSource, SECONDS_PER_DAY};

use crate::args::{ArgError, Args};
use crate::CliError;

pub mod experiment;
pub mod gen_trace;
pub mod node;
pub mod routing;
pub mod shard;
pub mod shard_info;
pub mod simulate;
pub mod sweep;
pub mod trace_stats;

/// The most ids a trace may address for each node it names. The simulator
/// indexes a dense per-id table (`NodeTable::slot_of`) by
/// [`TraceSource::id_space`] — right when ids are dense
/// (the 10⁶-node city trace has id space = nodes), a 16 GB allocation when a
/// two-line file names node 4 000 000 000. 1024 keeps that table within a
/// few KB per real node, the order of a node's own state, and still opens a
/// hand-written trace whose few ids run into the hundreds.
const MAX_IDS_PER_NODE: usize = 1024;

/// The most days a run — or anything else a flag counts in days: a file's
/// TTL, the frequent-contact window — may last for each day its trace spans.
/// The runner sizes its per-day delivery tallies by `--days` and publishes a
/// batch on every one of them, contacts or not — right for the few days past
/// the last contact in which stored files age out, an 800 GB allocation for
/// `--days 99999999999`; and a count of days becomes seconds by an unchecked
/// multiplication, which wraps from 2⁶⁴ ÷ 86 400 on. 1024 lets a hand-written
/// trace of a few minutes run for years and keeps the tallies within a few
/// KB per day of trace.
const MAX_DAYS_PER_TRACE_DAY: u64 = 1024;

/// The longest span a count of days given outright may ask for: a century —
/// a generated trace's `--days`, a shard's `--window-days`. No trace spans
/// more, and a count of days becomes seconds by an unchecked multiplication,
/// which wraps from 2⁶⁴ ÷ 86 400 on.
pub const MAX_SPAN_DAYS: u64 = 36_500;

/// The most files one day may publish (`--files-per-day`, and the x values
/// of `sweep --param files-per-day`): each day's batch is allocated for this
/// many files up front. The paper publishes 40 a day and its sweeps stop in
/// the hundreds; 100 000 is a 6 MB batch, where the `u32` the count is parsed
/// as would ask for 256 GB.
const MAX_FILES_PER_DAY: u32 = 100_000;

/// Parses `token`, given for `--option`, as a count of files per day.
///
/// # Errors
///
/// Returns [`ArgError::BadValue`] naming the option and the token unless the
/// token is an integer in `[0, MAX_FILES_PER_DAY]`.
pub fn files_per_day(option: &str, token: &str) -> Result<u32, ArgError> {
    match token.parse::<u32>() {
        Ok(n) if n <= MAX_FILES_PER_DAY => Ok(n),
        _ => Err(ArgError::BadValue {
            option: option.to_string(),
            value: token.to_string(),
            expected: "an integer up to 100000",
        }),
    }
}

/// `--replicates` (default 1). The cell grid — points × protocols ×
/// replicates — is allocated up front, so a count outside `1..=10 000` is an
/// [`ArgError::BadValue`] naming option and token: zero is not read as one.
pub fn replicates(args: &Args) -> Result<u32, ArgError> {
    let token = args.opt_str("replicates").unwrap_or("1");
    match token.parse() {
        Ok(n @ 1..=10_000) => Ok(n),
        _ => Err(ArgError::BadValue {
            option: "replicates".to_string(),
            value: token.to_string(),
            expected: "an integer from 1 to 10000",
        }),
    }
}

/// `--jobs` (default 0, one worker per core). Workers are operating-system
/// threads started together, so a count outside `0..=256` is an
/// [`ArgError::BadValue`] naming option and token, not a request for that
/// many threads.
pub fn jobs(args: &Args) -> Result<usize, ArgError> {
    args.parse_in(
        "jobs",
        0,
        0..=256,
        "an integer from 0 (one per core) to 256",
    )
}

/// The options that pick and size a generated trace (`gen-trace`, `shard`).
pub const GENERATOR_OPTIONS: [&str; 7] = [
    "model",
    "nodes",
    "days",
    "seed",
    "routes",
    "attendance",
    "weekends",
];

/// Refuses `--first` beside `--second`: `why` says what a run would make of
/// the pair, one of which it would silently ignore.
///
/// # Errors
///
/// Returns [`CliError::Usage`] naming both options if both were given.
pub fn refuse_both(args: &Args, first: &str, second: &str, why: &str) -> Result<(), CliError> {
    if args.given(first) && args.given(second) {
        return Err(CliError::Usage(format!(
            "--{first} cannot be combined with --{second}: {why}"
        )));
    }
    Ok(())
}

/// A trace `--model` names (`dieselnet`, the default, `nus` or `rwp`),
/// sized by `--nodes --days --seed`; `--routes` applies to dieselnet,
/// `--attendance` and `--weekends` to nus. `gen-trace` and `shard` both
/// read it through [`generator`], so they take the same options.
pub struct Generated {
    /// `--model`.
    pub model: String,
    /// `--nodes`.
    pub nodes: u32,
    /// `--days`.
    pub days: u64,
    /// `--seed`.
    pub seed: u64,
    config: ModelConfig,
}

enum ModelConfig {
    DieselNet(DieselNetConfig),
    Nus(NusConfig),
    Rwp(RandomWaypointConfig),
}

impl Generated {
    /// Sends the trace into `sink`.
    pub fn generate_into(&self, sink: &mut dyn ContactSink) {
        match &self.config {
            ModelConfig::DieselNet(config) => config.generate_into(sink),
            ModelConfig::Nus(config) => config.generate_into(sink),
            // Random waypoint has no streaming generator: it materializes
            // the trace, which is then pushed on.
            ModelConfig::Rwp(config) => {
                for contact in config.generate() {
                    sink.push_contact(contact);
                }
            }
        }
    }
}

/// Reads the generator options into the trace they describe, generating
/// nothing.
///
/// # Errors
///
/// Returns [`CliError::Usage`] for an unknown model or an option that
/// belongs to another model, and the option's error for a malformed value —
/// among them `--days` past [`MAX_SPAN_DAYS`] and `--routes 0`.
pub fn generator(args: &Args) -> Result<Generated, CliError> {
    let model = args.str_or("model", "dieselnet").to_string();
    if !["dieselnet", "nus", "rwp"].contains(&model.as_str()) {
        return Err(CliError::Usage(format!(
            "unknown model `{model}` (expected dieselnet, nus, or rwp)"
        )));
    }
    for (option, owner) in [
        ("routes", "dieselnet"),
        ("attendance", "nus"),
        ("weekends", "nus"),
    ] {
        if args.given(option) && model != owner {
            return Err(CliError::Usage(format!(
                "--{option} applies to the {owner} model, not `{model}`"
            )));
        }
    }
    let nodes = args.parse_or("nodes", 40u32, "an integer")?;
    let days = args.parse_in(
        "days",
        15u64,
        0..=MAX_SPAN_DAYS,
        "a number of days up to 36500",
    )?;
    let seed = args.parse_or("seed", 42u64, "an integer")?;
    let config = match model.as_str() {
        "dieselnet" => ModelConfig::DieselNet(DieselNetConfig::new(nodes, days).seed(seed).routes(
            args.parse_in("routes", 8, 1..=u32::MAX, "an integer from 1 to 4294967295")?,
        )),
        "nus" => ModelConfig::Nus(
            NusConfig::new(nodes, days)
                .seed(seed)
                .attendance_rate(args.rate_or("attendance", 1.0)?)
                .weekends_off(!args.flag("weekends")),
        ),
        _ => ModelConfig::Rwp(RandomWaypointConfig::new(nodes, days * SECONDS_PER_DAY).seed(seed)),
    };
    Ok(Generated {
        model,
        nodes,
        days,
        seed,
        config,
    })
}

/// The days `source` spans, rounded up; at least one.
fn span_days(source: &dyn TraceSource) -> u64 {
    source.span().as_days_f64().ceil().max(1.0) as u64
}

/// Parses `token`, given for `--option`, as a count of days — a TTL, a
/// frequent-contact window — in a run over `source`.
///
/// # Errors
///
/// Returns [`ArgError::BadValue`] naming the option and the token unless the
/// token is an integer within [`MAX_DAYS_PER_TRACE_DAY`] times the days the
/// trace spans, the bound [`run_size`] holds `--days` to.
pub fn days_of(option: &str, token: &str, source: &dyn TraceSource) -> Result<u64, ArgError> {
    let most = span_days(source).saturating_mul(MAX_DAYS_PER_TRACE_DAY);
    match token.parse::<u64>() {
        Ok(days) if days <= most => Ok(days),
        _ => Err(ArgError::BadValue {
            option: option.to_string(),
            value: token.to_string(),
            expected: "a number of days up to 1024 times the days the trace spans",
        }),
    }
}

/// `--option` as a count of days through [`days_of`], or `default`.
pub fn days_or(
    args: &Args,
    option: &str,
    default: u64,
    source: &dyn TraceSource,
) -> Result<u64, ArgError> {
    args.opt_str(option)
        .map_or(Ok(default), |token| days_of(option, token, source))
}

/// The `--days` and `--files-per-day` of a run over `source` (default: the
/// days the trace spans, rounded up, and 40), for `simulate` and `sweep`
/// alike. Both size tables before the first contact is read, so both are
/// bounded here, where the flags are parsed.
pub fn run_size(args: &Args, source: &dyn TraceSource) -> Result<(u64, u32), CliError> {
    let span_days = span_days(source);
    let days = args.parse_or("days", span_days, "an integer")?;
    let most = span_days.saturating_mul(MAX_DAYS_PER_TRACE_DAY);
    if days > most {
        return Err(CliError::Usage(format!(
            "--days {days} is more than {MAX_DAYS_PER_TRACE_DAY} times the {span_days} days \
             the trace spans (at most {most})"
        )));
    }
    let files = args
        .opt_str("files-per-day")
        .map_or(Ok(40), |token| files_per_day("files-per-day", token))?;
    Ok((days, files))
}

/// Opens `path` as a trace: a directory is a sharded trace (see
/// `mbt shard`), replayed shard by shard with bounded memory; a file is read
/// fully into memory. A simulation cannot tell the two apart.
///
/// Either way the id space — the largest id in a file, a free-standing
/// field of a shard manifest — is checked here, once, against the nodes the
/// input names, before anything is sized by it; and so is the span a
/// manifest claims, against the windows its shards cover.
pub fn open_source(path: &str) -> Result<Arc<dyn TraceSource>, CliError> {
    let source: Arc<dyn TraceSource> = if Path::new(path).is_dir() {
        let trace = ShardedTrace::open(path).map_err(|e| CliError::Usage(e.to_string()))?;
        check_span(&trace).map_err(|e| CliError::Usage(format!("{path}: {e}")))?;
        Arc::new(trace)
    } else {
        let file = File::open(path).map_err(|e| CliError::Io(path.to_string(), e))?;
        Arc::new(read_trace(file).map_err(|e| CliError::Usage(e.to_string()))?)
    };
    check_id_space(source.as_ref()).map_err(|e| CliError::Usage(format!("{path}: {e}")))?;
    Ok(source)
}

/// A manifest's span is a free-standing pair of fields, and the default
/// `--days` — which sizes the run's per-day tallies — and the bound on every
/// flag counted in days are read off it. It must stay within
/// [`MAX_DAYS_PER_TRACE_DAY`] of the days the shard windows cover, from the
/// first that holds a contact to the last (a contact may end after its
/// window does, so the two need not be equal).
fn check_span(trace: &ShardedTrace) -> Result<(), String> {
    // The manifest lists its windows ascending (or it would not have opened).
    let covered = match (trace.shards().first(), trace.shards().last()) {
        (Some(first), Some(last)) => (last.window_index - first.window_index)
            .saturating_add(1)
            .saturating_mul(trace.window().as_secs()),
        _ => 0,
    };
    let covered_days = covered.div_ceil(SECONDS_PER_DAY).max(1);
    let claimed_days = span_days(trace);
    if claimed_days > covered_days.saturating_mul(MAX_DAYS_PER_TRACE_DAY) {
        return Err(format!(
            "the manifest claims a span of {claimed_days} days, more than \
             {MAX_DAYS_PER_TRACE_DAY} times the {covered_days} its shard windows cover"
        ));
    }
    Ok(())
}

/// The id space must exceed every named node (or dense tables are indexed
/// out of bounds) and stay within [`MAX_IDS_PER_NODE`] of their count.
fn check_id_space(source: &dyn TraceSource) -> Result<(), String> {
    let id_space = source.id_space();
    // A manifest's node lines are outside input too: not necessarily the
    // sorted, distinct list the trait promises.
    let mut nodes = source.nodes();
    nodes.sort_unstable();
    nodes.dedup();
    let largest = nodes.last().map_or(0, |n| n.index());
    if !nodes.is_empty() && largest >= id_space {
        return Err(format!(
            "id space {id_space} does not cover node id {largest}"
        ));
    }
    if id_space > nodes.len().saturating_mul(MAX_IDS_PER_NODE) {
        return Err(format!(
            "id space {id_space} (largest node id {largest}) is more than {MAX_IDS_PER_NODE} \
             times the {} nodes named; renumber the nodes densely",
            nodes.len()
        ));
    }
    Ok(())
}
