//! The rep loop shared by the four workloads, and the report it fills.

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::time::Instant;

use mbt_experiments::SimResult;

use crate::json::{self, obj, Value};
use crate::metrics::{self, UNIVERSAL};
use crate::pins;
use crate::spans::{Recorder, SpanId};
use crate::stats::{median, min_max, peak_rss_mb, percentile};

/// A percentile is reported only with this many samples beyond it.
pub const SAMPLES_BEYOND: usize = 10;

/// Fewest reps of a run. The issue's three do not fit the contract's cap on
/// the driver's 92 runs when this box is in its slow state; `--seconds 30`
/// gives three and more.
pub const MIN_REPS: usize = 2;

/// Reps that measure for `seconds`, given what one body nominally takes:
/// a function of the flags alone, never of how fast this run happens to
/// be, so that two runs of one command do the same work.
pub fn reps_for(seconds: f64, nominal_body_s: f64) -> usize {
    MIN_REPS.max((seconds / nominal_body_s).ceil() as usize)
}

/// A rep sets up again and again, timing each, until it has at least this
/// many samples and this much sampled time (the in-memory generators take
/// 0.1-4 ms), or the cap. The rep's set-up time is the fastest of them:
/// on a shared box interference only ever adds, and a burst of it easily
/// covers two of three one-second set-ups. `setup_s` is the median over
/// reps.
const SETUP_SAMPLES_MIN: usize = 3;
const SETUP_SAMPLE_S: f64 = 0.2;
const SETUP_SAMPLES_MAX: usize = 4096;

/// What one untraced body produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Size of the input in the workload's event unit.
    pub events: u64,
    /// FNV-1a digest over every deterministic output.
    pub digest: u64,
    /// Operations beyond the body itself (cells, server ops).
    pub inner_ops: u64,
    /// The (pooled) simulation result, for the three simulated metrics.
    pub sim: Option<SimResult>,
    /// Per-search latencies in nanoseconds (`server_storm` only).
    pub search_ns: Vec<u64>,
    /// Violated output checks, one line each.
    pub violations: Vec<String>,
}

/// Per-layer metric values of one traced run, by metric name; names left
/// out read 0 (the layer does not run on the workload).
pub type Layers = BTreeMap<&'static str, f64>;

/// One workload: how to make its input from a seed, run it, and trace it.
pub trait Bench {
    type Input;

    const NAME: &'static str;
    /// One line: why the workload exists.
    const WHY: &'static str;
    /// The event unit (`contact`, `cell`, `op`).
    const EVENT: &'static str;
    /// Seconds one full-scale body takes on the box this was sized on, to
    /// the nearest half; only ever used to turn `--seconds` into a rep count.
    const NOMINAL_BODY_S: f64;
    /// Whether a body consumes its input, so the traced run must set up a
    /// second one.
    const BODY_CONSUMES_INPUT: bool;
    /// Generates the input. `scratch` is a directory this rep may fill.
    fn setup(seed: u64, smoke: bool, scratch: &Path) -> Result<Self::Input, String>;

    /// The measured body, untraced.
    fn body(input: &mut Self::Input) -> Outcome;

    /// The traced body: same work as [`Bench::body`] under the open span
    /// `root`, which the implementation closes the moment that work ends —
    /// before it attaches aggregate children and before it runs its
    /// single-layer probes, which stay outside `root`. Compares against the
    /// untraced `reference`; returns the per-layer values and any violated
    /// checks.
    fn traced(
        input: &mut Self::Input,
        reference: &Outcome,
        rec: &mut Recorder,
        root: SpanId,
    ) -> (Layers, Vec<String>);
}

#[derive(Debug, Clone, Copy)]
pub struct RunSpec<'a> {
    /// The seed the inputs are generated from ([`pins::input_seed`]).
    pub seed: u64,
    pub smoke: bool,
    /// How long the bodies should measure for; [`reps_for`] turns it into
    /// whole reps, inputs are never shrunk.
    pub seconds: f64,
    /// Directory for on-disk inputs and nothing else.
    pub scratch: &'a Path,
}

/// A reported number: the median over `n` samples with their range.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sample {
    pub value: f64,
    pub min: f64,
    pub max: f64,
    pub n: usize,
}

impl Sample {
    pub fn one(value: f64) -> Sample {
        Sample {
            value,
            min: value,
            max: value,
            n: 1,
        }
    }

    fn of(values: &[f64]) -> Option<Sample> {
        let (min, max) = min_max(values)?;
        Some(Sample {
            value: median(values)?,
            min,
            max,
            n: values.len(),
        })
    }

    /// `count ÷ seconds` over per-rep seconds: the median rate, with the
    /// range inverted (the slowest rep is the lowest rate).
    fn rate(count: u64, seconds: &[f64]) -> Option<Sample> {
        let s = Sample::of(seconds)?;
        let per = |secs: f64| count as f64 / secs;
        Some(Sample {
            value: per(s.value),
            min: per(s.max),
            max: per(s.min),
            n: s.n,
        })
    }
}

/// Everything one `--workload` invocation reports.
#[derive(Debug, Clone, PartialEq)]
pub struct Report {
    pub workload: String,
    pub traced: bool,
    pub seed: u64,
    pub smoke: bool,
    pub reps: usize,
    /// The event unit (`contact`, `cell`, `op`) and how many the input holds.
    pub event: String,
    pub events: u64,
    pub digest: u64,
    pub ops_attempted: u64,
    pub ops_failed: u64,
    /// Violated checks and omissions, one line each.
    pub notes: Vec<String>,
    pub metrics: Vec<(String, Sample)>,
}

impl Report {
    pub fn correct(&self) -> bool {
        self.ops_failed == 0
    }

    pub fn metric(&self, name: &str) -> Option<Sample> {
        self.metrics
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, s)| *s)
    }

    fn push(&mut self, name: &str, sample: Sample) {
        self.metrics.push((name.to_string(), sample));
    }

    /// Records one failed operation with the reason.
    fn fail(&mut self, why: String) {
        self.ops_failed += 1;
        self.notes.push(why);
    }

    /// Every metric on its own line, name first, with its unit.
    pub fn render_text(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "== {} ({}) input_seed={} reps={} events={} {}s digest={:#018x} ops_attempted={} ops_failed={}",
            self.workload,
            if self.traced { "traced" } else { "untraced" },
            self.seed,
            self.reps,
            self.events,
            self.event,
            self.digest,
            self.ops_attempted,
            self.ops_failed
        );
        for (name, s) in &self.metrics {
            let unit = metrics::find(name).map_or("", |m| m.unit);
            let _ = write!(out, "{name:<40} {:>16.6} {unit}", s.value);
            if s.min != s.max {
                let _ = write!(out, "  (min {:.6}, max {:.6}, n={})", s.min, s.max, s.n);
            } else if s.n > 1 {
                let _ = write!(out, "  (n={})", s.n);
            }
            out.push('\n');
        }
        for note in &self.notes {
            let _ = writeln!(out, "note: {note}");
        }
        out
    }

    pub fn to_json(&self) -> Value {
        let metrics = self
            .metrics
            .iter()
            .map(|(name, s)| {
                let unit = metrics::find(name).map_or("", |m| m.unit);
                (
                    name.clone(),
                    obj([
                        ("value", Value::Num(s.value)),
                        ("unit", Value::Str(unit.to_string())),
                        ("min", Value::Num(s.min)),
                        ("max", Value::Num(s.max)),
                        ("n", Value::Num(s.n as f64)),
                    ]),
                )
            })
            .collect();
        obj([
            ("workload", Value::Str(self.workload.clone())),
            ("traced", Value::Bool(self.traced)),
            ("input_seed", Value::Str(self.seed.to_string())),
            ("smoke", Value::Bool(self.smoke)),
            ("reps", Value::Num(self.reps as f64)),
            ("event", Value::Str(self.event.clone())),
            ("events", Value::Num(self.events as f64)),
            ("digest", Value::Str(format!("{:#018x}", self.digest))),
            ("ops_attempted", Value::Num(self.ops_attempted as f64)),
            ("ops_failed", Value::Num(self.ops_failed as f64)),
            (
                "notes",
                Value::Arr(self.notes.iter().cloned().map(Value::Str).collect()),
            ),
            ("metrics", Value::Obj(metrics)),
        ])
    }

    pub fn from_json(v: &Value) -> Result<Report, String> {
        let str_of = |key: &str| {
            v.get(key)
                .and_then(Value::as_str)
                .ok_or_else(|| format!("report: missing string `{key}`"))
        };
        let num_of = |key: &str| {
            v.get(key)
                .and_then(Value::as_f64)
                .filter(|n| *n >= 0.0)
                .ok_or_else(|| format!("report: missing number `{key}`"))
        };
        let bool_of = |key: &str| {
            v.get(key)
                .and_then(Value::as_bool)
                .ok_or_else(|| format!("report: missing flag `{key}`"))
        };
        let digest = str_of("digest")?;
        let digest = u64::from_str_radix(digest.trim_start_matches("0x"), 16)
            .map_err(|_| format!("report: bad digest `{digest}`"))?;
        let seed = str_of("input_seed")?;
        let seed = seed
            .parse()
            .map_err(|_| format!("report: bad input_seed `{seed}`"))?;
        let mut metrics = Vec::new();
        for (name, m) in v
            .get("metrics")
            .and_then(Value::as_obj)
            .ok_or("report: missing `metrics`")?
        {
            let field = |key: &str| {
                m.get(key)
                    .and_then(Value::as_f64)
                    .ok_or_else(|| format!("report: metric `{name}` lacks `{key}`"))
            };
            metrics.push((
                name.clone(),
                Sample {
                    value: field("value")?,
                    min: field("min")?,
                    max: field("max")?,
                    n: field("n")? as usize,
                },
            ));
        }
        Ok(Report {
            workload: str_of("workload")?.to_string(),
            traced: bool_of("traced")?,
            seed,
            smoke: bool_of("smoke")?,
            reps: num_of("reps")? as usize,
            event: str_of("event")?.to_string(),
            events: num_of("events")? as u64,
            digest,
            ops_attempted: num_of("ops_attempted")? as u64,
            ops_failed: num_of("ops_failed")? as u64,
            notes: v
                .get("notes")
                .and_then(Value::as_arr)
                .ok_or("report: missing `notes`")?
                .iter()
                .filter_map(|n| n.as_str().map(str::to_string))
                .collect(),
            metrics,
        })
    }

    /// The one-line result the benchmark driver reads: exactly the metrics
    /// of `BENCHMARK.json`'s `end_to_end` list (untraced) or `per_layer`
    /// list (traced, zero-filled).
    pub fn driver_line(&self) -> String {
        let wanted: Vec<_> = if self.traced {
            metrics::per_layer().collect()
        } else {
            UNIVERSAL.iter().collect()
        };
        let metrics = wanted
            .into_iter()
            .filter_map(|def| {
                let value = match self.metric(def.name) {
                    Some(s) => s.value,
                    None if self.traced => 0.0,
                    None => return None,
                };
                Some((
                    def.name.to_string(),
                    obj([
                        ("value", Value::Num(value)),
                        ("unit", Value::Str(def.unit.to_string())),
                    ]),
                ))
            })
            .collect();
        obj([
            ("correct", Value::Bool(self.correct())),
            ("attempted", Value::Num(self.ops_attempted.max(1) as f64)),
            ("failed", Value::Num(self.ops_failed as f64)),
            ("metrics", Value::Obj(metrics)),
        ])
        .render()
    }
}

fn blank_report<B: Bench>(spec: &RunSpec, traced: bool) -> Report {
    Report {
        workload: B::NAME.to_string(),
        traced,
        seed: spec.seed,
        smoke: spec.smoke,
        reps: 0,
        event: B::EVENT.to_string(),
        events: 0,
        digest: 0,
        ops_attempted: 0,
        ops_failed: 0,
        notes: Vec::new(),
        metrics: Vec::new(),
    }
}

fn panic_text(payload: Box<dyn std::any::Any + Send>) -> String {
    payload
        .downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "non-string panic".to_string())
}

/// The set-up of one rep: its fastest seconds, and the last input made.
fn timed_setup<B: Bench>(spec: &RunSpec, dir: &Path) -> Result<(f64, B::Input), String> {
    let mut samples = Vec::new();
    loop {
        let started = Instant::now();
        let input = B::setup(spec.seed, spec.smoke, dir)?;
        samples.push(started.elapsed().as_secs_f64());
        let sampled =
            samples.len() >= SETUP_SAMPLES_MIN && samples.iter().sum::<f64>() >= SETUP_SAMPLE_S;
        if sampled || samples.len() >= SETUP_SAMPLES_MAX {
            let (fastest, _) = min_max(&samples).expect("at least one set-up ran");
            return Ok((fastest, input));
        }
        // An input may own `dir`: it is dropped here, before the next set-up
        // fills the directory again.
    }
}

/// The body once, timed. `Err` is a failed operation (a panic).
fn timed_body<B: Bench>(input: &mut B::Input) -> Result<(f64, Outcome), String> {
    let started = Instant::now();
    let outcome = catch_unwind(AssertUnwindSafe(|| B::body(input)))
        .map_err(|p| format!("body panicked: {}", panic_text(p)))?;
    Ok((started.elapsed().as_secs_f64(), outcome))
}

/// Checks an outcome against the first rep's and, at full scale, the first
/// rep's against the pinned values. Each mismatch fails the rep's body once.
fn check_outcome<B: Bench>(report: &mut Report, spec: &RunSpec, outcome: &Outcome) {
    let mut bad: Vec<String> = outcome.violations.clone();
    if report.reps == 0 {
        report.events = outcome.events;
        report.digest = outcome.digest;
        let pinned = pins::pinned(B::NAME, spec.seed);
        if !spec.smoke && pinned != Some((outcome.events, outcome.digest)) {
            bad.push(format!(
                "events/digest {}/{:#018x} differ from the pinned {}",
                outcome.events,
                outcome.digest,
                pinned.map_or("(none)".to_string(), |(e, d)| format!("{e}/{d:#018x}"))
            ));
        }
    } else if (outcome.events, outcome.digest) != (report.events, report.digest) {
        bad.push(format!(
            "rep {} digest {:#018x} differs from rep 0's {:#018x}",
            report.reps, outcome.digest, report.digest
        ));
    }
    if !bad.is_empty() {
        report.fail(bad.join("; "));
    }
}

/// The untraced run: every end-to-end metric, `telemetry = None`.
pub fn run_untraced<B: Bench>(spec: &RunSpec) -> Report {
    let mut report = blank_report::<B>(spec, false);
    let (mut setup_s, mut body_s) = (Vec::new(), Vec::new());
    let mut search_ns: Vec<u64> = Vec::new();
    let mut sim: Option<SimResult> = None;
    while report.reps < reps_for(spec.seconds, B::NOMINAL_BODY_S) {
        report.ops_attempted += 1;
        let dir = spec.scratch.join(format!("rep{}", report.reps));
        let rep = timed_setup::<B>(spec, &dir).and_then(|(setup, mut input)| {
            let (body, outcome) = timed_body::<B>(&mut input)?;
            Ok((setup, body, outcome))
        });
        match rep {
            Ok((setup, body, outcome)) => {
                setup_s.push(setup);
                body_s.push(body);
                report.ops_attempted += outcome.inner_ops;
                check_outcome::<B>(&mut report, spec, &outcome);
                search_ns.extend(&outcome.search_ns);
                sim = sim.or(outcome.sim);
            }
            Err(why) => {
                report.fail(why);
                break;
            }
        }
        report.reps += 1;
    }

    if let Some(s) = Sample::rate(report.events, &body_s) {
        report.push("events_per_s", s);
    }
    if let Some(s) = Sample::of(&setup_s) {
        report.push("setup_s", s);
    }
    match peak_rss_mb() {
        Some(mb) => report.push("peak_rss_mb", Sample::one(mb)),
        None => report
            .notes
            .push("peak_rss_mb omitted: /proc/self/status is unreadable here".to_string()),
    }
    if let Some(s) = Sample::of(&body_s) {
        report.push("body_s", s);
    }
    push_specific(&mut report, "", &mut search_ns, sim.as_ref());
    report
}

/// The workload-specific end-to-end metrics, under `prefix`.
fn push_specific(
    report: &mut Report,
    prefix: &str,
    search_ns: &mut [u64],
    sim: Option<&SimResult>,
) {
    search_ns.sort_unstable();
    for (name, q) in [("search_p50_us", 0.50), ("search_p99_us", 0.99)] {
        if let Some(ns) = percentile(search_ns, q, SAMPLES_BEYOND) {
            let mut s = Sample::one(ns as f64 / 1e3);
            s.n = search_ns.len();
            report.push(&format!("{prefix}{name}"), s);
        }
    }
    if let Some(sim) = sim {
        report.push(
            &format!("{prefix}file_delivery_ratio"),
            Sample::one(sim.file_ratio),
        );
        report.push(
            &format!("{prefix}metadata_delivery_ratio"),
            Sample::one(sim.metadata_ratio),
        );
        if let Some(hours) = sim.mean_file_delay_hours {
            report.push(&format!("{prefix}mean_file_delay_h"), Sample::one(hours));
        }
    }
}

/// The traced run: one set-up, the untraced body for reference, then the
/// same body under spans. Returns the report and the recorder (for
/// `--trace-out`).
pub fn run_traced<B: Bench>(spec: &RunSpec) -> (Report, Recorder) {
    let mut report = blank_report::<B>(spec, true);
    let mut rec = Recorder::new(B::NAME);
    report.ops_attempted = 2;
    let first =
        B::setup(spec.seed, spec.smoke, &spec.scratch.join("rep0")).and_then(|mut input| {
            let (untraced_s, reference) = timed_body::<B>(&mut input)?;
            Ok((untraced_s, reference, input))
        });
    let (untraced_s, mut reference, mut input) = match first {
        Ok(rep) => rep,
        Err(why) => {
            report.fail(why);
            return (report, rec);
        }
    };
    report.ops_attempted += reference.inner_ops;
    check_outcome::<B>(&mut report, spec, &reference);
    report.reps = 1;
    if B::BODY_CONSUMES_INPUT {
        drop(input);
        input = match B::setup(spec.seed, spec.smoke, &spec.scratch.join("rep1")) {
            Ok(input) => input,
            Err(why) => {
                report.fail(why);
                return (report, rec);
            }
        };
    }

    let root = rec.open("body", None);
    let traced = catch_unwind(AssertUnwindSafe(|| {
        B::traced(&mut input, &reference, &mut rec, root)
    }));
    let (mut layers, violations) = match traced {
        Ok(out) => out,
        Err(p) => {
            report.fail(format!("traced body panicked: {}", panic_text(p)));
            return (report, rec);
        }
    };
    if !violations.is_empty() {
        report.fail(violations.join("; "));
    }

    // The ledger proper: exclusive busy time per layer, the remainder, and
    // how much of the wall the named layers explain.
    let wall = rec.duration(root).as_secs_f64();
    let by_name = rec.self_time_by_name(root);
    let mut named = 0.0;
    for layer in metrics::BUSY_LAYERS {
        if let Some(busy) = by_name.get(layer) {
            named += busy.as_secs_f64();
            layers.insert(busy_metric(layer), busy.as_secs_f64());
        }
    }
    layers.insert("runner.other.busy_s", wall - named);
    layers.insert("ledger.coverage", named / wall);
    layers.insert(
        "ledger.trace_overhead_frac",
        (wall - untraced_s) / untraced_s,
    );

    for def in metrics::per_layer() {
        if let Some(&value) = layers.get(def.name) {
            report.push(def.name, Sample::one(value));
        }
    }
    report.push("body_s", Sample::one(wall));
    push_specific(
        &mut report,
        "e2e.",
        &mut reference.search_ns,
        reference.sim.as_ref(),
    );
    (report, rec)
}

/// `<layer>.busy_s`, as the static name the metric table holds.
fn busy_metric(layer: &str) -> &'static str {
    metrics::per_layer()
        .map(|m| m.name)
        .find(|name| name.strip_suffix(".busy_s") == Some(layer))
        .expect("every busy layer has a busy_s metric")
}

/// Reads a report file written by `--out`: one report per line.
pub fn read_reports(path: &Path) -> Result<Vec<Report>, String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("reading `{}`: {e}", path.display()))?;
    text.lines()
        .filter(|l| !l.trim().is_empty())
        .map(|line| json::parse(line).and_then(|v| Report::from_json(&v)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reps_follow_the_flags_alone() {
        assert_eq!(reps_for(0.0, 10.0), MIN_REPS);
        assert_eq!(reps_for(15.0, 10.0), 2);
        assert_eq!(reps_for(15.0, 5.0), 3);
        assert_eq!(reps_for(15.0, 6.5), 3);
        assert_eq!(reps_for(30.0, 9.0), 4);
    }

    #[test]
    fn rate_inverts_the_range() {
        let s = Sample::rate(100, &[2.0, 4.0, 5.0]).unwrap();
        assert_eq!((s.value, s.min, s.max, s.n), (25.0, 20.0, 50.0, 3));
        assert_eq!(Sample::rate(100, &[]), None);
    }

    #[test]
    fn every_busy_layer_has_its_metric() {
        for layer in metrics::BUSY_LAYERS {
            assert_eq!(busy_metric(layer), format!("{layer}.busy_s"));
        }
    }

    #[test]
    fn report_round_trips_through_json() {
        let report = Report {
            workload: "city_stream".to_string(),
            traced: false,
            seed: 47,
            smoke: true,
            reps: 3,
            event: "contact".to_string(),
            events: 816_155,
            digest: 0xfeed_face_cafe_beef,
            ops_attempted: 3,
            ops_failed: 1,
            notes: vec!["rep 2 digest differs".to_string()],
            metrics: vec![
                (
                    "events_per_s".to_string(),
                    Sample {
                        value: 77_123.456_789,
                        min: 70_000.0,
                        max: 80_000.5,
                        n: 3,
                    },
                ),
                ("peak_rss_mb".to_string(), Sample::one(177.25)),
            ],
        };
        let line = report.to_json().render();
        let back = Report::from_json(&json::parse(&line).unwrap()).unwrap();
        assert_eq!(back, report);
        assert!(!back.correct());
        assert!(Report::from_json(&json::parse("{}").unwrap()).is_err());
    }

    #[test]
    fn driver_line_lists_exactly_the_contract_metrics() {
        let mut report = Report {
            workload: "x".to_string(),
            traced: false,
            seed: 1,
            smoke: false,
            reps: 1,
            event: "op".to_string(),
            events: 1,
            digest: 0,
            ops_attempted: 0,
            ops_failed: 0,
            notes: vec![],
            metrics: vec![
                ("events_per_s".to_string(), Sample::one(2.5)),
                ("setup_s".to_string(), Sample::one(0.1)),
                ("peak_rss_mb".to_string(), Sample::one(10.0)),
                ("body_s".to_string(), Sample::one(0.4)),
            ],
        };
        let line = json::parse(&report.driver_line()).unwrap();
        let keys: Vec<&str> = line
            .as_obj()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(line.get("attempted").and_then(Value::as_f64), Some(1.0));
        let names: Vec<&str> = line
            .get("metrics")
            .and_then(Value::as_obj)
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(names, ["events_per_s", "setup_s", "peak_rss_mb"]);

        report.traced = true;
        report.metrics = vec![("node.contact.busy_s".to_string(), Sample::one(1.5))];
        let line = json::parse(&report.driver_line()).unwrap();
        let listed = line.get("metrics").and_then(Value::as_obj).unwrap();
        assert_eq!(
            listed.len(),
            metrics::per_layer().count(),
            "zero-filled to the full list"
        );
        let busy = line.get("metrics").unwrap().get("node.contact.busy_s");
        assert_eq!(
            busy.unwrap().get("value").and_then(Value::as_f64),
            Some(1.5)
        );
        let idle = line.get("metrics").unwrap().get("server.search.busy_s");
        assert_eq!(
            idle.unwrap().get("value").and_then(Value::as_f64),
            Some(0.0)
        );
    }
}
