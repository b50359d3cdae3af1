//! The traced run's span recorder and the `TimedSource` wrapper.
//!
//! Spans are recorded from outside the program, around calls into its
//! public functions. Layers that run once per contact (hundreds of thousands
//! of times inside one `run_simulation` call) cannot be wrapped from here, so
//! their totals — the `Phase` spans `Telemetry` already sums, and the time
//! `TimedSource` sees inside `ContactStream::next` — enter the tree as one
//! *aggregate* child span each. A layer's self time is its span minus its
//! children, so the self times of a tree always sum to the root exactly.

use std::collections::BTreeMap;
use std::sync::Mutex;
use std::time::{Duration, Instant};

use dtn_trace::{Contact, ContactStream, NodeId, SimDuration, SimTime, StreamStats, TraceSource};

use crate::json::{obj, Value};

pub type SpanId = usize;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<SpanId>,
    /// True for a synthetic span carrying a per-contact layer's summed time.
    pub aggregate: bool,
}

impl Span {
    fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// In-memory span store for one traced workload run.
#[derive(Debug)]
pub struct Recorder {
    workload: &'static str,
    origin: Instant,
    spans: Vec<Span>,
}

impl Recorder {
    pub fn new(workload: &'static str) -> Recorder {
        Recorder {
            workload,
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span starting now; close it with [`Recorder::close`].
    pub fn open(&mut self, name: &'static str, parent: Option<SpanId>) -> SpanId {
        let now = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent,
            aggregate: false,
        });
        self.spans.len() - 1
    }

    pub fn close(&mut self, id: SpanId) {
        self.spans[id].end_ns = self.now_ns();
    }

    /// Times `f` as a child span of `parent`; returns its result and the
    /// span's duration.
    pub fn time<R>(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        f: impl FnOnce() -> R,
    ) -> (R, Duration) {
        let id = self.open(name, parent);
        let out = f();
        self.close(id);
        (out, self.duration(id))
    }

    /// Adds an aggregate child of `parent` worth `busy`, clamped to what the
    /// parent's other children leave, so children never exceed their parent.
    pub fn aggregate(&mut self, name: &'static str, parent: SpanId, busy: Duration) -> SpanId {
        let room = self.self_ns(parent);
        let start = self.spans[parent].start_ns;
        self.spans.push(Span {
            name,
            start_ns: start,
            end_ns: start + (busy.as_nanos() as u64).min(room),
            parent: Some(parent),
            aggregate: true,
        });
        self.spans.len() - 1
    }

    pub fn duration(&self, id: SpanId) -> Duration {
        Duration::from_nanos(self.spans[id].duration_ns())
    }

    /// A span's duration minus the part its direct children cover.
    pub fn self_ns(&self, id: SpanId) -> u64 {
        let children: u64 = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(id))
            .map(Span::duration_ns)
            .sum();
        self.spans[id].duration_ns().saturating_sub(children)
    }

    /// Self time summed by span name over the subtree under `root`.
    pub fn self_time_by_name(&self, root: SpanId) -> BTreeMap<&'static str, Duration> {
        let mut out: BTreeMap<&'static str, Duration> = BTreeMap::new();
        for id in 0..self.spans.len() {
            if self.is_under(id, root) {
                *out.entry(self.spans[id].name).or_default() +=
                    Duration::from_nanos(self.self_ns(id));
            }
        }
        out
    }

    fn is_under(&self, mut id: SpanId, root: SpanId) -> bool {
        loop {
            if id == root {
                return true;
            }
            match self.spans[id].parent {
                Some(parent) => id = parent,
                None => return false,
            }
        }
    }

    /// One JSON object per span, in recording order. The traced run is a
    /// single rep, so `rep` is always 0.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (id, s) in self.spans.iter().enumerate() {
            let line = obj([
                ("id", Value::Num(id as f64)),
                ("name", Value::Str(s.name.to_string())),
                ("start_ns", Value::Num(s.start_ns as f64)),
                ("end_ns", Value::Num(s.end_ns as f64)),
                (
                    "parent",
                    s.parent.map_or(Value::Null, |p| Value::Num(p as f64)),
                ),
                ("workload", Value::Str(self.workload.to_string())),
                ("rep", Value::Num(0.0)),
                ("aggregate", Value::Bool(s.aggregate)),
            ]);
            out.push_str(&line.render());
            out.push('\n');
        }
        out
    }
}

/// What one stream opened through a [`TimedSource`] cost and yielded.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct StreamTiming {
    /// Time inside `stream()` plus every `next()` call.
    pub busy: Duration,
    pub contacts: u64,
}

/// A [`TraceSource`] that forwards to `inner` and times every stream it
/// hands out — the only way to see shard decode from outside
/// `run_simulation`. Timings are appended when a stream is dropped, in
/// drop order (the statistics scan, if the source needs one, then the
/// replay).
#[derive(Debug)]
pub struct TimedSource<'a> {
    inner: &'a dyn TraceSource,
    streams: Mutex<Vec<StreamTiming>>,
}

impl<'a> TimedSource<'a> {
    pub fn new(inner: &'a dyn TraceSource) -> TimedSource<'a> {
        TimedSource {
            inner,
            streams: Mutex::new(Vec::new()),
        }
    }

    /// Takes the timings of every stream finished so far.
    pub fn take_timings(&self) -> Vec<StreamTiming> {
        std::mem::take(&mut *self.streams.lock().expect("timing list lock poisoned"))
    }

    fn timed<'s>(&'s self, open: impl FnOnce() -> Box<dyn ContactStream + 's>) -> TimedStream<'s> {
        let started = Instant::now();
        let inner = open();
        TimedStream {
            inner,
            busy: started.elapsed(),
            contacts: 0,
            sink: &self.streams,
        }
    }
}

impl TraceSource for TimedSource<'_> {
    fn len(&self) -> usize {
        self.inner.len()
    }

    fn nodes(&self) -> Vec<NodeId> {
        self.inner.nodes()
    }

    fn id_space(&self) -> usize {
        self.inner.id_space()
    }

    fn start_time(&self) -> Option<SimTime> {
        self.inner.start_time()
    }

    fn end_time(&self) -> Option<SimTime> {
        self.inner.end_time()
    }

    fn stream(&self) -> Box<dyn ContactStream + '_> {
        Box::new(self.timed(|| self.inner.stream()))
    }

    fn stream_prefetch(&self, depth: usize) -> Box<dyn ContactStream + '_> {
        Box::new(self.timed(|| self.inner.stream_prefetch(depth)))
    }

    fn frequent_map(&self, every: SimDuration) -> Option<BTreeMap<NodeId, Vec<NodeId>>> {
        self.inner.frequent_map(every)
    }
}

struct TimedStream<'a> {
    inner: Box<dyn ContactStream + 'a>,
    busy: Duration,
    contacts: u64,
    sink: &'a Mutex<Vec<StreamTiming>>,
}

impl Iterator for TimedStream<'_> {
    type Item = Contact;

    fn next(&mut self) -> Option<Contact> {
        let started = Instant::now();
        let contact = self.inner.next();
        self.busy += started.elapsed();
        self.contacts += u64::from(contact.is_some());
        contact
    }
}

impl ContactStream for TimedStream<'_> {
    fn stream_stats(&self) -> StreamStats {
        self.inner.stream_stats()
    }
}

impl Drop for TimedStream<'_> {
    fn drop(&mut self) {
        // A poisoned lock means a panic is already unwinding; the timing is
        // lost with the run, which is reported as failed anyway.
        if let Ok(mut sink) = self.sink.lock() {
            sink.push(StreamTiming {
                busy: self.busy,
                contacts: self.contacts,
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dtn_trace::generators::DieselNetConfig;

    fn ms(n: u64) -> Duration {
        Duration::from_millis(n)
    }

    /// A recorder with hand-placed real spans: body [0, 100 ms] holding a
    /// sim span [10, 90 ms].
    fn fixture() -> (Recorder, SpanId, SpanId) {
        let mut rec = Recorder::new("test");
        let body = rec.open("body", None);
        let sim = rec.open("run_simulation", Some(body));
        rec.spans[body].start_ns = 0;
        rec.spans[body].end_ns = 100_000_000;
        rec.spans[sim].start_ns = 10_000_000;
        rec.spans[sim].end_ns = 90_000_000;
        (rec, body, sim)
    }

    #[test]
    fn self_times_sum_to_the_root() {
        let (mut rec, body, sim) = fixture();
        rec.aggregate("trace.shard_decode", sim, ms(5));
        let contact = rec.aggregate("node.contact", sim, ms(50));
        rec.aggregate("node.discovery", contact, ms(20));
        rec.aggregate("node.download", contact, ms(10));
        let by_name = rec.self_time_by_name(body);
        assert_eq!(by_name["body"], ms(20));
        assert_eq!(by_name["run_simulation"], ms(25));
        assert_eq!(by_name["trace.shard_decode"], ms(5));
        assert_eq!(by_name["node.contact"], ms(20), "50 minus 20 minus 10");
        assert_eq!(by_name["node.discovery"], ms(20));
        let total: Duration = by_name.values().sum();
        assert_eq!(total, rec.duration(body), "spans + remainder == wall");
        // A subtree sums to its own root, not the whole run.
        let sub: Duration = rec.self_time_by_name(sim).values().sum();
        assert_eq!(sub, rec.duration(sim));
    }

    #[test]
    fn children_never_exceed_their_parent() {
        let (mut rec, body, sim) = fixture();
        rec.aggregate("node.contact", sim, ms(60));
        // Only 20 ms of the 80 ms sim span are left: the claim is clamped.
        let greedy = rec.aggregate("trace.shard_decode", sim, ms(500));
        assert_eq!(rec.duration(greedy), ms(20));
        assert_eq!(rec.self_ns(sim), 0);
        let late = rec.aggregate("trace.frequent_map", sim, ms(1));
        assert_eq!(rec.duration(late), Duration::ZERO);
        let total: Duration = rec.self_time_by_name(body).values().sum();
        assert_eq!(total, rec.duration(body));
    }

    #[test]
    fn timed_spans_nest_and_serialize() {
        let mut rec = Recorder::new("wl");
        let root = rec.open("body", None);
        let (inner, took) = rec.time("exec.cell", Some(root), || 7);
        rec.close(root);
        assert_eq!((inner, took), (7, rec.duration(1)));
        assert!(rec.duration(root) >= took);
        let lines: Vec<crate::json::Value> = rec
            .to_jsonl()
            .lines()
            .map(|l| crate::json::parse(l).expect("span line is JSON"))
            .collect();
        assert_eq!(lines.len(), 2);
        assert_eq!(lines[0].get("parent"), Some(&crate::json::Value::Null));
        assert_eq!(lines[1].get("parent").and_then(|v| v.as_f64()), Some(0.0));
        assert_eq!(
            lines[1].get("name").and_then(|v| v.as_str()),
            Some("exec.cell")
        );
        assert_eq!(
            lines[1].get("workload").and_then(|v| v.as_str()),
            Some("wl")
        );
        assert_eq!(lines[1].get("rep").and_then(|v| v.as_f64()), Some(0.0));
    }

    #[test]
    fn timed_source_is_transparent_and_counts_contacts() {
        let trace = DieselNetConfig::new(12, 2).seed(3).generate();
        let timed = TimedSource::new(&trace);
        assert_eq!(TraceSource::len(&timed), trace.len());
        assert_eq!(timed.nodes(), trace.nodes());
        assert_eq!(timed.id_space(), trace.id_space());
        assert_eq!(timed.span(), trace.span());
        assert_eq!(timed.frequent_map(SimDuration::from_days(1)), None);
        let replayed: Vec<Contact> = timed.stream().collect();
        assert_eq!(replayed, trace.contacts());
        let half: Vec<Contact> = timed.stream_prefetch(2).take(3).collect();
        assert_eq!(half.len(), 3);
        let timings = timed.take_timings();
        assert_eq!(timings.len(), 2);
        assert_eq!(timings[0].contacts, trace.len() as u64);
        assert_eq!(timings[1].contacts, 3);
        assert_eq!(
            timed.stream().stream_stats().peak_resident_contacts,
            trace.len() as u64,
            "stream stats are the inner stream's"
        );
        timed.take_timings();
        assert!(timed.take_timings().is_empty(), "taking drains the list");
    }
}
