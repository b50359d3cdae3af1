//! The [`TraceSource`] seam: one abstraction over in-memory and on-disk
//! traces.
//!
//! A simulation run needs two things from a trace: a handful of summary
//! facts (node set, id space, span) and a single pass over the contacts in
//! event order. `TraceSource` exposes exactly that, so the simulator and the
//! sweep executor run identically over a fully materialized
//! [`ContactTrace`] and a sharded on-disk trace
//! ([`ShardedTrace`](crate::shard::ShardedTrace)) that never fits in RAM.
//!
//! Streams also self-report [`StreamStats`] — how many shards were faulted
//! in and the peak number of contacts resident at once — which the
//! experiment layer surfaces as telemetry counters.

use std::collections::BTreeMap;
use std::fmt;

use crate::contact::Contact;
use crate::node::NodeId;
use crate::time::{SimDuration, SimTime};
use crate::trace::ContactTrace;

/// Memory-behaviour observations of one finished (or in-progress) stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StreamStats {
    /// Number of on-disk shards loaded. Zero for in-memory sources.
    pub shards_loaded: u64,
    /// Peak number of contacts resident in the stream's buffer at once.
    /// For in-memory sources this is the full trace length; for sharded
    /// sources it is bounded by the largest single shard.
    pub peak_resident_contacts: u64,
}

/// A single in-order pass over a trace's contacts.
///
/// The iterator yields contacts in canonical event order (start, end,
/// participants — the [`ContactTrace`] sort). [`ContactStream::stream_stats`]
/// may be called at any point; it reflects what the stream has observed so
/// far.
pub trait ContactStream: Iterator<Item = Contact> {
    /// Memory-behaviour observations up to this point.
    fn stream_stats(&self) -> StreamStats;
}

/// Anything a simulation can replay: summary facts plus a streaming pass.
///
/// Implemented by [`ContactTrace`] (everything resident) and
/// [`ShardedTrace`](crate::shard::ShardedTrace) (one shard resident at a
/// time). `Send + Sync` so sweep executors can share one source across
/// worker threads behind an `Arc`.
pub trait TraceSource: Send + Sync + fmt::Debug {
    /// Total number of contacts.
    fn len(&self) -> usize;

    /// True if the source holds no contacts.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// All node ids appearing in any contact, sorted ascending.
    fn nodes(&self) -> Vec<NodeId>;

    /// Largest node id plus one, or zero when empty.
    fn id_space(&self) -> usize;

    /// Earliest contact start, if any.
    fn start_time(&self) -> Option<SimTime>;

    /// Latest contact end, if any.
    fn end_time(&self) -> Option<SimTime>;

    /// Total time covered from first start to last end.
    fn span(&self) -> SimDuration {
        match (self.start_time(), self.end_time()) {
            (Some(s), Some(e)) => e.duration_since(s),
            _ => SimDuration::ZERO,
        }
    }

    /// Opens a fresh stream over the contacts in event order.
    ///
    /// Each call starts from the beginning. A run that still needs a
    /// separate statistics pass (because [`TraceSource::frequent_map`]
    /// returned `None`) opens one extra stream for it.
    fn stream(&self) -> Box<dyn ContactStream + '_>;

    /// [`TraceSource::stream`], whatever `depth` says.
    ///
    /// No workspace code calls it. The benchmark's `TimedSource` still
    /// overrides it with a forward, and ROADMAP's ledger v2a item retires
    /// the method together with that forward.
    fn stream_prefetch(&self, depth: usize) -> Box<dyn ContactStream + '_> {
        let _ = depth;
        self.stream()
    }

    /// The frequent-contact peer map at granularity `every`, derived from
    /// precomputed aggregates when the source carries them.
    ///
    /// Returns `None` when the source cannot derive the map without a full
    /// contact pass (the in-memory backing, old shard manifests without
    /// pair aggregates, a missing or malformed pair sidecar, or an `every`
    /// that is not a whole number of shard windows); callers then stream a
    /// [`FrequentScan`](crate::stats::FrequentScan) pass. Both feed the
    /// rule's one window fold, the aggregates a rule window's distinct pairs
    /// and the scan the same pairs gathered from its contacts, so a `Some`
    /// is the map that pass would produce.
    fn frequent_map(&self, every: SimDuration) -> Option<BTreeMap<NodeId, Vec<NodeId>>> {
        let _ = every;
        None
    }
}

/// Stream over an in-memory trace: clones contacts out of the resident
/// buffer. `shards_loaded` is zero and the peak residency is the full
/// trace length (everything is always resident).
#[derive(Debug)]
struct MemoryStream<'a> {
    inner: std::slice::Iter<'a, Contact>,
    len: u64,
}

impl Iterator for MemoryStream<'_> {
    type Item = Contact;

    fn next(&mut self) -> Option<Contact> {
        self.inner.next().cloned()
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.inner.size_hint()
    }
}

impl ContactStream for MemoryStream<'_> {
    fn stream_stats(&self) -> StreamStats {
        StreamStats {
            shards_loaded: 0,
            peak_resident_contacts: self.len,
        }
    }
}

impl TraceSource for ContactTrace {
    fn len(&self) -> usize {
        ContactTrace::len(self)
    }

    fn nodes(&self) -> Vec<NodeId> {
        ContactTrace::nodes(self)
    }

    fn id_space(&self) -> usize {
        ContactTrace::id_space(self)
    }

    fn start_time(&self) -> Option<SimTime> {
        ContactTrace::start_time(self)
    }

    fn end_time(&self) -> Option<SimTime> {
        ContactTrace::end_time(self)
    }

    fn stream(&self) -> Box<dyn ContactStream + '_> {
        Box::new(MemoryStream {
            inner: self.iter(),
            len: ContactTrace::len(self) as u64,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pc(a: u32, b: u32, start: u64, end: u64) -> Contact {
        Contact::pairwise(
            NodeId::new(a),
            NodeId::new(b),
            SimTime::from_secs(start),
            SimTime::from_secs(end),
        )
        .unwrap()
    }

    #[test]
    fn memory_stream_matches_trace_order() {
        let trace: ContactTrace = vec![pc(0, 1, 50, 60), pc(1, 2, 10, 20)]
            .into_iter()
            .collect();
        let source: &dyn TraceSource = &trace;
        let streamed: Vec<Contact> = source.stream().collect();
        assert_eq!(streamed, trace.contacts());
    }

    #[test]
    fn memory_stream_stats_report_full_residency() {
        let trace: ContactTrace = vec![pc(0, 1, 0, 1), pc(1, 2, 2, 3)].into_iter().collect();
        let stats = TraceSource::stream(&trace).stream_stats();
        assert_eq!(stats.shards_loaded, 0);
        assert_eq!(stats.peak_resident_contacts, 2);
    }

    #[test]
    fn source_facts_match_trace_facts() {
        let trace: ContactTrace = vec![pc(0, 7, 5, 9), pc(2, 3, 1, 4)].into_iter().collect();
        let source: &dyn TraceSource = &trace;
        assert_eq!(source.len(), 2);
        assert!(!source.is_empty());
        assert_eq!(source.id_space(), 8);
        assert_eq!(source.start_time(), Some(SimTime::from_secs(1)));
        assert_eq!(source.end_time(), Some(SimTime::from_secs(9)));
        assert_eq!(source.span(), SimDuration::from_secs(8));
        assert_eq!(source.nodes().len(), 4);
    }

    #[test]
    fn default_methods_forward_to_stream_and_derive_nothing() {
        let trace: ContactTrace = vec![pc(0, 1, 50, 60), pc(1, 2, 10, 20)]
            .into_iter()
            .collect();
        let source: &dyn TraceSource = &trace;
        let serial: Vec<Contact> = source.stream().collect();
        let forwarded: Vec<Contact> = source.stream_prefetch(4).collect();
        assert_eq!(serial, forwarded);
        assert_eq!(
            source.frequent_map(SimDuration::from_secs(60)),
            None,
            "in-memory sources have no precomputed aggregates"
        );
    }
}
