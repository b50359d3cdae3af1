//! The metric tables: every name the ledger prints, with its unit,
//! direction, and how `--compare` treats it.

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

/// How two runs of one metric are compared.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Kind {
    /// Host time or memory: the median may worsen by at most this share of
    /// the base run's median.
    Bounded(f64),
    /// A pure function of the seed (simulated result, counter): must repeat
    /// bit for bit.
    Exact,
    /// Host time of a single layer: printed with its ratio, never gated.
    Info,
}

#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub kind: Kind,
}

const fn def(name: &'static str, unit: &'static str, better: Better, kind: Kind) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        kind,
    }
}

use Better::{Higher, Lower};
use Kind::{Bounded, Exact, Info};

/// End-to-end metrics defined on all four workloads. These — and only these
/// — are `BENCHMARK.json`'s `end_to_end` list, because the driver expects
/// every metric of that list from every workload. That file admits one
/// bound per metric, so each is the widest any workload needs: three times
/// the spread of ten runs at ten seeds (README, "Repeatability"), capped at
/// the contract's 0.25.
pub const UNIVERSAL: [MetricDef; 3] = [
    def("events_per_s", "1/s", Higher, Bounded(0.25)),
    def("setup_s", "s", Lower, Bounded(0.25)),
    def("peak_rss_mb", "MB", Lower, Bounded(0.25)),
];

/// End-to-end metrics defined on some workloads only: the search latencies
/// on `server_storm`, the paper's simulated results on the three simulator
/// workloads. Declared once; the untraced run reports them under these
/// names (`SPECIFIC`) and the traced run repeats its own untraced body's
/// values prefixed `e2e.` (`SPECIFIC_TRACED`) in the unbounded list the
/// driver records — there a single rep's host time is information only.
macro_rules! specific {
    ($(($name:literal, $unit:literal, $better:ident, $kind:expr)),* $(,)?) => {
        pub const SPECIFIC: [MetricDef; 5] = [$(def($name, $unit, $better, $kind)),*];
        const SPECIFIC_TRACED: [MetricDef; 5] = [$(def(
            concat!("e2e.", $name),
            $unit,
            $better,
            match $kind {
                Exact => Exact,
                _ => Info,
            },
        )),*];
    };
}

specific![
    ("search_p50_us", "us", Lower, Bounded(0.25)),
    ("search_p99_us", "us", Lower, Bounded(0.25)),
    ("file_delivery_ratio", "ratio", Higher, Exact),
    ("metadata_delivery_ratio", "ratio", Higher, Exact),
    ("mean_file_delay_h", "h", Lower, Exact),
];

/// Informational companions of every untraced row.
pub const BODY_S: MetricDef = def("body_s", "s", Lower, Info);

/// Per-layer metrics of the traced run. `busy_s` values of one workload are
/// exclusive and sum, with `runner.other.busy_s`, to the traced wall. A
/// metric whose layer does not run on a workload reads 0 there.
const LAYERS: [MetricDef; 56] = [
    // dtn-trace
    def("trace.generators.contacts_per_s", "1/s", Higher, Info),
    def("trace.shard_write.contacts_per_s", "1/s", Higher, Info),
    def("trace.shard_write.bytes", "bytes", Lower, Exact),
    def("trace.shard_decode.contacts_per_s", "1/s", Higher, Info),
    def("trace.shard_decode.busy_s", "s", Lower, Info),
    def("trace.shard_decode.contacts", "count", Lower, Exact),
    def("trace.shard_decode.shards_loaded", "count", Lower, Exact),
    def("trace.frequent_map.busy_s", "s", Lower, Info),
    // dtn-sim
    def("sim.engine.contacts_per_s", "1/s", Higher, Info),
    def("sim.faults.ns_per_roll", "ns", Lower, Info),
    def("sim.faults.frame_loss_ratio", "ratio", Lower, Exact),
    // mbt-core::node
    def("node.contact.busy_s", "s", Lower, Info),
    def("node.contact.count", "count", Lower, Exact),
    def("node.contact.us_per_contact", "us", Lower, Info),
    def("node.contact.hello_exchanges", "count", Lower, Exact),
    def("node.contact.frames_sent", "count", Lower, Exact),
    def("node.contact.frames_lost", "count", Lower, Exact),
    def("node.discovery.busy_s", "s", Lower, Info),
    def("node.discovery.index_lookups", "count", Lower, Exact),
    def("node.discovery.wanted_cache_hits", "count", Higher, Exact),
    def(
        "node.discovery.metadata_transferred",
        "count",
        Higher,
        Exact,
    ),
    def("node.download.busy_s", "s", Lower, Info),
    def("node.download.pieces_transferred", "count", Higher, Exact),
    def("node.download.corrupt_receptions", "count", Lower, Exact),
    def("node.download.useful_ratio", "ratio", Higher, Exact),
    // mbt-core::transport
    def("transport.bus.busy_s", "s", Lower, Info),
    def("transport.bus.frames_per_s", "1/s", Higher, Info),
    def("transport.frame.ns_per_frame", "ns", Lower, Info),
    def("transport.frame.bytes_per_frame", "bytes", Lower, Exact),
    def("transport.frame.decode_errors", "count", Lower, Exact),
    def("transport.live_bus.ns_per_frame", "ns", Lower, Info),
    // mbt-core::server
    def("server.build.records_per_s", "1/s", Higher, Info),
    def("server.search.count", "count", Lower, Exact),
    def("server.search.busy_s", "s", Lower, Info),
    def("server.search.hits_per_search", "count", Higher, Exact),
    def("server.publish.count", "count", Lower, Exact),
    def("server.publish.busy_s", "s", Lower, Info),
    def("server.publish.p50_us", "us", Lower, Info),
    def("server.record_request.busy_s", "s", Lower, Info),
    def("server.set_popularity.busy_s", "s", Lower, Info),
    def("server.maintenance.count", "count", Lower, Exact),
    def("server.maintenance.busy_s", "s", Lower, Info),
    def("server.maintenance.p50_ms", "ms", Lower, Info),
    def("server.maintenance.expired", "count", Lower, Exact),
    def("server.snapshot.us", "us", Lower, Info),
    // mbt-experiments
    def("runner.other.busy_s", "s", Lower, Info),
    def("runner.arena.nodes_instantiated", "count", Lower, Exact),
    def("runner.arena.peak_resident_nodes", "count", Lower, Exact),
    def("residue.peak_nodes", "count", Lower, Exact),
    def("residue.bytes_est", "bytes", Lower, Exact),
    def("residue.absorb_take.ns_per_op", "ns", Lower, Info),
    def("exec.cell.count", "count", Lower, Exact),
    def("exec.cell.p50_s", "s", Lower, Info),
    def("exec.cell.max_s", "s", Lower, Info),
    // the ledger itself
    def("ledger.coverage", "frac", Higher, Info),
    def("ledger.trace_overhead_frac", "frac", Lower, Info),
];

/// `BENCHMARK.json`'s `per_layer` list, in order: every layer metric, then
/// the `e2e.` copies.
pub fn per_layer() -> impl Iterator<Item = &'static MetricDef> {
    LAYERS.iter().chain(&SPECIFIC_TRACED)
}

/// Span names whose self time is reported as `<name>.busy_s`; whatever else
/// the traced wall holds is `runner.other.busy_s`.
pub const BUSY_LAYERS: [&str; 11] = [
    "trace.shard_decode",
    "trace.frequent_map",
    "node.contact",
    "node.discovery",
    "node.download",
    "transport.bus",
    "server.search",
    "server.publish",
    "server.record_request",
    "server.set_popularity",
    "server.maintenance",
];

/// Looks a metric up by name across every table.
pub fn find(name: &str) -> Option<MetricDef> {
    UNIVERSAL
        .iter()
        .chain(&SPECIFIC)
        .chain(std::iter::once(&BODY_S))
        .chain(per_layer())
        .find(|m| m.name == name)
        .copied()
}
