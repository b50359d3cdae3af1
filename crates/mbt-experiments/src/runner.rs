//! End-to-end simulation runner.
//!
//! Wires a contact trace, the workload of §VI-A, and a population of
//! [`MbtNode`]s into the discrete-event engine, and measures the metadata and
//! file delivery ratios among the non-Internet-access nodes — the paper's
//! performance metric.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;
use std::time::Instant;

use dtn_sim::engine::{SimHandler, StreamSimulator};
use dtn_sim::rng::stream;
use dtn_sim::telemetry::{Phase, PhaseTimes, Telemetry};
use dtn_sim::FaultPlan;
use dtn_trace::{
    Contact, FrequentScan, NodeId, SimDuration, SimTime, StreamStats, TraceSource, SECONDS_PER_DAY,
};
use mbt_core::auth::KeyRegistry;
use mbt_core::node::ContactScratch;
use mbt_core::transport::{BusTransport, SimTransport, Transport};
use mbt_core::{MbtConfig, MbtNode, MetadataServer, NodeEvent, ProtocolSpec, TransportKind, Uri};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;

use crate::workload::{self, WorkloadConfig};

/// Parameters of one simulation run. A passive configuration struct — all
/// fields public.
#[derive(Debug, Clone)]
pub struct SimParams {
    /// Which protocol variant every node runs.
    pub protocol: ProtocolSpec,
    /// Node configuration (per-contact budgets, cooperation mode, …).
    pub config: MbtConfig,
    /// Fraction of nodes with Internet access, in `[0, 1]`.
    pub internet_fraction: f64,
    /// New files generated per day.
    pub files_per_day: u32,
    /// File time-to-live in days.
    pub ttl_days: u64,
    /// Simulated days.
    pub days: u64,
    /// Master seed (drives Internet-node selection and the workload).
    pub seed: u64,
    /// Window for frequent-contact detection (3 days for DieselNet, 1 day
    /// for NUS — paper §VI-A).
    pub frequent_window: SimDuration,
    /// Failure injection: fraction of measured nodes (neither Internet nodes
    /// nor polluters) that die — stop participating in contacts and
    /// generating queries — at a uniformly random instant within the
    /// horizon. Default 0.
    pub churn: f64,
    /// Structured fault injection (frame loss, contact truncation, temporary
    /// down intervals, piece corruption): the run's only fault plan. It is
    /// installed into every node's [`MbtConfig`], whose own plan must be
    /// noop, and its churn component gates contact participation, query
    /// generation and Internet sessions. Default [`FaultPlan::none`], which
    /// changes nothing — a zero-rate plan is byte-identical to the
    /// fault-free path.
    pub faults: FaultPlan,
    /// Adversary: fraction of non-Internet nodes that are *polluters*,
    /// planting forged fake-publisher metadata (and junk files) that match
    /// real queries (the §I "fake files" threat). Polluters are excluded
    /// from measurement. Default 0.
    pub polluter_fraction: f64,
    /// How many of each day's files every polluter forges. Default 0.
    pub fakes_per_day: u32,
    /// Whether honest nodes install the publisher key registry and reject
    /// metadata failing authentication (§III-B item f). Default false.
    pub verify_metadata: bool,
    /// Which transport backend carries contact-phase messages. The default
    /// [`TransportKind::Sim`] moves messages in-process; [`TransportKind::Bus`]
    /// round-trips every message through its serialized wire frame (and is
    /// pinned byte-identical to `Sim` by `tests/transport_equivalence.rs`).
    pub transport: TransportKind,
}

impl SimParams {
    /// A builder seeded with the defaults — the one construction path for
    /// run parameters. Prefer this over positional construction or bare
    /// struct literals in new code: it owns the protocol, fault and
    /// transport knobs by name, so call sites stay readable as fields
    /// accrete.
    ///
    /// ```
    /// use mbt_experiments::runner::SimParams;
    /// use mbt_core::ProtocolSpec;
    ///
    /// let params = SimParams::builder()
    ///     .protocol(ProtocolSpec::POP_CACHE)
    ///     .days(7)
    ///     .seed(5)
    ///     .build();
    /// assert_eq!(params.protocol.name(), "PopCache");
    /// ```
    pub fn builder() -> SimParamsBuilder {
        SimParamsBuilder {
            params: SimParams::default(),
        }
    }
}

impl Default for SimParams {
    fn default() -> Self {
        SimParams {
            protocol: ProtocolSpec::MBT,
            config: MbtConfig::new(),
            internet_fraction: 0.3,
            files_per_day: 40,
            ttl_days: 3,
            days: 14,
            seed: 0,
            frequent_window: SimDuration::from_days(1),
            churn: 0.0,
            faults: FaultPlan::none(),
            polluter_fraction: 0.0,
            fakes_per_day: 0,
            verify_metadata: false,
            transport: TransportKind::default(),
        }
    }
}

/// Chained constructor for [`SimParams`]; obtained from
/// [`SimParams::builder`], finished with [`SimParamsBuilder::build`]. Every
/// setter mirrors the field of the same name.
#[derive(Debug, Clone, Default)]
pub struct SimParamsBuilder {
    params: SimParams,
}

impl SimParamsBuilder {
    /// Sets the protocol variant every node runs.
    pub fn protocol(mut self, protocol: ProtocolSpec) -> Self {
        self.params.protocol = protocol;
        self
    }

    /// Sets the node configuration (per-contact budgets, cooperation, …).
    pub fn config(mut self, config: MbtConfig) -> Self {
        self.params.config = config;
        self
    }

    /// Sets the fraction of nodes with Internet access, in `[0, 1]`.
    pub fn internet_fraction(mut self, fraction: f64) -> Self {
        self.params.internet_fraction = fraction;
        self
    }

    /// Sets the number of new files generated per day.
    pub fn files_per_day(mut self, files: u32) -> Self {
        self.params.files_per_day = files;
        self
    }

    /// Sets the file time-to-live in days.
    pub fn ttl_days(mut self, days: u64) -> Self {
        self.params.ttl_days = days;
        self
    }

    /// Sets the simulated horizon in days.
    pub fn days(mut self, days: u64) -> Self {
        self.params.days = days;
        self
    }

    /// Sets the master seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.params.seed = seed;
        self
    }

    /// Sets the frequent-contact detection window.
    pub fn frequent_window(mut self, window: SimDuration) -> Self {
        self.params.frequent_window = window;
        self
    }

    /// Sets the fraction of measured nodes that die mid-run.
    pub fn churn(mut self, churn: f64) -> Self {
        self.params.churn = churn;
        self
    }

    /// Sets the structured fault-injection plan.
    pub fn faults(mut self, faults: FaultPlan) -> Self {
        self.params.faults = faults;
        self
    }

    /// Sets the polluter fraction (adversarial metadata forgers).
    pub fn polluter_fraction(mut self, fraction: f64) -> Self {
        self.params.polluter_fraction = fraction;
        self
    }

    /// Sets how many of each day's files every polluter forges.
    pub fn fakes_per_day(mut self, fakes: u32) -> Self {
        self.params.fakes_per_day = fakes;
        self
    }

    /// Sets whether honest nodes authenticate publisher metadata.
    pub fn verify_metadata(mut self, verify: bool) -> Self {
        self.params.verify_metadata = verify;
        self
    }

    /// Sets the transport backend carrying contact-phase messages.
    pub fn transport(mut self, transport: TransportKind) -> Self {
        self.params.transport = transport;
        self
    }

    /// Finishes the build.
    pub fn build(self) -> SimParams {
        self.params
    }
}

/// The outcome of one simulation run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SimResult {
    /// Queries generated by measured (non-Internet-access) nodes.
    pub queries: u64,
    /// Metadata deliveries to measured nodes.
    pub metadata_delivered: u64,
    /// Complete-file deliveries to measured nodes.
    pub files_delivered: u64,
    /// Delivered metadata ÷ queries.
    pub metadata_ratio: f64,
    /// Delivered files ÷ queries.
    pub file_ratio: f64,
    /// Contacts processed.
    pub contacts: u64,
    /// Metadata broadcasts transmitted.
    pub metadata_broadcasts: u64,
    /// File broadcasts transmitted.
    pub file_broadcasts: u64,
    /// Queries stored for frequent contacts during contacts.
    pub queries_distributed: u64,
    /// Receptions dropped by injected frame loss (0 without a fault plan).
    pub frames_lost: u64,
    /// File receptions discarded by checksum verification after injected
    /// piece corruption (0 without a fault plan).
    pub corrupt_receptions: u64,
    /// Mean metadata delivery delay in hours (query → metadata arrival).
    pub mean_metadata_delay_hours: Option<f64>,
    /// Mean file delivery delay in hours (query → complete file).
    pub mean_file_delay_hours: Option<f64>,
    /// Metadata deliveries per simulated day (index = day).
    pub daily_metadata_delivered: Vec<u64>,
    /// File deliveries per simulated day (index = day).
    pub daily_files_delivered: Vec<u64>,
}

impl SimResult {
    /// Merges another run's results into this one, pooling counts: ratios
    /// are recomputed from the pooled numerators and denominators, delay
    /// means are combined weighted by their delivery counts, and the daily
    /// series are added element-wise (padding the shorter). Merging a
    /// `SimResult::default()` in either direction is an identity and the
    /// operation is commutative, both bit for bit. It is associative bit for
    /// bit on counts, ratios and daily series; the two delay means are
    /// weighted f64 means, associative only to rounding (1e-12 relative).
    /// `tests/properties.rs` holds all four laws.
    pub fn merge(&mut self, other: &SimResult) {
        self.mean_metadata_delay_hours = merge_weighted_mean(
            self.mean_metadata_delay_hours,
            self.metadata_delivered,
            other.mean_metadata_delay_hours,
            other.metadata_delivered,
        );
        self.mean_file_delay_hours = merge_weighted_mean(
            self.mean_file_delay_hours,
            self.files_delivered,
            other.mean_file_delay_hours,
            other.files_delivered,
        );
        self.queries += other.queries;
        self.metadata_delivered += other.metadata_delivered;
        self.files_delivered += other.files_delivered;
        self.contacts += other.contacts;
        self.metadata_broadcasts += other.metadata_broadcasts;
        self.file_broadcasts += other.file_broadcasts;
        self.queries_distributed += other.queries_distributed;
        self.frames_lost += other.frames_lost;
        self.corrupt_receptions += other.corrupt_receptions;
        self.metadata_ratio = pooled_ratio(self.metadata_delivered, self.queries);
        self.file_ratio = pooled_ratio(self.files_delivered, self.queries);
        add_daily(
            &mut self.daily_metadata_delivered,
            &other.daily_metadata_delivered,
        );
        add_daily(
            &mut self.daily_files_delivered,
            &other.daily_files_delivered,
        );
    }
}

fn pooled_ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

fn merge_weighted_mean(a: Option<f64>, wa: u64, b: Option<f64>, wb: u64) -> Option<f64> {
    match (a, b) {
        (None, None) => None,
        (Some(x), None) => Some(x),
        (None, Some(y)) => Some(y),
        (Some(x), Some(y)) => {
            let (wa, wb) = (wa.max(1) as f64, wb.max(1) as f64);
            Some((x * wa + y * wb) / (wa + wb))
        }
    }
}

fn add_daily(into: &mut Vec<u64>, from: &[u64]) {
    if into.len() < from.len() {
        into.resize(from.len(), 0);
    }
    for (slot, &v) in into.iter_mut().zip(from) {
        *slot += v;
    }
}

/// Runs one simulation over `source` with `params`.
///
/// `source` is any [`TraceSource`] — an in-memory
/// [`dtn_trace::ContactTrace`] or an on-disk [`dtn_trace::ShardedTrace`].
/// Peak memory is bounded by the source's streaming granularity (a single
/// shard for sharded traces), not the trace size. Sources that carry
/// precomputed pair aggregates (sharded traces written with sidecars)
/// answer the pre-simulation statistics from their manifest via
/// [`TraceSource::frequent_map`], so the contacts are decoded exactly
/// once — for the event loop; sources without aggregates fall back to a
/// separate streaming statistics pass first.
///
/// `telemetry` is an optional observability sink. `None` skips every
/// telemetry branch — the clock is never read — so the plain path pays
/// nothing for the feature. `Some` collects always-on counters (contacts,
/// hello exchanges, clique formations, frames, metadata/piece transfers,
/// bytes moved, shard loads, peak resident contacts) and wall-clock spans
/// for the trace-load, contact-processing, discovery, download and day-tick
/// phases. The [`SimResult`] is byte-identical either way — telemetry is observational only and never
/// feeds back into the simulation. Counters are a pure function of the
/// deterministic event stream; only the phase timings vary run to run.
///
/// Deterministic: the same contacts and params produce the same result,
/// whatever the backing store.
///
/// # Panics
///
/// Panics if `params.config` carries a non-noop fault plan: a run's plan is
/// [`SimParams::faults`].
pub fn run_simulation(
    source: &dyn TraceSource,
    params: &SimParams,
    mut telemetry: Option<&mut Telemetry>,
) -> SimResult {
    let freq_map = frequent_contacts(source, params.frequent_window, telemetry.as_deref_mut());
    simulate(source, params, &freq_map, telemetry)
}

/// Each node's frequent contacts (ascending; nodes with none are absent): one
/// allocation per node, shared by its row, its hellos and a sweep's cells.
pub(crate) type FrequentMap = BTreeMap<NodeId, Arc<[NodeId]>>;

/// The pre-simulation statistics of [`run_simulation`] (§VI-A): byte-identical
/// from pair aggregates or a scan, a function of `(source, window)` alone.
pub(crate) fn frequent_contacts(
    source: &dyn TraceSource,
    window: SimDuration,
    mut telemetry: Option<&mut Telemetry>,
) -> FrequentMap {
    let started = telemetry.is_some().then(Instant::now);
    let freq_map = match source.frequent_map(window) {
        Some(map) => map,
        None => {
            let mut contacts = source.stream();
            let mut scan = FrequentScan::new(window);
            for contact in &mut *contacts {
                scan.observe(&contact);
            }
            absorb_stream_stats(telemetry.as_deref_mut(), contacts.stream_stats());
            scan.finish()
        }
    };
    if let (Some(tel), Some(started)) = (telemetry, started) {
        tel.phases.add(Phase::TraceLoad, started.elapsed());
    }
    let listed = freq_map.into_iter().filter(|(_, peers)| !peers.is_empty());
    listed.map(|(id, peers)| (id, peers.into())).collect()
}

/// A run's Internet-access nodes: `params.internet_fraction` of `node_ids`,
/// rounded, drawn deterministically from `params.seed`.
pub(crate) fn internet_nodes(node_ids: &[NodeId], params: &SimParams) -> BTreeSet<NodeId> {
    let mut shuffled = node_ids.to_vec();
    let mut pick_rng: StdRng = stream(params.seed, "internet-selection");
    shuffled.shuffle(&mut pick_rng);
    let internet_count = ((node_ids.len() as f64) * params.internet_fraction).round() as usize;
    shuffled.into_iter().take(internet_count).collect()
}

/// [`run_simulation`] past the frequent-contact map.
///
/// # Panics
///
/// Panics if `params.config` carries a non-noop fault plan: only
/// [`SimParams::faults`] is re-seeded per cell and read for churn, so a plan
/// set on the config would be half obeyed.
pub(crate) fn simulate(
    source: &dyn TraceSource,
    params: &SimParams,
    freq_map: &FrequentMap,
    mut telemetry: Option<&mut Telemetry>,
) -> SimResult {
    let node_ids = source.nodes();
    let id_space = source.id_space();
    let internet = internet_nodes(&node_ids, params);

    assert!(
        params.config.faults_value().is_noop(),
        "a run's fault plan is SimParams::faults, not a plan set on SimParams::config"
    );
    // Every node's contacts roll the run's loss, truncation and corruption.
    let node_config = params.config.clone().faults(params.faults);

    // Polluters: adversarial devices among the non-Internet nodes; they
    // plant forged metadata and are excluded from measurement.
    let mut polluters: BTreeSet<NodeId> = BTreeSet::new();
    if params.polluter_fraction > 0.0 && params.fakes_per_day > 0 {
        let mut candidates: Vec<NodeId> = node_ids
            .iter()
            .copied()
            .filter(|n| !internet.contains(n))
            .collect();
        let mut pol_rng: StdRng = stream(params.seed, "polluters");
        candidates.shuffle(&mut pol_rng);
        let count = ((candidates.len() as f64) * params.polluter_fraction).round() as usize;
        polluters = candidates.into_iter().take(count).collect();
    }

    let measured: Vec<NodeId> = node_ids
        .iter()
        .copied()
        .filter(|n| !internet.contains(n) && !polluters.contains(n))
        .collect();

    // Failure injection: a churn fraction of measured nodes dies at a
    // uniform random time within the horizon.
    let horizon_secs = params.days * SECONDS_PER_DAY;
    let mut dead_after: BTreeMap<NodeId, SimTime> = BTreeMap::new();
    if params.churn > 0.0 {
        let mut churn_rng: StdRng = stream(params.seed, "churn");
        let mut candidates: Vec<NodeId> = measured.clone();
        candidates.shuffle(&mut churn_rng);
        let victims = ((candidates.len() as f64) * params.churn).round() as usize;
        for id in candidates.into_iter().take(victims) {
            let at = rand::Rng::gen_range(&mut churn_rng, 0..horizon_secs.max(1));
            dead_after.insert(id, SimTime::from_secs(at));
        }
    }

    // Fault-plan churn: temporary per-node down intervals (any node,
    // including Internet ones, can power off). Intervals are a pure function
    // of (plan seed, node), so they cost nothing to precompute here.
    let mut down: BTreeMap<NodeId, (SimTime, SimTime)> = BTreeMap::new();
    if params.faults.churn > 0.0 {
        let horizon = SimDuration::from_secs(horizon_secs);
        for &id in &node_ids {
            if let Some(interval) = params.faults.down_interval(id, horizon) {
                down.insert(id, interval);
            }
        }
    }

    // A source's node list is outside input (a shard manifest's node lines):
    // the day tick walks it in ascending order, each node once.
    let mut present = node_ids;
    present.sort_unstable();
    present.dedup();

    // One row per node, built the first time anything addresses the node
    // (honest nodes install the publisher registry when verification is on).
    let registry = params.verify_metadata.then(workload::publisher_registry);
    let mut harness = Harness {
        server: MetadataServer::new(internet.len().max(1) as u32),
        internet: internet.iter().copied().collect(),
        polluters: polluters.iter().copied().collect(),
        table: NodeTable::new(
            params.protocol,
            node_config,
            id_space,
            internet,
            polluters,
            registry,
            freq_map,
        ),
        published: BTreeMap::new(),
        books: Books {
            daily_meta: vec![0; params.days as usize],
            daily_file: vec![0; params.days as usize],
            ..Books::default()
        },
        workload: WorkloadConfig::new(params.files_per_day, params.ttl_days),
        workload_rng: stream(params.seed, "workload"),
        present,
        dead_after,
        down,
        fakes_per_day: params.fakes_per_day,
        result: SimResult::default(),
        telemetry: telemetry.as_deref_mut(),
        transport: params.transport,
        bus: BusTransport::new(),
        members: Vec::new(),
        scratch: ContactScratch::default(),
    };

    // The simulation pass: the event loop itself. A run covers
    // `[0, days × 86 400)`: the engine's horizon is inclusive, so it is the
    // run's last second, and zero days simulate nothing.
    let mut contacts = source.stream();
    if let Some(last) = horizon_secs.checked_sub(1) {
        let mut sim = StreamSimulator::new(&mut *contacts).horizon(SimTime::from_secs(last));
        for day in 0..params.days {
            sim = sim.schedule(workload::publish_time(day), day);
        }
        sim.run(&mut harness);
    }

    let Harness {
        table,
        books,
        bus,
        mut result,
        ..
    } = harness;
    result.queries = books.queries;
    result.metadata_delivered = books.metadata_delivered;
    result.files_delivered = books.files_delivered;
    result.metadata_ratio = pooled_ratio(books.metadata_delivered, books.queries);
    result.file_ratio = pooled_ratio(books.files_delivered, books.queries);
    result.mean_metadata_delay_hours = books.meta_delay.mean_hours();
    result.mean_file_delay_hours = books.file_delay.mean_hours();
    result.daily_metadata_delivered = books.daily_meta;
    result.daily_files_delivered = books.daily_file;
    if let Some(tel) = telemetry.as_deref_mut() {
        tel.counters.bus_frames_carried += bus.frames_carried();
        tel.counters.bus_bytes_on_wire += bus.bytes_on_wire();
        tel.counters.bus_frames_rebuilt += bus.frames_rebuilt();
        // A row is never dropped, so the rows built are the rows resident at
        // the end, which is the peak.
        let rows = table.nodes.len() as u64;
        tel.counters.nodes_instantiated += rows;
        tel.counters.peak_resident_nodes = tel.counters.peak_resident_nodes.max(rows);
    }
    absorb_stream_stats(telemetry, contacts.stream_stats());
    result
}

/// Sentinel in [`NodeTable::slot_of`] for a node nothing has addressed yet.
const ABSENT: u32 = u32::MAX;

/// The node population: one row per node, built the first time anything
/// addresses the node — a drawn query, a contact, an Internet session,
/// adversarial seeding — and kept to the end of the run. A node that has
/// decayed back to nothing stays where it is: its stores prune themselves in
/// O(1) until something can have expired, and dropping the row only to
/// rebuild it at the node's next contact never lowered the peak population
/// (nearly every node is addressed on the first day). Ids nothing names cost
/// one `u32` each.
struct NodeTable<'a> {
    protocol: ProtocolSpec,
    config: MbtConfig,
    internet: BTreeSet<NodeId>,
    polluters: BTreeSet<NodeId>,
    /// Publisher registry installed into honest nodes (`Some` only when the
    /// run verifies metadata).
    registry: Option<KeyRegistry>,
    freq_map: &'a FrequentMap,
    /// Node index → row, or [`ABSENT`].
    slot_of: Vec<u32>,
    /// The rows, in the order they were first addressed.
    nodes: Vec<MbtNode>,
    /// Row → whether the delivery books count the node (neither
    /// Internet-access nor polluter).
    measured: Vec<bool>,
}

impl<'a> NodeTable<'a> {
    fn new(
        protocol: ProtocolSpec,
        config: MbtConfig,
        id_space: usize,
        internet: BTreeSet<NodeId>,
        polluters: BTreeSet<NodeId>,
        registry: Option<KeyRegistry>,
        freq_map: &'a FrequentMap,
    ) -> Self {
        NodeTable {
            protocol,
            config,
            internet,
            polluters,
            registry,
            freq_map,
            slot_of: vec![ABSENT; id_space],
            nodes: Vec::new(),
            measured: Vec::new(),
        }
    }

    /// The row of `id`, if anything has addressed it.
    fn slot(&self, id: NodeId) -> Option<usize> {
        match self.slot_of.get(id.index()) {
            Some(&slot) if slot != ABSENT => Some(slot as usize),
            _ => None,
        }
    }

    /// The row of `id`, built now if this is the first time it is addressed.
    fn materialize(&mut self, id: NodeId) -> usize {
        if let Some(slot) = self.slot(id) {
            return slot;
        }
        let (internet, polluter) = (self.internet.contains(&id), self.polluters.contains(&id));
        let mut node = MbtNode::new(id, self.protocol, self.config.clone());
        node.set_internet_access(internet);
        if let Some(freq) = self.freq_map.get(&id) {
            node.set_frequent_contacts(Arc::clone(freq));
        }
        if let Some(registry) = &self.registry {
            if !polluter {
                node.set_key_registry(registry.clone());
            }
        }
        let slot = self.nodes.len();
        self.slot_of[id.index()] = slot as u32;
        self.nodes.push(node);
        self.measured.push(!internet && !polluter);
        slot
    }
}

/// Folds a contact stream's shard-load and residency facts into the
/// telemetry counters: loads accumulate, peak residency merges by maximum
/// (so it stays independent of how many passes or cells contributed).
fn absorb_stream_stats(telemetry: Option<&mut Telemetry>, stats: StreamStats) {
    if let Some(tel) = telemetry {
        tel.counters.shards_loaded += stats.shards_loaded;
        tel.counters.peak_resident_contacts = tel
            .counters
            .peak_resident_contacts
            .max(stats.peak_resident_contacts);
    }
}

/// Streaming delay accumulator: only the mean is ever reported, so keeping
/// the integer second sum and the sample count is bit-identical to keeping
/// every sample while staying O(1) at any delivery volume.
#[derive(Default)]
struct DelaySum {
    total_secs: u64,
    count: u64,
}

impl DelaySum {
    fn push_secs(&mut self, secs: u64) {
        self.total_secs += secs;
        self.count += 1;
    }

    fn mean_hours(&self) -> Option<f64> {
        if self.count == 0 {
            return None;
        }
        Some(self.total_secs as f64 / self.count as f64 / 3_600.0)
    }
}

/// A published file as the delivery books see it. Every query for it is
/// drawn at the publish instant and expires with the file, so the file's row
/// carries them and takes them with it when it expires.
struct Published {
    asked_at: SimTime,
    expires: SimTime,
    /// The measured nodes that want the file and what has reached each, in
    /// ascending node order (the order the day tick draws in).
    wants: Vec<(NodeId, Delivered)>,
}

/// What of a wanted file has reached the wanting node.
#[derive(Default)]
struct Delivered {
    metadata: bool,
    file: bool,
}

/// The delivery books' totals: the paper's metric (§VI-B) is deliveries over
/// queries among the measured nodes.
#[derive(Default)]
struct Books {
    queries: u64,
    metadata_delivered: u64,
    files_delivered: u64,
    meta_delay: DelaySum,
    file_delay: DelaySum,
    daily_meta: Vec<u64>,
    daily_file: Vec<u64>,
}

impl Books {
    /// Books the arrival of `published`'s metadata (or, with `file`, the
    /// complete file) at `node` — once, and only while the node's query for
    /// it lives.
    fn deliver(&mut self, published: &mut Published, node: NodeId, now: SimTime, file: bool) {
        let Ok(at) = published.wants.binary_search_by_key(&node, |&(id, _)| id) else {
            return;
        };
        let got = &mut published.wants[at].1;
        let seen = if file {
            &mut got.file
        } else {
            &mut got.metadata
        };
        if now >= published.expires || std::mem::replace(seen, true) {
            return;
        }
        let delay = now
            .checked_duration_since(published.asked_at)
            .map_or(0, |d| d.as_secs());
        let daily = if file {
            self.files_delivered += 1;
            self.file_delay.push_secs(delay);
            &mut self.daily_file
        } else {
            self.metadata_delivered += 1;
            self.meta_delay.push_secs(delay);
            &mut self.daily_meta
        };
        daily[now.day() as usize] += 1;
    }
}

struct Harness<'a, 'f> {
    table: NodeTable<'f>,
    server: MetadataServer,
    /// The delivery books' file table: every live published file. Node
    /// events name a file by URI; this is the one place that string is
    /// looked up.
    published: BTreeMap<Uri, Published>,
    books: Books,
    workload: WorkloadConfig,
    workload_rng: StdRng,
    /// Internet-access nodes, ascending.
    internet: Vec<NodeId>,
    /// Nodes that actually appear in the trace (others never meet anyone),
    /// ascending.
    present: Vec<NodeId>,
    /// Failure injection: instants after which a node no longer participates.
    dead_after: BTreeMap<NodeId, SimTime>,
    /// Fault-plan churn: per-node `[start, end)` down intervals during which
    /// the node neither meets anyone nor queries nor syncs.
    down: BTreeMap<NodeId, (SimTime, SimTime)>,
    /// Adversarial nodes planting forged metadata, ascending.
    polluters: Vec<NodeId>,
    /// Forgeries planted per polluter per day.
    fakes_per_day: u32,
    result: SimResult,
    /// Observability sink; `None` skips all telemetry work — clock reads
    /// included — so the plain [`run_simulation`] path pays nothing for the
    /// feature.
    telemetry: Option<&'a mut Telemetry>,
    /// Which transport backend carries contact-phase messages.
    transport: TransportKind,
    /// The bus backend, persistent across contacts so its frame counters
    /// accumulate over the run (unused under [`TransportKind::Sim`]).
    bus: BusTransport,
    /// A contact's member rows, and the contact loop's own vectors: filled
    /// and emptied by every contact, allocated once.
    members: Vec<usize>,
    scratch: ContactScratch,
}

impl Harness<'_, '_> {
    fn is_alive(&self, node: NodeId, now: SimTime) -> bool {
        self.dead_after.get(&node).is_none_or(|&at| now < at)
            && self
                .down
                .get(&node)
                .is_none_or(|&(start, end)| now < start || now >= end)
    }

    /// Drains the events of the node at row `slot` into the delivery books.
    fn drain_node_events(&mut self, slot: usize, now: SimTime) {
        let node = &mut self.table.nodes[slot];
        let id = node.id();
        for event in node.drain_events() {
            let (uri, file) = match event {
                NodeEvent::MetadataStored { uri, .. } => (uri, false),
                NodeEvent::FileCompleted { uri, .. } => (uri, true),
            };
            if let Some(published) = self.published.get_mut(&uri) {
                self.books.deliver(published, id, now, file);
            }
        }
    }

    /// The scheduled day boundary: decay, publish, draw, seed, sync.
    fn day_tick(&mut self, now: SimTime, day: u64) {
        self.server.expire(now);
        // An expired query can never be satisfied again, and every query for
        // a file expires with it: the file's row goes, wants and all, which
        // keeps the books bounded by *live* queries.
        self.published.retain(|_, file| now < file.expires);

        // Publish today's files.
        let batch = workload::generate_batch(&self.workload, day, &mut self.workload_rng);
        let expires = batch.at + self.workload.ttl();
        for f in &batch.files {
            self.server.publish(f.metadata.clone(), f.popularity);
        }
        let mut today: Vec<Published> = (batch.files.iter())
            .map(|_| Published {
                asked_at: now,
                expires,
                wants: Vec::new(),
            })
            .collect();

        // One pass over the nodes of the trace: every row decays, and every
        // alive node draws its queries for the new files. (The RNG is
        // advanced for dead nodes too, so churn does not perturb the
        // workload of survivors.) A node nothing has addressed yet gets its
        // row with its first query.
        for i in 0..self.present.len() {
            let id = self.present[i];
            let picks = workload::draw_queries(&batch, &mut self.workload_rng);
            let asks = !picks.is_empty() && self.is_alive(id, now);
            let slot = if asks {
                self.table.materialize(id)
            } else if let Some(slot) = self.table.slot(id) {
                slot
            } else {
                continue;
            };
            let node = &mut self.table.nodes[slot];
            node.prune(now);
            if !asks {
                continue;
            }
            node.add_queries(picks.iter().map(|(_, q)| (q.clone(), Some(expires))));
            if self.table.measured[slot] {
                for &(file_idx, _) in &picks {
                    self.books.queries += 1;
                    let file = &mut today[file_idx];
                    file.wants.push((id, Delivered::default()));
                    // Pushed metadata / files may already satisfy the query.
                    let uri = &batch.files[file_idx].uri;
                    if node.has_metadata(uri) {
                        self.books.deliver(file, id, now, false);
                    }
                    if node.has_file(uri) {
                        self.books.deliver(file, id, now, true);
                    }
                }
            }
        }
        for (f, row) in batch.files.iter().zip(today) {
            self.published.insert(f.uri.clone(), row);
        }

        // Polluters plant forged advertisements (and junk files) for the
        // most popular of today's releases.
        if self.fakes_per_day > 0 && !self.polluters.is_empty() {
            let mut targets: Vec<usize> = (0..batch.files.len()).collect();
            targets.sort_by(|&a, &b| {
                mbt_core::popularity::cmp_popularity(
                    batch.files[b].popularity,
                    batch.files[a].popularity,
                )
            });
            for i in 0..self.polluters.len() {
                let id = self.polluters[i];
                if !self.is_alive(id, now) {
                    continue;
                }
                let slot = self.table.materialize(id);
                for (v, &t) in targets.iter().take(self.fakes_per_day as usize).enumerate() {
                    let fake = workload::forge_fake(&batch.files[t], id.raw() * 101 + v as u32);
                    self.table.nodes[slot].seed_content(fake.metadata, fake.popularity, true);
                }
                // Ignore the seeding events; fakes never count as deliveries.
                let _ = self.table.nodes[slot].drain_events();
            }
        }

        // Internet-access nodes synchronize with the server (unless down).
        for i in 0..self.internet.len() {
            let id = self.internet[i];
            if id.index() < self.table.slot_of.len() && self.is_alive(id, now) {
                let slot = self.table.materialize(id);
                self.table.nodes[slot].internet_session(&self.server, now);
                self.drain_node_events(slot, now);
            }
        }
    }
}

impl SimHandler for Harness<'_, '_> {
    fn on_tick(&mut self, at: SimTime, day: u64) {
        let started = self.telemetry.is_some().then(Instant::now);
        self.day_tick(at, day);
        if let (Some(tel), Some(started)) = (self.telemetry.as_deref_mut(), started) {
            tel.phases.add(Phase::DayTick, started.elapsed());
        }
    }

    fn on_contact(&mut self, contact: &Contact) {
        let now = contact.start();
        // Who takes part, decided once a participant — and not at all in a
        // run where nobody dies or powers off (none without `--churn` or a
        // fault plan's churn).
        let everyone = self.dead_after.is_empty() && self.down.is_empty();
        let mut members = std::mem::take(&mut self.members);
        members.clear();
        for &id in contact.participants() {
            if everyone || self.is_alive(id, now) {
                members.push(id.index());
            }
        }
        if members.len() < 2 {
            self.members = members;
            return;
        }
        // Rows in participant order: the contact loop only indexes the slice
        // with them. A row is built only for a contact that takes place.
        for member in &mut members {
            *member = self.table.materialize(NodeId::new(*member as u32));
        }
        let started = self.telemetry.is_some().then(Instant::now);
        let mut inner = PhaseTimes::default();
        let transport: &mut dyn Transport = match self.transport {
            TransportKind::Sim => &mut SimTransport::new(),
            TransportKind::Bus => &mut self.bus,
        };
        let report = mbt_core::node::run_contact_via(
            transport,
            &mut self.table.nodes,
            &members,
            now,
            contact.duration(),
            started.is_some().then_some(&mut inner),
            &mut self.scratch,
        );
        if let (Some(tel), Some(started)) = (self.telemetry.as_deref_mut(), started) {
            tel.phases.add(Phase::ContactProcessing, started.elapsed());
            tel.phases.merge(&inner);
            let c = &mut tel.counters;
            c.contacts += 1;
            c.hello_exchanges += report.hello_exchanges as u64;
            c.clique_formations += u64::from(members.len() >= 3);
            c.frames_sent += report.frames_sent() as u64;
            c.frames_lost += report.frames_lost as u64;
            c.metadata_transferred += report.metadata_received as u64;
            c.pieces_transferred += report.pieces_received as u64;
            c.bytes_moved += report.bytes_moved;
            c.corrupt_receptions += report.corrupt_receptions as u64;
            c.wanted_cache_hits += report.wanted_cache_hits as u64;
            c.index_lookups += report.index_lookups as u64;
        }
        self.result.contacts += 1;
        self.result.metadata_broadcasts += report.metadata_broadcasts as u64;
        self.result.file_broadcasts += report.file_broadcasts as u64;
        self.result.queries_distributed += report.queries_distributed as u64;
        self.result.frames_lost += report.frames_lost as u64;
        self.result.corrupt_receptions += report.corrupt_receptions as u64;
        // A node event is a record or a file arriving; a contact that
        // delivered neither leaves its members' rows alone.
        if report.metadata_received > 0 || report.file_broadcasts > 0 {
            for &slot in &members {
                self.drain_node_events(slot, now);
            }
        }
        self.members = members;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dtn_trace::generators::NusConfig;
    use dtn_trace::ContactTrace;

    fn small_trace() -> ContactTrace {
        NusConfig::new(30, 7).seed(11).generate()
    }

    fn params(protocol: ProtocolSpec) -> SimParams {
        SimParams::builder()
            .protocol(protocol)
            .files_per_day(10)
            .days(7)
            .internet_fraction(0.3)
            .seed(5)
            .build()
    }

    #[test]
    fn the_wants_vector_books_deliveries_like_the_map_it_replaced() {
        let at = SimTime::from_secs;
        // Nodes 2, 3 and 5 drew nothing, were dead or are not measured: the
        // draw loop passed over them mid-order, and they get no entry.
        let wanting = [1, 4, 9].map(NodeId::new);
        let mut published = Published {
            asked_at: at(100),
            expires: at(1_000),
            wants: wanting.map(|id| (id, Delivered::default())).into(),
        };
        // The books this replaced: (file, node) → (metadata, file) seen.
        let mut oracle: BTreeMap<(u32, NodeId), (bool, bool)> = wanting
            .iter()
            .map(|&id| ((0, id), (false, false)))
            .collect();
        let mut books = Books {
            daily_meta: vec![0; 1],
            daily_file: vec![0; 1],
            ..Books::default()
        };
        let (mut metadata, mut files, mut delays) = (0, 0, 0);
        for (node, when, file) in [
            (4, 200, false),
            (4, 300, false), // a second copy is not a second delivery
            (2, 300, true),  // skipped mid-order
            (9, 400, true),  // a file before its metadata
            (9, 400, false),
            (0, 500, true),  // below the first entry
            (10, 500, true), // above the last
            (5, 500, false),
            (1, 1_000, false), // the query expired with the file
            (1, 999, true),
        ] {
            let id = NodeId::new(node);
            let counted = match oracle.get_mut(&(0, id)) {
                Some(got) if when < 1_000 => {
                    let seen = if file { &mut got.1 } else { &mut got.0 };
                    !std::mem::replace(seen, true)
                }
                _ => false,
            };
            if counted {
                *(if file { &mut files } else { &mut metadata }) += 1;
                delays += when - 100;
            }
            books.deliver(&mut published, id, at(when), file);
            assert_eq!(
                (books.metadata_delivered, books.files_delivered),
                (metadata, files),
                "after node {node} at {when}"
            );
        }
        assert_eq!((metadata, files), (2, 2));
        assert_eq!(
            books.meta_delay.total_secs + books.file_delay.total_secs,
            delays
        );
        assert_eq!((books.daily_meta[0], books.daily_file[0]), (2, 2));
        let seen: Vec<(bool, bool)> = (published.wants.iter())
            .map(|(_, got)| (got.metadata, got.file))
            .collect();
        assert_eq!(seen, oracle.into_values().collect::<Vec<_>>());
    }

    #[test]
    fn simulation_is_deterministic() {
        let trace = small_trace();
        let a = run_simulation(&trace, &params(ProtocolSpec::MBT), None);
        let b = run_simulation(&trace, &params(ProtocolSpec::MBT), None);
        assert_eq!(a, b);
    }

    #[test]
    fn queries_are_generated_and_some_delivered() {
        let trace = small_trace();
        let r = run_simulation(&trace, &params(ProtocolSpec::MBT), None);
        assert!(r.queries > 0, "no queries generated");
        assert!(r.contacts > 0, "no contacts processed");
        assert!(r.metadata_delivered > 0, "nothing discovered");
        assert!(r.files_delivered > 0, "nothing downloaded");
        assert!(
            r.metadata_ratio >= r.file_ratio,
            "files need metadata first"
        );
    }

    #[test]
    fn every_builtin_variant_runs_end_to_end() {
        let trace = small_trace();
        for spec in ProtocolSpec::builtin() {
            let r = run_simulation(&trace, &params(spec), None);
            assert!(r.queries > 0, "{spec}: no queries generated");
            assert!(r.metadata_delivered > 0, "{spec}: nothing discovered");
        }
    }

    #[test]
    fn mbtqm_sends_no_standalone_metadata() {
        let trace = small_trace();
        let r = run_simulation(&trace, &params(ProtocolSpec::MBT_QM), None);
        assert_eq!(r.metadata_broadcasts, 0);
        assert_eq!(r.queries_distributed, 0);
    }

    #[test]
    fn mbtq_distributes_no_queries() {
        let trace = small_trace();
        let r = run_simulation(&trace, &params(ProtocolSpec::MBT_Q), None);
        assert_eq!(r.queries_distributed, 0);
        assert!(r.metadata_broadcasts > 0);
    }

    #[test]
    fn zero_internet_fraction_delivers_nothing() {
        let trace = small_trace();
        let mut p = params(ProtocolSpec::MBT);
        p.internet_fraction = 0.0;
        let r = run_simulation(&trace, &p, None);
        assert_eq!(r.files_delivered, 0, "no source of files at all");
    }

    #[test]
    fn full_internet_fraction_measures_nobody() {
        let trace = small_trace();
        let mut p = params(ProtocolSpec::MBT);
        p.internet_fraction = 1.0;
        let r = run_simulation(&trace, &p, None);
        assert_eq!(r.queries, 0, "every node is an unmeasured Internet node");
    }

    #[test]
    fn daily_series_sum_to_totals() {
        let trace = small_trace();
        let r = run_simulation(&trace, &params(ProtocolSpec::MBT), None);
        assert_eq!(r.daily_metadata_delivered.len(), 7);
        assert_eq!(
            r.daily_metadata_delivered.iter().sum::<u64>(),
            r.metadata_delivered
        );
        assert_eq!(
            r.daily_files_delivered.iter().sum::<u64>(),
            r.files_delivered
        );
    }

    #[test]
    fn delays_reported_when_deliveries_happen() {
        let trace = small_trace();
        let r = run_simulation(&trace, &params(ProtocolSpec::MBT), None);
        assert!(r.metadata_delivered == 0 || r.mean_metadata_delay_hours.is_some());
        if let Some(d) = r.mean_file_delay_hours {
            assert!(d >= 0.0);
        }
    }

    #[test]
    fn noop_fault_plan_is_byte_identical_to_no_plan() {
        let trace = small_trace();
        let clean = run_simulation(&trace, &params(ProtocolSpec::MBT), None);
        let mut p = params(ProtocolSpec::MBT);
        p.faults = FaultPlan::none().seed(123); // seed alone must change nothing
        let seeded = run_simulation(&trace, &p, None);
        assert_eq!(clean, seeded);
        assert_eq!(clean.frames_lost, 0);
        assert_eq!(clean.corrupt_receptions, 0);
    }

    #[test]
    #[should_panic(expected = "a run's fault plan is SimParams::faults")]
    fn a_fault_plan_on_the_node_config_is_refused() {
        let mut p = params(ProtocolSpec::MBT);
        p.config = p.config.faults(FaultPlan::none().churn(0.5));
        run_simulation(&small_trace(), &p, None);
    }

    #[test]
    fn total_loss_plan_delivers_nothing_to_measured_nodes() {
        let trace = small_trace();
        let mut p = params(ProtocolSpec::MBT);
        p.faults = FaultPlan::none().loss(1.0);
        let r = run_simulation(&trace, &p, None);
        assert!(r.queries > 0);
        assert_eq!(r.metadata_delivered, 0, "peers are the only metadata path");
        assert_eq!(r.files_delivered, 0, "peers are the only file path");
        assert!(r.frames_lost > 0, "losses should be counted");
    }

    #[test]
    fn corruption_discards_receptions_and_is_recoverable() {
        let trace = small_trace();
        let clean = run_simulation(&trace, &params(ProtocolSpec::MBT), None);
        let mut p = params(ProtocolSpec::MBT);
        p.faults = FaultPlan::none().corruption(0.5).seed(7);
        let r = run_simulation(&trace, &p, None);
        assert!(r.corrupt_receptions > 0, "corruption should trigger");
        assert!(r.files_delivered > 0, "re-fetching still completes files");
        assert!(
            r.files_delivered <= clean.files_delivered,
            "corruption must not create deliveries"
        );
    }

    #[test]
    fn plan_churn_reduces_contact_participation() {
        // Pairwise trace: one down participant cancels the whole contact.
        let trace = dtn_trace::generators::DieselNetConfig::new(16, 7)
            .seed(11)
            .generate();
        let clean = run_simulation(&trace, &params(ProtocolSpec::MBT), None);
        let mut p = params(ProtocolSpec::MBT);
        p.faults = FaultPlan::none().churn(1.0).seed(3);
        let churned = run_simulation(&trace, &p, None);
        assert!(
            churned.contacts < clean.contacts,
            "every node down for a while must cancel some contacts ({} vs {})",
            churned.contacts,
            clean.contacts
        );
    }

    #[test]
    fn more_internet_nodes_deliver_more() {
        let trace = small_trace();
        let mut lo = params(ProtocolSpec::MBT);
        lo.internet_fraction = 0.1;
        let mut hi = params(ProtocolSpec::MBT);
        hi.internet_fraction = 0.7;
        let r_lo = run_simulation(&trace, &lo, None);
        let r_hi = run_simulation(&trace, &hi, None);
        assert!(
            r_hi.file_ratio >= r_lo.file_ratio,
            "hi {} < lo {}",
            r_hi.file_ratio,
            r_lo.file_ratio
        );
    }
}
