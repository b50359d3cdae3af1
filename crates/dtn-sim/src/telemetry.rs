//! Always-on observability: cheap event counters and per-phase wall-clock
//! spans.
//!
//! [`Counters`] is the one type that counts what a run does — contacts
//! processed, hello exchanges, clique formations, broadcasts and frames sent
//! and lost, metadata and file pieces transferred, bytes moved, the bus's
//! frames: a contact returns one, a run merges them, and the bus keeps its
//! own in one. [`PhaseTimes`] keeps wall-clock time per [`Phase`], and
//! [`Telemetry`] bundles both for aggregation up the stack (per simulation
//! run, then per sweep cell, merged in grid order by the experiment
//! executor).
//!
//! # Determinism contract
//!
//! Counters are pure functions of the simulation's deterministic event
//! stream: two runs with the same trace, parameters, and seed produce
//! **byte-identical counter totals**, regardless of thread count, because
//! per-cell counters merge in grid order (and the merge operations — `u64`
//! addition for totals, maximum for peaks — are commutative and associative
//! besides). Wall-clock spans are observational only — they are never fed
//! back into simulation state, so enabling telemetry cannot perturb
//! simulation output. `tests/parallel_determinism.rs` pins both properties.
//!
//! # Example
//!
//! ```
//! use dtn_sim::telemetry::{Counters, Phase, Telemetry};
//!
//! let mut total = Telemetry::default();
//! let mut cell = Telemetry::default();
//! cell.counters.contacts = 3;
//! cell.counters.frames_sent = 7;
//! total.merge(&cell);
//! total.merge(&cell);
//! assert_eq!(total.counters.contacts, 6);
//! assert_eq!(total.counters.frames_sent, 14);
//! assert_eq!(total.phases.get(Phase::Discovery).as_nanos(), 0);
//! ```

use std::time::{Duration, Instant};

/// Declares [`Counters`] from one table — `doc, field: sum | max` per
/// counter — so the struct, [`Counters::merge`] and [`Counters::entries`]
/// cannot disagree about which counters exist, in what order, or how each
/// one merges.
macro_rules! counters {
    (@merge sum, $a:expr, $b:expr) => { $a += $b };
    (@merge max, $a:expr, $b:expr) => { $a = $a.max($b) };
    ($( $(#[$doc:meta])* $field:ident: $merge:ident, )*) => {
        /// Deterministic event counters accumulated by a simulation run.
        ///
        /// Every field counts events of the deterministic simulation itself,
        /// so the totals are reproducible bit-for-bit (see the module docs).
        /// All counts are contact-level unless noted; Internet
        /// synchronisation sessions are not metered here.
        #[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
        pub struct Counters {
            $( $(#[$doc])* pub $field: u64, )*
        }

        impl Counters {
            const COUNT: usize = [$(stringify!($field)),*].len();

            /// `(name, merge rule)` per counter, in [`Counters::entries`]
            /// order; the rule is `"sum"` or `"max"`.
            #[cfg(test)]
            const MERGE_RULES: [(&'static str, &'static str); Counters::COUNT] =
                [$((stringify!($field), stringify!($merge))),*];

            /// Merges another counter set into this one, each counter by
            /// its rule in the table: totals add, peaks take the maximum.
            pub fn merge(&mut self, other: &Counters) {
                $( counters!(@merge $merge, self.$field, other.$field); )*
            }

            /// Every counter as a `(name, value)` pair, in a fixed rendering
            /// order. The names double as the keys of the perf-report JSON.
            pub fn entries(&self) -> [(&'static str, u64); Counters::COUNT] {
                [$((stringify!($field), self.$field)),*]
            }
        }
    };
}

counters! {
    /// Contacts processed (at least two alive participants).
    contacts: sum,
    /// Hello beacons exchanged: one per member whose hello reached the
    /// clique coordinator (the coordinator's own included).
    hello_exchanges: sum,
    /// Contacts that formed a clique of three or more participants.
    clique_formations: sum,
    /// Broadcast frames transmitted: one per metadata and file broadcast.
    frames_sent: sum,
    /// Metadata broadcasts transmitted.
    metadata_broadcasts: sum,
    /// File broadcasts transmitted.
    file_broadcasts: sum,
    /// Queries newly stored for frequent contacts.
    queries_distributed: sum,
    /// Receptions dropped by injected frame loss.
    frames_lost: sum,
    /// Metadata records successfully received and stored (non-duplicate),
    /// including metadata riding along with file broadcasts.
    metadata_transferred: sum,
    /// File pieces successfully received as part of completed file
    /// broadcasts.
    pieces_transferred: sum,
    /// Application bytes successfully moved: metadata wire bytes plus file
    /// content bytes, counted per reception.
    bytes_moved: sum,
    /// File receptions discarded by checksum verification after injected
    /// piece corruption.
    corrupt_receptions: sum,
    /// A structural zero: nothing charges it, since no node memoizes its
    /// wanted set. The field stays because the perf-report keys and the
    /// benchmark's `node.discovery.wanted_cache_hits` layer read it by name;
    /// it goes with ledger v2a-0.
    wanted_cache_hits: sum,
    /// A structural zero, like [`Counters::wanted_cache_hits`]: it priced
    /// per-store index probes, and no store keeps an index. Read by the
    /// perf-report keys and the benchmark's `node.discovery.index_lookups`
    /// layer; it goes with ledger v2a-0.
    index_lookups: sum,
    /// On-disk trace shards loaded by streaming replay. Zero for fully
    /// in-memory runs. Additive on merge: total shard loads across all
    /// streaming passes.
    shards_loaded: sum,
    /// Peak number of trace contacts resident in memory at once across the
    /// runs merged so far. Merges by **maximum**, not addition — residency
    /// is concurrent state, so the sweep-wide figure is the worst single
    /// run, which keeps the value independent of `--jobs` and cell count.
    peak_resident_contacts: max,
    /// Node states built by the runner's node table: one per node, the
    /// first time anything addresses it — a drawn query, a contact, an
    /// Internet session, seeded content. Additive on merge.
    nodes_instantiated: sum,
    /// Peak number of node states resident at once. A row is never dropped,
    /// so within one run this equals
    /// [`Counters::nodes_instantiated`]. Merges by **maximum**, like
    /// [`Counters::peak_resident_contacts`].
    peak_resident_nodes: max,
    /// A structural zero: the runner evicts nothing (a node is built once),
    /// so there is no residue of evicted nodes to hold. The field stays
    /// because the perf-report keys and the benchmark's `residue.peak_nodes`
    /// layer are read by name. Merges by **maximum**.
    peak_residue_nodes: max,
    /// A structural zero, like [`Counters::peak_residue_nodes`]: the
    /// estimated peak bytes of that store. Merges by **maximum**.
    residue_bytes_est: max,
    /// Frames the bus transport carried — encoded and checked as what was
    /// sent: hellos, query shares, metadata and file broadcasts alike.
    /// Zero under the in-process simulator transport.
    bus_frames_carried: sum,
    /// Encoded bytes the bus transport moved across links, headers
    /// included. Zero under the in-process simulator transport.
    bus_bytes_on_wire: sum,
    /// Frames the bus transport dropped because the frame check failed or
    /// found a field that differs from what was sent. Faults are rolled by
    /// the node, not the bus, so this is zero unless the codec is broken,
    /// and under the simulator transport.
    bus_frames_dropped: sum,
}

impl Counters {
    /// True if every counter is zero (the state of a fresh accumulator).
    pub fn is_zero(&self) -> bool {
        *self == Counters::default()
    }
}

/// The phases the observability layer times.
///
/// `Discovery` and `Download` are sub-spans of `ContactProcessing` (they
/// time the metadata and file broadcast phases inside each contact), so the
/// spans do not sum to wall-clock time; report them individually.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Phase {
    /// Loading or generating the contact trace.
    TraceLoad,
    /// Processing contacts end to end (includes the two sub-spans below).
    ContactProcessing,
    /// The metadata broadcast (discovery) phase within contacts.
    Discovery,
    /// The file broadcast (download) phase within contacts.
    Download,
    /// Merging per-cell results in grid order.
    Reduction,
    /// The runner's scheduled day boundary: expiry of the server and the
    /// delivery books, publishing, the one pass over the nodes that decays
    /// each row and draws its queries, and Internet sessions.
    DayTick,
}

impl Phase {
    /// Every phase, in rendering order.
    pub const ALL: [Phase; 6] = [
        Phase::TraceLoad,
        Phase::ContactProcessing,
        Phase::Discovery,
        Phase::Download,
        Phase::Reduction,
        Phase::DayTick,
    ];

    /// Number of phases.
    pub const COUNT: usize = Phase::ALL.len();

    /// Stable snake_case name (doubles as the perf-report JSON key).
    pub fn name(self) -> &'static str {
        match self {
            Phase::TraceLoad => "trace_load",
            Phase::ContactProcessing => "contact_processing",
            Phase::Discovery => "discovery",
            Phase::Download => "download",
            Phase::Reduction => "reduction",
            Phase::DayTick => "day_tick",
        }
    }

    fn index(self) -> usize {
        match self {
            Phase::TraceLoad => 0,
            Phase::ContactProcessing => 1,
            Phase::Discovery => 2,
            Phase::Download => 3,
            Phase::Reduction => 4,
            Phase::DayTick => 5,
        }
    }
}

/// Wall-clock time accumulated per [`Phase`].
///
/// Timings are observational: they never feed back into simulation state,
/// and they are kept out of every determinism-checked structure (two
/// identical runs report identical counters but different spans).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PhaseTimes {
    spans: [Duration; Phase::COUNT],
}

impl PhaseTimes {
    /// Accumulated time in `phase`.
    pub fn get(&self, phase: Phase) -> Duration {
        self.spans[phase.index()]
    }

    /// Adds `elapsed` to `phase`.
    pub fn add(&mut self, phase: Phase, elapsed: Duration) {
        self.spans[phase.index()] += elapsed;
    }

    /// Adds another span set into this one, phase by phase.
    pub fn merge(&mut self, other: &PhaseTimes) {
        for (slot, span) in self.spans.iter_mut().zip(&other.spans) {
            *slot += *span;
        }
    }

    /// Times `f`, charging its wall-clock duration to `phase`.
    pub fn time<R>(&mut self, phase: Phase, f: impl FnOnce() -> R) -> R {
        let start = Instant::now();
        let out = f();
        self.add(phase, start.elapsed());
        out
    }
}

/// Counters plus phase spans: the unit of aggregation the experiment
/// executor merges per sweep cell, in grid order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Telemetry {
    /// Deterministic event counters.
    pub counters: Counters,
    /// Observational wall-clock spans.
    pub phases: PhaseTimes,
}

impl Telemetry {
    /// Merges another telemetry record into this one (counters add, spans
    /// add).
    pub fn merge(&mut self, other: &Telemetry) {
        self.counters.merge(&other.counters);
        self.phases.merge(&other.phases);
    }

    /// Renders `wall_secs`, every phase span and every counter as a JSON
    /// object — what `mbt simulate --perf-report` writes. Keys are the
    /// static [`Phase::name`]s and [`Counters::entries`] names and every
    /// value is a number, so nothing needs escaping.
    ///
    /// # Example
    ///
    /// ```
    /// use std::time::Duration;
    /// use dtn_sim::telemetry::Telemetry;
    ///
    /// let mut t = Telemetry::default();
    /// t.counters.contacts = 3;
    /// let json = t.to_json(Duration::from_millis(1500));
    /// assert!(json.starts_with("{\n  \"wall_secs\": 1.500000,\n  \"phases\": {\n"));
    /// assert!(json.contains("    \"contacts\": 3,\n"));
    /// assert!(json.ends_with("    \"bus_frames_dropped\": 0\n  }\n}\n"));
    /// assert_eq!(json.matches("\n    \"").count(), 6 + 23, "six phases, 23 counters");
    /// ```
    pub fn to_json(&self, wall: Duration) -> String {
        let secs = |d: Duration| format!("{:.6}", d.as_secs_f64());
        let object = |rows: &[(&str, String)]| {
            let rows: Vec<String> = rows
                .iter()
                .map(|(key, value)| format!("    \"{key}\": {value}"))
                .collect();
            rows.join(",\n")
        };
        let phases = Phase::ALL.map(|p| (p.name(), secs(self.phases.get(p))));
        let counters = self.counters.entries().map(|(k, v)| (k, v.to_string()));
        format!(
            "{{\n  \"wall_secs\": {},\n  \"phases\": {{\n{}\n  }},\n  \"counters\": {{\n{}\n  }}\n}}\n",
            secs(wall),
            object(&phases),
            object(&counters)
        )
    }
}

/// `count / elapsed` in events per second, guarded against empty inputs: a
/// zero or sub-nanosecond elapsed time (e.g. an empty sweep that processed
/// zero cells) yields `0.0` rather than `NaN` or infinity — the
/// `RatioSummary`-style guard, so empty sweeps still emit valid reports.
///
/// # Example
///
/// ```
/// use std::time::Duration;
/// assert_eq!(dtn_sim::telemetry::rate_per_sec(0, Duration::ZERO), 0.0);
/// assert_eq!(dtn_sim::telemetry::rate_per_sec(10, Duration::ZERO), 0.0);
/// assert_eq!(dtn_sim::telemetry::rate_per_sec(10, Duration::from_secs(2)), 5.0);
/// ```
pub fn rate_per_sec(count: u64, elapsed: Duration) -> f64 {
    let secs = elapsed.as_secs_f64();
    if secs <= 0.0 || !secs.is_finite() {
        return 0.0;
    }
    let rate = count as f64 / secs;
    if rate.is_finite() {
        rate
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn distinct_counters() -> Counters {
        Counters {
            contacts: 1,
            hello_exchanges: 2,
            clique_formations: 3,
            frames_sent: 4,
            metadata_broadcasts: 21,
            file_broadcasts: 22,
            queries_distributed: 23,
            frames_lost: 5,
            metadata_transferred: 6,
            pieces_transferred: 7,
            bytes_moved: 8,
            corrupt_receptions: 9,
            wanted_cache_hits: 10,
            index_lookups: 11,
            shards_loaded: 12,
            peak_resident_contacts: 13,
            nodes_instantiated: 14,
            peak_resident_nodes: 15,
            peak_residue_nodes: 16,
            residue_bytes_est: 17,
            bus_frames_carried: 18,
            bus_bytes_on_wire: 19,
            bus_frames_dropped: 24,
        }
    }

    #[test]
    fn merge_adds_every_counter_except_peak_which_maxes() {
        let mut a = distinct_counters();
        let b = a;
        a.merge(&b);
        for (((name, merged), (_, original)), (rule_name, rule)) in a
            .entries()
            .iter()
            .zip(b.entries())
            .zip(Counters::MERGE_RULES)
        {
            assert_eq!(
                *name, rule_name,
                "entries() and the table disagree on order"
            );
            match rule {
                "max" => assert_eq!(*merged, original, "{name} merges by max, not addition"),
                _ => assert_eq!(*merged, original * 2, "{name} should add on merge"),
            }
        }
    }

    #[test]
    fn peak_resident_takes_maximum_either_direction() {
        let mut small = Counters {
            peak_resident_contacts: 10,
            ..Counters::default()
        };
        let large = Counters {
            peak_resident_contacts: 500,
            ..Counters::default()
        };
        small.merge(&large);
        assert_eq!(small.peak_resident_contacts, 500);
        let mut large = large;
        large.merge(&Counters {
            peak_resident_contacts: 10,
            ..Counters::default()
        });
        assert_eq!(large.peak_resident_contacts, 500);
    }

    #[test]
    fn merge_with_default_is_identity() {
        let mut a = Counters {
            contacts: 3,
            frames_sent: 11,
            ..Counters::default()
        };
        let before = a;
        a.merge(&Counters::default());
        assert_eq!(a, before);
        assert!(!a.is_zero());
        assert!(Counters::default().is_zero());
    }

    #[test]
    fn phase_times_accumulate_and_merge() {
        let mut a = PhaseTimes::default();
        a.add(Phase::Discovery, Duration::from_millis(5));
        a.add(Phase::Discovery, Duration::from_millis(7));
        assert_eq!(a.get(Phase::Discovery), Duration::from_millis(12));
        assert_eq!(a.get(Phase::Download), Duration::ZERO);
        let mut b = PhaseTimes::default();
        b.add(Phase::Download, Duration::from_millis(3));
        b.merge(&a);
        assert_eq!(b.get(Phase::Discovery), Duration::from_millis(12));
        assert_eq!(b.get(Phase::Download), Duration::from_millis(3));
    }

    #[test]
    fn time_charges_the_right_phase_and_returns_the_value() {
        let mut t = PhaseTimes::default();
        let out = t.time(Phase::Reduction, || 41 + 1);
        assert_eq!(out, 42);
        assert_eq!(t.get(Phase::TraceLoad), Duration::ZERO);
        // The span is non-negative by construction; it may round to zero on
        // a coarse clock, so only the untouched phases are asserted exactly.
    }

    #[test]
    fn rate_guards_empty_and_degenerate_inputs() {
        assert_eq!(rate_per_sec(0, Duration::ZERO), 0.0);
        assert_eq!(rate_per_sec(100, Duration::ZERO), 0.0);
        let r = rate_per_sec(100, Duration::from_millis(500));
        assert!((r - 200.0).abs() < 1e-9);
        assert!(rate_per_sec(u64::MAX, Duration::from_nanos(1)).is_finite());
    }

    #[test]
    fn telemetry_merge_covers_both_halves() {
        let mut cell = Telemetry::default();
        cell.counters.contacts = 2;
        cell.phases
            .add(Phase::ContactProcessing, Duration::from_millis(4));
        let mut total = Telemetry::default();
        total.merge(&cell);
        total.merge(&cell);
        assert_eq!(total.counters.contacts, 4);
        assert_eq!(
            total.phases.get(Phase::ContactProcessing),
            Duration::from_millis(8)
        );
    }
}
