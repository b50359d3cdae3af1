//! The production node beside the reference MBT of
//! `support/reference_mbt.rs`, which is written from the paper, not from
//! `node.rs`.
//!
//! - **P1, contact level**: one seeded script — own queries, frequent sets,
//!   records seeded with and without their files, bare files, a member with
//!   the publisher registry, a forged record, differing records under one
//!   URI, and sometimes a member holding fresh allocations of the same URI
//!   texts — goes to an `MbtNode` clique and to a reference clique alike,
//!   and 1–3 contacts of shuffled member subsets follow. After each, the
//!   report and every member's records, files, own queries, credits, known
//!   popularities, wanted set and events must agree. 500 cases a variant,
//!   a quarter under each cooperation mode × `discovery_first`; a
//!   cooperative case orders rarest-first or two-phase, one in two.
//! - **P2, whole run**: a small NUS, DieselNet or community trace (≤ 8
//!   nodes, ≤ 200 contacts) through `run_simulation` and through the
//!   reference's own day tick, contact loop and delivery books: every
//!   `SimResult` field and the contact-level counters must agree. 200 cases a
//!   variant, half under each cooperation mode, cooperative ones drawing
//!   their ordering as P1 does.
//!
//! A contact and a run are compared as `Counters`, less what the reference
//! does not count: `wanted_cache_hits` and `index_lookups`, whose docs call
//! them arithmetic charges of retired implementations, and what the runner
//! counts of its trace and node table (`contact_level`).

#[path = "support/reference_mbt.rs"]
mod reference_mbt;

use dtn_sim::rng::derive_seed;
use dtn_sim::telemetry::{Counters, Telemetry};
use dtn_trace::generators::{CommunityConfig, DieselNetConfig, NusConfig};
use dtn_trace::{ContactTrace, NodeId, SimDuration, SimTime, SECONDS_PER_DAY};
use mbt_core::node::run_contact;
use mbt_core::Uri;
use mbt_core::{
    BroadcastOrdering, CooperationMode, MbtConfig, MbtNode, Metadata, Popularity, ProtocolSpec,
    Query,
};
use mbt_experiments::runner::{run_simulation, SimParams, SimResult};
use mbt_experiments::workload::{self, DailyBatch, WorkloadConfig};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

use reference_mbt::{ReferenceNode, RunOutcome, RunSpec};

const P1_CASES: u64 = 500;
const P2_CASES: u64 = 200;

const HOUR: u64 = 3_600;

/// Words of the unsigned variant records, and of queries beside the
/// generated files' own tokens.
const VOCABULARY: [&str; 7] = ["fox", "news", "late", "show", "daily", "night", "release"];

fn rng_for(variant: usize, case: u64, property: u64) -> StdRng {
    StdRng::seed_from_u64(derive_seed(&[property, variant as u64, case]))
}

fn words(rng: &mut StdRng, extra: &[String]) -> String {
    let picked: Vec<String> = (0..rng.gen_range(1..=3))
        .map(|_| {
            if rng.gen_bool(0.1) {
                "zebra".to_string()
            } else if !extra.is_empty() && rng.gen_bool(0.4) {
                extra[rng.gen_range(0..extra.len())].clone()
            } else {
                VOCABULARY[rng.gen_range(0..VOCABULARY.len())].to_string()
            }
        })
        .collect();
    picked.join(" ")
}

fn at(secs: u64) -> SimTime {
    SimTime::from_secs(secs)
}

/// A lifetime ending somewhere in the script's three days, or none.
fn lifetime(rng: &mut StdRng) -> Option<SimTime> {
    rng.gen_bool(0.6)
        .then(|| at(rng.gen_range(13 * HOUR..3 * SECONDS_PER_DAY + 12 * HOUR)))
}

/// A popularity in quarters, so that ties occur.
fn popularity(rng: &mut StdRng) -> Popularity {
    Popularity::new(f64::from(rng.gen_range(0..=4u8)) / 4.0)
}

/// How a case's records are built, so that a member can be given fresh
/// allocations of the same texts.
struct Recipe {
    batch_seed: u64,
    files: u32,
    ttl_days: u64,
    /// Per URI: the unsigned variant's name and lifetime.
    variants: Vec<(String, Option<SimTime>)>,
}

impl Recipe {
    /// The day's signed releases; every call allocates anew.
    fn batch(&self) -> DailyBatch {
        let config = WorkloadConfig::new(self.files, self.ttl_days);
        let rng = &mut StdRng::seed_from_u64(self.batch_seed);
        workload::generate_batch(&config, 0, rng)
    }

    /// Per URI, the publisher-signed record and an unsigned variant under
    /// the same URI; every call allocates anew.
    fn records(&self) -> Vec<[Metadata; 2]> {
        let batch = self.batch();
        (batch.files.iter().zip(&self.variants))
            .map(|(f, (name, expires))| {
                let variant =
                    Metadata::builder(name.as_str(), f.metadata.publisher(), f.uri.clone())
                        .created(f.metadata.created())
                        .expires_at(*expires)
                        .build();
                [f.metadata.clone(), variant]
            })
            .collect()
    }

    fn fake(&self) -> Metadata {
        workload::forge_fake(&self.batch().files[0], 7).metadata
    }
}

enum Op {
    Query(usize, Query, Option<SimTime>),
    Frequent(usize, Vec<NodeId>),
    Seed(usize, Metadata, Popularity, bool),
    StoreFile(usize, Uri, Option<SimTime>),
    Registry(usize),
    Contact(Vec<usize>, SimTime, SimDuration),
}

/// The production clique and the reference clique, fed the same script.
struct Cliques {
    nodes: Vec<MbtNode>,
    reference: Vec<ReferenceNode>,
}

impl Cliques {
    fn new(n: usize, protocol: ProtocolSpec, config: &MbtConfig) -> Self {
        let ids = (0..n as u32).map(NodeId::new);
        Cliques {
            nodes: ids
                .clone()
                .map(|id| MbtNode::new(id, protocol, config.clone()))
                .collect(),
            reference: ids
                .map(|id| ReferenceNode::new(id, protocol, config.clone()))
                .collect(),
        }
    }

    fn apply(&mut self, op: Op, case: &str) {
        match op {
            Op::Query(i, q, e) => {
                self.nodes[i].add_query(q.clone(), e);
                self.reference[i].add_query(q, e);
            }
            Op::Frequent(i, peers) => {
                self.nodes[i].set_frequent_contacts(peers.clone());
                self.reference[i].set_frequent(&peers);
            }
            Op::Seed(i, m, p, with_file) => {
                self.nodes[i].seed_content(m.clone(), p, with_file);
                self.reference[i].seed(m, p, with_file);
            }
            Op::StoreFile(i, uri, e) => {
                let stored = self.nodes[i].try_store_file(uri.clone(), e);
                assert_eq!(stored, self.reference[i].store_file(uri, e), "{case}");
            }
            Op::Registry(i) => {
                self.nodes[i].set_key_registry(workload::publisher_registry());
                self.reference[i].registry = Some(workload::publisher_registry());
            }
            Op::Contact(members, now, duration) => {
                let counters = run_contact(&mut self.nodes, &members, now, duration);
                let expected = reference_mbt::contact(&mut self.reference, &members, now, duration);
                let case = format!("{case}, contact {members:?} at {now}");
                assert_eq!(contact_level(&counters), expected, "{case}: counters");
                self.assert_same(&case);
            }
        }
    }

    fn assert_same(&mut self, case: &str) {
        for (n, r) in self.nodes.iter_mut().zip(&mut self.reference) {
            let who = format!("{case}, node {}", n.id());
            // The stores yield in their map order; the reference's maps are
            // URI-ordered.
            let mut records: Vec<&Metadata> = n.metadata().iter().collect();
            records.sort_by(|a, b| a.uri().cmp(b.uri()));
            assert_eq!(
                records,
                r.records.values().collect::<Vec<_>>(),
                "{who}: records"
            );
            let mut files: Vec<&Uri> = n.files().iter().collect();
            files.sort();
            assert_eq!(files, r.files.keys().collect::<Vec<_>>(), "{who}: files");
            let own: Vec<Query> = r.own.iter().map(|(q, _)| q.clone()).collect();
            assert_eq!(n.own_queries(), own, "{who}: own queries");
            let credits: Vec<(NodeId, f64)> = r.credits.iter().map(|(&p, &c)| (p, c)).collect();
            assert_eq!(
                n.credits().entries().collect::<Vec<_>>(),
                credits,
                "{who}: credits"
            );
            for uri in r.records.keys().chain(r.files.keys()) {
                let (p, q) = (n.known_popularity(uri), r.known_popularity(uri));
                assert_eq!(p, q, "{who}: popularity of {uri}");
            }
            assert_eq!(n.wanted_uris(), r.wanted(), "{who}: wanted");
            let events = std::mem::take(&mut r.events);
            assert_eq!(n.drain_events(), events, "{who}: events");
        }
    }
}

/// `c` in the reference's terms: zero where the reference counts nothing —
/// the two arithmetic charges, and the runner's trace and node-table counts.
fn contact_level(c: &Counters) -> Counters {
    Counters {
        wanted_cache_hits: 0,
        index_lookups: 0,
        shards_loaded: 0,
        peak_resident_contacts: 0,
        nodes_instantiated: 0,
        peak_resident_nodes: 0,
        ..*c
    }
}

/// One operation the script can interleave between contacts.
fn random_op(rng: &mut StdRng, n: usize, pools: &[Vec<[Metadata; 2]>], tokens: &[String]) -> Op {
    let i = rng.gen_range(0..n);
    let pool = &pools[i];
    let u = rng.gen_range(0..pool.len());
    let record = pool[u][usize::from(rng.gen_bool(0.3))].clone();
    match rng.gen_range(0..8) {
        0..=2 => Op::Query(i, Query::new(words(rng, tokens)).unwrap(), lifetime(rng)),
        3..=5 => Op::Seed(i, record, popularity(rng), rng.gen_bool(0.5)),
        _ => Op::StoreFile(i, record.uri().clone(), lifetime(rng)),
    }
}

/// Rarest-first for one cooperative case in two; tit-for-tat has one order.
fn ordering(rng: &mut StdRng, mode: CooperationMode) -> BroadcastOrdering {
    if mode == CooperationMode::Cooperative && rng.gen_bool(0.5) {
        BroadcastOrdering::RarestFirst
    } else {
        BroadcastOrdering::TwoPhase
    }
}

fn p1_case(variant: usize, protocol: ProtocolSpec, case: u64) {
    let rng = &mut rng_for(variant, case, 1);
    let mode = [CooperationMode::Cooperative, CooperationMode::TitForTat][(case % 2) as usize];
    let discovery_first = (case / 2).is_multiple_of(2);
    let ordering = ordering(rng, mode);
    let config = MbtConfig::new()
        .cooperation(mode)
        .ordering(ordering)
        .discovery_first(discovery_first)
        .metadata_per_contact(rng.gen_range(1..=6))
        .files_per_contact(rng.gen_range(1..=4))
        .min_download_contact_secs([0, 0, 0, 120][rng.gen_range(0..4usize)]);
    let n = rng.gen_range(2..=6usize);
    let files = rng.gen_range(1..=14u32);
    let recipe = Recipe {
        batch_seed: rng.gen(),
        files,
        ttl_days: rng.gen_range(1..=2),
        variants: (0..files)
            .map(|_| (words(rng, &[]), lifetime(rng)))
            .collect(),
    };
    let tokens: Vec<String> = (0..files)
        .map(|i| format!("fd0n{i}"))
        .chain(["abc", "cbs", "nbc", "episode"].map(String::from))
        .collect();
    let shared = recipe.records();
    let fresh_last = rng.gen_bool(0.3);
    let pools: Vec<Vec<[Metadata; 2]>> = (0..n)
        .map(|i| {
            if fresh_last && i == n - 1 {
                recipe.records()
            } else {
                shared.clone()
            }
        })
        .collect();
    let name = format!(
        "{protocol} {mode:?} {ordering} discovery_first={discovery_first} case {case} (n={n}, fresh={fresh_last})"
    );

    let mut cliques = Cliques::new(n, protocol, &config);
    let mut script = Vec::new();
    for i in 0..n {
        let peers = (0..n as u32).filter(|_| rng.gen_bool(0.5)).map(NodeId::new);
        script.push(Op::Frequent(i, peers.collect()));
        for _ in 0..rng.gen_range(0..=3) {
            let query = Query::new(words(rng, &tokens)).unwrap();
            script.push(Op::Query(i, query, lifetime(rng)));
        }
    }
    let verifier = rng.gen_bool(0.7).then(|| rng.gen_range(0..n));
    if let Some(v) = verifier {
        script.push(Op::Registry(v));
    }
    for (i, pool) in pools.iter().enumerate() {
        for variants in pool {
            let record = variants[usize::from(rng.gen_bool(0.25))].clone();
            let popularity = popularity(rng);
            script.push(match rng.gen_range(0..6) {
                0 | 1 => Op::Seed(i, record, popularity, false),
                2 | 3 => Op::Seed(i, record, popularity, true),
                4 => Op::StoreFile(i, record.uri().clone(), lifetime(rng)),
                _ => continue,
            });
        }
    }
    if rng.gen_bool(0.6) {
        let forger = (0..n).find(|&i| Some(i) != verifier).expect("two members");
        script.push(Op::Seed(
            forger,
            recipe.fake(),
            Popularity::MAX,
            rng.gen_bool(0.5),
        ));
    }

    let mut now = 13 * HOUR + rng.gen_range(0..6 * HOUR);
    for round in 0..rng.gen_range(1..=3) {
        if round > 0 {
            for _ in 0..rng.gen_range(0..=3) {
                script.push(random_op(rng, n, &pools, &tokens));
            }
            now += rng.gen_range(HOUR..30 * HOUR);
        }
        let mut members: Vec<usize> = (0..n).collect();
        members.shuffle(rng);
        members.truncate(rng.gen_range(2..=n));
        let duration = SimDuration::from_secs(rng.gen_range(30..=900));
        script.push(Op::Contact(members, at(now), duration));
    }
    for op in script {
        cliques.apply(op, &name);
    }
}

/// A small trace of one of the three generators: pair-wise (DieselNet) or
/// cliques (NUS classes, community gatherings).
fn small_trace(model: u64, rng: &mut StdRng) -> (ContactTrace, SimDuration, u64, &'static str) {
    let nodes = rng.gen_range(3..=8);
    let days = rng.gen_range(3..=14);
    let seed = rng.gen();
    let (trace, window, name) = match model {
        0 => (NusConfig::new(nodes, days).seed(seed).generate(), 1, "nus"),
        1 => (
            DieselNetConfig::new(nodes, days).seed(seed).generate(),
            3,
            "dieselnet",
        ),
        _ => (
            CommunityConfig::new(nodes, days).seed(seed).generate(),
            1,
            "community",
        ),
    };
    let trace: ContactTrace = trace.iter().take(200).cloned().collect();
    (trace, SimDuration::from_days(window), days, name)
}

fn p2_case(variant: usize, protocol: ProtocolSpec, case: u64) {
    let rng = &mut rng_for(variant, case, 2);
    let mode = [CooperationMode::Cooperative, CooperationMode::TitForTat][(case % 2) as usize];
    let (trace, window, days, model) = small_trace((case / 2) % 3, rng);
    let config = MbtConfig::new()
        .cooperation(mode)
        .ordering(ordering(rng, mode))
        .discovery_first(rng.gen_bool(0.7))
        .metadata_per_contact(rng.gen_range(1..=20))
        .files_per_contact(rng.gen_range(1..=4));
    let polluters = rng.gen_bool(0.3);
    let spec = RunSpec {
        protocol,
        config: config.clone(),
        internet_fraction: [0.0, 0.25, 0.5][rng.gen_range(0..3usize)],
        files_per_day: rng.gen_range(1..=6),
        ttl_days: rng.gen_range(1..=3),
        days,
        seed: rng.gen(),
        frequent_window: window,
        polluter_fraction: if polluters { 0.25 } else { 0.0 },
        fakes_per_day: if polluters { rng.gen_range(1..=2) } else { 0 },
        verify_metadata: rng.gen_bool(0.5),
    };
    let params = SimParams::builder()
        .protocol(protocol)
        .config(config)
        .internet_fraction(spec.internet_fraction)
        .files_per_day(spec.files_per_day)
        .ttl_days(spec.ttl_days)
        .days(spec.days)
        .seed(spec.seed)
        .frequent_window(window)
        .polluter_fraction(spec.polluter_fraction)
        .fakes_per_day(spec.fakes_per_day)
        .verify_metadata(spec.verify_metadata)
        .build();
    let mut telemetry = Telemetry::default();
    let result = run_simulation(&trace, &params, Some(&mut telemetry));
    let expected = reference_mbt::run(&trace, &spec);
    let name = format!(
        "{protocol} {mode:?} case {case}: {model}, {} contacts, {spec:?}",
        trace.len()
    );
    assert_eq!(result, sim_result_of(&expected), "{name}: result");
    assert_eq!(
        contact_level(&telemetry.counters),
        expected.counters,
        "{name}: counters"
    );
}

fn sim_result_of(o: &RunOutcome) -> SimResult {
    SimResult {
        queries: o.queries,
        metadata_delivered: o.metadata_delivered,
        files_delivered: o.files_delivered,
        metadata_ratio: o.metadata_ratio,
        file_ratio: o.file_ratio,
        contacts: o.counters.contacts,
        metadata_broadcasts: o.counters.metadata_broadcasts,
        file_broadcasts: o.counters.file_broadcasts,
        queries_distributed: o.counters.queries_distributed,
        frames_lost: o.counters.frames_lost,
        corrupt_receptions: o.counters.corrupt_receptions,
        mean_metadata_delay_hours: o.mean_metadata_delay_hours,
        mean_file_delay_hours: o.mean_file_delay_hours,
        daily_metadata_delivered: o.daily_metadata_delivered.clone(),
        daily_files_delivered: o.daily_files_delivered.clone(),
    }
}

fn variant(v: usize) -> ProtocolSpec {
    ProtocolSpec::builtin()[v]
}

macro_rules! per_variant {
    ($($p1:ident, $p2:ident => $v:expr;)*) => {$(
        #[test]
        fn $p1() {
            for case in 0..P1_CASES {
                p1_case($v, variant($v), case);
            }
        }

        #[test]
        fn $p2() {
            for case in 0..P2_CASES {
                p2_case($v, variant($v), case);
            }
        }
    )*};
}

per_variant! {
    p1_mbt_contacts_match_the_reference, p2_mbt_runs_match_the_reference => 0;
    p1_mbt_q_contacts_match_the_reference, p2_mbt_q_runs_match_the_reference => 1;
    p1_mbt_qm_contacts_match_the_reference, p2_mbt_qm_runs_match_the_reference => 2;
    p1_popcache_contacts_match_the_reference, p2_popcache_runs_match_the_reference => 3;
    p1_diffuserep_contacts_match_the_reference, p2_diffuserep_runs_match_the_reference => 4;
}
