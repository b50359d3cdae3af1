//! A reference MBT, written from the paper (§III–V), DESIGN.md and the
//! `ProtocolSpec` docs — not from `mbt_core::node`.
//!
//! A [`ReferenceNode`] is plain maps and vectors; a [`contact`] is the
//! paper's contact read line by line: hellos to the lowest-id coordinator,
//! query shares between frequent contacts (§IV), the two-phase metadata
//! broadcast (§IV-A) or its credit-weighted order (§IV-B), and the file
//! broadcast (§V-A coordinator, §V-B cyclic order), one sender per slot.
//! What the members can offer is the union of their stores, rebuilt at every
//! contact by linear scans. [`run`] adds the day tick of §VI-A, the Internet
//! session of §III-A and the delivery books of §VI-B.
//!
//! It uses value types and substrate only: `Uri`, `Query`, `Metadata`,
//! `Popularity`, `KeyRegistry` verification, `dtn_sim::rng` (the "PRNG known
//! by all nodes"), `dtn_sim::channel`'s frame arithmetic, the
//! trace and its `FrequentScan`, the workload's draws, and `MetadataServer`
//! as the Internet. It keeps no index of what a clique differs by, sends no
//! frames, times nothing and reuses no buffers, and CI fails if it names the
//! production node, its stores, its discovery, download or transport
//! modules, or the runner.
//!
//! Included by path from `tests/reference_mbt.rs`. Do not optimise it: its
//! value is that it is plainly the paper.

use std::cmp::Ordering;
use std::collections::{BTreeMap, BTreeSet};

use dtn_sim::channel::frame_bytes;
use dtn_sim::rng::{cyclic_order, stream};
use dtn_sim::telemetry::Counters;
use dtn_trace::{ContactTrace, FrequentScan, NodeId, SimDuration, SimTime, SECONDS_PER_DAY};
use mbt_core::auth::KeyRegistry;
use mbt_core::popularity::cmp_popularity;
use mbt_core::{
    BroadcastOrdering, CachePolicy, CooperationMode, MbtConfig, Metadata, MetadataServer,
    NodeEvent, Popularity, ProtocolSpec, Query, ReplicationPolicy, Source, Uri,
};
use mbt_experiments::workload::{self, WorkloadConfig};
use rand::seq::SliceRandom;

/// Best matches the server returns per query at an Internet session.
const SEARCH_LIMIT: usize = 5;
/// Popular records an Internet-access node pulls for push distribution.
const PUSHED_RECORDS: usize = 20;
/// Credit for a new record matching one of the receiver's queries (§IV-B).
const MATCHED_CREDIT: f64 = 5.0;
/// DiffuseRep: weight of one observation in a smoothed availability.
const SMOOTHING: f64 = 0.5;
/// DiffuseRep: a member whose estimate is below this pulls the file unasked.
const SCARCE: f64 = 0.35;

fn expired(expires: Option<SimTime>, now: SimTime) -> bool {
    expires.is_some_and(|at| now >= at)
}

/// One device: its user's queries, the queries it carries for frequent
/// contacts, its records and files, and what it has learned.
#[derive(Debug, Clone)]
pub struct ReferenceNode {
    pub id: NodeId,
    pub protocol: ProtocolSpec,
    pub config: MbtConfig,
    pub internet: bool,
    /// Ascending, distinct.
    pub frequent: Vec<NodeId>,
    pub registry: Option<KeyRegistry>,
    /// Own queries in the order the user made them, distinct by text.
    pub own: Vec<(Query, Option<SimTime>)>,
    /// Queries carried for others, in arrival order, distinct by owner and
    /// text.
    pub foreign: Vec<(NodeId, Query, Option<SimTime>)>,
    pub records: BTreeMap<Uri, Metadata>,
    pub files: BTreeMap<Uri, Option<SimTime>>,
    pub credits: BTreeMap<NodeId, f64>,
    /// Highest popularity seen per URI, with the latest expiry of the
    /// records it rode (`None`: some observation had no expiry).
    pub popularity: BTreeMap<Uri, (Popularity, Option<SimTime>)>,
    /// DiffuseRep's smoothed fraction of clique members holding each file.
    pub availability: BTreeMap<Uri, f64>,
    /// URIs whose record failed verification, with its claimed expiry.
    pub rejected: BTreeMap<Uri, Option<SimTime>>,
    pub events: Vec<NodeEvent>,
}

impl ReferenceNode {
    pub fn new(id: NodeId, protocol: ProtocolSpec, config: MbtConfig) -> Self {
        ReferenceNode {
            id,
            protocol,
            config,
            internet: false,
            frequent: Vec::new(),
            registry: None,
            own: Vec::new(),
            foreign: Vec::new(),
            records: BTreeMap::new(),
            files: BTreeMap::new(),
            credits: BTreeMap::new(),
            popularity: BTreeMap::new(),
            availability: BTreeMap::new(),
            rejected: BTreeMap::new(),
            events: Vec::new(),
        }
    }

    pub fn set_frequent(&mut self, peers: &[NodeId]) {
        let set: BTreeSet<NodeId> = peers.iter().copied().collect();
        self.frequent = set.into_iter().collect();
    }

    /// Adds an own query unless one with the same text is held.
    pub fn add_query(&mut self, query: Query, expires: Option<SimTime>) {
        if !self.own.iter().any(|(q, _)| q.text() == query.text()) {
            self.own.push((query, expires));
        }
    }

    fn matches_own(&self, record: &Metadata) -> bool {
        self.own.iter().any(|(q, _)| record.matches_query(q))
    }

    /// The hello's "downloading files" (§III-B): records matching an own
    /// query whose file is not held, ascending.
    pub fn wanted(&self) -> Vec<Uri> {
        let records = self.records.values();
        let wanted = records.filter(|m| self.matches_own(m) && !self.files.contains_key(m.uri()));
        wanted.map(|m| m.uri().clone()).collect()
    }

    pub fn known_popularity(&self, uri: &Uri) -> Popularity {
        self.popularity
            .get(uri)
            .map_or(Popularity::MIN, |&(p, _)| p)
    }

    fn note_popularity(&mut self, uri: &Uri, p: Popularity, expires: Option<SimTime>) {
        let entry = self
            .popularity
            .entry(uri.clone())
            .or_insert((Popularity::MIN, expires));
        if p > entry.0 {
            entry.0 = p;
        }
        entry.1 = match (entry.1, expires) {
            (Some(a), Some(b)) => Some(a.max(b)),
            _ => None,
        };
    }

    /// Everything whose lifetime has passed is forgotten.
    pub fn prune(&mut self, now: SimTime) {
        self.records.retain(|_, m| !expired(m.expires(), now));
        self.files.retain(|_, &mut e| !expired(e, now));
        self.own.retain(|&(_, e)| !expired(e, now));
        self.foreign.retain(|&(_, _, e)| !expired(e, now));
        self.popularity.retain(|_, &mut (_, e)| !expired(e, now));
        self.rejected.retain(|_, &mut e| !expired(e, now));
    }

    fn accepts(&self, record: &Metadata) -> bool {
        self.registry
            .as_ref()
            .is_none_or(|registry| registry.verify(record).is_ok())
    }

    fn reject(&mut self, record: &Metadata) {
        self.rejected.insert(record.uri().clone(), record.expires());
    }

    fn credit(&mut self, peer: NodeId, amount: f64) {
        *self.credits.entry(peer).or_insert(0.0) += amount;
    }

    /// A record arrives beside a popularity observation: the observation is
    /// noted, and the record is kept unless one is held under its URI. With
    /// `credited`, a new record pays its sender 5 if it matches an own query
    /// and its popularity otherwise (§IV-B).
    fn store_record(
        &mut self,
        record: &Metadata,
        popularity: Popularity,
        from: Source,
        credited: bool,
    ) -> bool {
        self.note_popularity(record.uri(), popularity, record.expires());
        if self.records.contains_key(record.uri()) {
            return false;
        }
        self.records.insert(record.uri().clone(), record.clone());
        if let (true, Source::Peer(sender)) = (credited, from) {
            let amount = if self.matches_own(record) {
                MATCHED_CREDIT
            } else {
                popularity.value()
            };
            self.credit(sender, amount);
        }
        let uri = record.uri().clone();
        self.events.push(NodeEvent::MetadataStored { uri, from });
        true
    }

    /// A file is protected if its record matches an own query.
    fn protects(&self, uri: &Uri) -> bool {
        self.records.get(uri).is_some_and(|m| self.matches_own(m))
    }

    /// Keeps a complete file; `true` if it was not held. Under PopCache a
    /// full buffer evicts the least popular unprotected file (ties: the
    /// smaller URI), unless there is none or the incoming file is
    /// unprotected and no more popular than it — then the file is refused.
    pub fn store_file(&mut self, uri: Uri, expires: Option<SimTime>) -> bool {
        if let CachePolicy::PopularityRanked { capacity } = self.protocol.cache() {
            if !self.files.contains_key(&uri) && self.files.len() >= capacity as usize {
                let mut victim: Option<(f64, Uri)> = None;
                for held in self.files.keys() {
                    if self.protects(held) {
                        continue;
                    }
                    let score = self.known_popularity(held).value();
                    if victim.as_ref().is_none_or(|(best, _)| score < *best) {
                        victim = Some((score, held.clone()));
                    }
                }
                let Some((score, victim)) = victim else {
                    return false;
                };
                if !self.protects(&uri) && self.known_popularity(&uri).value() <= score {
                    return false;
                }
                self.files.remove(&victim);
            }
        }
        self.files.insert(uri, expires).is_none()
    }

    /// Content the device already has: the record, unverified, and with
    /// `with_file` the file.
    pub fn seed(&mut self, record: Metadata, popularity: Popularity, with_file: bool) {
        self.store_record(&record, popularity, Source::Internet, false);
        let uri = record.uri().clone();
        if with_file && self.store_file(uri.clone(), record.expires()) {
            let from = Source::Internet;
            self.events.push(NodeEvent::FileCompleted { uri, from });
        }
    }

    /// Stores the server's unexpired best matches for `query`; returns the
    /// best of them.
    fn fetch(&mut self, server: &MetadataServer, query: &Query, now: SimTime) -> Option<Metadata> {
        let mut best = None;
        for record in server.search(query, SEARCH_LIMIT) {
            if expired(record.expires(), now) {
                continue;
            }
            let popularity = server.popularity_of(record.uri());
            self.store_record(record, popularity, Source::Internet, false);
            best.get_or_insert_with(|| record.clone());
        }
        best
    }

    /// The Internet session (§III-A, §IV): own queries fetch records and the
    /// best match's file; carried queries fetch records only (full MBT);
    /// the most popular records are pulled for pushing (MBT, MBT-Q); every
    /// held record's popularity is refreshed.
    pub fn internet_session(&mut self, server: &MetadataServer, now: SimTime) {
        if !self.internet {
            return;
        }
        self.prune(now);
        let own: Vec<Query> = self.own.iter().map(|(q, _)| q.clone()).collect();
        for query in &own {
            if let Some(best) = self.fetch(server, query, now) {
                let uri = best.uri().clone();
                if self.store_file(uri.clone(), best.expires()) {
                    let from = Source::Internet;
                    self.events.push(NodeEvent::FileCompleted { uri, from });
                }
            }
        }
        if self.protocol.distributes_queries() {
            let carried: Vec<Query> = self.foreign.iter().map(|(_, q, _)| q.clone()).collect();
            for query in &carried {
                self.fetch(server, query, now);
            }
        }
        if self.protocol.distributes_metadata() {
            for record in server.most_popular(PUSHED_RECORDS, now) {
                let popularity = server.popularity_of(record.uri());
                self.store_record(record, popularity, Source::Internet, false);
            }
        }
        let held: Vec<(Uri, Option<SimTime>)> = self
            .records
            .values()
            .map(|m| (m.uri().clone(), m.expires()))
            .collect();
        for (uri, expires) in held {
            self.note_popularity(&uri, server.popularity_of(&uri), expires);
        }
    }
}

/// A member's hello: what it announces at contact start.
struct Hello {
    id: NodeId,
    /// Own queries, then carried ones: the queries it collects records for.
    queries: Vec<Query>,
    own: Vec<(Query, Option<SimTime>)>,
    frequent: Vec<NodeId>,
    wanted: Vec<Uri>,
    rejected: Vec<Uri>,
    credits: BTreeMap<NodeId, f64>,
}

/// What the clique holds under one URI at contact start.
struct Holding {
    /// Every metadata holder's record, in member order.
    records: Vec<(NodeId, Metadata)>,
    /// The highest popularity any metadata holder knows.
    popularity: Popularity,
    file_holders: Vec<NodeId>,
    /// DiffuseRep: members that pull the file unasked.
    proactive: Vec<NodeId>,
}

struct Offer {
    uri: Uri,
    popularity: Popularity,
    /// Ascending.
    requesters: Vec<NodeId>,
    /// Ascending.
    holders: Vec<NodeId>,
}

fn ascending(ids: impl IntoIterator<Item = NodeId>) -> Vec<NodeId> {
    let set: BTreeSet<NodeId> = ids.into_iter().collect();
    set.into_iter().collect()
}

/// The broadcast order of one phase: `(sender, uri)` for at most `slots`
/// broadcasts.
fn order(
    config: &MbtConfig,
    ids: &[NodeId],
    hellos: &[Hello],
    mut offers: Vec<Offer>,
    slots: usize,
) -> Vec<(NodeId, Uri)> {
    match config.cooperation_value() {
        // §V-A (and §IV-A): the coordinator sends what more members request
        // first, equal counts by popularity, then the unrequested by
        // popularity; ties go to the smaller URI. The lowest-id holder sends.
        // Rarest-first (BitTorrent, §II-B) sends what the fewest members
        // hold first, and orders equal holder counts as above.
        CooperationMode::Cooperative => {
            offers.sort_by(|a, b| {
                let rarity = match config.ordering_value() {
                    BroadcastOrdering::TwoPhase => Ordering::Equal,
                    BroadcastOrdering::RarestFirst => a.holders.len().cmp(&b.holders.len()),
                };
                let (ra, rb) = (a.requesters.len(), b.requesters.len());
                rarity
                    .then(rb.min(1).cmp(&ra.min(1)))
                    .then(rb.cmp(&ra))
                    .then(cmp_popularity(b.popularity, a.popularity))
                    .then(a.uri.cmp(&b.uri))
            });
            offers.truncate(slots);
            offers.into_iter().map(|o| (o.holders[0], o.uri)).collect()
        }
        // §V-B (and §IV-B): members take turns in the cyclic order a PRNG
        // seeded by the sum of their ids gives; on its turn a member sends
        // what it holds whose requesters carry the most credit in its own
        // ledger, then the most requesters, the most popular, the smaller
        // URI. A round in which nobody can send ends the phase.
        CooperationMode::TitForTat => {
            let turns = cyclic_order(ids);
            let mut sent = Vec::new();
            let mut idle = 0;
            let mut turn = 0;
            while sent.len() < slots && idle < turns.len() && !offers.is_empty() {
                let sender = turns[turn % turns.len()];
                turn += 1;
                let ledger = &hellos.iter().find(|h| h.id == sender).unwrap().credits;
                let weight = |o: &Offer| -> f64 {
                    let credit = |r: &NodeId| ledger.get(r).copied().unwrap_or(0.0);
                    o.requesters.iter().map(credit).sum()
                };
                let mut best: Option<usize> = None;
                for (at, o) in offers.iter().enumerate() {
                    if !o.holders.contains(&sender) {
                        continue;
                    }
                    let better = best.is_none_or(|b| {
                        let b = &offers[b];
                        (weight(o).partial_cmp(&weight(b)).unwrap())
                            .then(o.requesters.len().cmp(&b.requesters.len()))
                            .then(cmp_popularity(o.popularity, b.popularity))
                            .then(b.uri.cmp(&o.uri))
                            .is_gt()
                    });
                    if better {
                        best = Some(at);
                    }
                }
                match best {
                    Some(at) => {
                        sent.push((sender, offers.remove(at).uri));
                        idle = 0;
                    }
                    None => idle += 1,
                }
            }
            sent
        }
    }
}

/// One contact among `nodes[members]`, in member order, and what it did.
pub fn contact(
    nodes: &mut [ReferenceNode],
    members: &[usize],
    now: SimTime,
    duration: SimDuration,
) -> Counters {
    let mut counters = Counters::default();
    if members.len() < 2 {
        return counters;
    }
    counters.contacts = 1;
    counters.clique_formations = u64::from(members.len() >= 3);
    let protocol = nodes[members[0]].protocol;
    let config = nodes[members[0]].config.clone();
    for &m in members {
        nodes[m].prune(now);
    }

    // Hellos: every member's goes to the coordinator, the lowest id.
    let hellos: Vec<Hello> = members
        .iter()
        .map(|&m| {
            let n = &nodes[m];
            let own = n.own.iter().map(|(q, _)| q);
            Hello {
                id: n.id,
                queries: own
                    .chain(n.foreign.iter().map(|(_, q, _)| q))
                    .cloned()
                    .collect(),
                own: n.own.clone(),
                frequent: n.frequent.clone(),
                wanted: n.wanted(),
                rejected: n.rejected.keys().cloned().collect(),
                credits: n.credits.clone(),
            }
        })
        .collect();
    counters.hello_exchanges = hellos.len() as u64;
    let ids: Vec<NodeId> = hellos.iter().map(|h| h.id).collect();

    // The union of what the members hold, as of contact start.
    let mut union: BTreeMap<Uri, Holding> = BTreeMap::new();
    for &m in members {
        let n = &nodes[m];
        for uri in n.records.keys().chain(n.files.keys()) {
            union.entry(uri.clone()).or_insert_with(|| Holding {
                records: Vec::new(),
                popularity: Popularity::MIN,
                file_holders: Vec::new(),
                proactive: Vec::new(),
            });
        }
        for (uri, record) in &n.records {
            let holding = union.get_mut(uri).unwrap();
            holding.records.push((n.id, record.clone()));
            let p = n.known_popularity(uri);
            if p > holding.popularity {
                holding.popularity = p;
            }
        }
        for uri in n.files.keys() {
            union.get_mut(uri).unwrap().file_holders.push(n.id);
        }
    }

    // DiffuseRep: each member smooths its availability estimate of every
    // URI toward the fraction of members holding the file; a member lacking
    // a held file, not refusing it, and estimating it scarce pulls it.
    if protocol.replication() == ReplicationPolicy::Diffusion {
        let clique = members.len() as f64;
        for &m in members {
            for (uri, holding) in &union {
                let seen = holding.file_holders.len() as f64 / clique;
                let estimate = nodes[m].availability.entry(uri.clone()).or_insert(0.0);
                *estimate += SMOOTHING * (seen - *estimate);
            }
        }
        for (uri, holding) in union.iter_mut() {
            if holding.file_holders.is_empty() {
                continue;
            }
            for (&m, hello) in members.iter().zip(&hellos) {
                let lacks = !holding.file_holders.contains(&hello.id);
                let estimate = nodes[m].availability.get(uri).copied().unwrap_or(0.0);
                if lacks && !hello.rejected.contains(uri) && estimate < SCARCE {
                    holding.proactive.push(hello.id);
                }
            }
        }
    }

    // Query shares (§IV): a member stores the own queries of every member
    // in its frequent set, once per owner and text.
    if protocol.distributes_queries() {
        for (&m, receiver) in members.iter().zip(&hellos) {
            for owner in &hellos {
                if owner.id == receiver.id || !receiver.frequent.contains(&owner.id) {
                    continue;
                }
                for (query, expires) in &owner.own {
                    let foreign = &mut nodes[m].foreign;
                    let held = foreign
                        .iter()
                        .any(|(o, q, _)| *o == owner.id && q.text() == query.text());
                    if !held {
                        foreign.push((owner.id, query.clone(), *expires));
                        counters.queries_distributed += 1;
                    }
                }
            }
        }
    }

    // Without faults nothing cuts a contact short: the budgets are whole.
    let metadata_slots = config.metadata_per_contact_value() as usize;
    let file_slots = config.files_per_contact_value() as usize;
    let lacks = |holders: &[NodeId], hello: &Hello, uri: &Uri| {
        !holders.contains(&hello.id) && !hello.rejected.contains(uri)
    };

    let metadata_phase = |nodes: &mut [ReferenceNode], counters: &mut Counters| {
        if !protocol.distributes_metadata() {
            return;
        }
        // §IV-A: a record some member lacks is offered; a broadcast carries
        // the first holder's record, and a lacking member requests it if one
        // of its queries matches the record the broadcast carries.
        let mut offers = Vec::new();
        for (uri, holding) in &union {
            let holders: Vec<NodeId> = holding.records.iter().map(|(id, _)| *id).collect();
            if holders.is_empty() || !hellos.iter().any(|h| lacks(&holders, h, uri)) {
                continue;
            }
            let carried = &holding.records[0].1;
            let requesters = hellos.iter().filter(|h| {
                lacks(&holders, h, uri) && h.queries.iter().any(|q| carried.matches_query(q))
            });
            offers.push(Offer {
                uri: uri.clone(),
                popularity: holding.popularity,
                requesters: ascending(requesters.map(|h| h.id)),
                holders: ascending(holders),
            });
        }
        for (sender, uri) in order(&config, &ids, &hellos, offers, metadata_slots) {
            let holding = &union[&uri];
            let record = &holding.records[0].1;
            counters.metadata_broadcasts += 1;
            counters.frames_sent += 1;
            for &m in members {
                let receiver = &mut nodes[m];
                if receiver.id == sender {
                    continue;
                }
                if !receiver.accepts(record) {
                    receiver.reject(record);
                    continue;
                }
                counters.bytes_moved += frame_bytes(record.wire_size() as u64);
                let from = Source::Peer(sender);
                if receiver.store_record(record, holding.popularity, from, true) {
                    counters.metadata_transferred += 1;
                }
            }
        }
    };

    let file_phase = |nodes: &mut [ReferenceNode], counters: &mut Counters| {
        if duration.as_secs() < config.min_download_contact_secs_value() {
            return;
        }
        // §V: a file some member lacks is offered; its requesters are the
        // members that announced wanting it (nobody can under MBT-QM), or
        // else DiffuseRep's proactive pullers.
        let mut offers = Vec::new();
        for (uri, holding) in &union {
            let holders = &holding.file_holders;
            if holders.is_empty() || !hellos.iter().any(|h| lacks(holders, h, uri)) {
                continue;
            }
            let announced = hellos.iter().filter(|h| {
                protocol.distributes_metadata()
                    && h.wanted.contains(uri)
                    && !holders.contains(&h.id)
            });
            let mut requesters = ascending(announced.map(|h| h.id));
            if requesters.is_empty() {
                requesters = ascending(holding.proactive.iter().copied());
            }
            offers.push(Offer {
                uri: uri.clone(),
                popularity: holding.popularity,
                requesters,
                holders: ascending(holders.iter().copied()),
            });
        }
        for (sender, uri) in order(&config, &ids, &hellos, offers, file_slots) {
            let holding = &union[&uri];
            let riding = holding.records.first().map(|(_, m)| m);
            counters.file_broadcasts += 1;
            counters.frames_sent += 1;
            for &m in members {
                let receiver = &mut nodes[m];
                if receiver.id == sender || receiver.files.contains_key(&uri) {
                    continue;
                }
                // The record rides with the file and is verified first.
                let from = Source::Peer(sender);
                let mut expires = None;
                if let Some(record) = riding {
                    if !receiver.accepts(record) {
                        receiver.reject(record);
                        continue;
                    }
                    expires = record.expires();
                    if receiver.store_record(record, holding.popularity, from, false) {
                        counters.metadata_transferred += 1;
                        counters.bytes_moved += record.wire_size() as u64;
                    }
                }
                let matched = receiver.protects(&uri);
                if receiver.store_file(uri.clone(), expires) {
                    let (pieces, bytes) = riding.map_or((1, 0), |r| (r.piece_count(), r.size()));
                    counters.pieces_transferred += u64::from(pieces);
                    counters.bytes_moved += frame_bytes(bytes);
                    // §V-B: a file pays its sender as a record would.
                    let amount = if matched {
                        MATCHED_CREDIT
                    } else {
                        receiver.known_popularity(&uri).value()
                    };
                    let uri = uri.clone();
                    receiver.events.push(NodeEvent::FileCompleted { uri, from });
                    receiver.credit(sender, amount);
                }
            }
        }
    };

    if config.discovery_first_value() {
        metadata_phase(nodes, &mut counters);
        file_phase(nodes, &mut counters);
    } else {
        file_phase(nodes, &mut counters);
        metadata_phase(nodes, &mut counters);
    }
    counters
}

/// The knobs of one [`run`].
#[derive(Debug, Clone)]
pub struct RunSpec {
    pub protocol: ProtocolSpec,
    pub config: MbtConfig,
    pub internet_fraction: f64,
    pub files_per_day: u32,
    pub ttl_days: u64,
    pub days: u64,
    pub seed: u64,
    pub frequent_window: SimDuration,
    pub polluter_fraction: f64,
    pub fakes_per_day: u32,
    pub verify_metadata: bool,
}

/// A run's outcome: the delivery books and the contacts' counts.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RunOutcome {
    pub queries: u64,
    pub metadata_delivered: u64,
    pub files_delivered: u64,
    pub metadata_ratio: f64,
    pub file_ratio: f64,
    pub mean_metadata_delay_hours: Option<f64>,
    pub mean_file_delay_hours: Option<f64>,
    pub daily_metadata_delivered: Vec<u64>,
    pub daily_files_delivered: Vec<u64>,
    /// Every contact's counters, merged.
    pub counters: Counters,
}

/// A measured node's query for a published file, and what has reached it.
struct Want {
    asked_at: SimTime,
    expires: SimTime,
    metadata: bool,
    file: bool,
}

/// The delivery books (§VI-B): deliveries over queries among the measured
/// nodes, each query satisfied at most once per kind, while it lives.
#[derive(Default)]
struct Books {
    wants: BTreeMap<(Uri, NodeId), Want>,
    queries: u64,
    delivered: [u64; 2],
    delay_secs: [u64; 2],
    daily: [Vec<u64>; 2],
}

impl Books {
    fn deliver(&mut self, uri: &Uri, node: NodeId, now: SimTime, file: bool) {
        let Some(want) = self.wants.get_mut(&(uri.clone(), node)) else {
            return;
        };
        let seen = if file {
            &mut want.file
        } else {
            &mut want.metadata
        };
        if now >= want.expires || *seen {
            return;
        }
        *seen = true;
        let kind = usize::from(file);
        self.delivered[kind] += 1;
        self.delay_secs[kind] += now
            .checked_duration_since(want.asked_at)
            .map_or(0, |d| d.as_secs());
        self.daily[kind][now.day() as usize] += 1;
    }

    fn book_events(&mut self, node: &mut ReferenceNode, now: SimTime) {
        for event in std::mem::take(&mut node.events) {
            match event {
                NodeEvent::MetadataStored { uri, .. } => self.deliver(&uri, node.id, now, false),
                NodeEvent::FileCompleted { uri, .. } => self.deliver(&uri, node.id, now, true),
            }
        }
    }
}

/// `fraction` of `ids`, rounded, drawn from the named stream of `seed`.
fn draw(ids: &[NodeId], fraction: f64, seed: u64, name: &str) -> BTreeSet<NodeId> {
    let mut shuffled = ids.to_vec();
    shuffled.shuffle(&mut stream(seed, name));
    let count = (ids.len() as f64 * fraction).round() as usize;
    shuffled.into_iter().take(count).collect()
}

/// Replays `trace` over `spec.days` days: at noon each day the server
/// expires and publishes, every node of the trace (ascending) prunes and
/// draws its queries, polluters plant forgeries, and Internet-access nodes
/// hold their sessions; a contact starting at noon comes after the tick.
pub fn run(trace: &ContactTrace, spec: &RunSpec) -> RunOutcome {
    let present = trace.nodes();
    let internet = draw(
        &present,
        spec.internet_fraction,
        spec.seed,
        "internet-selection",
    );
    let mut polluters = BTreeSet::new();
    if spec.polluter_fraction > 0.0 && spec.fakes_per_day > 0 {
        let candidates: Vec<NodeId> = (present.iter().copied())
            .filter(|n| !internet.contains(n))
            .collect();
        polluters = draw(&candidates, spec.polluter_fraction, spec.seed, "polluters");
    }
    let measured = |id: &NodeId| !internet.contains(id) && !polluters.contains(id);

    // §VI-A: each node's frequent contacts are an input statistic.
    let mut scan = FrequentScan::new(spec.frequent_window);
    for c in trace.iter() {
        scan.observe(c);
    }
    let frequent = scan.finish();

    let registry = spec.verify_metadata.then(workload::publisher_registry);
    let mut nodes: Vec<ReferenceNode> = (0..trace.id_space() as u32)
        .map(|i| {
            let id = NodeId::new(i);
            let mut n = ReferenceNode::new(id, spec.protocol, spec.config.clone());
            n.internet = internet.contains(&id);
            if let Some(peers) = frequent.get(&id) {
                n.set_frequent(peers);
            }
            if !polluters.contains(&id) {
                n.registry.clone_from(&registry);
            }
            n
        })
        .collect();

    let mut server = MetadataServer::new(internet.len().max(1) as u32);
    let wl = WorkloadConfig::new(spec.files_per_day, spec.ttl_days);
    let mut wl_rng = stream(spec.seed, "workload");
    let mut books = Books {
        daily: [vec![0; spec.days as usize], vec![0; spec.days as usize]],
        ..Books::default()
    };
    let mut out = RunOutcome::default();

    let mut day_tick = |nodes: &mut [ReferenceNode], books: &mut Books, day: u64| {
        let now = workload::publish_time(day);
        server.expire(now);
        books.wants.retain(|_, w| now < w.expires);
        let batch = workload::generate_batch(&wl, day, &mut wl_rng);
        let expires = batch.at + wl.ttl();
        for f in &batch.files {
            server.publish(f.metadata.clone(), f.popularity);
        }
        for id in &present {
            let picks = workload::draw_queries(&batch, &mut wl_rng);
            let node = &mut nodes[id.index()];
            node.prune(now);
            for (_, query) in &picks {
                node.add_query(query.clone(), Some(expires));
            }
            if !measured(id) {
                continue;
            }
            for &(file, _) in &picks {
                let uri = batch.files[file].uri.clone();
                books.queries += 1;
                let want = Want {
                    asked_at: now,
                    expires,
                    metadata: false,
                    file: false,
                };
                books.wants.insert((uri.clone(), *id), want);
                if node.records.contains_key(&uri) {
                    books.deliver(&uri, *id, now, false);
                }
                if node.files.contains_key(&uri) {
                    books.deliver(&uri, *id, now, true);
                }
            }
        }
        // Polluters forge the day's most popular releases (stable order).
        let mut targets: Vec<usize> = (0..batch.files.len()).collect();
        targets
            .sort_by(|&a, &b| cmp_popularity(batch.files[b].popularity, batch.files[a].popularity));
        for id in &polluters {
            for (v, &t) in targets.iter().take(spec.fakes_per_day as usize).enumerate() {
                let fake = workload::forge_fake(&batch.files[t], id.raw() * 101 + v as u32);
                nodes[id.index()].seed(fake.metadata, fake.popularity, true);
            }
            nodes[id.index()].events.clear();
        }
        for id in &internet {
            nodes[id.index()].internet_session(&server, now);
            books.book_events(&mut nodes[id.index()], now);
        }
    };

    let horizon = SimTime::from_secs(spec.days * SECONDS_PER_DAY);
    let mut day = 0;
    for c in trace.iter() {
        if c.start() >= horizon {
            break;
        }
        while day < spec.days && workload::publish_time(day) <= c.start() {
            day_tick(&mut nodes, &mut books, day);
            day += 1;
        }
        let members: Vec<usize> = c.participants().iter().map(|n| n.index()).collect();
        if members.len() < 2 {
            continue;
        }
        let counters = contact(&mut nodes, &members, c.start(), c.duration());
        out.counters.merge(&counters);
        for &m in &members {
            books.book_events(&mut nodes[m], c.start());
        }
    }
    while day < spec.days {
        day_tick(&mut nodes, &mut books, day);
        day += 1;
    }

    let ratio = |n: u64| {
        if books.queries == 0 {
            0.0
        } else {
            n as f64 / books.queries as f64
        }
    };
    let mean_hours = |kind: usize| {
        let count = books.delivered[kind];
        (count > 0).then(|| books.delay_secs[kind] as f64 / count as f64 / 3_600.0)
    };
    out.queries = books.queries;
    out.metadata_delivered = books.delivered[0];
    out.files_delivered = books.delivered[1];
    out.metadata_ratio = ratio(books.delivered[0]);
    out.file_ratio = ratio(books.delivered[1]);
    out.mean_metadata_delay_hours = mean_hours(0);
    out.mean_file_delay_hours = mean_hours(1);
    let [daily_metadata, daily_files] = std::mem::take(&mut books.daily);
    out.daily_metadata_delivered = daily_metadata;
    out.daily_files_delivered = daily_files;
    out
}
