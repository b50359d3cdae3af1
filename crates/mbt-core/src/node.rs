//! The MBT node state machine and contact-time exchange.
//!
//! Each node runs a file discovery process and a file download process
//! (paper §III-B). [`MbtNode`] holds one device's state — queries, metadata,
//! files, credits, popularity knowledge — and implements the Internet-session
//! behaviour of the hybrid DTN. [`run_contact`] implements what happens when
//! a clique of nodes meets: query distribution (full MBT), the two-phase
//! metadata broadcast (§IV), and the two-phase file broadcast (§V), under
//! either the cooperative or the tit-for-tat scheduler.
//!
//! Its oracle is the reference MBT of `tests/support/reference_mbt.rs`,
//! written from the paper rather than from this module: `tests/reference_mbt.rs`
//! runs seeded contacts and small whole runs through both and requires every
//! contact counter, node state and run result to agree.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

use dtn_sim::channel::frame_bytes;
use dtn_sim::telemetry::{Counters, Phase, PhaseTimes};
use dtn_trace::{NodeId, SimDuration, SimTime};

use crate::auth::KeyRegistry;
use crate::catalog::Catalog;
use crate::config::{CooperationMode, MbtConfig};
use crate::credit::CreditLedger;
use crate::download::{cooperative as dl_coop, tft as dl_tft, Broadcast, Offer};
use crate::metadata::Metadata;
use crate::popularity::Popularity;
use crate::protocol::{
    evict_lowest_score, CachePolicy, ProtocolSpec, ReplicationPolicy, DIFFUSION_SMOOTHING,
    DIFFUSION_THRESHOLD,
};
use crate::query::Query;
use crate::server::MetadataServer;
use crate::store::{is_expired, FileStore, MetadataStore, NextExpiry, OwnQuery, QueryStore};
use crate::transport::frame::ascending;
use crate::transport::{Carried, HelloFrame, SimTransport, Transport, WireMessage};
use crate::uri::{Uri, UriMap};

/// How many best matches the metadata server returns per query at an
/// Internet session.
const INTERNET_SEARCH_LIMIT: usize = 5;

/// How many popular metadata an Internet-access node pulls at a session for
/// later push-distribution in the DTN.
const INTERNET_PUSH_METADATA: usize = 20;

/// Where a stored item came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Source {
    /// Downloaded directly from the Internet.
    Internet,
    /// Received from a DTN peer.
    Peer(NodeId),
}

/// Events a node emits as its stores change; the experiment runner drains
/// these to compute delivery ratios.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NodeEvent {
    /// New metadata entered the local store.
    MetadataStored {
        /// The metadata's URI.
        uri: Uri,
        /// Where it came from.
        from: Source,
    },
    /// A complete file entered the local store.
    FileCompleted {
        /// The file's URI.
        uri: Uri,
        /// Where it came from.
        from: Source,
    },
}

/// One mobile device participating in the hybrid DTN.
///
/// # Example
///
/// ```
/// use mbt_core::{MbtConfig, MbtNode, MetadataServer, Metadata, Popularity, ProtocolSpec, Query, Uri};
/// use dtn_trace::{NodeId, SimTime};
///
/// let mut server = MetadataServer::new(1);
/// let uri = Uri::new("mbt://fox/news")?;
/// server.publish(Metadata::builder("FOX News", "FOX", uri.clone()).build(), Popularity::new(0.5));
///
/// let mut node = MbtNode::new(NodeId::new(0), ProtocolSpec::MBT, MbtConfig::new());
/// node.set_internet_access(true);
/// node.add_query(Query::new("fox news")?, None);
/// node.internet_session(&server, SimTime::ZERO);
/// assert!(node.has_metadata(&uri));
/// assert!(node.has_file(&uri));
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone)]
pub struct MbtNode {
    id: NodeId,
    protocol: ProtocolSpec,
    config: MbtConfig,
    internet_access: bool,
    /// Ascending and distinct; shared with whoever declared it (the
    /// experiment runner keeps one list per node) and with every hello.
    frequent_contacts: Arc<[NodeId]>,
    /// The three stores and the set derived from them. Written only by
    /// [`add_query`](Self::add_query), `store_record`,
    /// [`try_store_file`](Self::try_store_file) and [`prune`](Self::prune),
    /// which keep `wanted` equal to its definition; everything else reads.
    queries: QueryStore,
    metadata: MetadataStore,
    files: FileStore,
    /// URIs whose stored record matches an own query and whose file is not
    /// held — the hello's "downloading files" (§III-B), maintained as the
    /// stores change rather than recomputed per hello.
    wanted: BTreeSet<Uri>,
    credits: CreditLedger,
    /// Best popularity observed per URI, with the URI's global expiry when
    /// the observation rode metadata (so dead URIs can be pruned).
    popularity: UriMap<(Popularity, Option<SimTime>)>,
    /// Smoothed per-URI availability estimates. Only populated under
    /// [`ReplicationPolicy::Diffusion`]; always empty on the paper's triad.
    availability: UriMap<f64>,
    key_registry: Option<KeyRegistry>,
    /// URIs whose metadata failed authentication, with their claimed expiry:
    /// never re-requested, so fakes cannot burn a broadcast slot at every
    /// contact.
    rejected: UriMap<Option<SimTime>>,
    /// Earliest expiry among `popularity` and `rejected` (the three stores
    /// keep their own).
    next_expiry: NextExpiry,
    events: Vec<NodeEvent>,
}

/// A node's own queries and credit history, as a dormant node would keep
/// them. No node produces one: the experiment runner builds a node once and
/// keeps it. The type is the element of `mbt_experiments::ResidueStore`,
/// which exists only for the benchmark's probe; both go with the
/// benchmark's next version.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ColdNodeState {
    /// The node's own queries, in insertion order, with their expiries.
    pub queries: Vec<(Query, Option<SimTime>)>,
    /// The credit ledger's `(peer, credit)` entries in ascending peer id.
    pub credits: Vec<(NodeId, f64)>,
}

impl MbtNode {
    /// Creates a node without Internet access.
    pub fn new(id: NodeId, protocol: ProtocolSpec, config: MbtConfig) -> Self {
        MbtNode {
            id,
            protocol,
            config,
            internet_access: false,
            frequent_contacts: Arc::default(),
            queries: QueryStore::new(),
            metadata: MetadataStore::new(),
            files: FileStore::new(),
            wanted: BTreeSet::new(),
            credits: CreditLedger::new(),
            popularity: UriMap::default(),
            availability: UriMap::default(),
            key_registry: None,
            rejected: UriMap::default(),
            next_expiry: NextExpiry::default(),
            events: Vec::new(),
        }
    }

    /// The node's identifier.
    pub fn id(&self) -> NodeId {
        self.id
    }

    /// Marks the node as an Internet-access node.
    pub fn set_internet_access(&mut self, access: bool) {
        self.internet_access = access;
    }

    /// Declares the node's frequent contacting nodes (paper §VI-A), whose
    /// queries it will collect metadata for under full MBT. An ascending,
    /// duplicate-free list handed over as an `Arc` is shared, not copied.
    pub fn set_frequent_contacts(&mut self, peers: impl Into<Arc<[NodeId]>>) {
        self.frequent_contacts = ascending(peers.into());
    }

    /// Installs a publisher key registry: metadata received from DTN peers
    /// that fails authentication (paper §III-B item f — "authentication
    /// information of the metadata against fake publishers") is rejected on
    /// receipt. Metadata from the trusted Internet server is not re-checked.
    pub fn set_key_registry(&mut self, registry: KeyRegistry) {
        self.key_registry = Some(registry);
    }

    /// True if `metadata` is acceptable under this node's authentication
    /// policy (always true without a registry).
    pub fn accepts_metadata(&self, metadata: &Metadata) -> bool {
        match &self.key_registry {
            None => true,
            Some(registry) => registry.verify(metadata).is_ok(),
        }
    }

    pub(crate) fn reject(&mut self, metadata: &Metadata) {
        self.next_expiry.note(metadata.expires());
        self.rejected
            .insert(metadata.uri().clone(), metadata.expires());
    }

    /// Seeds the node with content obtained out-of-band: the metadata (and,
    /// when `with_file` is set, the complete file). Authentication is *not*
    /// checked — this models content the device already has, including the
    /// forged advertisements a malicious node plants.
    pub fn seed_content(&mut self, metadata: Metadata, popularity: Popularity, with_file: bool) {
        let uri = metadata.uri().clone();
        let expires = metadata.expires();
        self.store_record(&metadata, popularity, Source::Internet, false);
        if with_file && self.try_store_file(uri.clone(), expires) {
            self.events.push(NodeEvent::FileCompleted {
                uri,
                from: Source::Internet,
            });
        }
    }

    /// Adds a user query with an optional expiry; returns `true` if new.
    pub fn add_query(&mut self, query: Query, expires: Option<SimTime>) -> bool {
        self.add_queries([(query, expires)]) == 1
    }

    /// Adds several user queries at once — a day's draws — and returns how
    /// many were new. Observably the same as [`add_query`](Self::add_query)
    /// on each in order (a text already held, or repeated in the batch, keeps
    /// its first entry), but the shared own-query list is rebuilt once.
    ///
    /// The new queries scan the store once for the records they match:
    /// O(store), the one place a standing query meets records that arrived
    /// before it.
    pub fn add_queries(&mut self, batch: impl IntoIterator<Item = OwnQuery>) -> usize {
        let added = self.queries.add_own_batch(batch);
        let own = self.queries.own();
        let fresh = &own[own.len() - added..];
        if !fresh.is_empty() {
            for record in self.metadata.iter() {
                if matches_any(fresh, record) && !self.files.contains(record.uri()) {
                    self.wanted.insert(record.uri().clone());
                }
            }
        }
        added
    }

    /// The node's own active query strings.
    pub fn own_queries(&self) -> Vec<Query> {
        self.queries.own().iter().map(|(q, _)| q.clone()).collect()
    }

    /// The stored metadata records (read-only: records enter through
    /// contacts, Internet sessions and [`seed_content`](Self::seed_content)).
    pub fn metadata(&self) -> &MetadataStore {
        &self.metadata
    }

    /// The complete files held (read-only: files enter through
    /// [`try_store_file`](Self::try_store_file)).
    pub fn files(&self) -> &FileStore {
        &self.files
    }

    /// True if metadata for `uri` is stored.
    pub fn has_metadata(&self, uri: &Uri) -> bool {
        self.metadata.contains(uri)
    }

    /// True if the complete file at `uri` is stored.
    pub fn has_file(&self, uri: &Uri) -> bool {
        self.files.contains(uri)
    }

    /// The node's credit ledger (tit-for-tat state).
    pub fn credits(&self) -> &CreditLedger {
        &self.credits
    }

    /// The popularity the node believes `uri` has (0 if unknown).
    pub fn known_popularity(&self, uri: &Uri) -> Popularity {
        self.popularity
            .get(uri)
            .map(|&(p, _)| p)
            .unwrap_or(Popularity::MIN)
    }

    /// Records a popularity observation for a URI that expires at
    /// `expires`, keeping the maximum popularity (and the latest expiry)
    /// seen. Once every observation's expiry has passed,
    /// [`prune`](Self::prune) drops the entry: an expired URI is never advertised,
    /// requested, or ranked again, so forgetting its popularity is
    /// unobservable — and it is what keeps a node's footprint bounded by
    /// what is live over a long simulation.
    pub fn note_popularity_until(&mut self, uri: &Uri, p: Popularity, expires: Option<SimTime>) {
        // Most observations repeat a known URI, which is cloned only if new.
        let first = if p > Popularity::MIN {
            p
        } else {
            Popularity::MIN
        };
        let (entry, fresh) = (self.popularity).get_or_insert_with(uri, || (first, expires));
        if fresh {
            return self.next_expiry.note(expires);
        }
        if p > entry.0 {
            entry.0 = p;
        }
        entry.1 = match (entry.1, expires) {
            (Some(a), Some(b)) => Some(a.max(b)),
            // `None` means "no known lifetime": never prune.
            _ => None,
        };
        let lifetime = entry.1;
        self.next_expiry.note(lifetime);
    }

    /// URIs the node wants to download, ascending: it has metadata matching
    /// one of its own queries but not the file (the "downloading files" of
    /// the hello message, §III-B).
    ///
    /// The set is maintained, not computed: a record is matched against the
    /// own queries once, when it is stored (O(own queries)); a stored file
    /// leaves the set; [`add_query`](Self::add_query) and
    /// [`prune`](Self::prune) account for what they add and drop.
    pub fn wanted_uris(&self) -> Vec<Uri> {
        self.wanted.iter().cloned().collect()
    }

    /// Drops expired metadata, files, queries, popularity observations, and
    /// rejection records. O(1) until something can have expired: each store
    /// tracks its earliest expiry.
    pub fn prune(&mut self, now: SimTime) {
        // The wanted set follows what each store drops: an expired record
        // leaves it and an expired own query releases the URIs nothing else
        // asks for (one pass over the set for both), and a file that expires
        // before its record is wanted again.
        let records_dropped = self.metadata.prune_expired(now) > 0;
        let own_before = self.queries.own_version();
        self.queries.prune_expired(now);
        if records_dropped || self.queries.own_version() != own_before {
            let (metadata, own) = (&self.metadata, self.queries.own());
            self.wanted
                .retain(|uri| metadata.get(uri).is_some_and(|m| matches_any(own, m)));
        }
        for uri in self.files.prune_expired(now) {
            if self.matches_own_query(&uri) {
                self.wanted.insert(uri);
            }
        }
        if self.next_expiry.due(now) {
            self.popularity
                .retain(|_, &mut (_, expires)| !is_expired(expires, now));
            self.rejected
                .retain(|_, expires| !is_expired(*expires, now));
            let popularity = self.popularity.values().map(|&(_, expires)| expires);
            self.next_expiry
                .reset(popularity.chain(self.rejected.values().copied()));
        }
    }

    /// Drains accumulated [`NodeEvent`]s.
    pub fn drain_events(&mut self) -> Vec<NodeEvent> {
        std::mem::take(&mut self.events)
    }

    /// True if the node holds metadata for `uri` matching one of its own
    /// queries — such a file is *protected*: a bounded cache never evicts it
    /// and always admits it.
    fn matches_own_query(&self, uri: &Uri) -> bool {
        self.metadata
            .get(uri)
            .is_some_and(|m| matches_any(self.queries.own(), m))
    }

    /// Stores a complete file through the cache policy; returns `true` if it
    /// was newly stored.
    ///
    /// Under [`CachePolicy::Unbounded`] this is exactly a
    /// [`FileStore::insert`]. Under [`CachePolicy::PopularityRanked`] a full
    /// buffer first picks a victim (via `evict_lowest_score`) among the held
    /// files *not* matching the node's own queries: if there is none, or the
    /// incoming file is unwanted and scores no higher than the victim, the
    /// incoming file is refused instead. A file the node's own user wants is always
    /// admitted over the victim; a file being downloaded (wanted) is never
    /// the victim — which is what the crate's proptests pin.
    pub fn try_store_file(&mut self, uri: Uri, expires: Option<SimTime>) -> bool {
        if let CachePolicy::PopularityRanked { capacity } = self.protocol.cache() {
            if !self.files.contains(&uri) && self.files.len() >= capacity as usize {
                let candidates: Vec<(Uri, f64)> = self
                    .files
                    .iter()
                    .filter(|held| !self.matches_own_query(held))
                    .map(|held| (held.clone(), self.known_popularity(held).value()))
                    .collect();
                let Some(victim) = evict_lowest_score(&candidates) else {
                    return false;
                };
                if !self.matches_own_query(&uri) {
                    let victim_score = self.known_popularity(&victim).value();
                    if self.known_popularity(&uri).value() <= victim_score {
                        return false;
                    }
                }
                // The victim matches no own query, so it was not wanted
                // before it was held and is not wanted now.
                self.files.remove(&victim);
            }
        }
        self.wanted.remove(&uri);
        self.files.insert(uri, expires)
    }

    /// Takes in a record that arrived with a `popularity` observation: notes
    /// the observation, and stores the record unless one is already held
    /// under its URI; returns `true` if it was new. Every record enters the
    /// store here, where it is matched against the own queries once — which
    /// both picks the credit rule (with `credited`, a new record
    /// [pays](Self::pay) the peer it came `from`) and decides whether its
    /// file is now wanted.
    fn store_record(
        &mut self,
        metadata: &Metadata,
        popularity: Popularity,
        from: Source,
        credited: bool,
    ) -> bool {
        self.note_popularity_until(metadata.uri(), popularity, metadata.expires());
        // A duplicate is not stored and earns its sender nothing.
        if !self.metadata.insert(metadata.clone()) {
            return false;
        }
        let matched = matches_any(self.queries.own(), metadata);
        if let (true, Source::Peer(sender)) = (credited, from) {
            self.pay(sender, matched, popularity);
        }
        let uri = metadata.uri();
        if matched && !self.files.contains(uri) {
            self.wanted.insert(uri.clone());
        }
        self.events.push(NodeEvent::MetadataStored {
            uri: uri.clone(),
            from,
        });
        true
    }

    /// The credit rule (§IV-B, reused for files by §V-B): what `sender`
    /// delivered pays it 5 if it matched an own query, else its popularity.
    fn pay(&mut self, sender: NodeId, matched: bool, popularity: Popularity) {
        if matched {
            self.credits.reward_matched(sender);
        } else {
            self.credits.reward_unmatched(sender, popularity);
        }
    }

    /// Runs one Internet session (paper §III-A, §IV): the node connects —
    /// e.g. through a free WiFi access point — sends its query strings to the
    /// metadata server, downloads the best-matched metadata and the files it
    /// needs, collects metadata for the queries it holds on behalf of its
    /// frequent contacts (full MBT), and pulls popular metadata for later
    /// push-distribution (MBT and MBT-Q).
    ///
    /// Does nothing unless the node has Internet access
    /// ([`set_internet_access`](Self::set_internet_access)).
    pub fn internet_session(&mut self, server: &MetadataServer, now: SimTime) {
        if !self.internet_access {
            return;
        }
        self.prune(now);

        // Own queries: fetch matching metadata, then the user selects the
        // best match and downloads its file.
        let own: Vec<Query> = self.own_queries();
        for query in &own {
            if let Some(best) = self.fetch_matches(server, query, now) {
                let uri = best.uri().clone();
                if self.try_store_file(uri.clone(), best.expires()) {
                    self.events.push(NodeEvent::FileCompleted {
                        uri,
                        from: Source::Internet,
                    });
                }
            }
        }

        // Queries collected for frequent contacts (full MBT): fetch their
        // metadata to carry into the DTN. Files are not downloaded for them.
        if self.protocol.distributes_queries() {
            let foreign: Vec<Query> = self
                .queries
                .foreign()
                .map(|(_, e)| e.query().clone())
                .collect();
            for query in &foreign {
                self.fetch_matches(server, query, now);
            }
        }

        // Push phase: pull the most popular metadata for later distribution.
        if self.protocol.distributes_metadata() {
            for meta in server.most_popular(INTERNET_PUSH_METADATA, now) {
                let popularity = server.popularity_of(meta.uri());
                self.store_record(meta, popularity, Source::Internet, false);
            }
        }

        // Refresh popularity knowledge for everything we hold.
        let held: Vec<(Uri, Option<SimTime>)> = self
            .metadata
            .iter()
            .map(|m| (m.uri().clone(), m.expires()))
            .collect();
        for (uri, expires) in held {
            let p = server.popularity_of(&uri);
            self.note_popularity_until(&uri, p, expires);
        }
    }

    /// Stores the server's unexpired best matches for `query`, each beside
    /// its assigned popularity, in rank order; returns the best of them.
    fn fetch_matches<'s>(
        &mut self,
        server: &'s MetadataServer,
        query: &Query,
        now: SimTime,
    ) -> Option<&'s Metadata> {
        let mut best = None;
        for meta in server.search(query, INTERNET_SEARCH_LIMIT) {
            if !meta.is_expired(now) {
                let popularity = server.popularity_of(meta.uri());
                self.store_record(meta, popularity, Source::Internet, false);
                best.get_or_insert(meta);
            }
        }
        best
    }
}

/// Runs one contact among the nodes at `members` (indices into `nodes`).
///
/// Implements the paper's contact behaviour: hello exchange (implicit in the
/// snapshot), query distribution to frequent contacts (full MBT), the
/// two-phase metadata broadcast (unless the protocol disables standalone
/// metadata), and the two-phase file broadcast — in that order when
/// `discovery_first` is set, since short pedestrian contacts should be spent
/// on small metadata first (§V).
///
/// Returns what the contact did as the contact-level fields of
/// [`Counters`]: `contacts` is 1 and `frames_sent` is one per broadcast. A
/// call with fewer than two members is no contact and counts nothing.
///
/// All members must run the same protocol variant and the same
/// [`MbtConfig`]: the contact reads its budgets, fault plan, broadcast
/// ordering, phase order and short-contact gate from one of them.
///
/// # Panics
///
/// Panics if `members` contains an out-of-range or duplicate index, or if
/// members disagree on protocol or configuration.
pub fn run_contact(
    nodes: &mut [MbtNode],
    members: &[usize],
    now: SimTime,
    duration: SimDuration,
) -> Counters {
    let mut transport = SimTransport::new();
    let mut scratch = ContactScratch::default();
    run_contact_via(
        &mut transport,
        nodes,
        members,
        now,
        duration,
        None,
        &mut scratch,
    )
}

/// The vectors a contact fills and empties — the members whose hello
/// arrived, their hellos and their ids — kept by the caller so that a run of
/// contacts allocates them once, not once each. Holds nothing a later
/// contact reads: every contact starts by clearing it.
#[derive(Debug, Default)]
pub struct ContactScratch {
    alive: Vec<usize>,
    snapshots: Vec<HelloFrame>,
    member_ids: Vec<NodeId>,
}

/// [`run_contact`] over an explicit [`Transport`] backend, with optional
/// phase spans and the caller's [`ContactScratch`]. With `spans` set, the
/// metadata-broadcast phase is charged to [`Phase::Discovery`] and the
/// file-broadcast phase to [`Phase::Download`]; timing is observational only
/// (the counters and every node's state are those of an untimed contact), and
/// with `spans` `None` the contact reads no clock.
///
/// The contact's message flow — hello exchange to the clique coordinator
/// (§V elects one; the lowest id here), query shares, metadata broadcasts,
/// file broadcasts — goes through `transport` as [`WireMessage`]s. With
/// [`SimTransport`] every carry is an in-process move and this function is
/// byte-identical to the pre-seam contact loop; with
/// [`BusTransport`](crate::transport::BusTransport) every message
/// round-trips its serialized frame, and a frame that decodes equal to what
/// was sent delivers the sender's value, so receivers share its allocations
/// under either backend. A [`Carried::Dropped`] outcome counts as a lost
/// frame (a dropped hello removes that member from the contact).
///
/// Frame emission order is deterministic: every collection iterated on this
/// path — member snapshots, the catalog's rows, holder lists and sorted
/// postings, broadcast schedules, a node's `UriMap`s (ordered by each URI's
/// `stable_hash`, a fixed function of the text, then by text) — is ordered,
/// never a hash map, so the carry sequence is a pure function of member
/// state. `tests/transport_equivalence.rs` pins the exact sequence.
///
/// # Cost model
///
/// A contact costs what its members *differ by* and what changed, not what
/// they carry. Each member's hello — which is also its start-of-contact
/// snapshot — shares the member's own-query list and frequent set by
/// reference (neither changes inside a contact) and copies only what the
/// contact itself mutates: the wanted set, the credit ledger and the
/// foreign queries, all three usually empty. Pruning on entry is O(1) until
/// something can have expired; a query share whose receiver already holds
/// the sender's unchanged list is carried (the wire sequence is the
/// protocol) but not re-stored. One ordered walk over the members' stores
/// keeps a catalog row only for a URI whose metadata or file some members
/// hold and others lack (every URI under DiffuseRep, which observes them
/// all); requester matching answers each query with one probe of a token
/// index over the records somebody lacks; with no such rows there are no
/// offers, no index and no schedule.
///
/// # Panics
///
/// Panics if `members` contains an out-of-range or duplicate index, or if
/// members disagree on protocol (checked first) or configuration.
pub fn run_contact_via(
    transport: &mut dyn Transport,
    nodes: &mut [MbtNode],
    members: &[usize],
    now: SimTime,
    duration: SimDuration,
    mut spans: Option<&mut PhaseTimes>,
    scratch: &mut ContactScratch,
) -> Counters {
    if members.len() < 2 {
        return Counters::default();
    }
    let mut counters = Counters {
        contacts: 1,
        clique_formations: u64::from(members.len() >= 3),
        ..Counters::default()
    };
    for (i, &idx) in members.iter().enumerate() {
        assert!(idx < nodes.len(), "member index {idx} out of range");
        assert!(!members[..i].contains(&idx), "duplicate member index {idx}");
    }
    let protocol = nodes[members[0]].protocol;
    let config = nodes[members[0]].config.clone();
    for &idx in members {
        assert_eq!(
            nodes[idx].protocol, protocol,
            "mixed protocols in one contact"
        );
        assert_eq!(
            nodes[idx].config, config,
            "mixed configurations in one contact"
        );
        nodes[idx].prune(now);
    }

    // --- Hello: every member advertises its state to the clique
    // coordinator (§V: the lowest id). The coordinator's own hello is
    // local; every other member's is carried as a frame, and a dropped
    // hello removes that member from the contact. ---
    let ContactScratch {
        alive,
        snapshots,
        member_ids,
    } = scratch;
    let coordinator = members.iter().map(|&idx| nodes[idx].id).min();
    let coordinator = coordinator.expect("a contact has members");

    // A delivered hello doubles as that member's start-of-contact snapshot.
    alive.clear();
    snapshots.clear();
    for &idx in members {
        let hello = build_hello(&nodes[idx], protocol);
        let sender = nodes[idx].id;
        let delivered = if sender == coordinator {
            Some(hello)
        } else {
            match transport.carry(sender, coordinator, WireMessage::Hello(hello)) {
                Carried::Delivered(WireMessage::Hello(h)) => Some(h),
                Carried::Delivered(_) | Carried::Dropped => None,
            }
        };
        match delivered {
            Some(h) => {
                alive.push(idx);
                snapshots.push(h);
            }
            None => counters.frames_lost += 1,
        }
    }
    let (members, snapshots) = (&alive[..], &snapshots[..]);
    counters.hello_exchanges = snapshots.len() as u64;
    if members.len() < 2 {
        return counters;
    }

    // What the members differ by, as of now: whichever phase runs first,
    // both read these start-of-contact rows. DiffuseRep alone observes the
    // rows every member holds in full as well.
    let diffuses = protocol.replication() == ReplicationPolicy::Diffusion;
    let mut catalog = Catalog::walk(nodes, members, diffuses);

    member_ids.clear();
    member_ids.extend(snapshots.iter().map(|s| s.sender));
    let member_ids = &member_ids[..];

    // --- Availability diffusion (DiffuseRep only): every member smooths its
    // per-URI availability estimate toward the fraction of clique members
    // holding the file, then files observed scarce gain proactive
    // requesters — members lacking them whose estimate sits below the
    // threshold. The file phase folds these into its offers, so the
    // existing requested-before-popular scheduler prioritises scarce files
    // with no scheduler changes. Empty on every other replication policy.
    // ---
    if diffuses {
        let clique = members.len() as f64;
        for &idx in members {
            for row in catalog.rows() {
                let seen = row.file_holders.len() as f64 / clique;
                let availability = &mut nodes[idx].availability;
                let (estimate, _) = availability.get_or_insert_with(&row.uri, || 0.0);
                *estimate += DIFFUSION_SMOOTHING * (seen - *estimate);
            }
        }
        for row in catalog.rows_mut() {
            if row.file_holders.is_empty() {
                continue;
            }
            row.proactive = members
                .iter()
                .zip(snapshots)
                .filter(|(_, s)| row.open_to(&row.file_holders, s))
                .filter(|(&idx, _)| {
                    let estimate = nodes[idx].availability.get(&row.uri).copied();
                    estimate.unwrap_or(0.0) < DIFFUSION_THRESHOLD
                })
                .map(|(_, s)| s.sender)
                .collect();
        }
    }
    let catalog = catalog;

    // --- Query distribution (full MBT, §IV): frequent contacts store each
    // other's queries so they can collect metadata while apart. ---
    if protocol.distributes_queries() {
        for (i, &idx) in members.iter().enumerate() {
            for (j, snap) in snapshots.iter().enumerate() {
                if i == j || snapshots[i].frequent.binary_search(&snap.sender).is_err() {
                    continue;
                }
                // Every share is carried — the wire sequence is the
                // protocol — but a receiver that has stored this list
                // before, and dropped nothing since, has nothing to store.
                let receiver = &mut nodes[idx].queries;
                let in_sync = receiver.is_synced(snap.sender, &snap.own_queries);
                let mut all_arrived = true;
                for (query, expires) in snap.own_queries.iter() {
                    let share = WireMessage::QueryShare {
                        owner: snap.sender,
                        query: query.clone(),
                        expires: *expires,
                    };
                    match transport.carry(snap.sender, snapshots[i].sender, share) {
                        Carried::Delivered(WireMessage::QueryShare {
                            owner,
                            query,
                            expires,
                        }) => {
                            if !in_sync && receiver.add_foreign(owner, query, expires) {
                                counters.queries_distributed += 1;
                            }
                        }
                        Carried::Delivered(_) => all_arrived = false,
                        Carried::Dropped => {
                            counters.frames_lost += 1;
                            all_arrived = false;
                        }
                    }
                }
                if all_arrived && !in_sync {
                    receiver.mark_synced(snap.sender, snap.own_queries.clone());
                }
            }
        }
    }

    // Failure injection (see `dtn_sim::faults`): every roll is a pure
    // function of the plan seed and the event's coordinates. Truncation
    // shrinks both the contact's effective duration (the file-phase gate)
    // and its transfer budgets by the same surviving fraction; a plan with
    // truncation off keeps both exactly as configured.
    let faults = config.faults_value();
    let keep = faults.contact_keep(now, member_ids);
    let effective_duration = faults.truncated_duration(now, member_ids, duration);
    let metadata_slots =
        dtn_sim::channel::truncated_budget(config.metadata_per_contact_value(), keep) as usize;
    let file_slots =
        dtn_sim::channel::truncated_budget(config.files_per_contact_value(), keep) as usize;
    let frame_lost = |sender: NodeId, receiver: NodeId, item: &Uri| -> bool {
        faults.frame_lost(now, sender, receiver, item.as_str())
    };

    // --- Phase closures. ---
    let metadata_phase = |transport: &mut dyn Transport,
                          nodes: &mut [MbtNode],
                          counters: &mut Counters| {
        if !protocol.distributes_metadata() {
            return;
        }
        let offers = catalog.metadata_offers(snapshots);
        let schedule = schedule_broadcasts(&config, member_ids, snapshots, offers, metadata_slots);
        for b in &schedule {
            let row = &catalog.rows()[b.item];
            let (meta, pop) = (
                row.record.as_ref().expect("offered a record"),
                row.popularity,
            );
            counters.metadata_broadcasts += 1;
            for &idx in members {
                let receiver_id = nodes[idx].id;
                if receiver_id == b.sender {
                    continue;
                }
                if frame_lost(b.sender, receiver_id, &row.uri) {
                    counters.frames_lost += 1;
                    continue;
                }
                let carried = transport.carry(
                    b.sender,
                    receiver_id,
                    WireMessage::Metadata {
                        metadata: meta.clone(),
                        popularity: pop,
                    },
                );
                let (metadata, popularity) = match carried {
                    Carried::Delivered(WireMessage::Metadata {
                        metadata,
                        popularity,
                    }) => (metadata, popularity),
                    Carried::Delivered(_) => continue,
                    Carried::Dropped => {
                        counters.frames_lost += 1;
                        continue;
                    }
                };
                let receiver = &mut nodes[idx];
                if !receiver.accepts_metadata(&metadata) {
                    // Fake-publisher rejection (§III-B item f): blacklist the
                    // URI so it is never requested again.
                    receiver.reject(&metadata);
                    continue;
                }
                counters.bytes_moved += frame_bytes(metadata.wire_size() as u64);
                if receiver.store_record(&metadata, popularity, Source::Peer(b.sender), true) {
                    counters.metadata_transferred += 1;
                }
            }
        }
    };

    let file_phase =
        |transport: &mut dyn Transport, nodes: &mut [MbtNode], counters: &mut Counters| {
            if effective_duration.as_secs() < config.min_download_contact_secs_value() {
                return;
            }
            // A member requests a file it wants (announced as a "downloading
            // URI" in its hello) and does not hold. Under MBT-QM nobody can
            // announce wants — nodes have no standalone metadata — so all
            // offers fall to the popularity phase.
            let offers = catalog.file_offers(snapshots, protocol.distributes_metadata());
            let schedule = schedule_broadcasts(&config, member_ids, snapshots, offers, file_slots);
            for b in &schedule {
                counters.file_broadcasts += 1;
                // The file's metadata rides along with the file (as in prior
                // content-distribution systems, and necessary for verification).
                let row = &catalog.rows()[b.item];
                for &idx in members {
                    let receiver_id = nodes[idx].id;
                    if receiver_id == b.sender || nodes[idx].files.contains(&row.uri) {
                        continue;
                    }
                    if frame_lost(b.sender, receiver_id, &row.uri) {
                        counters.frames_lost += 1;
                        continue;
                    }
                    if faults.corrupts(now, b.sender, receiver_id, row.uri.as_str()) {
                        // The pieces arrived mangled: checksum verification (see
                        // `Metadata::verify_piece`) catches them, nothing is
                        // stored, and no credit is awarded — the file stays
                        // wanted and is re-fetched at a later contact.
                        counters.corrupt_receptions += 1;
                        continue;
                    }
                    let carried = transport.carry(
                        b.sender,
                        receiver_id,
                        WireMessage::FileBroadcast {
                            uri: row.uri.clone(),
                            metadata: row.record.clone().map(|m| (m, row.popularity)),
                        },
                    );
                    let (uri, riding) = match carried {
                        Carried::Delivered(WireMessage::FileBroadcast { uri, metadata }) => {
                            (uri, metadata)
                        }
                        Carried::Delivered(_) => continue,
                        Carried::Dropped => {
                            counters.frames_lost += 1;
                            continue;
                        }
                    };
                    let receiver = &mut nodes[idx];
                    let mut expires = None;
                    if let Some((meta, pop)) = &riding {
                        if !receiver.accepts_metadata(meta) {
                            // A file whose riding metadata fails authentication
                            // is an unverifiable fake: refuse it and blacklist.
                            receiver.reject(meta);
                            continue;
                        }
                        expires = meta.expires();
                        if receiver.store_record(meta, *pop, Source::Peer(b.sender), false) {
                            // Metadata riding a file frame: no extra frame
                            // header, just its wire bytes.
                            counters.metadata_transferred += 1;
                            counters.bytes_moved += meta.wire_size() as u64;
                        }
                    }
                    let wanted = receiver.matches_own_query(&uri);
                    if receiver.try_store_file(uri.clone(), expires) {
                        let (pieces, content_bytes) = riding
                            .as_ref()
                            .map(|(m, _)| (u64::from(m.piece_count()), m.size()))
                            .unwrap_or((1, 0));
                        counters.pieces_transferred += pieces;
                        counters.bytes_moved += frame_bytes(content_bytes);
                        receiver.events.push(NodeEvent::FileCompleted {
                            uri: uri.clone(),
                            from: Source::Peer(b.sender),
                        });
                        // §V-B: file download reuses the metadata credit rule.
                        receiver.pay(b.sender, wanted, receiver.known_popularity(&uri));
                    }
                }
            }
        };

    // Wall-clock spans are observational: they are charged to the caller's
    // `spans` and never read back, so timing cannot perturb the contact.
    let order = if config.discovery_first_value() {
        [Phase::Discovery, Phase::Download]
    } else {
        [Phase::Download, Phase::Discovery]
    };
    for phase in order {
        let mut run = || match phase {
            Phase::Discovery => metadata_phase(&mut *transport, nodes, &mut counters),
            _ => file_phase(&mut *transport, nodes, &mut counters),
        };
        match spans.as_deref_mut() {
            Some(spans) => spans.time(phase, run),
            None => run(),
        }
    }
    counters.frames_sent = counters.metadata_broadcasts + counters.file_broadcasts;
    counters
}

/// Builds one member's hello frame from the node as it stands. The own-query
/// list and frequent set are shared, not copied; the wanted set is the
/// maintained one.
pub(crate) fn build_hello(n: &MbtNode, protocol: ProtocolSpec) -> HelloFrame {
    let own_queries: Arc<[OwnQuery]> = n.queries.own().clone();
    let foreign_queries: Vec<Query> = if protocol.distributes_queries() {
        n.queries
            .foreign()
            .map(|(_, e)| e.query().clone())
            .collect()
    } else {
        Vec::new()
    };
    debug_assert!(
        n.wanted.iter().eq({
            let mut by_definition: Vec<&Uri> = (n.metadata.iter())
                .filter(|m| matches_any(&own_queries, m) && !n.files.contains(m.uri()))
                .map(Metadata::uri)
                .collect();
            by_definition.sort_unstable();
            by_definition
        }),
        "node {}: the maintained wanted set left its definition",
        n.id
    );
    HelloFrame {
        sender: n.id,
        own_queries,
        foreign_queries,
        wanted: n.wanted.clone(),
        rejected: n.rejected.keys().cloned().collect(),
        frequent: n.frequent_contacts.clone(),
        credits: n.credits.entries().collect(),
    }
}

/// True if any of the `own` queries matches `record`.
fn matches_any(own: &[OwnQuery], record: &Metadata) -> bool {
    own.iter().any(|(q, _)| record.matches_query(q))
}

/// Dispatches to the cooperative or tit-for-tat scheduler.
fn schedule_broadcasts(
    config: &MbtConfig,
    member_ids: &[NodeId],
    snapshots: &[HelloFrame],
    offers: Vec<Offer<usize>>,
    slots: usize,
) -> Vec<Broadcast<usize>> {
    if offers.is_empty() {
        return Vec::new();
    }
    match config.cooperation_value() {
        CooperationMode::Cooperative => dl_coop::schedule(offers, slots, config.ordering_value()),
        CooperationMode::TitForTat => {
            // Only this scheduler reads the start-of-contact ledgers.
            let ledgers: BTreeMap<NodeId, CreditLedger> = snapshots
                .iter()
                .map(|s| {
                    let ledger = CreditLedger::from_entries(s.credits.iter().copied());
                    (s.sender, ledger)
                })
                .collect();
            dl_tft::schedule(member_ids, offers, |id| &ledgers[&id], slots)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn uri(s: &str) -> Uri {
        Uri::new(s).unwrap()
    }

    fn meta(name: &str, u: &str) -> Metadata {
        Metadata::builder(name, "FOX", uri(u)).build()
    }

    fn server_with(entries: &[(&str, &str, f64)]) -> MetadataServer {
        let mut s = MetadataServer::new(4);
        for &(name, u, p) in entries {
            s.publish(meta(name, u), Popularity::new(p));
        }
        s
    }

    fn node(i: u32, protocol: ProtocolSpec) -> MbtNode {
        MbtNode::new(NodeId::new(i), protocol, MbtConfig::new())
    }

    /// Seeds the record alone, at the lowest popularity.
    fn hold(n: &mut MbtNode, m: Metadata) {
        n.seed_content(m, Popularity::MIN, false);
    }

    #[test]
    fn prune_forgets_expired_popularity_and_keeps_unbounded_observations() {
        let mut n = node(0, ProtocolSpec::MBT);
        let expiring = Metadata::builder("fox news", "FOX", uri("mbt://a"))
            .expires_at(Some(SimTime::from_secs(100)))
            .build();
        n.seed_content(expiring, Popularity::new(0.5), false);
        let _ = n.drain_events();
        assert_eq!(n.known_popularity(&uri("mbt://a")).value(), 0.5);

        // Past the URI's lifetime, metadata AND its popularity observation
        // decay: the node holds nothing of the URI.
        n.prune(SimTime::from_secs(100));
        assert_eq!(
            n.known_popularity(&uri("mbt://a")),
            Popularity::MIN,
            "expired URIs are never ranked again, so the observation goes"
        );
        assert_eq!(n.metadata.len(), 0);
        assert!(n.popularity.is_empty(), "the entry itself is dropped");

        // An expiry-free observation (no metadata lifetime known) pins the
        // entry forever, even when a bounded observation merges into it.
        let mut pinned = node(1, ProtocolSpec::MBT);
        pinned.note_popularity_until(&uri("mbt://b"), Popularity::new(0.3), None);
        pinned.note_popularity_until(
            &uri("mbt://b"),
            Popularity::new(0.7),
            Some(SimTime::from_secs(10)),
        );
        pinned.prune(SimTime::from_secs(1_000_000));
        assert_eq!(pinned.known_popularity(&uri("mbt://b")).value(), 0.7);
    }

    #[test]
    fn internet_session_requires_access() {
        let server = server_with(&[("fox news", "mbt://a", 0.5)]);
        let mut n = node(0, ProtocolSpec::MBT);
        n.add_query(Query::new("fox news").unwrap(), None);
        n.internet_session(&server, SimTime::ZERO);
        assert!(!n.has_metadata(&uri("mbt://a")), "no access, no download");
    }

    #[test]
    fn internet_session_downloads_queried_files() {
        let server = server_with(&[("fox news", "mbt://a", 0.5), ("abc show", "mbt://b", 0.9)]);
        let mut n = node(0, ProtocolSpec::MBT);
        n.set_internet_access(true);
        n.add_query(Query::new("fox news").unwrap(), None);
        n.internet_session(&server, SimTime::ZERO);
        assert!(n.has_metadata(&uri("mbt://a")));
        assert!(n.has_file(&uri("mbt://a")));
        assert!(
            !n.has_file(&uri("mbt://b")),
            "only queried files downloaded"
        );
        // Push phase pulled the popular metadata too.
        assert!(n.has_metadata(&uri("mbt://b")));
        let events = n.drain_events();
        assert!(events.iter().any(|e| matches!(
            e,
            NodeEvent::FileCompleted { uri: u, from: Source::Internet } if u == &uri("mbt://a")
        )));
        // A session only reads the server: the download feeds no request log.
        assert_eq!(
            server.estimated_popularity(&uri("mbt://a"), SimTime::ZERO),
            Popularity::MIN
        );
    }

    #[test]
    fn mbtqm_internet_session_skips_push_metadata() {
        let server = server_with(&[("fox news", "mbt://a", 0.5), ("abc show", "mbt://b", 0.9)]);
        let mut n = node(0, ProtocolSpec::MBT_QM);
        n.set_internet_access(true);
        n.add_query(Query::new("fox news").unwrap(), None);
        n.internet_session(&server, SimTime::ZERO);
        assert!(n.has_file(&uri("mbt://a")));
        assert!(
            !n.has_metadata(&uri("mbt://b")),
            "MBT-QM pulls no push metadata"
        );
    }

    #[test]
    fn internet_session_serves_foreign_queries_under_mbt_only() {
        let mut server = server_with(&[("abc comedy", "mbt://c", 0.2)]);
        // Twenty more popular records fill the popularity push, so only
        // foreign-query service can fetch `mbt://c`.
        for i in 0..INTERNET_PUSH_METADATA {
            let filler = meta(&format!("fox filler {i}"), &format!("mbt://filler/{i}"));
            server.publish(filler, Popularity::new(0.5));
        }
        for (protocol, expect) in [(ProtocolSpec::MBT, true), (ProtocolSpec::MBT_Q, false)] {
            let mut n = node(0, protocol);
            n.set_internet_access(true);
            n.queries
                .add_foreign(NodeId::new(9), Query::new("abc comedy").unwrap(), None);
            n.internet_session(&server, SimTime::ZERO);
            assert_eq!(n.has_metadata(&uri("mbt://c")), expect, "{protocol}");
            assert!(!n.has_file(&uri("mbt://c")), "no file download for others");
        }
    }

    #[test]
    fn contact_distributes_queries_to_frequent_contacts() {
        let mut nodes = vec![node(0, ProtocolSpec::MBT), node(1, ProtocolSpec::MBT)];
        nodes[0].set_frequent_contacts([NodeId::new(1)]);
        nodes[1].add_query(Query::new("fox news").unwrap(), None);
        let report = run_contact(
            &mut nodes,
            &[0, 1],
            SimTime::ZERO,
            SimDuration::from_secs(60),
        );
        assert_eq!(report.queries_distributed, 1);
        assert_eq!(nodes[0].queries.len(), 1);
        // Not symmetric: node 1 did not list node 0 as frequent.
        assert_eq!(nodes[1].queries.len(), 1); // its own query only
    }

    #[test]
    fn an_in_sync_pair_restores_a_query_the_receiver_lost() {
        // The receiver's copy can outlive or die before the owner's entry
        // of the same text (dedup keeps the first expiry). Skipping the
        // re-store of an unchanged list must not outlast such a loss.
        let at = |secs| SimTime::from_secs(secs);
        let contact = |nodes: &mut Vec<MbtNode>, secs| {
            run_contact(nodes, &[0, 1], at(secs), SimDuration::from_secs(60))
        };
        let mut nodes = vec![node(0, ProtocolSpec::MBT), node(1, ProtocolSpec::MBT)];
        nodes[0].set_frequent_contacts([NodeId::new(1)]);
        nodes[1].add_query(Query::new("fox news").unwrap(), Some(at(10)));
        assert_eq!(contact(&mut nodes, 0).queries_distributed, 1);

        // The owner replaces its entry with a longer-lived one; the
        // receiver keeps the copy it has, expiring at 10.
        nodes[1].queries.remove_own("fox news");
        nodes[1].add_query(Query::new("fox news").unwrap(), Some(at(20)));
        assert_eq!(contact(&mut nodes, 5).queries_distributed, 0);
        assert_eq!(contact(&mut nodes, 6).queries_distributed, 0, "in sync");

        // At 10 the receiver's copy expires; the unchanged list is stored
        // again, as it would be without the skip.
        assert_eq!(contact(&mut nodes, 12).queries_distributed, 1);
        assert_eq!(nodes[0].queries.len(), 1);
        assert_eq!(contact(&mut nodes, 13).queries_distributed, 0);
    }

    #[test]
    fn frequent_contacts_are_kept_ascending_and_distinct() {
        let mut n = node(0, ProtocolSpec::MBT);
        n.set_frequent_contacts([NodeId::new(5), NodeId::new(2), NodeId::new(5)]);
        let hello = build_hello(&n, ProtocolSpec::MBT);
        assert_eq!(*hello.frequent, [NodeId::new(2), NodeId::new(5)]);
        let shared: Arc<[NodeId]> = Arc::from([NodeId::new(1), NodeId::new(3)]);
        n.set_frequent_contacts(Arc::clone(&shared));
        assert!(Arc::ptr_eq(&n.frequent_contacts, &shared), "shared as is");
    }

    #[test]
    fn prune_keeps_working_behind_the_expiry_watermarks() {
        let at = SimTime::from_secs;
        let expiring = |u: &str, secs| {
            Metadata::builder("x", "FOX", uri(u))
                .ttl(SimDuration::from_secs(secs))
                .build()
        };
        let mut n = node(0, ProtocolSpec::MBT);
        n.seed_content(expiring("mbt://early", 10), Popularity::new(0.5), true);
        n.seed_content(expiring("mbt://late", 30), Popularity::new(0.5), true);
        n.add_query(Query::new("fox").unwrap(), Some(at(20)));
        n.reject(&expiring("mbt://fake", 25));

        n.prune(at(9));
        assert_eq!(
            (n.metadata.len(), n.files.len(), n.queries.len()),
            (2, 2, 1)
        );
        n.prune(at(10));
        assert_eq!(
            (n.metadata.len(), n.files.len(), n.queries.len()),
            (1, 1, 1)
        );
        assert_eq!(n.known_popularity(&uri("mbt://early")), Popularity::MIN);
        n.prune(at(20));
        assert_eq!(n.queries.len(), 0);
        assert!(n.rejected.contains(&uri("mbt://fake")));
        n.prune(at(25));
        assert!(!n.rejected.contains(&uri("mbt://fake")));
        // An entry added after a pass is still seen by the next one.
        n.add_query(Query::new("abc").unwrap(), Some(at(27)));
        n.prune(at(30));
        assert_eq!(
            (n.metadata.len(), n.files.len(), n.queries.len()),
            (0, 0, 0)
        );
        assert_eq!(n.known_popularity(&uri("mbt://late")), Popularity::MIN);
    }

    #[test]
    fn mbtq_contact_never_distributes_queries() {
        let mut nodes = vec![node(0, ProtocolSpec::MBT_Q), node(1, ProtocolSpec::MBT_Q)];
        nodes[0].set_frequent_contacts([NodeId::new(1)]);
        nodes[1].add_query(Query::new("fox news").unwrap(), None);
        let report = run_contact(
            &mut nodes,
            &[0, 1],
            SimTime::ZERO,
            SimDuration::from_secs(60),
        );
        assert_eq!(report.queries_distributed, 0);
        assert_eq!(nodes[0].queries.len(), 0);
    }

    #[test]
    fn contact_transfers_requested_metadata() {
        let mut nodes = vec![node(0, ProtocolSpec::MBT), node(1, ProtocolSpec::MBT)];
        let m = meta("fox evening news", "mbt://a");
        hold(&mut nodes[0], m);
        nodes[0].note_popularity_until(&uri("mbt://a"), Popularity::new(0.4), None);
        nodes[1].add_query(Query::new("evening news").unwrap(), None);
        let report = run_contact(
            &mut nodes,
            &[0, 1],
            SimTime::ZERO,
            SimDuration::from_secs(60),
        );
        assert_eq!(report.metadata_broadcasts, 1);
        assert!(nodes[1].has_metadata(&uri("mbt://a")));
        // Tit-for-tat bookkeeping ran on the receiver.
        assert_eq!(nodes[1].credits().credit_of(NodeId::new(0)), 5.0);
        let events = nodes[1].drain_events();
        assert!(matches!(
            events[0],
            NodeEvent::MetadataStored { from: Source::Peer(s), .. } if s == NodeId::new(0)
        ));
    }

    #[test]
    fn mbtqm_contact_sends_no_standalone_metadata() {
        let mut nodes = vec![node(0, ProtocolSpec::MBT_QM), node(1, ProtocolSpec::MBT_QM)];
        hold(&mut nodes[0], meta("fox news", "mbt://a"));
        nodes[1].add_query(Query::new("fox news").unwrap(), None);
        let report = run_contact(
            &mut nodes,
            &[0, 1],
            SimTime::ZERO,
            SimDuration::from_secs(60),
        );
        assert_eq!(report.metadata_broadcasts, 0);
        assert!(!nodes[1].has_metadata(&uri("mbt://a")));
    }

    #[test]
    fn contact_transfers_files_with_metadata_riding_along() {
        let mut nodes = vec![node(0, ProtocolSpec::MBT), node(1, ProtocolSpec::MBT)];
        hold(&mut nodes[0], meta("fox news", "mbt://a"));
        nodes[0].try_store_file(uri("mbt://a"), None);
        nodes[0].note_popularity_until(&uri("mbt://a"), Popularity::new(0.8), None);
        let report = run_contact(
            &mut nodes,
            &[0, 1],
            SimTime::ZERO,
            SimDuration::from_secs(60),
        );
        assert_eq!(report.file_broadcasts, 1);
        assert!(nodes[1].has_file(&uri("mbt://a")));
        assert!(
            nodes[1].has_metadata(&uri("mbt://a")),
            "metadata rides with the file"
        );
    }

    #[test]
    fn mbtqm_receives_files_by_popularity() {
        let mut nodes = vec![node(0, ProtocolSpec::MBT_QM), node(1, ProtocolSpec::MBT_QM)];
        hold(&mut nodes[0], meta("hot show", "mbt://hot"));
        hold(&mut nodes[0], meta("cold show", "mbt://cold"));
        for (u, p) in [("mbt://hot", 0.9), ("mbt://cold", 0.1)] {
            nodes[0].try_store_file(uri(u), None);
            nodes[0].note_popularity_until(&uri(u), Popularity::new(p), None);
        }
        // Budget of 1 file per contact: the popular one must win.
        for n in nodes.iter_mut() {
            n.config = MbtConfig::new().files_per_contact(1);
        }
        run_contact(
            &mut nodes,
            &[0, 1],
            SimTime::ZERO,
            SimDuration::from_secs(60),
        );
        assert!(nodes[1].has_file(&uri("mbt://hot")));
        assert!(!nodes[1].has_file(&uri("mbt://cold")));
    }

    #[test]
    fn clique_broadcast_reaches_all_members() {
        let mut nodes: Vec<MbtNode> = (0..4).map(|i| node(i, ProtocolSpec::MBT)).collect();
        hold(&mut nodes[0], meta("fox news", "mbt://a"));
        nodes[0].try_store_file(uri("mbt://a"), None);
        let report = run_contact(
            &mut nodes,
            &[0, 1, 2, 3],
            SimTime::ZERO,
            SimDuration::from_secs(3600),
        );
        // One metadata broadcast + one file broadcast serve all three peers.
        assert_eq!(report.metadata_broadcasts, 1);
        assert_eq!(report.file_broadcasts, 1);
        for n in &nodes[1..] {
            assert!(n.has_file(&uri("mbt://a")));
        }
    }

    #[test]
    fn short_contact_skips_file_phase_when_configured() {
        let mut nodes = vec![node(0, ProtocolSpec::MBT), node(1, ProtocolSpec::MBT)];
        for n in nodes.iter_mut() {
            n.config = MbtConfig::new().min_download_contact_secs(120);
        }
        hold(&mut nodes[0], meta("fox news", "mbt://a"));
        nodes[0].try_store_file(uri("mbt://a"), None);
        let report = run_contact(
            &mut nodes,
            &[0, 1],
            SimTime::ZERO,
            SimDuration::from_secs(30),
        );
        assert!(report.metadata_broadcasts > 0, "metadata still flows");
        assert_eq!(report.file_broadcasts, 0, "file phase skipped");
    }

    #[test]
    fn metadata_budget_respected() {
        let mut nodes = vec![node(0, ProtocolSpec::MBT), node(1, ProtocolSpec::MBT)];
        for i in 0..50 {
            let u = format!("mbt://f{i:02}");
            hold(&mut nodes[0], meta(&format!("show {i}"), &u));
        }
        for n in nodes.iter_mut() {
            n.config = MbtConfig::new().metadata_per_contact(5);
        }
        let report = run_contact(
            &mut nodes,
            &[0, 1],
            SimTime::ZERO,
            SimDuration::from_secs(60),
        );
        assert_eq!(report.metadata_broadcasts, 5);
        assert_eq!(nodes[1].metadata.len(), 5);
    }

    #[test]
    fn expired_content_dropped_before_exchange() {
        let mut nodes = vec![node(0, ProtocolSpec::MBT), node(1, ProtocolSpec::MBT)];
        let m = Metadata::builder("old news", "FOX", uri("mbt://old"))
            .ttl(SimDuration::from_secs(10))
            .build();
        hold(&mut nodes[0], m);
        run_contact(
            &mut nodes,
            &[0, 1],
            SimTime::from_secs(100),
            SimDuration::from_secs(60),
        );
        assert!(!nodes[1].has_metadata(&uri("mbt://old")));
        assert_eq!(nodes[0].metadata.len(), 0, "expired metadata pruned");
    }

    #[test]
    fn tit_for_tat_mode_runs() {
        let mut nodes = vec![node(0, ProtocolSpec::MBT), node(1, ProtocolSpec::MBT)];
        for n in nodes.iter_mut() {
            n.config = MbtConfig::new().cooperation(CooperationMode::TitForTat);
        }
        hold(&mut nodes[0], meta("fox news", "mbt://a"));
        nodes[1].add_query(Query::new("fox news").unwrap(), None);
        let report = run_contact(
            &mut nodes,
            &[0, 1],
            SimTime::ZERO,
            SimDuration::from_secs(60),
        );
        assert_eq!(report.metadata_broadcasts, 1);
        assert!(nodes[1].has_metadata(&uri("mbt://a")));
    }

    #[test]
    fn forged_metadata_rejected_and_blacklisted() {
        use crate::auth::{sign, PublisherKey};
        let registry = {
            let mut r = crate::auth::KeyRegistry::new();
            r.register("FOX", PublisherKey::derive(b"master", "FOX"));
            r
        };
        let mut nodes = vec![node(0, ProtocolSpec::MBT), node(1, ProtocolSpec::MBT)];
        nodes[1].set_key_registry(registry);

        // Node 0 (no registry — could itself be the adversary) carries a
        // forged record matching node 1's query.
        let mut forged = meta("fox breaking news", "mbt://fake");
        sign(&mut forged, &PublisherKey::derive(b"attacker", "FOX"));
        nodes[0].seed_content(forged, Popularity::MAX, false);
        let _ = nodes[0].drain_events();
        nodes[1].add_query(Query::new("breaking news").unwrap(), None);

        run_contact(
            &mut nodes,
            &[0, 1],
            SimTime::ZERO,
            SimDuration::from_secs(60),
        );
        assert!(!nodes[1].has_metadata(&uri("mbt://fake")), "forgery stored");
        assert!(
            nodes[1].rejected.contains(&uri("mbt://fake")),
            "forgery not blacklisted"
        );

        // A second contact no longer offers the fake: no metadata broadcast.
        let report = run_contact(
            &mut nodes,
            &[0, 1],
            SimTime::from_secs(100),
            SimDuration::from_secs(60),
        );
        assert_eq!(report.metadata_broadcasts, 0, "blacklisted item re-offered");
    }

    #[test]
    fn authentic_metadata_passes_verification_path() {
        use crate::auth::{sign, PublisherKey};
        let key = PublisherKey::derive(b"master", "FOX");
        let registry = {
            let mut r = crate::auth::KeyRegistry::new();
            r.register("FOX", key.clone());
            r
        };
        let mut nodes = vec![node(0, ProtocolSpec::MBT), node(1, ProtocolSpec::MBT)];
        nodes[1].set_key_registry(registry);
        let mut real = meta("fox breaking news", "mbt://real");
        sign(&mut real, &key);
        nodes[0].seed_content(real, Popularity::new(0.5), true);
        let _ = nodes[0].drain_events();
        nodes[1].add_query(Query::new("breaking news").unwrap(), None);
        run_contact(
            &mut nodes,
            &[0, 1],
            SimTime::ZERO,
            SimDuration::from_secs(60),
        );
        assert!(nodes[1].has_metadata(&uri("mbt://real")));
        assert!(nodes[1].has_file(&uri("mbt://real")));
        assert!(!nodes[1].rejected.contains(&uri("mbt://real")));
    }

    #[test]
    fn seed_content_populates_stores_and_events() {
        let mut n0 = node(0, ProtocolSpec::MBT);
        n0.seed_content(meta("x", "mbt://x"), Popularity::new(0.7), true);
        assert!(n0.has_metadata(&uri("mbt://x")));
        assert!(n0.has_file(&uri("mbt://x")));
        assert_eq!(n0.known_popularity(&uri("mbt://x")).value(), 0.7);
        assert_eq!(n0.drain_events().len(), 2);
        // Idempotent: re-seeding emits nothing new.
        n0.seed_content(meta("x", "mbt://x"), Popularity::new(0.7), true);
        assert!(n0.drain_events().is_empty());
    }

    /// A node querying "news" that takes in `m` from peer 7.
    fn receive(m: &Metadata, popularity: f64, credited: bool) -> (MbtNode, bool) {
        let mut n = node(0, ProtocolSpec::MBT);
        n.add_query(Query::new("news").unwrap(), None);
        let peer = Source::Peer(NodeId::new(7));
        let stored = n.store_record(m, Popularity::new(popularity), peer, credited);
        (n, stored)
    }

    #[test]
    fn a_new_matched_record_pays_its_sender_five_and_is_wanted() {
        let (n, stored) = receive(&meta("fox news", "mbt://a"), 0.9, true);
        assert!(stored);
        assert_eq!(n.credits.credit_of(NodeId::new(7)), 5.0);
        assert_eq!(n.wanted_uris(), [uri("mbt://a")]);
    }

    #[test]
    fn a_new_unmatched_record_pays_its_popularity_and_is_not_wanted() {
        let (n, stored) = receive(&meta("abc comedy", "mbt://b"), 0.4, true);
        assert!(stored);
        assert!((n.credits.credit_of(NodeId::new(7)) - 0.4).abs() < 1e-12);
        assert!(n.wanted_uris().is_empty());
    }

    #[test]
    fn a_duplicate_record_pays_nothing_and_emits_nothing() {
        let m = meta("fox news", "mbt://a");
        let (mut n, _) = receive(&m, 0.0, false);
        n.drain_events();
        let stored = n.store_record(&m, Popularity::MAX, Source::Peer(NodeId::new(7)), true);
        assert!(!stored);
        assert_eq!(n.credits.credit_of(NodeId::new(7)), 0.0);
        assert!(n.drain_events().is_empty());
        assert_eq!(n.known_popularity(m.uri()), Popularity::MAX, "still noted");
    }

    #[test]
    fn an_uncredited_record_is_stored_without_paying() {
        let (mut n, stored) = receive(&meta("fox news", "mbt://a"), 0.9, false);
        assert!(stored);
        assert_eq!(n.metadata.len(), 1);
        assert_eq!(n.credits.credit_of(NodeId::new(7)), 0.0);
        let from = Source::Peer(NodeId::new(7));
        let uri = uri("mbt://a");
        assert_eq!(n.drain_events(), [NodeEvent::MetadataStored { uri, from }]);
    }

    #[test]
    fn total_loss_blocks_all_transfers() {
        let mut nodes = vec![node(0, ProtocolSpec::MBT), node(1, ProtocolSpec::MBT)];
        for n in nodes.iter_mut() {
            n.config = MbtConfig::new().faults(dtn_sim::FaultPlan::none().loss(1.0));
        }
        hold(&mut nodes[0], meta("fox news", "mbt://a"));
        nodes[0].try_store_file(uri("mbt://a"), None);
        nodes[1].add_query(Query::new("fox news").unwrap(), None);
        run_contact(
            &mut nodes,
            &[0, 1],
            SimTime::ZERO,
            SimDuration::from_secs(60),
        );
        assert!(!nodes[1].has_metadata(&uri("mbt://a")));
        assert!(!nodes[1].has_file(&uri("mbt://a")));
    }

    #[test]
    fn zero_loss_is_lossless_and_rolls_are_deterministic() {
        let run_once = |loss: f64, seed: u64| {
            let mut nodes = vec![node(0, ProtocolSpec::MBT), node(1, ProtocolSpec::MBT)];
            for n in nodes.iter_mut() {
                n.config =
                    MbtConfig::new().faults(dtn_sim::FaultPlan::none().loss(loss).seed(seed));
            }
            for i in 0..10 {
                let u = format!("mbt://f{i}");
                hold(&mut nodes[0], meta(&format!("show {i}"), &u));
                nodes[0].try_store_file(uri(&u), None);
            }
            run_contact(
                &mut nodes,
                &[0, 1],
                SimTime::ZERO,
                SimDuration::from_secs(60),
            );
            nodes[1].files.len()
        };
        assert_eq!(run_once(0.0, 0), 4, "default budget of 4 files, no loss");
        let lossy_a = run_once(0.5, 7);
        let lossy_b = run_once(0.5, 7);
        assert_eq!(lossy_a, lossy_b, "loss rolls must be deterministic");
        assert!(lossy_a <= 4);
    }

    #[test]
    fn rarest_first_ordering_prefers_rare_files() {
        // Node 0 and node 1 both hold "common"; only node 0 holds "rare".
        // With one file slot, rarest-first broadcasts "rare" even though
        // "common" is more popular — two-phase would pick by popularity.
        let mk = |i: u32| {
            let mut n = node(i, ProtocolSpec::MBT_QM);
            n.config = MbtConfig::new()
                .files_per_contact(1)
                .ordering(crate::config::BroadcastOrdering::RarestFirst);
            n
        };
        let mut nodes = vec![mk(0), mk(1), mk(2)];
        for idx in [0usize, 1] {
            hold(&mut nodes[idx], meta("common show", "mbt://common"));
            nodes[idx].try_store_file(uri("mbt://common"), None);
            nodes[idx].note_popularity_until(&uri("mbt://common"), Popularity::new(0.9), None);
        }
        hold(&mut nodes[0], meta("rare show", "mbt://rare"));
        nodes[0].try_store_file(uri("mbt://rare"), None);
        nodes[0].note_popularity_until(&uri("mbt://rare"), Popularity::new(0.1), None);
        run_contact(
            &mut nodes,
            &[0, 1, 2],
            SimTime::ZERO,
            SimDuration::from_secs(600),
        );
        assert!(nodes[2].has_file(&uri("mbt://rare")));
        assert!(!nodes[2].has_file(&uri("mbt://common")));
    }

    #[test]
    #[should_panic(expected = "mixed protocols")]
    fn mixed_protocols_panic() {
        let mut nodes = vec![node(0, ProtocolSpec::MBT), node(1, ProtocolSpec::MBT_Q)];
        run_contact(
            &mut nodes,
            &[0, 1],
            SimTime::ZERO,
            SimDuration::from_secs(60),
        );
    }

    #[test]
    #[should_panic(expected = "mixed configurations")]
    fn mixed_configs_panic() {
        let mut nodes = vec![node(0, ProtocolSpec::MBT), node(1, ProtocolSpec::MBT)];
        nodes[1].config = MbtConfig::new().files_per_contact(1);
        run_contact(
            &mut nodes,
            &[0, 1],
            SimTime::ZERO,
            SimDuration::from_secs(60),
        );
    }

    #[test]
    #[should_panic(expected = "duplicate member")]
    fn duplicate_member_panics() {
        let mut nodes = vec![node(0, ProtocolSpec::MBT), node(1, ProtocolSpec::MBT)];
        run_contact(
            &mut nodes,
            &[0, 0],
            SimTime::ZERO,
            SimDuration::from_secs(60),
        );
    }

    #[test]
    fn a_contact_without_spans_is_the_contact_with_them() {
        // Both phase orders; a clique that moves metadata and a file.
        for discovery_first in [true, false] {
            let mut timed: Vec<MbtNode> = (0..3).map(|i| node(i, ProtocolSpec::MBT)).collect();
            for n in timed.iter_mut() {
                n.config = MbtConfig::new().discovery_first(discovery_first);
            }
            timed[0].seed_content(meta("fox news", "mbt://a"), Popularity::new(0.8), true);
            timed[1].add_query(Query::new("fox news").unwrap(), None);
            timed[1].set_frequent_contacts([NodeId::new(2)]);
            let mut plain = timed.clone();

            let (at, duration) = (SimTime::from_secs(10), SimDuration::from_secs(600));
            let mut scratch = ContactScratch::default();
            let mut spans = PhaseTimes::default();
            let with = run_contact_via(
                &mut SimTransport::new(),
                &mut timed,
                &[0, 1, 2],
                at,
                duration,
                Some(&mut spans),
                &mut scratch,
            );
            // The same scratch, as a run's next contact finds it.
            let without = run_contact_via(
                &mut SimTransport::new(),
                &mut plain,
                &[0, 1, 2],
                at,
                duration,
                None,
                &mut scratch,
            );
            assert!(with.metadata_transferred > 0 && with.file_broadcasts > 0);
            assert_eq!(with, without, "discovery_first {discovery_first}");
            for (a, b) in timed.iter_mut().zip(plain.iter_mut()) {
                assert_eq!(a.drain_events(), b.drain_events());
                assert_eq!(a.wanted_uris(), b.wanted_uris());
                assert_eq!(a.queries.len(), b.queries.len());
            }
        }
    }

    #[test]
    fn single_member_contact_is_noop() {
        let mut nodes = vec![node(0, ProtocolSpec::MBT)];
        let report = run_contact(&mut nodes, &[0], SimTime::ZERO, SimDuration::from_secs(60));
        assert!(report.is_zero());
    }

    fn pop_cache_node(i: u32, capacity: u32) -> MbtNode {
        let spec = ProtocolSpec::POP_CACHE
            .with_cache("PopCache-test", CachePolicy::PopularityRanked { capacity });
        MbtNode::new(NodeId::new(i), spec, MbtConfig::new())
    }

    #[test]
    fn popcache_evicts_lowest_popularity_when_full() {
        let mut n = pop_cache_node(0, 2);
        n.seed_content(meta("low show", "mbt://low"), Popularity::new(0.2), true);
        n.seed_content(meta("mid show", "mbt://mid"), Popularity::new(0.5), true);
        assert_eq!(n.files.len(), 2);
        // A more popular file displaces the lowest-ranked one.
        n.seed_content(meta("hot show", "mbt://hot"), Popularity::new(0.9), true);
        assert_eq!(n.files.len(), 2, "bound holds");
        assert!(!n.has_file(&uri("mbt://low")), "lowest-ranked evicted");
        assert!(n.has_file(&uri("mbt://mid")));
        assert!(n.has_file(&uri("mbt://hot")));
        // A less popular file than every resident is refused.
        n.seed_content(meta("dud show", "mbt://dud"), Popularity::new(0.1), true);
        assert!(!n.has_file(&uri("mbt://dud")), "unwanted low-score refused");
        assert_eq!(n.files.len(), 2);
    }

    #[test]
    fn popcache_never_evicts_own_wanted_files() {
        let mut n = pop_cache_node(0, 2);
        n.add_query(Query::new("fox news").unwrap(), None);
        // "mbt://want" matches the node's own query: protected despite its
        // rock-bottom popularity.
        n.seed_content(
            meta("fox news tonight", "mbt://want"),
            Popularity::MIN,
            true,
        );
        n.seed_content(
            meta("other show", "mbt://other"),
            Popularity::new(0.4),
            true,
        );
        n.seed_content(meta("hot show", "mbt://hot"), Popularity::new(0.9), true);
        assert!(n.has_file(&uri("mbt://want")), "wanted file survives");
        assert!(!n.has_file(&uri("mbt://other")), "unprotected file evicted");
        assert!(n.has_file(&uri("mbt://hot")));
    }

    #[test]
    fn popcache_refuses_when_every_resident_is_protected() {
        let mut n = pop_cache_node(0, 2);
        n.add_query(Query::new("fox news").unwrap(), None);
        n.seed_content(meta("fox news morning", "mbt://m"), Popularity::MIN, true);
        n.seed_content(meta("fox news evening", "mbt://e"), Popularity::MIN, true);
        n.seed_content(meta("hot show", "mbt://hot"), Popularity::MAX, true);
        assert!(
            !n.has_file(&uri("mbt://hot")),
            "no evictable victim: refuse"
        );
        assert!(n.has_file(&uri("mbt://m")));
        assert!(n.has_file(&uri("mbt://e")));
        assert_eq!(n.files.len(), 2);
    }

    #[test]
    fn popcache_contact_respects_bound() {
        let mut nodes = vec![pop_cache_node(0, 3), pop_cache_node(1, 3)];
        for i in 0..8 {
            let u = format!("mbt://f{i}");
            nodes[0].seed_content(
                meta(&format!("show {i}"), &u),
                Popularity::new(0.1 * f64::from(i)),
                true,
            );
        }
        assert_eq!(nodes[0].files.len(), 3, "seeding already bounded");
        run_contact(
            &mut nodes,
            &[0, 1],
            SimTime::ZERO,
            SimDuration::from_secs(600),
        );
        assert!(nodes[1].files.len() <= 3, "receiver bound holds");
    }

    #[test]
    fn diffuserep_prioritises_scarce_files_over_popular() {
        // Clique of 4: "common" is held by three members (availability 0.75,
        // smoothed estimate 0.375 ≥ threshold 0.35 → not scarce), "rare" by
        // one (estimate 0.125 → scarce). With one file slot, diffusion
        // seeding pulls the rare file; plain MBT broadcasts the popular one.
        let run = |spec: ProtocolSpec| {
            let mut nodes: Vec<MbtNode> = (0..4)
                .map(|i| {
                    let mut n = MbtNode::new(NodeId::new(i), spec, MbtConfig::new());
                    n.config = MbtConfig::new()
                        .files_per_contact(1)
                        .metadata_per_contact(0);
                    n
                })
                .collect();
            for idx in [0usize, 1, 2] {
                nodes[idx].seed_content(
                    meta("common show", "mbt://common"),
                    Popularity::new(0.9),
                    true,
                );
            }
            nodes[0].seed_content(meta("rare show", "mbt://rare"), Popularity::new(0.1), true);
            run_contact(
                &mut nodes,
                &[0, 1, 2, 3],
                SimTime::ZERO,
                SimDuration::from_secs(600),
            );
            (
                nodes[3].has_file(&uri("mbt://rare")),
                nodes[3].has_file(&uri("mbt://common")),
            )
        };
        assert_eq!(
            run(ProtocolSpec::MBT),
            (false, true),
            "MBT: popularity wins"
        );
        assert_eq!(
            run(ProtocolSpec::DIFFUSE_REP),
            (true, false),
            "DiffuseRep: scarcity wins"
        );
    }

    #[test]
    fn triad_spec_nodes_leave_new_state_empty() {
        let mut nodes = vec![node(0, ProtocolSpec::MBT), node(1, ProtocolSpec::MBT)];
        nodes[0].seed_content(meta("fox news", "mbt://a"), Popularity::new(0.8), true);
        nodes[1].add_query(Query::new("fox news").unwrap(), None);
        run_contact(
            &mut nodes,
            &[0, 1],
            SimTime::ZERO,
            SimDuration::from_secs(600),
        );
        for n in &nodes {
            assert!(
                n.availability.is_empty(),
                "triad never estimates availability"
            );
        }
    }

    #[test]
    fn wanted_uris_reflect_query_matches() {
        let mut n = node(0, ProtocolSpec::MBT);
        hold(&mut n, meta("fox news", "mbt://a"));
        hold(&mut n, meta("abc comedy", "mbt://b"));
        n.add_query(Query::new("fox news").unwrap(), None);
        assert_eq!(n.wanted_uris(), vec![uri("mbt://a")]);
        n.try_store_file(uri("mbt://a"), None);
        assert!(
            n.wanted_uris().is_empty(),
            "held files are no longer wanted"
        );
    }

    #[test]
    fn wanted_uris_follow_what_prune_drops() {
        let at = SimTime::from_secs;
        let expiring = |name: &str, u: &str, secs| {
            Metadata::builder(name, "pub", uri(u))
                .expires_at(Some(at(secs)))
                .build()
        };
        let mut n = node(0, ProtocolSpec::MBT);
        n.add_query(Query::new("news").unwrap(), Some(at(30)));
        n.add_query(Query::new("fox").unwrap(), None);
        hold(&mut n, expiring("fox news", "mbt://a", 40));
        hold(&mut n, expiring("abc news", "mbt://b", 40));
        hold(&mut n, expiring("fox show", "mbt://c", 20));
        assert_eq!(n.wanted_uris().len(), 3);

        // A file that expires before its record is wanted again.
        n.try_store_file(uri("mbt://a"), Some(at(10)));
        assert_eq!(n.wanted_uris(), [uri("mbt://b"), uri("mbt://c")]);
        n.prune(at(10));
        assert_eq!(n.wanted_uris().len(), 3, "the file expired, not the want");
        // An expired record is no longer wanted.
        n.prune(at(20));
        assert_eq!(n.wanted_uris(), [uri("mbt://a"), uri("mbt://b")]);
        // An expired query releases the URI no other query asks for.
        n.prune(at(30));
        assert_eq!(n.wanted_uris(), [uri("mbt://a")], "\"fox\" still asks");
        n.prune(at(40));
        assert!(n.wanted_uris().is_empty());
    }
}
