//! A threaded bus runtime: nodes and a gateway as real tasks.
//!
//! The trace-driven backends ([`SimTransport`](super::SimTransport),
//! [`BusTransport`](super::BusTransport)) run the contact loop's lock-step
//! exchange. This module runs the *same frame codec* asynchronously: each
//! node is an OS thread blocked on a [`LiveBus`] receive, a gateway answers
//! searches from a [`ServerSnapshot`], and a connectivity schedule opens and
//! closes links the way a contact trace would. Frames still queued when a
//! link closes are dropped and counted — the live analogue of the
//! simulator's lost-frame faults.
//!
//! [`run_live_session`] drives a complete scripted session and is what the
//! `mbt node` CLI mode and the wall-clock soak test build on; the `mbt
//! gateway` mode uses [`LiveBus`] directly with a probe node.

use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use dtn_trace::NodeId;

use crate::checksum::{sha1, Digest};
use crate::file::FileAssembler;
use crate::metadata::Metadata;
use crate::piece::split_into_pieces;
use crate::popularity::Popularity;
use crate::query::Query;
use crate::server::ServerSnapshot;
use crate::uri::Uri;

use super::frame::{decode_frame, encode_frame, HelloFrame, WireMessage};

/// How many search results a gateway returns per query.
const GATEWAY_SEARCH_LIMIT: usize = 16;

/// How long a node blocks on one receive before re-checking peers/shutdown.
const RECV_POLL: Duration = Duration::from_millis(5);

fn link(a: NodeId, b: NodeId) -> (NodeId, NodeId) {
    if a <= b {
        (a, b)
    } else {
        (b, a)
    }
}

#[derive(Debug, Default)]
struct BusState {
    /// Open undirected links, keyed `(min, max)`.
    links: BTreeSet<(NodeId, NodeId)>,
    /// Directed in-flight encoded frames, keyed `(sender, receiver)`.
    queues: BTreeMap<(NodeId, NodeId), VecDeque<Vec<u8>>>,
    seq: u64,
    frames_by_kind: BTreeMap<&'static str, u64>,
    frames_dropped: u64,
    bytes_on_wire: u64,
    /// Bumped on every send and every delivered receive; the session driver
    /// watches it to detect quiescence.
    activity: u64,
    shutdown: bool,
}

/// Counters a [`LiveBus`] has accumulated.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct LiveStats {
    /// Frames sent, by frame kind name (`"hello"`, `"piece"`, ...).
    pub frames_by_kind: BTreeMap<&'static str, u64>,
    /// Frames dropped: sent on closed links, undecodable, or in flight at
    /// link close.
    pub frames_dropped: u64,
    /// Total encoded bytes accepted onto links (headers included).
    pub bytes_on_wire: u64,
}

/// A cloneable handle to a shared in-process frame bus.
///
/// Every message sent through the bus is encoded into its wire frame and
/// decoded by the receiver, so the live runtime exercises exactly the codec
/// the simulator's byte accounting models. Links are opened and closed by
/// the session driver; sends on closed links and frames still queued at
/// close are dropped and counted.
#[derive(Debug, Clone, Default)]
pub struct LiveBus {
    inner: Arc<(Mutex<BusState>, Condvar)>,
}

impl LiveBus {
    /// Creates a bus with no open links.
    pub fn new() -> Self {
        LiveBus::default()
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, BusState> {
        self.inner.0.lock().expect("bus lock poisoned")
    }

    /// Opens the link between `a` and `b`; wakes blocked receivers so they
    /// notice the new peer.
    pub fn open(&self, a: NodeId, b: NodeId) {
        if a == b {
            return;
        }
        self.lock().links.insert(link(a, b));
        self.inner.1.notify_all();
    }

    /// Closes the link between `a` and `b`, dropping (and counting) any
    /// frames still in flight in either direction.
    pub fn close(&self, a: NodeId, b: NodeId) {
        let mut state = self.lock();
        state.links.remove(&link(a, b));
        for key in [(a, b), (b, a)] {
            if let Some(queue) = state.queues.remove(&key) {
                state.frames_dropped += queue.len() as u64;
            }
        }
        self.inner.1.notify_all();
    }

    /// The peers `me` currently shares an open link with, ascending.
    pub fn peers(&self, me: NodeId) -> Vec<NodeId> {
        self.lock()
            .links
            .iter()
            .filter_map(|&(a, b)| {
                if a == me {
                    Some(b)
                } else if b == me {
                    Some(a)
                } else {
                    None
                }
            })
            .collect()
    }

    /// Sends `message` from `from` to `to`. Returns `false` (and counts a
    /// drop) if the link is closed.
    pub fn send(&self, from: NodeId, to: NodeId, message: &WireMessage) -> bool {
        let mut state = self.lock();
        if !state.links.contains(&link(from, to)) {
            state.frames_dropped += 1;
            return false;
        }
        let bytes = encode_frame(from, to, state.seq, message);
        state.seq += 1;
        state.bytes_on_wire += bytes.len() as u64;
        *state
            .frames_by_kind
            .entry(message.kind().name())
            .or_insert(0) += 1;
        state.activity += 1;
        state.queues.entry((from, to)).or_default().push_back(bytes);
        drop(state);
        self.inner.1.notify_all();
        true
    }

    /// Receives the next frame addressed to `me`, blocking up to `timeout`.
    ///
    /// Frames are drained lowest sender id first, FIFO per sender. Returns
    /// `None` on timeout or shutdown. Undecodable frames are dropped,
    /// counted, and skipped.
    pub fn recv(&self, me: NodeId, timeout: Duration) -> Option<(NodeId, WireMessage)> {
        let deadline = Instant::now() + timeout;
        let mut state = self.lock();
        loop {
            if state.shutdown {
                return None;
            }
            let key = state
                .queues
                .iter()
                .find(|((_, to), queue)| *to == me && !queue.is_empty())
                .map(|(&key, _)| key);
            if let Some(key @ (from, _)) = key {
                let bytes = state
                    .queues
                    .get_mut(&key)
                    .and_then(VecDeque::pop_front)
                    .expect("queue was non-empty under the lock");
                match decode_frame(&bytes) {
                    Ok(frame) => {
                        state.activity += 1;
                        return Some((from, frame.message));
                    }
                    Err(_) => {
                        state.frames_dropped += 1;
                        continue;
                    }
                }
            }
            let now = Instant::now();
            if now >= deadline {
                return None;
            }
            let (next, timed_out) = self
                .inner
                .1
                .wait_timeout(state, deadline - now)
                .expect("bus lock poisoned");
            state = next;
            if timed_out.timed_out() && state.shutdown {
                return None;
            }
        }
    }

    /// Signals every thread on the bus to exit.
    pub fn shutdown(&self) {
        self.lock().shutdown = true;
        self.inner.1.notify_all();
    }

    /// True once [`shutdown`](Self::shutdown) has been called.
    pub fn is_shutdown(&self) -> bool {
        self.lock().shutdown
    }

    /// Snapshot of the bus counters.
    pub fn stats(&self) -> LiveStats {
        let state = self.lock();
        LiveStats {
            frames_by_kind: state.frames_by_kind.clone(),
            frames_dropped: state.frames_dropped,
            bytes_on_wire: state.bytes_on_wire,
        }
    }

    /// `(activity, all queues empty)` — the quiescence probe the session
    /// driver polls between schedule steps.
    fn quiescence(&self) -> (u64, bool) {
        let state = self.lock();
        let empty = state.queues.values().all(VecDeque::is_empty);
        (state.activity, empty)
    }
}

/// A participant node in a live session: an id plus the queries it wants
/// answered.
#[derive(Debug, Clone)]
pub struct LiveNodeSpec {
    /// The node's identity on the bus.
    pub id: NodeId,
    /// Queries this node tries to resolve into complete files.
    pub queries: Vec<Query>,
}

/// The gateway in a live session: answers searches from a server snapshot
/// and serves pieces of the files it holds.
#[derive(Debug, Clone)]
pub struct LiveGatewaySpec {
    /// The gateway's identity on the bus.
    pub id: NodeId,
    /// The metadata catalogue it answers searches from.
    pub snapshot: ServerSnapshot,
    /// Full file contents it can serve pieces of, by URI.
    pub content: BTreeMap<Uri, Vec<u8>>,
}

/// A scripted live session: who participates and which contacts happen.
#[derive(Debug, Clone)]
pub struct LiveSessionSpec {
    /// The participating nodes.
    pub nodes: Vec<LiveNodeSpec>,
    /// The gateway, if the session has one.
    pub gateway: Option<LiveGatewaySpec>,
    /// Contacts in order: each entry's members get pairwise links until the
    /// bus settles, then the links close (the contact ends).
    pub schedule: Vec<Vec<NodeId>>,
    /// How long the bus must stay quiet before a contact is considered
    /// settled and its links close.
    pub settle: Duration,
}

/// What a live session produced.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LiveReport {
    /// Per node, the files it fully assembled and their SHA-1 digests.
    pub deliveries: BTreeMap<NodeId, BTreeMap<Uri, Digest>>,
    /// Bus counters at session end.
    pub stats: LiveStats,
}

/// What one node thread knows.
struct NodeState {
    id: NodeId,
    queries: Vec<Query>,
    metadata: BTreeMap<Uri, Metadata>,
    content: BTreeMap<Uri, Vec<u8>>,
    assembling: BTreeMap<Uri, (FileAssembler, NodeId)>,
    deliveries: BTreeMap<Uri, Digest>,
    greeted: BTreeSet<NodeId>,
    /// What each greeted peer asked for in its hello. Kept so a file
    /// completed *after* the hello is still served — which makes the frame
    /// counts a function of the spec, not of thread timing.
    interests: BTreeMap<NodeId, (Vec<Query>, BTreeSet<Uri>)>,
    sent_meta: BTreeSet<(NodeId, Uri)>,
}

impl NodeState {
    fn hello(&self) -> HelloFrame {
        HelloFrame {
            sender: self.id,
            own_queries: self.queries.iter().map(|q| (q.clone(), None)).collect(),
            foreign_queries: Vec::new(),
            wanted: self.assembling.keys().cloned().collect(),
            rejected: BTreeSet::new(),
            frequent: Arc::default(),
            credits: Vec::new(),
        }
    }

    /// Records what `peer` asked for in its hello and serves every held
    /// match right away.
    fn serve_hello(&mut self, bus: &LiveBus, peer: NodeId, hello: HelloFrame) {
        let queries: Vec<Query> = hello
            .own_queries
            .iter()
            .map(|(q, _)| q.clone())
            .chain(hello.foreign_queries)
            .collect();
        self.interests.insert(peer, (queries, hello.wanted));
        self.serve_matches(bus, peer);
    }

    /// Sends `peer` the metadata of every held file matching its recorded
    /// interest, at most once per (peer, uri).
    fn serve_matches(&mut self, bus: &LiveBus, peer: NodeId) {
        let Some((queries, wanted)) = self.interests.get(&peer) else {
            return;
        };
        let mut offers: Vec<Uri> = Vec::new();
        for (uri, meta) in &self.metadata {
            if !self.content.contains_key(uri) {
                continue;
            }
            let queried = queries
                .iter()
                .any(|q| q.matches_token_set(meta.token_set()));
            if queried || wanted.contains(uri) {
                offers.push(uri.clone());
            }
        }
        for uri in offers {
            if !self.sent_meta.insert((peer, uri.clone())) {
                continue;
            }
            let metadata = self.metadata[&uri].clone();
            bus.send(
                self.id,
                peer,
                &WireMessage::Metadata {
                    metadata,
                    popularity: Popularity::MIN,
                },
            );
        }
    }

    /// Considers a received metadata: store it, and if it matches one of our
    /// queries and we lack the file, start assembling by requesting every
    /// missing piece from `from`.
    fn consider(&mut self, bus: &LiveBus, from: NodeId, metadata: Metadata) {
        let uri = metadata.uri().clone();
        self.metadata
            .entry(uri.clone())
            .or_insert_with(|| metadata.clone());
        let wanted = self
            .queries
            .iter()
            .any(|q| q.matches_token_set(metadata.token_set()));
        if !wanted || self.content.contains_key(&uri) || self.assembling.contains_key(&uri) {
            return;
        }
        let assembler = FileAssembler::new(metadata);
        for index in assembler.missing() {
            bus.send(
                self.id,
                from,
                &WireMessage::PieceRequest {
                    uri: uri.clone(),
                    index,
                },
            );
        }
        self.assembling.insert(uri, (assembler, from));
    }

    fn handle(&mut self, bus: &LiveBus, from: NodeId, message: WireMessage) {
        match message {
            WireMessage::Hello(hello) => self.serve_hello(bus, from, hello),
            WireMessage::Metadata { metadata, .. } => self.consider(bus, from, metadata),
            WireMessage::SearchResults { results } => {
                for (metadata, _) in results {
                    self.consider(bus, from, metadata);
                }
            }
            WireMessage::PieceRequest { uri, index } => {
                let piece = self.metadata.get(&uri).and_then(|meta| {
                    let data = self.content.get(&uri)?;
                    split_into_pieces(&uri, data, meta.piece_size() as usize)
                        .into_iter()
                        .nth(index as usize)
                });
                if let Some(piece) = piece {
                    bus.send(self.id, from, &WireMessage::Piece(piece));
                }
            }
            WireMessage::Piece(piece) => {
                let uri = piece.id().uri().clone();
                let Some((assembler, _)) = self.assembling.get_mut(&uri) else {
                    return;
                };
                if assembler.add_piece(piece).is_ok() && assembler.is_complete() {
                    let bytes = assembler.assemble().expect("complete file assembles");
                    self.deliveries.insert(uri.clone(), sha1(&bytes));
                    self.content.insert(uri.clone(), bytes);
                    self.assembling.remove(&uri);
                    // A freshly completed file may satisfy an interest a
                    // peer declared before we held it.
                    let peers: Vec<NodeId> = self.interests.keys().copied().collect();
                    for peer in peers {
                        self.serve_matches(bus, peer);
                    }
                }
            }
            // Nodes neither answer searches nor act on the trace-driven
            // broadcast kinds.
            WireMessage::Search { .. }
            | WireMessage::QueryShare { .. }
            | WireMessage::FileBroadcast { .. } => {}
        }
    }

    fn run(mut self, bus: LiveBus) -> BTreeMap<Uri, Digest> {
        while !bus.is_shutdown() {
            for peer in bus.peers(self.id) {
                if self.greeted.insert(peer) {
                    bus.send(self.id, peer, &WireMessage::Hello(self.hello()));
                }
            }
            if let Some((from, message)) = bus.recv(self.id, RECV_POLL) {
                self.handle(&bus, from, message);
            }
        }
        self.deliveries
    }
}

/// The gateway task: answers hellos and searches from its snapshot and
/// serves pieces of the files it holds. Blocks until the bus shuts down —
/// run it on its own thread (as [`run_live_session`] and the `mbt gateway`
/// CLI mode do).
pub fn run_gateway(spec: LiveGatewaySpec, bus: LiveBus) {
    let LiveGatewaySpec {
        id,
        snapshot,
        content,
    } = spec;
    let results_for = |query: &Query, limit: usize| -> WireMessage {
        let results = snapshot
            .search(query, limit.clamp(1, GATEWAY_SEARCH_LIMIT))
            .into_iter()
            .map(|meta| {
                let pop = snapshot.popularity_of(meta.uri());
                (meta, pop)
            })
            .collect();
        WireMessage::SearchResults { results }
    };
    while !bus.is_shutdown() {
        let Some((from, message)) = bus.recv(id, RECV_POLL) else {
            continue;
        };
        match message {
            WireMessage::Hello(hello) => {
                for (query, _) in hello.own_queries.iter() {
                    bus.send(id, from, &results_for(query, GATEWAY_SEARCH_LIMIT));
                }
                for uri in &hello.wanted {
                    if let Some(metadata) = snapshot.metadata_of(uri) {
                        let popularity = snapshot.popularity_of(uri);
                        bus.send(
                            id,
                            from,
                            &WireMessage::Metadata {
                                metadata,
                                popularity,
                            },
                        );
                    }
                }
            }
            WireMessage::Search { query, limit } => {
                bus.send(id, from, &results_for(&query, limit as usize));
            }
            WireMessage::PieceRequest { uri, index } => {
                let piece = snapshot.metadata_of(&uri).and_then(|meta| {
                    let data = content.get(&uri)?;
                    split_into_pieces(&uri, data, meta.piece_size() as usize)
                        .into_iter()
                        .nth(index as usize)
                });
                if let Some(piece) = piece {
                    bus.send(id, from, &WireMessage::Piece(piece));
                }
            }
            _ => {}
        }
    }
}

/// Runs a scripted live session to completion and reports what each node
/// delivered.
///
/// Each contact in the schedule opens pairwise links among its members, the
/// driver waits for the bus to stay quiet for `spec.settle` (capped at ten
/// seconds per contact), then the links close. After the last contact every
/// thread is shut down and joined. The outcome — which files each node
/// assembled, and their digests — is deterministic for a given spec; so are
/// the frame counts, because every send in the node protocol is deduplicated
/// per (peer, item).
pub fn run_live_session(spec: LiveSessionSpec) -> LiveReport {
    let bus = LiveBus::new();
    let mut handles = Vec::new();
    for node in &spec.nodes {
        let state = NodeState {
            id: node.id,
            queries: node.queries.clone(),
            metadata: BTreeMap::new(),
            content: BTreeMap::new(),
            assembling: BTreeMap::new(),
            deliveries: BTreeMap::new(),
            greeted: BTreeSet::new(),
            interests: BTreeMap::new(),
            sent_meta: BTreeSet::new(),
        };
        let bus = bus.clone();
        handles.push((node.id, std::thread::spawn(move || state.run(bus))));
    }
    let gateway = spec.gateway.map(|g| {
        let bus = bus.clone();
        std::thread::spawn(move || run_gateway(g, bus))
    });

    for members in &spec.schedule {
        for (i, &a) in members.iter().enumerate() {
            for &b in &members[i + 1..] {
                bus.open(a, b);
            }
        }
        // A contact ends when the bus has been quiet for the settle window.
        let cap = Instant::now() + Duration::from_secs(10);
        let (mut last_activity, _) = bus.quiescence();
        let mut quiet_since = Instant::now();
        loop {
            std::thread::sleep(Duration::from_millis(5));
            let (activity, empty) = bus.quiescence();
            let now = Instant::now();
            if activity != last_activity || !empty {
                last_activity = activity;
                quiet_since = now;
            }
            if now.duration_since(quiet_since) >= spec.settle || now >= cap {
                break;
            }
        }
        for (i, &a) in members.iter().enumerate() {
            for &b in &members[i + 1..] {
                bus.close(a, b);
            }
        }
    }

    bus.shutdown();
    let mut deliveries = BTreeMap::new();
    for (id, handle) in handles {
        deliveries.insert(id, handle.join().expect("node thread panicked"));
    }
    if let Some(handle) = gateway {
        handle.join().expect("gateway thread panicked");
    }
    LiveReport {
        deliveries,
        stats: bus.stats(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(i: u32) -> NodeId {
        NodeId::new(i)
    }

    #[test]
    fn send_recv_and_close_drop_accounting() {
        let bus = LiveBus::new();
        bus.open(n(0), n(1));
        let msg = WireMessage::Search {
            query: Query::new("news").unwrap(),
            limit: 1,
        };
        assert!(bus.send(n(0), n(1), &msg));
        assert_eq!(
            bus.recv(n(1), Duration::from_millis(100)),
            Some((n(0), msg.clone()))
        );
        // Queued frame dropped at close.
        assert!(bus.send(n(0), n(1), &msg));
        bus.close(n(0), n(1));
        assert!(!bus.send(n(0), n(1), &msg), "closed link refuses sends");
        let stats = bus.stats();
        assert_eq!(stats.frames_dropped, 2);
        assert_eq!(stats.frames_by_kind["search"], 2);
        bus.shutdown();
        assert_eq!(bus.recv(n(1), Duration::from_millis(100)), None);
    }

    #[test]
    fn recv_drains_lowest_sender_first() {
        let bus = LiveBus::new();
        bus.open(n(2), n(5));
        bus.open(n(1), n(5));
        let from_two = WireMessage::PieceRequest {
            uri: Uri::new("mbt://a").unwrap(),
            index: 0,
        };
        let from_one = WireMessage::PieceRequest {
            uri: Uri::new("mbt://b").unwrap(),
            index: 1,
        };
        bus.send(n(2), n(5), &from_two);
        bus.send(n(1), n(5), &from_one);
        assert_eq!(
            bus.recv(n(5), Duration::from_millis(100)),
            Some((n(1), from_one))
        );
        assert_eq!(
            bus.recv(n(5), Duration::from_millis(100)),
            Some((n(2), from_two))
        );
    }
}
