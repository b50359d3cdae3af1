//! A live session on one thread: nodes and a gateway as frame handlers.
//!
//! The trace-driven backends ([`SimTransport`](super::SimTransport),
//! [`BusTransport`](super::BusTransport)) run the contact loop's lock-step
//! exchange. This module runs the *same frame codec* one message at a time:
//! a node and the gateway are handlers that own no loop and never block, the
//! gateway answers searches from a [`ServerSnapshot`], and
//! [`run_live_session`] hands every frame queued on a [`LiveBus`] to its
//! receiver's handler while a connectivity schedule opens and closes links
//! the way a contact trace would. A contact ends when no frame is queued for
//! any handler, so nothing a handler could answer is in flight when its links
//! close. Frames sent on a closed link, or still queued at close for an id no
//! handler answers for, are dropped and counted — the live analogue of the
//! simulator's lost-frame faults.
//!
//! [`run_live_session`] is what the `mbt node` CLI mode and the soak test
//! build on; the `mbt gateway` mode sends one search over a [`LiveBus`] and
//! lets [`LiveGatewaySpec::serve_queued`] answer it.

use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use dtn_trace::NodeId;

use crate::checksum::{sha1, Digest};
use crate::file::FileAssembler;
use crate::metadata::Metadata;
use crate::piece::{Piece, PieceId};
use crate::popularity::Popularity;
use crate::query::Query;
use crate::server::ServerSnapshot;
use crate::uri::Uri;

use super::frame::{decode_frame, encode_frame, HelloFrame, WireMessage};

/// How many search results a gateway returns per query.
const GATEWAY_SEARCH_LIMIT: usize = 16;

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
    /// Directed in-flight encoded frames, keyed `(receiver, sender)` so the
    /// map's order is delivery order. A queue is removed once it empties.
    queues: BTreeMap<(NodeId, NodeId), VecDeque<Vec<u8>>>,
    seq: u64,
    frames_by_kind: BTreeMap<&'static str, u64>,
    frames_dropped: u64,
    bytes_on_wire: u64,
}

impl BusState {
    /// Pops the next decodable frame addressed to `me` — lowest sender
    /// first, FIFO per sender — dropping and counting undecodable ones.
    fn pop(&mut self, me: NodeId) -> Option<(NodeId, WireMessage)> {
        let mine = (me, NodeId::new(0))..=(me, NodeId::new(u32::MAX));
        while let Some((&(_, from), queue)) = self.queues.range_mut(mine.clone()).next() {
            let bytes = queue.pop_front().expect("an empty queue is removed");
            if queue.is_empty() {
                self.queues.remove(&(me, from));
            }
            match decode_frame(&bytes) {
                Ok(frame) => return Some((from, frame.message)),
                Err(_) => self.frames_dropped += 1,
            }
        }
        None
    }
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
    inner: Arc<Mutex<BusState>>,
}

impl LiveBus {
    /// Creates a bus with no open links.
    pub fn new() -> Self {
        LiveBus::default()
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, BusState> {
        self.inner.lock().expect("bus lock poisoned")
    }

    /// Opens the link between `a` and `b`.
    pub fn open(&self, a: NodeId, b: NodeId) {
        if a == b {
            return;
        }
        self.lock().links.insert(link(a, b));
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
        state.queues.entry((to, from)).or_default().push_back(bytes);
        true
    }

    /// Receives the next frame queued for `me`, or `None` if there is none.
    ///
    /// Frames are drained lowest sender id first, FIFO per sender.
    /// Undecodable frames are dropped, counted, and skipped. Every sender
    /// runs on the caller's thread, so there is nothing to wait for:
    /// `_timeout` is unused and kept only for the signature's callers.
    pub fn recv(&self, me: NodeId, _timeout: Duration) -> Option<(NodeId, WireMessage)> {
        self.lock().pop(me)
    }

    /// The ids with at least one frame queued for them, ascending.
    fn receivers(&self) -> Vec<NodeId> {
        let mut ids: Vec<NodeId> = self.lock().queues.keys().map(|&(to, _)| to).collect();
        ids.dedup();
        ids
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
    /// Contacts in order: each entry's members get pairwise links and greet
    /// each other, frames flow until none is queued, then the links close
    /// (the contact ends).
    pub schedule: Vec<Vec<NodeId>>,
}

/// What a live session produced.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LiveReport {
    /// Per node, the files it fully assembled and their SHA-1 digests.
    pub deliveries: BTreeMap<NodeId, BTreeMap<Uri, Digest>>,
    /// Bus counters at session end.
    pub stats: LiveStats,
}

/// Piece `index` of a file whose bytes are `content`, cut at `piece_size`.
/// It copies that one chunk, so serving a whole file costs its size, not
/// its size times its piece count.
fn piece_of(uri: &Uri, content: &[u8], piece_size: u64, index: u32) -> Option<Piece> {
    let piece_size = usize::try_from(piece_size).ok()?;
    let chunk = content.chunks(piece_size).nth(index as usize)?;
    Some(Piece::new(PieceId::new(uri.clone(), index), chunk.to_vec()))
}

/// What one node knows.
#[derive(Default)]
struct NodeState {
    id: NodeId,
    queries: Vec<Query>,
    metadata: BTreeMap<Uri, Metadata>,
    content: BTreeMap<Uri, Vec<u8>>,
    assembling: BTreeMap<Uri, FileAssembler>,
    deliveries: BTreeMap<Uri, Digest>,
    /// What each peer asked for in its hello. Kept so a file completed
    /// *after* the hello is still served — which makes the frame counts a
    /// function of the spec, not of delivery order.
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
        self.assembling.insert(uri, assembler);
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
                    piece_of(&uri, self.content.get(&uri)?, meta.piece_size(), index)
                });
                if let Some(piece) = piece {
                    bus.send(self.id, from, &WireMessage::Piece(piece));
                }
            }
            WireMessage::Piece(piece) => {
                let uri = piece.id().uri().clone();
                let Some(assembler) = self.assembling.get_mut(&uri) else {
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
}

impl LiveGatewaySpec {
    /// Answers every frame queued for the gateway, then returns. A session
    /// interleaves the gateway with its nodes; `mbt gateway` sends one probe
    /// search and calls this instead.
    pub fn serve_queued(&self, bus: &LiveBus) {
        while let Some((from, message)) = bus.recv(self.id, Duration::ZERO) {
            self.handle(bus, from, message);
        }
    }

    fn results(&self, query: &Query, limit: usize) -> WireMessage {
        let results = self
            .snapshot
            .search(query, limit.clamp(1, GATEWAY_SEARCH_LIMIT))
            .into_iter()
            .map(|meta| {
                let pop = self.snapshot.popularity_of(meta.uri());
                (meta, pop)
            })
            .collect();
        WireMessage::SearchResults { results }
    }

    /// Answers hellos and searches from the snapshot and serves pieces of
    /// the files the gateway holds.
    fn handle(&self, bus: &LiveBus, from: NodeId, message: WireMessage) {
        let id = self.id;
        match message {
            WireMessage::Hello(hello) => {
                for (query, _) in hello.own_queries.iter() {
                    bus.send(id, from, &self.results(query, GATEWAY_SEARCH_LIMIT));
                }
                for uri in &hello.wanted {
                    if let Some(metadata) = self.snapshot.metadata_of(uri) {
                        let popularity = self.snapshot.popularity_of(uri);
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
                bus.send(id, from, &self.results(&query, limit as usize));
            }
            WireMessage::PieceRequest { uri, index } => {
                let piece = self.snapshot.metadata_of(&uri).and_then(|meta| {
                    piece_of(&uri, self.content.get(&uri)?, meta.piece_size(), index)
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
/// Each contact in the schedule opens pairwise links among its members, and
/// every member node greets every peer it is linked to — on every contact,
/// so a pair that meets again re-announces its queries and wanted files and
/// the gateway answers those queries again. Then every queued
/// frame goes to its receiver's handler — lowest receiver first, then lowest
/// sender, FIFO — until none is queued for any handler, and the links close.
/// The report is a function of the spec alone: every send in the node
/// protocol is deduplicated per (peer, item) and every hello is sent before
/// any frame is handled, so no delivery order changes a delivery, a digest
/// or a frame count.
pub fn run_live_session(spec: LiveSessionSpec) -> LiveReport {
    run_session(spec, |_| 0)
}

/// [`run_live_session`], with `pick` choosing which of the receivers that
/// have a frame queued (ascending) handles its next one.
fn run_session(spec: LiveSessionSpec, mut pick: impl FnMut(&[NodeId]) -> usize) -> LiveReport {
    let bus = LiveBus::new();
    let mut nodes: BTreeMap<NodeId, NodeState> = spec
        .nodes
        .into_iter()
        .map(|node| {
            let state = NodeState {
                id: node.id,
                queries: node.queries,
                ..NodeState::default()
            };
            (node.id, state)
        })
        .collect();
    let gateway = spec.gateway;
    let handlers: BTreeSet<NodeId> = nodes
        .keys()
        .copied()
        .chain(gateway.as_ref().map(|g| g.id))
        .collect();

    for members in &spec.schedule {
        let links: BTreeSet<(NodeId, NodeId)> = members
            .iter()
            .flat_map(|&a| members.iter().map(move |&b| (a, b)))
            .filter(|(a, b)| a < b)
            .collect();
        for &(a, b) in &links {
            bus.open(a, b);
        }
        for &(a, b) in &links {
            for (me, peer) in [(a, b), (b, a)] {
                if let Some(node) = nodes.get(&me) {
                    bus.send(me, peer, &WireMessage::Hello(node.hello()));
                }
            }
        }
        loop {
            let mut ready = bus.receivers();
            ready.retain(|id| handlers.contains(id));
            if ready.is_empty() {
                break;
            }
            let to = ready[pick(&ready)];
            let Some((from, message)) = bus.recv(to, Duration::ZERO) else {
                continue;
            };
            if let Some(node) = nodes.get_mut(&to) {
                node.handle(&bus, from, message);
            } else if let Some(gateway) = &gateway {
                gateway.handle(&bus, from, message);
            }
        }
        for &(a, b) in &links {
            bus.close(a, b);
        }
    }

    LiveReport {
        deliveries: nodes
            .into_iter()
            .map(|(id, node)| (id, node.deliveries))
            .collect(),
        stats: bus.stats(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::MetadataServer;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

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
        assert_eq!(bus.recv(n(1), Duration::ZERO), Some((n(0), msg.clone())));
        // Queued frame dropped at close.
        assert!(bus.send(n(0), n(1), &msg));
        bus.close(n(0), n(1));
        assert!(!bus.send(n(0), n(1), &msg), "closed link refuses sends");
        let stats = bus.stats();
        assert_eq!(stats.frames_dropped, 2);
        assert_eq!(stats.frames_by_kind["search"], 2);
        assert_eq!(bus.recv(n(1), Duration::ZERO), None);
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
        assert_eq!(bus.recv(n(5), Duration::ZERO), Some((n(1), from_one)));
        assert_eq!(bus.recv(n(5), Duration::ZERO), Some((n(2), from_two)));
    }

    #[test]
    fn a_piece_is_one_chunk_of_the_file() {
        let uri = Uri::new("mbt://x").unwrap();
        let content: Vec<u8> = (0..600u32).map(|i| i as u8).collect();
        let last = piece_of(&uri, &content, 256, 2).unwrap();
        assert_eq!(*last.id(), PieceId::new(uri.clone(), 2));
        assert_eq!(last.data(), &content[512..]);
        assert_eq!(
            piece_of(&uri, &content, 256, 0).unwrap().data(),
            &content[..256]
        );
        assert_eq!(piece_of(&uri, &content, 256, 3), None);
    }

    /// Three nodes and a gateway holding one 1 536-byte file per name, in
    /// 256-byte pieces; every node asks every query. Node 0 meets the
    /// gateway, then the three nodes meet.
    fn session(names: &[&str], queries: &[&str], gateway: u32) -> LiveSessionSpec {
        let mut server = MetadataServer::new(1);
        let mut content = BTreeMap::new();
        for (i, name) in names.iter().enumerate() {
            let uri = Uri::new(format!("mbt://live/{i}")).unwrap();
            let bytes: Vec<u8> = (0..1536).map(|b| (b * (i + 1) % 251) as u8).collect();
            let metadata = Metadata::builder(*name, "FOX", uri.clone())
                .content(&bytes, 256)
                .build();
            server.publish(metadata, Popularity::new(0.8));
            content.insert(uri, bytes);
        }
        let queries: Vec<Query> = queries.iter().map(|q| Query::new(*q).unwrap()).collect();
        LiveSessionSpec {
            nodes: (0..3)
                .map(|i| LiveNodeSpec {
                    id: n(i),
                    queries: queries.clone(),
                })
                .collect(),
            gateway: Some(LiveGatewaySpec {
                id: n(gateway),
                snapshot: server.snapshot(),
                content,
            }),
            schedule: vec![vec![n(0), n(gateway)], vec![n(0), n(1), n(2)]],
        }
    }

    #[test]
    fn any_delivery_order_gives_the_same_report() {
        let soak = || session(&["fox evening news"], &["evening news"], 100);
        // Node 0 meets the gateway twice: it greets again, and the gateway
        // answers its query again, before the three nodes meet.
        let mut repeat = soak();
        repeat.schedule.insert(0, vec![n(0), n(100)]);
        let shapes = [
            // `tests/transport_soak.rs`: one file, one query.
            (soak(), 1, [7, 1, 6, 18, 18]),
            (repeat, 1, [8, 2, 6, 18, 18]),
            // `mbt node`'s default: two files, a query for each.
            (
                session(
                    &["live news feed0", "live news feed1"],
                    &["news feed0", "news feed1"],
                    103,
                ),
                2,
                [7, 2, 12, 36, 36],
            ),
        ];
        for (spec, files, frames) in shapes {
            let fixed = run_live_session(spec.clone());
            assert_eq!(fixed.stats.frames_dropped, 0);
            assert!(fixed.deliveries.values().all(|d| d.len() == files));
            let kinds = [
                "hello",
                "search-results",
                "metadata",
                "piece-request",
                "piece",
            ];
            assert_eq!(
                fixed.stats.frames_by_kind,
                kinds.into_iter().zip(frames).collect::<BTreeMap<_, _>>()
            );
            let mut reordered = 0;
            for seed in 0..64 {
                let mut rng = StdRng::seed_from_u64(seed);
                let report = run_session(spec.clone(), |ready| {
                    let i = rng.gen_range(0..ready.len());
                    reordered += usize::from(i != 0);
                    i
                });
                assert_eq!(report, fixed, "seed {seed} changed the report");
            }
            assert!(reordered > 0, "no seed reordered delivery");
        }
    }
}
