//! The live runtime: a session of [`MbtNode`] contacts whose messages cross
//! a [`BusTransport`] as frames, and a [`LiveBus`] of open links and queued
//! frames.
//!
//! [`LiveTransport`] is a [`BusTransport`] plus what a live session adds:
//! it counts frames by kind, and follows a file broadcast with the file's
//! bytes as [`Piece`](crate::piece::Piece) frames that the receiver
//! reassembles and checks against the riding metadata.
//! [`run_live_session`] runs a scripted schedule of contacts through
//! [`run_contact_via`] over that backend, so a live node *is* the
//! simulator's node: the same hello, metadata and file phases (§III–V), the
//! same protocol variants, credits and fault plans. A frame that fails its
//! check is dropped and counted.
//!
//! [`run_live_session`] is what the `mbt node` CLI mode and the soak test
//! build on; a live session never builds a [`LiveBus`].

use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use dtn_sim::telemetry::Counters;
use dtn_trace::{NodeId, SimDuration, SimTime};

use crate::checksum::{sha1, Digest};
use crate::file::FileAssembler;
use crate::metadata::Metadata;
use crate::node::{run_contact_via, ContactScratch, MbtNode, NodeEvent, Source};
use crate::piece::split_into_pieces;
use crate::uri::Uri;

use super::frame::{decode_frame, encode_frame, WireMessage};
use super::{BusTransport, Transport};

/// How long each scheduled contact of a live session lasts; contact `k`
/// opens at `k` times this.
const CONTACT: SimDuration = SimDuration::from_hours(1);

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
}

/// A cloneable handle to a shared in-process frame bus.
///
/// Every message sent through the bus is encoded into its wire frame and
/// decoded by the receiver, so it exercises exactly the codec the
/// simulator's byte accounting models. Links are opened and closed by the
/// caller; sends on closed links and frames still queued at close are
/// dropped.
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

    /// Closes the link between `a` and `b`, dropping any frames still in
    /// flight in either direction.
    pub fn close(&self, a: NodeId, b: NodeId) {
        let mut state = self.lock();
        state.links.remove(&link(a, b));
        state.queues.remove(&(a, b));
        state.queues.remove(&(b, a));
    }

    /// Sends `message` from `from` to `to`. Returns `false` (and drops the
    /// message) if the link is closed.
    pub fn send(&self, from: NodeId, to: NodeId, message: &WireMessage) -> bool {
        let mut state = self.lock();
        if !state.links.contains(&link(from, to)) {
            return false;
        }
        let bytes = encode_frame(from, to, state.seq, message);
        state.seq += 1;
        state.queues.entry((to, from)).or_default().push_back(bytes);
        true
    }

    /// Receives the next frame queued for `me`, or `None` if there is none.
    ///
    /// Frames are drained lowest sender id first, FIFO per sender.
    /// Undecodable frames are dropped and skipped. Every sender runs on the
    /// caller's thread, so there is nothing to wait for: `_timeout` is
    /// unused and kept only for the signature's callers.
    pub fn recv(&self, me: NodeId, _timeout: Duration) -> Option<(NodeId, WireMessage)> {
        let mut state = self.lock();
        let mine = (me, NodeId::new(0))..=(me, NodeId::new(u32::MAX));
        while let Some((&(_, from), queue)) = state.queues.range_mut(mine.clone()).next() {
            let bytes = queue.pop_front().expect("an empty queue is removed");
            if queue.is_empty() {
                state.queues.remove(&(me, from));
            }
            if let Ok(message) = decode_frame(&bytes) {
                return Some((from, message));
            }
        }
        None
    }
}

/// The live [`Transport`]: a [`BusTransport`] that counts frames by kind and
/// sends a broadcast file's bytes.
///
/// Every message, and every piece of a broadcast file, takes the bus's one
/// encode-and-check path. A file broadcast is followed by the file's
/// published bytes as [`Piece`](crate::piece::Piece) frames, cut at the
/// riding metadata's piece size; the receiver's [`FileAssembler`] checks
/// each against the metadata's checksums, and the SHA-1 of the reassembled
/// bytes is the delivery's digest. A broadcast whose pieces cannot be cut
/// (no riding metadata, no published bytes) or fail to check does not
/// arrive.
///
/// A node broadcasts only a file it holds, and in a live session it holds
/// one only if it was seeded with it or reassembled it here — so the
/// published bytes are the sender's bytes.
#[derive(Debug, Default)]
pub struct LiveTransport {
    bus: BusTransport,
    /// Frames sent, by frame kind name (`"hello"`, `"piece"`, ...).
    frames_by_kind: BTreeMap<&'static str, u64>,
    /// The published bytes of each file.
    content: BTreeMap<Uri, Vec<u8>>,
    /// The digest of each file a receiver reassembled, by (receiver, URI).
    assembled: BTreeMap<(NodeId, Uri), Digest>,
}

impl LiveTransport {
    /// A transport on a fresh bus, serving the published `content` of each
    /// file by URI.
    pub fn new(content: BTreeMap<Uri, Vec<u8>>) -> Self {
        LiveTransport {
            content,
            ..LiveTransport::default()
        }
    }

    /// The bus's counters (see [`BusTransport::counters`]).
    pub fn counters(&self) -> &Counters {
        self.bus.counters()
    }

    /// Counts `message`'s frame and carries it over the bus.
    fn hop(&mut self, sender: NodeId, receiver: NodeId, message: &WireMessage) -> bool {
        *self
            .frames_by_kind
            .entry(message.kind().name())
            .or_insert(0) += 1;
        self.bus.carry(sender, receiver, message)
    }

    /// Sends the bytes of `uri` as pieces and reassembles them at `receiver`
    /// against `metadata`: the SHA-1 of the file, or `None` if a piece
    /// cannot be cut, does not arrive or fails its checksum.
    fn send_file(
        &mut self,
        sender: NodeId,
        receiver: NodeId,
        uri: &Uri,
        metadata: Option<&Metadata>,
    ) -> Option<Digest> {
        let metadata = metadata?;
        let piece_size = usize::try_from(metadata.piece_size()).ok()?;
        let pieces = split_into_pieces(uri, self.content.get(uri)?, piece_size);
        let mut assembler = FileAssembler::new(metadata.clone());
        for sent in pieces.into_iter().map(WireMessage::Piece) {
            if !self.hop(sender, receiver, &sent) {
                return None;
            }
            if let WireMessage::Piece(piece) = sent {
                assembler.add_piece(piece).ok()?;
            }
        }
        assembler.assemble().map(|file| sha1(&file))
    }
}

impl Transport for LiveTransport {
    fn carry(&mut self, sender: NodeId, receiver: NodeId, message: &WireMessage) -> bool {
        if !self.hop(sender, receiver, message) {
            return false;
        }
        if let WireMessage::FileBroadcast { uri, metadata } = message {
            let riding = metadata.as_ref().map(|(m, _)| m);
            let Some(digest) = self.send_file(sender, receiver, uri, riding) else {
                return false;
            };
            self.assembled.insert((receiver, uri.clone()), digest);
        }
        true
    }
}

/// A scripted live session: the nodes, the bytes of the files they serve,
/// and which contacts happen.
#[derive(Debug, Clone)]
pub struct LiveSessionSpec {
    /// The participating nodes, all on one protocol and cooperation mode. A
    /// node seeded with a file (`seed_content(.., true)`) serves it: seeded
    /// with every file, it is the session's gateway.
    pub nodes: Vec<MbtNode>,
    /// The published bytes of every file a node is seeded with, by URI.
    pub content: BTreeMap<Uri, Vec<u8>>,
    /// Contacts in order, each a list of distinct node ids: contact `k`
    /// opens at hour `k` and lasts an hour, and its members run one
    /// [`run_contact_via`] over the bus.
    pub schedule: Vec<Vec<NodeId>>,
}

/// What a live session produced.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LiveReport {
    /// Per node, the files it completed from a peer in the session and the
    /// SHA-1 digests of the bytes it reassembled.
    pub deliveries: BTreeMap<NodeId, BTreeMap<Uri, Digest>>,
    /// Frames sent, by frame kind name (`"hello"`, `"piece"`, ...).
    pub frames_by_kind: BTreeMap<&'static str, u64>,
    /// The bus's counters at session end (see [`BusTransport::counters`]).
    pub counters: Counters,
}

/// Runs a scripted live session to completion and reports what each node
/// delivered. Every step is a function of the spec, so two runs of one spec
/// give the same report.
///
/// # Panics
///
/// Panics if the schedule names a node not in `nodes` or one twice in a
/// contact, or if a contact mixes protocols (see [`run_contact_via`]).
pub fn run_live_session(spec: LiveSessionSpec) -> LiveReport {
    let LiveSessionSpec {
        mut nodes,
        content,
        schedule,
    } = spec;
    let mut transport = LiveTransport::new(content);
    run_schedule(&mut transport, &mut nodes, &schedule);
    let deliveries = nodes
        .iter_mut()
        .map(|node| {
            let id = node.id();
            let files = node
                .drain_events()
                .into_iter()
                .filter_map(|event| match event {
                    NodeEvent::FileCompleted {
                        uri,
                        from: Source::Peer(_),
                    } => {
                        let digest = transport.assembled[&(id, uri.clone())];
                        Some((uri, digest))
                    }
                    _ => None,
                })
                .collect();
            (id, files)
        })
        .collect();
    LiveReport {
        deliveries,
        counters: *transport.counters(),
        frames_by_kind: transport.frames_by_kind,
    }
}

/// Runs each scheduled contact through [`run_contact_via`] over `transport`.
fn run_schedule(transport: &mut dyn Transport, nodes: &mut [MbtNode], schedule: &[Vec<NodeId>]) {
    let index: BTreeMap<NodeId, usize> = nodes
        .iter()
        .enumerate()
        .map(|(i, node)| (node.id(), i))
        .collect();
    let mut scratch = ContactScratch::default();
    for (k, contact) in schedule.iter().enumerate() {
        let members: Vec<usize> = contact.iter().map(|id| index[id]).collect();
        let now = SimTime::from_secs(k as u64 * CONTACT.as_secs());
        run_contact_via(transport, nodes, &members, now, CONTACT, None, &mut scratch);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::MbtConfig;
    use crate::popularity::Popularity;
    use crate::protocol::ProtocolSpec;
    use crate::query::Query;
    use crate::transport::SimTransport;
    use dtn_sim::FaultPlan;

    fn n(i: u32) -> NodeId {
        NodeId::new(i)
    }

    #[test]
    fn send_recv_and_close_drop_what_is_in_flight() {
        let bus = LiveBus::new();
        bus.open(n(0), n(1));
        let msg = WireMessage::QueryShare {
            owner: n(0),
            query: Query::new("news").unwrap(),
            expires: None,
        };
        assert!(bus.send(n(0), n(1), &msg));
        assert_eq!(bus.recv(n(1), Duration::ZERO), Some((n(0), msg.clone())));
        // Queued frame dropped at close.
        assert!(bus.send(n(0), n(1), &msg));
        bus.close(n(0), n(1));
        assert!(!bus.send(n(0), n(1), &msg), "closed link refuses sends");
        assert_eq!(bus.recv(n(1), Duration::ZERO), None);
    }

    #[test]
    fn recv_drains_lowest_sender_first() {
        let bus = LiveBus::new();
        bus.open(n(2), n(5));
        bus.open(n(1), n(5));
        let from_two = WireMessage::FileBroadcast {
            uri: Uri::new("mbt://a").unwrap(),
            metadata: None,
        };
        let from_one = WireMessage::FileBroadcast {
            uri: Uri::new("mbt://b").unwrap(),
            metadata: None,
        };
        bus.send(n(2), n(5), &from_two);
        bus.send(n(1), n(5), &from_one);
        assert_eq!(bus.recv(n(5), Duration::ZERO), Some((n(1), from_one)));
        assert_eq!(bus.recv(n(5), Duration::ZERO), Some((n(2), from_two)));
    }

    /// Two 1 536-byte files in 256-byte pieces held by gateway 100; nodes 0,
    /// 1 and 2 query one each and nodes 1 and 2 are each other's frequent
    /// contacts. Node 0 meets the gateway, the three nodes meet, node 2
    /// meets the gateway and then node 1.
    fn session(protocol: ProtocolSpec, faults: FaultPlan) -> LiveSessionSpec {
        let config = MbtConfig::new().faults(faults);
        let mut gateway = MbtNode::new(n(100), protocol, config.clone());
        let mut content = BTreeMap::new();
        for (i, name) in ["fox evening news", "abc morning show"].iter().enumerate() {
            let uri = Uri::new(format!("mbt://live/{i}")).unwrap();
            let bytes: Vec<u8> = (0..1536).map(|b| (b * (i + 1) % 251) as u8).collect();
            let metadata = Metadata::builder(*name, "FOX", uri.clone())
                .content(&bytes, 256)
                .build();
            gateway.seed_content(metadata, Popularity::new(0.8 - 0.2 * i as f64), true);
            content.insert(uri, bytes);
        }
        let mut nodes: Vec<MbtNode> = (0..3)
            .map(|i| MbtNode::new(n(i), protocol, config.clone()))
            .collect();
        for (node, query) in nodes
            .iter_mut()
            .zip(["evening news", "morning show", "news"])
        {
            node.add_query(Query::new(query).unwrap(), None);
        }
        nodes[1].set_frequent_contacts([n(2)]);
        nodes[2].set_frequent_contacts([n(1)]);
        nodes.push(gateway);
        LiveSessionSpec {
            nodes,
            content,
            schedule: vec![
                vec![n(0), n(100)],
                vec![n(0), n(1), n(2)],
                vec![n(2), n(100)],
                vec![n(1), n(2)],
            ],
        }
    }

    /// A live session's nodes go through exactly what the simulator's do —
    /// for every built-in protocol, with and without a fault plan — and what
    /// they completed arrived as the published bytes.
    #[test]
    fn a_live_session_is_the_simulators_contacts() {
        let faulty = FaultPlan::none()
            .loss(0.2)
            .truncate(0.2)
            .corruption(0.2)
            .seed(7);
        for protocol in ProtocolSpec::builtin() {
            for faults in [FaultPlan::none(), faulty] {
                let spec = session(protocol, faults);
                let mut live_nodes = spec.nodes.clone();
                let mut sim_nodes = spec.nodes.clone();
                let mut live = LiveTransport::new(spec.content.clone());
                run_schedule(&mut live, &mut live_nodes, &spec.schedule);
                run_schedule(&mut SimTransport::new(), &mut sim_nodes, &spec.schedule);
                let events = |nodes: &mut [MbtNode]| -> Vec<Vec<NodeEvent>> {
                    nodes.iter_mut().map(MbtNode::drain_events).collect()
                };
                let name = protocol.name();
                assert_eq!(
                    events(&mut live_nodes),
                    events(&mut sim_nodes),
                    "{name} under {faults:?}"
                );
                assert_eq!(live.counters().bus_frames_dropped, 0, "{name}");

                let report = run_live_session(spec.clone());
                let delivered: usize = report.deliveries.values().map(BTreeMap::len).sum();
                if faults.is_noop() {
                    assert!(delivered > 0, "{name} delivered nothing");
                }
                for files in report.deliveries.values() {
                    for (uri, digest) in files {
                        assert_eq!(*digest, sha1(&spec.content[uri]), "{name}: {uri}");
                    }
                }
            }
        }
    }

    #[test]
    fn a_broadcast_without_checkable_pieces_is_dropped() {
        let uri = Uri::new("mbt://x").unwrap();
        let bytes = vec![7u8; 600];
        let metadata = Metadata::builder("x", "FOX", uri.clone())
            .content(&bytes, 256)
            .build();
        let broadcast = |riding: Option<Metadata>| WireMessage::FileBroadcast {
            uri: uri.clone(),
            metadata: riding.map(|m| (m, Popularity::MIN)),
        };
        let mut tampered = bytes.clone();
        tampered[300] ^= 1;
        // Piece 1 of the tampered bytes fails its checksum: nothing after it
        // is sent. Without bytes or riding metadata no piece is cut.
        for (content, riding, pieces_sent) in [
            (Some(tampered), Some(metadata.clone()), Some(&2)),
            (None, Some(metadata.clone()), None),
            (Some(bytes.clone()), None, None),
        ] {
            let content = content.map(|c| (uri.clone(), c)).into_iter().collect();
            let mut live = LiveTransport::new(content);
            assert!(!live.carry(n(0), n(1), &broadcast(riding)));
            assert!(live.assembled.is_empty());
            assert_eq!(live.frames_by_kind.get("piece"), pieces_sent);
        }
        let mut live = LiveTransport::new(BTreeMap::from([(uri.clone(), bytes.clone())]));
        assert!(live.carry(n(0), n(1), &broadcast(Some(metadata))));
        assert_eq!(live.assembled[&(n(1), uri.clone())], sha1(&bytes));
        assert_eq!(live.frames_by_kind["piece"], 3);
        assert_eq!(live.counters().bus_frames_dropped, 0);
    }
}
