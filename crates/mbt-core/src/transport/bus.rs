//! The bus backend: every message round-trips its frame encoding over a
//! link-scheduled in-process bus. A frame costs one encode into a reused
//! buffer, two FNV-1a passes over its payload and one walk of its fields
//! against the sender's value, and allocates only when a field differs.

use std::collections::BTreeSet;

use dtn_trace::NodeId;

use super::frame::{check_frame, encode_frame_into};
use super::{Carried, Transport, WireMessage};

/// Normalized undirected link key.
fn link(a: NodeId, b: NodeId) -> (NodeId, NodeId) {
    if a <= b {
        (a, b)
    } else {
        (b, a)
    }
}

/// An in-process message bus driven by the contact trace as a connectivity
/// schedule.
///
/// [`join`](Transport::join) opens a link between every pair of contact
/// members and [`leave`](Transport::leave) closes them again. Carrying a
/// message serializes it into its wire frame, checksums it, and on the far
/// side validates the bytes and checks every field against the message
/// handed in. A frame whose fields all equal the sender's has proven the
/// codec carries it intact, and the receiver is given the sender's value
/// itself — sharing its `Arc`s exactly as under
/// [`SimTransport`](super::SimTransport); one that differs is decoded in full
/// and delivered as decoded, so a codec defect still surfaces as a state
/// divergence. Carrying is lock-step, so nothing is ever in flight and no
/// frame is kept. Delivery order is identical to
/// [`SimTransport`](super::SimTransport); the differential suite pins the two
/// backends byte-identical.
///
/// Carrying across a closed link returns [`Carried::Dropped`] — links only
/// exist while the connectivity schedule says the two nodes can hear each
/// other.
#[derive(Debug, Clone, Default)]
pub struct BusTransport {
    /// Open undirected links, keyed `(min, max)`.
    links: BTreeSet<(NodeId, NodeId)>,
    /// The frame being carried; its capacity outlives the frame.
    wire: Vec<u8>,
    seq: u64,
    frames_carried: u64,
    bytes_on_wire: u64,
    frames_dropped: u64,
    frames_rebuilt: u64,
}

impl BusTransport {
    /// Creates a bus with no open links.
    pub fn new() -> Self {
        BusTransport::default()
    }

    /// Frames successfully carried (encoded, moved, checked) so far.
    pub fn frames_carried(&self) -> u64 {
        self.frames_carried
    }

    /// Total encoded bytes moved across links (headers included).
    pub fn bytes_on_wire(&self) -> u64 {
        self.bytes_on_wire
    }

    /// Frames dropped: sent on closed links, or undecodable.
    pub fn frames_dropped(&self) -> u64 {
        self.frames_dropped
    }

    /// Carried frames whose check found a field that differs from the
    /// sender's, so they were decoded in full (zero for a sound codec).
    pub fn frames_rebuilt(&self) -> u64 {
        self.frames_rebuilt
    }

    /// Delivers `sent` once [`wire`](Self::wire) holds its frame.
    fn deliver(&mut self, sent: WireMessage) -> Carried {
        self.bytes_on_wire += self.wire.len() as u64;
        let Ok(rebuilt) = check_frame(&self.wire, &sent) else {
            self.frames_dropped += 1;
            return Carried::Dropped;
        };
        self.frames_carried += 1;
        self.frames_rebuilt += u64::from(rebuilt.is_some());
        Carried::Delivered(rebuilt.unwrap_or(sent))
    }
}

impl Transport for BusTransport {
    fn join(&mut self, members: &[NodeId]) {
        for (i, &a) in members.iter().enumerate() {
            for &b in &members[i + 1..] {
                if a != b {
                    self.links.insert(link(a, b));
                }
            }
        }
    }

    fn carry(&mut self, sender: NodeId, receiver: NodeId, message: WireMessage) -> Carried {
        if !self.links.contains(&link(sender, receiver)) {
            self.frames_dropped += 1;
            return Carried::Dropped;
        }
        encode_frame_into(&mut self.wire, sender, receiver, self.seq, &message);
        self.seq += 1;
        self.deliver(message)
    }

    fn leave(&mut self, members: &[NodeId]) {
        for (i, &a) in members.iter().enumerate() {
            for &b in &members[i + 1..] {
                self.links.remove(&link(a, b));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::Query;
    use crate::transport::{HelloFrame, FRAME_HEADER_BYTES};
    use crate::uri::Uri;
    use std::sync::Arc;

    fn n(i: u32) -> NodeId {
        NodeId::new(i)
    }

    fn msg() -> WireMessage {
        WireMessage::Search {
            query: Query::new("fox news").unwrap(),
            limit: 4,
        }
    }

    fn hello(own: &[&str], credit: f64) -> HelloFrame {
        HelloFrame {
            sender: n(1),
            own_queries: own
                .iter()
                .map(|t| (Query::new(*t).unwrap(), None))
                .collect(),
            foreign_queries: Vec::new(),
            wanted: BTreeSet::new(),
            rejected: BTreeSet::new(),
            frequent: [n(0)].into_iter().collect(),
            credits: vec![(n(0), credit)],
        }
    }

    /// A bus with the link 0–1 open and `on_wire` encoded in its buffer, as
    /// a codec that mangled the frame of some other message would leave it.
    fn bus_holding(on_wire: &WireMessage) -> BusTransport {
        let mut bus = BusTransport::new();
        bus.join(&[n(0), n(1)]);
        encode_frame_into(&mut bus.wire, n(1), n(0), 0, on_wire);
        bus
    }

    #[test]
    fn carry_round_trips_through_the_codec() {
        let mut bus = BusTransport::new();
        bus.join(&[n(0), n(1), n(2)]);
        assert!(bus.links.contains(&link(n(0), n(2))));
        assert_eq!(bus.carry(n(0), n(2), msg()), Carried::Delivered(msg()));
        assert_eq!(bus.frames_carried(), 1);
        assert!(bus.bytes_on_wire() > FRAME_HEADER_BYTES as u64);
        bus.leave(&[n(0), n(1), n(2)]);
        assert!(!bus.links.contains(&link(n(0), n(2))));
        assert_eq!(bus.frames_dropped(), 0);
    }

    #[test]
    fn closed_links_drop_frames() {
        let mut bus = BusTransport::new();
        bus.join(&[n(0), n(1)]);
        assert_eq!(
            bus.carry(n(0), n(2), msg()),
            Carried::Dropped,
            "no contact, no link"
        );
        bus.leave(&[n(0), n(1)]);
        assert_eq!(bus.carry(n(0), n(1), msg()), Carried::Dropped);
        assert_eq!(bus.frames_dropped(), 2);
        assert_eq!(bus.frames_carried(), 0);
    }

    #[test]
    fn piece_payloads_survive_the_wire() {
        use crate::piece::{Piece, PieceId};
        let mut bus = BusTransport::new();
        bus.join(&[n(0), n(1)]);
        let piece = Piece::new(
            PieceId::new(Uri::new("mbt://f").unwrap(), 1),
            (0..=255).collect(),
        );
        match bus.carry(n(0), n(1), WireMessage::Piece(piece.clone())) {
            Carried::Delivered(WireMessage::Piece(back)) => assert_eq!(back, piece),
            other => panic!("expected delivered piece, got {other:?}"),
        }
    }

    #[test]
    fn a_message_that_decodes_equal_is_delivered_as_the_senders_value() {
        let mut bus = BusTransport::new();
        bus.join(&[n(0), n(1)]);
        let sent = hello(&["fox news", "abc comedy"], 2.5);
        let own = Arc::clone(&sent.own_queries);
        match bus.carry(n(1), n(0), WireMessage::Hello(sent)) {
            Carried::Delivered(WireMessage::Hello(h)) => {
                assert!(Arc::ptr_eq(&h.own_queries, &own), "a decoded copy");
            }
            other => panic!("expected a delivered hello, got {other:?}"),
        }
        assert_eq!((bus.frames_carried(), bus.frames_rebuilt()), (1, 0));
    }

    #[test]
    fn a_message_that_decodes_different_is_delivered_as_decoded() {
        let sent = || WireMessage::Hello(hello(&["fox news", "abc comedy"], 2.5));
        let credit_bit = WireMessage::Hello(hello(
            &["fox news", "abc comedy"],
            f64::from_bits(2.5f64.to_bits() ^ 1),
        ));
        let query_text = WireMessage::Hello(hello(&["fox news", "abc drama"], 2.5));
        for on_wire in [credit_bit, query_text] {
            let mut bus = bus_holding(&on_wire);
            assert_eq!(bus.deliver(sent()), Carried::Delivered(on_wire));
            assert_eq!((bus.frames_carried(), bus.frames_rebuilt()), (1, 1));
        }

        // A NaN credit keeps its bits on the wire but equals nothing, so a
        // carried one arrives as the decoded copy, not the sender's lists.
        let mut bus = BusTransport::new();
        bus.join(&[n(0), n(1)]);
        let sent = hello(&["fox news"], f64::NAN);
        let own = Arc::clone(&sent.own_queries);
        match bus.carry(n(1), n(0), WireMessage::Hello(sent)) {
            Carried::Delivered(WireMessage::Hello(h)) => {
                assert!(!Arc::ptr_eq(&h.own_queries, &own));
                assert_eq!(h.own_queries, own);
                assert!(h.credits[0].1.is_nan());
            }
            other => panic!("expected a delivered hello, got {other:?}"),
        }
        assert_eq!(bus.frames_rebuilt(), 1);
    }

    #[test]
    fn a_damaged_frame_is_dropped() {
        let sent = WireMessage::Hello(hello(&["fox news"], 2.5));
        // A flipped payload bit fails the checksum; a set reserved byte is
        // malformed.
        for at in [FRAME_HEADER_BYTES + 9, 50] {
            let mut bus = bus_holding(&sent);
            bus.wire[at] ^= 1;
            assert_eq!(bus.deliver(sent.clone()), Carried::Dropped, "byte {at}");
            assert_eq!(
                (
                    bus.frames_dropped(),
                    bus.frames_carried(),
                    bus.frames_rebuilt()
                ),
                (1, 0, 0)
            );
        }
    }
}
