//! The bus backend: every message round-trips its frame encoding over an
//! in-process bus. A frame costs one encode into a reused buffer, two
//! word-at-a-time checksum passes over its payload and one walk of its
//! fields against the sender's value, which compares each text as bytes and
//! validates none that equals the sender's; it allocates only when a field
//! differs.

use dtn_sim::telemetry::Counters;
use dtn_trace::NodeId;

use super::frame::{check_frame, encode_frame_into};
use super::{Carried, Transport, WireMessage};

/// An in-process message bus.
///
/// Carrying a message serializes it into its wire frame, checksums it, and
/// on the far side validates the bytes and checks every field against the
/// message handed in. A frame whose fields all equal the sender's has proven
/// the codec carries it intact, and the receiver is given the sender's value
/// itself — sharing its `Arc`s exactly as under
/// [`SimTransport`](super::SimTransport); one that differs is decoded in full
/// and delivered as decoded, so a codec defect still surfaces as a state
/// divergence, and one that fails the check is [`Carried::Dropped`].
/// Carrying is lock-step, so nothing is ever in flight and no frame is kept.
/// Delivery order is identical to [`SimTransport`](super::SimTransport); the
/// differential suite pins the two backends byte-identical.
#[derive(Debug, Clone, Default)]
pub struct BusTransport {
    /// The frame being carried; its capacity outlives the frame.
    wire: Vec<u8>,
    seq: u64,
    /// Only the `bus_*` fields move.
    counters: Counters,
}

impl BusTransport {
    /// Creates a bus that has carried nothing.
    pub fn new() -> Self {
        BusTransport::default()
    }

    /// What the bus has done so far: frames carried, dropped and rebuilt,
    /// and the bytes put on the wire (headers included). Every other field
    /// is zero.
    pub fn counters(&self) -> &Counters {
        &self.counters
    }

    /// Delivers `sent` once [`wire`](Self::wire) holds its frame.
    fn deliver(&mut self, sent: WireMessage) -> Carried {
        let c = &mut self.counters;
        c.bus_bytes_on_wire += self.wire.len() as u64;
        let Ok(rebuilt) = check_frame(&self.wire, &sent) else {
            c.bus_frames_dropped += 1;
            return Carried::Dropped;
        };
        c.bus_frames_carried += 1;
        c.bus_frames_rebuilt += u64::from(rebuilt.is_some());
        Carried::Delivered(rebuilt.unwrap_or(sent))
    }
}

impl Transport for BusTransport {
    fn carry(&mut self, sender: NodeId, receiver: NodeId, message: WireMessage) -> Carried {
        encode_frame_into(&mut self.wire, sender, receiver, self.seq, &message);
        self.seq += 1;
        self.deliver(message)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::Query;
    use crate::transport::{HelloFrame, FRAME_HEADER_BYTES};
    use crate::uri::Uri;
    use std::collections::BTreeSet;
    use std::sync::Arc;

    fn n(i: u32) -> NodeId {
        NodeId::new(i)
    }

    fn msg() -> WireMessage {
        WireMessage::QueryShare {
            owner: n(1),
            query: Query::new("fox news").unwrap(),
            expires: None,
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

    fn carried_rebuilt(bus: &BusTransport) -> (u64, u64) {
        let c = bus.counters();
        (c.bus_frames_carried, c.bus_frames_rebuilt)
    }

    /// A bus with `on_wire` encoded in its buffer, as a codec that mangled
    /// the frame of some other message would leave it.
    fn bus_holding(on_wire: &WireMessage) -> BusTransport {
        let mut bus = BusTransport::new();
        encode_frame_into(&mut bus.wire, n(1), n(0), 0, on_wire);
        bus
    }

    #[test]
    fn carry_round_trips_through_the_codec() {
        let mut bus = BusTransport::new();
        assert_eq!(bus.carry(n(0), n(2), msg()), Carried::Delivered(msg()));
        let c = bus.counters();
        assert_eq!((c.bus_frames_carried, c.bus_frames_dropped), (1, 0));
        assert!(c.bus_bytes_on_wire > FRAME_HEADER_BYTES as u64);
    }

    #[test]
    fn piece_payloads_survive_the_wire() {
        use crate::piece::{Piece, PieceId};
        let mut bus = BusTransport::new();
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
        let sent = hello(&["fox news", "abc comedy"], 2.5);
        let own = Arc::clone(&sent.own_queries);
        match bus.carry(n(1), n(0), WireMessage::Hello(sent)) {
            Carried::Delivered(WireMessage::Hello(h)) => {
                assert!(Arc::ptr_eq(&h.own_queries, &own), "a decoded copy");
            }
            other => panic!("expected a delivered hello, got {other:?}"),
        }
        assert_eq!(carried_rebuilt(&bus), (1, 0));
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
            assert_eq!(carried_rebuilt(&bus), (1, 1));
        }

        // A NaN credit keeps its bits on the wire but equals nothing, so a
        // carried one arrives as the decoded copy, not the sender's lists.
        let mut bus = BusTransport::new();
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
        assert_eq!(bus.counters().bus_frames_rebuilt, 1);
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
            assert_eq!(bus.counters().bus_frames_dropped, 1, "byte {at}");
            assert_eq!(carried_rebuilt(&bus), (0, 0));
        }
    }
}
