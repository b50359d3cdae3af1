//! The bus backend: every message round-trips its frame encoding over an
//! in-process bus. A frame costs one encode into a reused buffer, two
//! word-at-a-time checksum passes over its payload and one walk of its
//! fields against the sender's message, which compares each text as bytes
//! and each float by its bits; it allocates nothing, and a frame that does
//! not carry exactly what was sent is dropped.

use dtn_sim::telemetry::Counters;
use dtn_trace::NodeId;

use super::frame::{check_frame, encode_frame_into};
use super::{Transport, WireMessage};

/// An in-process message bus.
///
/// Carrying a message serializes it into its wire frame, checksums it, and
/// on the far side validates the bytes and checks every field against the
/// message lent. The message arrives only if the frame carries exactly it,
/// and the receiver then applies the sender's value, sharing its `Arc`s as
/// under [`SimTransport`](super::SimTransport). A frame that fails the check
/// or differs from what was sent is dropped, so a codec defect surfaces as
/// lost frames and a state divergence. Carrying is lock-step, so nothing is
/// ever in flight and no frame is kept. Delivery order is identical to
/// [`SimTransport`](super::SimTransport); the differential suite pins the
/// two backends byte-identical.
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

    /// What the bus has done so far: frames carried and dropped, and the
    /// bytes put on the wire (headers included). Every other field is zero.
    pub fn counters(&self) -> &Counters {
        &self.counters
    }

    /// Whether [`wire`](Self::wire), which holds a frame, carries `sent`.
    fn deliver(&mut self, sent: &WireMessage) -> bool {
        let c = &mut self.counters;
        c.bus_bytes_on_wire += self.wire.len() as u64;
        let arrived = check_frame(&self.wire, sent);
        if arrived {
            c.bus_frames_carried += 1;
        } else {
            c.bus_frames_dropped += 1;
        }
        arrived
    }
}

impl Transport for BusTransport {
    fn carry(&mut self, sender: NodeId, receiver: NodeId, message: &WireMessage) -> bool {
        encode_frame_into(&mut self.wire, sender, receiver, self.seq, message);
        self.seq += 1;
        self.deliver(message)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::Query;
    use crate::transport::{decode_frame, HelloFrame, FRAME_HEADER_BYTES};
    use crate::uri::Uri;
    use std::collections::BTreeSet;

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

    fn carried_dropped(bus: &BusTransport) -> (u64, u64) {
        let c = bus.counters();
        (c.bus_frames_carried, c.bus_frames_dropped)
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
        assert!(bus.carry(n(0), n(2), &msg()));
        assert_eq!(decode_frame(&bus.wire), Ok(msg()));
        assert_eq!(carried_dropped(&bus), (1, 0));
        assert!(bus.counters().bus_bytes_on_wire > FRAME_HEADER_BYTES as u64);
    }

    #[test]
    fn piece_payloads_survive_the_wire() {
        use crate::piece::{Piece, PieceId};
        let mut bus = BusTransport::new();
        let piece = WireMessage::Piece(Piece::new(
            PieceId::new(Uri::new("mbt://f").unwrap(), 1),
            (0..=255).collect(),
        ));
        assert!(bus.carry(n(0), n(1), &piece));
        assert_eq!(decode_frame(&bus.wire), Ok(piece));
    }

    #[test]
    fn a_message_that_decodes_equal_is_delivered_as_the_senders_value() {
        let mut bus = BusTransport::new();
        let sent = WireMessage::Hello(hello(&["fox news", "abc comedy"], 2.5));
        assert!(bus.carry(n(1), n(0), &sent));
        assert_eq!(decode_frame(&bus.wire), Ok(sent));
        assert_eq!(carried_dropped(&bus), (1, 0));
    }

    #[test]
    fn a_frame_that_does_not_carry_what_was_sent_is_dropped() {
        let sent = WireMessage::Hello(hello(&["fox news", "abc comedy"], 2.5));
        let credit_bit = WireMessage::Hello(hello(
            &["fox news", "abc comedy"],
            f64::from_bits(2.5f64.to_bits() ^ 1),
        ));
        let query_text = WireMessage::Hello(hello(&["fox news", "abc drama"], 2.5));
        for on_wire in [credit_bit, query_text] {
            let mut bus = bus_holding(&on_wire);
            assert!(!bus.deliver(&sent), "{on_wire:?}");
            assert_eq!(carried_dropped(&bus), (0, 1));
        }

        // A NaN credit keeps its bits on the wire, and the check compares
        // bits, so it arrives though it equals nothing.
        let mut bus = BusTransport::new();
        assert!(bus.carry(
            n(1),
            n(0),
            &WireMessage::Hello(hello(&["fox news"], f64::NAN))
        ));
        assert_eq!(carried_dropped(&bus), (1, 0));
    }

    #[test]
    fn a_damaged_frame_is_dropped() {
        let sent = WireMessage::Hello(hello(&["fox news"], 2.5));
        // A flipped payload bit fails the checksum; a set reserved byte is
        // malformed.
        for at in [FRAME_HEADER_BYTES + 9, 50] {
            let mut bus = bus_holding(&sent);
            bus.wire[at] ^= 1;
            assert!(!bus.deliver(&sent), "byte {at}");
            assert_eq!(carried_dropped(&bus), (0, 1), "byte {at}");
        }
    }
}
