//! The transport seam: how contact-phase messages travel between nodes.
//!
//! The paper's contact behaviour — hello exchange, query/metadata
//! distribution, file broadcasts (§III–V) — is a message flow. This module
//! makes that flow explicit: every message is a [`WireMessage`], every
//! transfer goes through a [`Transport`], and two backends interpret the
//! same flow differently:
//!
//! * [`SimTransport`] — the simulator path. Carrying a message is an
//!   in-process move; nothing is serialized. This is the default backend and
//!   is byte-identical to the pre-seam contact loop: same counters, same
//!   golden CSVs.
//! * [`BusTransport`] — an in-process message bus. The contact trace acts as
//!   a connectivity schedule (links open at contact start, close at contact
//!   end); every carry encodes the message into its serialized [`frame`],
//!   validates the bytes and checks each field against the sender's value,
//!   and delivers that value when all of them match. A frame costs one
//!   encode, two FNV-1a passes over its payload and one walk of its fields;
//!   it allocates only when a field differs and the frame is decoded in
//!   full. The differential suite (`tests/transport_equivalence.rs`) pins
//!   this backend byte-identical to [`SimTransport`].
//! * [`live`] — a session runtime on the same frame codec (the `mbt node` /
//!   `mbt gateway` CLI modes): nodes and a
//!   [`ServerSnapshot`](crate::server::ServerSnapshot)-backed gateway are
//!   frame handlers, and one thread pumps each contact's queued frames to
//!   their receivers until none is left.
//!
//! The frame format (64-byte versioned header, length-prefixed checksummed
//! payload) deliberately matches `dtn_sim::channel::frame_bytes`'s 64-byte
//! overhead model, so the simulator's byte accounting describes real frames.

use dtn_trace::{NodeId, SimTime};

pub mod frame;
pub mod live;

mod bus;
mod sim;

pub use bus::BusTransport;
pub use frame::{
    decode_frame, encode_frame, Frame, FrameError, FrameKind, HelloFrame, WireMessage,
    FRAME_HEADER_BYTES, FRAME_MAGIC, FRAME_VERSION,
};
pub use sim::SimTransport;

/// The outcome of carrying one message.
#[derive(Debug, Clone, PartialEq)]
pub enum Carried {
    /// The message reached the receiver; this is what it saw. A serializing
    /// backend has encoded it and checked the frame: the value handed in
    /// when every field equals it, else the frame decoded in full — so any
    /// codec defect surfaces as a state divergence, not silently.
    Delivered(WireMessage),
    /// The link was closed (or the frame failed in flight); the receiver
    /// saw nothing. The contact loop counts these as lost frames.
    Dropped,
}

/// Carries contact-phase messages between nodes.
///
/// The contact loop ([`run_contact_via`](crate::node::run_contact_via))
/// calls [`join`](Transport::join) when a contact opens, one
/// [`carry`](Transport::carry) per directed message, and
/// [`leave`](Transport::leave) when the contact closes. Implementations must
/// be deterministic: the same call sequence must produce the same outcomes.
pub trait Transport {
    /// A contact among `members` has started; open their links.
    fn join(&mut self, now: SimTime, members: &[NodeId]);

    /// Carries one message from `sender` to `receiver`.
    fn carry(
        &mut self,
        now: SimTime,
        sender: NodeId,
        receiver: NodeId,
        message: WireMessage,
    ) -> Carried;

    /// The contact among `members` has ended; close their links.
    fn leave(&mut self, now: SimTime, members: &[NodeId]);
}

/// Which [`Transport`] backend a simulation run uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TransportKind {
    /// [`SimTransport`]: in-process moves, the default simulator path.
    #[default]
    Sim,
    /// [`BusTransport`]: every message round-trips its frame encoding over
    /// a link-scheduled in-process bus.
    Bus,
}

impl std::fmt::Display for TransportKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            TransportKind::Sim => "sim",
            TransportKind::Bus => "bus",
        })
    }
}

impl std::str::FromStr for TransportKind {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "sim" => Ok(TransportKind::Sim),
            "bus" => Ok(TransportKind::Bus),
            other => Err(format!("unknown transport `{other}` (sim | bus)")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transport_kind_parses_and_prints() {
        assert_eq!("sim".parse::<TransportKind>().unwrap(), TransportKind::Sim);
        assert_eq!("bus".parse::<TransportKind>().unwrap(), TransportKind::Bus);
        assert!("tcp".parse::<TransportKind>().is_err());
        assert_eq!(TransportKind::default().to_string(), "sim");
        assert_eq!(TransportKind::Bus.to_string(), "bus");
    }
}
