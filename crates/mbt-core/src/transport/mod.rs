//! The transport seam: how contact-phase messages travel between nodes.
//!
//! The paper's contact behaviour — hello exchange, query/metadata
//! distribution, file broadcasts (§III–V) — is a message flow. Every
//! message is a [`WireMessage`], every transfer is one
//! [`carry`](Transport::carry) between two members of the running contact,
//! and a carry is a verdict: the sender's message is lent, the transport
//! answers whether it arrived, and a receiver it reached applies the
//! sender's own value. Three backends reach that verdict differently:
//!
//! * [`SimTransport`] — the simulator path. Every message arrives; nothing
//!   is serialized. This is the default backend.
//! * [`BusTransport`] — an in-process message bus. Every carry encodes the
//!   message into its serialized [`frame`], validates the bytes and checks
//!   each field against the sender's, and the message arrives only if the
//!   frame carries exactly what was sent. A frame costs one encode, two
//!   word-at-a-time checksum passes over its payload and one walk of its
//!   fields, whose texts are compared as bytes; it allocates nothing. The
//!   differential suite (`tests/transport_equivalence.rs`) pins this
//!   backend byte-identical to [`SimTransport`].
//! * [`LiveTransport`] — the [`live`] runtime (the `mbt node` CLI mode): a
//!   [`BusTransport`] that counts frames by kind and follows a file
//!   broadcast with the file's bytes as piece frames, which the receiver
//!   reassembles against the riding metadata's checksums. A live session is
//!   a schedule of [`run_contact_via`](crate::node::run_contact_via)
//!   contacts over it, so its nodes are the simulator's `MbtNode`s.
//!
//! A contact is a clique (§V): every member hears every other, so a carry
//! between two of its members has no link to open or close first.
//!
//! The frame format (64-byte versioned header, length-prefixed checksummed
//! payload) deliberately matches `dtn_sim::channel::frame_bytes`'s 64-byte
//! overhead model, so the simulator's byte accounting describes real frames.

use dtn_trace::NodeId;

pub mod frame;
pub mod live;

mod bus;
mod sim;

pub use bus::BusTransport;
pub use frame::{
    decode_frame, encode_frame, FrameError, FrameKind, HelloFrame, WireMessage, FRAME_HEADER_BYTES,
    FRAME_MAGIC, FRAME_VERSION,
};
pub use live::LiveTransport;
pub use sim::SimTransport;

/// Carries contact-phase messages between nodes.
///
/// The contact loop ([`run_contact_via`](crate::node::run_contact_via))
/// calls [`carry`](Transport::carry) once per directed message, always
/// between two distinct members of the contact it is running, and lends
/// the sender's message: a receiver the carry reaches applies the sender's
/// own value, so a backend only answers whether it arrived.
/// Implementations must be deterministic: the same call sequence must
/// produce the same answers.
pub trait Transport {
    /// Carries `message` from `sender` to `receiver`: `true` if it arrived,
    /// `false` if it was lost in flight (the contact loop counts a lost
    /// frame).
    fn carry(&mut self, sender: NodeId, receiver: NodeId, message: &WireMessage) -> bool;
}

/// Which [`Transport`] backend a simulation run uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TransportKind {
    /// [`SimTransport`]: in-process moves, the default simulator path.
    #[default]
    Sim,
    /// [`BusTransport`]: every message round-trips its frame encoding over
    /// an in-process bus.
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
