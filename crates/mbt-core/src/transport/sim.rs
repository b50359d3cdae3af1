//! The simulator backend: carrying a message is an in-process move.

use dtn_trace::NodeId;

use super::{Carried, Transport, WireMessage};

/// The default transport: messages move in-process without serialization.
///
/// [`carry`](Transport::carry) returns the message unchanged (its payloads
/// are behind `Arc`s, so even the clones that built it were reference-count
/// bumps), and nothing can remain in flight.
#[derive(Debug, Clone, Copy, Default)]
pub struct SimTransport;

impl SimTransport {
    /// Creates the (stateless) simulator transport.
    pub fn new() -> Self {
        SimTransport
    }
}

impl Transport for SimTransport {
    fn carry(&mut self, _sender: NodeId, _receiver: NodeId, message: WireMessage) -> Carried {
        Carried::Delivered(message)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::Query;

    #[test]
    fn sim_transport_is_identity() {
        let mut t = SimTransport::new();
        let msg = WireMessage::QueryShare {
            owner: NodeId::new(0),
            query: Query::new("fox news").unwrap(),
            expires: None,
        };
        assert_eq!(
            t.carry(NodeId::new(0), NodeId::new(1), msg.clone()),
            Carried::Delivered(msg)
        );
    }
}
