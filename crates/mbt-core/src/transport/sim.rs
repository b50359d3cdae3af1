//! The simulator backend: carrying a message is an in-process move.

use dtn_trace::NodeId;

use super::{Carried, Transport, WireMessage};

/// The default transport: messages move in-process without serialization.
///
/// This adapts the pre-seam contact loop to the [`Transport`] trait with
/// zero cost — [`carry`](Transport::carry) returns the message unchanged
/// (its payloads are behind `Arc`s, so even the clones that built it were
/// reference-count bumps). Links need no bookkeeping: within a simulated
/// contact every member is reachable, and nothing can remain in flight.
#[derive(Debug, Clone, Copy, Default)]
pub struct SimTransport;

impl SimTransport {
    /// Creates the (stateless) simulator transport.
    pub fn new() -> Self {
        SimTransport
    }
}

impl Transport for SimTransport {
    fn join(&mut self, _members: &[NodeId]) {}

    fn carry(&mut self, _sender: NodeId, _receiver: NodeId, message: WireMessage) -> Carried {
        Carried::Delivered(message)
    }

    fn leave(&mut self, _members: &[NodeId]) {}
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::Query;

    #[test]
    fn sim_transport_is_identity() {
        let mut t = SimTransport::new();
        let a = NodeId::new(0);
        let b = NodeId::new(1);
        t.join(&[a, b]);
        let msg = WireMessage::Search {
            query: Query::new("fox news").unwrap(),
            limit: 3,
        };
        assert_eq!(t.carry(a, b, msg.clone()), Carried::Delivered(msg));
        t.leave(&[a, b]);
    }
}
