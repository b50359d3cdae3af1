//! The simulator backend: every message arrives, and nothing is serialized.

use dtn_trace::NodeId;

use super::{Transport, WireMessage};

/// The default transport: every carried message arrives, unserialized.
///
/// [`carry`](Transport::carry) only answers `true`; the receiver applies
/// the sender's value, so nothing is copied and nothing can remain in
/// flight.
#[derive(Debug, Clone, Copy, Default)]
pub struct SimTransport;

impl SimTransport {
    /// Creates the (stateless) simulator transport.
    pub fn new() -> Self {
        SimTransport
    }
}

impl Transport for SimTransport {
    fn carry(&mut self, _sender: NodeId, _receiver: NodeId, _message: &WireMessage) -> bool {
        true
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
        assert!(t.carry(NodeId::new(0), NodeId::new(1), &msg));
    }
}
