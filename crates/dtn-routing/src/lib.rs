//! Store-carry-forward routing protocols for delay tolerant networks.
//!
//! Routing — sending a message from one node to another — is the substrate
//! the MBT paper builds on (§II-A): "Numerous routing protocols have been
//! proposed" for DTNs, which "support communication between intermittently-
//! connected nodes using the store-carry-forward routing mechanism." This
//! crate implements the classical protocols that literature compares
//! against, and that the reproduction uses as dissemination baselines:
//!
//! - [`protocols::Epidemic`] — flood every missing message (delivery upper
//!   bound, maximal overhead);
//! - [`protocols::DirectDelivery`] — only hand messages to their destination
//!   (overhead lower bound);
//! - [`protocols::Prophet`] — probabilistic routing with delivery
//!   predictabilities, aging, and transitivity (Lindgren et al., the paper's
//!   ref \[10\]);
//! - [`protocols::SprayAndWait`] — bounded-copy spraying (binary variant).
//!
//! [`sim::RoutingSim`] drives any of them over a
//! [`dtn_trace::TraceSource`] (an in-memory trace or a shard directory) on
//! [`dtn_sim::StreamSimulator`] and reports delivery ratio, delay, and
//! transmission overhead.
//!
//! # Example
//!
//! ```
//! use dtn_routing::message::Message;
//! use dtn_routing::protocols::Epidemic;
//! use dtn_routing::sim::RoutingSim;
//! use dtn_trace::{Contact, ContactTrace, NodeId, SimTime};
//!
//! let trace: ContactTrace = vec![
//!     Contact::pairwise(NodeId::new(0), NodeId::new(1), SimTime::from_secs(10), SimTime::from_secs(20))?,
//!     Contact::pairwise(NodeId::new(1), NodeId::new(2), SimTime::from_secs(30), SimTime::from_secs(40))?,
//! ].into_iter().collect();
//!
//! let messages = vec![Message::new(0, NodeId::new(0), NodeId::new(2), SimTime::ZERO, None)];
//! let report = RoutingSim::new(&trace, Epidemic::new()).run(messages);
//! assert_eq!(report.delivered, 1, "epidemic reaches n2 through n1");
//! # Ok::<(), dtn_trace::ContactError>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod buffer;
pub mod message;
pub mod protocols;
pub mod sim;

pub use buffer::{evict_lowest_score, Buffer, DropPolicy};
pub use message::{Message, MessageId};
pub use protocols::{AvailabilityDiffusion, RoutingProtocol};
pub use sim::{RoutingReport, RoutingSim};
