//! Contact-trace model and trace generators for delay tolerant networks (DTNs).
//!
//! A DTN is an occasionally-connected network that suffers from frequent
//! partition; communication happens over *contacts* — periods of time during
//! which two (or more) nodes can exchange messages. This crate provides:
//!
//! - the basic vocabulary types ([`NodeId`], [`SimTime`], [`SimDuration`],
//!   [`Contact`]),
//! - a time-sorted contact container ([`ContactTrace`]) with statistics
//!   ([`stats`]) including the *frequent contacting node* detection used by
//!   the MBT paper,
//! - synthetic trace generators ([`generators`]) reproducing the shapes of the
//!   UMassDieselNet bus trace (pair-wise contacts) and the NUS student contact
//!   trace (classroom cliques),
//! - a space-time graph ([`space_time`]) for reachability and
//!   earliest-delivery analysis,
//! - a plain-text serialization format ([`parser`]), and
//! - a streaming abstraction ([`TraceSource`]) with an on-disk sharded
//!   backend ([`shard`]) that replays arbitrarily large traces with at most
//!   one time-window shard resident in memory.
//!
//! # Example
//!
//! ```
//! use dtn_trace::{Contact, ContactTrace, NodeId, SimTime};
//!
//! let trace: ContactTrace = [Contact::pairwise(
//!     NodeId::new(0),
//!     NodeId::new(1),
//!     SimTime::from_secs(10),
//!     SimTime::from_secs(40),
//! )?]
//! .into_iter()
//! .collect();
//! assert_eq!(trace.len(), 1);
//! assert_eq!(trace.node_count(), 2);
//! # Ok::<(), dtn_trace::ContactError>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod aggregate;
pub mod contact;
pub mod generators;
pub mod hash;
pub mod node;
pub mod parser;
pub mod perturb;
pub mod shard;
pub mod source;
pub mod space_time;
pub mod stats;
pub mod time;
pub mod trace;

pub use aggregate::AggregateGraph;
pub use contact::{Contact, ContactError};
pub use node::NodeId;
pub use parser::{read_trace, write_trace, ContactReader, ParseTraceError};
pub use perturb::Perturbation;
pub use shard::{ShardError, ShardWriter, ShardedTrace};
pub use source::{ContactStream, StreamStats, TraceSource};
pub use space_time::SpaceTimeGraph;
pub use stats::{FrequentScan, TraceStats};
pub use time::{SimDuration, SimTime, SECONDS_PER_DAY};
pub use trace::{ContactSink, ContactTrace};
