//! Discrete-event simulation substrate for delay tolerant networks.
//!
//! This crate provides the machinery the MBT protocols run on:
//!
//! - a deterministic discrete-event [`engine`] that drives a handler over a
//!   sorted stream of contacts (any [`dtn_trace::TraceSource`]) merged with
//!   ticks registered before the run — the one engine under both the MBT
//!   runner and the `dtn-routing` baselines,
//! - the [`channel`] capacity models contrasting broadcast and pair-wise
//!   transmission (§V), plus the scaling of a per-contact allowance by a
//!   truncated contact's surviving fraction,
//! - deterministic [`rng`] utilities,
//! - deterministic fault injection ([`faults`]) for robustness experiments,
//!   and
//! - always-on observability counters and phase spans ([`telemetry`]) that
//!   feed `mbt simulate --perf-report` and the `ledger` benchmark without
//!   perturbing simulation output.
//!
//! # Example
//!
//! ```
//! use dtn_sim::engine::{SimHandler, StreamSimulator};
//! use dtn_trace::{Contact, ContactTrace, NodeId, SimTime};
//!
//! struct CountContacts(usize);
//!
//! impl SimHandler for CountContacts {
//!     fn on_contact(&mut self, _contact: &Contact) {
//!         self.0 += 1;
//!     }
//! }
//!
//! let trace: ContactTrace = vec![
//!     Contact::pairwise(NodeId::new(0), NodeId::new(1), SimTime::from_secs(1), SimTime::from_secs(2))?,
//! ].into_iter().collect();
//!
//! let mut handler = CountContacts(0);
//! StreamSimulator::new(trace.iter().cloned()).run(&mut handler);
//! assert_eq!(handler.0, 1);
//! # Ok::<(), dtn_trace::ContactError>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod channel;
pub mod engine;
pub mod faults;
pub mod rng;
pub mod telemetry;

pub use channel::{broadcast_per_node_capacity, pairwise_per_node_capacity};
pub use engine::{SimHandler, StreamSimulator};
pub use faults::FaultPlan;
pub use telemetry::{Counters, Phase, PhaseTimes, Telemetry};
