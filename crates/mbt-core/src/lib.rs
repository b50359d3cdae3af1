//! Mobile BitTorrent (MBT): cooperative file sharing in hybrid delay
//! tolerant networks.
//!
//! This crate reproduces the system of *"Cooperative File Sharing in Hybrid
//! Delay Tolerant Networks"* (Liu, Wu, Guan, Chen — ICDCS 2011): a
//! peer-to-peer file-sharing system for DTNs formed solely by mobile devices,
//! surrounding the Internet (a *hybrid DTN*). Files originate on the
//! Internet; nodes with Internet access download them directly, and every
//! node — connected or not — can discover and download files through
//! cooperation with its DTN peers.
//!
//! The two contributions of the paper, and of this crate:
//!
//! 1. **Cooperative file discovery** (the metadata phase of
//!    [`node::run_contact_via`]): keyword search inside
//!    the DTN via distribution of [`Metadata`] — advertisements carrying
//!    name, publisher, description, URI, piece checksums, and publisher
//!    authentication ([`auth`]) — ordered by query matches and
//!    [`Popularity`], with a credit-based tit-for-tat variant
//!    ([`CreditLedger`]).
//! 2. **Broadcast-based file download** ([`download`]): clique-structured,
//!    one-sender-at-a-time broadcast with per-node capacity `(n-1)/n`
//!    instead of pair-wise `1/n`, coordinated either by an elected
//!    coordinator or by a shared cyclic order under tit-for-tat.
//!
//! [`MbtNode`] ties everything together into the per-device state machine,
//! [`node::run_contact`] executes a contact among a clique of nodes, and
//! [`MetadataServer`] plays the Internet side.
//!
//! # Quickstart
//!
//! ```
//! use mbt_core::{MbtConfig, MbtNode, MetadataServer, Metadata, Popularity, ProtocolSpec, Query, Uri};
//! use mbt_core::node::run_contact;
//! use dtn_trace::{NodeId, SimDuration, SimTime};
//!
//! // The Internet publishes a file.
//! let mut server = MetadataServer::new(1);
//! let uri = Uri::new("mbt://fox/evening-news")?;
//! server.publish(
//!     Metadata::builder("FOX Evening News", "FOX", uri.clone()).build(),
//!     Popularity::new(0.5),
//! );
//!
//! // Node 0 has Internet access and queries for the file; node 1 does not.
//! let mut nodes = vec![
//!     MbtNode::new(NodeId::new(0), ProtocolSpec::MBT, MbtConfig::new()),
//!     MbtNode::new(NodeId::new(1), ProtocolSpec::MBT, MbtConfig::new()),
//! ];
//! nodes[0].set_internet_access(true);
//! nodes[0].add_query(Query::new("evening news")?, None);
//! nodes[0].internet_session(&server, SimTime::ZERO);
//!
//! // Node 1 wants the same file but can only get it from node 0, later.
//! nodes[1].add_query(Query::new("evening news")?, None);
//! run_contact(&mut nodes, &[0, 1], SimTime::from_secs(3600), SimDuration::from_secs(120));
//! assert!(nodes[1].has_file(&uri));
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod auth;
mod catalog;
pub mod checksum;
pub mod config;
pub mod credit;
pub mod download;
pub mod file;
pub mod keyword;
pub mod metadata;
pub mod node;
pub mod piece;
pub mod popularity;
pub mod protocol;
pub mod query;
pub mod server;
pub mod store;
pub mod transport;
pub mod uri;

pub use config::{BroadcastOrdering, CooperationMode, MbtConfig};
pub use credit::CreditLedger;
pub use file::FileAssembler;
pub use metadata::Metadata;
pub use node::{ColdNodeState, MbtNode, NodeEvent, Source};
pub use piece::{Piece, PieceId};
pub use popularity::Popularity;
pub use protocol::{CachePolicy, ProtocolSpec, ReplicationPolicy, UnknownProtocol};
pub use query::Query;
pub use server::MetadataServer;
pub use store::{FileStore, MetadataStore, OwnQuery, QueryStore};
pub use transport::{BusTransport, SimTransport, Transport, TransportKind, WireMessage};
pub use uri::Uri;
