//! Cooperative file discovery (paper §IV).
//!
//! The goal of the file discovery process is to download metadata that
//! matches the user's query strings — and, probably, metadata that will
//! match future queries. Discovery separates the distribution of metadata
//! from the distribution of files: metadata are distributed earlier, in
//! larger amounts, and are stored for longer durations.
//!
//! During a contact each node selects which of its stored metadata to send,
//! in two phases:
//!
//! 1. metadata that match the query strings of connected nodes (most-matched
//!    first), and
//! 2. the remaining metadata in order of decreasing popularity.
//!
//! That ordering has one implementation, the one a contact runs: the
//! node's catalog (`Catalog::metadata_offers`) annotates each record with
//! its requesters and popularity as an [`Offer`](crate::download::Offer),
//! and the metadata phase orders those offers with the download
//! schedulers — [`download::cooperative`] for the altruistic two-phase
//! order, [`download::tft`] when requesters are weighed by tit-for-tat
//! credits (§IV-B).
//!
//! This module holds the receiving side: [`receive_metadata`] stores a
//! record and credits its sender.
//!
//! [`download::cooperative`]: crate::download::cooperative
//! [`download::tft`]: crate::download::tft

use dtn_trace::NodeId;

use crate::credit::CreditLedger;
use crate::metadata::Metadata;
use crate::popularity::Popularity;
use crate::query::Query;
use crate::store::MetadataStore;

/// Outcome of receiving one metadata record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReceiveOutcome {
    /// The metadata was new and matched one of the receiver's queries.
    NewMatched,
    /// The metadata was new but matched no query.
    NewUnmatched,
    /// The receiver already had this metadata; no credit is awarded
    /// (credits reward *new* metadata only, §IV-B).
    Duplicate,
}

/// Processes a received metadata record on the receiving node: stores it,
/// and — if `ledger` is given — credits the sender per the tit-for-tat rule
/// (+5 for new matched, +popularity for new unmatched, nothing for
/// duplicates).
pub fn receive_metadata<'q>(
    store: &mut MetadataStore,
    own_queries: impl IntoIterator<Item = &'q Query>,
    metadata: &Metadata,
    popularity: Popularity,
    sender: NodeId,
    ledger: Option<&mut CreditLedger>,
) -> ReceiveOutcome {
    if !store.insert(metadata.clone()) {
        return ReceiveOutcome::Duplicate;
    }
    let matched = own_queries
        .into_iter()
        .any(|q| q.matches_token_set(metadata.token_set()));
    if let Some(ledger) = ledger {
        if matched {
            ledger.reward_matched(sender);
        } else {
            ledger.reward_unmatched(sender, popularity);
        }
    }
    if matched {
        ReceiveOutcome::NewMatched
    } else {
        ReceiveOutcome::NewUnmatched
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::uri::Uri;

    fn meta(name: &str, uri: &str) -> Metadata {
        Metadata::builder(name, "FOX", Uri::new(uri).unwrap()).build()
    }

    fn n(i: u32) -> NodeId {
        NodeId::new(i)
    }

    #[test]
    fn receive_new_matched_rewards_five() {
        let mut store = MetadataStore::new();
        let mut ledger = CreditLedger::new();
        let m = meta("fox news", "mbt://a");
        let out = receive_metadata(
            &mut store,
            &[Query::new("news").unwrap()],
            &m,
            Popularity::new(0.9),
            n(7),
            Some(&mut ledger),
        );
        assert_eq!(out, ReceiveOutcome::NewMatched);
        assert_eq!(ledger.credit_of(n(7)), 5.0);
        assert!(store.contains(m.uri()));
    }

    #[test]
    fn receive_new_unmatched_rewards_popularity() {
        let mut store = MetadataStore::new();
        let mut ledger = CreditLedger::new();
        let m = meta("abc comedy", "mbt://b");
        let out = receive_metadata(
            &mut store,
            &[Query::new("news").unwrap()],
            &m,
            Popularity::new(0.4),
            n(7),
            Some(&mut ledger),
        );
        assert_eq!(out, ReceiveOutcome::NewUnmatched);
        assert!((ledger.credit_of(n(7)) - 0.4).abs() < 1e-12);
    }

    #[test]
    fn receive_duplicate_rewards_nothing() {
        let mut store = MetadataStore::new();
        let mut ledger = CreditLedger::new();
        let m = meta("fox news", "mbt://a");
        store.insert(m.clone());
        let out = receive_metadata(
            &mut store,
            &[Query::new("news").unwrap()],
            &m,
            Popularity::MAX,
            n(7),
            Some(&mut ledger),
        );
        assert_eq!(out, ReceiveOutcome::Duplicate);
        assert_eq!(ledger.credit_of(n(7)), 0.0);
    }

    #[test]
    fn receive_without_ledger_still_stores() {
        let mut store = MetadataStore::new();
        let m = meta("fox news", "mbt://a");
        let out = receive_metadata(&mut store, &[], &m, Popularity::MIN, n(1), None);
        assert_eq!(out, ReceiveOutcome::NewUnmatched);
        assert_eq!(store.len(), 1);
    }
}
