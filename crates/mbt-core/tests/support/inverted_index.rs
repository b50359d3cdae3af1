//! The string-keyed, two-mirror inverted index the node stores and the
//! pre-sharding server once shared, kept as the index of the
//! `ReferenceServer` oracle.
//!
//! Nothing in `mbt_core` uses it any more: the sharded server indexes integer
//! record ids and a node's store is not indexed at all. Included by path from
//! `reference_server.rs`; it uses only `mbt_core`'s public API, so
//! `lookup_all` walks the first token's postings rather than calling the
//! crate-private rarest-first intersection. What the reference server reads
//! (`insert_tokens`, `remove`, `lookup_ranked`) is as it always was.
//!
//! Do not optimise this type — its value is that it never changes.

use std::collections::{BTreeMap, BTreeSet};

use mbt_core::keyword::tokenize;
use mbt_core::uri::Uri;

/// An inverted index from tokens to the URIs of metadata containing them.
#[derive(Debug, Clone, Default)]
pub struct InvertedIndex {
    by_token: BTreeMap<String, BTreeSet<Uri>>,
    tokens_of: BTreeMap<Uri, BTreeSet<String>>,
}

impl InvertedIndex {
    /// Creates an empty index.
    pub fn new() -> Self {
        InvertedIndex::default()
    }

    /// Indexes `text` under `uri` (adds to any existing tokens for the URI).
    pub fn insert(&mut self, uri: &Uri, text: &str) {
        for token in tokenize(text) {
            self.insert_one(uri, token);
        }
    }

    /// Indexes pre-computed `tokens` under `uri`, skipping re-tokenization.
    pub fn insert_tokens<'a, I>(&mut self, uri: &Uri, tokens: I)
    where
        I: IntoIterator<Item = &'a str>,
    {
        for token in tokens {
            self.insert_one(uri, token.to_owned());
        }
    }

    fn insert_one(&mut self, uri: &Uri, token: String) {
        self.by_token
            .entry(token.clone())
            .or_default()
            .insert(uri.clone());
        self.tokens_of.entry(uri.clone()).or_default().insert(token);
    }

    /// Removes all tokens for `uri`.
    pub fn remove(&mut self, uri: &Uri) {
        if let Some(tokens) = self.tokens_of.remove(uri) {
            for token in tokens {
                if let Some(set) = self.by_token.get_mut(&token) {
                    set.remove(uri);
                    if set.is_empty() {
                        self.by_token.remove(&token);
                    }
                }
            }
        }
    }

    /// URIs whose indexed text contains **all** the given tokens (sorted).
    ///
    /// An empty token list matches nothing.
    pub fn lookup_all(&self, tokens: &[String]) -> Vec<Uri> {
        let Some((first, rest)) = tokens.split_first() else {
            return Vec::new();
        };
        let holds = |token: &String, uri: &Uri| {
            self.by_token
                .get(token)
                .is_some_and(|set| set.contains(uri))
        };
        self.by_token
            .get(first)
            .into_iter()
            .flatten()
            .filter(|uri| rest.iter().all(|token| holds(token, uri)))
            .cloned()
            .collect()
    }

    /// URIs matching at least one token, with their match counts, sorted by
    /// count descending then URI ascending.
    pub fn lookup_ranked(&self, tokens: &[String]) -> Vec<(Uri, usize)> {
        let mut counts: BTreeMap<Uri, usize> = BTreeMap::new();
        for token in tokens {
            if let Some(set) = self.by_token.get(token) {
                for uri in set {
                    *counts.entry(uri.clone()).or_insert(0) += 1;
                }
            }
        }
        let mut out: Vec<(Uri, usize)> = counts.into_iter().collect();
        out.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
        out
    }

    /// Number of indexed URIs.
    pub fn len(&self) -> usize {
        self.tokens_of.len()
    }

    /// True if nothing is indexed.
    pub fn is_empty(&self) -> bool {
        self.tokens_of.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn uri(s: &str) -> Uri {
        Uri::new(s).unwrap()
    }

    #[test]
    fn lookup_all_requires_every_token() {
        let mut idx = InvertedIndex::new();
        idx.insert(&uri("mbt://a"), "fox evening news");
        idx.insert(&uri("mbt://b"), "fox comedy show");
        assert_eq!(
            idx.lookup_all(&["fox".into(), "news".into()]),
            vec![uri("mbt://a")]
        );
        assert_eq!(idx.lookup_all(&["fox".into()]).len(), 2);
        assert!(idx.lookup_all(&["cnn".into()]).is_empty());
        assert!(idx.lookup_all(&[]).is_empty());
    }

    #[test]
    fn lookup_all_handles_long_queries() {
        let mut idx = InvertedIndex::new();
        idx.insert(&uri("mbt://a"), "one two three four five six");
        idx.insert(&uri("mbt://b"), "one two three four five");
        let tokens = |text: &str| tokenize(text);
        assert_eq!(
            idx.lookup_all(&tokens("one two three four five six")),
            vec![uri("mbt://a")]
        );
        assert_eq!(idx.lookup_all(&tokens("five four three two one")).len(), 2);
        assert!(idx
            .lookup_all(&tokens("one two three four five seven"))
            .is_empty());
        assert!(InvertedIndex::new().lookup_all(&tokens("one")).is_empty());
    }

    #[test]
    fn lookup_ranked_orders_by_hits() {
        let mut idx = InvertedIndex::new();
        idx.insert(&uri("mbt://a"), "fox evening news");
        idx.insert(&uri("mbt://b"), "fox news tonight special news");
        let ranked = idx.lookup_ranked(&["fox".into(), "news".into(), "special".into()]);
        assert_eq!(ranked[0].0, uri("mbt://b"));
        assert_eq!(ranked[0].1, 3);
        assert_eq!(ranked[1], (uri("mbt://a"), 2));
    }

    #[test]
    fn remove_clears_uri() {
        let mut idx = InvertedIndex::new();
        idx.insert(&uri("mbt://a"), "fox news");
        idx.remove(&uri("mbt://a"));
        assert!(idx.is_empty());
        assert!(idx.lookup_all(&["fox".into()]).is_empty());
    }

    #[test]
    fn insert_accumulates_tokens() {
        let mut idx = InvertedIndex::new();
        idx.insert(&uri("mbt://a"), "fox");
        idx.insert(&uri("mbt://a"), "news");
        assert_eq!(idx.lookup_all(&["fox".into()]), vec![uri("mbt://a")]);
        assert_eq!(idx.lookup_all(&["news".into()]), vec![uri("mbt://a")]);
        assert_eq!(idx.len(), 1);
    }
}
