//! Keyword tokenization and the inverted index used for metadata search.

use std::collections::{BTreeMap, BTreeSet};

use crate::uri::Uri;

/// Splits text into lowercase alphanumeric tokens.
///
/// Anything that is not ASCII-alphanumeric separates tokens; tokens are
/// lowercased and deduplicated order-preservingly.
///
/// # Example
///
/// ```
/// let tokens = mbt_core::keyword::tokenize("The Late-Night Show, ep. 3");
/// assert_eq!(tokens, vec!["the", "late", "night", "show", "ep", "3"]);
/// ```
pub fn tokenize(text: &str) -> Vec<String> {
    // A short text — a query, a record's nine tokens — is deduplicated by
    // scanning what is already out, comparing before lower-casing, so only
    // a new token allocates. Text arrives in frames from outside: past
    // `SCAN` distinct tokens an ordered set takes over, and a long text
    // stays O(n log n).
    const SCAN: usize = 16;
    let mut out: Vec<String> = Vec::new();
    let mut seen: BTreeSet<String> = BTreeSet::new();
    for raw in text.split(|c: char| !c.is_ascii_alphanumeric()) {
        if raw.is_empty() {
            continue;
        }
        if out.len() < SCAN {
            if !out.iter().any(|token| token.eq_ignore_ascii_case(raw)) {
                out.push(raw.to_ascii_lowercase());
            }
            continue;
        }
        if seen.is_empty() {
            seen.extend(out.iter().cloned());
        }
        let token = raw.to_ascii_lowercase();
        if seen.insert(token.clone()) {
            out.push(token);
        }
    }
    out
}

/// An immutable, sorted, deduplicated token set built once and probed many
/// times.
///
/// [`Metadata`](crate::Metadata) caches one of these at build time so that
/// per-contact query matching is a binary-search probe instead of a fresh
/// `format!` + [`tokenize`] pass per record per peer.
///
/// # Example
///
/// ```
/// use mbt_core::keyword::TokenSet;
///
/// let set = TokenSet::from_text("FOX evening news");
/// assert!(set.contains("news"));
/// assert!(!set.contains("cnn"));
/// assert_eq!(set.len(), 3);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq, Hash)]
pub struct TokenSet {
    sorted: Box<[Box<str>]>,
}

impl TokenSet {
    /// Tokenizes `text` (same rules as [`tokenize`]) into a sorted set.
    pub fn from_text(text: &str) -> Self {
        let mut tokens: Vec<Box<str>> = tokenize(text)
            .into_iter()
            .map(String::into_boxed_str)
            .collect();
        tokens.sort_unstable();
        TokenSet {
            sorted: tokens.into_boxed_slice(),
        }
    }

    /// True if `token` is in the set. Allocation-free.
    pub fn contains(&self, token: &str) -> bool {
        self.sorted.binary_search_by(|t| (**t).cmp(token)).is_ok()
    }

    /// The tokens in ascending order.
    pub fn iter(&self) -> impl Iterator<Item = &str> {
        self.sorted.iter().map(|t| &**t)
    }

    /// Number of distinct tokens.
    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// True if the set is empty.
    pub fn is_empty(&self) -> bool {
        self.sorted.is_empty()
    }
}

/// The elements common to every posting list, in ascending order.
///
/// One `lists` item per query token, `None` where the index has no list for
/// it — which, like an empty `lists`, makes the answer empty. Walks the
/// smallest list and probes the others for membership, so the cost is
/// proportional to the rarest token's postings rather than to the lists'
/// union. Nothing is allocated unless more than four lists are given.
///
/// The one intersection routine of the crate: the node-local
/// [`InvertedIndex`] runs it over URIs, the metadata
/// [`server`](crate::server) over integer record ids.
pub(crate) fn intersect_rarest_first<'a, T: Ord + 'a>(
    lists: impl IntoIterator<Item = Option<&'a BTreeSet<T>>>,
) -> impl Iterator<Item = &'a T> {
    // Posting lists for the common short query stay on the stack.
    const INLINE: usize = 4;
    let mut inline: [Option<&'a BTreeSet<T>>; INLINE] = [None; INLINE];
    let mut spilled: Vec<&'a BTreeSet<T>> = Vec::new();
    for (i, list) in lists.into_iter().enumerate() {
        let Some(set) = list else {
            // A token nothing carries: no list left to walk, no answer.
            inline = [None; INLINE];
            spilled.clear();
            break;
        };
        match inline.get_mut(i) {
            Some(slot) => *slot = Some(set),
            None => spilled.push(set),
        }
    }
    let (smallest, rarest) = inline
        .iter()
        .flatten()
        .chain(&spilled)
        .copied()
        .enumerate()
        .min_by_key(|(_, set)| set.len())
        .unzip();
    rarest.into_iter().flatten().filter(move |item| {
        inline
            .iter()
            .flatten()
            .chain(&spilled)
            .enumerate()
            .all(|(i, set)| Some(i) == smallest || set.contains(item))
    })
}

/// An inverted index from tokens to the URIs of metadata containing them.
///
/// # Example
///
/// ```
/// use mbt_core::keyword::InvertedIndex;
/// use mbt_core::Uri;
///
/// let mut index = InvertedIndex::new();
/// let uri = Uri::new("mbt://fox/news")?;
/// index.insert(&uri, "FOX evening news");
/// let hits = index.lookup_all(&["fox".into(), "news".into()]);
/// assert_eq!(hits, vec![uri]);
/// # Ok::<(), mbt_core::uri::InvalidUri>(())
/// ```
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
    ///
    /// Used by [`MetadataStore`](crate::store::MetadataStore) and
    /// [`MetadataServer`](crate::server::MetadataServer) to index a record
    /// from its cached [`TokenSet`] rather than its raw text.
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
        self.lookup_all_ref(tokens).into_iter().cloned().collect()
    }

    /// Borrowing variant of [`lookup_all`](Self::lookup_all): the only
    /// allocation is the result vector, and a lookup that matches nothing —
    /// an empty index, an absent token — allocates nothing at all.
    pub fn lookup_all_ref(&self, tokens: &[String]) -> Vec<&Uri> {
        intersect_rarest_first(tokens.iter().map(|token| self.by_token.get(token))).collect()
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
    fn tokenize_splits_and_lowercases() {
        assert_eq!(tokenize("Hello, World!"), vec!["hello", "world"]);
    }

    #[test]
    fn tokenize_dedups_preserving_order() {
        assert_eq!(tokenize("b a b a c"), vec!["b", "a", "c"]);
    }

    #[test]
    fn tokenize_empty_and_punct() {
        assert!(tokenize("").is_empty());
        assert!(tokenize("!!! --- ???").is_empty());
    }

    /// `tokenize` as it was: a lowercase copy of every raw token, and a
    /// second one of each new token in an ordered set.
    fn tokenize_copying(text: &str) -> Vec<String> {
        let mut seen = BTreeSet::new();
        let mut out = Vec::new();
        for raw in text.split(|c: char| !c.is_ascii_alphanumeric()) {
            if raw.is_empty() {
                continue;
            }
            let token = raw.to_ascii_lowercase();
            if seen.insert(token.clone()) {
                out.push(token);
            }
        }
        out
    }

    proptest::proptest! {
        /// Few distinct tokens in either case, so repeats are common, and
        /// enough raw ones to cross from the scan to the set.
        #[test]
        fn tokenize_equals_the_copying_tokenizer(
            text in "([a-cA-C]{1,2}[ ,.é-]{0,2}[x-zX-Z0-9]{0,2}[ -]{0,1}){0,60}",
        ) {
            proptest::prop_assert_eq!(tokenize(&text), tokenize_copying(&text));
        }
    }

    #[test]
    fn tokenize_dedups_past_the_scan_bound() {
        let text: String = (0..40)
            .map(|i| format!("T{} t{} ", i % 25, i % 25))
            .collect();
        let tokens = tokenize(&text);
        assert_eq!(tokens.len(), 25);
        assert_eq!(tokens, tokenize_copying(&text));
    }

    #[test]
    fn tokenize_keeps_digits() {
        assert_eq!(tokenize("ep3 s01"), vec!["ep3", "s01"]);
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
    fn lookup_all_handles_queries_longer_than_the_inline_scratch() {
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
