//! Keyword tokenization and the cached token sets metadata search matches
//! against.
//!
//! The posting lists of the metadata [`server`](crate::server) — hash sets of
//! record ids, expected O(1) to add, drop or test — and their rarest-first
//! intersection live with the server, their only user; a node's own store is
//! not indexed (see [`MetadataStore`](crate::store::MetadataStore)).

use std::collections::BTreeSet;

use dtn_trace::hash::stable_hash;

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

/// The OR of one bit a token, the bit picked by the token's [`stable_hash`],
/// which no platform changes: a set holding every token of another has every
/// bit of the other's, so `a & !b != 0` proves a token of `a` missing from `b`.
pub(crate) fn signature<'a>(tokens: impl IntoIterator<Item = &'a str>) -> u64 {
    let bit = |token: &str| 1 << (stable_hash(token.as_bytes()) >> 58);
    tokens.into_iter().fold(0, |bits, token| bits | bit(token))
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
    signature: u64,
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
            signature: signature(tokens.iter().map(|t| &**t)),
            sorted: tokens.into_boxed_slice(),
        }
    }

    /// One bit a token, ORed (what [`Query::matches_token_set`](crate::Query) tests).
    pub fn signature(&self) -> u64 {
        self.signature
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

#[cfg(test)]
mod tests {
    use super::*;

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
}
