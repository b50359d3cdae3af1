//! Keyword tokenization, cached token sets and the posting-list intersection
//! used for metadata search.

use std::collections::BTreeSet;

use crate::server::shard::stable_hash;

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

/// The elements common to every posting list, in ascending order.
///
/// One `lists` item per query token, `None` where the index has no list for
/// it — which, like an empty `lists`, makes the answer empty. Walks the
/// smallest list and probes the others for membership, so the cost is
/// proportional to the rarest token's postings rather than to the lists'
/// union. Nothing is allocated unless more than four lists are given.
///
/// The one intersection routine of the crate: the metadata
/// [`server`](crate::server) runs it over integer record ids. (A node's own
/// store is not indexed — see [`MetadataStore`](crate::store::MetadataStore).)
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

    fn intersect(lists: &[Option<&BTreeSet<u32>>]) -> Vec<u32> {
        intersect_rarest_first(lists.iter().copied())
            .copied()
            .collect()
    }

    #[test]
    fn intersection_requires_every_list() {
        let (a, b) = (BTreeSet::from([1, 2, 3]), BTreeSet::from([2, 3, 4]));
        assert_eq!(intersect(&[Some(&a), Some(&b)]), [2, 3]);
        assert_eq!(intersect(&[Some(&a)]), [1, 2, 3]);
        assert_eq!(intersect(&[Some(&a), None]), [], "a token nothing carries");
        assert_eq!(intersect(&[]), [], "no token matches nothing");
    }

    #[test]
    fn intersection_handles_more_lists_than_the_inline_scratch() {
        // Six lists: four inline, two spilled; the rarest is a spilled one.
        let wide: BTreeSet<u32> = (0..10).collect();
        let (rare, other) = (BTreeSet::from([3, 7]), BTreeSet::from([7, 9]));
        let six = [&wide, &wide, &wide, &wide, &wide, &rare].map(Some);
        assert_eq!(intersect(&six), [3, 7]);
        let mut with_other = six;
        with_other[4] = Some(&other);
        assert_eq!(intersect(&with_other), [7]);
        with_other[5] = None;
        assert_eq!(intersect(&with_other), []);
    }
}
