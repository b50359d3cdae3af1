//! Query strings.
//!
//! When a user wants to search for a file, he or she inputs a *query string*;
//! the file discovery process returns a sorted list of matched metadata
//! (paper §III-B). Queries travel in hello messages and — under the full MBT
//! protocol — are also stored by frequent contacting nodes so they can
//! collect metadata on the querier's behalf (§IV).

use std::error::Error;
use std::fmt;
use std::sync::Arc;

use crate::keyword::{signature, tokenize, TokenSet};

/// A keyword query.
///
/// A query matches a piece of text when **all** of its tokens occur in the
/// text (AND semantics); ranking uses the match count.
///
/// The text and token list live behind a shared allocation (`Arc`), so a
/// hello's copy of the foreign queries, a query share and a receiver's
/// stored copy bump a reference count instead of deep-copying strings. Equality,
/// ordering, and hashing remain content-based.
///
/// # Example
///
/// ```
/// use mbt_core::Query;
///
/// let q = Query::new("FOX evening news")?;
/// assert!(q.matches_text("the FOX channel evening news broadcast"));
/// assert!(!q.matches_text("CBS evening news"));
/// # Ok::<(), mbt_core::query::EmptyQuery>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Query {
    inner: Arc<QueryInner>,
}

#[derive(Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
struct QueryInner {
    text: String,
    tokens: Vec<String>,
    /// Like `tokens` a function of `text`, as the derived comparisons stay.
    signature: u64,
}

/// Error returned when a query contains no indexable tokens.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EmptyQuery;

impl fmt::Display for EmptyQuery {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "query contains no searchable keywords")
    }
}

impl Error for EmptyQuery {}

impl Query {
    /// Creates a query from user text.
    ///
    /// # Errors
    ///
    /// Returns [`EmptyQuery`] if the text tokenizes to nothing.
    pub fn new<S: Into<String>>(text: S) -> Result<Self, EmptyQuery> {
        let text = text.into();
        let tokens = tokenize(&text);
        if tokens.is_empty() {
            return Err(EmptyQuery);
        }
        let signature = signature(tokens.iter().map(String::as_str));
        let inner = Arc::new(QueryInner {
            text,
            tokens,
            signature,
        });
        Ok(Query { inner })
    }

    /// The original query text.
    pub fn text(&self) -> &str {
        &self.inner.text
    }

    /// The query's tokens (lowercase, deduplicated).
    pub fn tokens(&self) -> &[String] {
        &self.inner.tokens
    }

    /// The [`signature`](TokenSet::signature) of the query's tokens.
    pub fn signature(&self) -> u64 {
        self.inner.signature
    }

    /// True if all query tokens occur in `text`.
    pub fn matches_text(&self, text: &str) -> bool {
        let hay = tokenize(text);
        self.inner.tokens.iter().all(|t| hay.contains(t))
    }

    /// True if all query tokens occur in the cached token `set`.
    ///
    /// Allocation-free, and for most pairs one AND: a query bit the set's
    /// signature lacks is a token the set lacks. Only a pair whose signatures
    /// agree — a match, or a false positive — is probed token by token, each
    /// probe a binary search on the record's prebuilt [`TokenSet`].
    pub fn matches_token_set(&self, set: &TokenSet) -> bool {
        self.signature() & !set.signature() == 0
            && self.inner.tokens.iter().all(|t| set.contains(t))
    }
}

impl fmt::Display for Query {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.inner.text)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_all_tokens() {
        let q = Query::new("fox news").unwrap();
        assert!(q.matches_text("FOX Evening News"));
        assert!(!q.matches_text("fox comedy"));
    }

    #[test]
    fn rejects_empty() {
        assert_eq!(Query::new("").unwrap_err(), EmptyQuery);
        assert_eq!(Query::new("!!!").unwrap_err(), EmptyQuery);
    }

    #[test]
    fn case_insensitive() {
        let q = Query::new("NeWs").unwrap();
        assert!(q.matches_text("breaking news"));
    }

    #[test]
    fn display_preserves_text() {
        let q = Query::new("Fox News!").unwrap();
        assert_eq!(q.to_string(), "Fox News!");
        assert_eq!(q.text(), "Fox News!");
        assert_eq!(q.tokens(), &["fox".to_string(), "news".to_string()]);
    }

    #[test]
    fn error_display() {
        assert!(EmptyQuery.to_string().contains("keywords"));
    }
}
