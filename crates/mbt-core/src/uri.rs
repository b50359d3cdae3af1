//! Uniform resource identifiers.

use std::cmp::Ordering;
use std::error::Error;
use std::fmt;
use std::sync::Arc;

/// The uniform resource identifier (URI) of a file.
///
/// Every file shared through MBT is identified by its URI; file pieces are
/// stamped with the URI and an offset (paper §III-B). URIs are opaque,
/// non-empty, whitespace-free strings. The backing storage is shared
/// (`Arc<str>`), so cloning a `Uri` — which the per-contact snapshots in
/// [`run_contact`](crate::node::run_contact) do for every stored record —
/// is a reference-count bump, not a string copy. Equality, ordering, and
/// hashing remain content-based.
///
/// # Example
///
/// ```
/// use mbt_core::Uri;
///
/// let uri = Uri::new("mbt://fox/show-42/ep-3")?;
/// assert_eq!(uri.as_str(), "mbt://fox/show-42/ep-3");
/// # Ok::<(), mbt_core::uri::InvalidUri>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Uri(Arc<str>);

/// Error returned for malformed URIs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum InvalidUri {
    /// The URI string was empty.
    Empty,
    /// The URI string contained whitespace.
    ContainsWhitespace,
}

impl fmt::Display for InvalidUri {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            InvalidUri::Empty => write!(f, "uri must not be empty"),
            InvalidUri::ContainsWhitespace => write!(f, "uri must not contain whitespace"),
        }
    }
}

impl Error for InvalidUri {}

impl Uri {
    /// Creates a URI from a string.
    ///
    /// # Errors
    ///
    /// Returns [`InvalidUri`] if the string is empty or contains whitespace.
    pub fn new<S: Into<String>>(s: S) -> Result<Self, InvalidUri> {
        let s = s.into();
        if s.is_empty() {
            return Err(InvalidUri::Empty);
        }
        if s.chars().any(char::is_whitespace) {
            return Err(InvalidUri::ContainsWhitespace);
        }
        Ok(Uri(Arc::from(s)))
    }

    /// The URI as a string slice.
    pub fn as_str(&self) -> &str {
        &self.0
    }

    /// [`Ord::cmp`], answered without reading the text when both share one
    /// allocation, as the URIs of one record held by several stores do.
    pub(crate) fn cmp_identity_first(&self, other: &Uri) -> Ordering {
        if Arc::ptr_eq(&self.0, &other.0) {
            Ordering::Equal
        } else {
            self.0.cmp(&other.0)
        }
    }
}

impl AsRef<str> for Uri {
    fn as_ref(&self) -> &str {
        &self.0
    }
}

impl fmt::Display for Uri {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::str::FromStr for Uri {
    type Err = InvalidUri;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        Uri::new(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accepts_reasonable_uris() {
        assert!(Uri::new("mbt://abc/1").is_ok());
        assert!(Uri::new("x").is_ok());
    }

    #[test]
    fn rejects_empty() {
        assert_eq!(Uri::new(""), Err(InvalidUri::Empty));
    }

    #[test]
    fn rejects_whitespace() {
        assert_eq!(Uri::new("a b"), Err(InvalidUri::ContainsWhitespace));
        assert_eq!(Uri::new("a\tb"), Err(InvalidUri::ContainsWhitespace));
    }

    #[test]
    fn from_str_round_trip() {
        let uri: Uri = "mbt://x/y".parse().unwrap();
        assert_eq!(uri.to_string(), "mbt://x/y");
        assert_eq!(uri.as_ref(), "mbt://x/y");
    }

    #[test]
    fn ordering_is_lexicographic() {
        assert!(Uri::new("a").unwrap() < Uri::new("b").unwrap());
    }

    #[test]
    fn identity_first_comparison_agrees_with_cmp() {
        let shared = Uri::new("mbt://fox/news").unwrap();
        let copy = shared.clone();
        let distinct = Uri::new("mbt://fox/news").unwrap();
        let other = Uri::new("mbt://fox/late").unwrap();
        assert!(Arc::ptr_eq(&shared.0, &copy.0));
        assert!(!Arc::ptr_eq(&shared.0, &distinct.0));
        for (a, b) in [
            (&shared, &copy),
            (&shared, &distinct),
            (&shared, &other),
            (&other, &shared),
        ] {
            assert_eq!(a.cmp_identity_first(b), a.cmp(b), "{a} vs {b}");
        }
    }

    #[test]
    fn error_messages() {
        assert!(InvalidUri::Empty.to_string().contains("empty"));
        assert!(InvalidUri::ContainsWhitespace
            .to_string()
            .contains("whitespace"));
    }
}
