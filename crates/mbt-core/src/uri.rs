//! Uniform resource identifiers.

use std::cmp::Ordering;
use std::error::Error;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

use dtn_trace::hash::stable_hash;

/// The uniform resource identifier (URI) of a file.
///
/// Every file shared through MBT is identified by its URI; file pieces are
/// stamped with the URI and an offset (paper §III-B). URIs are opaque,
/// non-empty, whitespace-free strings. The text is shared (`Arc<str>`), so
/// cloning a `Uri` — which every store, catalog row and frame that names a
/// file does — is a reference-count bump, not a string copy.
///
/// A `Uri` also carries the [`stable_hash`] of its text, computed once in
/// [`Uri::new`]: a node's own maps are ordered by it (then by text), so a
/// lookup compares integers and reads text only on a hash tie. Equality
/// and ordering remain content-based — two allocations of one text are one
/// URI — and ordering is text order, answered without reading the text
/// when both sides share one allocation.
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
#[derive(Clone)]
pub struct Uri {
    hash: u64,
    text: Arc<str>,
}

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
        Ok(Uri {
            hash: stable_hash(s.as_bytes()),
            text: Arc::from(s),
        })
    }

    /// The URI as a string slice.
    #[inline]
    pub fn as_str(&self) -> &str {
        &self.text
    }

    /// The order of a [`UriMap`]: by stored hash, then as [`Ord`] — so the
    /// text is read only on a hash tie between two allocations.
    #[inline]
    pub(crate) fn map_cmp(&self, other: &Uri) -> Ordering {
        self.hash.cmp(&other.hash).then_with(|| self.cmp(other))
    }

    /// True if both share one allocation of the text, as the URIs of one
    /// record held by several stores do.
    #[inline]
    fn same_allocation(&self, other: &Uri) -> bool {
        Arc::ptr_eq(&self.text, &other.text)
    }
}

impl PartialEq for Uri {
    #[inline]
    fn eq(&self, other: &Uri) -> bool {
        self.hash == other.hash && (self.same_allocation(other) || self.text == other.text)
    }
}

impl Eq for Uri {}

impl PartialOrd for Uri {
    #[inline]
    fn partial_cmp(&self, other: &Uri) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Text order; one allocation compares `Equal` without reading it.
impl Ord for Uri {
    #[inline]
    fn cmp(&self, other: &Uri) -> Ordering {
        if self.same_allocation(other) {
            Ordering::Equal
        } else {
            self.text.cmp(&other.text)
        }
    }
}

/// Hashes the text, as `str` does: the stored value is a 64-bit FNV-based
/// hash that anyone choosing URIs can collide, so a `HashMap` keyed by
/// publisher-chosen URIs must not use it.
impl Hash for Uri {
    #[inline]
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.text.hash(state);
    }
}

impl fmt::Debug for Uri {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_tuple("Uri").field(&&*self.text).finish()
    }
}

impl AsRef<str> for Uri {
    fn as_ref(&self) -> &str {
        &self.text
    }
}

impl fmt::Display for Uri {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.text)
    }
}

impl std::str::FromStr for Uri {
    type Err = InvalidUri;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        Uri::new(s)
    }
}

/// A node's own map from URIs: a `Vec` kept sorted in [map
/// order](Uri::map_cmp) and searched by binary search, so a probe compares
/// stored hashes and reads text only on a tie. Iteration is in map order,
/// which is not URI order: whoever needs URI order sorts what it collects.
#[derive(Debug, Clone)]
pub(crate) struct UriMap<V> {
    entries: Vec<(Uri, V)>,
}

impl<V> Default for UriMap<V> {
    fn default() -> Self {
        UriMap {
            entries: Vec::new(),
        }
    }
}

impl<V> UriMap<V> {
    fn find(&self, uri: &Uri) -> Result<usize, usize> {
        self.entries.binary_search_by(|(key, _)| key.map_cmp(uri))
    }

    pub(crate) fn get(&self, uri: &Uri) -> Option<&V> {
        let at = self.find(uri).ok()?;
        Some(&self.entries[at].1)
    }

    pub(crate) fn contains(&self, uri: &Uri) -> bool {
        self.find(uri).is_ok()
    }

    /// The value under `uri`, after inserting `make()` under a clone of
    /// `uri` if there was none; and whether it was inserted.
    pub(crate) fn get_or_insert_with(
        &mut self,
        uri: &Uri,
        make: impl FnOnce() -> V,
    ) -> (&mut V, bool) {
        match self.find(uri) {
            Ok(at) => (&mut self.entries[at].1, false),
            Err(at) => {
                self.entries.insert(at, (uri.clone(), make()));
                (&mut self.entries[at].1, true)
            }
        }
    }

    /// Sets the value under `uri`; returns the one it replaced.
    pub(crate) fn insert(&mut self, uri: Uri, value: V) -> Option<V> {
        match self.find(&uri) {
            Ok(at) => Some(std::mem::replace(&mut self.entries[at].1, value)),
            Err(at) => {
                self.entries.insert(at, (uri, value));
                None
            }
        }
    }

    pub(crate) fn remove(&mut self, uri: &Uri) -> Option<V> {
        let at = self.find(uri).ok()?;
        Some(self.entries.remove(at).1)
    }

    /// Keeps the entries `keep` returns `true` for, visiting each once in
    /// map order.
    pub(crate) fn retain(&mut self, mut keep: impl FnMut(&Uri, &mut V) -> bool) {
        self.entries.retain_mut(|(uri, value)| keep(uri, value));
    }

    pub(crate) fn len(&self) -> usize {
        self.entries.len()
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The entries in map order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (&Uri, &V)> {
        self.entries.iter().map(|(uri, value)| (uri, value))
    }

    pub(crate) fn keys(&self) -> impl Iterator<Item = &Uri> {
        self.entries.iter().map(|(uri, _)| uri)
    }

    pub(crate) fn values(&self) -> impl Iterator<Item = &V> {
        self.entries.iter().map(|(_, value)| value)
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
    fn two_allocations_of_one_text_are_one_uri() {
        use std::collections::HashMap;
        let shared = Uri::new("mbt://fox/news").unwrap();
        let copy = shared.clone();
        let distinct = Uri::new("mbt://fox/news").unwrap();
        let other = Uri::new("mbt://fox/late").unwrap();
        assert!(shared.same_allocation(&copy));
        assert!(!shared.same_allocation(&distinct));
        for u in [&copy, &distinct] {
            assert_eq!(&shared, u);
            assert_eq!(shared.cmp(u), Ordering::Equal);
        }
        assert_ne!(shared, other);
        assert_eq!(shared.cmp(&other), "mbt://fox/news".cmp("mbt://fox/late"));
        assert_eq!(other.cmp(&shared), Ordering::Less);
        let mut map = HashMap::new();
        map.insert(shared.clone(), 1);
        map.insert(distinct.clone(), 2);
        assert_eq!(map.len(), 1, "one key");
        assert_eq!(map[&copy], 2);
    }

    #[test]
    fn the_stored_hash_is_the_texts_stable_hash() {
        for text in [
            "x",
            "mbt://fox/news",
            "mbt://publisher-7/fd0123456789abcdef",
        ] {
            let uri = Uri::new(text).unwrap();
            assert_eq!(uri.hash, stable_hash(text.as_bytes()));
        }
    }

    /// A URI storing `hash` rather than its text's, so that two texts can
    /// share one and reach the map's text tie-break — which no pair of
    /// workload URIs does.
    fn with_hash(text: &str, hash: u64) -> Uri {
        Uri {
            hash,
            text: Arc::from(text),
        }
    }

    #[test]
    fn a_uri_map_answers_as_a_btree_map_does() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        use std::collections::BTreeMap;

        let texts = ["mbt://a", "mbt://b", "mbt://c/1", "mbt://c/2", "mbt://d"];
        let tie = stable_hash(b"mbt://tie/x");
        // Every text twice, as two allocations; the last two share a hash.
        let pool: Vec<[Uri; 2]> = (texts.iter())
            .map(|t| [0; 2].map(|_| Uri::new(*t).unwrap()))
            .chain(["mbt://tie/x", "mbt://tie/y"].map(|t| [0; 2].map(|_| with_hash(t, tie))))
            .collect();
        assert_ne!(pool[texts.len()][0], pool[texts.len() + 1][0]);

        let mut rng = StdRng::seed_from_u64(50);
        let mut map: UriMap<u32> = UriMap::default();
        let mut model: BTreeMap<Uri, u32> = BTreeMap::new();
        for step in 0..4000 {
            let uri = &pool[rng.gen_range(0..pool.len())][rng.gen_range(0..2usize)];
            let value = rng.gen_range(0..100u32);
            match rng.gen_range(0..6) {
                0 => assert_eq!(map.get(uri), model.get(uri), "step {step}: get"),
                1 => assert_eq!(map.contains(uri), model.contains_key(uri), "step {step}"),
                2 => {
                    // Insert-if-absent, then a write through the returned
                    // reference: the map's `get_mut`.
                    let fresh = !model.contains_key(uri);
                    let (held, inserted) = map.get_or_insert_with(uri, || value);
                    assert_eq!(inserted, fresh, "step {step}: inserted");
                    *held += 1;
                    *model.entry(uri.clone()).or_insert(value) += 1;
                }
                3 => assert_eq!(
                    map.insert(uri.clone(), value),
                    model.insert(uri.clone(), value),
                    "step {step}: replace"
                ),
                4 => assert_eq!(map.remove(uri), model.remove(uri), "step {step}: remove"),
                _ => {
                    let k = value % 3;
                    map.retain(|_, v| *v % 3 != k);
                    model.retain(|_, v| *v % 3 != k);
                }
            }
            let in_map_order: Vec<&Uri> = map.keys().collect();
            assert!(
                (in_map_order.windows(2)).all(|w| w[0].map_cmp(w[1]) == Ordering::Less),
                "step {step}: map order"
            );
            let mut contents: Vec<(&Uri, &u32)> = map.iter().collect();
            contents.sort();
            assert_eq!(contents, model.iter().collect::<Vec<_>>(), "step {step}");
            assert_eq!((map.len(), map.is_empty()), (model.len(), model.is_empty()));
            assert!(map.values().eq(map.iter().map(|(_, v)| v)));
        }
    }

    #[test]
    fn debug_prints_the_text_alone() {
        assert_eq!(
            format!("{:?}", Uri::new("mbt://x").unwrap()),
            "Uri(\"mbt://x\")"
        );
    }

    #[test]
    fn error_messages() {
        assert!(InvalidUri::Empty.to_string().contains("empty"));
        assert!(InvalidUri::ContainsWhitespace
            .to_string()
            .contains("whitespace"));
    }
}
