//! File metadata.
//!
//! Each file is associated with a metadata record containing (a) the file
//! name, (b) the file publisher, (c) the file description, (d) the URI of
//! the file, (e) the checksums of its pieces, and (f) authentication
//! information against fake publishers (paper §III-B). Unlike BitTorrent
//! metadata, MBT metadata carries enough descriptive information for users to
//! decide *which* file to download — metadata acts as an advertisement and
//! can be distributed even before the file itself is produced.

use std::fmt;
use std::sync::Arc;

use dtn_trace::{SimDuration, SimTime};

use crate::checksum::{sha1, Digest};
use crate::keyword::TokenSet;
use crate::piece::{piece_count, Piece, PIECE_SIZE};
use crate::query::Query;
use crate::uri::Uri;

/// A file's metadata record.
///
/// Construct with [`Metadata::builder`]; sign with
/// [`auth::sign`](crate::auth::sign) to fill the authentication tag.
///
/// The record lives behind a shared allocation: cloning — which a contact
/// does for every catalog row and every broadcast, and a receiver for every
/// record it stores — is a reference-count bump. The only post-build mutation,
/// [`auth::sign`](crate::auth::sign), copies on write.
///
/// # Example
///
/// ```
/// use mbt_core::{Metadata, Query, Uri};
///
/// let uri = Uri::new("mbt://fox/evening-news/2011-04-01")?;
/// let meta = Metadata::builder("FOX Evening News April 1", "FOX", uri)
///     .description("Nightly news broadcast")
///     .content(b"...video bytes...", 16)
///     .build();
/// let q = Query::new("evening news")?;
/// assert!(meta.matches_query(&q));
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Metadata {
    inner: Arc<MetadataInner>,
}

#[derive(Debug, Clone, PartialEq, Eq)]
struct MetadataInner {
    name: String,
    publisher: String,
    description: String,
    uri: Uri,
    size: u64,
    piece_size: u64,
    piece_checksums: Vec<Digest>,
    created: SimTime,
    expires: Option<SimTime>,
    auth_tag: Option<Digest>,
    /// Token set of name + publisher + description, computed once at build
    /// time. Derived from the text fields, so it does not perturb equality.
    tokens: TokenSet,
}

/// Builder for [`Metadata`].
#[derive(Debug, Clone)]
pub struct MetadataBuilder {
    name: String,
    publisher: String,
    description: String,
    uri: Uri,
    size: u64,
    piece_size: u64,
    piece_checksums: Vec<Digest>,
    created: SimTime,
    expires: Option<SimTime>,
}

impl MetadataBuilder {
    /// Sets the free-text description / advertisement.
    pub fn description<S: Into<String>>(mut self, d: S) -> Self {
        self.description = d.into();
        self
    }

    /// Derives size and per-piece checksums from the actual content bytes.
    ///
    /// # Panics
    ///
    /// Panics if `piece_size` is zero.
    pub fn content(mut self, data: &[u8], piece_size: usize) -> Self {
        assert!(piece_size > 0, "piece size must be positive");
        self.size = data.len() as u64;
        self.piece_size = piece_size as u64;
        self.piece_checksums = data.chunks(piece_size).map(sha1).collect();
        self
    }

    /// Declares size and checksums directly (for simulations where payloads
    /// are virtual).
    pub fn sized(mut self, size: u64, piece_size: u64, checksums: Vec<Digest>) -> Self {
        self.size = size;
        self.piece_size = piece_size.max(1);
        self.piece_checksums = checksums;
        self
    }

    /// Sets the creation instant (default: time zero).
    pub fn created(mut self, at: SimTime) -> Self {
        self.created = at;
        self
    }

    /// Sets a time-to-live; the metadata (and its file) expire at
    /// `created + ttl`.
    pub fn ttl(mut self, ttl: SimDuration) -> Self {
        self.expires = Some(self.created + ttl);
        self
    }

    /// Sets the absolute expiry instant directly (`None` clears it).
    ///
    /// Wire decoding uses this: frames carry the expiry as an instant, not a
    /// TTL, so reconstruction must not re-derive it from `created`.
    pub fn expires_at(mut self, at: Option<SimTime>) -> Self {
        self.expires = at;
        self
    }

    /// Finishes the metadata (unsigned; see [`crate::auth::sign`]).
    pub fn build(self) -> Metadata {
        let tokens = TokenSet::from_text(&format!(
            "{} {} {}",
            self.name, self.publisher, self.description
        ));
        Metadata {
            inner: Arc::new(MetadataInner {
                name: self.name,
                publisher: self.publisher,
                description: self.description,
                uri: self.uri,
                size: self.size,
                piece_size: self.piece_size,
                piece_checksums: self.piece_checksums,
                created: self.created,
                expires: self.expires,
                auth_tag: None,
                tokens,
            }),
        }
    }
}

impl Metadata {
    /// Starts building metadata for the file at `uri`.
    pub fn builder<N, P>(name: N, publisher: P, uri: Uri) -> MetadataBuilder
    where
        N: Into<String>,
        P: Into<String>,
    {
        MetadataBuilder {
            name: name.into(),
            publisher: publisher.into(),
            description: String::new(),
            uri,
            size: 0,
            piece_size: PIECE_SIZE as u64,
            piece_checksums: Vec::new(),
            created: SimTime::ZERO,
            expires: None,
        }
    }

    /// The file name.
    pub fn name(&self) -> &str {
        &self.inner.name
    }

    /// The publisher (e.g. "FOX", "ABC").
    pub fn publisher(&self) -> &str {
        &self.inner.publisher
    }

    /// The description / advertisement text.
    pub fn description(&self) -> &str {
        &self.inner.description
    }

    /// The file URI.
    pub fn uri(&self) -> &Uri {
        &self.inner.uri
    }

    /// File size in bytes.
    pub fn size(&self) -> u64 {
        self.inner.size
    }

    /// Piece size in bytes.
    pub fn piece_size(&self) -> u64 {
        self.inner.piece_size
    }

    /// Per-piece SHA-1 checksums.
    pub fn piece_checksums(&self) -> &[Digest] {
        &self.inner.piece_checksums
    }

    /// Number of pieces the file divides into.
    pub fn piece_count(&self) -> u32 {
        if self.inner.piece_checksums.is_empty() {
            piece_count(self.inner.size, self.inner.piece_size)
        } else {
            self.inner.piece_checksums.len() as u32
        }
    }

    /// Creation instant.
    pub fn created(&self) -> SimTime {
        self.inner.created
    }

    /// Expiry instant, if a TTL was set.
    pub fn expires(&self) -> Option<SimTime> {
        self.inner.expires
    }

    /// True if the metadata has expired at `now`.
    pub fn is_expired(&self, now: SimTime) -> bool {
        self.inner.expires.is_some_and(|e| now >= e)
    }

    /// The authentication tag, if signed.
    pub fn auth_tag(&self) -> Option<Digest> {
        self.inner.auth_tag
    }

    /// Sets the authentication tag (used by [`crate::auth::sign`]).
    /// Copies on write if the record is shared.
    pub(crate) fn set_auth_tag(&mut self, tag: Digest) {
        Arc::make_mut(&mut self.inner).auth_tag = Some(tag);
    }

    /// The cached, sorted token set computed once at build time.
    pub fn token_set(&self) -> &TokenSet {
        &self.inner.tokens
    }

    /// True if `query` matches this metadata's searchable text.
    ///
    /// Allocation-free: probes the cached [`token_set`](Self::token_set).
    pub fn matches_query(&self, query: &Query) -> bool {
        query.matches_token_set(&self.inner.tokens)
    }

    /// Verifies a piece's payload against the recorded checksum.
    ///
    /// Returns `false` for a piece of another file, an out-of-range index, or
    /// a checksum mismatch.
    pub fn verify_piece(&self, piece: &Piece) -> bool {
        if piece.id().uri() != &self.inner.uri {
            return false;
        }
        let idx = piece.id().index() as usize;
        match self.inner.piece_checksums.get(idx) {
            Some(&expected) => piece.checksum() == expected,
            None => false,
        }
    }

    /// The bytes covered by the authentication tag: every field except the
    /// tag itself, length-prefixed so field boundaries cannot be confused.
    pub fn canonical_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        let push_str = |out: &mut Vec<u8>, s: &str| {
            out.extend_from_slice(&(s.len() as u64).to_be_bytes());
            out.extend_from_slice(s.as_bytes());
        };
        push_str(&mut out, &self.inner.name);
        push_str(&mut out, &self.inner.publisher);
        push_str(&mut out, &self.inner.description);
        push_str(&mut out, self.inner.uri.as_str());
        out.extend_from_slice(&self.inner.size.to_be_bytes());
        out.extend_from_slice(&self.inner.piece_size.to_be_bytes());
        out.extend_from_slice(&(self.inner.piece_checksums.len() as u64).to_be_bytes());
        for d in &self.inner.piece_checksums {
            out.extend_from_slice(d.as_bytes());
        }
        out.extend_from_slice(&self.inner.created.as_secs().to_be_bytes());
        match self.inner.expires {
            Some(e) => {
                out.push(1);
                out.extend_from_slice(&e.as_secs().to_be_bytes());
            }
            None => out.push(0),
        }
        out
    }

    /// Approximate wire size in bytes (text fields + checksums + fixed
    /// overhead). Metadata "use little bandwidth because they are much
    /// smaller than files" — this lets simulations account for it.
    pub fn wire_size(&self) -> usize {
        self.inner.name.len()
            + self.inner.publisher.len()
            + self.inner.description.len()
            + self.inner.uri.as_str().len()
            + self.inner.piece_checksums.len() * 20
            + 64
    }
}

impl fmt::Display for Metadata {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} by {} ({}, {} bytes, {} pieces)",
            self.inner.name,
            self.inner.publisher,
            self.inner.uri,
            self.inner.size,
            self.piece_count()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::piece::split_into_pieces;

    fn uri() -> Uri {
        Uri::new("mbt://fox/news-1").unwrap()
    }

    fn meta_with_content(data: &[u8]) -> Metadata {
        Metadata::builder("FOX Evening News", "FOX", uri())
            .description("nightly broadcast")
            .content(data, 16)
            .build()
    }

    #[test]
    fn builder_populates_fields() {
        let m = meta_with_content(&[1u8; 40]);
        assert_eq!(m.name(), "FOX Evening News");
        assert_eq!(m.publisher(), "FOX");
        assert_eq!(m.size(), 40);
        assert_eq!(m.piece_size(), 16);
        assert_eq!(m.piece_count(), 3);
        assert_eq!(m.piece_checksums().len(), 3);
        assert!(m.auth_tag().is_none());
    }

    #[test]
    fn query_matching() {
        let m = meta_with_content(&[0u8; 4]);
        assert!(m.matches_query(&Query::new("fox news").unwrap()));
        assert!(m.matches_query(&Query::new("nightly").unwrap()));
        assert!(!m.matches_query(&Query::new("cbs news").unwrap()));
    }

    #[test]
    fn verify_piece_accepts_real_pieces() {
        let data: Vec<u8> = (0..50u8).collect();
        let m = meta_with_content(&data);
        for p in split_into_pieces(&uri(), &data, 16) {
            assert!(m.verify_piece(&p));
        }
    }

    #[test]
    fn verify_piece_rejects_corruption() {
        let data = vec![7u8; 32];
        let m = meta_with_content(&data);
        let bad = Piece::new(crate::piece::PieceId::new(uri(), 0), vec![8u8; 16]);
        assert!(!m.verify_piece(&bad));
    }

    #[test]
    fn verify_piece_rejects_wrong_file_and_index() {
        let data = vec![7u8; 32];
        let m = meta_with_content(&data);
        let other = Uri::new("mbt://other").unwrap();
        let pieces = split_into_pieces(&other, &data, 16);
        assert!(!m.verify_piece(&pieces[0]));
        let out_of_range = Piece::new(crate::piece::PieceId::new(uri(), 9), vec![7u8; 16]);
        assert!(!m.verify_piece(&out_of_range));
    }

    #[test]
    fn expiry() {
        let m = Metadata::builder("x", "p", uri())
            .created(SimTime::from_secs(100))
            .ttl(SimDuration::from_secs(50))
            .build();
        assert!(!m.is_expired(SimTime::from_secs(149)));
        assert!(m.is_expired(SimTime::from_secs(150)));
        assert_eq!(m.expires(), Some(SimTime::from_secs(150)));
    }

    #[test]
    fn no_ttl_never_expires() {
        let m = Metadata::builder("x", "p", uri()).build();
        assert!(!m.is_expired(SimTime::from_secs(u64::MAX / 2)));
    }

    #[test]
    fn canonical_bytes_change_with_fields() {
        let a = Metadata::builder("x", "p", uri()).build();
        let b = Metadata::builder("y", "p", uri()).build();
        assert_ne!(a.canonical_bytes(), b.canonical_bytes());
    }

    #[test]
    fn canonical_bytes_unambiguous_across_field_boundaries() {
        // "ab" + "c" vs "a" + "bc" must differ thanks to length prefixes.
        let a = Metadata::builder("ab", "c", uri()).build();
        let b = Metadata::builder("a", "bc", uri()).build();
        assert_ne!(a.canonical_bytes(), b.canonical_bytes());
    }

    #[test]
    fn sized_builder_for_virtual_content() {
        let m = Metadata::builder("x", "p", uri())
            .sized(1_000_000, 256 * 1024, Vec::new())
            .build();
        assert_eq!(m.piece_count(), 4);
    }

    #[test]
    fn wire_size_is_much_smaller_than_file() {
        let data = vec![0u8; 100_000];
        let m = Metadata::builder("x", "p", uri())
            .content(&data, 4096)
            .build();
        assert!((m.wire_size() as u64) < m.size() / 10);
    }

    #[test]
    fn display_mentions_name_and_uri() {
        let m = meta_with_content(&[0u8; 4]);
        let s = m.to_string();
        assert!(s.contains("FOX Evening News"));
        assert!(s.contains("mbt://fox/news-1"));
    }
}
