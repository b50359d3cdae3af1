//! Wire frames: the serialized form of the contact-phase message flow.
//!
//! Every message a [`Transport`](super::Transport) carries is one frame: a
//! fixed 64-byte header followed by a length-prefixed, checksummed payload.
//! The header is exactly [`FRAME_HEADER_BYTES`] =
//! [`dtn_sim::channel::FRAME_HEADER_BYTES`] bytes, so the simulator's
//! per-frame byte accounting (`channel::frame_bytes`) describes real frames,
//! not an abstraction.
//!
//! ```text
//! offset  size  field
//! 0       4     magic  "MBTF"
//! 4       2     version (big-endian u16, currently 1)
//! 6       1     message kind (see [`FrameKind`])
//! 7       1     flags (reserved, must be 0)
//! 8       4     sender node id (big-endian u32)
//! 12      4     receiver node id (big-endian u32)
//! 16      8     sequence number (big-endian u64)
//! 24      8     payload length in bytes (big-endian u64)
//! 32      8     FNV-1a 64 checksum of the payload (big-endian u64)
//! 40      24    reserved (must be zero)
//! 64      ...   payload
//! ```
//!
//! The decoder never panics: truncated buffers, corrupt checksums, unknown
//! kinds, and malformed payloads all come back as [`FrameError`]s.

use std::collections::BTreeSet;
use std::fmt;
use std::sync::Arc;

use dtn_trace::{NodeId, SimTime};

use crate::checksum::Digest;
use crate::metadata::Metadata;
use crate::piece::{Piece, PieceId};
use crate::popularity::Popularity;
use crate::query::Query;
use crate::store::OwnQuery;
use crate::uri::Uri;

/// Leading magic bytes of every frame.
pub const FRAME_MAGIC: [u8; 4] = *b"MBTF";

/// Current frame format version.
pub const FRAME_VERSION: u16 = 1;

/// Size of the frame header in bytes — deliberately equal to
/// [`dtn_sim::channel::FRAME_HEADER_BYTES`] so the simulator's byte
/// accounting matches the wire format.
pub const FRAME_HEADER_BYTES: usize = 64;

/// Discriminant of a frame's message kind (header byte 6).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
#[repr(u8)]
pub enum FrameKind {
    /// Contact-start hello beacon.
    Hello = 0,
    /// A query forwarded to a frequent contact (full MBT, §IV).
    QueryShare = 1,
    /// A standalone metadata broadcast (§IV).
    Metadata = 2,
    /// A file broadcast with its metadata riding along (§V).
    FileBroadcast = 3,
    /// Request for one piece of a file.
    PieceRequest = 4,
    /// One piece of a file's content.
    Piece = 5,
    /// A keyword search sent to a gateway.
    Search = 6,
    /// A gateway's ranked answer to a search.
    SearchResults = 7,
}

impl FrameKind {
    fn from_u8(b: u8) -> Option<FrameKind> {
        Some(match b {
            0 => FrameKind::Hello,
            1 => FrameKind::QueryShare,
            2 => FrameKind::Metadata,
            3 => FrameKind::FileBroadcast,
            4 => FrameKind::PieceRequest,
            5 => FrameKind::Piece,
            6 => FrameKind::Search,
            7 => FrameKind::SearchResults,
            _ => return None,
        })
    }

    /// Stable lowercase name (used in stats tables and test pins).
    pub fn name(self) -> &'static str {
        match self {
            FrameKind::Hello => "hello",
            FrameKind::QueryShare => "query-share",
            FrameKind::Metadata => "metadata",
            FrameKind::FileBroadcast => "file-broadcast",
            FrameKind::PieceRequest => "piece-request",
            FrameKind::Piece => "piece",
            FrameKind::Search => "search",
            FrameKind::SearchResults => "search-results",
        }
    }
}

impl fmt::Display for FrameKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// The hello beacon a member serializes at contact start: its advertised
/// state, addressed to the clique coordinator (paper §III-B).
///
/// The two lists a contact never changes — the own queries and the frequent
/// set — are shared slices, so building a hello from a node copies neither.
#[derive(Debug, Clone, PartialEq)]
pub struct HelloFrame {
    /// The advertising node.
    pub sender: NodeId,
    /// The node's own active queries with their expiries.
    pub own_queries: Arc<[OwnQuery]>,
    /// Queries carried on behalf of frequent contacts (full MBT only).
    pub foreign_queries: Vec<Query>,
    /// URIs the node wants to download (§III-B "downloading files").
    pub wanted: BTreeSet<Uri>,
    /// URIs the node blacklisted after authentication failures.
    pub rejected: BTreeSet<Uri>,
    /// The node's frequent contacting nodes, ascending and distinct.
    pub frequent: Arc<[NodeId]>,
    /// The node's tit-for-tat ledger as raw `(peer, credit)` entries.
    pub credits: Vec<(NodeId, f64)>,
}

/// `ids` as an ascending, duplicate-free shared slice — the very allocation
/// handed in when it already is one.
pub(crate) fn ascending(ids: Arc<[NodeId]>) -> Arc<[NodeId]> {
    if ids.windows(2).all(|w| w[0] < w[1]) {
        return ids;
    }
    let sorted: BTreeSet<NodeId> = ids.iter().copied().collect();
    sorted.into_iter().collect()
}

/// One contact-phase message, as carried by a
/// [`Transport`](super::Transport).
#[derive(Debug, Clone, PartialEq)]
pub enum WireMessage {
    /// Contact-start hello beacon.
    Hello(HelloFrame),
    /// A query forwarded to a frequent contact (full MBT, §IV).
    QueryShare {
        /// The querying node (credited as the query's owner).
        owner: NodeId,
        /// The query itself.
        query: Query,
        /// When the query expires, if ever.
        expires: Option<SimTime>,
    },
    /// A standalone metadata broadcast (§IV).
    Metadata {
        /// The advertised record.
        metadata: Metadata,
        /// The sender's popularity estimate for it.
        popularity: Popularity,
    },
    /// A file broadcast; the file's metadata rides along for verification.
    FileBroadcast {
        /// The broadcast file.
        uri: Uri,
        /// Riding metadata and its popularity, when the sender holds it.
        metadata: Option<(Metadata, Popularity)>,
    },
    /// Request for one piece of a file (live/bus runtime).
    PieceRequest {
        /// The wanted file.
        uri: Uri,
        /// Zero-based piece index.
        index: u32,
    },
    /// One piece of a file's content (live/bus runtime).
    Piece(Piece),
    /// A keyword search sent to a gateway (live/bus runtime).
    Search {
        /// The search query.
        query: Query,
        /// Maximum number of results wanted.
        limit: u32,
    },
    /// A gateway's ranked answer to a search.
    SearchResults {
        /// Matched records, best first, with server popularity.
        results: Vec<(Metadata, Popularity)>,
    },
}

impl WireMessage {
    /// The message's frame kind.
    pub fn kind(&self) -> FrameKind {
        match self {
            WireMessage::Hello(_) => FrameKind::Hello,
            WireMessage::QueryShare { .. } => FrameKind::QueryShare,
            WireMessage::Metadata { .. } => FrameKind::Metadata,
            WireMessage::FileBroadcast { .. } => FrameKind::FileBroadcast,
            WireMessage::PieceRequest { .. } => FrameKind::PieceRequest,
            WireMessage::Piece(_) => FrameKind::Piece,
            WireMessage::Search { .. } => FrameKind::Search,
            WireMessage::SearchResults { .. } => FrameKind::SearchResults,
        }
    }
}

/// A decoded frame: routing header plus message.
#[derive(Debug, Clone, PartialEq)]
pub struct Frame {
    /// Originating node.
    pub sender: NodeId,
    /// Destination node.
    pub receiver: NodeId,
    /// Sender-assigned sequence number.
    pub seq: u64,
    /// The carried message.
    pub message: WireMessage,
}

/// Why a buffer failed to decode as a frame. The decoder returns these for
/// arbitrary input — it never panics.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FrameError {
    /// The buffer ends before the header or declared payload does.
    Truncated {
        /// Bytes required.
        needed: usize,
        /// Bytes available.
        have: usize,
    },
    /// The magic bytes are not `"MBTF"`.
    BadMagic,
    /// The version field is not [`FRAME_VERSION`].
    BadVersion(u16),
    /// The payload checksum does not match the header.
    BadChecksum,
    /// The kind byte names no known message kind.
    UnknownKind(u8),
    /// The payload's structure is invalid for its kind.
    Malformed(&'static str),
}

impl fmt::Display for FrameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FrameError::Truncated { needed, have } => {
                write!(f, "truncated frame: need {needed} bytes, have {have}")
            }
            FrameError::BadMagic => write!(f, "bad frame magic"),
            FrameError::BadVersion(v) => write!(f, "unsupported frame version {v}"),
            FrameError::BadChecksum => write!(f, "frame payload checksum mismatch"),
            FrameError::UnknownKind(k) => write!(f, "unknown frame kind {k}"),
            FrameError::Malformed(what) => write!(f, "malformed frame payload: {what}"),
        }
    }
}

impl std::error::Error for FrameError {}

/// FNV-1a 64-bit hash — the payload checksum. Cheap, dependency-free, and
/// plenty for catching truncation and bit rot on an in-process bus.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// Serializes `message` into a complete frame addressed
/// `sender → receiver`.
pub fn encode_frame(sender: NodeId, receiver: NodeId, seq: u64, message: &WireMessage) -> Vec<u8> {
    let mut out = Vec::with_capacity(2 * FRAME_HEADER_BYTES);
    encode_frame_into(&mut out, sender, receiver, seq, message);
    out
}

/// [`encode_frame`] into `out`, replacing its contents, so a caller that
/// keeps one buffer allocates only when a frame outgrows it: the header is
/// written with its length and checksum zeroed, the payload after it, and
/// the two fields patched in last.
pub(crate) fn encode_frame_into(
    out: &mut Vec<u8>,
    sender: NodeId,
    receiver: NodeId,
    seq: u64,
    message: &WireMessage,
) {
    out.clear();
    out.extend_from_slice(&FRAME_MAGIC);
    out.extend_from_slice(&FRAME_VERSION.to_be_bytes());
    out.push(message.kind() as u8);
    out.push(0); // flags
    out.extend_from_slice(&sender.raw().to_be_bytes());
    out.extend_from_slice(&receiver.raw().to_be_bytes());
    out.extend_from_slice(&seq.to_be_bytes());
    out.resize(FRAME_HEADER_BYTES, 0); // length, checksum, reserved
    encode_payload(message, out);
    let payload = &out[FRAME_HEADER_BYTES..];
    let (len, checksum) = (payload.len() as u64, fnv1a(payload));
    out[24..32].copy_from_slice(&len.to_be_bytes());
    out[32..40].copy_from_slice(&checksum.to_be_bytes());
}

/// Parses a complete frame from `bytes`.
///
/// # Errors
///
/// Returns a [`FrameError`] describing the first defect found; arbitrary
/// input never panics.
pub fn decode_frame(bytes: &[u8]) -> Result<Frame, FrameError> {
    if bytes.len() < FRAME_HEADER_BYTES {
        return Err(FrameError::Truncated {
            needed: FRAME_HEADER_BYTES,
            have: bytes.len(),
        });
    }
    if bytes[0..4] != FRAME_MAGIC {
        return Err(FrameError::BadMagic);
    }
    let version = u16::from_be_bytes([bytes[4], bytes[5]]);
    if version != FRAME_VERSION {
        return Err(FrameError::BadVersion(version));
    }
    let kind = FrameKind::from_u8(bytes[6]).ok_or(FrameError::UnknownKind(bytes[6]))?;
    if bytes[7] != 0 || bytes[40..FRAME_HEADER_BYTES].iter().any(|&b| b != 0) {
        return Err(FrameError::Malformed("non-zero flags or reserved bytes"));
    }
    let sender = NodeId::new(u32::from_be_bytes(bytes[8..12].try_into().unwrap()));
    let receiver = NodeId::new(u32::from_be_bytes(bytes[12..16].try_into().unwrap()));
    let seq = u64::from_be_bytes(bytes[16..24].try_into().unwrap());
    let payload_len = u64::from_be_bytes(bytes[24..32].try_into().unwrap());
    let checksum = u64::from_be_bytes(bytes[32..40].try_into().unwrap());
    let Ok(payload_len) = usize::try_from(payload_len) else {
        return Err(FrameError::Truncated {
            needed: usize::MAX,
            have: bytes.len(),
        });
    };
    let needed = FRAME_HEADER_BYTES.saturating_add(payload_len);
    if bytes.len() < needed {
        return Err(FrameError::Truncated {
            needed,
            have: bytes.len(),
        });
    }
    if bytes.len() > needed {
        return Err(FrameError::Malformed("trailing bytes after payload"));
    }
    let payload = &bytes[FRAME_HEADER_BYTES..];
    if fnv1a(payload) != checksum {
        return Err(FrameError::BadChecksum);
    }
    let mut r = Reader::new(payload);
    let message = decode_payload(kind, &mut r)?;
    if r.remaining() != 0 {
        return Err(FrameError::Malformed("unconsumed payload bytes"));
    }
    Ok(Frame {
        sender,
        receiver,
        seq,
        message,
    })
}

// --- Payload primitives. ---
//
// Strings are u32-length-prefixed UTF-8; collections are u32-count-prefixed;
// options are a 1-byte tag; floats travel as raw IEEE-754 bits so credits
// and popularities round-trip bit-for-bit.

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_be_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_be_bytes());
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    put_u32(out, s.len() as u32);
    out.extend_from_slice(s.as_bytes());
}

fn put_opt_time(out: &mut Vec<u8>, t: Option<SimTime>) {
    match t {
        None => out.push(0),
        Some(t) => {
            out.push(1);
            put_u64(out, t.as_secs());
        }
    }
}

struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], FrameError> {
        if self.remaining() < n {
            return Err(FrameError::Truncated {
                needed: self.pos + n,
                have: self.buf.len(),
            });
        }
        let slice = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    fn u8(&mut self) -> Result<u8, FrameError> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, FrameError> {
        Ok(u32::from_be_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> Result<u64, FrameError> {
        Ok(u64::from_be_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// A u32 element count, sanity-checked against the bytes actually left
    /// (each element costs at least `min_bytes`), so a forged count cannot
    /// drive huge allocations.
    fn count(&mut self, min_bytes: usize) -> Result<usize, FrameError> {
        let n = self.u32()? as usize;
        if n.saturating_mul(min_bytes.max(1)) > self.remaining() {
            return Err(FrameError::Malformed("element count exceeds payload"));
        }
        Ok(n)
    }

    fn str(&mut self) -> Result<&'a str, FrameError> {
        let len = self.u32()? as usize;
        let bytes = self.take(len)?;
        std::str::from_utf8(bytes).map_err(|_| FrameError::Malformed("invalid UTF-8"))
    }

    fn uri(&mut self) -> Result<Uri, FrameError> {
        Uri::new(self.str()?).map_err(|_| FrameError::Malformed("invalid uri"))
    }

    fn query(&mut self) -> Result<Query, FrameError> {
        Query::new(self.str()?).map_err(|_| FrameError::Malformed("tokenless query"))
    }

    fn node(&mut self) -> Result<NodeId, FrameError> {
        Ok(NodeId::new(self.u32()?))
    }

    fn opt_time(&mut self) -> Result<Option<SimTime>, FrameError> {
        match self.u8()? {
            0 => Ok(None),
            1 => Ok(Some(SimTime::from_secs(self.u64()?))),
            _ => Err(FrameError::Malformed("bad option tag")),
        }
    }

    fn digest(&mut self) -> Result<Digest, FrameError> {
        Ok(Digest(self.take(20)?.try_into().unwrap()))
    }
}

fn put_metadata(out: &mut Vec<u8>, m: &Metadata) {
    put_str(out, m.name());
    put_str(out, m.publisher());
    put_str(out, m.description());
    put_str(out, m.uri().as_str());
    put_u64(out, m.size());
    put_u64(out, m.piece_size());
    put_u32(out, m.piece_checksums().len() as u32);
    for d in m.piece_checksums() {
        out.extend_from_slice(d.as_bytes());
    }
    put_u64(out, m.created().as_secs());
    put_opt_time(out, m.expires());
    match m.auth_tag() {
        None => out.push(0),
        Some(tag) => {
            out.push(1);
            out.extend_from_slice(tag.as_bytes());
        }
    }
}

fn read_metadata(r: &mut Reader<'_>) -> Result<Metadata, FrameError> {
    let name = r.str()?.to_string();
    let publisher = r.str()?.to_string();
    let description = r.str()?.to_string();
    let uri = r.uri()?;
    let size = r.u64()?;
    let piece_size = r.u64()?;
    let n_checksums = r.count(20)?;
    let mut checksums = Vec::with_capacity(n_checksums);
    for _ in 0..n_checksums {
        checksums.push(r.digest()?);
    }
    let created = SimTime::from_secs(r.u64()?);
    let expires = r.opt_time()?;
    let auth_tag = match r.u8()? {
        0 => None,
        1 => Some(r.digest()?),
        _ => return Err(FrameError::Malformed("bad option tag")),
    };
    let mut meta = Metadata::builder(name, publisher, uri)
        .description(description)
        .sized(size, piece_size, checksums)
        .created(created)
        .expires_at(expires)
        .build();
    if let Some(tag) = auth_tag {
        meta.set_auth_tag(tag);
    }
    Ok(meta)
}

fn put_meta_pop(out: &mut Vec<u8>, m: &Metadata, p: Popularity) {
    put_metadata(out, m);
    put_u64(out, p.value().to_bits());
}

fn read_meta_pop(r: &mut Reader<'_>) -> Result<(Metadata, Popularity), FrameError> {
    let m = read_metadata(r)?;
    let p = Popularity::new(f64::from_bits(r.u64()?));
    Ok((m, p))
}

fn encode_payload(message: &WireMessage, out: &mut Vec<u8>) {
    match message {
        WireMessage::Hello(h) => {
            put_u32(out, h.sender.raw());
            put_u32(out, h.own_queries.len() as u32);
            for (q, expires) in h.own_queries.iter() {
                put_str(out, q.text());
                put_opt_time(out, *expires);
            }
            put_u32(out, h.foreign_queries.len() as u32);
            for q in &h.foreign_queries {
                put_str(out, q.text());
            }
            put_u32(out, h.wanted.len() as u32);
            for uri in &h.wanted {
                put_str(out, uri.as_str());
            }
            put_u32(out, h.rejected.len() as u32);
            for uri in &h.rejected {
                put_str(out, uri.as_str());
            }
            put_u32(out, h.frequent.len() as u32);
            for id in h.frequent.iter() {
                put_u32(out, id.raw());
            }
            put_u32(out, h.credits.len() as u32);
            for (id, credit) in &h.credits {
                put_u32(out, id.raw());
                put_u64(out, credit.to_bits());
            }
        }
        WireMessage::QueryShare {
            owner,
            query,
            expires,
        } => {
            put_u32(out, owner.raw());
            put_str(out, query.text());
            put_opt_time(out, *expires);
        }
        WireMessage::Metadata {
            metadata,
            popularity,
        } => put_meta_pop(out, metadata, *popularity),
        WireMessage::FileBroadcast { uri, metadata } => {
            put_str(out, uri.as_str());
            match metadata {
                None => out.push(0),
                Some((m, p)) => {
                    out.push(1);
                    put_meta_pop(out, m, *p);
                }
            }
        }
        WireMessage::PieceRequest { uri, index } => {
            put_str(out, uri.as_str());
            put_u32(out, *index);
        }
        WireMessage::Piece(piece) => {
            put_str(out, piece.id().uri().as_str());
            put_u32(out, piece.id().index());
            put_u32(out, piece.len() as u32);
            out.extend_from_slice(piece.data());
        }
        WireMessage::Search { query, limit } => {
            put_str(out, query.text());
            put_u32(out, *limit);
        }
        WireMessage::SearchResults { results } => {
            put_u32(out, results.len() as u32);
            for (m, p) in results {
                put_meta_pop(out, m, *p);
            }
        }
    }
}

fn decode_payload(kind: FrameKind, r: &mut Reader<'_>) -> Result<WireMessage, FrameError> {
    Ok(match kind {
        FrameKind::Hello => {
            let sender = r.node()?;
            let n_own = r.count(5)?;
            let mut own_queries = Vec::with_capacity(n_own);
            for _ in 0..n_own {
                let q = r.query()?;
                own_queries.push((q, r.opt_time()?));
            }
            let own_queries = own_queries.into();
            let n_foreign = r.count(4)?;
            let mut foreign_queries = Vec::with_capacity(n_foreign);
            for _ in 0..n_foreign {
                foreign_queries.push(r.query()?);
            }
            let mut wanted = BTreeSet::new();
            for _ in 0..r.count(4)? {
                wanted.insert(r.uri()?);
            }
            let mut rejected = BTreeSet::new();
            for _ in 0..r.count(4)? {
                rejected.insert(r.uri()?);
            }
            let n_frequent = r.count(4)?;
            let mut frequent = Vec::with_capacity(n_frequent);
            for _ in 0..n_frequent {
                frequent.push(r.node()?);
            }
            let frequent = ascending(frequent.into());
            let n_credits = r.count(12)?;
            let mut credits = Vec::with_capacity(n_credits);
            for _ in 0..n_credits {
                let id = r.node()?;
                credits.push((id, f64::from_bits(r.u64()?)));
            }
            WireMessage::Hello(HelloFrame {
                sender,
                own_queries,
                foreign_queries,
                wanted,
                rejected,
                frequent,
                credits,
            })
        }
        FrameKind::QueryShare => WireMessage::QueryShare {
            owner: r.node()?,
            query: r.query()?,
            expires: r.opt_time()?,
        },
        FrameKind::Metadata => {
            let (metadata, popularity) = read_meta_pop(r)?;
            WireMessage::Metadata {
                metadata,
                popularity,
            }
        }
        FrameKind::FileBroadcast => {
            let uri = r.uri()?;
            let metadata = match r.u8()? {
                0 => None,
                1 => Some(read_meta_pop(r)?),
                _ => return Err(FrameError::Malformed("bad option tag")),
            };
            WireMessage::FileBroadcast { uri, metadata }
        }
        FrameKind::PieceRequest => WireMessage::PieceRequest {
            uri: r.uri()?,
            index: r.u32()?,
        },
        FrameKind::Piece => {
            let uri = r.uri()?;
            let index = r.u32()?;
            let len = r.count(1)?;
            let data = r.take(len)?.to_vec();
            WireMessage::Piece(Piece::new(PieceId::new(uri, index), data))
        }
        FrameKind::Search => WireMessage::Search {
            query: r.query()?,
            limit: r.u32()?,
        },
        FrameKind::SearchResults => {
            let n = r.count(1)?;
            let mut results = Vec::with_capacity(n);
            for _ in 0..n {
                results.push(read_meta_pop(r)?);
            }
            WireMessage::SearchResults { results }
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn n(i: u32) -> NodeId {
        NodeId::new(i)
    }

    fn uri(s: &str) -> Uri {
        Uri::new(s).unwrap()
    }

    fn sample_metadata() -> Metadata {
        let data = vec![7u8; 100];
        let mut m = Metadata::builder("FOX Evening News", "FOX", uri("mbt://fox/news"))
            .description("nightly broadcast")
            .content(&data, 32)
            .created(SimTime::from_secs(100))
            .expires_at(Some(SimTime::from_secs(9_000)))
            .build();
        m.set_auth_tag(crate::checksum::sha1(b"tag"));
        m
    }

    fn round_trip(msg: WireMessage) -> Frame {
        let bytes = encode_frame(n(3), n(9), 42, &msg);
        let frame = decode_frame(&bytes).expect("valid frame must decode");
        assert_eq!(frame.sender, n(3));
        assert_eq!(frame.receiver, n(9));
        assert_eq!(frame.seq, 42);
        assert_eq!(frame.message, msg);
        frame
    }

    #[test]
    fn header_is_exactly_the_simulator_frame_overhead() {
        assert_eq!(
            FRAME_HEADER_BYTES as u64,
            dtn_sim::channel::FRAME_HEADER_BYTES
        );
        let bytes = encode_frame(
            n(0),
            n(1),
            0,
            &WireMessage::PieceRequest {
                uri: uri("mbt://a"),
                index: 0,
            },
        );
        // frame_bytes(payload) must describe the real encoding.
        assert_eq!(
            bytes.len() as u64,
            dtn_sim::channel::frame_bytes((bytes.len() - FRAME_HEADER_BYTES) as u64)
        );
    }

    #[test]
    fn every_kind_round_trips() {
        let meta = sample_metadata();
        let messages = vec![
            WireMessage::Hello(HelloFrame {
                sender: n(1),
                own_queries: vec![
                    (Query::new("fox news").unwrap(), None),
                    (
                        Query::new("abc comedy").unwrap(),
                        Some(SimTime::from_secs(500)),
                    ),
                ]
                .into(),
                foreign_queries: vec![Query::new("cbs sports").unwrap()],
                wanted: [uri("mbt://a"), uri("mbt://b")].into_iter().collect(),
                rejected: [uri("mbt://fake")].into_iter().collect(),
                frequent: [n(2), n(5)].into_iter().collect(),
                credits: vec![(n(2), 5.0), (n(7), 0.25)],
            }),
            WireMessage::QueryShare {
                owner: n(4),
                query: Query::new("evening news").unwrap(),
                expires: Some(SimTime::from_secs(777)),
            },
            WireMessage::Metadata {
                metadata: meta.clone(),
                popularity: Popularity::new(0.75),
            },
            WireMessage::FileBroadcast {
                uri: uri("mbt://fox/news"),
                metadata: Some((meta.clone(), Popularity::new(0.5))),
            },
            WireMessage::FileBroadcast {
                uri: uri("mbt://bare"),
                metadata: None,
            },
            WireMessage::PieceRequest {
                uri: uri("mbt://fox/news"),
                index: 2,
            },
            WireMessage::Piece(Piece::new(
                PieceId::new(uri("mbt://fox/news"), 2),
                vec![1, 2, 3, 4],
            )),
            WireMessage::Search {
                query: Query::new("fox").unwrap(),
                limit: 5,
            },
            WireMessage::SearchResults {
                results: vec![(meta, Popularity::MAX)],
            },
        ];
        // One message of every kind — keep this list exhaustive.
        let kinds: BTreeSet<u8> = messages.iter().map(|m| m.kind() as u8).collect();
        assert_eq!(kinds.len(), 8, "every frame kind must be covered");
        for msg in messages {
            round_trip(msg);
        }
    }

    #[test]
    fn metadata_round_trip_preserves_auth_and_matching() {
        let meta = sample_metadata();
        let bytes = encode_frame(
            n(0),
            n(1),
            0,
            &WireMessage::Metadata {
                metadata: meta.clone(),
                popularity: Popularity::new(0.3),
            },
        );
        let WireMessage::Metadata { metadata: back, .. } = decode_frame(&bytes).unwrap().message
        else {
            panic!("kind changed in flight");
        };
        assert_eq!(back, meta);
        assert_eq!(back.auth_tag(), meta.auth_tag());
        assert_eq!(back.canonical_bytes(), meta.canonical_bytes());
        assert_eq!(back.token_set(), meta.token_set());
        assert_eq!(back.wire_size(), meta.wire_size());
    }

    #[test]
    fn truncated_header_and_payload_are_rejected() {
        let bytes = encode_frame(
            n(0),
            n(1),
            7,
            &WireMessage::PieceRequest {
                uri: uri("mbt://a"),
                index: 1,
            },
        );
        for cut in 0..bytes.len() {
            let err = decode_frame(&bytes[..cut]).unwrap_err();
            assert!(
                matches!(err, FrameError::Truncated { .. }),
                "cut at {cut} gave {err:?}"
            );
        }
    }

    #[test]
    fn corrupt_payload_fails_checksum() {
        let mut bytes = encode_frame(
            n(0),
            n(1),
            7,
            &WireMessage::Search {
                query: Query::new("fox").unwrap(),
                limit: 3,
            },
        );
        let last = bytes.len() - 1;
        bytes[last] ^= 0x40;
        assert_eq!(decode_frame(&bytes).unwrap_err(), FrameError::BadChecksum);
    }

    #[test]
    fn bad_magic_version_and_kind_are_rejected() {
        let good = encode_frame(
            n(0),
            n(1),
            0,
            &WireMessage::PieceRequest {
                uri: uri("mbt://a"),
                index: 0,
            },
        );
        let mut bad = good.clone();
        bad[0] = b'X';
        assert_eq!(decode_frame(&bad).unwrap_err(), FrameError::BadMagic);
        let mut bad = good.clone();
        bad[5] = 99;
        assert_eq!(decode_frame(&bad).unwrap_err(), FrameError::BadVersion(99));
        let mut bad = good.clone();
        bad[6] = 200;
        assert_eq!(
            decode_frame(&bad).unwrap_err(),
            FrameError::UnknownKind(200)
        );
    }

    #[test]
    fn non_zero_flags_and_reserved_bytes_are_rejected() {
        let good = encode_frame(
            n(0),
            n(1),
            0,
            &WireMessage::PieceRequest {
                uri: uri("mbt://a"),
                index: 0,
            },
        );
        for at in [7, 40, FRAME_HEADER_BYTES - 1] {
            let mut bad = good.clone();
            bad[at] = 1;
            assert!(
                matches!(decode_frame(&bad).unwrap_err(), FrameError::Malformed(_)),
                "byte {at}"
            );
        }
    }

    #[test]
    fn encoding_into_a_used_buffer_replaces_it() {
        let msg = WireMessage::Search {
            query: Query::new("fox news").unwrap(),
            limit: 4,
        };
        let mut buf = encode_frame(
            n(9),
            n(8),
            1,
            &WireMessage::Piece(Piece::new(PieceId::new(uri("mbt://big"), 0), vec![5; 500])),
        );
        encode_frame_into(&mut buf, n(3), n(4), 5, &msg);
        assert_eq!(buf, encode_frame(n(3), n(4), 5, &msg));
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let mut bytes = encode_frame(
            n(0),
            n(1),
            0,
            &WireMessage::PieceRequest {
                uri: uri("mbt://a"),
                index: 0,
            },
        );
        bytes.push(0);
        assert!(matches!(
            decode_frame(&bytes).unwrap_err(),
            FrameError::Malformed(_)
        ));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn piece_frames_round_trip(
            name in "[a-z0-9]{1,12}",
            index in 0u32..1000,
            data in proptest::collection::vec(any::<u8>(), 0..2_000),
        ) {
            let msg = WireMessage::Piece(Piece::new(
                PieceId::new(Uri::new(format!("mbt://p/{name}")).unwrap(), index),
                data,
            ));
            let bytes = encode_frame(n(1), n(2), 0, &msg);
            prop_assert_eq!(decode_frame(&bytes).unwrap().message, msg);
        }

        #[test]
        fn hello_frames_round_trip(
            texts in proptest::collection::vec("[a-z]{1,8}( [a-z]{1,8}){0,1}", 0..5),
            wanted in proptest::collection::btree_set("[a-z0-9]{1,10}", 0..5),
            peers in proptest::collection::btree_set(0u32..64, 0..6),
            credit_bits in proptest::collection::vec((0u32..64, any::<u32>()), 0..6),
        ) {
            let msg = WireMessage::Hello(HelloFrame {
                sender: n(0),
                own_queries: texts
                    .iter()
                    .map(|t| (Query::new(t.clone()).unwrap(), Some(SimTime::from_secs(7))))
                    .collect(),
                foreign_queries: texts.iter().map(|t| Query::new(t.clone()).unwrap()).collect(),
                wanted: wanted
                    .iter()
                    .map(|s| Uri::new(format!("mbt://w/{s}")).unwrap())
                    .collect(),
                rejected: BTreeSet::new(),
                frequent: peers
                    .iter()
                    .map(|&i| n(i))
                    .collect::<BTreeSet<_>>()
                    .into_iter()
                    .collect(),
                credits: credit_bits
                    .iter()
                    .map(|&(i, c)| (n(i), f64::from(c) * 0.25))
                    .collect(),
            });
            let bytes = encode_frame(n(0), n(1), 9, &msg);
            prop_assert_eq!(decode_frame(&bytes).unwrap().message, msg);
        }

        #[test]
        fn decoder_never_panics_on_noise(
            data in proptest::collection::vec(any::<u8>(), 0..300),
        ) {
            // Raw noise: any result is fine, panics are not.
            let _ = decode_frame(&data);
        }

        #[test]
        fn decoder_never_panics_on_mutated_frames(
            flip_at in 0usize..200,
            xor in 1u8..=255,
        ) {
            let msg = WireMessage::Metadata {
                metadata: sample_metadata(),
                popularity: Popularity::new(0.5),
            };
            let mut bytes = encode_frame(n(1), n(2), 3, &msg);
            let at = flip_at % bytes.len();
            bytes[at] ^= xor;
            // Header mutations that only touch routing fields (sender,
            // receiver, seq) still decode — the payload is intact. Anything
            // else must error, not panic.
            if let Ok(frame) = decode_frame(&bytes) {
                prop_assert!((8..24).contains(&at), "a flip at byte {} decoded", at);
                prop_assert_eq!(frame.message, msg);
            }
        }
    }
}
