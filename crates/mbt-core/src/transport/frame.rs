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
//! 4       2     version (big-endian u16, currently 2)
//! 6       1     message kind (see [`FrameKind`])
//! 7       1     flags (reserved, must be 0)
//! 8       4     sender node id (big-endian u32)
//! 12      4     receiver node id (big-endian u32)
//! 16      8     sequence number (big-endian u64)
//! 24      8     payload length in bytes (big-endian u64)
//! 32      8     lane checksum of the payload (big-endian u64)
//! 40      24    reserved (must be zero)
//! 64      ...   payload
//! ```
//!
//! The checksum reads the payload as little-endian `u64` words: four
//! multiply–rotate lanes over each 32-byte block, then the remaining whole
//! words and a zero-padded tail word carrying the length in its top byte,
//! folded and finished with a splitmix64 finalizer. Every step is a
//! bijection of the word it takes in, so a change inside any one 8-byte word
//! changes the sum. Version 1 frames, which summed the payload byte by byte
//! with FNV-1a, are refused as [`FrameError::BadVersion`].
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
pub const FRAME_VERSION: u16 = 2;

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
    /// One piece of a file's content. Kinds 4, 6 and 7 are unassigned, so
    /// a frame carrying one decodes as [`FrameError::UnknownKind`].
    Piece = 5,
}

impl FrameKind {
    fn from_u8(b: u8) -> Option<FrameKind> {
        Some(match b {
            0 => FrameKind::Hello,
            1 => FrameKind::QueryShare,
            2 => FrameKind::Metadata,
            3 => FrameKind::FileBroadcast,
            5 => FrameKind::Piece,
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
            FrameKind::Piece => "piece",
        }
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
    /// One piece of a file's content (the live runtime sends a file
    /// broadcast's bytes as these).
    Piece(Piece),
}

impl WireMessage {
    /// The message's frame kind.
    pub fn kind(&self) -> FrameKind {
        match self {
            WireMessage::Hello(_) => FrameKind::Hello,
            WireMessage::QueryShare { .. } => FrameKind::QueryShare,
            WireMessage::Metadata { .. } => FrameKind::Metadata,
            WireMessage::FileBroadcast { .. } => FrameKind::FileBroadcast,
            WireMessage::Piece(_) => FrameKind::Piece,
        }
    }
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
    let (len, checksum) = (payload.len() as u64, payload_checksum(payload));
    out[24..32].copy_from_slice(&len.to_be_bytes());
    out[32..40].copy_from_slice(&checksum.to_be_bytes());
}

/// Parses a complete frame from `bytes` into the message it carries; the
/// routing fields (sender, receiver, sequence) are written but not read.
///
/// # Errors
///
/// Returns a [`FrameError`] describing the first defect found; arbitrary
/// input never panics.
pub fn decode_frame(bytes: &[u8]) -> Result<WireMessage, FrameError> {
    match walk_frame(bytes, Sink::Build) {
        Ok(Some(message)) => Ok(message),
        Err(Stop::Bad(e)) => Err(e),
        Ok(None) | Err(Stop::Differs) => unreachable!("a walk that builds compares nothing"),
    }
}

/// Whether `bytes` carry exactly `sent`: the frame passes every check
/// [`decode_frame`] makes and every field equals the sender's, floats bit
/// for bit. So it answers `true` exactly when `decode_frame` yields a
/// message that encodes as `sent` does (a hello's `frequent` ascending, as
/// documented). Allocates nothing, and stops at the first field that
/// differs.
pub(crate) fn check_frame(bytes: &[u8], sent: &WireMessage) -> bool {
    walk_frame(bytes, Sink::Expect(sent)).is_ok()
}

/// The one frame walk: every check on the header, length and checksum, then
/// the payload's fields into `sink`, and nothing left over.
fn walk_frame(bytes: &[u8], sink: Sink<'_>) -> Result<Option<WireMessage>, Stop> {
    let mut frame = Reader::new(bytes);
    frame.take(FRAME_HEADER_BYTES)?;
    if bytes[0..4] != FRAME_MAGIC {
        return Err(FrameError::BadMagic.into());
    }
    let version = u16::from_be_bytes([bytes[4], bytes[5]]);
    if version != FRAME_VERSION {
        return Err(FrameError::BadVersion(version).into());
    }
    let kind = FrameKind::from_u8(bytes[6]).ok_or(FrameError::UnknownKind(bytes[6]))?;
    if bytes[7] != 0 || bytes[40..FRAME_HEADER_BYTES].iter().any(|&b| b != 0) {
        return Err(FrameError::Malformed("non-zero flags or reserved bytes").into());
    }
    let payload_len = u64::from_be_bytes(bytes[24..32].try_into().unwrap());
    let checksum = u64::from_be_bytes(bytes[32..40].try_into().unwrap());
    let payload = frame.take(usize::try_from(payload_len).unwrap_or(usize::MAX))?;
    if frame.remaining() != 0 {
        return Err(FrameError::Malformed("trailing bytes after payload").into());
    }
    if payload_checksum(payload) != checksum {
        return Err(FrameError::BadChecksum.into());
    }
    let mut r = Reader::new(payload);
    let message = decode_payload(kind, &mut r, sink)?;
    if r.remaining() != 0 {
        return Err(FrameError::Malformed("unconsumed payload bytes").into());
    }
    Ok(message)
}

/// Odd multipliers of the checksum rounds (xxHash64's primes).
const LANE_PRIMES: [u64; 2] = [0x9e37_79b1_85eb_ca87, 0xc2b2_ae3d_27d4_eb4f];

/// One checksum round: takes `word` into `acc`. For a fixed `acc` it is a
/// bijection of `word`, and for a fixed `word` a bijection of `acc`.
#[inline(always)]
fn round(acc: u64, word: u64) -> u64 {
    acc.wrapping_add(word.wrapping_mul(LANE_PRIMES[1]))
        .rotate_left(31)
        .wrapping_mul(LANE_PRIMES[0])
}

fn le_word(bytes: &[u8]) -> u64 {
    u64::from_le_bytes(bytes.try_into().expect("an 8-byte word"))
}

/// The header's payload checksum (see the module docs): four independent
/// lanes over the 32-byte blocks, folded, then the remaining words and the
/// tail word through the fold, then a splitmix64 finalizer.
fn payload_checksum(payload: &[u8]) -> u64 {
    let mut lanes = [
        LANE_PRIMES[0].wrapping_add(LANE_PRIMES[1]),
        LANE_PRIMES[1],
        0,
        LANE_PRIMES[0].wrapping_neg(),
    ];
    let mut blocks = payload.chunks_exact(32);
    for block in &mut blocks {
        for (lane, word) in lanes.iter_mut().zip(block.chunks_exact(8)) {
            *lane = round(*lane, le_word(word));
        }
    }
    let [a, b, c, d] = lanes;
    let mut h = a
        .rotate_left(1)
        .wrapping_add(b.rotate_left(7))
        .wrapping_add(c.rotate_left(12))
        .wrapping_add(d.rotate_left(18));
    let mut words = blocks.remainder().chunks_exact(8);
    for word in &mut words {
        h = round(h, le_word(word));
    }
    let tail = words.remainder();
    let mut last = [0u8; 8];
    last[..tail.len()].copy_from_slice(tail);
    last[7] = payload.len() as u8;
    h = round(h, u64::from_le_bytes(last));
    h ^= h >> 30;
    h = h.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    h ^= h >> 27;
    h = h.wrapping_mul(0x94d0_49bb_1331_11eb);
    h ^ (h >> 31)
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

/// A u32 count, then each item as `put` writes it.
fn put_list<T>(
    out: &mut Vec<u8>,
    items: impl ExactSizeIterator<Item = T>,
    mut put: impl FnMut(&mut Vec<u8>, T),
) {
    put_u32(out, items.len() as u32);
    for item in items {
        put(out, item);
    }
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
                needed: self.pos.saturating_add(n),
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

    /// A text field: the validated text when building (`sent` is `None`),
    /// `None` once its bytes equal the sender's text when checking. Bytes
    /// equal to a `&str` are valid UTF-8, so checking validates nothing.
    fn text(&mut self, sent: Option<&str>) -> Result<Option<&'a str>, Stop> {
        let len = self.u32()? as usize;
        let bytes = self.take(len)?;
        match sent {
            None => match std::str::from_utf8(bytes) {
                Ok(text) => Ok(Some(text)),
                Err(_) => Err(FrameError::Malformed("invalid UTF-8").into()),
            },
            Some(sent) if sent.as_bytes() == bytes => Ok(None),
            Some(_) => Err(Stop::Differs),
        }
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

    fn uri(&mut self, sent: Option<&Uri>) -> Result<Option<Uri>, Stop> {
        let text = self.text(sent.map(Uri::as_str))?;
        let uri = text.map(Uri::new).transpose();
        Ok(uri.map_err(|_| FrameError::Malformed("invalid uri"))?)
    }

    fn query(&mut self, sent: Option<&Query>) -> Result<Option<Query>, Stop> {
        let text = self.text(sent.map(Query::text))?;
        let query = text.map(Query::new).transpose();
        Ok(query.map_err(|_| FrameError::Malformed("tokenless query"))?)
    }
}

/// What [`decode_payload`] does with each field it reads. A text is compared
/// as the bytes that came off the wire and a float as its bits, so checking
/// tokenizes and validates nothing; a text equal to the sender's passed its
/// constructor, so building would accept it too.
#[derive(Clone, Copy)]
enum Sink<'e> {
    /// Materialise the message.
    Build,
    /// Compare each field with the sender's message; build nothing.
    Expect(&'e WireMessage),
}

/// Why a payload walk stopped before its end.
enum Stop {
    Bad(FrameError),
    /// A field differs from the sender's (only when checking).
    Differs,
}

impl From<FrameError> for Stop {
    fn from(e: FrameError) -> Stop {
        Stop::Bad(e)
    }
}

/// When checking, `Some` of the sender's fields as `$variant` binds them (a
/// message of another kind differs); `None` when building.
macro_rules! pick {
    ($sink:expr, $variant:pat => $fields:expr) => {
        match $sink {
            Sink::Build => None,
            Sink::Expect($variant) => Some($fields),
            Sink::Expect(_) => return Err(Stop::Differs),
        }
    };
}

/// A field read as `got`: made by `make` when building (`sent` is `None`),
/// compared with the sender's `sent` when checking.
fn field<R: PartialEq, T>(
    got: R,
    sent: Option<R>,
    make: impl FnOnce(R) -> Result<T, FrameError>,
) -> Result<Option<T>, Stop> {
    match sent {
        None => Ok(Some(make(got)?)),
        Some(sent) if sent == got => Ok(None),
        Some(_) => Err(Stop::Differs),
    }
}

/// A plain-value [`field`], which building and checking both keep.
fn same<T: PartialEq + Copy>(got: T, sent: Option<T>) -> Result<T, Stop> {
    field(got, sent, Ok)?;
    Ok(got)
}

/// `n` items read by `item`, each against the sender's item when checking (a
/// list of another length differs); what building reads is collected.
fn list<'e, E: 'e, T, C: Default + Extend<T>>(
    n: usize,
    mut sent: Option<impl ExactSizeIterator<Item = &'e E>>,
    mut item: impl FnMut(Option<&'e E>) -> Result<Option<T>, Stop>,
) -> Result<C, Stop> {
    if sent.as_ref().is_some_and(|sent| sent.len() != n) {
        return Err(Stop::Differs);
    }
    let mut built = C::default();
    for _ in 0..n {
        built.extend(item(sent.as_mut().and_then(Iterator::next))?);
    }
    Ok(built)
}

fn put_metadata(out: &mut Vec<u8>, m: &Metadata) {
    put_str(out, m.name());
    put_str(out, m.publisher());
    put_str(out, m.description());
    put_str(out, m.uri().as_str());
    put_u64(out, m.size());
    put_u64(out, m.piece_size());
    put_list(out, m.piece_checksums().iter(), |out, d| {
        out.extend_from_slice(d.as_bytes())
    });
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

fn put_meta_pop(out: &mut Vec<u8>, m: &Metadata, p: Popularity) {
    put_metadata(out, m);
    put_u64(out, p.value().to_bits());
}

/// A metadata record and its popularity, against the sender's when checking.
fn read_meta_pop(
    r: &mut Reader<'_>,
    sent: Option<(&Metadata, Popularity)>,
) -> Result<Option<(Metadata, Popularity)>, Stop> {
    let m = sent.map(|(m, _)| m);
    let name = r.text(m.map(Metadata::name))?;
    let publisher = r.text(m.map(Metadata::publisher))?;
    let description = r.text(m.map(Metadata::description))?;
    let uri = r.uri(m.map(Metadata::uri))?;
    let size = same(r.u64()?, m.map(Metadata::size))?;
    // The builder raises a zero piece size to 1.
    let piece_size = same(r.u64()?.max(1), m.map(Metadata::piece_size))?;
    let sums = m.map(|m| m.piece_checksums().iter());
    let checksums = list(r.count(20)?, sums, |d| field(r.digest()?, d.copied(), Ok))?;
    let created = same(SimTime::from_secs(r.u64()?), m.map(Metadata::created))?;
    let expires = same(r.opt_time()?, m.map(Metadata::expires))?;
    let auth_tag = match r.u8()? {
        0 => None,
        1 => Some(r.digest()?),
        _ => return Err(FrameError::Malformed("bad option tag").into()),
    };
    let auth_tag = same(auth_tag, m.map(Metadata::auth_tag))?;
    let popularity = Popularity::new(f64::from_bits(r.u64()?));
    same(
        popularity.value().to_bits(),
        sent.map(|(_, p)| p.value().to_bits()),
    )?;
    // Building reads every text; checking reads none.
    let (Some(name), Some(publisher), Some(description), Some(uri)) =
        (name, publisher, description, uri)
    else {
        return Ok(None);
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
    Ok(Some((meta, popularity)))
}

fn encode_payload(message: &WireMessage, out: &mut Vec<u8>) {
    match message {
        WireMessage::Hello(h) => {
            put_u32(out, h.sender.raw());
            put_list(out, h.own_queries.iter(), |out, (q, expires)| {
                put_str(out, q.text());
                put_opt_time(out, *expires);
            });
            put_list(out, h.foreign_queries.iter(), |out, q| {
                put_str(out, q.text())
            });
            put_list(out, h.wanted.iter(), |out, uri| put_str(out, uri.as_str()));
            put_list(out, h.rejected.iter(), |out, uri| {
                put_str(out, uri.as_str())
            });
            put_list(out, h.frequent.iter(), |out, id| put_u32(out, id.raw()));
            put_list(out, h.credits.iter(), |out, (id, credit)| {
                put_u32(out, id.raw());
                put_u64(out, credit.to_bits());
            });
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
        WireMessage::Piece(piece) => {
            put_str(out, piece.id().uri().as_str());
            put_u32(out, piece.id().index());
            put_u32(out, piece.len() as u32);
            out.extend_from_slice(piece.data());
        }
    }
}

/// Reads a `kind` payload field by field into `sink`: the message when
/// building, `None` once every field matched when checking.
fn decode_payload(
    kind: FrameKind,
    r: &mut Reader<'_>,
    sink: Sink<'_>,
) -> Result<Option<WireMessage>, Stop> {
    Ok(match kind {
        FrameKind::Hello => {
            let h = pick!(sink, WireMessage::Hello(h) => h);
            let sender = same(r.node()?, h.map(|h| h.sender))?;
            let own = h.map(|h| h.own_queries.iter());
            let own_queries: Vec<OwnQuery> = list(r.count(5)?, own, |sent| {
                let query = r.query(sent.map(|(q, _)| q))?;
                let expires = same(r.opt_time()?, sent.map(|&(_, e)| e))?;
                Ok(query.map(|q| (q, expires)))
            })?;
            let foreign = h.map(|h| h.foreign_queries.iter());
            let foreign_queries = list(r.count(4)?, foreign, |q| r.query(q))?;
            let wanted = list(r.count(4)?, h.map(|h| h.wanted.iter()), |u| r.uri(u))?;
            let rejected = list(r.count(4)?, h.map(|h| h.rejected.iter()), |u| r.uri(u))?;
            let frequent: Vec<NodeId> = list(r.count(4)?, h.map(|h| h.frequent.iter()), |id| {
                field(r.node()?, id.copied(), Ok)
            })?;
            let credits = list(r.count(12)?, h.map(|h| h.credits.iter()), |c| {
                let id = same(r.node()?, c.map(|c| c.0))?;
                let credit = field(r.u64()?, c.map(|c| c.1.to_bits()), |bits| {
                    Ok(f64::from_bits(bits))
                })?;
                Ok(credit.map(|credit| (id, credit)))
            })?;
            h.is_none().then(|| {
                WireMessage::Hello(HelloFrame {
                    sender,
                    own_queries: own_queries.into(),
                    foreign_queries,
                    wanted,
                    rejected,
                    frequent: ascending(frequent.into()),
                    credits,
                })
            })
        }
        FrameKind::QueryShare => {
            let s = pick!(sink, WireMessage::QueryShare { owner, query, expires } =>
                (*owner, query, *expires));
            let owner = same(r.node()?, s.map(|s| s.0))?;
            let query = r.query(s.map(|s| s.1))?;
            let expires = same(r.opt_time()?, s.map(|s| s.2))?;
            query.map(|query| WireMessage::QueryShare {
                owner,
                query,
                expires,
            })
        }
        FrameKind::Metadata => {
            let s = pick!(sink, WireMessage::Metadata { metadata, popularity } =>
                (metadata, *popularity));
            read_meta_pop(r, s)?.map(|(metadata, popularity)| WireMessage::Metadata {
                metadata,
                popularity,
            })
        }
        FrameKind::FileBroadcast => {
            let s = pick!(sink, WireMessage::FileBroadcast { uri, metadata } =>
                (uri, metadata.as_ref().map(|(m, p)| (m, *p))));
            let uri = r.uri(s.map(|s| s.0))?;
            let riding = s.map(|s| s.1);
            let metadata = match same(r.u8()?, riding.map(|m| u8::from(m.is_some())))? {
                0 => None,
                1 => read_meta_pop(r, riding.flatten())?,
                _ => return Err(FrameError::Malformed("bad option tag").into()),
            };
            uri.map(|uri| WireMessage::FileBroadcast { uri, metadata })
        }
        FrameKind::Piece => {
            let p = pick!(sink, WireMessage::Piece(p) => p);
            let uri = r.uri(p.map(|p| p.id().uri()))?;
            let index = same(r.u32()?, p.map(|p| p.id().index()))?;
            let len = r.count(1)?;
            let data = same(r.take(len)?, p.map(Piece::data))?;
            uri.map(|uri| WireMessage::Piece(Piece::new(PieceId::new(uri, index), data.to_vec())))
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

    fn round_trip(msg: WireMessage) {
        let bytes = encode_frame(n(3), n(9), 42, &msg);
        // Sender, receiver and sequence sit at offsets 8..24 (layout table).
        assert_eq!(bytes[8..12], 3u32.to_be_bytes());
        assert_eq!(bytes[12..16], 9u32.to_be_bytes());
        assert_eq!(bytes[16..24], 42u64.to_be_bytes());
        assert_eq!(decode_frame(&bytes).expect("valid frame must decode"), msg);
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
            &WireMessage::FileBroadcast {
                uri: uri("mbt://a"),
                metadata: None,
            },
        );
        // frame_bytes(payload) must describe the real encoding.
        assert_eq!(
            bytes.len() as u64,
            dtn_sim::channel::frame_bytes((bytes.len() - FRAME_HEADER_BYTES) as u64)
        );
    }

    /// One frame of each kind, its texts all distinct.
    fn one_of_each_kind() -> Vec<WireMessage> {
        vec![
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
                wanted: [uri("mbt://want")].into_iter().collect(),
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
                metadata: sample_metadata(),
                popularity: Popularity::new(0.75),
            },
            WireMessage::FileBroadcast {
                uri: uri("mbt://fox/news"),
                metadata: Some((sample_metadata(), Popularity::new(0.5))),
            },
            WireMessage::Piece(Piece::new(
                PieceId::new(uri("mbt://piece/7"), 2),
                (0..=90).collect(),
            )),
        ]
    }

    #[test]
    fn every_kind_round_trips() {
        let messages = one_of_each_kind();
        // One message of every kind — keep this list exhaustive.
        let kinds: BTreeSet<u8> = messages.iter().map(|m| m.kind() as u8).collect();
        assert_eq!(kinds.len(), 5, "every frame kind must be covered");
        let bare = WireMessage::FileBroadcast {
            uri: uri("mbt://bare"),
            metadata: None,
        };
        for msg in messages.into_iter().chain([bare]) {
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
        let WireMessage::Metadata { metadata: back, .. } = decode_frame(&bytes).unwrap() else {
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
            &WireMessage::FileBroadcast {
                uri: uri("mbt://a"),
                metadata: None,
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
            &WireMessage::QueryShare {
                owner: n(0),
                query: Query::new("fox").unwrap(),
                expires: None,
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
            &WireMessage::FileBroadcast {
                uri: uri("mbt://a"),
                metadata: None,
            },
        );
        let mut bad = good.clone();
        bad[0] = b'X';
        assert_eq!(decode_frame(&bad).unwrap_err(), FrameError::BadMagic);
        let mut bad = good.clone();
        bad[5] = 99;
        assert_eq!(decode_frame(&bad).unwrap_err(), FrameError::BadVersion(99));
        for kind in [4, 6, 7, 200] {
            let mut bad = good.clone();
            bad[6] = kind;
            assert_eq!(
                decode_frame(&bad).unwrap_err(),
                FrameError::UnknownKind(kind)
            );
        }
    }

    #[test]
    fn non_zero_flags_and_reserved_bytes_are_rejected() {
        let good = encode_frame(
            n(0),
            n(1),
            0,
            &WireMessage::FileBroadcast {
                uri: uri("mbt://a"),
                metadata: None,
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
        let msg = WireMessage::QueryShare {
            owner: n(3),
            query: Query::new("fox news").unwrap(),
            expires: None,
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

    /// An arbitrary message, of the `seed % 5`th kind, every list, text, time and
    /// number in it drawn from `seed`; a credit is NaN or −0 now and then.
    fn arbitrary_message(seed: u64) -> WireMessage {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        const WORDS: [&str; 8] = [
            "fox", "News", "abc", "comedy", "evening", "42", "a-b", "café",
        ];
        fn text(rng: &mut StdRng) -> String {
            let n = rng.gen_range(1..4);
            let words: Vec<&str> = (0..n).map(|_| WORDS[rng.gen_range(0..8usize)]).collect();
            words.join(" ")
        }
        fn query(rng: &mut StdRng) -> Query {
            Query::new(text(rng)).unwrap()
        }
        fn uri(rng: &mut StdRng) -> Uri {
            Uri::new(format!(
                "mbt://{}/{}",
                WORDS[rng.gen_range(0..6usize)],
                rng.gen::<u8>()
            ))
            .unwrap()
        }
        fn time(rng: &mut StdRng) -> Option<SimTime> {
            rng.gen_bool(0.5)
                .then(|| SimTime::from_secs(rng.gen_range(0..1u64 << 40)))
        }
        fn meta_pop(rng: &mut StdRng) -> (Metadata, Popularity) {
            let sums = (0..rng.gen_range(0..3))
                .map(|_| crate::checksum::sha1(&rng.gen::<u64>().to_be_bytes()))
                .collect();
            let mut m = Metadata::builder(text(rng), text(rng), uri(rng))
                .description(if rng.gen_bool(0.5) {
                    text(rng)
                } else {
                    String::new()
                })
                .sized(rng.gen(), rng.gen_range(1..1u64 << 20), sums)
                .created(SimTime::from_secs(rng.gen_range(0..1u64 << 40)))
                .expires_at(time(rng))
                .build();
            if rng.gen_bool(0.5) {
                m.set_auth_tag(crate::checksum::sha1(&rng.gen::<u64>().to_be_bytes()));
            }
            (m, Popularity::new(f64::from_bits(rng.gen())))
        }
        fn many<T>(rng: &mut StdRng, most: usize, item: fn(&mut StdRng) -> T) -> Vec<T> {
            (0..rng.gen_range(0..=most)).map(|_| item(rng)).collect()
        }
        let rng = &mut StdRng::seed_from_u64(seed);
        match seed % 5 {
            0 => WireMessage::Hello(HelloFrame {
                sender: n(rng.gen()),
                own_queries: many(rng, 3, |rng| (query(rng), time(rng))).into(),
                foreign_queries: many(rng, 3, query),
                wanted: many(rng, 3, uri).into_iter().collect(),
                rejected: many(rng, 2, uri).into_iter().collect(),
                frequent: many(rng, 4, |rng| n(rng.gen_range(0..64)))
                    .into_iter()
                    .collect::<BTreeSet<_>>()
                    .into_iter()
                    .collect(),
                credits: many(rng, 3, |rng| {
                    let credit = match rng.gen_range(0..8) {
                        0 => f64::NAN,
                        1 => -0.0,
                        _ => f64::from(rng.gen::<u32>()) / 8.0,
                    };
                    (n(rng.gen_range(0..64)), credit)
                }),
            }),
            1 => WireMessage::QueryShare {
                owner: n(rng.gen()),
                query: query(rng),
                expires: time(rng),
            },
            2 => {
                let (metadata, popularity) = meta_pop(rng);
                WireMessage::Metadata {
                    metadata,
                    popularity,
                }
            }
            3 => WireMessage::FileBroadcast {
                uri: uri(rng),
                metadata: rng.gen_bool(0.5).then(|| meta_pop(rng)),
            },
            _ => WireMessage::Piece(Piece::new(
                PieceId::new(uri(rng), rng.gen()),
                many(rng, 40, |rng| rng.gen()),
            )),
        }
    }

    /// Rewrites the header checksum to vouch for the payload as it now is.
    fn reseal(bytes: &mut [u8]) {
        let sum = payload_checksum(&bytes[FRAME_HEADER_BYTES..]);
        bytes[32..40].copy_from_slice(&sum.to_be_bytes());
    }

    /// `message` framed with fixed routing fields: its bits, under which a
    /// NaN credit equals itself and a −0 credit differs from +0.
    fn bits(message: &WireMessage) -> Vec<u8> {
        encode_frame(n(0), n(0), 0, message)
    }

    /// The check's contract against the decoder on the same bytes: "carries
    /// `sent`" exactly for a frame that decodes to `sent`'s bits. Bits, not
    /// `==`: a NaN credit equals nothing, and −0 equals +0.
    fn assert_check_agrees(bytes: &[u8], sent: &WireMessage) {
        let decoded = decode_frame(bytes);
        assert_eq!(
            check_frame(bytes, sent),
            decoded.as_ref().is_ok_and(|m| bits(m) == bits(sent)),
            "decoded {decoded:?}"
        );
    }

    /// Every one-bit change to a payload that the checksum still vouches
    /// for — in a credit, an expiry, a letter of a query — is seen: the
    /// check calls no frame the sender's message unless it decodes to it.
    #[test]
    fn no_changed_field_checks_as_sent() {
        for seed in 0..64 {
            let sent = arbitrary_message(seed);
            let good = encode_frame(n(1), n(2), 3, &sent);
            for at in FRAME_HEADER_BYTES..good.len() {
                for bit in [0, 5, 7] {
                    let mut bytes = good.clone();
                    bytes[at] ^= 1 << bit;
                    reseal(&mut bytes);
                    assert_check_agrees(&bytes, &sent);
                }
            }
        }
    }

    #[test]
    fn every_payload_bit_flip_of_every_kind_fails_the_checksum() {
        for sent in &one_of_each_kind() {
            let good = encode_frame(n(1), n(2), 3, sent);
            for bit in 8 * FRAME_HEADER_BYTES..8 * good.len() {
                let mut bytes = good.clone();
                bytes[bit / 8] ^= 1 << (bit % 8);
                assert_eq!(
                    decode_frame(&bytes),
                    Err(FrameError::BadChecksum),
                    "{:?}, bit {bit}",
                    sent.kind()
                );
                assert!(!check_frame(&bytes, sent));
            }
        }
    }

    #[test]
    fn every_flip_in_the_length_and_checksum_fields_errs() {
        for sent in &one_of_each_kind() {
            let good = encode_frame(n(1), n(2), 3, sent);
            for bit in 8 * 24..8 * 40 {
                let mut bytes = good.clone();
                bytes[bit / 8] ^= 1 << (bit % 8);
                assert!(decode_frame(&bytes).is_err(), "bit {bit}");
                assert_check_agrees(&bytes, sent);
            }
        }
    }

    #[test]
    fn a_version_1_frame_is_refused() {
        for sent in &one_of_each_kind() {
            let mut bytes = encode_frame(n(1), n(2), 3, sent);
            bytes[4..6].copy_from_slice(&1u16.to_be_bytes());
            reseal(&mut bytes);
            assert_eq!(decode_frame(&bytes), Err(FrameError::BadVersion(1)));
            assert!(!check_frame(&bytes, sent));
        }
    }

    /// Pinned sums: a change to the checksum must be a deliberate one, with
    /// a version bump.
    #[test]
    fn the_checksum_is_pinned() {
        let payload: Vec<u8> = (0..100u32).map(|i| (i * 37 + 11) as u8).collect();
        assert_eq!(payload_checksum(&[]), 0x48cd_7392_3680_19da);
        assert_eq!(payload_checksum(&payload), 0x9089_8f1f_9e48_917d);
    }

    /// `text` rewritten in place, byte by byte, by `rewrite`, and resealed;
    /// `text` must occur once in the payload, after its length prefix.
    fn rewritten(good: &[u8], text: &str, rewrite: impl Fn(u8) -> u8) -> Vec<u8> {
        let mut field = (text.len() as u32).to_be_bytes().to_vec();
        field.extend_from_slice(text.as_bytes());
        let payload = &good[FRAME_HEADER_BYTES..];
        let at: Vec<usize> = (0..payload.len())
            .filter(|&at| payload[at..].starts_with(&field))
            .collect();
        assert_eq!(at.len(), 1, "{text:?} must occur once");
        let from = FRAME_HEADER_BYTES + at[0] + 4;
        let mut bytes = good.to_vec();
        for b in &mut bytes[from..from + text.len()] {
            *b = rewrite(*b);
        }
        reseal(&mut bytes);
        bytes
    }

    /// Every text field read byte-first: bytes that differ from the sender's
    /// text do not check, whether the decoder refuses them (not UTF-8) or
    /// decodes them (different valid text of the same length).
    #[test]
    fn every_text_field_is_compared_as_bytes_and_validated_when_it_differs() {
        let messages = one_of_each_kind();
        let (hello, metadata, piece) = (&messages[0], &messages[2], &messages[4]);
        let fields = [
            (hello, "fox news"),
            (hello, "cbs sports"),
            (hello, "mbt://want"),
            (hello, "mbt://fake"),
            (metadata, "FOX Evening News"),
            (metadata, "FOX"),
            (metadata, "nightly broadcast"),
            (metadata, "mbt://fox/news"),
            (piece, "mbt://piece/7"),
        ];
        // The next letter or digit, so a word stays a word.
        let next = |b: u8| match b {
            b'z' => b'a',
            b'Z' => b'A',
            b'9' => b'0',
            b if b.is_ascii_alphanumeric() => b + 1,
            b => b,
        };
        for (sent, text) in fields {
            let good = encode_frame(n(1), n(2), 3, sent);
            let invalid = rewritten(&good, text, |_| 0xff);
            let err = FrameError::Malformed("invalid UTF-8");
            assert_eq!(decode_frame(&invalid), Err(err), "{text:?}");
            assert!(!check_frame(&invalid, sent), "{text:?}");
            assert_check_agrees(&invalid, sent);

            let other = rewritten(&good, text, next);
            let decoded = decode_frame(&other).expect("different valid text decodes");
            assert_ne!(&decoded, sent, "{text:?}");
            assert!(!check_frame(&other, sent), "{text:?}");
            assert_check_agrees(&other, sent);
        }
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let mut bytes = encode_frame(
            n(0),
            n(1),
            0,
            &WireMessage::FileBroadcast {
                uri: uri("mbt://a"),
                metadata: None,
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
            prop_assert_eq!(decode_frame(&bytes).unwrap(), msg);
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
            prop_assert_eq!(decode_frame(&bytes).unwrap(), msg);
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
            if let Ok(decoded) = decode_frame(&bytes) {
                prop_assert!((8..24).contains(&at), "a flip at byte {} decoded", at);
                prop_assert_eq!(decoded, msg);
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        #[test]
        fn every_kind_checks_as_sent(seed in any::<u64>()) {
            // A NaN credit too: the check compares its bits.
            let sent = arbitrary_message(seed);
            let bytes = encode_frame(n(1), n(2), seed, &sent);
            prop_assert!(check_frame(&bytes, &sent));
            prop_assert_eq!(bits(&decode_frame(&bytes).unwrap()), bits(&sent));
        }

        #[test]
        fn check_agrees_with_decode_on_mutated_frames(
            seed in any::<u64>(),
            how in 0u8..6,
            at in any::<usize>(),
            xor in 1u8..=255,
        ) {
            let sent = arbitrary_message(seed);
            let mut bytes = encode_frame(n(1), n(2), 3, &sent);
            let payload = bytes.len() - FRAME_HEADER_BYTES;
            match how {
                0 => bytes[at % FRAME_HEADER_BYTES] ^= xor,
                1 => bytes[40 + at % 24] ^= xor, // reserved
                2 => bytes[FRAME_HEADER_BYTES + at % payload] ^= xor,
                3 => {
                    bytes[FRAME_HEADER_BYTES + at % payload] ^= xor;
                    reseal(&mut bytes);
                }
                4 => bytes.truncate(at % bytes.len()),
                _ => bytes.push(xor),
            }
            assert_check_agrees(&bytes, &sent);
        }
    }
}
