//! File pieces.
//!
//! Large files are divided into pieces of 256 KB (paper §III-B). Pieces "are
//! stamped with the URI of the file and different offsets in the file" so
//! they "may be downloaded at different times and places".

use std::fmt;

use crate::checksum::{sha1, Digest};
use crate::uri::Uri;

/// The default piece size: 256 KB (paper §III-B). The size can be raised to
/// shrink metadata, which carries one checksum per piece.
pub const PIECE_SIZE: usize = 256 * 1024;

/// Identifies one piece of one file: the file's URI plus the piece index.
///
/// The byte offset of piece `i` is `i * piece_size`.
///
/// # Example
///
/// ```
/// use mbt_core::{PieceId, Uri};
///
/// let uri = Uri::new("mbt://x/y")?;
/// let id = PieceId::new(uri.clone(), 3);
/// assert_eq!(id.offset(mbt_core::piece::PIECE_SIZE as u64), 3 * 256 * 1024);
/// # Ok::<(), mbt_core::uri::InvalidUri>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PieceId {
    uri: Uri,
    index: u32,
}

impl PieceId {
    /// Creates a piece id.
    pub fn new(uri: Uri, index: u32) -> Self {
        PieceId { uri, index }
    }

    /// The file's URI.
    pub fn uri(&self) -> &Uri {
        &self.uri
    }

    /// The piece index within the file.
    pub fn index(&self) -> u32 {
        self.index
    }

    /// The byte offset of this piece given a piece size.
    pub fn offset(&self, piece_size: u64) -> u64 {
        u64::from(self.index) * piece_size
    }
}

impl fmt::Display for PieceId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}#{}", self.uri, self.index)
    }
}

/// A piece with its payload bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Piece {
    id: PieceId,
    data: Vec<u8>,
}

impl Piece {
    /// Creates a piece from its id and payload.
    pub fn new(id: PieceId, data: Vec<u8>) -> Self {
        Piece { id, data }
    }

    /// The piece id.
    pub fn id(&self) -> &PieceId {
        &self.id
    }

    /// The payload bytes.
    pub fn data(&self) -> &[u8] {
        &self.data
    }

    /// The payload length in bytes.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True if the payload is empty.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// The SHA-1 checksum of the payload.
    pub fn checksum(&self) -> Digest {
        sha1(&self.data)
    }
}

/// Splits `data` into pieces of `piece_size` bytes stamped with `uri`.
///
/// The final piece may be shorter. Empty content yields no pieces.
///
/// # Panics
///
/// Panics if `piece_size` is zero.
///
/// # Example
///
/// ```
/// use mbt_core::{piece::split_into_pieces, Uri};
///
/// let uri = Uri::new("mbt://x")?;
/// let pieces = split_into_pieces(&uri, &[0u8; 600], 256);
/// assert_eq!(pieces.len(), 3);
/// assert_eq!(pieces[2].len(), 88);
/// # Ok::<(), mbt_core::uri::InvalidUri>(())
/// ```
pub fn split_into_pieces(uri: &Uri, data: &[u8], piece_size: usize) -> Vec<Piece> {
    assert!(piece_size > 0, "piece size must be positive");
    data.chunks(piece_size)
        .enumerate()
        .map(|(i, chunk)| Piece::new(PieceId::new(uri.clone(), i as u32), chunk.to_vec()))
        .collect()
}

/// Number of pieces a file of `len` bytes splits into at `piece_size`.
///
/// # Panics
///
/// Panics if `piece_size` is zero.
pub fn piece_count(len: u64, piece_size: u64) -> u32 {
    assert!(piece_size > 0, "piece size must be positive");
    len.div_ceil(piece_size) as u32
}

#[cfg(test)]
mod tests {
    use super::*;

    fn uri() -> Uri {
        Uri::new("mbt://pub/file").unwrap()
    }

    #[test]
    fn split_covers_all_bytes() {
        let data: Vec<u8> = (0..1000u32).map(|i| i as u8).collect();
        let pieces = split_into_pieces(&uri(), &data, 256);
        assert_eq!(pieces.len(), 4);
        let rejoined: Vec<u8> = pieces
            .iter()
            .flat_map(|p| p.data().iter().copied())
            .collect();
        assert_eq!(rejoined, data);
    }

    #[test]
    fn indices_are_sequential() {
        let pieces = split_into_pieces(&uri(), &[0u8; 700], 256);
        let idx: Vec<u32> = pieces.iter().map(|p| p.id().index()).collect();
        assert_eq!(idx, vec![0, 1, 2]);
    }

    #[test]
    fn empty_content_yields_no_pieces() {
        assert!(split_into_pieces(&uri(), &[], 256).is_empty());
    }

    #[test]
    fn exact_multiple_has_no_short_tail() {
        let pieces = split_into_pieces(&uri(), &[7u8; 512], 256);
        assert_eq!(pieces.len(), 2);
        assert!(pieces.iter().all(|p| p.len() == 256));
    }

    #[test]
    fn piece_count_matches_split() {
        for len in [0u64, 1, 255, 256, 257, 512, 1_000_000] {
            let data = vec![0u8; len as usize];
            let pieces = split_into_pieces(&uri(), &data, 256);
            assert_eq!(pieces.len() as u32, piece_count(len, 256), "len {len}");
        }
    }

    #[test]
    fn offset_computation() {
        let id = PieceId::new(uri(), 5);
        assert_eq!(id.offset(256), 1280);
        assert_eq!(id.uri(), &uri());
    }

    #[test]
    fn checksum_detects_corruption() {
        let p1 = Piece::new(PieceId::new(uri(), 0), vec![1, 2, 3]);
        let p2 = Piece::new(PieceId::new(uri(), 0), vec![1, 2, 4]);
        assert_ne!(p1.checksum(), p2.checksum());
    }

    #[test]
    fn display_includes_index() {
        let id = PieceId::new(uri(), 9);
        assert_eq!(id.to_string(), "mbt://pub/file#9");
    }

    #[test]
    #[should_panic(expected = "piece size")]
    fn zero_piece_size_panics() {
        let _ = split_into_pieces(&uri(), &[1], 0);
    }

    #[test]
    fn default_piece_size_is_256kb() {
        assert_eq!(PIECE_SIZE, 262_144);
    }
}
