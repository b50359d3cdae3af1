//! File assembly from pieces.
//!
//! The pieces of a file "may be downloaded at different times and places"
//! (paper §III-B): a node accumulates verified pieces across many contacts
//! and reassembles the file once every piece has arrived.

use std::collections::BTreeMap;
use std::error::Error;
use std::fmt;

use crate::metadata::Metadata;
use crate::piece::Piece;
use crate::uri::Uri;

/// Error returned when adding a piece to a [`FileAssembler`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AssembleError {
    /// The piece belongs to a different file.
    WrongFile {
        /// The URI the assembler is collecting.
        expected: Uri,
        /// The URI the piece was stamped with.
        actual: Uri,
    },
    /// The piece index is outside the file.
    IndexOutOfRange {
        /// The offending index.
        index: u32,
        /// Number of pieces in the file.
        count: u32,
    },
    /// The piece payload does not match the metadata checksum.
    ChecksumMismatch {
        /// The offending index.
        index: u32,
    },
}

impl fmt::Display for AssembleError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AssembleError::WrongFile { expected, actual } => {
                write!(f, "piece belongs to {actual}, assembling {expected}")
            }
            AssembleError::IndexOutOfRange { index, count } => {
                write!(
                    f,
                    "piece index {index} out of range (file has {count} pieces)"
                )
            }
            AssembleError::ChecksumMismatch { index } => {
                write!(f, "piece {index} failed checksum verification")
            }
        }
    }
}

impl Error for AssembleError {}

/// Accumulates verified pieces of one file until it can be reassembled.
///
/// # Example
///
/// ```
/// use mbt_core::{FileAssembler, Metadata, Uri};
/// use mbt_core::piece::split_into_pieces;
///
/// let uri = Uri::new("mbt://fox/clip")?;
/// let data = vec![42u8; 700];
/// let meta = Metadata::builder("Clip", "FOX", uri.clone())
///     .content(&data, 256)
///     .build();
///
/// let mut assembler = FileAssembler::new(meta);
/// for piece in split_into_pieces(&uri, &data, 256) {
///     assembler.add_piece(piece)?;
/// }
/// assert_eq!(assembler.assemble().unwrap(), data);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone)]
pub struct FileAssembler {
    metadata: Metadata,
    pieces: BTreeMap<u32, Piece>,
}

impl FileAssembler {
    /// Creates an assembler for the file described by `metadata`.
    pub fn new(metadata: Metadata) -> Self {
        FileAssembler {
            metadata,
            pieces: BTreeMap::new(),
        }
    }

    /// The metadata being assembled against.
    pub fn metadata(&self) -> &Metadata {
        &self.metadata
    }

    /// Adds a verified piece. Duplicate pieces are accepted idempotently.
    ///
    /// # Errors
    ///
    /// Rejects pieces from other files, out-of-range indices, and payloads
    /// failing checksum verification.
    pub fn add_piece(&mut self, piece: Piece) -> Result<(), AssembleError> {
        if piece.id().uri() != self.metadata.uri() {
            return Err(AssembleError::WrongFile {
                expected: self.metadata.uri().clone(),
                actual: piece.id().uri().clone(),
            });
        }
        let index = piece.id().index();
        if index >= self.metadata.piece_count() {
            return Err(AssembleError::IndexOutOfRange {
                index,
                count: self.metadata.piece_count(),
            });
        }
        if !self.metadata.verify_piece(&piece) {
            return Err(AssembleError::ChecksumMismatch { index });
        }
        self.pieces.insert(index, piece);
        Ok(())
    }

    /// Indices still missing, ascending.
    pub fn missing(&self) -> Vec<u32> {
        (0..self.metadata.piece_count())
            .filter(|i| !self.pieces.contains_key(i))
            .collect()
    }

    /// Number of pieces held.
    pub fn have_count(&self) -> u32 {
        self.pieces.len() as u32
    }

    /// Download progress in `[0, 1]`.
    pub fn progress(&self) -> f64 {
        let total = self.metadata.piece_count();
        if total == 0 {
            return 1.0;
        }
        f64::from(self.have_count()) / f64::from(total)
    }

    /// True once every piece is held.
    pub fn is_complete(&self) -> bool {
        self.have_count() == self.metadata.piece_count()
    }

    /// Reassembles the file, or `None` if pieces are missing.
    pub fn assemble(&self) -> Option<Vec<u8>> {
        if !self.is_complete() {
            return None;
        }
        let mut out = Vec::with_capacity(self.metadata.size() as usize);
        for piece in self.pieces.values() {
            out.extend_from_slice(piece.data());
        }
        Some(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::piece::{split_into_pieces, PieceId};

    fn setup(len: usize) -> (Uri, Vec<u8>, Metadata) {
        let uri = Uri::new("mbt://fox/clip").unwrap();
        let data: Vec<u8> = (0..len).map(|i| (i % 251) as u8).collect();
        let meta = Metadata::builder("Clip", "FOX", uri.clone())
            .content(&data, 64)
            .build();
        (uri, data, meta)
    }

    #[test]
    fn assembles_in_order() {
        let (uri, data, meta) = setup(300);
        let mut asm = FileAssembler::new(meta);
        for p in split_into_pieces(&uri, &data, 64) {
            asm.add_piece(p).unwrap();
        }
        assert!(asm.is_complete());
        assert_eq!(asm.assemble().unwrap(), data);
    }

    #[test]
    fn assembles_out_of_order() {
        let (uri, data, meta) = setup(300);
        let mut asm = FileAssembler::new(meta);
        let mut pieces = split_into_pieces(&uri, &data, 64);
        pieces.reverse();
        for p in pieces {
            asm.add_piece(p).unwrap();
        }
        assert_eq!(asm.assemble().unwrap(), data);
    }

    #[test]
    fn tracks_missing_and_progress() {
        let (uri, data, meta) = setup(300);
        let mut asm = FileAssembler::new(meta);
        let pieces = split_into_pieces(&uri, &data, 64);
        assert_eq!(asm.missing().len(), 5);
        asm.add_piece(pieces[2].clone()).unwrap();
        assert!(asm.pieces.contains_key(&2));
        assert_eq!(asm.missing(), vec![0, 1, 3, 4]);
        assert!((asm.progress() - 0.2).abs() < 1e-12);
        assert_eq!(asm.assemble(), None);
    }

    #[test]
    fn duplicate_pieces_idempotent() {
        let (uri, data, meta) = setup(100);
        let mut asm = FileAssembler::new(meta);
        let pieces = split_into_pieces(&uri, &data, 64);
        asm.add_piece(pieces[0].clone()).unwrap();
        asm.add_piece(pieces[0].clone()).unwrap();
        assert_eq!(asm.have_count(), 1);
    }

    #[test]
    fn rejects_wrong_file() {
        let (_, data, meta) = setup(100);
        let other = Uri::new("mbt://other").unwrap();
        let mut asm = FileAssembler::new(meta);
        let err = asm
            .add_piece(split_into_pieces(&other, &data, 64)[0].clone())
            .unwrap_err();
        assert!(matches!(err, AssembleError::WrongFile { .. }));
    }

    #[test]
    fn rejects_out_of_range() {
        let (uri, _, meta) = setup(100);
        let mut asm = FileAssembler::new(meta);
        let bogus = Piece::new(PieceId::new(uri, 99), vec![0u8; 64]);
        let err = asm.add_piece(bogus).unwrap_err();
        assert!(matches!(
            err,
            AssembleError::IndexOutOfRange { index: 99, .. }
        ));
    }

    #[test]
    fn rejects_corrupted_piece() {
        let (uri, _, meta) = setup(100);
        let mut asm = FileAssembler::new(meta);
        let corrupted = Piece::new(PieceId::new(uri, 0), vec![0xFF; 64]);
        let err = asm.add_piece(corrupted).unwrap_err();
        assert_eq!(err, AssembleError::ChecksumMismatch { index: 0 });
    }

    #[test]
    fn error_messages_are_descriptive() {
        let e = AssembleError::ChecksumMismatch { index: 3 };
        assert!(e.to_string().contains("checksum"));
    }

    #[test]
    fn empty_file_is_trivially_complete() {
        let uri = Uri::new("mbt://empty").unwrap();
        let meta = Metadata::builder("Empty", "FOX", uri)
            .content(&[], 64)
            .build();
        let asm = FileAssembler::new(meta);
        assert!(asm.is_complete());
        assert_eq!(asm.assemble().unwrap(), Vec::<u8>::new());
        assert_eq!(asm.progress(), 1.0);
    }
}
