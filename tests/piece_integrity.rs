//! Piece-level integrity end-to-end: split → transfer (out of order, with
//! duplicates and corruption attempts) → verify → reassemble, plus publisher
//! authentication of the metadata that carries the checksums.

use mbt_core::auth::{sign, KeyRegistry, PublisherKey};
use mbt_core::piece::{split_into_pieces, Piece, PieceId};
use mbt_core::{FileAssembler, Metadata, Uri};

fn content(len: usize) -> Vec<u8> {
    (0..len).map(|i| ((i * 31 + 7) % 251) as u8).collect()
}

#[test]
fn full_pipeline_with_shuffled_lossy_channel() {
    let uri = Uri::new("mbt://fox/movie").unwrap();
    let data = content(10_000);
    let key = PublisherKey::derive(b"master", "FOX");
    let mut meta = Metadata::builder("FOX movie night", "FOX", uri.clone())
        .description("feature film")
        .content(&data, 1024)
        .build();
    sign(&mut meta, &key);

    let mut registry = KeyRegistry::new();
    registry.register("FOX", key);
    registry.verify(&meta).expect("authentic metadata accepted");

    // Channel: pieces arrive in reverse order, each duplicated, with a
    // corrupted copy injected in between.
    let mut assembler = FileAssembler::new(meta.clone());
    let mut pieces = split_into_pieces(&uri, &data, 1024);
    pieces.reverse();
    for p in pieces {
        let corrupted = Piece::new(p.id().clone(), vec![0xAB; p.len()]);
        // Corruption rejected, real piece accepted, duplicate idempotent.
        assert!(assembler.add_piece(corrupted).is_err());
        assembler.add_piece(p.clone()).unwrap();
        assembler.add_piece(p).unwrap();
    }
    assert!(assembler.is_complete());
    assert_eq!(assembler.assemble().unwrap(), data);
}

#[test]
fn forged_publisher_metadata_is_rejected_before_download() {
    let uri = Uri::new("mbt://fox/fake").unwrap();
    let attacker_key = PublisherKey::derive(b"attacker", "FOX");
    let mut forged = Metadata::builder("FOX totally real show", "FOX", uri)
        .content(&content(512), 256)
        .build();
    sign(&mut forged, &attacker_key);

    let mut registry = KeyRegistry::new();
    registry.register("FOX", PublisherKey::derive(b"master", "FOX"));
    assert!(registry.verify(&forged).is_err(), "forgery must not verify");
}

#[test]
fn pieces_of_one_file_do_not_pollute_another() {
    let uri_a = Uri::new("mbt://fox/a").unwrap();
    let uri_b = Uri::new("mbt://fox/b").unwrap();
    let data_a = content(2048);
    let data_b = content(2048);
    let meta_a = Metadata::builder("a", "FOX", uri_a.clone())
        .content(&data_a, 512)
        .build();
    let mut asm = FileAssembler::new(meta_a);
    for p in split_into_pieces(&uri_b, &data_b, 512) {
        assert!(asm.add_piece(p).is_err(), "cross-file piece accepted");
    }
    assert_eq!(asm.have_count(), 0);
}

#[test]
fn offsets_stamped_per_the_paper() {
    // "The pieces of a file ... are stamped with the URI of the file and
    // different offsets in the file" (§III-B).
    let uri = Uri::new("mbt://fox/clip").unwrap();
    let data = content(5 * 300);
    let pieces = split_into_pieces(&uri, &data, 300);
    for (i, p) in pieces.iter().enumerate() {
        assert_eq!(p.id().uri(), &uri);
        assert_eq!(p.id().index(), i as u32);
        assert_eq!(p.data(), &data[i * 300..(i + 1) * 300]);
    }
}

#[test]
fn tampering_with_any_single_byte_is_caught() {
    let uri = Uri::new("mbt://fox/x").unwrap();
    let data = content(600);
    let meta = Metadata::builder("x", "FOX", uri.clone())
        .content(&data, 200)
        .build();
    let pieces = split_into_pieces(&uri, &data, 200);
    for (pi, p) in pieces.iter().enumerate() {
        for byte in [0usize, p.len() / 2, p.len() - 1] {
            let mut tampered = p.data().to_vec();
            tampered[byte] ^= 0x01;
            let bad = Piece::new(PieceId::new(uri.clone(), pi as u32), tampered);
            assert!(
                !meta.verify_piece(&bad),
                "piece {pi} byte {byte} not caught"
            );
        }
    }
}
