//! Encode/decode throughput of the transport frame codec.
//!
//! The `BusTransport` backend serializes every contact-phase message through
//! `encode_frame`/`decode_frame` (64-byte header + payload), so codec cost is
//! a per-frame tax on every live-bus run. This bench measures the round trip
//! for the three message shapes that dominate the wire: a hello beacon with a
//! realistic query/credit load, a standalone metadata broadcast, and a full
//! content piece.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use dtn_trace::NodeId;
use mbt_core::piece::split_into_pieces;
use mbt_core::transport::{decode_frame, encode_frame, HelloFrame, WireMessage};
use mbt_core::{Metadata, Popularity, Query, Uri};
use std::collections::BTreeSet;
use std::hint::black_box;

/// A hello beacon the size a busy node would advertise: several own and
/// foreign queries, a handful of wanted/rejected URIs, and a credit ledger.
fn hello_message() -> WireMessage {
    let own_queries = (0..6)
        .map(|i| (Query::new(format!("evening news {i}")).unwrap(), None))
        .collect();
    let foreign_queries = (0..4)
        .map(|i| Query::new(format!("morning show {i}")).unwrap())
        .collect();
    let wanted: BTreeSet<Uri> = (0..8)
        .map(|i| Uri::new(format!("mbt://fox/news/ep-{i}")).unwrap())
        .collect();
    let rejected: BTreeSet<Uri> = (0..2)
        .map(|i| Uri::new(format!("mbt://spam/{i}")).unwrap())
        .collect();
    let frequent = (1..5).map(NodeId::new).collect();
    let credits = (1..9).map(|i| (NodeId::new(i), i as f64 * 0.5)).collect();
    WireMessage::Hello(HelloFrame {
        sender: NodeId::new(0),
        own_queries,
        foreign_queries,
        wanted,
        rejected,
        frequent,
        credits,
    })
}

/// A standalone metadata broadcast for a multi-piece file.
fn metadata_message() -> WireMessage {
    let uri = Uri::new("mbt://fox/news/tonight").unwrap();
    let content = vec![0xA5u8; 4096];
    let metadata = Metadata::builder("fox evening news tonight", "FOX", uri)
        .description("nightly news broadcast")
        .content(&content, 1024)
        .build();
    WireMessage::Metadata {
        metadata,
        popularity: Popularity::new(0.8),
    }
}

/// One full content piece (1 KiB of payload).
fn piece_message() -> WireMessage {
    let uri = Uri::new("mbt://fox/news/tonight").unwrap();
    let content: Vec<u8> = (0..4096).map(|i| (i % 251) as u8).collect();
    let piece = split_into_pieces(&uri, &content, 1024)
        .into_iter()
        .next()
        .expect("non-empty content splits into pieces");
    WireMessage::Piece(piece)
}

fn bench_frame_codec(c: &mut Criterion) {
    let cases = [
        ("hello", hello_message()),
        ("metadata", metadata_message()),
        ("piece", piece_message()),
    ];
    let sender = NodeId::new(3);
    let receiver = NodeId::new(7);

    let mut encode = c.benchmark_group("frame_codec/encode");
    for (name, message) in &cases {
        let bytes = encode_frame(sender, receiver, 1, message);
        encode.throughput(Throughput::Bytes(bytes.len() as u64));
        encode.bench_function(*name, |b| {
            b.iter(|| black_box(encode_frame(sender, receiver, 1, black_box(message))))
        });
    }
    encode.finish();

    let mut decode = c.benchmark_group("frame_codec/decode");
    for (name, message) in &cases {
        let bytes = encode_frame(sender, receiver, 1, message);
        decode.throughput(Throughput::Bytes(bytes.len() as u64));
        decode.bench_function(*name, |b| {
            b.iter(|| black_box(decode_frame(black_box(&bytes)).expect("valid frame")))
        });
    }
    decode.finish();
}

criterion_group!(benches, bench_frame_codec);
criterion_main!(benches);
