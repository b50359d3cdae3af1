//! Piece-level swarm download within one long clique contact.
//!
//! Six devices sit in one room; each starts with a random subset of a
//! 12-piece file (pieces picked up at different times and places, §III-B).
//! Round by round, the broadcast scheduler picks one piece to transmit —
//! rarest first — and everyone missing it receives it simultaneously. The
//! example counts broadcast rounds against the pair-wise alternative and
//! verifies the reassembled file byte-for-byte.
//!
//! Run with: `cargo run -p mbt-experiments --example piece_swarm`

use std::collections::BTreeSet;

use dtn_trace::NodeId;
use mbt_core::download::{cooperative, Offer};
use mbt_core::piece::{split_into_pieces, PieceId};
use mbt_core::{BroadcastOrdering, FileAssembler, Metadata, Popularity, Uri};
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut rng = rand::rngs::StdRng::seed_from_u64(7);

    // The file: 12 pieces of 128 bytes.
    let uri = Uri::new("mbt://fox/concert-recording")?;
    let data: Vec<u8> = (0..12 * 128).map(|_| rng.gen()).collect();
    let metadata = Metadata::builder("FOX concert recording", "FOX", uri.clone())
        .content(&data, 128)
        .build();
    let pieces = split_into_pieces(&uri, &data, 128);
    println!("file: {} bytes in {} pieces", data.len(), pieces.len());

    // Six devices, each holding a random half of the pieces; together they
    // cover the whole file.
    let members: Vec<NodeId> = (0..6).map(NodeId::new).collect();
    let mut holdings: Vec<BTreeSet<u32>> = (0..6)
        .map(|_| {
            let mut idx: Vec<u32> = (0..pieces.len() as u32).collect();
            idx.shuffle(&mut rng);
            idx.into_iter().take(pieces.len() / 2).collect()
        })
        .collect();
    for i in 0..pieces.len() as u32 {
        // Guarantee coverage: assign any globally-missing piece to node 0.
        if !holdings.iter().any(|h| h.contains(&i)) {
            holdings[0].insert(i);
        }
    }
    for (i, h) in holdings.iter().enumerate() {
        println!(
            "  node {i} starts with {} / {} pieces",
            h.len(),
            pieces.len()
        );
    }

    // Swarm rounds: one broadcast per round, rarest piece first.
    let mut rounds = 0usize;
    loop {
        let offers: Vec<Offer<PieceId>> = (0..pieces.len() as u32)
            .map(|idx| {
                let id = PieceId::new(uri.clone(), idx);
                let holders: Vec<NodeId> = members
                    .iter()
                    .copied()
                    .filter(|m| holdings[m.index()].contains(&idx))
                    .collect();
                let requesters: Vec<NodeId> = members
                    .iter()
                    .copied()
                    .filter(|m| !holdings[m.index()].contains(&idx))
                    .collect();
                Offer::new(id, Popularity::new(0.5), requesters, holders)
            })
            .filter(|o| !o.requesters.is_empty())
            .collect();
        if offers.is_empty() {
            break;
        }
        let schedule = cooperative::schedule(offers, 1, BroadcastOrdering::RarestFirst);
        let broadcast = schedule.into_iter().next().expect("offers were non-empty");
        let idx = broadcast.item.index();
        for m in &members {
            holdings[m.index()].insert(idx);
        }
        rounds += 1;
    }
    println!("\nswarm complete after {rounds} broadcast rounds");
    let pairwise_transfers: usize = 6 * pieces.len()
        - holdings.iter().map(BTreeSet::len).sum::<usize>()
        + rounds * (members.len() - 1); // receivers served per broadcast
    println!(
        "(a pair-wise scheme would have needed ≥ {} individual transfers)",
        pairwise_transfers
    );

    // Everyone reassembles and verifies against the metadata checksums.
    for m in &members {
        let mut asm = FileAssembler::new(metadata.clone());
        for idx in &holdings[m.index()] {
            asm.add_piece(pieces[*idx as usize].clone())?;
        }
        assert!(asm.is_complete());
        assert_eq!(asm.assemble().unwrap(), data);
    }
    println!("all 6 nodes reassembled and verified the file (SHA-1 per piece).");
    Ok(())
}
