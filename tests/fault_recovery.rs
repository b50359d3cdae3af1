//! Differential/integrity tests for fault recovery (ISSUE 2): injected piece
//! corruption is caught by checksum verification, the piece (and the file)
//! is re-fetched, final assembly matches the clean-run digest, and credit
//! balances never go negative under failed broadcasts.

use dtn_sim::FaultPlan;
use dtn_trace::{NodeId, SimDuration, SimTime};
use mbt_core::node::run_contact;
use mbt_core::piece::{split_into_pieces, Piece};
use mbt_core::{
    CooperationMode, FileAssembler, MbtConfig, MbtNode, Metadata, Popularity, ProtocolSpec, Query,
    Uri,
};

fn uri(s: &str) -> Uri {
    Uri::new(s).unwrap()
}

fn content(len: usize) -> Vec<u8> {
    (0..len).map(|i| ((i * 37 + 11) % 251) as u8).collect()
}

/// Piece level: a corrupted piece is rejected by the checksum, the re-sent
/// clean piece completes the file, and the assembly is byte-identical to the
/// clean transfer — the "re-fetch heals corruption" contract the simulation
/// models by discarding corrupt receptions.
#[test]
fn corrupted_piece_is_caught_and_refetch_matches_clean_digest() {
    let u = uri("mbt://fox/film");
    let data = content(4_096);
    let meta = Metadata::builder("fox film", "FOX", u.clone())
        .content(&data, 512)
        .build();

    // Clean transfer: the reference digest.
    let mut clean = FileAssembler::new(meta.clone());
    for p in split_into_pieces(&u, &data, 512) {
        clean.add_piece(p).unwrap();
    }
    let clean_bytes = clean.assemble().unwrap();
    assert_eq!(clean_bytes, data);

    // Faulty transfer: every piece first arrives corrupted, is rejected by
    // verification, and is then re-fetched clean.
    let mut lossy = FileAssembler::new(meta.clone());
    for p in split_into_pieces(&u, &data, 512) {
        let mut mangled = p.data().to_vec();
        mangled[0] ^= 0x5A;
        let corrupted = Piece::new(p.id().clone(), mangled);
        assert!(!meta.verify_piece(&corrupted), "checksum must catch this");
        assert!(lossy.add_piece(corrupted).is_err(), "store must refuse it");
        lossy.add_piece(p).unwrap(); // the re-fetch
    }
    assert!(lossy.is_complete());
    assert_eq!(
        lossy.assemble().unwrap(),
        clean_bytes,
        "recovered assembly diverges from the clean digest"
    );
}

fn node(i: u32, config: &MbtConfig) -> MbtNode {
    MbtNode::new(NodeId::new(i), ProtocolSpec::MBT, config.clone())
}

/// Contact level: a corrupted file reception stores nothing, charges no
/// credit, and leaves the file wanted — a later clean contact delivers it.
#[test]
fn corrupt_reception_is_discarded_then_refetched_at_next_contact() {
    let plan = FaultPlan::none().corruption(0.6).seed(21);
    let sender = NodeId::new(0);
    let receiver = NodeId::new(1);
    let u = uri("mbt://fox/news");

    // The plan is a pure function of time, so we can pick one contact
    // instant where the reception corrupts and a later one where it doesn't.
    let t_corrupt = (0u64..100_000)
        .map(SimTime::from_secs)
        .find(|&t| plan.corrupts(t, sender, receiver, u.as_str()))
        .expect("corruption 0.6 hits somewhere");
    let t_clean = (t_corrupt.as_secs() + 1..100_000)
        .map(SimTime::from_secs)
        .find(|&t| !plan.corrupts(t, sender, receiver, u.as_str()))
        .expect("corruption 0.6 misses somewhere");

    let config = MbtConfig::new().faults(plan);
    let mut nodes = vec![node(0, &config), node(1, &config)];
    let meta = Metadata::builder("fox evening news", "FOX", u.clone()).build();
    nodes[0].seed_content(meta, Popularity::new(0.8), true);
    let _ = nodes[0].drain_events();
    nodes[1].add_query(Query::new("evening news").unwrap(), None);

    // First contact: metadata arrives (discovery phase is corruption-free),
    // the file reception corrupts and is discarded without credit.
    let report = run_contact(&mut nodes, &[0, 1], t_corrupt, SimDuration::from_secs(60));
    assert_eq!(report.corrupt_receptions, 1, "file reception must corrupt");
    assert!(nodes[1].has_metadata(&u), "metadata is unaffected");
    assert!(!nodes[1].has_file(&u), "corrupt file must not be stored");
    let credit_after_corrupt = nodes[1].credits().credit_of(sender);

    // Second contact: the still-wanted file is re-fetched cleanly and only
    // now earns the matched-file credit.
    let report = run_contact(&mut nodes, &[0, 1], t_clean, SimDuration::from_secs(60));
    assert_eq!(report.corrupt_receptions, 0);
    assert!(nodes[1].has_file(&u), "re-fetch must complete the file");
    let credit_after_clean = nodes[1].credits().credit_of(sender);
    assert!(
        credit_after_clean > credit_after_corrupt,
        "the successful transfer earns credit ({credit_after_corrupt} -> {credit_after_clean})"
    );
    assert!(credit_after_corrupt >= 0.0 && credit_after_clean >= 0.0);
}

/// Credit safety: under total frame loss nothing is delivered and nobody is
/// charged — balances stay exactly zero (and thus never negative), even in
/// tit-for-tat mode where credits drive scheduling.
#[test]
fn credits_never_go_negative_under_failed_broadcasts() {
    let config = MbtConfig::new()
        .cooperation(CooperationMode::TitForTat)
        .faults(FaultPlan::none().loss(1.0).seed(4));
    let mut nodes = vec![node(0, &config), node(1, &config)];
    let u = uri("mbt://fox/doc");
    let meta = Metadata::builder("fox documentary", "FOX", u.clone()).build();
    nodes[0].seed_content(meta, Popularity::new(0.9), true);
    let _ = nodes[0].drain_events();
    nodes[1].add_query(Query::new("documentary").unwrap(), None);

    let mut total_lost = 0;
    for i in 0..5u64 {
        let report = run_contact(
            &mut nodes,
            &[0, 1],
            SimTime::from_secs(i * 600),
            SimDuration::from_secs(60),
        );
        total_lost += report.frames_lost;
    }
    assert!(total_lost > 0, "every broadcast should have been lost");
    assert!(!nodes[1].has_metadata(&u));
    assert!(!nodes[1].has_file(&u));
    for (a, b) in [(0usize, 1usize), (1, 0)] {
        let other = nodes[b].id();
        let credit = nodes[a].credits().credit_of(other);
        assert!(
            credit == 0.0,
            "node {a} charged {credit} for broadcasts that never arrived"
        );
    }
}
