//! Property-based tests for the MBT core: checksums, pieces, metadata,
//! ordering invariants, and the credit mechanism.

use proptest::prelude::*;

use dtn_trace::NodeId;
use mbt_core::checksum::{sha1, Sha1};
use mbt_core::download::{cooperative as dl_coop, tft as dl_tft, Broadcast, Offer};
use mbt_core::keyword::tokenize;
use mbt_core::piece::split_into_pieces;
use mbt_core::{BroadcastOrdering, CreditLedger, FileAssembler, Metadata, Popularity, Query, Uri};

fn arb_uri() -> impl Strategy<Value = Uri> {
    "[a-z0-9]{1,12}".prop_map(|s| Uri::new(format!("mbt://p/{s}")).unwrap())
}

fn arb_meta() -> impl Strategy<Value = Metadata> {
    (arb_uri(), "[a-z ]{1,30}", 0usize..3).prop_map(|(uri, name, pubidx)| {
        Metadata::builder(name, ["FOX", "ABC", "CBS"][pubidx], uri).build()
    })
}

proptest! {
    #[test]
    fn sha1_incremental_equals_oneshot(data in proptest::collection::vec(any::<u8>(), 0..2_000), split in 0usize..2_000) {
        let split = split.min(data.len());
        let mut h = Sha1::new();
        h.update(&data[..split]);
        h.update(&data[split..]);
        prop_assert_eq!(h.finalize(), sha1(&data));
    }

    #[test]
    fn sha1_multi_chunk_equals_oneshot(chunks in proptest::collection::vec(proptest::collection::vec(any::<u8>(), 0..200), 0..10)) {
        let mut h = Sha1::new();
        let mut all = Vec::new();
        for c in &chunks {
            h.update(c);
            all.extend_from_slice(c);
        }
        prop_assert_eq!(h.finalize(), sha1(&all));
    }

    #[test]
    fn split_then_assemble_round_trips(data in proptest::collection::vec(any::<u8>(), 0..5_000), piece_size in 1usize..600) {
        let uri = Uri::new("mbt://p/f").unwrap();
        let meta = Metadata::builder("f", "FOX", uri.clone())
            .content(&data, piece_size)
            .build();
        let mut asm = FileAssembler::new(meta);
        for p in split_into_pieces(&uri, &data, piece_size) {
            asm.add_piece(p).unwrap();
        }
        prop_assert!(asm.is_complete());
        prop_assert_eq!(asm.assemble().unwrap(), data);
    }

    #[test]
    fn assembler_order_does_not_matter(data in proptest::collection::vec(any::<u8>(), 1..3_000), seed in any::<u64>()) {
        use rand::seq::SliceRandom;
        use rand::SeedableRng;
        let uri = Uri::new("mbt://p/f").unwrap();
        let meta = Metadata::builder("f", "FOX", uri.clone()).content(&data, 256).build();
        let mut pieces = split_into_pieces(&uri, &data, 256);
        pieces.shuffle(&mut rand::rngs::StdRng::seed_from_u64(seed));
        let mut asm = FileAssembler::new(meta);
        for p in pieces {
            asm.add_piece(p).unwrap();
        }
        prop_assert_eq!(asm.assemble().unwrap(), data);
    }

    #[test]
    fn corrupting_a_piece_is_always_detected(
        data in proptest::collection::vec(any::<u8>(), 1..2_000),
        victim in any::<prop::sample::Index>(),
        byte in any::<prop::sample::Index>(),
        flip in 1u8..=255
    ) {
        let uri = Uri::new("mbt://p/f").unwrap();
        let meta = Metadata::builder("f", "FOX", uri.clone()).content(&data, 128).build();
        let pieces = split_into_pieces(&uri, &data, 128);
        let v = victim.index(pieces.len());
        let mut payload = pieces[v].data().to_vec();
        let b = byte.index(payload.len());
        payload[b] ^= flip;
        let bad = mbt_core::Piece::new(pieces[v].id().clone(), payload);
        prop_assert!(!meta.verify_piece(&bad));
    }

    #[test]
    fn tokenize_is_idempotent_and_lowercase(text in "[a-zA-Z0-9 ,.!-]{0,80}") {
        let once = tokenize(&text);
        let again = tokenize(&once.join(" "));
        prop_assert_eq!(&once, &again);
        for t in &once {
            prop_assert_eq!(t.to_ascii_lowercase(), t.clone());
        }
    }

    #[test]
    fn query_matches_its_own_source_text(text in "[a-z]{1,8}( [a-z]{1,8}){0,4}") {
        let q = Query::new(text.clone()).unwrap();
        prop_assert!(q.matches_text(&text));
    }

    #[test]
    fn cached_token_matching_agrees_with_fresh_tokenize(
        m in arb_meta(),
        text in "[a-z]{1,6}( [a-z]{1,6}){0,3}"
    ) {
        // The token set cached at build time must answer every query exactly
        // as a fresh tokenization of the record's text fields would.
        let q = Query::new(text).unwrap();
        let fresh = tokenize(&format!("{} {} {}", m.name(), m.publisher(), m.description()));
        let expected = q.tokens().iter().all(|t| fresh.contains(t));
        prop_assert_eq!(q.matches_token_set(m.token_set()), expected);
        prop_assert_eq!(m.matches_query(&q), expected);
        // A query built from any token of the record's own name matches.
        for tok in tokenize(m.name()) {
            let own = Query::new(tok).unwrap();
            prop_assert!(own.matches_token_set(m.token_set()));
        }
    }

    #[test]
    fn canonical_bytes_distinct_for_distinct_names(a in "[a-z]{1,20}", b in "[a-z]{1,20}") {
        prop_assume!(a != b);
        let uri = Uri::new("mbt://p/x").unwrap();
        let ma = Metadata::builder(a, "FOX", uri.clone()).build();
        let mb = Metadata::builder(b, "FOX", uri).build();
        prop_assert_ne!(ma.canonical_bytes(), mb.canonical_bytes());
    }

    #[test]
    fn signing_verifies_and_any_rename_breaks_it(name in "[a-z]{1,16}", other in "[a-z]{1,16}") {
        use mbt_core::auth::{sign, verify, PublisherKey};
        prop_assume!(name != other);
        let key = PublisherKey::derive(b"master", "FOX");
        let uri = Uri::new("mbt://p/x").unwrap();
        let mut m = Metadata::builder(name, "FOX", uri.clone()).build();
        sign(&mut m, &key);
        prop_assert!(verify(&m, &key));
        let mut renamed = Metadata::builder(other, "FOX", uri).build();
        // Forge attempt: reuse the old tag on different content.
        if let Some(tag) = m.auth_tag() {
            // Only the auth module can set tags; emulate by re-signing with a
            // *wrong* key instead, which must also fail under the right key.
            let attacker = PublisherKey::derive(b"attacker", "FOX");
            sign(&mut renamed, &attacker);
            prop_assert!(!verify(&renamed, &key));
            let _ = tag;
        }
    }
}

// ---- ordering invariants for the schedulers ----

fn arb_offers() -> impl Strategy<Value = Vec<(String, f64, Vec<u32>, Vec<u32>)>> {
    proptest::collection::vec(
        (
            "[a-z0-9]{1,8}",
            0.0f64..1.0,
            proptest::collection::vec(0u32..8, 0..4),
            proptest::collection::vec(0u32..8, 0..4),
        ),
        0..20,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn cooperative_download_schedule_invariants(raw in arb_offers(), slots in 0usize..30, rarest in prop::bool::ANY) {
        let ordering = if rarest { BroadcastOrdering::RarestFirst } else { BroadcastOrdering::TwoPhase };
        let mut seen = std::collections::BTreeSet::new();
        let offers: Vec<Offer<Uri>> = raw
            .into_iter()
            .filter(|(u, ..)| seen.insert(u.clone()))
            .map(|(u, pop, req, hold)| {
                Offer::new(
                    Uri::new(format!("mbt://f/{u}")).unwrap(),
                    Popularity::new(pop),
                    req.into_iter().map(NodeId::new).collect(),
                    hold.into_iter().map(NodeId::new).collect(),
                )
            })
            .collect();
        let sendable_items: std::collections::BTreeSet<Uri> = offers
            .iter()
            .filter(|o| o.sendable())
            .map(|o| o.item.clone())
            .collect();
        let requested: std::collections::BTreeSet<Uri> = offers
            .iter()
            .filter(|o| o.sendable() && o.request_count() > 0)
            .map(|o| o.item.clone())
            .collect();
        let schedule = dl_coop::schedule(offers.clone(), slots, ordering);
        // Budget respected, no duplicates, senders hold what they send.
        prop_assert!(schedule.len() <= slots);
        let mut scheduled = std::collections::BTreeSet::new();
        for b in &schedule {
            prop_assert!(scheduled.insert(b.item.clone()), "duplicate broadcast");
            prop_assert!(sendable_items.contains(&b.item));
            let offer = offers.iter().find(|o| o.item == b.item).unwrap();
            prop_assert!(offer.holders.contains(&b.sender));
        }
        // Under rarest-first no item is sent before a rarer one.
        if rarest {
            let holders = |b: &Broadcast<Uri>| {
                offers.iter().find(|o| o.item == b.item).unwrap().holders.len()
            };
            for pair in schedule.windows(2) {
                prop_assert!(holders(&pair[0]) <= holders(&pair[1]), "rarity inversion");
            }
        }
        // Under the paper's order, requested items never follow unrequested
        // ones (rarest-first ranks by holder count before requests).
        let mut seen_unrequested = false;
        for b in schedule.iter().filter(|_| !rarest) {
            if requested.contains(&b.item) {
                prop_assert!(!seen_unrequested, "phase inversion");
            } else {
                seen_unrequested = true;
            }
        }
        // If budget allows, all sendable requested items are included.
        if slots >= sendable_items.len() {
            for item in &requested {
                prop_assert!(scheduled.contains(item));
            }
        }
    }

    #[test]
    fn tft_download_schedule_invariants(raw in arb_offers(), slots in 0usize..30, members in proptest::collection::btree_set(0u32..8, 1..8)) {
        let member_ids: Vec<NodeId> = members.iter().copied().map(NodeId::new).collect();
        let mut seen = std::collections::BTreeSet::new();
        let offers: Vec<Offer<Uri>> = raw
            .into_iter()
            .filter(|(u, ..)| seen.insert(u.clone()))
            .map(|(u, pop, req, hold)| {
                Offer::new(
                    Uri::new(format!("mbt://f/{u}")).unwrap(),
                    Popularity::new(pop),
                    req.into_iter().map(NodeId::new).collect(),
                    hold.into_iter().map(NodeId::new).collect(),
                )
            })
            .collect();
        let ledger = CreditLedger::new();
        let schedule = dl_tft::schedule(&member_ids, offers.clone(), |_| &ledger, slots);
        prop_assert!(schedule.len() <= slots);
        let mut scheduled = std::collections::BTreeSet::new();
        for b in &schedule {
            prop_assert!(scheduled.insert(b.item.clone()), "duplicate broadcast");
            prop_assert!(member_ids.contains(&b.sender), "sender not a member");
            let offer = offers.iter().find(|o| o.item == b.item).unwrap();
            prop_assert!(offer.holders.contains(&b.sender));
        }
    }

    #[test]
    fn credit_ledger_total_is_sum_of_rewards(
        events in proptest::collection::vec((0u32..6, prop::bool::ANY, 0.0f64..1.0), 0..50)
    ) {
        let mut ledger = CreditLedger::new();
        let mut expected: std::collections::BTreeMap<u32, f64> = std::collections::BTreeMap::new();
        for (peer, matched, pop) in &events {
            let node = NodeId::new(*peer);
            if *matched {
                ledger.reward_matched(node);
                *expected.entry(*peer).or_insert(0.0) += 5.0;
            } else {
                ledger.reward_unmatched(node, Popularity::new(*pop));
                *expected.entry(*peer).or_insert(0.0) += *pop;
            }
        }
        for (peer, total) in expected {
            prop_assert!((ledger.credit_of(NodeId::new(peer)) - total).abs() < 1e-9);
        }
        // ranked_peers is sorted descending.
        let ranked = ledger.ranked_peers();
        for w in ranked.windows(2) {
            prop_assert!(w[0].1 >= w[1].1);
        }
    }

    #[test]
    fn popularity_sampling_always_in_unit_interval(seed in any::<u64>(), lambda in 0.1f64..100.0) {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        for _ in 0..50 {
            let p = mbt_core::popularity::sample_popularity(&mut rng, lambda);
            prop_assert!((0.0..=1.0).contains(&p.value()));
        }
    }

}

// ---- the maintained wanted set ----

mod wanted_set {
    use proptest::prelude::*;

    use dtn_trace::{NodeId, SimDuration, SimTime};
    use mbt_core::node::run_contact;
    use mbt_core::{
        CachePolicy, MbtConfig, MbtNode, Metadata, MetadataServer, Popularity, ProtocolSpec, Query,
        Uri,
    };

    const NODES: usize = 3;
    const RECORDS: usize = 12;
    const WORDS: [&str; 4] = ["fox", "news", "abc", "show"];
    /// The last matches no record.
    const QUERIES: [&str; 6] = ["fox", "news", "abc", "show", "fox news", "late"];

    fn uri(i: usize) -> Uri {
        Uri::new(format!("mbt://w/{i:02}")).unwrap()
    }

    /// Record `i`: two words of [`WORDS`], expiring between 100 and 300 s.
    fn record_expiry(i: usize) -> SimTime {
        SimTime::from_secs(100 + 50 * (i as u64 % 5))
    }

    fn record(i: usize) -> Metadata {
        let name = format!("{} {}", WORDS[i % 4], WORDS[(i / 4 + i) % 4]);
        Metadata::builder(name, "pub", uri(i))
            .expires_at(Some(record_expiry(i)))
            .build()
    }

    fn popularity(i: usize) -> Popularity {
        Popularity::new((i % 5) as f64 / 4.0)
    }

    /// The definition, from scratch and by the uncached matching path: the
    /// stored records matching an own query whose file is not held,
    /// ascending.
    fn wanted_by_definition(n: &MbtNode) -> Vec<Uri> {
        let own = n.own_queries();
        let mut wanted: Vec<Uri> = (n.metadata().iter())
            .filter(|m| own.iter().any(|q| q.matches_text(&m.search_text())))
            .filter(|m| !n.files().contains(m.uri()))
            .map(|m| m.uri().clone())
            .collect();
        // The store yields in its map order; the wanted set is URI-ordered.
        wanted.sort();
        wanted
    }

    fn fresh(i: usize, spec: ProtocolSpec, config: &MbtConfig) -> MbtNode {
        let mut n = MbtNode::new(NodeId::new(i as u32), spec, config.clone());
        n.set_internet_access(true);
        let others: Vec<NodeId> = (0..NODES as u32)
            .filter(|&j| j != i as u32)
            .map(NodeId::new)
            .collect();
        n.set_frequent_contacts(others);
        n
    }

    /// One step of the walk: `(kind, a, b, flag)` decoded against the clock.
    fn step(
        nodes: &mut [MbtNode],
        server: &MetadataServer,
        now: &mut u64,
        (kind, a, b, flag): (u8, usize, usize, bool),
    ) {
        let who = a % NODES;
        let at = SimTime::from_secs;
        match kind {
            // A new query, a repeated text, or one that matches nothing.
            0 | 1 => {
                let expires = match b % 8 {
                    0 => None,
                    1..=4 => Some(at(*now + 80)),
                    _ => Some(at(*now + 250)),
                };
                nodes[who].add_query(Query::new(QUERIES[a / NODES % 6]).unwrap(), expires);
            }
            2 => nodes[who].seed_content(record(b % RECORDS), popularity(b), flag),
            3 => nodes[who].internet_session(server, at(*now)),
            // Metadata phase, file phase and riding metadata, pair or clique.
            4 | 5 => {
                let members: Vec<usize> = if flag {
                    (0..NODES).collect()
                } else {
                    vec![who, (who + 1 + b % (NODES - 1)) % NODES]
                };
                run_contact(nodes, &members, at(*now), SimDuration::from_secs(600));
            }
            // A file, with or without a record, that may expire before it.
            6 => {
                let i = b % RECORDS;
                let expires = if flag {
                    at(*now + 25)
                } else {
                    record_expiry(i)
                };
                nodes[who].try_store_file(uri(i), Some(expires));
            }
            7 => {
                *now += 10 * (1 + b as u64 % 6);
                nodes[who].prune(at(*now));
            }
            // Everything with a lifetime decays.
            8 => {
                *now += 300;
                for n in nodes.iter_mut() {
                    n.prune(at(*now));
                    n.drain_events();
                }
            }
            // A day's draws at once: repeats inside the batch and of texts
            // already held.
            _ => {
                nodes[who].add_queries(batch(a, b, *now));
            }
        }
    }

    /// One to four queries of [`QUERIES`], repeats likely, mixed lifetimes.
    fn batch(a: usize, b: usize, now: u64) -> Vec<(Query, Option<SimTime>)> {
        [a, b, a / 6, a + b][..1 + b % 4]
            .iter()
            .map(|&i| {
                let expires = (i % 3 > 0).then(|| SimTime::from_secs(now + 80 * (i % 3) as u64));
                (Query::new(QUERIES[i % 6]).unwrap(), expires)
            })
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Whatever sequence of mutators a node goes through, the wanted set
        /// it maintains is the one a scan of its stores would compute.
        #[test]
        fn the_maintained_wanted_set_equals_its_definition(
            steps in prop::collection::vec((0u8..10, 0usize..36, 0usize..60, any::<bool>()), 1..70),
            discovery_first in any::<bool>(),
        ) {
            // The five built-ins, and a PopCache tight enough that most
            // admissions evict a victim.
            let tight = ProtocolSpec::POP_CACHE.with_cache(
                "PopCache-2",
                CachePolicy::PopularityRanked { capacity: 2 },
            );
            for spec in ProtocolSpec::builtin().into_iter().chain([tight]) {
                let config = MbtConfig::new()
                    .discovery_first(discovery_first)
                    .metadata_per_contact(4)
                    .files_per_contact(2);
                let mut nodes: Vec<MbtNode> =
                    (0..NODES).map(|i| fresh(i, spec, &config)).collect();
                let mut server = MetadataServer::new(NODES as u32);
                for i in 0..RECORDS {
                    server.publish(record(i), popularity(i));
                }
                let mut now = 0u64;
                for (at, &op) in steps.iter().enumerate() {
                    step(&mut nodes, &server, &mut now, op);
                    for n in &nodes {
                        prop_assert_eq!(
                            n.wanted_uris(),
                            wanted_by_definition(n),
                            "{} node {} after step {} {:?} of {:?}",
                            spec.name(), n.id(), at, op, steps
                        );
                    }
                }
            }
        }

        /// A batch through `add_queries` is the same queries through
        /// `add_query` one by one: the same own list and wanted set, and the
        /// same hellos counted as unchanged — the next hello is one exactly
        /// when the batch held no text that was new.
        #[test]
        fn a_batch_of_queries_is_its_queries_one_by_one(
            held in prop::collection::vec((0usize..6, 0usize..3), 0..3),
            draws in prop::collection::vec((0usize..36, 0usize..60), 1..4),
            stored in prop::collection::vec(0usize..RECORDS, 0..8),
            filed in prop::collection::vec(0usize..RECORDS, 0..3),
        ) {
            // Both nodes hold the same records and files, so no contact moves
            // anything and only the queries added between two contacts can
            // change a store.
            let config = MbtConfig::new();
            let build = || {
                let mut nodes: Vec<MbtNode> =
                    (0..2).map(|i| fresh(i, ProtocolSpec::MBT, &config)).collect();
                for &(q, life) in &held {
                    let expires = (life > 0).then(|| SimTime::from_secs(80 * life as u64));
                    nodes[0].add_query(Query::new(QUERIES[q]).unwrap(), expires);
                }
                for n in nodes.iter_mut() {
                    for &i in &stored {
                        n.seed_content(record(i), popularity(i), filed.contains(&i));
                    }
                    n.drain_events();
                }
                nodes
            };
            let meet = |nodes: &mut [MbtNode], at: u64| {
                let report =
                    run_contact(nodes, &[0, 1], SimTime::from_secs(at), SimDuration::from_secs(60));
                assert_eq!(report.frames_sent, 0, "nothing to move");
                (report.wanted_cache_hits, report.index_lookups)
            };
            let (mut batched, mut single) = (build(), build());
            prop_assert_eq!(meet(&mut batched, 1), meet(&mut single, 1));
            for (round, &(a, b)) in draws.iter().enumerate() {
                let at = 2 + round as u64;
                let queries = batch(a, b, at);
                let own = batched[0].own_queries();
                let new_texts: std::collections::BTreeSet<&str> = queries
                    .iter()
                    .map(|(q, _)| q.text())
                    .filter(|text| own.iter().all(|held| held.text() != *text))
                    .collect();
                prop_assert_eq!(batched[0].add_queries(queries.clone()), new_texts.len());
                for (query, expires) in queries.iter().cloned() {
                    single[0].add_query(query, expires);
                }
                prop_assert_eq!(batched[0].own_queries(), single[0].own_queries());
                prop_assert_eq!(batched[0].wanted_uris(), single[0].wanted_uris());
                prop_assert_eq!(batched[0].wanted_uris(), wanted_by_definition(&batched[0]));
                // The peer's stores never change; this node's did if a text
                // was new.
                let hits = 1 + u64::from(new_texts.is_empty());
                let after = meet(&mut batched, at);
                prop_assert_eq!(after.0, hits, "round {}: {:?}", round, queries);
                prop_assert_eq!(after, meet(&mut single, at));
            }
        }
    }
}

// ---- token-set and query signatures ----

mod signatures {
    use std::collections::hash_map::DefaultHasher;
    use std::hash::{Hash, Hasher};

    use proptest::prelude::*;

    use dtn_trace::{NodeId, SimTime};
    use mbt_core::keyword::{tokenize, TokenSet};
    use mbt_core::transport::{decode_frame, encode_frame, WireMessage};
    use mbt_core::{Metadata, Popularity, Query, Uri};

    /// Up to twelve words of a forty-word vocabulary, in either case and
    /// between assorted separators: a query of one to three of them matches
    /// such a text about as often as not.
    const RECORD_TEXT: &str = "([wW][0-3][0-9][ ,.-]{1,2}){0,12}";
    const QUERY_TEXT: &str = "[wW][0-3][0-9]([ ,-][wW][0-3][0-9]){0,2}";

    fn record(name: &str, description: &str) -> Metadata {
        Metadata::builder(name, "FOX", Uri::new("mbt://p/sig").unwrap())
            .description(description)
            .build()
    }

    fn hash_of(q: &Query) -> u64 {
        let mut hasher = DefaultHasher::new();
        q.hash(&mut hasher);
        hasher.finish()
    }

    /// The message as the peer decodes it.
    fn over_the_wire(message: &WireMessage) -> WireMessage {
        let frame = encode_frame(NodeId::new(1), NodeId::new(2), 7, message);
        decode_frame(&frame).expect("an encoded frame decodes")
    }

    proptest! {
        #[test]
        fn token_set_matching_equals_the_fresh_tokenize_oracle(
            name in RECORD_TEXT,
            description in RECORD_TEXT,
            query_text in QUERY_TEXT,
        ) {
            let m = record(&name, &description);
            let q = Query::new(query_text.clone()).unwrap();
            let fresh = tokenize(&format!("{name} FOX {description}"));
            let expected = q.tokens().iter().all(|t| fresh.contains(t));
            prop_assert_eq!(q.matches_token_set(m.token_set()), expected);
            prop_assert_eq!(q.matches_text(&m.search_text()), expected);
            // No false negatives: a match is a subset, token by token and
            // therefore bit by bit.
            if expected {
                prop_assert_eq!(q.signature() & !m.token_set().signature(), 0);
            }
            // A signature is the OR of one bit a token, however the tokens
            // were reached.
            let one_bit = |token: &String| {
                let bit = TokenSet::from_text(token).signature();
                assert_eq!(bit.count_ones(), 1, "{token}");
                bit
            };
            prop_assert_eq!(
                m.token_set().signature(),
                fresh.iter().map(one_bit).fold(0, |bits, bit| bits | bit)
            );
            prop_assert_eq!(q.signature(), TokenSet::from_text(&query_text).signature());
        }

        #[test]
        fn decoded_queries_and_records_carry_the_signatures_they_left_with(
            name in RECORD_TEXT,
            description in RECORD_TEXT,
            query_text in QUERY_TEXT,
        ) {
            let (m, q) = (record(&name, &description), Query::new(query_text).unwrap());
            let share = WireMessage::QueryShare {
                owner: NodeId::new(1),
                query: q.clone(),
                expires: Some(SimTime::from_secs(9)),
            };
            let WireMessage::QueryShare { query: q_back, .. } = over_the_wire(&share) else {
                panic!("a query share decodes as one");
            };
            prop_assert_eq!(&q_back, &q);
            prop_assert_eq!(q_back.signature(), q.signature());
            let broadcast = WireMessage::Metadata {
                metadata: m.clone(),
                popularity: Popularity::new(0.5),
            };
            let WireMessage::Metadata { metadata: m_back, .. } = over_the_wire(&broadcast) else {
                panic!("a metadata broadcast decodes as one");
            };
            prop_assert_eq!(&m_back, &m);
            prop_assert_eq!(m_back.token_set(), m.token_set());
            prop_assert_eq!(m_back.token_set().signature(), m.token_set().signature());
            prop_assert_eq!(m_back.matches_query(&q_back), m.matches_query(&q));
        }

        /// `W01` and `w01` tokenize alike and are different queries: what
        /// `Query` derives compares the text first, and the tokens and the
        /// signature after it are functions of the text.
        #[test]
        fn query_comparisons_are_functions_of_the_text(a in QUERY_TEXT, b in QUERY_TEXT) {
            let (qa, qb) = (Query::new(a.clone()).unwrap(), Query::new(b.clone()).unwrap());
            prop_assert_eq!(qa == qb, a == b);
            prop_assert_eq!(qa.cmp(&qb), a.cmp(&b));
            prop_assert_eq!(hash_of(&qa), hash_of(&Query::new(a.clone()).unwrap()));
            prop_assert_eq!(hash_of(&qa) == hash_of(&qb), a == b);
        }
    }

    /// Sixty-four bits and four hundred tokens: most tokens share their bit
    /// with several others, and for each such pair the signature test passes
    /// and the string probe must say no.
    #[test]
    fn tokens_sharing_a_signature_bit_do_not_match_each_others_records() {
        let tokens: Vec<String> = (0..400)
            .map(|i| format!("fd{}n{}", i / 20, i % 20))
            .collect();
        let bit_of = |token: &String| TokenSet::from_text(token).signature();
        let mut sharing = 0;
        for (at, a) in tokens.iter().enumerate() {
            for b in tokens[..at].iter().filter(|b| bit_of(b) == bit_of(a)) {
                sharing += 1;
                let (qa, qb) = (
                    Query::new(a.clone()).unwrap(),
                    Query::new(b.clone()).unwrap(),
                );
                let (ma, mb) = (record(a, "daily release"), record(b, "daily release"));
                assert_eq!(qa.signature() & !mb.token_set().signature(), 0);
                assert!(!qa.matches_token_set(mb.token_set()), "{a} vs {b}");
                assert!(!qb.matches_token_set(ma.token_set()), "{b} vs {a}");
                assert!(qa.matches_token_set(ma.token_set()) && mb.matches_query(&qb));
            }
        }
        assert!(sharing >= 400 - 64, "the pigeonhole bound: {sharing}");
    }
}
