//! The tentpole contract of the sharded metadata server: for **any**
//! sequence of publish / search / set_popularity / record_request /
//! refresh / expire operations, a [`MetadataServer`] with any shard
//! count answers **byte-identically** to the [`ReferenceServer`] — the
//! original single-registry implementation kept verbatim as the oracle.
//!
//! The server-side analogue of `tests/sharded_equivalence.rs` (which proves
//! the same property for the sharded trace backing).

use proptest::prelude::*;

use dtn_trace::{NodeId, SimDuration, SimTime};
use mbt_core::{Metadata, MetadataServer, Popularity, Query, Uri};

#[path = "support/reference_server.rs"]
mod reference_server;
use reference_server::ReferenceServer;

/// Shard counts under test; 1 is the "byte-identical to today" case, the
/// rest exercise real partitioning (including a prime).
const SHARD_COUNTS: [usize; 4] = [1, 2, 7, 16];

/// A small vocabulary so queries actually hit records (and overlap).
const TOKENS: [&str; 10] = [
    "fox", "news", "evening", "comedy", "sports", "weather", "tonight", "daily", "talk", "show",
];

/// A token no record ever carries: names draw from [`TOKENS`] and the
/// publisher is always `FOX`.
const ABSENT: &str = "zzz";

/// `TOKENS[idx]`, or [`ABSENT`] for an index past the vocabulary.
fn token(idx: usize) -> &'static str {
    TOKENS.get(idx).copied().unwrap_or(ABSENT)
}

/// How a [`Op::Republish`] derives the new name from the stored one.
#[derive(Debug, Clone, Copy)]
enum Rename {
    /// Same name: every token kept, only popularity and TTL move.
    Keep,
    /// Second name token replaced: one posting leaves, one arrives.
    Change,
    /// Name tokens in the other order: a different record, the same token set.
    Swap,
}

/// One operation against both servers.
#[derive(Debug, Clone)]
enum Op {
    Publish {
        uri: usize,
        name_a: usize,
        name_b: usize,
        pop: f64,
        ttl_days: u64,
    },
    /// Replaces `uri`'s record (if it has one) by a renamed copy.
    Republish {
        uri: usize,
        rename: Rename,
        with: usize,
        pop: f64,
        ttl_days: u64,
    },
    /// One to three tokens, any of which may be [`ABSENT`].
    Search {
        tok_a: usize,
        tok_b: Option<usize>,
        tok_c: Option<usize>,
        limit: usize,
    },
    SetPopularity {
        uri: usize,
        pop: f64,
    },
    RecordRequest {
        uri: usize,
        node: u32,
        at_hours: u64,
    },
    Refresh {
        at_hours: u64,
    },
    Expire {
        at_hours: u64,
    },
    MostPopular {
        limit: usize,
        at_hours: u64,
    },
}

/// Decodes a flat sample into one operation over `uris` publishable URIs
/// (the shim has no `prop_oneof!`, so the op kind is just another sampled
/// dimension). Two further URI indices are never published, so look-ups and
/// popularity updates also meet unknown keys.
fn arb_op(uris: usize) -> impl Strategy<Value = Op> {
    (
        0u8..10,
        (0usize..uris + 2, 0usize..10, 0.0f64..1.0),
        0u64..200,
        // Search shape: the limit code, a token index that reaches past the
        // vocabulary a sixth of the time, and whether it leads the query.
        (0usize..10, 0usize..12, 0u8..4),
        0u32..6,
    )
        .prop_map(
            move |(kind, (a, b, pop), at_hours, (limit, c, lead), node)| match kind {
                0 => Op::Publish {
                    uri: a % uris,
                    name_a: b,
                    name_b: (a + b) % 10,
                    pop,
                    ttl_days: at_hours % 6,
                },
                1 | 7 => Op::Search {
                    tok_a: if lead == 0 { c } else { b },
                    tok_b: (a % 3 != 0).then_some(a % 10),
                    tok_c: (a % 4 == 1).then_some(c),
                    // Mostly a cut below the candidate count; sometimes
                    // nothing at all, sometimes far above any candidate count.
                    limit: match limit {
                        8 => 64,
                        9 => usize::MAX,
                        n => n,
                    },
                },
                2 => Op::SetPopularity { uri: a, pop },
                3 => Op::RecordRequest {
                    uri: a % uris,
                    node,
                    at_hours: at_hours % 120,
                },
                4 => Op::Refresh {
                    at_hours: at_hours % 120,
                },
                5 => Op::Expire { at_hours },
                6 => Op::MostPopular {
                    limit: limit.min(5),
                    at_hours,
                },
                _ => Op::Republish {
                    uri: a % uris,
                    rename: [Rename::Keep, Rename::Change, Rename::Swap][c % 3],
                    with: b,
                    pop,
                    ttl_days: at_hours % 6,
                },
            },
        )
}

/// The URI space of the original (short) property.
const URIS: usize = 12;

fn uri(idx: usize) -> Uri {
    Uri::new(format!("mbt://prop/file-{idx}")).unwrap()
}

fn at(hours: u64) -> SimTime {
    SimTime::from_secs(hours * 3_600)
}

fn build_meta(op_uri: usize, name: String, ttl_days: u64) -> Metadata {
    let mut b = Metadata::builder(name, "FOX", uri(op_uri));
    if ttl_days > 0 {
        b = b.ttl(SimDuration::from_days(ttl_days));
    }
    b.build()
}

fn name_of(name_a: usize, name_b: usize) -> String {
    format!("{} {}", TOKENS[name_a], TOKENS[name_b])
}

/// The name a [`Op::Republish`] gives `stored` (a two-token name).
fn renamed(stored: &Metadata, rename: Rename, with: usize) -> String {
    let (first, second) = stored.name().split_once(' ').expect("two-token name");
    match rename {
        Rename::Keep => stored.name().to_owned(),
        Rename::Change => format!("{first} {}", TOKENS[with]),
        Rename::Swap => format!("{second} {first}"),
    }
}

fn query_of(tok_a: usize, tok_b: Option<usize>, tok_c: Option<usize>) -> Query {
    let text: Vec<&str> = [Some(tok_a), tok_b, tok_c]
        .into_iter()
        .flatten()
        .map(token)
        .collect();
    Query::new(text.join(" ")).unwrap()
}

/// Everything observable about a search result, stringified: any divergence
/// in membership, order, or record contents shows up here.
fn render(results: &[&Metadata]) -> Vec<String> {
    results
        .iter()
        .map(|m| format!("{}|{}|{}", m.uri().as_str(), m.name(), m.publisher()))
        .collect()
}

/// The record `op` publishes, if it is a publish of either kind; `stored`
/// looks up the target URI's current record, which a republish renames.
fn record_to_publish<'a>(
    op: &Op,
    stored: impl FnOnce(&Uri) -> Option<&'a Metadata>,
) -> Option<(Metadata, Popularity)> {
    match *op {
        Op::Publish {
            uri: u,
            name_a,
            name_b,
            pop,
            ttl_days,
        } => Some((
            build_meta(u, name_of(name_a, name_b), ttl_days),
            Popularity::new(pop),
        )),
        Op::Republish {
            uri: u,
            rename,
            with,
            pop,
            ttl_days,
        } => {
            let name = stored(&uri(u)).map_or_else(
                || name_of(with, (with + 1) % 10),
                |stored| renamed(stored, rename, with),
            );
            Some((build_meta(u, name, ttl_days), Popularity::new(pop)))
        }
        _ => None,
    }
}

/// Replays `ops` against the reference and one sharded server per shard
/// count, holding every answer and, at the end, the whole state over
/// `uris + 2` URI indices to the reference's.
///
/// Returns how many publishes found their URI unpublished while the server
/// held fewer records than it once had — i.e. were placed, on the
/// single-shard server, in a slot an expired record had freed.
fn replay_against_reference(ops: &[Op], uris: usize) -> usize {
    let mut reference = ReferenceServer::new(10);
    let mut sharded: Vec<MetadataServer> = SHARD_COUNTS
        .iter()
        .map(|&n| MetadataServer::with_shards(10, n))
        .collect();
    let (mut most_records, mut reused_slots) = (0, 0);

    for op in ops {
        if let Some((meta, p)) = record_to_publish(op, |target| reference.metadata_of(target)) {
            if reference.metadata_of(meta.uri()).is_none() && reference.len() < most_records {
                reused_slots += 1;
            }
            reference.publish(meta.clone(), p);
            for s in &mut sharded {
                s.publish(meta.clone(), p);
            }
        }
        match *op {
            Op::Publish { .. } | Op::Republish { .. } => {}
            Op::Search {
                tok_a,
                tok_b,
                tok_c,
                limit,
            } => {
                let q = query_of(tok_a, tok_b, tok_c);
                let expected = render(&reference.search(&q, limit));
                let expected_best = render(&reference.search(&q, 1));
                for (s, shards) in sharded.iter().zip(SHARD_COUNTS) {
                    prop_assert_eq!(
                        &render(&s.search(&q, limit)),
                        &expected,
                        "search diverged at {shards} shards"
                    );
                    prop_assert_eq!(
                        &render(&s.search(&q, 1)),
                        &expected_best,
                        "best match diverged at {shards} shards"
                    );
                }
            }
            Op::SetPopularity { uri: u, pop } => {
                let target = uri(u);
                let p = Popularity::new(pop);
                reference.set_popularity(&target, p);
                for s in &mut sharded {
                    s.set_popularity(&target, p);
                }
            }
            Op::RecordRequest {
                uri: u,
                node,
                at_hours,
            } => {
                let target = uri(u);
                let now = at(at_hours);
                reference.record_request(&target, NodeId::new(node), now);
                for s in &mut sharded {
                    s.record_request(&target, NodeId::new(node), now);
                }
            }
            Op::Refresh { at_hours } => {
                let now = at(at_hours);
                reference.refresh_popularities(now);
                for s in &mut sharded {
                    s.refresh_popularities(now);
                }
            }
            Op::Expire { at_hours } => {
                let now = at(at_hours);
                let expected = reference.expire(now);
                for (s, shards) in sharded.iter_mut().zip(SHARD_COUNTS) {
                    prop_assert_eq!(
                        s.expire(now),
                        expected,
                        "expire count diverged at {shards} shards"
                    );
                }
            }
            Op::MostPopular { limit, at_hours } => {
                let now = at(at_hours);
                let expected = render(&reference.most_popular(limit, now));
                for (s, shards) in sharded.iter().zip(SHARD_COUNTS) {
                    prop_assert_eq!(
                        &render(&s.most_popular(limit, now)),
                        &expected,
                        "most_popular diverged at {shards} shards"
                    );
                }
            }
        }

        // Cheap invariants after every op.
        for s in &sharded {
            prop_assert_eq!(s.len(), reference.len());
            prop_assert_eq!(s.is_empty(), reference.is_empty());
        }
        most_records = most_records.max(reference.len());
    }

    // Full-state sweep at the end: every URI slot, the global iteration
    // order, and the estimator view.
    let t_end = at(200);
    for u in 0..uris + 2 {
        let target = uri(u);
        let expected_meta = reference.metadata_of(&target).map(|m| m.uri().clone());
        let expected_pop = reference.popularity_of(&target);
        let expected_est = reference.estimated_popularity(&target, t_end);
        for s in &sharded {
            prop_assert_eq!(
                &s.metadata_of(&target).map(|m| m.uri().clone()),
                &expected_meta
            );
            prop_assert_eq!(s.popularity_of(&target), expected_pop);
            prop_assert_eq!(s.estimated_popularity(&target, t_end), expected_est);
        }
    }
    let expected_iter: Vec<String> = render(&reference.iter().collect::<Vec<_>>());
    for (s, shards) in sharded.iter().zip(SHARD_COUNTS) {
        let got: Vec<String> = render(&s.iter().collect::<Vec<_>>());
        prop_assert_eq!(&got, &expected_iter, "iter diverged at {shards} shards");
    }
    reused_slots
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn sharded_server_is_byte_identical_to_reference(
        ops in proptest::collection::vec(arb_op(URIS), 1..60)
    ) {
        replay_against_reference(&ops, URIS);
    }

    #[test]
    fn snapshot_answers_match_the_live_server(
        ops in proptest::collection::vec(arb_op(URIS), 1..40),
        shards_idx in 0usize..4
    ) {
        // A snapshot taken after a mutation burst answers the read API
        // exactly like the live server it was taken from.
        let mut server = MetadataServer::with_shards(10, SHARD_COUNTS[shards_idx]);
        for op in &ops {
            let publish = record_to_publish(op, |target| server.metadata_of(target));
            if let Some((meta, p)) = publish {
                server.publish(meta, p);
            }
            match *op {
                Op::SetPopularity { uri: u, pop } => {
                    server.set_popularity(&uri(u), Popularity::new(pop));
                }
                Op::Expire { at_hours } => {
                    server.expire(at(at_hours));
                }
                _ => {}
            }
        }
        let snap = server.snapshot();
        prop_assert_eq!(snap.len(), server.len());
        prop_assert_eq!(snap.is_empty(), server.is_empty());
        let now = at(100);
        for tok in TOKENS {
            let q = Query::new(tok).unwrap();
            let live: Vec<String> = render(&server.search(&q, 5));
            prop_assert_eq!(&render(&snap.search(&q, 5)), &live);
        }
        let live_top: Vec<String> = render(&server.most_popular(5, now));
        prop_assert_eq!(&render(&snap.most_popular(5, now)), &live_top);
        for u in 0..14 {
            let target = uri(u);
            prop_assert_eq!(snap.popularity_of(&target), server.popularity_of(&target));
            prop_assert_eq!(
                snap.metadata_of(&target).map(|m| m.uri().clone()),
                server.metadata_of(&target).map(|m| m.uri().clone())
            );
        }
    }
}

/// The URI space of the long property: wide enough that a slot freed by one
/// URI's expiry is usually taken by another URI's first publish.
const MANY_URIS: usize = 40;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn long_sequences_free_slots_and_reuse_them_for_other_uris(
        ops in proptest::collection::vec(arb_op(MANY_URIS), 200..320)
    ) {
        // Five publishes in six carry a TTL of 1–5 days and expiry passes
        // run at up to 200 h, so over 200+ ops the slabs keep freeing slots
        // that later first-time publishes of other URIs are given — the
        // case a stale posting, a stale column or a stale `Uri → slot`
        // entry would turn into a ghost hit or a lost record.
        let reused_slots = replay_against_reference(&ops, MANY_URIS);
        prop_assert!(reused_slots > 0, "the sequence never reused a freed slot");
    }
}

/// A URI of the property namespace, other than `uri(0)`, that every shard
/// count under test places in `uri(0)`'s shard — so it inherits the slot
/// `uri(0)` frees however many shards there are.
fn shard_mate_of_uri_0() -> Uri {
    use mbt_core::server::shard::shard_of_uri;
    (1..)
        .map(uri)
        .find(|u| {
            [1, 7]
                .iter()
                .all(|&n| shard_of_uri(u, n) == shard_of_uri(&uri(0), n))
        })
        .expect("some URI shares both shards")
}

/// A: `uri(0)`, "evening news" by FOX, expiring after a day.
fn record_a() -> Metadata {
    build_meta(0, "evening news".to_owned(), 1)
}

/// B: a shard-mate of A's URI with no name token in common and no TTL.
fn record_b() -> Metadata {
    Metadata::builder("comedy show", "FOX", shard_mate_of_uri_0()).build()
}

#[test]
fn a_record_published_into_an_expired_records_slot_leaves_no_ghost() {
    for shards in [1, 7] {
        let mut server = MetadataServer::with_shards(10, shards);
        server.publish(record_a(), Popularity::MAX);
        assert_eq!(server.expire(at(24)), 1);
        server.publish(record_b(), Popularity::new(0.5));

        // A's tokens find nothing — not A, and not B through A's postings.
        for text in ["evening", "news", "evening news", "fox evening"] {
            let hits = server.search(&Query::new(text).unwrap(), 10);
            assert!(
                hits.is_empty(),
                "`{text}` found {:?} at {shards} shards",
                render(&hits)
            );
        }
        // The publisher token both carried now lists B alone.
        let fox = server.search(&Query::new("fox").unwrap(), 10);
        assert_eq!(fox.len(), 1);
        assert_eq!(fox[0].uri(), record_b().uri());
        assert!(server.metadata_of(&uri(0)).is_none());
        assert_eq!(server.popularity_of(&uri(0)), Popularity::MIN);
        assert_eq!(server.len(), 1);
        assert_eq!(server.most_popular(5, at(48)).len(), 1);
    }
}

#[test]
fn a_snapshot_from_before_the_expiry_still_answers_the_old_record() {
    for shards in [1, 7] {
        let mut server = MetadataServer::with_shards(10, shards);
        server.publish(record_a(), Popularity::MAX);
        let before = server.snapshot();
        assert_eq!(server.expire(at(24)), 1);
        server.publish(record_b(), Popularity::new(0.5));

        // The frozen halves agree with each other: A's postings still lead
        // to A's record, though the live slab's slot now holds B.
        for text in ["evening", "fox", "evening news"] {
            let hits = before.search(&Query::new(text).unwrap(), 10);
            assert_eq!(hits.len(), 1, "`{text}` at {shards} shards");
            assert_eq!(hits[0].uri(), &uri(0));
            assert_eq!(hits[0].name(), "evening news");
        }
        assert!(before.search(&Query::new("comedy").unwrap(), 10).is_empty());
        assert_eq!(before.metadata_of(&uri(0)).unwrap().name(), "evening news");
        assert_eq!(before.popularity_of(&uri(0)), Popularity::MAX);
        assert!(before.metadata_of(record_b().uri()).is_none());
        assert_eq!(before.len(), 1);
    }
}
