//! The contract of the metadata server: for **any** sequence of publish /
//! search / set_popularity / record_request / refresh / expire operations,
//! a [`MetadataServer`] answers **byte-identically** to the
//! [`ReferenceServer`] — the original single-registry implementation kept
//! verbatim as the oracle.

use proptest::prelude::*;

use dtn_trace::{NodeId, SimDuration, SimTime};
use mbt_core::{Metadata, MetadataServer, Popularity, Query, Uri};

#[path = "support/reference_server.rs"]
mod reference_server;
use reference_server::ReferenceServer;

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
/// `uri`'s published record, found through the server's public iteration.
fn record_of<'a>(server: &'a MetadataServer, uri: &Uri) -> Option<&'a Metadata> {
    server.iter().find(|m| m.uri() == uri)
}

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

/// Replays `ops` against the reference and the server, holding every
/// answer and, at the end, the whole state over `uris + 2` URI indices to
/// the reference's.
///
/// Returns how many publishes found their URI unpublished while the server
/// held fewer records than it once had — i.e. were placed in a slot an
/// expired record had freed.
fn replay_against_reference(ops: &[Op], uris: usize) -> usize {
    let mut reference = ReferenceServer::new(10);
    let mut server = MetadataServer::new(10);
    let (mut most_records, mut reused_slots) = (0, 0);

    for op in ops {
        if let Some((meta, p)) = record_to_publish(op, |target| reference.metadata_of(target)) {
            if reference.metadata_of(meta.uri()).is_none() && reference.len() < most_records {
                reused_slots += 1;
            }
            reference.publish(meta.clone(), p);
            server.publish(meta, p);
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
                prop_assert_eq!(
                    render(&server.search(&q, limit)),
                    render(&reference.search(&q, limit)),
                    "search diverged"
                );
                prop_assert_eq!(
                    render(&server.search(&q, 1)),
                    render(&reference.search(&q, 1)),
                    "best match diverged"
                );
            }
            Op::SetPopularity { uri: u, pop } => {
                let target = uri(u);
                let p = Popularity::new(pop);
                reference.set_popularity(&target, p);
                server.set_popularity(&target, p);
            }
            Op::RecordRequest {
                uri: u,
                node,
                at_hours,
            } => {
                let target = uri(u);
                let now = at(at_hours);
                reference.record_request(&target, NodeId::new(node), now);
                server.record_request(&target, NodeId::new(node), now);
            }
            Op::Refresh { at_hours } => {
                let now = at(at_hours);
                reference.refresh_popularities(now);
                server.refresh_popularities(now);
            }
            Op::Expire { at_hours } => {
                let now = at(at_hours);
                prop_assert_eq!(
                    server.expire(now),
                    reference.expire(now),
                    "expire count diverged"
                );
            }
            Op::MostPopular { limit, at_hours } => {
                let now = at(at_hours);
                prop_assert_eq!(
                    render(&server.most_popular(limit, now)),
                    render(&reference.most_popular(limit, now)),
                    "most_popular diverged"
                );
            }
        }

        // Cheap invariants after every op.
        prop_assert_eq!(server.len(), reference.len());
        prop_assert_eq!(server.is_empty(), reference.is_empty());
        most_records = most_records.max(reference.len());
    }

    // Full-state sweep at the end: every URI slot, the global iteration
    // order, and the estimator view.
    let t_end = at(200);
    for u in 0..uris + 2 {
        let target = uri(u);
        prop_assert_eq!(
            record_of(&server, &target).map(|m| m.uri().clone()),
            reference.metadata_of(&target).map(|m| m.uri().clone())
        );
        prop_assert_eq!(
            server.popularity_of(&target),
            reference.popularity_of(&target)
        );
        prop_assert_eq!(
            server.estimated_popularity(&target, t_end),
            reference.estimated_popularity(&target, t_end)
        );
    }
    prop_assert_eq!(
        render(&server.iter().collect::<Vec<_>>()),
        render(&reference.iter().collect::<Vec<_>>()),
        "iter diverged"
    );
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
        ops in proptest::collection::vec(arb_op(URIS), 1..40)
    ) {
        // A snapshot taken after a mutation burst answers the read API
        // exactly like the live server it was taken from.
        let mut server = MetadataServer::new(10);
        for op in &ops {
            let publish = record_to_publish(op, |target| record_of(&server, target));
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
                record_of(&snap, &target).map(|m| m.uri().clone()),
                record_of(&server, &target).map(|m| m.uri().clone())
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

/// A: `uri(0)`, "evening news" by FOX, expiring after a day.
fn record_a() -> Metadata {
    build_meta(0, "evening news".to_owned(), 1)
}

/// B: any URI other than A's, with no name token in common and no TTL.
/// Published after A expired, it takes the slot A freed.
fn record_b() -> Metadata {
    Metadata::builder("comedy show", "FOX", uri(1)).build()
}

#[test]
fn a_record_published_into_an_expired_records_slot_leaves_no_ghost() {
    let mut server = MetadataServer::new(10);
    server.publish(record_a(), Popularity::MAX);
    assert_eq!(server.expire(at(24)), 1);
    server.publish(record_b(), Popularity::new(0.5));

    // A's tokens find nothing — not A, and not B through A's postings.
    for text in ["evening", "news", "evening news", "fox evening"] {
        let hits = server.search(&Query::new(text).unwrap(), 10);
        assert!(hits.is_empty(), "`{text}` found {:?}", render(&hits));
    }
    // The publisher token both carried now lists B alone.
    let fox = server.search(&Query::new("fox").unwrap(), 10);
    assert_eq!(fox.len(), 1);
    assert_eq!(fox[0].uri(), record_b().uri());
    assert!(record_of(&server, &uri(0)).is_none());
    assert_eq!(server.popularity_of(&uri(0)), Popularity::MIN);
    assert_eq!(server.len(), 1);
    assert_eq!(server.most_popular(5, at(48)).len(), 1);
}

#[test]
fn a_snapshot_from_before_the_expiry_still_answers_the_old_record() {
    let mut server = MetadataServer::new(10);
    server.publish(record_a(), Popularity::MAX);
    let before = server.snapshot();
    assert_eq!(server.expire(at(24)), 1);
    server.publish(record_b(), Popularity::new(0.5));

    // The frozen halves agree with each other: A's postings still lead
    // to A's record, though the live slab's slot now holds B.
    for text in ["evening", "fox", "evening news"] {
        let hits = before.search(&Query::new(text).unwrap(), 10);
        assert_eq!(hits.len(), 1, "`{text}`");
        assert_eq!(hits[0].uri(), &uri(0));
        assert_eq!(hits[0].name(), "evening news");
    }
    assert!(before.search(&Query::new("comedy").unwrap(), 10).is_empty());
    assert_eq!(record_of(&before, &uri(0)).unwrap().name(), "evening news");
    assert_eq!(before.popularity_of(&uri(0)), Popularity::MAX);
    assert!(record_of(&before, record_b().uri()).is_none());
    assert_eq!(before.len(), 1);
}

/// Publish order reaches no answer. Two servers given the same records in
/// different orders — republishes that change tokens, an expiry, and new
/// URIs taking the freed slots between — hold their records in different
/// slots, so the hash order of every posting set differs. Only the rank order's URI tie-break keeps their answers equal,
/// and popularities come from three values here, so ties are everywhere.
#[test]
fn answers_do_not_depend_on_publish_order() {
    const RECORDS: usize = 64;
    let record = |i: usize, generation: usize| {
        let name = format!(
            "{} {}",
            TOKENS[(i + generation) % 10],
            TOKENS[(i / 10 + 3 * generation) % 10]
        );
        let mut builder = Metadata::builder(name, "FOX", uri(i));
        if i.is_multiple_of(4) {
            builder = builder.ttl(SimDuration::from_days(1));
        }
        (builder.build(), Popularity::new([0.1, 0.5, 0.9][i % 3]))
    };
    let build = |order: &[usize]| {
        let mut server = MetadataServer::new(10);
        for &i in order {
            let (meta, p) = record(i, 0);
            server.publish(meta, p);
        }
        for &i in order.iter().filter(|&&i| i % 3 == 1) {
            let (meta, p) = record(i, 1);
            server.publish(meta, p);
        }
        assert_eq!(server.expire(at(36)), RECORDS / 4);
        // Expired URIs published again, each beside a URI never seen: both
        // take freed slots, in the order `order` gives them.
        for &i in order.iter().filter(|&&i| i.is_multiple_of(8)) {
            for late in [i, RECORDS + i / 8] {
                let (meta, p) = record(late, 2);
                server.publish(meta, p);
            }
        }
        server
    };
    let forward: Vec<usize> = (0..RECORDS).collect();
    let scrambled: Vec<usize> = (0..RECORDS).map(|i| i * 23 % RECORDS).collect();

    let mut queries: Vec<String> = TOKENS.iter().map(|t| t.to_string()).collect();
    for (a, first) in TOKENS.iter().enumerate() {
        for second in TOKENS.iter().skip(a + 1).step_by(2) {
            queries.push(format!("{first} {second}"));
        }
    }
    let answers = |server: &MetadataServer| {
        let mut out: Vec<Vec<String>> = Vec::new();
        for text in &queries {
            let q = Query::new(text.as_str()).unwrap();
            out.extend([1, 10].map(|limit| render(&server.search(&q, limit))));
        }
        out.push(render(&server.most_popular(10, at(48))));
        out.push(render(&server.most_popular(usize::MAX, at(48))));
        out.push(render(&server.iter().collect::<Vec<_>>()));
        out
    };

    let expected = answers(&build(&forward));
    // The pin is only as strong as its ties: the publisher's token is on
    // every record, so its top ten cut through one popularity tier.
    assert_eq!(
        expected[2 * queries.iter().position(|q| q == "fox").unwrap() + 1].len(),
        10
    );
    assert_eq!(
        answers(&build(&scrambled)),
        expected,
        "scrambled publish order"
    );
}
