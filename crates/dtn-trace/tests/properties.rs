//! Property-based tests for the contact-trace substrate.

use std::collections::{BTreeMap, BTreeSet};

use proptest::prelude::*;

use dtn_trace::{
    read_trace, write_trace, Contact, ContactReader, ContactTrace, NodeId, ParseTraceError,
    SimDuration, SimTime,
};

/// Strategy: a valid contact with 2..=6 distinct participants.
fn arb_contact() -> impl Strategy<Value = Contact> {
    (
        proptest::collection::btree_set(0u32..50, 2..6),
        0u64..1_000_000,
        1u64..10_000,
    )
        .prop_map(|(ids, start, len)| {
            let nodes: Vec<NodeId> = ids.into_iter().map(NodeId::new).collect();
            Contact::clique(
                nodes,
                SimTime::from_secs(start),
                SimTime::from_secs(start + len),
            )
            .expect("constructed contacts are valid")
        })
}

fn arb_trace() -> impl Strategy<Value = ContactTrace> {
    proptest::collection::vec(arb_contact(), 0..40).prop_map(|v| v.into_iter().collect())
}

proptest! {
    #[test]
    fn traces_are_sorted_by_start(trace in arb_trace()) {
        let starts: Vec<u64> = trace.iter().map(|c| c.start().as_secs()).collect();
        let mut sorted = starts.clone();
        sorted.sort_unstable();
        prop_assert_eq!(starts, sorted);
    }

    #[test]
    fn collect_is_order_insensitive(mut contacts in proptest::collection::vec(arb_contact(), 0..20)) {
        let a: ContactTrace = contacts.clone().into_iter().collect();
        contacts.reverse();
        let b: ContactTrace = contacts.into_iter().collect();
        prop_assert_eq!(a, b);
    }

    #[test]
    fn parser_round_trips(trace in arb_trace()) {
        let mut buf = Vec::new();
        write_trace(&mut buf, &trace).unwrap();
        let parsed = read_trace(buf.as_slice()).unwrap();
        prop_assert_eq!(parsed, trace);
    }

    #[test]
    fn window_is_subset_and_sorted(trace in arb_trace(), from in 0u64..500_000, len in 0u64..500_000) {
        let w = trace.window(SimTime::from_secs(from), SimTime::from_secs(from + len));
        prop_assert!(w.len() <= trace.len());
        for c in w.iter() {
            prop_assert!(c.start().as_secs() >= from);
            prop_assert!(c.start().as_secs() < from + len);
            prop_assert!(trace.contacts().contains(c));
        }
    }

    #[test]
    fn involving_only_contains_node(trace in arb_trace(), id in 0u32..50) {
        let node = NodeId::new(id);
        let sub = trace.involving(node);
        for c in sub.iter() {
            prop_assert!(c.involves(node));
        }
        // Complement check: contacts not in `sub` don't involve the node.
        let sub_count = trace.iter().filter(|c| c.involves(node)).count();
        prop_assert_eq!(sub.len(), sub_count);
    }

    #[test]
    fn merge_preserves_total_count(a in arb_trace(), b in arb_trace()) {
        let merged = a.merge(&b);
        prop_assert_eq!(merged.len(), a.len() + b.len());
    }

    #[test]
    fn contact_pairs_count_is_choose_two(contact in arb_contact()) {
        let n = contact.size();
        prop_assert_eq!(contact.pairs().count(), n * (n - 1) / 2);
        // Every pair is ordered and involves real participants.
        for (x, y) in contact.pairs() {
            prop_assert!(x < y);
            prop_assert!(contact.involves(x));
            prop_assert!(contact.involves(y));
        }
    }

    #[test]
    fn peers_of_partition(contact in arb_contact()) {
        for &p in contact.participants() {
            let peers = contact.peers_of(p);
            prop_assert_eq!(peers.len(), contact.size() - 1);
            prop_assert!(!peers.contains(&p));
        }
    }

    #[test]
    fn span_bounds_every_contact(trace in arb_trace()) {
        if let (Some(start), Some(end)) = (trace.start_time(), trace.end_time()) {
            for c in trace.iter() {
                prop_assert!(c.start() >= start);
                prop_assert!(c.end() <= end);
            }
            prop_assert_eq!(end.duration_since(start), trace.span());
        } else {
            prop_assert!(trace.is_empty());
        }
    }

    #[test]
    fn time_arithmetic_round_trips(base in 0u64..1_000_000_000, delta in 0u64..1_000_000) {
        let t = SimTime::from_secs(base);
        let d = SimDuration::from_secs(delta);
        prop_assert_eq!((t + d) - d, t);
        prop_assert_eq!((t + d).duration_since(t), d);
        prop_assert_eq!(t.saturating_sub(d).saturating_add(d).as_secs().max(base), (t.saturating_sub(d) + d).as_secs().max(base));
    }

    #[test]
    fn day_and_second_of_day_consistent(secs in 0u64..10_000_000_000) {
        let t = SimTime::from_secs(secs);
        prop_assert_eq!(t.day() * dtn_trace::SECONDS_PER_DAY + t.second_of_day(), secs);
        prop_assert!(t.second_of_day() < dtn_trace::SECONDS_PER_DAY);
    }
}

proptest! {
    #[test]
    fn aggregate_graph_consistent_with_stats(trace in arb_trace()) {
        use dtn_trace::AggregateGraph;
        let graph = AggregateGraph::from_trace(&trace);
        // Meetings and peers counted here, one participant pair at a time.
        let mut meetings: BTreeMap<(NodeId, NodeId), u64> = BTreeMap::new();
        let mut peers: BTreeMap<NodeId, BTreeSet<NodeId>> = BTreeMap::new();
        for contact in trace.iter() {
            let ids = contact.participants();
            for (i, &a) in ids.iter().enumerate() {
                peers.entry(a).or_default();
                for &b in &ids[i + 1..] {
                    *meetings.entry((a.min(b), a.max(b))).or_default() += 1;
                    peers.entry(a).or_default().insert(b);
                    peers.entry(b).or_default().insert(a);
                }
            }
        }
        prop_assert_eq!(graph.nodes(), peers.keys().copied().collect::<Vec<_>>());
        for &a in &graph.nodes() {
            for &b in &graph.nodes() {
                if a < b {
                    let counted = meetings.get(&(a, b)).copied().unwrap_or(0);
                    prop_assert_eq!(graph.meeting_count(a, b), counted);
                }
            }
        }
        let degrees: BTreeMap<NodeId, usize> =
            peers.iter().map(|(&n, set)| (n, set.len())).collect();
        prop_assert_eq!(graph.degrees(), degrees);
    }

    #[test]
    fn aggregate_components_partition_nodes(trace in arb_trace()) {
        use dtn_trace::AggregateGraph;
        let graph = AggregateGraph::from_trace(&trace);
        let comps = graph.components();
        let mut all: Vec<NodeId> = comps.iter().flatten().copied().collect();
        all.sort_unstable();
        prop_assert_eq!(all, trace.nodes(), "components must partition the nodes");
        // Density in [0, 1].
        prop_assert!((0.0..=1.0).contains(&graph.density()));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn community_generator_invariants(
        nodes in 4u32..40, days in 1u64..6, seed in 0u64..1_000
    ) {
        use dtn_trace::generators::CommunityConfig;
        let cfg = CommunityConfig::new(nodes, days).seed(seed);
        let t = cfg.generate();
        for c in t.iter() {
            prop_assert!(c.size() >= 2);
            prop_assert!(c.start().day() < days);
            for p in c.participants() {
                prop_assert!(p.raw() < nodes);
            }
        }
        // Determinism.
        prop_assert_eq!(t, cfg.generate());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn space_time_delivery_times_are_causal(trace in arb_trace(), src in 0u32..50, created in 0u64..1_000_000) {
        let graph = dtn_trace::SpaceTimeGraph::new(&trace);
        let source = NodeId::new(src);
        let created = SimTime::from_secs(created);
        let arrivals = graph.earliest_delivery(source, created);
        // The source is present at its creation time; nothing arrives before.
        prop_assert_eq!(arrivals.get(&source), Some(&created));
        for (&node, &at) in &arrivals {
            prop_assert!(at >= created, "node {node} got the message before creation");
        }
    }

    #[test]
    fn space_time_monotone_in_creation_time(trace in arb_trace(), src in 0u32..50) {
        // Creating the message later can only shrink the reachable set.
        let graph = dtn_trace::SpaceTimeGraph::new(&trace);
        let source = NodeId::new(src);
        let early = graph.reachable(source, SimTime::ZERO, None);
        let late = graph.reachable(source, SimTime::from_secs(500_000), None);
        for n in &late {
            prop_assert!(early.contains(n), "late-reachable {n} not early-reachable");
        }
    }

    #[test]
    fn frequent_scan_equals_trace_stats_map(trace in arb_trace(), every_secs in 1u64..400_000) {
        // The streaming scan must reproduce the rule evaluated on the whole
        // retained trace, window by window.
        prop_assert_eq!(scan(&trace, every_secs), frequent_by_brute_force(&trace, every_secs));
    }

    #[test]
    fn frequent_contacts_are_symmetric(trace in arb_trace()) {
        // Pair regularity is a property of the pair: u frequent-with v ⇔ v
        // frequent-with u.
        let map = scan(&trace, dtn_trace::SECONDS_PER_DAY);
        for (u, peers) in &map {
            for v in peers {
                prop_assert!(map[v].contains(u), "{} frequent with {} but not vice versa", u, v);
            }
        }
    }

    #[test]
    fn whole_window_time_shifts_leave_the_frequent_map_unchanged(
        trace in arb_trace(),
        every_secs in 1u64..400_000,
        windows in 1u64..50,
    ) {
        let shifted = shift(&trace, windows * every_secs);
        prop_assert_eq!(scan(&shifted, every_secs), scan(&trace, every_secs));
    }
}

/// `FrequentScan`'s map of `trace` under the rule window `every_secs`.
fn scan(trace: &ContactTrace, every_secs: u64) -> BTreeMap<NodeId, Vec<NodeId>> {
    let mut scan = dtn_trace::FrequentScan::new(SimDuration::from_secs(every_secs));
    for contact in trace.iter() {
        scan.observe(contact);
    }
    scan.finish()
}

/// The §VI-A rule by brute force: `u` and `v` are frequent contacts when
/// every window of `every_secs` (window `start / every_secs`) in which any
/// contact starts holds a contact of both.
fn frequent_by_brute_force(trace: &ContactTrace, every_secs: u64) -> BTreeMap<NodeId, Vec<NodeId>> {
    let windows: BTreeSet<u64> = trace
        .iter()
        .map(|c| c.start().as_secs() / every_secs)
        .collect();
    let nodes = trace.nodes();
    let mut map = BTreeMap::new();
    for &u in &nodes {
        let peers = nodes.iter().copied().filter(|&v| {
            v != u
                && windows.iter().all(|&window| {
                    trace.iter().any(|c| {
                        c.start().as_secs() / every_secs == window && c.involves(u) && c.involves(v)
                    })
                })
        });
        map.insert(u, peers.collect());
    }
    map
}

/// `trace` with every contact `secs` later.
fn shift(trace: &ContactTrace, secs: u64) -> ContactTrace {
    let by = SimDuration::from_secs(secs);
    trace
        .iter()
        .map(|c| Contact::clique(c.participants().to_vec(), c.start() + by, c.end() + by).unwrap())
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The sidecar derivation obeys the same shift invariance: a shift by
    /// whole rule windows, each a whole number of shard windows, moves
    /// every shard and no pair between rule windows.
    #[test]
    fn whole_window_time_shifts_leave_the_sharded_frequent_map_unchanged(
        trace in arb_trace(),
        width in 0usize..3,
        ratio in 1u64..5,
        windows in 1u64..20,
    ) {
        use dtn_trace::{ContactSink as _, ShardWriter, TraceSource as _};
        static CASE: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(0);
        let shard_secs = [600u64, 3_600, 86_400][width];
        let every = SimDuration::from_secs(ratio * shard_secs);
        let mut maps = Vec::new();
        for t in [trace.clone(), shift(&trace, windows * every.as_secs())] {
            let case = CASE.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            let dir = std::env::temp_dir()
                .join(format!("dtn-trace-shift-{}-{case}", std::process::id()));
            let _ = std::fs::remove_dir_all(&dir);
            let mut writer = ShardWriter::create(&dir, SimDuration::from_secs(shard_secs)).unwrap();
            for contact in t.iter() {
                writer.push_contact(contact.clone());
            }
            let sharded = writer.finish().unwrap();
            maps.push(sharded.frequent_map(every));
            std::fs::remove_dir_all(&dir).ok();
        }
        prop_assert!(maps[0].is_some());
        prop_assert_eq!(&maps[1], &maps[0]);
    }
}

/// Strategy: a pair or clique contact starting within 20 000 s whose ids
/// reach `u32::MAX` (half of them a uniform `u32` shifted right by 0–31
/// bits) and often repeat a pair (the other half drawn from six).
fn arb_wide_contact() -> impl Strategy<Value = Contact> {
    let id =
        (any::<u32>(), 0u32..64).prop_map(|(n, shift)| if shift < 32 { n >> shift } else { n % 6 });
    (
        proptest::collection::btree_set(id, 2..6),
        0u64..20_000,
        1u64..5_000,
    )
        .prop_map(|(ids, start, len)| {
            let mut ids: Vec<NodeId> = ids.into_iter().map(NodeId::new).collect();
            if ids.len() < 2 {
                ids = vec![NodeId::new(0), NodeId::new(u32::MAX)];
            }
            Contact::clique(
                ids,
                SimTime::from_secs(start),
                SimTime::from_secs(start + len),
            )
            .expect("constructed contacts are valid")
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The shard writer against what the test computes on its own: each
    /// shard is `write_trace` of its window's contacts, each sidecar lists
    /// the window's pairs, the manifest lists every participant, and no
    /// spill outlives `finish` — whatever the arrival order, window width
    /// or job count.
    #[test]
    fn the_shard_writer_agrees_with_an_independent_oracle(
        contacts in proptest::collection::vec(arb_wide_contact(), 0..40),
        widths in proptest::collection::vec(1u64..8_000, 1..4),
        jobs in 1usize..3,
    ) {
        use dtn_trace::{ContactSink as _, ShardWriter, TraceSource as _};
        static CASE: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(0);
        for width in widths {
            let case = CASE.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            let dir = std::env::temp_dir()
                .join(format!("dtn-trace-writer-oracle-{}-{case}", std::process::id()));
            let _ = std::fs::remove_dir_all(&dir);
            let mut writer = ShardWriter::create(&dir, SimDuration::from_secs(width))
                .unwrap()
                .jobs(jobs);
            for contact in &contacts {
                writer.push_contact(contact.clone());
            }
            let sharded = writer.finish().unwrap();

            let mut windows: BTreeMap<u64, Vec<Contact>> = BTreeMap::new();
            for contact in &contacts {
                windows.entry(contact.start().as_secs() / width).or_default().push(contact.clone());
            }
            let listed: Vec<u64> = sharded.shards().iter().map(|s| s.window_index).collect();
            prop_assert_eq!(listed, windows.keys().copied().collect::<Vec<_>>());
            for (window, members) in &windows {
                let trace: ContactTrace = members.iter().cloned().collect();
                let mut shard = Vec::new();
                write_trace(&mut shard, &trace).unwrap();
                let written = std::fs::read(dir.join(format!("shard-{window:05}.txt"))).unwrap();
                prop_assert_eq!(written, shard);
                let mut pairs = BTreeSet::new();
                for contact in members {
                    let ids = contact.participants();
                    for (i, a) in ids.iter().enumerate() {
                        for b in &ids[i + 1..] {
                            pairs.insert((a.raw().min(b.raw()), a.raw().max(b.raw())));
                        }
                    }
                }
                let sidecar: String = std::iter::once("# dtn-pairs v1\n".to_string())
                    .chain(pairs.iter().map(|(a, b)| format!("{a} {b}\n")))
                    .collect();
                let written = std::fs::read_to_string(dir.join(format!("pairs-{window:05}.txt")));
                prop_assert_eq!(written.unwrap(), sidecar);
            }
            let nodes: BTreeSet<NodeId> = contacts
                .iter()
                .flat_map(|c| c.participants().iter().copied())
                .collect();
            prop_assert_eq!(sharded.id_space(), nodes.last().map_or(0, |n| n.raw() as usize + 1));
            prop_assert_eq!(sharded.nodes(), nodes.into_iter().collect::<Vec<_>>());
            for entry in std::fs::read_dir(&dir).unwrap() {
                let name = entry.unwrap().file_name().into_string().unwrap();
                prop_assert!(
                    name == "manifest.txt" || name.starts_with("shard-") || name.starts_with("pairs-"),
                    "`{}` left in the directory", name
                );
            }
            std::fs::remove_dir_all(&dir).ok();
        }
    }
}

/// Drains a reader over `bytes`: it must end within one item a line, every
/// contact must hold the type's invariants, and nothing follows an error.
fn drain_reader(bytes: &[u8]) -> Vec<Result<Contact, ParseTraceError>> {
    let lines = bytes.split(|&b| b == b'\n').count();
    let items: Vec<_> = ContactReader::new(bytes).take(lines + 1).collect();
    assert!(items.len() <= lines, "more items than lines");
    for (i, item) in items.iter().enumerate() {
        match item {
            Ok(contact) => {
                let members = contact.participants();
                assert!(members.len() >= 2 && members.windows(2).all(|w| w[0] < w[1]));
                assert!(contact.start() < contact.end());
            }
            Err(_) => assert_eq!(i + 1, items.len(), "the reader went on after an error"),
        }
    }
    items
}

/// What a line's fields may be: numbers at and beyond the `u32`/`u64`
/// limits, signs, repeats, the keyword itself, a comment mark, non-ASCII
/// space, nothing.
const TOKENS: [&str; 16] = [
    "0",
    "3",
    "5",
    "7",
    "9",
    "4294967295",
    "4294967296",
    "18446744073709551615",
    "18446744073709551616",
    "-1",
    "+5",
    "1e3",
    "x",
    "contact",
    "#",
    "\u{a0}",
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The parser boundary: whatever the bytes — most are not UTF-8 — the
    /// reader yields contacts or one error, never a panic or a hang.
    #[test]
    fn the_reader_survives_arbitrary_bytes(
        raw in proptest::collection::vec(any::<u8>(), 0..120),
        shaped in proptest::collection::vec(0usize..24, 0..120),
    ) {
        drain_reader(&raw);
        // The same over the format's own alphabet, where lines get further.
        let alphabet = b"contact 0123456789 \n\t\r#";
        let shaped: Vec<u8> = shaped.iter().map(|&i| alphabet[i % alphabet.len()]).collect();
        drain_reader(&shaped);
    }

    /// Any fields after a valid `contact` keyword: the line is a syntax
    /// error, or — the two-node fast path included — exactly what
    /// `Contact::clique` makes of its numbers.
    #[test]
    fn the_reader_survives_token_soup(
        fields in proptest::collection::vec(0usize..TOKENS.len(), 0..7),
        tabs in proptest::bool::ANY,
    ) {
        let fields: Vec<&str> = fields.iter().map(|&i| TOKENS[i]).collect();
        let line = format!("contact {}\n", fields.join(if tabs { "\t" } else { "  " }));
        let items = drain_reader(line.as_bytes());
        let numbers = |tokens: &[&str]| -> Option<(u64, u64, Vec<NodeId>)> {
            // Trailing non-ASCII space is trimmed with the line; elsewhere
            // it is a field like any other.
            let kept = tokens.iter().rposition(|tok| *tok != "\u{a0}").map_or(0, |at| at + 1);
            let mut tokens = tokens[..kept].iter();
            let start = tokens.next()?.parse().ok()?;
            let end = tokens.next()?.parse().ok()?;
            let nodes = tokens.map(|tok| tok.parse().ok().map(NodeId::new)).collect::<Option<_>>()?;
            Some((start, end, nodes))
        };
        prop_assert_eq!(items.len(), 1);
        match (&items[0], numbers(&fields)) {
            (Err(ParseTraceError::Syntax { line: 1, .. }), None) => {}
            (got, Some((start, end, nodes))) => {
                let expected = Contact::clique(nodes, SimTime::from_secs(start), SimTime::from_secs(end));
                match (got, expected) {
                    (Ok(got), Ok(expected)) => prop_assert_eq!(got, &expected),
                    (Err(ParseTraceError::InvalidContact { line: 1, source }), Err(expected)) => {
                        prop_assert_eq!(source, &expected)
                    }
                    (got, expected) => panic!("{line:?}: read {got:?}, expected {expected:?}"),
                }
            }
            (got, None) => panic!("{line:?}: read {got:?}, expected a syntax error"),
        }
    }
}
