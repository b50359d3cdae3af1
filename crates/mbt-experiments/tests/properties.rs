//! Property-based tests on the full simulation pipeline: conservation laws
//! and monotonicity that must hold for any seed.

use proptest::prelude::*;

use dtn_trace::generators::NusConfig;
use mbt_core::ProtocolSpec;
use mbt_experiments::runner::{run_simulation, SimParams};
use mbt_experiments::workload::{draw_queries, generate_batch, WorkloadConfig};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn deliveries_never_exceed_queries_or_go_negative(seed in 0u64..1_000) {
        let trace = NusConfig::new(20, 4).seed(seed).generate();
        for protocol in ProtocolSpec::builtin() {
            let r = run_simulation(&trace, &SimParams::builder()
                .protocol(protocol)
                .days(4)
                .files_per_day(8)
                .seed(seed)
                .build(), None);
            // Each (node, uri) query is counted delivered at most once.
            prop_assert!(r.metadata_delivered <= r.queries);
            prop_assert!(r.files_delivered <= r.queries);
            prop_assert!(r.metadata_ratio <= 1.0 + 1e-9);
            prop_assert!(r.file_ratio <= 1.0 + 1e-9);
            // A delivered file implies its metadata was deliverable too.
            prop_assert!(r.files_delivered <= r.metadata_delivered,
                "{protocol}: files {} > metadata {}", r.files_delivered, r.metadata_delivered);
        }
    }

    #[test]
    fn mbtqm_never_broadcasts_standalone_metadata(seed in 0u64..1_000) {
        let trace = NusConfig::new(16, 3).seed(seed).generate();
        let r = run_simulation(&trace, &SimParams::builder()
            .protocol(ProtocolSpec::MBT_QM)
            .days(3)
            .files_per_day(6)
            .seed(seed)
            .build(), None);
        prop_assert_eq!(r.metadata_broadcasts, 0);
        prop_assert_eq!(r.queries_distributed, 0);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn workload_batches_have_unique_uris_across_days(
        files in 1u32..30, ttl in 1u64..5, days in 1u64..6, seed in any::<u64>()
    ) {
        let cfg = WorkloadConfig::new(files, ttl);
        let mut rng = dtn_sim::rng::stream(seed, "workload");
        let mut seen = std::collections::BTreeSet::new();
        for day in 0..days {
            let batch = generate_batch(&cfg, day, &mut rng);
            prop_assert_eq!(batch.files.len() as u32, files);
            for f in &batch.files {
                prop_assert!(seen.insert(f.uri.clone()), "duplicate uri {}", f.uri);
                // TTL applied from the publish instant.
                prop_assert_eq!(
                    f.metadata.expires().unwrap(),
                    batch.at + dtn_trace::SimDuration::from_days(ttl)
                );
                prop_assert!((0.0..=1.0).contains(&f.popularity.value()));
            }
        }
    }

    #[test]
    fn drawn_queries_reference_real_files(files in 1u32..30, seed in any::<u64>()) {
        let cfg = WorkloadConfig::new(files, 3);
        let mut rng = dtn_sim::rng::stream(seed, "workload");
        let batch = generate_batch(&cfg, 0, &mut rng);
        let picks = draw_queries(&batch, dtn_trace::NodeId::new(0), &mut rng);
        for (idx, query) in picks {
            prop_assert!(idx < batch.files.len());
            prop_assert!(batch.files[idx].metadata.matches_query(&query));
        }
    }
}

/// What a signature false positive costs is the string probe every test paid
/// before; how often one happens depends on the workload's words. This is
/// `campus_sweep`'s: 15 days of 40 files, TTL 3 days, each query its file's
/// own token. A node's standing queries meet the records live beside them,
/// so the population is every (query, other file's record) pair at most a
/// TTL apart — and none of them matches.
#[test]
fn the_campus_workload_signature_false_positive_rate() {
    use dtn_sim::rng::stream;
    let (days, ttl_days) = (15u64, 3u64);
    let config = WorkloadConfig::new(40, ttl_days);
    let rng = &mut stream(42, "workload");
    let files: Vec<_> = (0..days)
        .flat_map(|day| {
            generate_batch(&config, day, rng)
                .files
                .into_iter()
                .map(move |f| (day, f))
        })
        .collect();
    let (mut pairs, mut passes) = (0u64, 0u64);
    for (query_day, asked) in &files {
        for (record_day, other) in &files {
            if asked.uri == other.uri || query_day.abs_diff(*record_day) >= ttl_days {
                continue;
            }
            let set = other.metadata.token_set();
            assert!(!asked.query.matches_token_set(set));
            pairs += 1;
            passes += u64::from(asked.query.signature() & !set.signature() == 0);
        }
    }
    // Nine tokens a record, eight of them shared with every other record of
    // its day — about an eighth of the 64 bits: 12.8 % of the tests that
    // must say no go on to the strings, 87.2 % end at the AND. The hash is
    // platform-independent, so the count is exact.
    assert_eq!((pairs, passes), (109_800, 14_069));
}
