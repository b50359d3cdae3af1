//! Property-based tests on the full simulation pipeline: conservation laws
//! and monotonicity that must hold for any seed, and the laws of the merge
//! that pools replicate results.

use proptest::collection::vec;
use proptest::prelude::*;

use dtn_trace::generators::NusConfig;
use mbt_core::ProtocolSpec;
use mbt_experiments::runner::{run_simulation, SimParams, SimResult};
use mbt_experiments::workload::{draw_queries, generate_batch, WorkloadConfig};
use mbt_experiments::RatioSummary;

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
        let picks = draw_queries(&batch, &mut rng);
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

/// Delivered ÷ queries, 0 without queries: how the runner and the merge both
/// derive a ratio from counts.
fn pooled(delivered: u64, queries: u64) -> f64 {
    if queries == 0 {
        0.0
    } else {
        delivered as f64 / queries as f64
    }
}

/// A result as a run reports one: its ratios are its own counts pooled, and
/// a delay mean exists exactly when something was delivered.
fn arb_result() -> impl Strategy<Value = SimResult> {
    (
        (0u64..400, 0u64..400, 0u64..400),
        (0u64..5_000, 0u64..5_000, 0u64..5_000),
        (0u64..500, 0u64..200, 0u64..50),
        (0.0f64..200.0, 0.0f64..200.0),
        (vec(0u64..40, 0..6), vec(0u64..40, 0..6)),
    )
        .prop_map(
            |(
                (queries, metadata_delivered, files_delivered),
                (contacts, metadata_broadcasts, file_broadcasts),
                (queries_distributed, frames_lost, corrupt_receptions),
                (metadata_delay, file_delay),
                (daily_metadata_delivered, daily_files_delivered),
            )| SimResult {
                queries,
                metadata_delivered,
                files_delivered,
                metadata_ratio: pooled(metadata_delivered, queries),
                file_ratio: pooled(files_delivered, queries),
                contacts,
                metadata_broadcasts,
                file_broadcasts,
                queries_distributed,
                frames_lost,
                corrupt_receptions,
                mean_metadata_delay_hours: (metadata_delivered > 0).then_some(metadata_delay),
                mean_file_delay_hours: (files_delivered > 0).then_some(file_delay),
                daily_metadata_delivered,
                daily_files_delivered,
            },
        )
}

fn merged(a: &SimResult, b: &SimResult) -> SimResult {
    let mut out = a.clone();
    out.merge(b);
    out
}

/// True if two delay means agree to 1e-12 relative (or are both absent).
fn close(a: Option<f64>, b: Option<f64>) -> bool {
    match (a, b) {
        (Some(x), Some(y)) => (x - y).abs() <= 1e-12 * x.abs().max(y.abs()),
        (x, y) => x == y,
    }
}

/// Regression: cells with zero attempted transfers — possible under heavy
/// churn, where nodes are down for whole contact windows — pool to ratio 0,
/// never NaN, at every layer of the reduction.
#[test]
fn zero_attempted_transfer_cells_pool_without_nan() {
    // Deliveries but no queries: the denominator is zero.
    let cell = SimResult {
        metadata_delivered: 3,
        files_delivered: 1,
        mean_metadata_delay_hours: Some(2.0),
        mean_file_delay_hours: Some(5.0),
        ..SimResult::default()
    };
    let mut pooled = SimResult::default();
    pooled.merge(&cell);
    pooled.merge(&cell);
    pooled.merge(&SimResult::default());
    assert_eq!((pooled.metadata_ratio, pooled.file_ratio), (0.0, 0.0));
    assert_eq!(pooled.mean_metadata_delay_hours, Some(2.0));
    // Summarising an empty replicate set stays finite too.
    let summary = RatioSummary::from_samples(&[]);
    assert!(summary.mean.is_finite() && summary.stddev.is_finite());
    assert_eq!(summary, RatioSummary::default());
}

proptest! {
    #[test]
    fn merge_is_commutative_on_observables(a in arb_result(), b in arb_result()) {
        prop_assert_eq!(merged(&a, &b), merged(&b, &a));
    }

    /// Counts, ratios and daily series are integers or functions of them, so
    /// they associate exactly; a delay mean is a weighted mean of f64s and
    /// associates to rounding.
    #[test]
    fn merge_is_associative_on_observables(
        a in arb_result(),
        b in arb_result(),
        c in arb_result(),
    ) {
        let left = merged(&merged(&a, &b), &c);
        let right = merged(&a, &merged(&b, &c));
        prop_assert!(close(left.mean_metadata_delay_hours, right.mean_metadata_delay_hours));
        prop_assert!(close(left.mean_file_delay_hours, right.mean_file_delay_hours));
        let without_means = |r: SimResult| SimResult {
            mean_metadata_delay_hours: None,
            mean_file_delay_hours: None,
            ..r
        };
        prop_assert_eq!(without_means(left), without_means(right));
    }

    #[test]
    fn merging_empty_is_identity(a in arb_result()) {
        prop_assert_eq!(&merged(&a, &SimResult::default()), &a);
        prop_assert_eq!(&merged(&SimResult::default(), &a), &a);
    }

    #[test]
    fn merged_ratios_equal_pooled_count_ratios(a in arb_result(), b in arb_result()) {
        let m = merged(&a, &b);
        let queries = a.queries + b.queries;
        prop_assert_eq!(m.queries, queries);
        prop_assert_eq!(m.metadata_delivered, a.metadata_delivered + b.metadata_delivered);
        prop_assert_eq!(m.files_delivered, a.files_delivered + b.files_delivered);
        prop_assert_eq!(m.metadata_ratio, pooled(m.metadata_delivered, queries));
        prop_assert_eq!(m.file_ratio, pooled(m.files_delivered, queries));
    }

    /// Ratios are total functions: finite and non-negative for every pair of
    /// results, including results with no queries at all.
    #[test]
    fn merged_ratios_are_always_finite(a in arb_result(), b in arb_result()) {
        let m = merged(&a, &b);
        for ratio in [m.metadata_ratio, m.file_ratio] {
            prop_assert!(ratio.is_finite() && ratio >= 0.0, "ratio {}", ratio);
        }
    }
}
