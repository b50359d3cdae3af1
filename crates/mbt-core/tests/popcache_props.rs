//! Property-based tests for the popularity-ranked bounded file cache
//! (PopCache): across arbitrary store sequences a file being downloaded —
//! one matching an own query — is never evicted, and across arbitrary
//! contact sequences occupancy never exceeds the configured bound.

use proptest::prelude::*;

use dtn_trace::{NodeId, SimDuration, SimTime};
use mbt_core::node::run_contact;
use mbt_core::{CachePolicy, MbtConfig, MbtNode, Metadata, Popularity, ProtocolSpec, Query, Uri};

fn popcache(capacity: u32) -> ProtocolSpec {
    ProtocolSpec::MBT.with_cache("PopCache", CachePolicy::PopularityRanked { capacity })
}

fn uri(i: usize, wanted: bool) -> Uri {
    let kind = if wanted { "wanted" } else { "filler" };
    Uri::new(format!("mbt://fox/{kind}-{i}")).unwrap()
}

fn meta(i: usize, wanted: bool) -> Metadata {
    let kind = if wanted { "wanted" } else { "filler" };
    Metadata::builder(format!("{kind} clip {i}"), "FOX", uri(i, wanted)).build()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// A held file matching an own query (i.e. one the user is downloading)
    /// survives any sequence of admissions, however popular the newcomers.
    #[test]
    fn wanted_files_are_never_evicted(
        capacity in 1u32..6,
        // Each op stores file `i` (wanted when the flag is set) with the
        // given popularity percentage.
        ops in prop::collection::vec((0usize..12, any::<bool>(), 0u8..=100), 1..40),
    ) {
        let mut node = MbtNode::new(NodeId::new(0), popcache(capacity), MbtConfig::new());
        node.add_query(Query::new("wanted").unwrap(), None);
        let mut admitted_wanted = std::collections::BTreeSet::new();
        for &(i, wanted, pop) in &ops {
            node.seed_content(
                meta(i, wanted),
                Popularity::new(f64::from(pop) / 100.0),
                false,
            );
            if node.try_store_file(uri(i, wanted), None) && wanted {
                admitted_wanted.insert(i);
            }
            // Every wanted file admitted so far must still be here: only
            // filler files are eviction candidates.
            for &j in &admitted_wanted {
                prop_assert!(
                    node.has_file(&uri(j, true)),
                    "wanted file {j} was evicted"
                );
            }
            prop_assert!(node.files().len() <= capacity as usize);
        }
    }

    /// Direct check of the admission invariant: once a wanted file is in,
    /// no later admission removes it.
    #[test]
    fn admitted_wanted_files_survive_all_later_admissions(
        capacity in 1u32..5,
        fillers in prop::collection::vec((0usize..20, 0u8..=100), 0..30),
    ) {
        let mut node = MbtNode::new(NodeId::new(0), popcache(capacity), MbtConfig::new());
        node.add_query(Query::new("wanted").unwrap(), None);
        node.seed_content(meta(0, true), Popularity::new(0.0), false);
        prop_assert!(node.try_store_file(uri(0, true), None));
        for &(i, pop) in &fillers {
            node.seed_content(meta(i, false), Popularity::new(f64::from(pop) / 100.0), false);
            node.try_store_file(uri(i, false), None);
            prop_assert!(
                node.has_file(&uri(0, true)),
                "filler {i} (pop {pop}) evicted the downloading file"
            );
            prop_assert!(node.files().len() <= capacity as usize);
        }
    }

    /// Occupancy stays within the bound across arbitrary pairwise contact
    /// sequences against an unbounded seeder carrying many popular files.
    #[test]
    fn occupancy_never_exceeds_bound_across_contacts(
        capacity in 1u32..5,
        n_files in 1usize..12,
        contacts in prop::collection::vec((1usize..4, 1usize..4, 0u64..50_000), 1..25),
    ) {
        let mut nodes = vec![MbtNode::new(
            NodeId::new(0),
            ProtocolSpec::MBT,
            MbtConfig::new(),
        )];
        for i in 1..4u32 {
            nodes.push(MbtNode::new(NodeId::new(i), popcache(capacity), MbtConfig::new()));
        }
        for i in 0..n_files {
            nodes[0].seed_content(meta(i, false), Popularity::new(0.9), true);
        }
        nodes[1].add_query(Query::new("filler").unwrap(), None);

        let mut times: Vec<(usize, usize, u64)> = contacts;
        times.sort_by_key(|&(_, _, t)| t);
        for (a, b, t) in times {
            if a == b {
                continue;
            }
            run_contact(&mut nodes, &[a, b],
                SimTime::from_secs(t),
                SimDuration::from_secs(120),
            );
            for node in &nodes[1..] {
                prop_assert!(
                    node.files().len() <= capacity as usize,
                    "bound {capacity} broken: {} files held",
                    node.files().len()
                );
            }
        }
    }
}
