//! The hot-loop allocation gate (ROADMAP, "data-oriented replay kernel"):
//! a contact's cost follows what its clique *holds and what changed*, so a
//! contact that moves nothing allocates (almost) nothing.
//!
//! Counted with the per-thread counting allocator shared with
//! `crates/mbt-core/tests/refresh_alloc.rs`, so both tests give the same
//! numbers under any `--test-threads`.

use dtn_sim::telemetry::PhaseTimes;
use dtn_trace::{NodeId, SimDuration, SimTime};
use mbt_core::node::run_contact_via;
use mbt_core::transport::SimTransport;
use mbt_core::{MbtConfig, MbtNode, ProtocolSpec, Query};
use mbt_experiments::run_simulation;

#[path = "support/counting_alloc.rs"]
mod counting_alloc;
#[path = "support/sparse.rs"]
mod sparse;
use counting_alloc::allocation_of;

/// Two mutually frequent nodes with three own queries each and empty
/// metadata/file stores, already in sync (each holds the other's queries),
/// meet over `SimTransport`. Before the contact kernel was made
/// content-proportional this contact performed 40 allocations; it performs
/// 6: the member-id, alive-index, snapshot and second member-id vectors,
/// and each member's start-of-contact copy of the foreign queries it
/// carries.
#[test]
fn an_idle_contact_allocates_almost_nothing() {
    let mut nodes: Vec<MbtNode> = (0..2u32)
        .map(|i| {
            let mut node = MbtNode::new(NodeId::new(i), ProtocolSpec::MBT, MbtConfig::new());
            node.set_frequent_contacts([NodeId::new(1 - i)]);
            for q in 0..3 {
                node.add_query(Query::new(format!("n{i}q{q} daily")).unwrap(), None);
            }
            node
        })
        .collect();
    let mut contact = |at: u64| {
        run_contact_via(
            &mut SimTransport::new(),
            &mut nodes,
            &[0, 1],
            SimTime::from_secs(at),
            SimDuration::from_secs(300),
            &mut PhaseTimes::default(),
        )
    };
    assert_eq!(contact(100).queries_distributed, 6, "first contact syncs");

    let (_, allocations, report) = allocation_of(|| contact(200));
    assert_eq!(report.queries_distributed, 0, "already in sync");
    assert_eq!(report.hello_exchanges, 2);
    // Requester matching: 2 members x 6 relevant queries (3 own, 3 carried)
    // x 2 member stores, all empty; both wanted lists are cache hits. The
    // counters do not know that nothing was looked at.
    assert_eq!((report.index_lookups, report.wanted_cache_hits), (24, 2));
    assert!(
        allocations <= 8,
        "an idle contact performed {allocations} allocations"
    );
}

/// `run_simulation` over the sparse fixture trace, set-up and day ticks
/// included: 61.9 allocations per contact before, 16.6 now.
#[test]
fn the_sparse_regime_averages_few_allocations_per_contact() {
    let trace = sparse::trace();
    let params = sparse::params(ProtocolSpec::MBT);
    let (_, allocations, result) = allocation_of(|| run_simulation(&trace, &params, None));
    let per_contact = allocations as f64 / result.contacts as f64;
    assert!(
        per_contact <= 25.0,
        "{allocations} allocations over {} contacts = {per_contact:.1} per contact",
        result.contacts
    );
}
