//! End-to-end integration: trace generation → simulation → delivery, plus a
//! manual hybrid-DTN scenario exercising the public API across crates.

use dtn_trace::generators::{DieselNetConfig, NusConfig};
use dtn_trace::{
    Contact, ContactTrace, NodeId, SimDuration, SimTime, SpaceTimeGraph, SECONDS_PER_DAY,
};
use mbt_core::node::run_pairwise_contact;
use mbt_core::{
    MbtConfig, MbtNode, Metadata, MetadataServer, Popularity, ProtocolSpec, Query, Uri,
};
use mbt_experiments::runner::{run_simulation, SimParams};

#[test]
fn nus_simulation_delivers_metadata_and_files() {
    let trace = NusConfig::new(40, 8).seed(7).generate();
    let params = SimParams::builder()
        .protocol(ProtocolSpec::MBT)
        .files_per_day(20)
        .days(8)
        .seed(7)
        .build();
    let r = run_simulation(&trace, &params, None);
    assert!(
        r.queries > 50,
        "expected a busy workload, got {} queries",
        r.queries
    );
    assert!(
        r.metadata_ratio > 0.05,
        "metadata ratio {}",
        r.metadata_ratio
    );
    assert!(r.file_ratio > 0.0, "file ratio {}", r.file_ratio);
    assert!(r.metadata_ratio >= r.file_ratio);
}

#[test]
fn dieselnet_simulation_delivers_over_pairwise_contacts() {
    let trace = DieselNetConfig::new(24, 8).seed(7).generate();
    let params = SimParams::builder()
        .protocol(ProtocolSpec::MBT)
        .files_per_day(20)
        .days(8)
        .seed(7)
        .frequent_window(SimDuration::from_days(3))
        .build();
    let r = run_simulation(&trace, &params, None);
    assert!(r.queries > 0);
    assert!(
        r.metadata_delivered > 0,
        "no metadata delivered on bus trace"
    );
}

#[test]
fn manual_three_hop_relay_through_the_dtn() {
    // Internet → node 0 (access) → node 1 (relay) → node 2 (requester).
    let mut server = MetadataServer::new(1);
    let uri = Uri::new("mbt://fox/breaking").unwrap();
    server.publish(
        Metadata::builder("fox breaking story", "FOX", uri.clone()).build(),
        Popularity::new(0.8),
    );

    let mk = |i: u32| MbtNode::new(NodeId::new(i), ProtocolSpec::MBT, MbtConfig::new());
    let mut nodes = vec![mk(0), mk(1), mk(2)];
    nodes[0].set_internet_access(true);
    nodes[0].add_query(Query::new("breaking story").unwrap(), None);
    nodes[2].add_query(Query::new("breaking story").unwrap(), None);

    nodes[0].internet_session(&mut server, SimTime::ZERO);
    assert!(nodes[0].has_file(&uri));

    // Node 0 meets node 1: metadata and file pushed (popularity phase).
    run_pairwise_contact(
        &mut nodes,
        0,
        1,
        SimTime::from_secs(100),
        SimDuration::from_secs(300),
    );
    assert!(
        nodes[1].has_file(&uri),
        "relay should carry the popular file"
    );

    // Node 1 later meets node 2, which actually wants the file.
    run_pairwise_contact(
        &mut nodes,
        1,
        2,
        SimTime::from_secs(5_000),
        SimDuration::from_secs(300),
    );
    assert!(nodes[2].has_metadata(&uri));
    assert!(
        nodes[2].has_file(&uri),
        "requester served through the relay"
    );
}

#[test]
fn space_time_reachability_sanity() {
    let trace = DieselNetConfig::new(12, 4).seed(3).generate();
    let graph = SpaceTimeGraph::new(&trace);
    let reach = graph.reachable(NodeId::new(0), SimTime::ZERO, None);
    assert!(reach.contains(&NodeId::new(0)));
    assert!(!reach.is_empty());
}

#[test]
fn simulation_scales_with_contact_budget() {
    let trace = NusConfig::new(30, 6).seed(9).generate();
    let tight = SimParams::builder()
        .config(
            MbtConfig::new()
                .metadata_per_contact(1)
                .files_per_contact(1),
        )
        .days(6)
        .seed(9)
        .build();
    let roomy = SimParams::builder()
        .config(
            MbtConfig::new()
                .metadata_per_contact(40)
                .files_per_contact(10),
        )
        .days(6)
        .seed(9)
        .build();
    let r_tight = run_simulation(&trace, &tight, None);
    let r_roomy = run_simulation(&trace, &roomy, None);
    assert!(
        r_roomy.file_ratio >= r_tight.file_ratio,
        "more budget cannot hurt: {} vs {}",
        r_roomy.file_ratio,
        r_tight.file_ratio
    );
    assert!(r_roomy.metadata_ratio >= r_tight.metadata_ratio);
}

/// Every pair of nodes 0–9 × 10–19 meeting for ten minutes from `start`.
fn all_pairs_meet(start: u64) -> impl Iterator<Item = Contact> {
    (0..10).flat_map(move |a| {
        (10..20).map(move |b| {
            let start = SimTime::from_secs(start);
            let end = start + SimDuration::from_secs(600);
            Contact::pairwise(NodeId::new(a), NodeId::new(b), start, end).unwrap()
        })
    })
}

#[test]
fn a_run_covers_its_days_and_no_contact_after_them() {
    for days in [1, 2] {
        let horizon = days * SECONDS_PER_DAY;
        // The pairs that meet at and after the horizon met before the first
        // publish, so cutting the late contacts changes neither the node set
        // nor the frequent pairs.
        let trace: ContactTrace = all_pairs_meet(1_800)
            .chain(all_pairs_meet(horizon))
            .chain(all_pairs_meet(horizon + 1))
            .collect();
        let cut: ContactTrace = trace
            .iter()
            .filter(|c| c.start().as_secs() < horizon)
            .cloned()
            .collect();
        let params = SimParams {
            days,
            internet_fraction: 0.5,
            ttl_days: 3,
            ..SimParams::default()
        };
        let run = run_simulation(&trace, &params, None);
        assert_eq!(run, run_simulation(&cut, &params, None), "{days} days");
        assert_eq!(run.daily_metadata_delivered.len(), days as usize);
        assert_eq!(
            run.daily_metadata_delivered.iter().sum::<u64>(),
            run.metadata_delivered
        );
        assert_eq!(
            run.daily_files_delivered.iter().sum::<u64>(),
            run.files_delivered
        );
    }
    let at_zero: ContactTrace = all_pairs_meet(0).collect();
    let nothing = SimParams {
        days: 0,
        ..SimParams::default()
    };
    assert_eq!(run_simulation(&at_zero, &nothing, None).contacts, 0);
}
