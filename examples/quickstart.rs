//! Quickstart: share one file across a five-node hybrid DTN.
//!
//! One node has Internet access and downloads a published file; the other
//! four obtain it purely through DTN contacts — including a classroom-style
//! clique where a single broadcast serves three receivers at once.
//!
//! Run with: `cargo run -p mbt-experiments --example quickstart`

use dtn_trace::{NodeId, SimDuration, SimTime};
use mbt_core::node::run_contact;
use mbt_core::{
    MbtConfig, MbtNode, Metadata, MetadataServer, Popularity, ProtocolSpec, Query, Uri,
};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. The Internet side: a metadata server with one published file.
    let mut server = MetadataServer::new(1);
    let uri = Uri::new("mbt://fox/evening-news/ep-1")?;
    let metadata = Metadata::builder("FOX Evening News episode 1", "FOX", uri.clone())
        .description("nightly news broadcast, 30 minutes")
        .sized(12 * 256 * 1024, 256 * 1024, Vec::new())
        .build();
    server.publish(metadata, Popularity::new(0.6));
    println!("published: FOX Evening News episode 1 ({uri})");

    // 2. Five mobile nodes running full MBT. Only node 0 reaches the Internet.
    let mut nodes: Vec<MbtNode> = (0..5)
        .map(|i| MbtNode::new(NodeId::new(i), ProtocolSpec::MBT, MbtConfig::new()))
        .collect();
    nodes[0].set_internet_access(true);

    // Everyone is interested in the evening news.
    for node in nodes.iter_mut() {
        node.add_query(Query::new("evening news")?, None);
    }

    // 3. Node 0 syncs at a WiFi access point: metadata + file downloaded.
    nodes[0].internet_session(&server, SimTime::ZERO);
    println!(
        "node 0 synced with the Internet: has file = {}",
        nodes[0].has_file(&uri)
    );

    // 4. Node 0 passes node 1 on the street (a short pair-wise contact).
    run_contact(
        &mut nodes,
        &[0, 1],
        SimTime::from_secs(600),
        SimDuration::from_secs(45),
    );
    println!(
        "after street contact: node 1 has file = {}",
        nodes[1].has_file(&uri)
    );

    // 5. Nodes 1, 2, 3, 4 sit in one classroom: a clique contact. One
    //    broadcast from node 1 serves all three receivers simultaneously.
    let report = run_contact(
        &mut nodes,
        &[1, 2, 3, 4],
        SimTime::from_secs(3_600),
        SimDuration::from_hours(2),
    );
    println!(
        "classroom clique: {} metadata broadcast(s), {} file broadcast(s)",
        report.metadata_broadcasts, report.file_broadcasts
    );
    for (i, node) in nodes.iter().enumerate().skip(2) {
        println!("  node {i} has file = {}", node.has_file(&uri));
    }

    assert!(nodes.iter().all(|n| n.has_file(&uri)));
    println!("\nall five nodes obtained the file; only one Internet download happened.");
    Ok(())
}
