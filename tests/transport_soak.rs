//! Soak: live nodes on the frame bus deliver a real file.
//!
//! Three nodes and a `ServerSnapshot`-backed gateway exchange frames over
//! [`LiveBus`], with a synthetic 2-contact schedule playing the role of a
//! contact trace: first one node meets the gateway and pulls the file it
//! queried (search → metadata → piece requests → pieces), then the three
//! nodes meet and the holder serves the other two peer-to-peer. Every
//! message crosses the wire as an encoded frame, every piece is checksum
//! verified by the assembler, and the reassembled bytes must hash to the
//! published content's digest — the same digest the simulator's stores are
//! keyed on. Each contact runs until no frame is left to deliver, so no
//! frame is dropped and the frame counts are exact; two executions of the
//! same spec must produce identical reports.

use std::collections::BTreeMap;

use dtn_trace::NodeId;
use mbt_core::checksum::sha1;
use mbt_core::transport::live::{
    run_live_session, LiveGatewaySpec, LiveNodeSpec, LiveReport, LiveSessionSpec,
};
use mbt_core::{Metadata, MetadataServer, Popularity, Query, Uri};

const PIECE_SIZE: u64 = 256;
const FILE_BYTES: usize = 1536; // 6 pieces of 256 bytes

fn file_uri() -> Uri {
    Uri::new("mbt://soak/news").unwrap()
}

fn file_content() -> Vec<u8> {
    (0..FILE_BYTES).map(|i| (i % 251) as u8).collect()
}

fn session_spec() -> LiveSessionSpec {
    let content = file_content();
    let metadata = Metadata::builder("fox evening news", "FOX", file_uri())
        .content(&content, PIECE_SIZE as usize)
        .build();
    assert_eq!(metadata.piece_count(), 6, "fixture drifted");

    let mut server = MetadataServer::new(1);
    server.publish(metadata, Popularity::new(0.8));

    let gateway_id = NodeId::new(100);
    let query = Query::new("evening news").unwrap();
    LiveSessionSpec {
        nodes: (0..3)
            .map(|i| LiveNodeSpec {
                id: NodeId::new(i),
                queries: vec![query.clone()],
            })
            .collect(),
        gateway: Some(LiveGatewaySpec {
            id: gateway_id,
            snapshot: server.snapshot(),
            content: BTreeMap::from([(file_uri(), content)]),
        }),
        // Contact 1: node 0 meets the gateway. Contact 2: the three nodes
        // meet and node 0 (now a holder) serves nodes 1 and 2.
        schedule: vec![
            vec![NodeId::new(0), gateway_id],
            vec![NodeId::new(0), NodeId::new(1), NodeId::new(2)],
        ],
    }
}

fn assert_full_delivery(report: &LiveReport) {
    let expected_digest = sha1(&file_content());
    for i in 0..3 {
        let delivered = report
            .deliveries
            .get(&NodeId::new(i))
            .unwrap_or_else(|| panic!("node {i} missing from the report"));
        let digest = delivered
            .get(&file_uri())
            .unwrap_or_else(|| panic!("node {i} never completed the file"));
        assert_eq!(
            *digest, expected_digest,
            "node {i} assembled different bytes than were published"
        );
    }
}

#[test]
fn three_nodes_and_a_gateway_deliver_a_full_file() {
    let report = run_live_session(session_spec());
    assert_full_delivery(&report);

    // The session exercised the full message flow on the wire.
    let frames = &report.stats.frames_by_kind;
    assert!(frames.get("hello").copied().unwrap_or(0) > 0);
    assert!(frames.get("search-results").copied().unwrap_or(0) > 0);
    assert!(frames.get("metadata").copied().unwrap_or(0) > 0);
    // 6 pieces to node 0 from the gateway, 6 to each of nodes 1 and 2.
    assert_eq!(frames.get("piece-request").copied().unwrap_or(0), 18);
    assert_eq!(frames.get("piece").copied().unwrap_or(0), 18);
    assert!(report.stats.bytes_on_wire > FILE_BYTES as u64 * 3);
    assert_eq!(report.stats.frames_dropped, 0);
}

#[test]
fn identical_specs_produce_identical_reports() {
    let first = run_live_session(session_spec());
    let second = run_live_session(session_spec());
    assert_full_delivery(&first);
    assert_eq!(
        first, second,
        "the live session is not deterministic across executions"
    );
}
