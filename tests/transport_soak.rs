//! Soak: live nodes on the frame bus deliver a real file.
//!
//! Three MBT nodes and a gateway node seeded with the file exchange frames
//! over a `LiveTransport`, with a synthetic 2-contact schedule playing the
//! role of a contact trace: first one node meets the gateway and receives
//! the file it queried (hello → metadata broadcast → file broadcast and its
//! pieces), then the three nodes meet and the new holder broadcasts it to
//! the other two. Every message crosses the wire as an encoded frame, every piece is
//! checksum verified by the assembler, and the reassembled bytes must hash
//! to the published content's digest — the same digest the simulator's
//! stores are keyed on. Each contact is the simulator's, so no frame is
//! dropped and the frame counts are exact; two executions of the same spec
//! must produce identical reports.

use std::collections::BTreeMap;

use dtn_trace::NodeId;
use mbt_core::checksum::sha1;
use mbt_core::transport::live::{run_live_session, LiveReport, LiveSessionSpec};
use mbt_core::{MbtConfig, MbtNode, Metadata, Popularity, ProtocolSpec, Query, Uri};

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

    let node = |i: u32| MbtNode::new(NodeId::new(i), ProtocolSpec::MBT, MbtConfig::new());
    let mut gateway = node(100);
    gateway.seed_content(metadata, Popularity::new(0.8), true);
    let query = Query::new("evening news").unwrap();
    let mut nodes: Vec<MbtNode> = (0..3)
        .map(|i| {
            let mut n = node(i);
            n.add_query(query.clone(), None);
            n
        })
        .collect();
    nodes.push(gateway);
    LiveSessionSpec {
        nodes,
        content: BTreeMap::from([(file_uri(), content)]),
        // Contact 1: node 0 meets the gateway. Contact 2: the three nodes
        // meet and node 0 (now a holder) broadcasts to nodes 1 and 2.
        schedule: vec![
            vec![NodeId::new(0), NodeId::new(100)],
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

    // The session exercised the full message flow on the wire: one file
    // broadcast from the gateway to node 0 and one from node 0 to each of
    // nodes 1 and 2, each followed by the file's 6 pieces. Nobody requests
    // a piece or searches.
    let frames = &report.frames_by_kind;
    assert!(frames.get("hello").copied().unwrap_or(0) > 0);
    assert!(frames.get("metadata").copied().unwrap_or(0) > 0);
    assert_eq!(frames.get("file-broadcast").copied(), Some(3));
    assert_eq!(frames.get("piece").copied(), Some(18));
    for kind in ["piece-request", "search-results"] {
        assert!(!frames.contains_key(kind), "{kind} on the wire: {frames:?}");
    }
    assert!(report.counters.bus_bytes_on_wire > FILE_BYTES as u64 * 3);
    assert_eq!(report.counters.bus_frames_dropped, 0);
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
