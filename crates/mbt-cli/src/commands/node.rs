//! `mbt node` — run live nodes and a gateway over the in-process frame bus.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use dtn_trace::NodeId;
use mbt_core::transport::live::{run_live_session, LiveSessionSpec};
use mbt_core::{MbtConfig, MbtNode, Metadata, Popularity, ProtocolSpec, Query, Uri};

use crate::args::Args;
use crate::CliError;

/// Usage text for the subcommand.
pub const USAGE: &str = "mbt node [--nodes N] [--files N] [--file-bytes N] \
[--piece-size N] [--seed N]

Runs an in-process live session: N MBT nodes, each querying every file, and
a gateway node holding the files, on the frame bus, over a synthetic
two-contact schedule. In contact 1 node 0 meets the gateway; in contact 2
all nodes meet. Each contact is the simulator's (hello -> metadata
broadcasts -> file broadcasts, with every message a frame and every file
sent as checksummed pieces), with budgets of --files a contact, so every
file reaches every node. Prints per-node deliveries with SHA-1 digests and
the bus frame counters. --nodes and --files take 1 to 64, --file-bytes and
--piece-size 1 to 1048576; a value outside is an error, not clamped.";

/// Deterministic pseudo-random content (xorshift64*), so runs with the same
/// seed publish byte-identical files.
fn content_bytes(seed: u64, len: usize) -> Vec<u8> {
    let mut state = seed.wrapping_mul(2_685_821_657_736_338_717) | 1;
    (0..len)
        .map(|_| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 32) as u8
        })
        .collect()
}

/// Runs the subcommand.
pub fn run(args: &Args) -> Result<String, CliError> {
    const UP_TO_64: &str = "an integer from 1 to 64";
    const UP_TO_1_MIB: &str = "an integer from 1 to 1048576";
    let nodes = args.parse_in("nodes", 3usize, 1..=64, UP_TO_64)?;
    let files = args.parse_in("files", 2usize, 1..=64, UP_TO_64)?;
    let file_bytes = args.parse_in("file-bytes", 1536usize, 1..=1 << 20, UP_TO_1_MIB)?;
    let piece_size = args.parse_in("piece-size", 256usize, 1..=1 << 20, UP_TO_1_MIB)?;
    let seed = args.parse_or("seed", 42u64, "an integer")?;

    let config = MbtConfig::new()
        .metadata_per_contact(files as u32)
        .files_per_contact(files as u32);
    let node = |id: NodeId| MbtNode::new(id, ProtocolSpec::MBT, config.clone());
    let gateway_id = NodeId::new(nodes as u32 + 100);
    let mut gateway = node(gateway_id);
    let mut content: BTreeMap<Uri, Vec<u8>> = BTreeMap::new();
    let mut queries = Vec::new();
    for i in 0..files {
        let uri =
            Uri::new(format!("mbt://live/feed{i}")).map_err(|e| CliError::Usage(e.to_string()))?;
        let bytes = content_bytes(seed.wrapping_add(i as u64), file_bytes);
        let metadata = Metadata::builder(format!("live news feed{i}"), "FOX", uri.clone())
            .content(&bytes, piece_size)
            .build();
        gateway.seed_content(metadata, Popularity::new(0.8), true);
        content.insert(uri, bytes);
        queries.push(Query::new(format!("news feed{i}")).expect("non-empty query"));
    }

    let all_nodes: Vec<NodeId> = (0..nodes as u32).map(NodeId::new).collect();
    let mut members: Vec<MbtNode> = all_nodes
        .iter()
        .map(|&id| {
            let mut member = node(id);
            member.add_queries(queries.iter().map(|q| (q.clone(), None)));
            member
        })
        .collect();
    members.push(gateway);
    let report = run_live_session(LiveSessionSpec {
        nodes: members,
        content,
        schedule: vec![vec![all_nodes[0], gateway_id], all_nodes.clone()],
    });

    let mut out = String::new();
    let _ = writeln!(
        out,
        "live session: {nodes} node(s) + gateway, {files} file(s) x {file_bytes} B \
         (pieces of {piece_size} B), seed {seed}"
    );
    for (&id, delivered) in report.deliveries.range(..gateway_id) {
        let _ = writeln!(
            out,
            "  node {}: {} file(s) delivered",
            id.index(),
            delivered.len()
        );
        for (uri, digest) in delivered {
            let _ = writeln!(out, "    {uri} sha1={}", digest.to_hex());
        }
    }
    let _ = writeln!(out, "  frames on the wire:");
    for (kind, count) in &report.stats.frames_by_kind {
        let _ = writeln!(out, "    {kind:<15} {count:>6}");
    }
    let _ = writeln!(
        out,
        "  bytes on wire: {}  dropped frames: {}",
        report.stats.bytes_on_wire, report.stats.frames_dropped
    );
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Args {
        crate::parse_line("node", s)
    }

    #[test]
    fn default_session_delivers_every_file_to_every_node() {
        let out = run(&args("--nodes 3 --files 2")).unwrap();
        assert!(out.contains("node 0: 2 file(s) delivered"), "{out}");
        assert!(out.contains("node 2: 2 file(s) delivered"), "{out}");
        assert!(out.contains("sha1="));
        assert!(out.contains("piece"));
    }

    #[test]
    fn seed_42_prints_the_pinned_session() {
        const PINNED: &str = "\
live session: 3 node(s) + gateway, 2 file(s) x 1536 B (pieces of 256 B), seed 42
  node 0: 2 file(s) delivered
    mbt://live/feed0 sha1=3f473a8945773de90d2d5326948cc205a1afc333
    mbt://live/feed1 sha1=4c018735b197d929edcc4ced4029ebf5994d3347
  node 1: 2 file(s) delivered
    mbt://live/feed0 sha1=3f473a8945773de90d2d5326948cc205a1afc333
    mbt://live/feed1 sha1=4c018735b197d929edcc4ced4029ebf5994d3347
  node 2: 2 file(s) delivered
    mbt://live/feed0 sha1=3f473a8945773de90d2d5326948cc205a1afc333
    mbt://live/feed1 sha1=4c018735b197d929edcc4ced4029ebf5994d3347
  frames on the wire:
    file-broadcast       6
    hello                3
    metadata             6
    piece               36
  bytes on wire: 16254  dropped frames: 0
";
        assert_eq!(run(&args("--nodes 3 --files 2 --seed 42")).unwrap(), PINNED);
    }

    #[test]
    fn a_mebibyte_in_64_byte_pieces_reaches_every_node() {
        let out = run(&args(
            "--nodes 3 --files 1 --file-bytes 1048576 --piece-size 64",
        ))
        .unwrap();
        for node in 0..3 {
            assert!(
                out.contains(&format!("node {node}: 1 file(s) delivered")),
                "{out}"
            );
        }
        assert!(out.contains("dropped frames: 0"), "{out}");
    }
}
