//! `mbt node` — run live nodes and a gateway on the threaded frame bus.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Duration;

use dtn_trace::NodeId;
use mbt_core::transport::live::{run_live_session, LiveGatewaySpec, LiveNodeSpec, LiveSessionSpec};
use mbt_core::{Metadata, MetadataServer, Popularity, Query, Uri};

use crate::args::Args;
use crate::CliError;

/// Usage text for the subcommand.
pub const USAGE: &str = "mbt node [--nodes N] [--files N] [--file-bytes N] \
[--piece-size N] [--seed N] [--settle-ms N]

Runs an in-process live session: N nodes (threads) and one gateway on the
frame bus, over a synthetic two-contact schedule. In contact 1 node 0 meets
the gateway and pulls every queried file (search -> metadata -> piece
requests -> pieces); in contact 2 all nodes meet and node 0 serves the rest
peer-to-peer. Prints per-node deliveries with SHA-1 digests and the bus
frame counters. --nodes and --files take 1 to 64, --file-bytes and
--piece-size 1 to 1048576, --settle-ms at least 10; a value outside is an
error, not clamped.";

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
    let settle_ms = args.parse_in(
        "settle-ms",
        60u64,
        10..=u64::MAX,
        "an integer of at least 10",
    )?;

    let mut server = MetadataServer::new(1);
    let mut contents: BTreeMap<Uri, Vec<u8>> = BTreeMap::new();
    let mut queries = Vec::new();
    for i in 0..files {
        let uri =
            Uri::new(format!("mbt://live/feed{i}")).map_err(|e| CliError::Usage(e.to_string()))?;
        let bytes = content_bytes(seed.wrapping_add(i as u64), file_bytes);
        let metadata = Metadata::builder(format!("live news feed{i}"), "FOX", uri.clone())
            .content(&bytes, piece_size)
            .build();
        server.publish(metadata, Popularity::new(0.8));
        contents.insert(uri, bytes);
        queries.push(Query::new(format!("news feed{i}")).expect("non-empty query"));
    }

    let gateway_id = NodeId::new(nodes as u32 + 100);
    let all_nodes: Vec<NodeId> = (0..nodes as u32).map(NodeId::new).collect();
    let spec = LiveSessionSpec {
        nodes: all_nodes
            .iter()
            .map(|&id| LiveNodeSpec {
                id,
                queries: queries.clone(),
            })
            .collect(),
        gateway: Some(LiveGatewaySpec {
            id: gateway_id,
            snapshot: server.snapshot(),
            content: contents,
        }),
        schedule: vec![vec![all_nodes[0], gateway_id], all_nodes.clone()],
        settle: Duration::from_millis(settle_ms),
    };
    let report = run_live_session(spec);

    let mut out = String::new();
    let _ = writeln!(
        out,
        "live session: {nodes} node(s) + gateway, {files} file(s) x {file_bytes} B \
         (pieces of {piece_size} B), seed {seed}"
    );
    for (&id, delivered) in &report.deliveries {
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
    fn same_seed_prints_identical_output() {
        let first = run(&args("--nodes 2 --files 1 --seed 7")).unwrap();
        let second = run(&args("--nodes 2 --files 1 --seed 7")).unwrap();
        assert_eq!(first, second);
    }
}
