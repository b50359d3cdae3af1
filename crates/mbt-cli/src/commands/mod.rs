//! The `mbt` subcommands.

use std::fs::File;
use std::path::Path;
use std::sync::Arc;

use dtn_trace::{read_trace, ShardedTrace, TraceSource};

use crate::CliError;

pub mod experiment;
pub mod gateway;
pub mod gen_trace;
pub mod node;
pub mod routing;
pub mod shard;
pub mod shard_info;
pub mod simulate;
pub mod sweep;
pub mod trace_stats;

/// The most ids a trace may address for each node it names. The simulator
/// indexes dense per-id tables (`NodeArena::slot_of`, `ResidueStore`, the
/// delivery books) by [`TraceSource::id_space`] — right when ids are dense
/// (the 10⁶-node city trace has id space = nodes), a 16 GB allocation when a
/// two-line file names node 4 000 000 000. 1024 keeps those tables within a
/// few KB per real node, the order of a node's own state, and still opens a
/// hand-written trace whose few ids run into the hundreds.
const MAX_IDS_PER_NODE: usize = 1024;

/// Opens `path` as a trace: a directory is a sharded trace (see
/// `mbt shard`), replayed shard by shard with bounded memory; a file is read
/// fully into memory. A simulation cannot tell the two apart.
///
/// Either way the id space — the largest id in a file, a free-standing
/// field of a shard manifest — is checked here, once, against the nodes the
/// input names, before anything is sized by it.
pub fn open_source(path: &str) -> Result<Arc<dyn TraceSource>, CliError> {
    let source: Arc<dyn TraceSource> = if Path::new(path).is_dir() {
        Arc::new(ShardedTrace::open(path).map_err(|e| CliError::Usage(e.to_string()))?)
    } else {
        let file = File::open(path).map_err(|e| CliError::Io(path.to_string(), e))?;
        Arc::new(read_trace(file).map_err(|e| CliError::Usage(e.to_string()))?)
    };
    check_id_space(source.as_ref()).map_err(|e| CliError::Usage(format!("{path}: {e}")))?;
    Ok(source)
}

/// The id space must exceed every named node (or dense tables are indexed
/// out of bounds) and stay within [`MAX_IDS_PER_NODE`] of their count.
fn check_id_space(source: &dyn TraceSource) -> Result<(), String> {
    let id_space = source.id_space();
    // A manifest's node lines are outside input too: not necessarily the
    // sorted, distinct list the trait promises.
    let mut nodes = source.nodes();
    nodes.sort_unstable();
    nodes.dedup();
    let largest = nodes.last().map_or(0, |n| n.index());
    if !nodes.is_empty() && largest >= id_space {
        return Err(format!(
            "id space {id_space} does not cover node id {largest}"
        ));
    }
    if id_space > nodes.len().saturating_mul(MAX_IDS_PER_NODE) {
        return Err(format!(
            "id space {id_space} (largest node id {largest}) is more than {MAX_IDS_PER_NODE} \
             times the {} nodes named; renumber the nodes densely",
            nodes.len()
        ));
    }
    Ok(())
}
