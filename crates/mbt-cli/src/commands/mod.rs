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

/// Opens `path` as a trace: a directory is a sharded trace (see
/// `mbt shard`), replayed shard by shard with bounded memory; a file is read
/// fully into memory. A simulation cannot tell the two apart.
pub fn open_source(path: &str) -> Result<Arc<dyn TraceSource>, CliError> {
    if Path::new(path).is_dir() {
        let sharded = ShardedTrace::open(path).map_err(|e| CliError::Usage(e.to_string()))?;
        Ok(Arc::new(sharded))
    } else {
        let file = File::open(path).map_err(|e| CliError::Io(path.to_string(), e))?;
        let trace = read_trace(file).map_err(|e| CliError::Usage(e.to_string()))?;
        Ok(Arc::new(trace))
    }
}
