//! The `mbt` subcommands.

pub mod capacity;
pub mod gateway;
pub mod gen_trace;
pub mod node;
pub mod routing;
pub mod shard;
pub mod shard_info;
pub mod simulate;
pub mod sweep;
pub mod trace_stats;
