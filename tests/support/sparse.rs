//! The *sparse* regime shared by the exact-counter pin
//! (`golden_figures.rs`) and the allocation gate (`alloc_gate.rs`): a small
//! city — many buses on many short routes, two Internet nodes in two
//! thousand — where almost every contact's clique holds no metadata and no
//! files (the paper's §VI-A DieselNet scarcity, and the ledger's
//! `city_stream` in miniature).

use dtn_trace::generators::DieselNetConfig;
use dtn_trace::{ContactTrace, SimDuration};
use mbt_core::ProtocolSpec;
use mbt_experiments::SimParams;

pub fn trace() -> ContactTrace {
    DieselNetConfig::new(2_000, 6)
        .routes(1_000)
        .seed(42)
        .generate()
}

/// The CI city parameters at this trace's scale.
pub fn params(protocol: ProtocolSpec) -> SimParams {
    SimParams::builder()
        .protocol(protocol)
        .internet_fraction(0.001)
        .files_per_day(10)
        .ttl_days(2)
        .days(6)
        .seed(42)
        .frequent_window(SimDuration::from_days(3))
        .build()
}
