//! The evaluation's headline ordering: MBT ≥ MBT-Q ≥ MBT-QM in delivery
//! ratio (paper §VI-B), with MBT-QM flat in file delivery as Internet access
//! rises (Fig 3a) because it has no file discovery process.

use dtn_trace::generators::NusConfig;
use dtn_trace::ContactTrace;
use mbt_core::ProtocolSpec;
use mbt_experiments::runner::{run_simulation, SimParams, SimResult};

fn trace() -> ContactTrace {
    NusConfig::new(40, 8).seed(21).generate()
}

fn run(protocol: ProtocolSpec, internet_fraction: f64) -> SimResult {
    run_simulation(
        &trace(),
        &SimParams::builder()
            .protocol(protocol)
            .internet_fraction(internet_fraction)
            .files_per_day(20)
            .days(8)
            .seed(21)
            .build(),
        None,
    )
}

#[test]
fn mbt_dominates_on_metadata_delivery() {
    let mbt = run(ProtocolSpec::MBT, 0.3);
    let q = run(ProtocolSpec::MBT_Q, 0.3);
    let qm = run(ProtocolSpec::MBT_QM, 0.3);
    assert!(
        mbt.metadata_ratio >= q.metadata_ratio,
        "MBT {} < MBT-Q {}",
        mbt.metadata_ratio,
        q.metadata_ratio
    );
    assert!(
        q.metadata_ratio >= qm.metadata_ratio,
        "MBT-Q {} < MBT-QM {}",
        q.metadata_ratio,
        qm.metadata_ratio
    );
}

#[test]
fn mbt_dominates_on_file_delivery() {
    let mbt = run(ProtocolSpec::MBT, 0.3);
    let qm = run(ProtocolSpec::MBT_QM, 0.3);
    assert!(
        mbt.file_ratio >= qm.file_ratio,
        "MBT {} < MBT-QM {}",
        mbt.file_ratio,
        qm.file_ratio
    );
}

#[test]
fn discovery_driven_protocols_benefit_from_internet_access() {
    // Fig 3(a): MBT's file ratio rises quickly with Internet access; MBT-QM
    // shows (much) less improvement because it cannot discover.
    let mbt_lo = run(ProtocolSpec::MBT, 0.1);
    let mbt_hi = run(ProtocolSpec::MBT, 0.8);
    let qm_lo = run(ProtocolSpec::MBT_QM, 0.1);
    let qm_hi = run(ProtocolSpec::MBT_QM, 0.8);
    let mbt_gain = mbt_hi.file_ratio - mbt_lo.file_ratio;
    let qm_gain = qm_hi.file_ratio - qm_lo.file_ratio;
    assert!(
        mbt_gain >= qm_gain,
        "MBT gain {mbt_gain} should exceed MBT-QM gain {qm_gain}"
    );
}

#[test]
fn variants_differ_in_mechanism_counters() {
    let mbt = run(ProtocolSpec::MBT, 0.3);
    let q = run(ProtocolSpec::MBT_Q, 0.3);
    let qm = run(ProtocolSpec::MBT_QM, 0.3);
    assert!(mbt.queries_distributed > 0, "MBT distributes queries");
    assert_eq!(q.queries_distributed, 0);
    assert_eq!(qm.queries_distributed, 0);
    assert!(mbt.metadata_broadcasts > 0);
    assert!(q.metadata_broadcasts > 0);
    assert_eq!(
        qm.metadata_broadcasts, 0,
        "MBT-QM has no standalone metadata"
    );
}
