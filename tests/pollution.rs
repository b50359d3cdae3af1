//! Integration: the fake-publisher attack (§I "fake files") end to end, and
//! the §III-B item-f authentication defense.

use dtn_trace::generators::NusConfig;
use mbt_experiments::runner::{run_simulation, SimParams};

#[test]
fn pollution_attack_and_defense_shapes() {
    let trace = NusConfig::new(40, 8).seed(33).generate();
    let base = SimParams {
        days: 8,
        seed: 33,
        files_per_day: 15,
        ..SimParams::default()
    };
    let clean = run_simulation(&trace, &base, None);
    let polluted = run_simulation(
        &trace,
        &SimParams {
            polluter_fraction: 0.25,
            fakes_per_day: 4,
            ..base.clone()
        },
        None,
    );
    let defended = run_simulation(
        &trace,
        &SimParams {
            polluter_fraction: 0.25,
            fakes_per_day: 4,
            verify_metadata: true,
            ..base.clone()
        },
        None,
    );
    // The attack hurts; the defense recovers a strict majority of the loss.
    assert!(
        polluted.file_ratio < clean.file_ratio,
        "attack had no effect: {} vs {}",
        polluted.file_ratio,
        clean.file_ratio
    );
    assert!(
        defended.file_ratio > polluted.file_ratio,
        "defense had no effect: {} vs {}",
        defended.file_ratio,
        polluted.file_ratio
    );
    let recovered = (defended.file_ratio - polluted.file_ratio)
        / (clean.file_ratio - polluted.file_ratio).max(1e-9);
    assert!(
        recovered > 0.4,
        "authentication should recover a substantial fraction, got {recovered:.2}"
    );
}

#[test]
fn verification_is_free_without_an_adversary() {
    let trace = NusConfig::new(30, 6).seed(34).generate();
    let base = SimParams {
        days: 6,
        seed: 34,
        files_per_day: 10,
        ..SimParams::default()
    };
    let clean = run_simulation(&trace, &base, None);
    let verified = run_simulation(
        &trace,
        &SimParams {
            verify_metadata: true,
            ..base
        },
        None,
    );
    assert_eq!(
        clean.metadata_delivered, verified.metadata_delivered,
        "signed genuine metadata must never be rejected"
    );
    assert_eq!(clean.files_delivered, verified.files_delivered);
}
