//! Property tests for the fault-injection layer (ISSUE 2):
//!
//! - delivery ratio is monotonically non-increasing in the loss rate
//!   (noise-aware, pooled over replicates),
//! - a zero-rate plan is byte-identical to the fault-free code path,
//! - churned nodes never originate contacts while down,
//! - fault decisions are deterministic pure functions of the plan.
//!
//! The suite drives whole simulations through `mbt-experiments` (a dev-only
//! dependency cycle, which cargo permits).

use dtn_sim::FaultPlan;
use dtn_trace::generators::NusConfig;
use dtn_trace::{Contact, ContactTrace, NodeId, SimDuration, SimTime, SECONDS_PER_DAY};
use mbt_experiments::runner::{run_simulation, SimParams, SimResult};
use proptest::prelude::*;

fn quick_trace() -> ContactTrace {
    NusConfig::new(30, 6)
        .seed(11)
        .attendance_rate(0.8)
        .generate()
}

fn quick_params(seed: u64) -> SimParams {
    SimParams {
        files_per_day: 10,
        days: 6,
        seed,
        ..SimParams::default()
    }
}

/// Pools `replicates` runs at `loss`, varying both workload and fault seeds.
fn pooled_at_loss(trace: &ContactTrace, loss: f64, replicates: u64) -> SimResult {
    let mut pooled = SimResult::default();
    for rep in 0..replicates {
        let mut params = quick_params(rep + 1);
        params.faults = FaultPlan::none().loss(loss).seed(1_000 + rep);
        pooled.merge(&run_simulation(trace, &params, None));
    }
    pooled
}

#[test]
fn delivery_ratio_is_monotone_non_increasing_in_loss() {
    let trace = quick_trace();
    let losses = [0.0, 0.25, 0.5, 1.0];
    let pooled: Vec<SimResult> = losses
        .iter()
        .map(|&loss| pooled_at_loss(&trace, loss, 3))
        .collect();
    // Noise-aware: pooling over replicates smooths per-run jitter; a small
    // slack absorbs what remains.
    const SLACK: f64 = 0.02;
    for (i, w) in pooled.windows(2).enumerate() {
        assert!(
            w[1].metadata_ratio <= w[0].metadata_ratio + SLACK,
            "metadata ratio rose from loss {} ({:.4}) to loss {} ({:.4})",
            losses[i],
            w[0].metadata_ratio,
            losses[i + 1],
            w[1].metadata_ratio
        );
        assert!(
            w[1].file_ratio <= w[0].file_ratio + SLACK,
            "file ratio rose from loss {} ({:.4}) to loss {} ({:.4})",
            losses[i],
            w[0].file_ratio,
            losses[i + 1],
            w[1].file_ratio
        );
    }
    // Endpoints are exact: no losses at 0, no peer deliveries at 1.
    let clean = &pooled[0];
    let dead = pooled.last().unwrap();
    assert_eq!(clean.frames_lost, 0);
    assert!(dead.queries > 0);
    assert_eq!(
        dead.metadata_delivered, 0,
        "peers are the only metadata path"
    );
    assert_eq!(dead.files_delivered, 0, "peers are the only file path");
}

#[test]
fn zero_rate_plan_is_byte_identical_to_no_fault_path() {
    let trace = quick_trace();
    let clean = run_simulation(&trace, &quick_params(5), None);
    // Any combination of zero rates — even with a nonzero seed — must not
    // draw a single random number, so the runs are equal field-for-field.
    let mut zeroed = quick_params(5);
    zeroed.faults = FaultPlan::none().seed(0xDEAD_BEEF);
    assert_eq!(clean, run_simulation(&trace, &zeroed, None));
    let mut explicit = quick_params(5);
    explicit.faults = FaultPlan::none()
        .loss(0.0)
        .truncate(0.0)
        .churn(0.0)
        .corruption(0.0)
        .seed(7);
    assert_eq!(clean, run_simulation(&trace, &explicit, None));
}

#[test]
fn churned_nodes_never_originate_contacts_while_down() {
    let horizon = SimDuration::from_secs(SECONDS_PER_DAY);
    let plan = FaultPlan::none().churn(1.0).seed(5);
    let a = NodeId::new(0);
    let b = NodeId::new(1);
    let (down_start, down_end) = plan
        .down_interval(a, horizon)
        .expect("churn 1.0 downs every node");

    let params = |faults: FaultPlan| SimParams {
        internet_fraction: 0.0,
        files_per_day: 2,
        days: 1,
        faults,
        ..SimParams::default()
    };

    // A contact starting inside the down interval must not happen.
    let inside: ContactTrace = vec![Contact::pairwise(
        a,
        b,
        down_start,
        SimTime::from_secs(down_start.as_secs() + 60),
    )
    .unwrap()]
    .into_iter()
    .collect();
    let r = run_simulation(&inside, &params(plan), None);
    assert_eq!(r.contacts, 0, "contact ran during the down interval");
    // Without the plan the same contact happens — the trace is fine.
    let clean = run_simulation(&inside, &params(FaultPlan::none()), None);
    assert_eq!(clean.contacts, 1);

    // A contact at an instant where both nodes are up still happens.
    let up = |node: NodeId, at: SimTime| {
        plan.down_interval(node, horizon)
            .is_none_or(|(start, end)| at < start || end <= at)
    };
    let both_up = (0..horizon.as_secs() - 60)
        .find(|&t| up(a, SimTime::from_secs(t)) && up(b, SimTime::from_secs(t)))
        .expect("some instant has both nodes up (intervals are at most h/2)");
    let outside: ContactTrace = vec![Contact::pairwise(
        a,
        b,
        SimTime::from_secs(both_up),
        SimTime::from_secs(both_up + 60),
    )
    .unwrap()]
    .into_iter()
    .collect();
    let r = run_simulation(&outside, &params(plan), None);
    assert_eq!(
        r.contacts, 1,
        "contact outside every down interval must run"
    );
    assert!(
        !up(a, down_start) && up(a, down_end),
        "the interval is [start, end)"
    );
}

/// The CI fault matrix pins this with FAULT_LOSS ∈ {0, 0.25}: at any
/// configured loss rate, repeated runs are byte-identical.
#[test]
fn configured_loss_rate_is_deterministic() {
    let loss: f64 = std::env::var("FAULT_LOSS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(0.25);
    let trace = quick_trace();
    let mut params = quick_params(3);
    params.faults = FaultPlan::none().loss(loss).seed(9);
    let a = run_simulation(&trace, &params, None);
    let b = run_simulation(&trace, &params, None);
    assert_eq!(a, b);
    if loss > 0.0 {
        assert!(a.frames_lost > 0, "loss {loss} should drop frames");
    } else {
        assert_eq!(a, run_simulation(&trace, &quick_params(3), None));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every decision helper is a deterministic function of its coordinates.
    #[test]
    fn fault_rolls_are_pure_functions(
        seed in any::<u64>(),
        rate in 0.0f64..=1.0,
        t in 0u64..1_000_000,
        s in 0u32..64,
        r in 0u32..64,
    ) {
        let plan = FaultPlan::none().loss(rate).corruption(rate).seed(seed);
        let now = SimTime::from_secs(t);
        let (sn, rn) = (NodeId::new(s), NodeId::new(r));
        prop_assert_eq!(
            plan.frame_lost(now, sn, rn, "mbt://x"),
            plan.frame_lost(now, sn, rn, "mbt://x")
        );
        prop_assert_eq!(
            plan.corrupts(now, sn, rn, "mbt://x"),
            plan.corrupts(now, sn, rn, "mbt://x")
        );
    }

    /// Down intervals are non-empty and always sit inside the horizon.
    #[test]
    fn down_intervals_are_consistent(
        seed in any::<u64>(),
        churn in 0.01f64..=1.0,
        node in 0u32..128,
        horizon_days in 1u64..10,
    ) {
        let plan = FaultPlan::none().churn(churn).seed(seed);
        let horizon = SimDuration::from_days(horizon_days);
        if let Some((start, end)) = plan.down_interval(NodeId::new(node), horizon) {
            prop_assert!(start < end);
            prop_assert!(end.as_secs() <= horizon.as_secs());
        }
    }

    /// Truncation keeps the surviving fraction within its advertised bounds.
    #[test]
    fn contact_keep_respects_bounds(
        seed in any::<u64>(),
        rate in 0.0f64..=1.0,
        t in 0u64..1_000_000,
    ) {
        let plan = FaultPlan::none().truncate(rate).seed(seed);
        let members = [NodeId::new(1), NodeId::new(2), NodeId::new(3)];
        let keep = plan.contact_keep(SimTime::from_secs(t), &members);
        prop_assert!(keep >= 1.0 - rate - 1e-12);
        prop_assert!(keep <= 1.0);
    }
}
