//! Property-based tests for the routing protocols: conservation and
//! dominance laws that must hold on any trace and workload.

use proptest::prelude::*;

use dtn_routing::protocols::{DirectDelivery, Epidemic, Prophet, SprayAndWait};
use dtn_routing::sim::{simulate, uniform_messages};
use dtn_trace::generators::DieselNetConfig;
use dtn_trace::{ContactTrace, SimDuration, SimTime};

fn small_trace(seed: u64) -> ContactTrace {
    DieselNetConfig::new(10, 3).seed(seed).generate()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn epidemic_dominates_everyone_on_delivery(seed in 0u64..500) {
        let trace = small_trace(seed);
        prop_assume!(trace.node_count() >= 2);
        let nodes = trace.nodes();
        let horizon = trace.end_time().unwrap_or(SimTime::from_secs(1));
        let mut rng = dtn_sim::rng::stream(seed, "routing-messages");
        let msgs = uniform_messages(&nodes, 30, horizon, None, &mut rng);

        let epidemic = simulate(&trace, Epidemic::new(), msgs.clone());
        let direct = simulate(&trace, DirectDelivery::new(), msgs.clone());
        let prophet = simulate(&trace, Prophet::new(), msgs.clone());
        let spray = simulate(&trace, SprayAndWait::new(6), msgs);

        // Epidemic is the delivery upper bound among these protocols.
        for r in [&direct, &prophet, &spray] {
            prop_assert!(
                epidemic.delivered >= r.delivered,
                "epidemic {} < {} {}", epidemic.delivered, r.protocol, r.delivered
            );
        }
        // Direct delivery never spends more than one transmission per delivery.
        prop_assert_eq!(direct.transmissions, direct.delivered);
    }

    #[test]
    fn delivery_counts_bounded_by_created(seed in 0u64..500) {
        let trace = small_trace(seed);
        prop_assume!(trace.node_count() >= 2);
        let nodes = trace.nodes();
        let horizon = trace.end_time().unwrap_or(SimTime::from_secs(1));
        let mut rng = dtn_sim::rng::stream(seed, "routing-messages-2");
        let msgs = uniform_messages(&nodes, 25, horizon, Some(SimDuration::from_days(1)), &mut rng);
        for report in [
            simulate(&trace, Epidemic::new(), msgs.clone()),
            simulate(&trace, DirectDelivery::new(), msgs.clone()),
            simulate(&trace, Prophet::new(), msgs.clone()),
            simulate(&trace, SprayAndWait::new(4), msgs.clone()),
        ] {
            prop_assert_eq!(report.created, 25);
            prop_assert!(report.delivered <= report.created);
            prop_assert!(report.delivery_ratio <= 1.0 + 1e-9);
            if let Some(delay) = report.mean_delay_secs {
                prop_assert!(delay >= 0.0);
            }
        }
    }

    #[test]
    fn spray_transmissions_bounded_by_copy_budget(seed in 0u64..500, copies in 1u32..8) {
        let trace = small_trace(seed);
        prop_assume!(trace.node_count() >= 2);
        let nodes = trace.nodes();
        let horizon = trace.end_time().unwrap_or(SimTime::from_secs(1));
        let mut rng = dtn_sim::rng::stream(seed, "routing-messages-3");
        let count = 20u64;
        let msgs = uniform_messages(&nodes, count, horizon, None, &mut rng);
        let r = simulate(&trace, SprayAndWait::new(copies), msgs);
        // Binary spray makes at most `copies - 1` spray transmissions plus
        // one wait-phase delivery per message.
        prop_assert!(
            r.transmissions <= count * (copies as u64),
            "transmissions {} exceed budget {}", r.transmissions, count * copies as u64
        );
    }
}
