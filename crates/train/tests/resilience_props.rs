//! Property-based tests over the chaos harness's determinism contract:
//! the fault schedule is a pure, order-independent function of the seed;
//! raising fault rates never decreases the recovery count; and goodput can
//! never exceed throughput.

use proptest::prelude::*;
use tbd_graph::ExecConfig;
use tbd_train::{
    proxy_feeds, proxy_session, FaultSpec, RecoveryPolicy, ResilienceConfig, ResilientTrainer,
    RunOutcome, Sgd,
};

/// The chaos proxy the resilience unit tests train (session seed 42, feeds
/// rooted at 1234): cheap enough for proptest cases, dropout-sensitive to
/// the step counter.
fn run_with(spec: FaultSpec, policy: RecoveryPolicy, steps: u64) -> RunOutcome {
    let (session, x, t, loss) = proxy_session(42, ExecConfig::default());
    let cfg = ResilienceConfig::with_faults(spec);
    let mut trainer = ResilientTrainer::new(session, loss, Sgd::new(0.1), cfg, policy);
    trainer.run(steps, proxy_feeds(1234, x, t), None).unwrap()
}

fn spec_from(seed: u64, rates: &[f64]) -> FaultSpec {
    FaultSpec {
        seed,
        crash_rate: rates[0],
        oom_rate: rates[1],
        spike_rate: rates[2],
        stall_rate: rates[3],
        corrupt_rate: rates[4],
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The fault schedule is a pure function of `(seed, step, retry)`:
    /// querying it in any order — or repeatedly — always agrees with a
    /// fresh forward enumeration of the same spec.
    #[test]
    fn schedule_is_seed_stable_and_order_independent(
        seed in 0u64..u64::MAX,
        rates in prop::collection::vec(0.0f64..0.5, 5),
    ) {
        let spec = spec_from(seed, &rates);
        let forward: Vec<_> =
            (0..64u64).flat_map(|s| (0..4u32).map(move |r| (s, r))).collect();
        let draws: Vec<_> = forward.iter().map(|&(s, r)| spec.fault_at(s, r)).collect();
        // Reverse order, duplicate queries, a fresh identical spec: all agree.
        for (i, &(s, r)) in forward.iter().enumerate().rev() {
            prop_assert_eq!(spec.fault_at(s, r), draws[i]);
            prop_assert_eq!(spec_from(seed, &rates).fault_at(s, r), draws[i]);
        }
    }

    /// Threshold sampling is monotone: scaling every rate up can only add
    /// faults to the schedule, never remove or change one.
    #[test]
    fn schedule_is_monotone_in_rates(
        seed in 0u64..u64::MAX,
        rates in prop::collection::vec(0.0f64..0.3, 5),
        factor in 1.0f64..4.0,
    ) {
        let base = spec_from(seed, &rates);
        let scaled = base.scaled(factor);
        for step in 0..64u64 {
            for retry in 0..4u32 {
                if let Some(kind) = base.fault_at(step, retry) {
                    // The scaled schedule faults here too, with a kind of
                    // equal or higher injection priority.
                    let scaled_kind = scaled.fault_at(step, retry);
                    prop_assert!(scaled_kind.is_some());
                    prop_assert!(scaled_kind.unwrap().index() <= kind.index());
                }
            }
        }
    }
}

proptest! {
    // Full trainer runs are milliseconds each but still the expensive
    // case; keep the case count low.
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Raising fault rates never decreases `recoveries_total`: every fault
    /// gets exactly one recovery and the per-(step, retry) draws are fixed,
    /// so a superset of faults yields a superset of recoveries.
    #[test]
    fn recoveries_are_monotone_in_rates(
        seed in 0u64..1000,
        rates in prop::collection::vec(0.0f64..0.15, 5),
        factor in 1.0f64..3.0,
    ) {
        let base = spec_from(seed, &rates);
        let low = run_with(base, RecoveryPolicy::ReplayExact, 10);
        let high = run_with(base.scaled(factor), RecoveryPolicy::ReplayExact, 10);
        prop_assert!(high.recoveries >= low.recoveries,
            "recoveries fell from {} to {} when rates scaled {factor}x", low.recoveries, high.recoveries);
        prop_assert_eq!(low.recoveries, low.faults_injected);
        prop_assert_eq!(high.recoveries, high.faults_injected);
    }

    /// Goodput counts only useful, non-skipped work over the same clock as
    /// throughput, so it can never exceed it — under either policy.
    #[test]
    fn goodput_never_exceeds_throughput(
        seed in 0u64..1000,
        rates in prop::collection::vec(0.0f64..0.4, 5),
        policy_pick in 0u8..2,
    ) {
        let spec = spec_from(seed, &rates);
        let policy =
            if policy_pick == 1 { RecoveryPolicy::ReplayExact } else { RecoveryPolicy::Default };
        let out = run_with(spec, policy, 8);
        prop_assert!(out.goodput() <= out.throughput() + 1e-12,
            "goodput {} > throughput {}", out.goodput(), out.throughput());
        prop_assert_eq!(out.useful_steps, 8, "the loop always completes every step");
    }
}
