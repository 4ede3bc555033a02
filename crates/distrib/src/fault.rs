//! Deterministic fault injection for the distributed event engine.
//!
//! Synchronous data-parallel training runs at the pace of its slowest
//! worker: one degraded GPU or NIC drags every iteration (the robustness
//! story the closed-form model cannot express). This module draws all
//! perturbations from a counter-based hash generator keyed on
//! `(seed, stream, index)`, so every draw is independent of evaluation
//! order — the same seed produces bitwise-identical slowdowns, link
//! factors and drop decisions no matter how the event loop interleaves,
//! which is what makes straggler runs reproducible and digestable.

/// SplitMix64 finalizer: a full-avalanche mix of a 64-bit counter.
///
/// Public so other layers (notably `tbd-train::resilience`) can schedule
/// their own faults with the *same* counter-based scheme and inherit its
/// order-independence and bit-stability guarantees.
pub fn mix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Uniform draw in `[0, 1)` from `(seed, stream, index)`.
///
/// Pure function of its arguments: the same triple yields the same bits no
/// matter how many draws happened before it or on which thread.
pub fn unit(seed: u64, stream: u64, index: u64) -> f64 {
    let h = mix64(seed ^ mix64(stream).wrapping_add(index.wrapping_mul(0x2545_f491_4f6c_dd1d)));
    // 53 mantissa bits → exactly representable, uniform on the dyadics.
    (h >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// Per-draw streams, kept distinct so e.g. a worker's compute draw never
/// correlates with its link draw.
const STREAM_SLOW_PICK: u64 = 1;
const STREAM_SLOW_FACTOR: u64 = 2;
const STREAM_LINK_PICK: u64 = 3;
const STREAM_LINK_FACTOR: u64 = 4;
const STREAM_DROP: u64 = 5;

/// Seeded straggler / fault-injection specification.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StragglerSpec {
    /// Root seed; every perturbation is a pure function of it.
    pub seed: u64,
    /// Probability that a given worker is a compute straggler.
    pub slow_worker_fraction: f64,
    /// Maximum extra compute slowdown: an afflicted worker's compute time
    /// is multiplied by a factor drawn uniformly from `[1, 1 + this]`.
    pub compute_slowdown: f64,
    /// Probability that a given worker's link is degraded.
    pub degraded_link_fraction: f64,
    /// Maximum link-time multiplier for a degraded link, drawn uniformly
    /// from `[1, 1 + this]`.
    pub link_degradation: f64,
    /// Per-transfer-attempt probability that a bucket exchange is dropped
    /// and must be retried.
    pub drop_probability: f64,
    /// Timeout before the first retry of a dropped bucket, seconds.
    pub retry_timeout_s: f64,
    /// Multiplier applied to the timeout on each successive retry.
    pub retry_backoff: f64,
    /// Drop decisions after this many failed attempts are ignored — the
    /// transfer is forced through (TCP-style eventual delivery).
    pub max_retries: u32,
    /// Ceiling on any single retry delay, seconds. The geometric backoff
    /// saturates here instead of growing without bound, so the cumulative
    /// wait before a transfer is forced through is provably at most
    /// [`StragglerSpec::total_retry_delay_s`] ≤ `max_retries *
    /// retry_delay_cap_s` — the collective deadline the elastic layer
    /// builds on.
    pub retry_delay_cap_s: f64,
}

impl StragglerSpec {
    /// A representative mild-degradation preset: roughly one worker in
    /// three computes up to 30 % slower, one link in four runs up to 50 %
    /// slower, and 5 % of bucket transfers drop with a 50 ms / 2× backoff
    /// retry schedule.
    pub fn with_seed(seed: u64) -> Self {
        StragglerSpec {
            seed,
            slow_worker_fraction: 0.34,
            compute_slowdown: 0.3,
            degraded_link_fraction: 0.25,
            link_degradation: 0.5,
            drop_probability: 0.05,
            retry_timeout_s: 0.05,
            retry_backoff: 2.0,
            max_retries: 3,
            retry_delay_cap_s: 60.0,
        }
    }

    /// Overrides the retry schedule: first-retry timeout (seconds),
    /// geometric backoff base, and the attempt count after which a drop
    /// decision is ignored and the transfer forced through.
    ///
    /// The backoff base is clamped to ≥ 1 and the timeout to ≥ 0 so a
    /// misconfigured spec can never shrink delays below zero or make the
    /// retry ladder collapse.
    pub fn with_retry(mut self, timeout_s: f64, backoff: f64, max_retries: u32) -> Self {
        self.retry_timeout_s = timeout_s.max(0.0);
        self.retry_backoff = backoff.max(1.0);
        self.max_retries = max_retries;
        self
    }

    /// Compute-time multiplier (≥ 1) for worker `w`.
    pub fn worker_compute_factor(&self, w: usize) -> f64 {
        if unit(self.seed, STREAM_SLOW_PICK, w as u64) < self.slow_worker_fraction {
            1.0 + self.compute_slowdown * unit(self.seed, STREAM_SLOW_FACTOR, w as u64)
        } else {
            1.0
        }
    }

    /// Link-time multiplier (≥ 1) for worker `w`'s NIC/PCIe path.
    pub fn worker_link_factor(&self, w: usize) -> f64 {
        if unit(self.seed, STREAM_LINK_PICK, w as u64) < self.degraded_link_fraction {
            1.0 + self.link_degradation * unit(self.seed, STREAM_LINK_FACTOR, w as u64)
        } else {
            1.0
        }
    }

    /// Whether transfer attempt `attempt` (0-based) of bucket `bucket`
    /// drops. Forced to succeed once `attempt` reaches `max_retries`.
    pub fn drops(&self, bucket: usize, attempt: u32) -> bool {
        attempt < self.max_retries
            && unit(self.seed, STREAM_DROP, (bucket as u64) << 8 | u64::from(attempt))
                < self.drop_probability
    }

    /// Timeout before retrying after failed attempt `attempt` (0-based),
    /// saturating at `retry_delay_cap_s` so a large backoff base cannot
    /// grow delays without bound before `max_retries` forces through.
    pub fn retry_delay_s(&self, attempt: u32) -> f64 {
        (self.retry_timeout_s * self.retry_backoff.powi(attempt as i32))
            .min(self.retry_delay_cap_s.max(0.0))
    }

    /// Total time a single bucket can spend waiting on retries before its
    /// transfer is forced through: the sum of every capped delay in the
    /// ladder. Bounded above by `max_retries * retry_delay_cap_s`; the
    /// elastic layer uses this as the collective deadline a dead worker
    /// must miss before the cohort evicts it.
    pub fn total_retry_delay_s(&self) -> f64 {
        (0..self.max_retries).map(|a| self.retry_delay_s(a)).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn draws_are_pure_functions_of_the_seed() {
        let a = StragglerSpec::with_seed(7);
        let b = StragglerSpec::with_seed(7);
        for w in 0..64 {
            assert_eq!(a.worker_compute_factor(w).to_bits(), b.worker_compute_factor(w).to_bits());
            assert_eq!(a.worker_link_factor(w).to_bits(), b.worker_link_factor(w).to_bits());
        }
        for bucket in 0..32 {
            for attempt in 0..4 {
                assert_eq!(a.drops(bucket, attempt), b.drops(bucket, attempt));
            }
        }
    }

    #[test]
    fn different_seeds_perturb_differently() {
        let a = StragglerSpec::with_seed(1);
        let b = StragglerSpec::with_seed(2);
        let fa: Vec<u64> = (0..256).map(|w| a.worker_compute_factor(w).to_bits()).collect();
        let fb: Vec<u64> = (0..256).map(|w| b.worker_compute_factor(w).to_bits()).collect();
        assert_ne!(fa, fb);
    }

    #[test]
    fn factors_are_bounded_and_some_workers_straggle() {
        let spec = StragglerSpec::with_seed(42);
        let mut slow = 0;
        for w in 0..1000 {
            let f = spec.worker_compute_factor(w);
            assert!((1.0..=1.0 + spec.compute_slowdown).contains(&f));
            if f > 1.0 {
                slow += 1;
            }
            let l = spec.worker_link_factor(w);
            assert!((1.0..=1.0 + spec.link_degradation).contains(&l));
        }
        // 34% of 1000 workers, generously bracketed.
        assert!((200..500).contains(&slow), "slow workers: {slow}");
    }

    #[test]
    fn drops_are_forced_through_after_max_retries() {
        let mut spec = StragglerSpec::with_seed(9);
        spec.drop_probability = 1.0;
        for bucket in 0..8 {
            for attempt in 0..spec.max_retries {
                assert!(spec.drops(bucket, attempt));
            }
            assert!(!spec.drops(bucket, spec.max_retries));
        }
    }

    #[test]
    fn backoff_grows_geometrically() {
        let spec = StragglerSpec::with_seed(0);
        assert!((spec.retry_delay_s(0) - 0.05).abs() < 1e-12);
        assert!((spec.retry_delay_s(2) - 0.2).abs() < 1e-12);
    }

    #[test]
    fn with_retry_overrides_and_clamps() {
        let spec = StragglerSpec::with_seed(0).with_retry(0.1, 3.0, 5);
        assert!((spec.retry_timeout_s - 0.1).abs() < 1e-12);
        assert!((spec.retry_delay_s(1) - 0.3).abs() < 1e-12);
        assert_eq!(spec.max_retries, 5);
        // Degenerate inputs are clamped to sane values, not propagated.
        let clamped = StragglerSpec::with_seed(0).with_retry(-1.0, 0.5, 0);
        assert_eq!(clamped.retry_timeout_s, 0.0);
        assert_eq!(clamped.retry_backoff, 1.0);
        assert_eq!(clamped.max_retries, 0);
        // max_retries == 0 means every drop decision is ignored.
        let mut certain = clamped;
        certain.drop_probability = 1.0;
        assert!(!certain.drops(0, 0));
    }

    #[test]
    fn retry_delay_saturates_at_the_cap() {
        let mut spec = StragglerSpec::with_seed(0).with_retry(1.0, 1e6, 8);
        spec.retry_delay_cap_s = 2.5;
        assert_eq!(spec.retry_delay_s(0).to_bits(), 1.0f64.to_bits());
        for attempt in 1..8 {
            assert_eq!(spec.retry_delay_s(attempt).to_bits(), 2.5f64.to_bits());
        }
        // A negative cap clamps to zero rather than producing negative delays.
        spec.retry_delay_cap_s = -1.0;
        assert_eq!(spec.retry_delay_s(3), 0.0);
    }

    #[test]
    fn cumulative_retry_delay_respects_the_documented_cap() {
        // Property: for any spec, the total wait a bucket can accumulate
        // across its whole retry ladder is ≤ max_retries * retry_delay_cap_s
        // (and matches the sum of per-attempt delays exactly).
        for seed in 0..64u64 {
            let timeout = 0.01 + unit(seed, 101, 0) * 10.0;
            let backoff = 1.0 + unit(seed, 102, 0) * 99.0;
            let max_retries = 1 + (unit(seed, 103, 0) * 12.0) as u32;
            let cap = 0.05 + unit(seed, 104, 0) * 5.0;
            let mut spec = StragglerSpec::with_seed(seed).with_retry(timeout, backoff, max_retries);
            spec.retry_delay_cap_s = cap;
            let total = spec.total_retry_delay_s();
            let bound = f64::from(max_retries) * cap;
            assert!(
                total <= bound + 1e-9,
                "seed {seed}: total {total} exceeds documented cap {bound}"
            );
            let manual: f64 = (0..max_retries).map(|a| spec.retry_delay_s(a)).sum();
            assert_eq!(total.to_bits(), manual.to_bits());
            for attempt in 0..max_retries {
                assert!(spec.retry_delay_s(attempt) <= cap);
            }
        }
    }

    #[test]
    fn unit_is_order_independent() {
        // Drawing the same (seed, stream, index) triple in any order or
        // interleaving yields identical bits — the property the resilience
        // layer's fault schedule builds on.
        let forward: Vec<u64> = (0..64).map(|i| unit(11, 3, i).to_bits()).collect();
        let backward: Vec<u64> = (0..64).rev().map(|i| unit(11, 3, i).to_bits()).collect();
        let reversed: Vec<u64> = backward.into_iter().rev().collect();
        assert_eq!(forward, reversed);
        for &bits in &forward {
            let v = f64::from_bits(bits);
            assert!((0.0..1.0).contains(&v));
        }
    }
}
