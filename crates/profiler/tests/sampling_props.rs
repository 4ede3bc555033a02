//! Property tests for the §3.4.2 sampling methodology.
//!
//! Two invariants the detector must hold for *every* plausible run shape,
//! not just the synthesised fixtures in the unit tests:
//!
//! 1. a monotone warm-up transient is always excluded — the sampled
//!    throughput recovers the steady state regardless of how tall or how
//!    slow the transient is;
//! 2. window statistics are invariant under order-preserving rescaling —
//!    measuring in milliseconds instead of seconds must select the same
//!    window and scale throughput exactly inversely.

use proptest::prelude::*;
use tbd_profiler::{detect_stable_window, sampling::window_throughput, SamplingConfig};

/// A noiseless run: monotone-decaying warm-up `s * (1 + a * g^i)` followed
/// by a perfectly steady tail at `s`.
fn monotone_warmup_run(steady: f64, amplitude: f64, decay: f64, warmup: usize) -> Vec<f64> {
    (0..warmup + 400)
        .map(
            |i| {
                if i < warmup {
                    steady * (1.0 + amplitude * decay.powi(i as i32))
                } else {
                    steady
                }
            },
        )
        .collect()
}

proptest! {
    /// Invariant 1: whatever the warm-up's height (5–9x steady) and decay
    /// rate, the detected window's mean is unbiased — the transient never
    /// leaks into the sample enough to move throughput.
    #[test]
    fn monotone_warmup_prefix_is_always_excluded(
        steady in 0.05f64..0.5,
        amplitude in 5.0f64..9.0,
        decay in 0.85f64..0.93,
        warmup in 50usize..300,
    ) {
        let run = monotone_warmup_run(steady, amplitude, decay, warmup);
        let cfg = SamplingConfig::default();
        let window = detect_stable_window(&run, &cfg)
            .expect("a run with a steady tail must stabilise");
        let (start, end) = window;
        prop_assert!(end <= run.len());
        prop_assert!(end - start <= cfg.sample_iters);
        // The early transient (still above 50% excess) can never be in
        // the sample: its rolling windows have CV far above the cutoff.
        let tall = (0..warmup)
            .rfind(|&i| run[i] > steady * 1.5)
            .map_or(0, |i| i + 1);
        prop_assert!(
            start + cfg.window > tall,
            "window start {start} admits iterations still {amplitude:.1}x-transient-tall \
             (tall prefix ends at {tall})"
        );
        // And the sampled throughput recovers steady state to within 5%.
        let throughput = window_throughput(&run, window, 32)
            .expect("positive-duration window has finite throughput");
        let truth = 32.0 / steady;
        prop_assert!(
            (throughput - truth).abs() / truth < 0.05,
            "sampled {throughput} vs steady-state {truth}"
        );
    }

    /// Invariant 2: rescaling every iteration time by a positive constant
    /// (an order-preserving unit change) selects the same window, and the
    /// window throughput scales exactly inversely.
    #[test]
    fn window_stats_invariant_under_rescaling(
        steady in 0.05f64..0.5,
        amplitude in 5.0f64..9.0,
        decay in 0.85f64..0.93,
        warmup in 50usize..300,
        scale in 1.0e-3f64..1.0e3,
    ) {
        let run = monotone_warmup_run(steady, amplitude, decay, warmup);
        let scaled: Vec<f64> = run.iter().map(|t| t * scale).collect();
        let cfg = SamplingConfig::default();
        let base = detect_stable_window(&run, &cfg).expect("stabilises");
        let rescaled = detect_stable_window(&scaled, &cfg).expect("stabilises");
        prop_assert_eq!(base, rescaled, "CV is dimensionless: same window either way");
        let t_base = window_throughput(&run, base, 64).expect("finite");
        let t_scaled = window_throughput(&scaled, rescaled, 64).expect("finite");
        let expected = t_base / scale;
        prop_assert!(
            (t_scaled - expected).abs() <= expected.abs() * 1e-9,
            "throughput must scale inversely: {t_scaled} vs {expected}"
        );
    }
}
