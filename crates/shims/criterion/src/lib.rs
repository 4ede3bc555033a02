//! Offline stand-in for the [`criterion`](https://docs.rs/criterion/0.5)
//! benchmark harness.
//!
//! The build container has no crates registry, so this crate supplies the
//! subset of criterion's API that the workspace's benches use —
//! [`black_box`], [`Criterion::bench_function`], [`Bencher::iter`], and the
//! [`criterion_group!`] / [`criterion_main!`] macros — backed by a real
//! wall-clock measurement loop. Each benchmark is auto-calibrated to a
//! per-sample iteration count, timed over `sample_size` samples, and
//! reported as median / mean / min nanoseconds per iteration on stdout.
//! There are no plots, no saved baselines, and no statistical regression
//! analysis; numbers are comparable within a machine, which is all the
//! workspace's bench satellite needs.

use std::hint;
use std::time::{Duration, Instant};

/// Opaque value barrier preventing the optimizer from deleting benchmarked
/// work. Forwards to [`std::hint::black_box`].
pub fn black_box<T>(x: T) -> T {
    hint::black_box(x)
}

/// Benchmark driver: holds measurement settings and runs named benchmarks.
#[derive(Debug, Clone)]
pub struct Criterion {
    sample_size: usize,
    measurement_time: Duration,
    warm_up_time: Duration,
}

impl Default for Criterion {
    fn default() -> Self {
        Criterion {
            sample_size: 100,
            measurement_time: Duration::from_secs(5),
            warm_up_time: Duration::from_secs(3),
        }
    }
}

impl Criterion {
    /// Sets the number of timed samples collected per benchmark.
    #[must_use]
    pub fn sample_size(mut self, n: usize) -> Self {
        assert!(n >= 2, "sample_size must be at least 2");
        self.sample_size = n;
        self
    }

    /// Sets the target total measurement time per benchmark.
    #[must_use]
    pub fn measurement_time(mut self, t: Duration) -> Self {
        self.measurement_time = t;
        self
    }

    /// Sets the warm-up time before samples are collected.
    #[must_use]
    pub fn warm_up_time(mut self, t: Duration) -> Self {
        self.warm_up_time = t;
        self
    }

    /// Runs `f` with a [`Bencher`] and prints per-iteration statistics.
    pub fn bench_function<F>(&mut self, id: &str, mut f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        let mut b = Bencher {
            sample_size: self.sample_size,
            measurement_time: self.measurement_time,
            warm_up_time: self.warm_up_time,
            samples_ns: Vec::new(),
        };
        f(&mut b);
        b.report(id);
        self
    }
}

/// Times one benchmark body; handed to [`Criterion::bench_function`]
/// closures.
#[derive(Debug)]
pub struct Bencher {
    sample_size: usize,
    measurement_time: Duration,
    warm_up_time: Duration,
    samples_ns: Vec<f64>,
}

impl Bencher {
    /// Measures `routine`, auto-calibrating how many iterations make up one
    /// sample so that short routines are timed above clock resolution.
    pub fn iter<O, R>(&mut self, mut routine: R)
    where
        R: FnMut() -> O,
    {
        // Warm-up: run until the warm-up budget elapses, and use the
        // observed rate to pick the per-sample iteration count.
        let warm_start = Instant::now();
        let mut warm_iters: u64 = 0;
        while warm_start.elapsed() < self.warm_up_time {
            black_box(routine());
            warm_iters += 1;
        }
        let per_iter = warm_start.elapsed().as_secs_f64() / warm_iters as f64;
        let budget = self.measurement_time.as_secs_f64() / self.sample_size as f64;
        let iters_per_sample = ((budget / per_iter) as u64).max(1);

        self.samples_ns.clear();
        for _ in 0..self.sample_size {
            let t0 = Instant::now();
            for _ in 0..iters_per_sample {
                black_box(routine());
            }
            let dt = t0.elapsed();
            self.samples_ns.push(dt.as_secs_f64() * 1e9 / iters_per_sample as f64);
        }
    }

    fn report(&self, id: &str) {
        assert!(!self.samples_ns.is_empty(), "benchmark {id:?} never called Bencher::iter");
        let mut sorted = self.samples_ns.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("sample times are finite"));
        let median = sorted[sorted.len() / 2];
        let min = sorted[0];
        let mean = sorted.iter().sum::<f64>() / sorted.len() as f64;
        println!(
            "{id:<48} median {} mean {} min {} ({} samples)",
            fmt_ns(median),
            fmt_ns(mean),
            fmt_ns(min),
            sorted.len(),
        );
    }
}

/// Formats nanoseconds with a human-readable unit, criterion-style.
fn fmt_ns(ns: f64) -> String {
    if ns < 1e3 {
        format!("{ns:8.2} ns")
    } else if ns < 1e6 {
        format!("{:8.2} µs", ns / 1e3)
    } else if ns < 1e9 {
        format!("{:8.2} ms", ns / 1e6)
    } else {
        format!("{:8.2} s ", ns / 1e9)
    }
}

/// Bundles benchmark functions into a named group runner, supporting both
/// the simple `criterion_group!(name, target, ...)` form and the
/// `name = ...; config = ...; targets = ...` form.
#[macro_export]
macro_rules! criterion_group {
    (name = $name:ident; config = $config:expr; targets = $($target:path),+ $(,)?) => {
        fn $name() {
            let mut criterion: $crate::Criterion = $config;
            $($target(&mut criterion);)+
        }
    };
    ($name:ident, $($target:path),+ $(,)?) => {
        $crate::criterion_group!(
            name = $name;
            config = $crate::Criterion::default();
            targets = $($target),+
        );
    };
}

/// Emits `main`, running each group in order.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $($group();)+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick() -> Criterion {
        Criterion::default()
            .sample_size(3)
            .warm_up_time(Duration::from_millis(5))
            .measurement_time(Duration::from_millis(15))
    }

    #[test]
    fn bench_function_collects_samples() {
        let mut c = quick();
        c.bench_function("shim_self_test", |b| b.iter(|| (0..100u64).map(black_box).sum::<u64>()));
    }

    #[test]
    fn group_macro_forms_compile() {
        fn target(c: &mut Criterion) {
            c.bench_function("group_target", |b| b.iter(|| black_box(1 + 1)));
        }
        criterion_group! {
            name = configured;
            config = quick();
            targets = target
        }
        criterion_group!(simple, target);
        // The macros expand to zero-arg fns; invoking them runs the group.
        configured();
        simple();
    }
}
