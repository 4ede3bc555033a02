//! Host speed: a fixed reference kernel timed beside the workload.
//!
//! On a shared host the CPU time of the same work drifts by a third or
//! more over minutes, as co-tenants load the caches, memory and cores of
//! the machine; a 30-second run can sit wholly inside such a stretch, so no
//! choice of samples within one run removes it. The CPU-bound workloads
//! therefore run a [`Reference`] kernel between their operations and state
//! every time at the host speed [`NOMINAL_MS`] stands for: an operation
//! that took `t` ms of CPU while the reference nearby took `r` ms is
//! reported as `t · NOMINAL_MS / r` ("nominal ms").
//!
//! The reference is the benchmark's own code — a sort of a fixed array,
//! branchy and cache-resident like the profiler's aggregation and export
//! paths, with no allocation — so no change to the program moves it: a
//! program that gets slower reads slower in full, while a host that gets
//! slower cancels out.

use crate::host::cpu_s;
use crate::stats::{median, sorted};

/// CPU milliseconds one [`Reference::run_ms`] takes on a quiet host of the
/// kind the benchmark was defined on (2-core Intel Xeon VM, release build;
/// it took 0.60–0.90 ms there as the load of co-tenants changed); times
/// are reported at this speed.
pub const NOMINAL_MS: f64 = 0.6;

/// Elements of the reference array.
const LEN: usize = 32 * 1024;

/// The reference kernel with its fixed input and a reusable buffer.
pub struct Reference {
    input: Vec<u64>,
    buf: Vec<u64>,
}

impl Default for Reference {
    fn default() -> Self {
        Self::new()
    }
}

impl Reference {
    /// The kernel and its input: the same fixed pseudo-random array on
    /// every run, whatever the workload seed.
    pub fn new() -> Reference {
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        let input: Vec<u64> = (0..LEN)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x
            })
            .collect();
        Reference {
            buf: input.clone(),
            input,
        }
    }

    /// Runs the kernel once; returns its CPU milliseconds.
    ///
    /// # Panics
    ///
    /// Panics when the sort leaves the buffer unsorted (a broken build).
    pub fn run_ms(&mut self) -> f64 {
        let t0 = cpu_s();
        self.buf.copy_from_slice(&self.input);
        self.buf.sort_unstable();
        std::hint::black_box(&self.buf);
        let ms = (cpu_s() - t0) * 1e3;
        assert!(
            self.buf.windows(2).all(|w| w[0] <= w[1]),
            "reference unsorted"
        );
        ms
    }
}

/// The factor that states times measured beside `reference_ms` at the
/// nominal host speed: [`NOMINAL_MS`] over their median.
///
/// # Panics
///
/// Panics on no reference timings.
pub fn scale(reference_ms: &[f64]) -> f64 {
    NOMINAL_MS / median(&sorted(reference_ms)).max(1e-6)
}

/// Reference runs before and after a call timed by [`nominal_cpu_s`].
const AROUND: usize = 4;

/// Runs `f` between reference runs; returns its result and the CPU
/// seconds it took at nominal host speed.
pub fn nominal_cpu_s<T>(reference: &mut Reference, f: impl FnOnce() -> T) -> (T, f64) {
    let mut reference_ms: Vec<f64> = (0..AROUND).map(|_| reference.run_ms()).collect();
    let cpu0 = cpu_s();
    let out = f();
    let cpu = cpu_s() - cpu0;
    reference_ms.extend((0..AROUND).map(|_| reference.run_ms()));
    (out, cpu * scale(&reference_ms))
}
