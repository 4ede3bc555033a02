//! Host-time benchmark of the tbd workspace.
//!
//! Three workloads drive the crates' public functions and time what the
//! Rust code itself costs on the host (simulated time is the product of
//! the system and serves here only as a correctness oracle):
//!
//! * [`train`] — real CPU training of four tiny models through
//!   `tbd-tensor` → `tbd-graph` → `tbd-train`, with periodic in-memory
//!   checkpoint round trips;
//! * [`analyze`] — the paper's analysis toolchain (capture, streaming
//!   aggregation, diagnosis, report render, exporters) over every
//!   supported model×framework pair;
//! * [`serve`] — an open loop of HTTP queries against an in-process
//!   `tbd serve` server.
//!
//! Every workload reports the same end-to-end metrics (see
//! [`report::Summary`]); a traced run additionally records spans around
//! each layer call ([`spans`]) and reports per-layer self times. CPU-bound
//! figures are stated at a nominal host speed ([`speed`]), so that a shared
//! host's changing load does not read as a change of the program.

pub mod analyze;
pub mod host;
pub mod loadgen;
pub mod report;
pub mod rng;
pub mod serve;
pub mod spans;
pub mod speed;
pub mod stats;
pub mod train;

use std::time::Duration;

/// Arguments of one benchmark run.
#[derive(Debug, Clone)]
pub struct RunArgs {
    /// Input seed: the same seed gives the same inputs.
    pub seed: u64,
    /// Length of the measured window.
    pub window: Duration,
    /// Record spans and report per-layer metrics instead of end-to-end.
    pub trace: bool,
}

/// How many times each workload sets itself up; `setup_s` is the median.
pub const SETUP_REPEATS: usize = 7;
