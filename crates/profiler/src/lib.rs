//! The paper's end-to-end analysis toolchain (§3.4).
//!
//! * [`sampling`] — the accurate-and-time-efficient profiling methodology
//!   of §3.4.2: synthesise a full training run (warm-up, autotuning,
//!   steady state), detect when throughput stabilises, and sample only a
//!   short window;
//! * [`metrics`] — assembles the §3.4.3 metric set (throughput, GPU
//!   compute utilisation, FP32 utilisation, CPU utilisation, memory
//!   breakdown) for a workload × framework × device combination;
//! * [`kernels`] — nvprof-style per-kernel aggregation and the
//!   "longest kernels with below-average FP32 utilisation" tables
//!   (paper Tables 5 and 6).
//!
//! # Examples
//!
//! ```
//! use tbd_profiler::{analyze, SamplingConfig};
//! use tbd_frameworks::Framework;
//! use tbd_gpusim::GpuSpec;
//! use tbd_models::ModelKind;
//!
//! # fn main() -> Result<(), tbd_profiler::AnalysisError> {
//! let model = ModelKind::A3c.build_full(8).expect("builds");
//! let report = analyze(
//!     ModelKind::A3c,
//!     Framework::mxnet(),
//!     &model,
//!     &GpuSpec::quadro_p4000(),
//!     &SamplingConfig::default(),
//!     1,
//! )?;
//! let rel = (report.sampled_throughput - report.metrics.throughput).abs()
//!     / report.metrics.throughput;
//! assert!(rel < 0.05, "sampling recovers the steady state");
//! # Ok(())
//! # }
//! ```

pub mod agg;
pub mod diagnose;
pub mod http;
pub mod json;
pub mod kernels;
pub mod live;
pub mod metrics;
pub mod pipeline;
pub mod pool;
pub mod report;
pub mod sampling;
pub mod trace;

pub use agg::{
    aggregate, KernelAttribution, Log2Histogram, MemoryAttribution, MetricsRegistry,
    StreamingAggregator,
};
pub use live::{observe, LiveServer, Observation, RenderedReport, WatchConfig};
pub use pool::{SubmitError, WorkerPool};
pub use report::{ReportContext, DIGEST_TIMESTAMP};
pub use diagnose::{
    diagnose, diagnose_events, diagnose_named, BottleneckClass, Diagnosis, DiagnosisReport,
    Evidence, DIAGNOSE_DRIFT_TOLERANCE, DIAGNOSE_SCHEMA_VERSION,
};
pub use kernels::{kernel_table, KernelTableRow};
pub use pipeline::{analyze, AnalysisError, AnalysisReport};
pub use metrics::{profile_workload, WorkloadMetrics};
pub use trace::{capture, capture_into, Capture, KernelRow, SummaryRow, Trace, TraceOptions};
pub use sampling::{
    detect_stable_window, sampled_throughput, synthesize_run, SamplingConfig, TrainingRun,
};
