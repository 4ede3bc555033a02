//! The paper's end-to-end analysis toolchain (§3.4).
//!
//! * [`sampling`] — the accurate-and-time-efficient profiling methodology
//!   of §3.4.2: synthesise a full training run (warm-up, autotuning,
//!   steady state), detect when throughput stabilises, and sample only a
//!   short window;
//! * [`metrics`] — [`profile_workload`], the one paper-scale profile of a
//!   workload × framework × device combination that every §3.4.3 metric
//!   (throughput, GPU compute, FP32 and CPU utilisation, memory
//!   breakdown) is read from, traced or not;
//! * [`kernels`] — nvprof-style per-kernel aggregation and the
//!   "longest kernels with below-average FP32 utilisation" tables
//!   (paper Tables 5 and 6);
//! * [`trace`] and [`live`] — the one analysis path of the paper's
//!   Fig. 3 toolchain: [`observe`] records a workload into a [`Trace`],
//!   folds it into a [`MetricsRegistry`] (stable-window throughput
//!   included) and exports the nvprof-style timeline as Chrome JSON.
//!
//! # Examples
//!
//! ```
//! use tbd_profiler::{kernel_table, observe, TraceOptions};
//! use tbd_frameworks::{Framework, SpeedOptions};
//! use tbd_gpusim::GpuSpec;
//! use tbd_models::ModelKind;
//!
//! let framework = Framework::mxnet();
//! let options =
//!     TraceOptions { functional: false, speed: SpeedOptions::default(), ..Default::default() };
//! let obs = observe(ModelKind::A3c, framework, 8, &GpuSpec::quadro_p4000(), &options, None)
//!     .expect("builds");
//! let profile = obs.capture.profile.as_ref().expect("batch 8 fits the device");
//! let (_, _, sampled) = obs.stable_window().expect("the run stabilises");
//! let rel = (sampled - profile.throughput).abs() / profile.throughput;
//! assert!(rel < 0.05, "sampling recovers the steady state");
//! assert!(!kernel_table(&profile.iteration.records, framework, 5).is_empty());
//! ```

pub mod agg;
pub mod diagnose;
pub mod http;
pub mod json;
pub mod kernels;
pub mod live;
pub mod metrics;
pub mod pool;
pub mod report;
pub mod sampling;
pub mod trace;

pub use agg::{aggregate, Log2Histogram, MetricsRegistry, StreamingAggregator};
pub use diagnose::{
    diagnose, diagnose_events, diagnose_named, BottleneckClass, Diagnosis, DiagnosisReport,
    Evidence, DIAGNOSE_SCHEMA_VERSION,
};
pub use kernels::{kernel_table, KernelTableRow};
pub use live::{observe, LiveServer, Observation, RenderedReport, WatchConfig};
pub use metrics::profile_workload;
pub use pool::{SubmitError, WorkerPool};
pub use report::{parse_digest_file, ReportContext, DIGEST_TIMESTAMP};
pub use sampling::{
    detect_stable_window, sampled_throughput, synthesize_run, SamplingConfig, TrainingRun,
};
pub use trace::{capture, capture_into, Capture, SummaryRow, Trace, TraceOptions};
