//! **TBD** — a Training Benchmark for DNNs, reproduced in Rust.
//!
//! This crate is the public facade of the workspace reproducing
//! *TBD: Benchmarking and Analyzing Deep Neural Network Training*
//! (Zhu et al., IISWC 2018): eight training workloads across six
//! application domains, three framework execution profiles, an analytic
//! GPU device model, and the paper's full analysis toolchain.
//!
//! # Quickstart
//!
//! ```
//! use tbd_core::{Suite, ModelKind, Framework, GpuSpec};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let suite = Suite::new(GpuSpec::quadro_p4000());
//! let profile = suite.run(ModelKind::ResNet50, Framework::mxnet(), 16)?;
//! println!(
//!     "ResNet-50 b16 on MXNet: {:.1} images/s, GPU util {:.0}%",
//!     profile.throughput,
//!     100.0 * profile.iteration.gpu_utilization
//! );
//! # Ok(())
//! # }
//! ```
//!
//! The benchmark binaries regenerating every table and figure of the
//! paper's evaluation live in the `tbd-bench` crate; see `DESIGN.md` for
//! the per-experiment index and `EXPERIMENTS.md` for paper-versus-measured
//! results.

pub mod chaos;
pub mod compare;
pub mod diagnose;
pub mod elastic;
pub mod loadgen;
pub mod registry;
pub mod scale;
pub mod serve;
pub mod suite;
pub mod survey;
pub mod trajectory;

pub use chaos::{ChaosReport, DegradationSummary, FaultPreset, CHAOS_SCHEMA_VERSION};
pub use compare::{compare_models, ComparabilityReport};
pub use diagnose::{named_clusters, run_diagnose, DiagnoseOptions, DEFAULT_STRAGGLER_CLUSTER};
pub use elastic::{ElasticEntry, ElasticReport, CHURN_RATE_LADDER, ELASTIC_SCHEMA_VERSION};
pub use loadgen::{run_loadgen, LoadgenConfig, LoadgenMode, LoadgenReport, LOADGEN_SCHEMA_VERSION};
pub use registry::{table2, Table2Row};
pub use scale::{ScaleEntry, ScaleReport, SCALE_SCHEMA_VERSION};
pub use serve::{
    parse_query, ServeConfig, ServeEngine, ServeQuery, ServeServer, SERVE_SCHEMA_VERSION,
};
pub use suite::{paper_batches, RunError, Suite};
pub use survey::{table1, SurveyCell};
pub use trajectory::{
    iso_date_today, BenchEntry, BenchReport, LoadgenSummary, SpeedTier, BENCH_SCHEMA_VERSION,
    DRIFT_TOLERANCE, WALL_DRIFT_TOLERANCE,
};

pub use tbd_frameworks::{Framework, FrameworkKind, WorkloadHints, WorkloadProfile};
pub use tbd_gpusim::{CpuSpec, GpuSpec, Interconnect, MemoryCategory, OutOfMemory};
pub use tbd_models::{BuiltModel, ModelKind};
pub use tbd_profiler::{
    kernel_table, profile_workload, BottleneckClass, DiagnosisReport, KernelTableRow,
    DIAGNOSE_SCHEMA_VERSION,
};
