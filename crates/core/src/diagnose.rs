//! `tbd diagnose`: orchestration for the trace-mining diagnosis engine
//! (DESIGN.md §5h).
//!
//! The engine itself ([`tbd_profiler::diagnose_events`]) is a pure
//! function of a trace; this module builds the trace the user asked
//! about. A full capture of the named workload always runs (executor +
//! simulated device timeline). On top of that, two optional stages extend
//! the event stream before mining:
//!
//! * **cluster** — replay the captured iteration through the
//!   `tbd-distrib` event engine on a *named* grid point (`--cluster
//!   "2M1G ethernet"`), optionally with deterministic straggler injection
//!   (`--stragglers`). The capture's own built-in 1M2G stage is dropped
//!   first so the requested cluster's exchange is the only one the miner
//!   sees — keeping both would double-fold the communication gauges.
//! * **faults** — run the chaos proxy trainer under a fault preset
//!   (`--faults mild|heavy`) and the default recovery policy, through the
//!   same helper as `tbd chaos`, appending the resilience events
//!   (`Fault`/`Recovery`/`Checkpoint` plus the logical-clock run span).
//!
//! Everything is simulated time, so the resulting report digest is
//! bitwise-stable across hosts and thread counts.

use tbd_distrib::{fig10_clusters, scale_grid, ClusterConfig, EventConfig, StragglerSpec};
use tbd_frameworks::{Framework, SpeedOptions};
use tbd_gpusim::GpuSpec;
use tbd_graph::trace::{TraceLayer, TraceRecorder};
use tbd_graph::ExecConfig;
use tbd_models::ModelKind;
use tbd_profiler::{capture, DiagnosisReport, TraceOptions};
use tbd_train::{RecoveryPolicy, ResilienceConfig};

use crate::chaos::{run_proxy, FaultPreset};

/// What to fold into the diagnosed trace beyond the base capture.
#[derive(Debug, Clone)]
pub struct DiagnoseOptions {
    /// Grid label of a cluster stage (`"2M1G ethernet"`, `"1M4G pcie"`,
    /// …); `None` runs no cluster stage unless `stragglers` asks for one.
    pub cluster: Option<String>,
    /// Inject deterministic stragglers into the cluster stage (implies a
    /// cluster stage on [`DEFAULT_STRAGGLER_CLUSTER`] when no `cluster`
    /// label was given).
    pub stragglers: bool,
    /// Root seed of straggler draws and the chaos proxy.
    pub seed: u64,
    /// Fault preset of the chaos stage ([`FaultPreset::None`] skips it).
    pub faults: FaultPreset,
    /// Logical steps of the chaos stage.
    pub steps: u64,
    /// Intra-op thread cap for the functional stages. Never affects the
    /// report digest: that invariance is pinned by the props tests.
    pub intra_op_threads: usize,
    /// Speed tier of the capture stage (fused f32 by default, the default
    /// capture path, so the pinned diagnose baseline is a fused digest).
    pub speed: SpeedOptions,
}

impl Default for DiagnoseOptions {
    fn default() -> Self {
        DiagnoseOptions {
            cluster: None,
            stragglers: false,
            seed: 7,
            faults: FaultPreset::None,
            steps: 40,
            intra_op_threads: 1,
            speed: TraceOptions::default().speed,
        }
    }
}

/// Cluster used by `--stragglers` when no `--cluster` label is given: a
/// fast single-machine point, so the straggler (not the interconnect)
/// dominates the diagnosis.
pub const DEFAULT_STRAGGLER_CLUSTER: &str = "1M4G pcie";

/// Every named grid point `--cluster` accepts: the Fig. 10 set plus the
/// 1M1G→4M4G sweep grid, deduplicated by label in that order.
pub fn named_clusters() -> Vec<(String, ClusterConfig)> {
    let mut out = fig10_clusters();
    for (label, cluster) in scale_grid() {
        if !out.iter().any(|(have, _)| *have == label) {
            out.push((label, cluster));
        }
    }
    out
}

/// Resolves a grid label (`"2M1G ethernet"`, `"1M4G pcie"`, …) against
/// [`named_clusters`] — shared by `tbd diagnose` and the `tbd serve`
/// query parser.
///
/// # Errors
///
/// Returns a message listing every known label for an unknown one.
pub fn resolve_cluster(label: &str) -> Result<ClusterConfig, String> {
    let known = named_clusters();
    known.iter().find(|(have, _)| have == label).map(|(_, cluster)| *cluster).ok_or_else(|| {
        let names: Vec<&str> = known.iter().map(|(have, _)| have.as_str()).collect();
        format!("unknown cluster '{label}' (expected one of: {})", names.join(", "))
    })
}

/// Captures the named workload, folds in the requested cluster and fault
/// stages, and mines the combined trace into a ranked
/// [`DiagnosisReport`].
///
/// # Errors
///
/// Returns a message for an unknown cluster label, for a cluster stage
/// requested on a workload that OOMs at paper scale (there is no
/// iteration to replay), or for a genuine graph error.
pub fn run_diagnose(
    kind: ModelKind,
    framework: Framework,
    batch: usize,
    gpu: &GpuSpec,
    opts: &DiagnoseOptions,
) -> Result<DiagnosisReport, String> {
    let trace_opts = TraceOptions {
        intra_op_threads: opts.intra_op_threads,
        speed: opts.speed,
        ..TraceOptions::default()
    };
    let cap = capture(kind, framework, batch, gpu, &trace_opts).map_err(|e| e.to_string())?;
    let mut events = cap.trace.events;

    if opts.cluster.is_some() || opts.stragglers {
        // The capture embeds its own 1M2G distrib stage; keeping it would
        // double-fold the comm gauges (comm time sums across stages while
        // the cluster iteration gauge is overwritten), so the requested
        // cluster replaces it wholesale.
        events.retain(|e| e.layer != TraceLayer::Distrib);
        let sim = cap.worker.as_ref().ok_or_else(|| {
            format!(
                "{} at batch {batch} does not fit {}; no iteration to replay on a cluster",
                kind.name(),
                gpu.name
            )
        })?;
        let cluster = match &opts.cluster {
            Some(label) => resolve_cluster(label)?,
            None => resolve_cluster(DEFAULT_STRAGGLER_CLUSTER)?,
        };
        let config = EventConfig {
            stragglers: opts.stragglers.then(|| StragglerSpec::with_seed(opts.seed)),
            ..EventConfig::default()
        };
        let tracer = TraceRecorder::shared();
        let _ = sim.simulate_events(&cluster, &config, Some(&tracer));
        events.append(&mut tracer.drain());
    }

    if opts.faults != FaultPreset::None {
        let exec = ExecConfig { intra_op_threads: opts.intra_op_threads, inter_op_parallel: false };
        let cfg = ResilienceConfig::with_faults(opts.faults.spec(opts.seed));
        let tracer = TraceRecorder::shared();
        run_proxy(opts.seed, exec, cfg, RecoveryPolicy::Default, opts.steps, Some(&tracer))?;
        events.append(&mut tracer.drain());
    }

    Ok(tbd_profiler::diagnose_events(kind.name(), framework.name(), batch, &events))
}

#[cfg(test)]
mod tests {
    use super::*;
    use tbd_profiler::json::Canonical;
    use tbd_tensor::Precision;

    #[test]
    fn cluster_labels_resolve_and_reject() {
        assert!(resolve_cluster("2M1G ethernet").is_ok());
        assert!(resolve_cluster(DEFAULT_STRAGGLER_CLUSTER).is_ok());
        let err = resolve_cluster("9M9G carrier-pigeon").unwrap_err();
        assert!(err.contains("2M1G ethernet"), "{err}");
    }

    #[test]
    fn healthy_small_capture_is_compute_bound() {
        let report = run_diagnose(
            ModelKind::A3c,
            Framework::mxnet(),
            4,
            &GpuSpec::quadro_p4000(),
            &DiagnoseOptions::default(),
        )
        .expect("A3C fits");
        assert_eq!(report.top1().class.label(), "compute-bound", "{report:?}");
    }

    #[test]
    fn speed_tier_flags_reach_the_capture_stage() {
        // The unfused/f16 capture produces a different trace but the same
        // healthy verdict — the flags must not be silently ignored.
        let opts = DiagnoseOptions {
            speed: SpeedOptions { fuse: false, precision: Precision::F16 },
            ..DiagnoseOptions::default()
        };
        let report =
            run_diagnose(ModelKind::A3c, Framework::mxnet(), 4, &GpuSpec::quadro_p4000(), &opts)
                .expect("A3C fits");
        assert_eq!(report.top1().class.label(), "compute-bound", "{report:?}");
        let fused = run_diagnose(
            ModelKind::A3c,
            Framework::mxnet(),
            4,
            &GpuSpec::quadro_p4000(),
            &DiagnoseOptions::default(),
        )
        .expect("A3C fits");
        assert_ne!(
            report.digest_hex(),
            fused.digest_hex(),
            "speed-tier flags change the captured trace"
        );
    }

    #[test]
    fn fault_stage_surfaces_recovery_overhead() {
        let opts = DiagnoseOptions { faults: FaultPreset::Heavy, ..DiagnoseOptions::default() };
        let report =
            run_diagnose(ModelKind::A3c, Framework::mxnet(), 4, &GpuSpec::quadro_p4000(), &opts)
                .expect("A3C fits");
        let labels: Vec<&str> = report.diagnoses.iter().map(|d| d.class.label()).collect();
        assert!(
            labels.iter().any(|l| *l == "recovery-overhead" || *l == "oom-pressure"),
            "heavy faults must surface a resilience diagnosis, got {labels:?}"
        );
    }
}
