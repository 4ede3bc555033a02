//! `tbd chaos`: the cross-layer fault-injection report (DESIGN.md §5f).
//!
//! The command wraps the deterministic proxy trainer
//! ([`tbd_train::proxy_session`], a tiny dropout MLP — the dropout node
//! makes bit-exactness sensitive to the session step counter) in the
//! `tbd-train` resilience loop, parameterised by the *named* workload: the
//! simulated iteration time and the OOM degradation ladder come from the
//! model/framework/device triple via `tbd-memopt`, so the goodput numbers
//! reflect the workload the user asked about while the replay machinery
//! (which is model-independent) stays cheap enough for CI.
//!
//! Two runs share one seed: the faulted run under the requested
//! [`RecoveryPolicy`] and its fault-free twin, both through `run_proxy`,
//! the helper `tbd diagnose --faults` also uses. Under
//! [`RecoveryPolicy::ReplayExact`] the two must finish with
//! bitwise-identical parameter hashes — the report records both digests
//! and the verdict. Everything in the report is a pure function of
//! `(model, framework, batch, seed, steps, preset, policy)`: fault draws
//! are counter-based, time is a logical clock, and every kernel is
//! bit-stable across thread counts, so the report digest is identical for
//! `intra_op_threads` 1 and 4 (pinned by `tests/chaos.rs`).

use std::collections::BTreeMap;
use std::fmt::Write as _;
use tbd_frameworks::Framework;
use tbd_gpusim::GpuSpec;
use tbd_graph::trace::{events_digest, TraceRecorder};
use tbd_graph::ExecConfig;
use tbd_memopt::Strategy;
use tbd_models::ModelKind;
use tbd_profiler::json::{self, Canonical};
use tbd_profiler::DiagnosisReport;
use tbd_train::{
    plan_degradation, proxy_feeds, proxy_session, DegradationLadder, DegradationOutcome, FaultKind,
    FaultSpec, RecoveryPolicy, ResilienceConfig, ResilientTrainer, RunOutcome, Sgd,
};

/// Version stamp of the chaos-report JSON schema.
pub const CHAOS_SCHEMA_VERSION: u64 = 1;

/// Named fault-rate presets for the CLI's `--faults` flag.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultPreset {
    /// No faults (the harness still runs both twins; they must agree).
    None,
    /// A few percent of attempts fault ([`FaultSpec::mild`]).
    Mild,
    /// Roughly 4× mild ([`FaultSpec::heavy`]).
    Heavy,
}

impl FaultPreset {
    /// Parses a `--faults` value.
    ///
    /// # Errors
    ///
    /// Returns a message listing the valid names.
    pub fn parse(name: &str) -> Result<FaultPreset, String> {
        match name {
            "none" => Ok(FaultPreset::None),
            "mild" => Ok(FaultPreset::Mild),
            "heavy" => Ok(FaultPreset::Heavy),
            other => Err(format!("unknown fault preset '{other}' (none, mild, heavy)")),
        }
    }

    /// Stable name (round-trips through [`FaultPreset::parse`]).
    pub fn name(self) -> &'static str {
        match self {
            FaultPreset::None => "none",
            FaultPreset::Mild => "mild",
            FaultPreset::Heavy => "heavy",
        }
    }

    /// The rate schedule this preset stands for, rooted at `seed`.
    pub fn spec(self, seed: u64) -> FaultSpec {
        match self {
            FaultPreset::None => FaultSpec::none(seed),
            FaultPreset::Mild => FaultSpec::mild(seed),
            FaultPreset::Heavy => FaultSpec::heavy(seed),
        }
    }
}

/// Stable name of a degradation strategy for reports.
fn strategy_name(strategy: Strategy) -> String {
    match strategy {
        Strategy::Baseline => "baseline".into(),
        Strategy::Checkpoint { segments } => format!("checkpoint({segments})"),
        Strategy::Offload { fraction } => format!("offload({fraction:.2})"),
        Strategy::HalfPrecisionActivations => "half-precision".into(),
    }
}

/// Serialisable slice of a [`DegradationOutcome`].
#[derive(Debug, Clone, PartialEq)]
pub struct DegradationSummary {
    /// Strategy the ladder settled on.
    pub strategy: String,
    /// Mini-batch after any halving.
    pub batch: usize,
    /// Device footprint of the chosen plan, bytes.
    pub total_bytes: u64,
    /// Ladder rungs tried before one fit.
    pub rungs_tried: u32,
}

impl DegradationSummary {
    fn from_outcome(out: &DegradationOutcome) -> DegradationSummary {
        DegradationSummary {
            strategy: strategy_name(out.strategy),
            batch: out.batch,
            total_bytes: out.profile.total_bytes,
            rungs_tried: out.rungs_tried,
        }
    }
}

tbd_profiler::json_record!(DegradationSummary, "degradation summary";
    fields { strategy, batch, total_bytes, rungs_tried }
    digested { strategy, ":" batch, ":" total_bytes, ":" rungs_tried });

/// A full `tbd chaos` report: one faulted run, its fault-free twin, and
/// the bit-exactness verdict.
#[derive(Debug, Clone, PartialEq)]
pub struct ChaosReport {
    /// Schema version ([`CHAOS_SCHEMA_VERSION`]).
    pub schema_version: u64,
    /// Named workload parameterising iteration time and the OOM ladder.
    pub model: String,
    /// Framework profile name.
    pub framework: String,
    /// Requested (possibly infeasible) mini-batch.
    pub batch: usize,
    /// Root seed of the fault schedule, proxy session and feeds.
    pub seed: u64,
    /// Logical steps trained.
    pub steps: u64,
    /// Fault preset name.
    pub preset: String,
    /// Recovery policy name ([`RecoveryPolicy::name`]).
    pub policy: String,
    /// Simulated cost of one training step of the named workload, seconds.
    pub iteration_s: f64,
    /// Faults injected, total.
    pub faults_injected: u64,
    /// Faults per kind label (only kinds that fired).
    pub faults_by_kind: BTreeMap<String, u64>,
    /// Recovery actions taken.
    pub recoveries: u64,
    /// Steps re-executed after restores.
    pub replayed_steps: u64,
    /// Batches dropped without an update.
    pub skipped_steps: u64,
    /// Steps that exhausted retries and were forced through.
    pub forced_through: u64,
    /// Checkpoints written (initial + interval + rewrites).
    pub checkpoints_written: u64,
    /// Size of the last checkpoint, bytes.
    pub checkpoint_bytes: u64,
    /// Simulated time spent recovering, seconds.
    pub recovery_time_s: f64,
    /// Total simulated run time, seconds.
    pub sim_time_s: f64,
    /// Executed samples per simulated second.
    pub throughput: f64,
    /// Useful samples per simulated second (never exceeds throughput).
    pub goodput: f64,
    /// Parameter digest of the faulted run, hex.
    pub param_hash: String,
    /// Parameter digest of the fault-free twin, hex.
    pub fault_free_hash: String,
    /// `true` iff the two digests match (the headline invariant under the
    /// replay-exact policy).
    pub replay_exact: bool,
    /// Plan chosen by the first OOM recovery, when one fired.
    pub degradation: Option<DegradationSummary>,
    /// FNV-1a digest of the faulted run's canonical resilience-event lines.
    pub trace_digest: String,
    /// Trace-mining diagnosis of the faulted run (DESIGN.md §5h). Not
    /// digested — the diagnosis carries its own digest and drift gate, so
    /// pinned chaos baselines stay valid.
    pub diagnosis: Option<DiagnosisReport>,
}

tbd_profiler::json_record!(ChaosReport, "chaos report", schema = CHAOS_SCHEMA_VERSION;
    fields {
        schema_version, model, framework, batch, seed, steps, preset, policy, iteration_s,
        faults_injected, faults_by_kind, recoveries, replayed_steps, skipped_steps,
        forced_through, checkpoints_written, checkpoint_bytes, recovery_time_s, sim_time_s,
        throughput, goodput, param_hash, fault_free_hash, replay_exact, degradation,
        trace_digest, diagnosis,
    }
    digested {
        model, "|" framework, "|b:" batch, "|seed:" seed, "|steps:" steps, "|" preset,
        "|" policy, "|iter:" iteration_s, "|f:" faults_injected, "|r:" recoveries,
        "|rp:" replayed_steps, "|sk:" skipped_steps, "|ft:" forced_through,
        "|ck:" checkpoints_written, "|ckb:" checkpoint_bytes, "|rt:" recovery_time_s,
        "|st:" sim_time_s, "|tp:" throughput, "|gp:" goodput, "|ph:" param_hash,
        "|fh:" fault_free_hash, "|ex:" replay_exact, "|" trace_digest, faults_by_kind,
        "|deg:" degradation,
    }
    derived { digest = ChaosReport::digest_hex });

/// Trains the chaos proxy ([`proxy_session`] with its session and feeds
/// both rooted at `seed`) for `steps` logical steps under `config` and
/// `policy`.
///
/// # Errors
///
/// Returns the message of a genuine graph error.
pub(crate) fn run_proxy(
    seed: u64,
    exec: ExecConfig,
    config: ResilienceConfig,
    policy: RecoveryPolicy,
    steps: u64,
    tracer: Option<&TraceRecorder>,
) -> Result<RunOutcome, String> {
    let (session, x, t, loss) = proxy_session(seed, exec);
    ResilientTrainer::new(session, loss, Sgd::new(0.1), config, policy)
        .run(steps, proxy_feeds(seed, x, t), tracer)
        .map_err(|e| e.to_string())
}

impl ChaosReport {
    /// Runs the chaos harness: profiles the named workload's degradation
    /// ladder for the iteration time, trains the proxy twice (faulted and
    /// fault-free) under the chosen policy, and assembles the report.
    ///
    /// `intra_op_threads` sets the proxy executor's kernel thread cap; the
    /// report digest must not depend on it.
    ///
    /// # Errors
    ///
    /// Returns a message when the workload has no feasible plan at any
    /// ladder rung or a genuine graph error surfaces.
    #[allow(clippy::too_many_arguments)]
    pub fn run(
        kind: ModelKind,
        framework: Framework,
        batch: usize,
        gpu: &GpuSpec,
        seed: u64,
        steps: u64,
        preset: FaultPreset,
        policy: RecoveryPolicy,
        intra_op_threads: usize,
    ) -> Result<ChaosReport, String> {
        let ladder = DegradationLadder { kind, framework, gpu: gpu.clone(), batch };
        // The ladder profile supplies the simulated step cost even when the
        // requested batch OOMs at baseline — the plan always fits.
        let plan = plan_degradation(&ladder).ok_or_else(|| {
            format!("{} has no feasible plan on {} even at batch 1", kind.name(), gpu.name)
        })?;
        let iteration_s = plan.profile.iteration_s;

        let mut config = ResilienceConfig::with_faults(preset.spec(seed));
        config.iteration_s = iteration_s;
        config.samples_per_step = batch as u64;
        config.ladder = Some(ladder);
        let exec = ExecConfig { intra_op_threads, inter_op_parallel: false };

        let clean_config = ResilienceConfig { faults: FaultSpec::none(seed), ..config.clone() };
        let clean = run_proxy(seed, exec, clean_config, policy, steps, None)?;
        let tracer = TraceRecorder::shared();
        let faulted = run_proxy(seed, exec, config, policy, steps, Some(&tracer))?;
        let events = tracer.drain();
        let diagnosis =
            tbd_profiler::diagnose_events(kind.name(), framework.name(), batch, &events);

        let faults_by_kind = FaultKind::ALL
            .into_iter()
            .filter(|k| faulted.faults_by_kind[k.index()] > 0)
            .map(|k| (k.label().to_string(), faulted.faults_by_kind[k.index()]))
            .collect();

        Ok(ChaosReport {
            schema_version: CHAOS_SCHEMA_VERSION,
            model: kind.name().to_string(),
            framework: framework.name().to_string(),
            batch,
            seed,
            steps,
            preset: preset.name().to_string(),
            policy: policy.name().to_string(),
            iteration_s,
            faults_injected: faulted.faults_injected,
            faults_by_kind,
            recoveries: faulted.recoveries,
            replayed_steps: faulted.replayed_steps,
            skipped_steps: faulted.skipped_steps,
            forced_through: faulted.forced_through,
            checkpoints_written: faulted.checkpoints_written,
            checkpoint_bytes: faulted.checkpoint_bytes,
            recovery_time_s: faulted.recovery_time_s,
            sim_time_s: faulted.sim_time_s,
            throughput: faulted.throughput(),
            goodput: faulted.goodput(),
            param_hash: format!("{:016x}", faulted.param_hash),
            fault_free_hash: format!("{:016x}", clean.param_hash),
            replay_exact: faulted.param_hash == clean.param_hash,
            degradation: faulted.degraded.as_ref().map(DegradationSummary::from_outcome),
            trace_digest: format!("{:016x}", events_digest(&events)),
            diagnosis: Some(diagnosis),
        })
    }

    /// Compares this report against a pinned snapshot: the fault schedule
    /// and parameter digests must match exactly, goodput within
    /// [`json::DETERMINISTIC_DRIFT_TOLERANCE`] (the harness is
    /// deterministic).
    ///
    /// # Errors
    ///
    /// Returns one line per divergence.
    pub fn check_drift(&self, baseline: &ChaosReport) -> Result<(), String> {
        let mut failures = Vec::new();
        let same_config = self.model == baseline.model
            && self.seed == baseline.seed
            && self.steps == baseline.steps
            && self.preset == baseline.preset
            && self.policy == baseline.policy;
        if !same_config {
            failures.push(format!(
                "configuration mismatch: report is {}/{}/seed {}/{} steps/{}, baseline is {}/{}/seed {}/{} steps/{}",
                self.model, self.preset, self.seed, self.steps, self.policy,
                baseline.model, baseline.preset, baseline.seed, baseline.steps, baseline.policy
            ));
        }
        if self.faults_injected != baseline.faults_injected {
            failures.push(format!(
                "faults_injected {} != pinned {}",
                self.faults_injected, baseline.faults_injected
            ));
        }
        if self.recoveries != baseline.recoveries {
            failures
                .push(format!("recoveries {} != pinned {}", self.recoveries, baseline.recoveries));
        }
        if self.param_hash != baseline.param_hash {
            failures
                .push(format!("param_hash {} != pinned {}", self.param_hash, baseline.param_hash));
        }
        if self.replay_exact != baseline.replay_exact {
            failures.push(format!(
                "replay_exact {} != pinned {}",
                self.replay_exact, baseline.replay_exact
            ));
        }
        let drift =
            (self.goodput - baseline.goodput).abs() / baseline.goodput.abs().max(f64::MIN_POSITIVE);
        if drift > json::DETERMINISTIC_DRIFT_TOLERANCE {
            failures.push(format!(
                "goodput {:.3} drifted {:.2e} from pinned {:.3}",
                self.goodput, drift, baseline.goodput
            ));
        }
        json::verdict(failures)
    }

    /// Renders the report as markdown (the CI chaos artifact).
    pub fn to_markdown(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "# `tbd chaos` — {} / {} / batch {} / seed {}\n",
            self.model, self.framework, self.batch, self.seed
        );
        let _ = writeln!(
            out,
            "{} steps, `{}` faults under the `{}` policy; simulated step cost {:.1} ms.\n",
            self.steps,
            self.preset,
            self.policy,
            self.iteration_s * 1e3
        );
        let _ = writeln!(out, "| metric | value |");
        let _ = writeln!(out, "|---|---:|");
        let _ = writeln!(out, "| faults injected | {} |", self.faults_injected);
        for (kind, count) in &self.faults_by_kind {
            let _ = writeln!(out, "| — {kind} | {count} |");
        }
        let _ = writeln!(out, "| recoveries | {} |", self.recoveries);
        let _ = writeln!(out, "| replayed steps | {} |", self.replayed_steps);
        let _ = writeln!(out, "| skipped steps | {} |", self.skipped_steps);
        let _ = writeln!(out, "| forced through | {} |", self.forced_through);
        let _ = writeln!(
            out,
            "| checkpoints | {} (last {:.1} KB) |",
            self.checkpoints_written,
            self.checkpoint_bytes as f64 / 1e3
        );
        let _ = writeln!(out, "| recovery time | {:.3} s |", self.recovery_time_s);
        let _ = writeln!(out, "| simulated time | {:.3} s |", self.sim_time_s);
        let _ = writeln!(out, "| throughput | {:.2} samples/s |", self.throughput);
        let _ = writeln!(out, "| goodput | {:.2} samples/s |", self.goodput);
        if let Some(d) = &self.degradation {
            let _ = writeln!(
                out,
                "| OOM degradation | {} at batch {} ({:.2} GB, {} rungs) |",
                d.strategy,
                d.batch,
                d.total_bytes as f64 / 1e9,
                d.rungs_tried
            );
        }
        let _ = writeln!(
            out,
            "\nparameter digests: faulted `{}` vs fault-free `{}` — **{}**",
            self.param_hash,
            self.fault_free_hash,
            if self.replay_exact {
                "bitwise identical (replay-exact)"
            } else {
                "diverged (expected under batch-skipping policies)"
            }
        );
        if let Some(d) = &self.diagnosis {
            let top = d.top1();
            let _ = writeln!(
                out,
                "\ndiagnosis: **{}** (confidence {:.2}) — {}",
                top.class.label(),
                top.confidence,
                top.remediation
            );
        }
        let _ = writeln!(
            out,
            "\nreport digest `{}`, trace digest `{}`",
            self.digest_hex(),
            self.trace_digest
        );
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_report() -> ChaosReport {
        ChaosReport::run(
            ModelKind::A3c,
            Framework::mxnet(),
            8,
            &GpuSpec::quadro_p4000(),
            7,
            12,
            FaultPreset::Heavy,
            RecoveryPolicy::ReplayExact,
            1,
        )
        .expect("A3C fits")
    }

    #[test]
    fn report_round_trips_and_digests_stably() {
        let report = tiny_report();
        assert!(report.faults_injected > 0, "heavy preset must fault");
        assert!(report.replay_exact, "replay-exact policy preserves the trajectory");
        assert!(report.goodput <= report.throughput + 1e-12);
        let text = report.to_json().to_string();
        let parsed = ChaosReport::from_json_text(&text).expect("round trip");
        assert_eq!(parsed, report);
        assert_eq!(parsed.digest_hex(), report.digest_hex());
        let bumped = text.replace("\"schema_version\":1", "\"schema_version\":99");
        assert!(ChaosReport::from_json_text(&bumped).is_err());
    }

    #[test]
    fn drift_gate_passes_self_and_catches_changes() {
        let report = tiny_report();
        report.check_drift(&report).expect("self never drifts");
        let mut moved = report.clone();
        moved.param_hash = "0000000000000000".into();
        assert!(moved.check_drift(&report).is_err());
    }

    #[test]
    fn markdown_carries_the_verdict() {
        let report = tiny_report();
        let md = report.to_markdown();
        assert!(md.contains("bitwise identical"), "{md}");
        assert!(md.contains("goodput"), "{md}");
    }

    #[test]
    fn preset_names_round_trip() {
        for preset in [FaultPreset::None, FaultPreset::Mild, FaultPreset::Heavy] {
            assert_eq!(FaultPreset::parse(preset.name()).unwrap(), preset);
        }
        assert!(FaultPreset::parse("catastrophic").is_err());
    }
}
