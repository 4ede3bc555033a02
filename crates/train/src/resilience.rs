//! Deterministic fault injection and recovery around the trainer — the
//! chaos harness.
//!
//! The paper's apparatus measures healthy runs; this module exercises the
//! failure modes a production stack must survive (worker crashes, allocator
//! OOM, non-finite losses, data-loader stalls, corrupted checkpoints) and
//! proves the recovery machinery correct by *bit-exactness*: under
//! [`RecoveryPolicy::ReplayExact`] a faulted run finishes with parameters
//! bitwise identical to the fault-free run.
//!
//! # Determinism
//!
//! Faults are scheduled by the same counter-based SplitMix64 scheme as
//! `tbd-distrib::fault`: whether attempt `retry` of logical step `step`
//! faults is a pure function of `(seed, kind, step, retry)` via
//! [`tbd_distrib::unit`]. Draws are order-independent and bit-stable, so a
//! given seed produces the identical fault schedule no matter the thread
//! count or evaluation order — which is what makes chaos reports
//! digest-stable across `intra_op_threads` settings.
//!
//! Raising any fault rate can only turn clean attempts into faulted ones
//! (threshold sampling `unit(…) < rate`), so `recoveries_total` is monotone
//! non-decreasing in the rates — a property test pins this.
//!
//! # Recovery taxonomy
//!
//! | Fault                  | Default policy        | Replay-exact policy |
//! |------------------------|-----------------------|---------------------|
//! | worker crash           | restore + replay      | restore + replay    |
//! | allocator OOM          | degrade via memopt    | degrade via memopt  |
//! | non-finite loss        | skip batch            | recompute batch     |
//! | data-loader stall      | wait + retry          | wait + retry        |
//! | corrupted checkpoint   | rewrite from live     | rewrite from live   |
//!
//! Every action except *skip batch* preserves the bitwise parameter
//! trajectory: restore/replay rewinds the dropout step counter through the
//! hardened checkpoint (see [`crate::checkpoint`]); recompute rewinds only
//! the counter; degrade/wait/rewrite never touch parameters. Skipping a
//! batch intentionally diverges (the update is dropped), which is why the
//! headline bit-exactness test runs under [`RecoveryPolicy::ReplayExact`].
//!
//! Time is simulated: every execution, checkpoint write, restore, replay,
//! stall and backoff charges a deterministic number of seconds to a logical
//! clock. The step cost comes from [`ResilienceConfig`]; the loop's fixed
//! costs (checkpoint interval and I/O bandwidth, stall base, re-planning,
//! backoff, the retry budget) are constants of this module. The clock also
//! timestamps the events the harness emits on the spine (`EventKind::Fault`
//! / `Recovery` / `Checkpoint`, executor layer, track
//! [`RESILIENCE_TRACK`]). **Goodput** — useful samples over
//! total simulated time — is throughput net of replayed, skipped and
//! wasted work, and can never exceed it.

use crate::checkpoint::{self, CheckpointError};
use crate::trainer::train_step;
use crate::Optimizer;
use tbd_distrib::{mix64, unit};
use tbd_frameworks::Framework;
use tbd_gpusim::GpuSpec;
use tbd_graph::trace::{value_hash, EventKind, TraceLayer, TraceRecorder, TraceStore};
use tbd_graph::{ExecConfig, GraphBuilder, GraphError, Init, NodeId, Op, Session};
use tbd_memopt::{profile_with_strategy, OptimizedProfile, Strategy};
use tbd_models::ModelKind;
use tbd_tensor::Tensor;

/// Executor-layer track carrying the resilience events (clear of the wave
/// scheduler's per-thread tracks and the allocator's memory track).
pub const RESILIENCE_TRACK: u32 = 9;

/// The faults the harness can inject.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultKind {
    /// The worker process dies; all live state is lost.
    WorkerCrash,
    /// The allocator rejects the iteration's working set.
    AllocOom,
    /// The loss comes back NaN/Inf (numeric blow-up or corrupt input).
    LossSpike,
    /// The data loader stalls and delivers the batch late.
    DataStall,
    /// The last written checkpoint is corrupted on storage.
    CorruptCheckpoint,
}

impl FaultKind {
    /// All kinds, in injection-priority order (most severe first: when
    /// several kinds fire on the same attempt, the first wins).
    pub const ALL: [FaultKind; 5] = [
        FaultKind::WorkerCrash,
        FaultKind::AllocOom,
        FaultKind::DataStall,
        FaultKind::CorruptCheckpoint,
        FaultKind::LossSpike,
    ];

    /// Stable label used in trace args, metrics series and reports.
    pub fn label(self) -> &'static str {
        match self {
            FaultKind::WorkerCrash => "worker-crash",
            FaultKind::AllocOom => "alloc-oom",
            FaultKind::LossSpike => "loss-spike",
            FaultKind::DataStall => "data-stall",
            FaultKind::CorruptCheckpoint => "corrupt-checkpoint",
        }
    }

    /// Position in [`FaultKind::ALL`].
    pub fn index(self) -> usize {
        FaultKind::ALL.iter().position(|k| *k == self).expect("listed kind")
    }

    /// RNG stream for this kind, distinct from `tbd-distrib::fault`'s
    /// streams 1–5 so a shared seed never correlates cluster stragglers
    /// with trainer faults.
    fn stream(self) -> u64 {
        11 + self.index() as u64
    }
}

/// Extra streams for fault parameters (not occurrence).
const STREAM_STALL_DURATION: u64 = 21;
const STREAM_CORRUPT_SITE: u64 = 22;

// The loop's fixed costs. All times are *simulated* seconds — they drive
// the logical clock and the goodput accounting, never wall time.

/// Useful steps between checkpoints.
const CHECKPOINT_INTERVAL: u64 = 5;
/// Faulted attempts tolerated per step before the fault draw is ignored
/// and the step forced through (TCP-style eventual progress — the loop can
/// never live-lock, even at rate 1.0).
const MAX_RETRIES: u32 = 8;
/// Checkpoint write bandwidth, bytes/second.
const CHECKPOINT_WRITE_BPS: f64 = 1e9;
/// Checkpoint read (restore) bandwidth, bytes/second.
const RESTORE_READ_BPS: f64 = 2e9;
/// Base data-loader stall, seconds (actual stall in `[base, 2·base)`).
const STALL_BASE_S: f64 = 0.2;
/// Cost of one memopt re-planning pass, seconds per rung.
const REPLAN_S: f64 = 0.05;
/// Backoff before the first retry, seconds.
const BACKOFF_BASE_S: f64 = 0.05;
/// Backoff multiplier per successive retry.
const BACKOFF_FACTOR: f64 = 2.0;

/// Seeded per-kind fault rates. All draws are pure functions of
/// `(seed, kind, step, retry)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultSpec {
    /// Root seed; the whole fault schedule is a pure function of it.
    pub seed: u64,
    /// Per-attempt probability of a worker crash.
    pub crash_rate: f64,
    /// Per-attempt probability of an allocator OOM.
    pub oom_rate: f64,
    /// Per-attempt probability of a non-finite loss.
    pub spike_rate: f64,
    /// Per-attempt probability of a data-loader stall.
    pub stall_rate: f64,
    /// Per-attempt probability of checkpoint corruption.
    pub corrupt_rate: f64,
}

impl FaultSpec {
    /// No faults at all (the fault-free twin of a chaos run).
    pub fn none(seed: u64) -> Self {
        FaultSpec {
            seed,
            crash_rate: 0.0,
            oom_rate: 0.0,
            spike_rate: 0.0,
            stall_rate: 0.0,
            corrupt_rate: 0.0,
        }
    }

    /// A representative mildly hostile environment: a few percent of
    /// attempts fault, every kind represented.
    pub fn mild(seed: u64) -> Self {
        FaultSpec {
            seed,
            crash_rate: 0.04,
            oom_rate: 0.03,
            spike_rate: 0.05,
            stall_rate: 0.06,
            corrupt_rate: 0.03,
        }
    }

    /// An aggressive preset (roughly 4× [`FaultSpec::mild`]).
    pub fn heavy(seed: u64) -> Self {
        FaultSpec::mild(seed).scaled(4.0)
    }

    /// The rate configured for `kind`.
    pub fn rate(&self, kind: FaultKind) -> f64 {
        match kind {
            FaultKind::WorkerCrash => self.crash_rate,
            FaultKind::AllocOom => self.oom_rate,
            FaultKind::LossSpike => self.spike_rate,
            FaultKind::DataStall => self.stall_rate,
            FaultKind::CorruptCheckpoint => self.corrupt_rate,
        }
    }

    /// Every rate multiplied by `factor` (clamped to `[0, 1]`).
    pub fn scaled(&self, factor: f64) -> Self {
        let s = |r: f64| (r * factor).clamp(0.0, 1.0);
        FaultSpec {
            seed: self.seed,
            crash_rate: s(self.crash_rate),
            oom_rate: s(self.oom_rate),
            spike_rate: s(self.spike_rate),
            stall_rate: s(self.stall_rate),
            corrupt_rate: s(self.corrupt_rate),
        }
    }

    /// Counter key for attempt `retry` of logical step `step` — the same
    /// `(index << 8) | attempt` packing as `StragglerSpec::drops`.
    fn key(step: u64, retry: u32) -> u64 {
        (step << 8) | u64::from(retry & 0xff)
    }

    /// Which fault (if any) fires on attempt `retry` of step `step`.
    ///
    /// Order-independent: the answer is a pure function of the arguments,
    /// so schedules can be queried in any order (or twice) and always
    /// agree. Monotone: raising a rate can only add faults, never remove
    /// one (a superset of `(step, retry)` pairs exceeds the threshold).
    pub fn fault_at(&self, step: u64, retry: u32) -> Option<FaultKind> {
        let key = Self::key(step, retry);
        FaultKind::ALL.into_iter().find(|k| unit(self.seed, k.stream(), key) < self.rate(*k))
    }

    /// Stall duration drawn for attempt `retry` of step `step`, seconds,
    /// in `[base, 2·base)`.
    pub fn stall_duration_s(&self, base_s: f64, step: u64, retry: u32) -> f64 {
        base_s * (1.0 + unit(self.seed, STREAM_STALL_DURATION, Self::key(step, retry)))
    }
}

/// Recovery actions a policy can take. Every action except
/// [`RecoveryAction::SkipBatch`] preserves the bitwise parameter
/// trajectory.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecoveryAction {
    /// Restore the last good checkpoint (parameters, optimizer state and
    /// step counter) and replay the lost steps, then retry.
    RestoreReplay,
    /// Drop the poisoned batch without an update and move on.
    SkipBatch,
    /// Rewind the step counter and recompute the batch (the injected
    /// spike is transient; the replayed forward is bit-identical).
    Recompute,
    /// Re-plan the iteration's memory through `tbd-memopt`'s ladder
    /// (checkpointing → offload → batch halving) and retry.
    Degrade,
    /// Wait out the stall and retry.
    Wait,
    /// Verify the damaged checkpoint (checksum fails), rewrite it from
    /// live state and retry.
    RewriteCheckpoint,
}

impl RecoveryAction {
    /// Stable label used in trace args, metrics series and reports.
    pub fn label(self) -> &'static str {
        match self {
            RecoveryAction::RestoreReplay => "restore-replay",
            RecoveryAction::SkipBatch => "skip-batch",
            RecoveryAction::Recompute => "recompute",
            RecoveryAction::Degrade => "degrade",
            RecoveryAction::Wait => "wait",
            RecoveryAction::RewriteCheckpoint => "rewrite-checkpoint",
        }
    }
}

/// Maps faults to recovery actions. A policy is a plain value, so runs
/// stay deterministic; every retry is paced by the same exponential
/// backoff.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecoveryPolicy {
    /// Production-shaped: restore on crash, memopt degradation on OOM,
    /// batch skipping on non-finite loss.
    Default,
    /// Like [`RecoveryPolicy::Default`] but recomputes a poisoned batch
    /// instead of skipping it, so *every* recovery preserves the bitwise
    /// parameter trajectory — the policy under which a faulted run must
    /// finish with parameters identical to the fault-free run.
    ReplayExact,
}

impl RecoveryPolicy {
    /// Action for `fault`.
    pub fn decide(self, fault: FaultKind) -> RecoveryAction {
        match fault {
            FaultKind::WorkerCrash => RecoveryAction::RestoreReplay,
            FaultKind::AllocOom => RecoveryAction::Degrade,
            FaultKind::LossSpike => match self {
                RecoveryPolicy::Default => RecoveryAction::SkipBatch,
                RecoveryPolicy::ReplayExact => RecoveryAction::Recompute,
            },
            FaultKind::DataStall => RecoveryAction::Wait,
            FaultKind::CorruptCheckpoint => RecoveryAction::RewriteCheckpoint,
        }
    }

    /// Stable name used in reports and by the CLI's `--policy` flag.
    pub fn name(self) -> &'static str {
        match self {
            RecoveryPolicy::Default => "default",
            RecoveryPolicy::ReplayExact => "replay-exact",
        }
    }
}

/// The model-level context OOM degradation re-plans against.
#[derive(Debug, Clone)]
pub struct DegradationLadder {
    /// Workload being trained.
    pub kind: ModelKind,
    /// Framework profile supplying memory planning and hints.
    pub framework: Framework,
    /// Device whose capacity the plan must fit.
    pub gpu: GpuSpec,
    /// Requested (possibly infeasible) mini-batch.
    pub batch: usize,
}

/// What the degradation ladder settled on.
#[derive(Debug, Clone, PartialEq)]
pub struct DegradationOutcome {
    /// Strategy that fits (possibly `Baseline` when nothing was wrong).
    pub strategy: Strategy,
    /// Mini-batch after any halving.
    pub batch: usize,
    /// Profile of the chosen plan; its `total_bytes` fits the device.
    pub profile: OptimizedProfile,
    /// Ladder rungs tried before one fit (1 = baseline fit directly).
    pub rungs_tried: u32,
}

/// Walks the degradation ladder until the footprint fits the device:
/// baseline → gradient checkpointing → activation offload (60 %, then
/// 90 %) → halve the batch and start over. Never aborts — returns `None`
/// only if even batch 1 with 90 % offload cannot fit (no real workload in
/// the zoo reaches that).
pub fn plan_degradation(ladder: &DegradationLadder) -> Option<DegradationOutcome> {
    let rungs = [
        Strategy::Baseline,
        Strategy::Checkpoint { segments: 8 },
        Strategy::Offload { fraction: 0.6 },
        Strategy::Offload { fraction: 0.9 },
    ];
    let mut batch = ladder.batch.max(1);
    let mut tried = 0u32;
    loop {
        if let Ok(model) = ladder.kind.build_full(batch) {
            let hints = ladder.framework.hints(ladder.kind, batch);
            for strategy in rungs {
                tried += 1;
                if let Ok(profile) =
                    profile_with_strategy(ladder.framework, &model, &ladder.gpu, hints, strategy)
                {
                    return Some(DegradationOutcome {
                        strategy,
                        batch,
                        profile,
                        rungs_tried: tried,
                    });
                }
            }
        }
        if batch == 1 {
            return None;
        }
        batch /= 2;
    }
}

/// What a caller chooses about a resilience run; the loop's fixed costs
/// are constants of this module.
#[derive(Debug, Clone)]
pub struct ResilienceConfig {
    /// Fault schedule.
    pub faults: FaultSpec,
    /// Simulated cost of one training step, seconds.
    pub iteration_s: f64,
    /// Samples a step consumes (the throughput/goodput numerator unit).
    pub samples_per_step: u64,
    /// Model-level context for OOM degradation (optional: without it the
    /// Degrade action only charges re-planning time).
    pub ladder: Option<DegradationLadder>,
    /// When `true`, a corrupt-checkpoint fault is *detected* (checksum
    /// verified, read time charged) but not immediately healed — the
    /// corruption stays latent on storage, so a later crash must fall back
    /// through the checkpoint history. `false` (the default) heals on the
    /// spot, the production-shaped behaviour.
    pub defer_corrupt_heal: bool,
}

impl ResilienceConfig {
    /// Defaults around a fault schedule: 100 ms steps of 32 samples, no
    /// degradation ladder, corrupt checkpoints healed on the spot.
    pub fn with_faults(faults: FaultSpec) -> Self {
        ResilienceConfig {
            faults,
            iteration_s: 0.1,
            samples_per_step: 32,
            ladder: None,
            defer_corrupt_heal: false,
        }
    }
}

/// How many checkpoints the trainer retains: the newest plus two fallbacks.
/// A restore scans newest → oldest for the first one whose checksum still
/// verifies, so a corrupted latest file costs replayed steps, never the run.
pub const CHECKPOINT_HISTORY: usize = 3;

/// What a resilient run did, with enough accounting to compute goodput.
#[derive(Debug, Clone, PartialEq)]
pub struct RunOutcome {
    /// Steps that completed and contributed to training (includes batches
    /// skipped by policy: the step is done even if its update was dropped).
    pub useful_steps: u64,
    /// Forward passes actually executed: useful + replayed + wasted.
    pub executed_steps: u64,
    /// Steps re-executed after a restore.
    pub replayed_steps: u64,
    /// Batches dropped by the skip-batch policy (no update applied).
    pub skipped_steps: u64,
    /// Faults injected, total.
    pub faults_injected: u64,
    /// Faults per kind, indexed like [`FaultKind::ALL`].
    pub faults_by_kind: [u64; 5],
    /// Recovery actions taken (one per fault; the loop never aborts).
    pub recoveries: u64,
    /// Steps that exhausted the retry budget and were forced through.
    pub forced_through: u64,
    /// Restores that skipped past a corrupt newest checkpoint to an older
    /// valid one in the history (each costs extra replayed steps).
    pub fallback_restores: u64,
    /// Checkpoints written (including the initial one and rewrites).
    pub checkpoints_written: u64,
    /// Size of the last checkpoint, bytes.
    pub checkpoint_bytes: u64,
    /// Total simulated time spent in recovery (restores, replays, stalls,
    /// re-planning, backoff), seconds.
    pub recovery_time_s: f64,
    /// Total simulated run time, seconds.
    pub sim_time_s: f64,
    /// Samples per step (copied from the config for rate computation).
    pub samples_per_step: u64,
    /// Degradation plan chosen by the first OOM recovery, if any fired.
    pub degraded: Option<DegradationOutcome>,
    /// Loss of the last applied update (NaN if every batch was skipped).
    pub final_loss: f32,
    /// FNV digest over every parameter's name and bit pattern.
    pub param_hash: u64,
}

impl RunOutcome {
    /// Executed samples per simulated second (all work, lost or not).
    pub fn throughput(&self) -> f64 {
        if self.sim_time_s > 0.0 {
            (self.executed_steps * self.samples_per_step) as f64 / self.sim_time_s
        } else {
            0.0
        }
    }

    /// Useful samples per simulated second — throughput net of replayed
    /// and wasted work. `useful_steps − skipped_steps ≤ executed_steps`
    /// by construction, so goodput can never exceed throughput.
    pub fn goodput(&self) -> f64 {
        if self.sim_time_s > 0.0 {
            let useful = self.useful_steps.saturating_sub(self.skipped_steps);
            (useful * self.samples_per_step) as f64 / self.sim_time_s
        } else {
            0.0
        }
    }

    /// Share of the simulated run spent in recovery (restores, replays,
    /// stalls, re-planning, backoff), or `None` for a zero-duration run —
    /// the recovery-overhead accounting the diagnosis engine consumes.
    pub fn recovery_fraction(&self) -> Option<f64> {
        if self.sim_time_s > 0.0 && self.sim_time_s.is_finite() {
            Some(self.recovery_time_s / self.sim_time_s)
        } else {
            None
        }
    }
}

/// Order-stable FNV digest over every parameter of a session: name bytes
/// then the bitwise [`value_hash`] of the tensor. Two sessions hash equal
/// iff their parameters are bitwise identical (and identically named).
pub fn param_hash(session: &Session) -> u64 {
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    let mix = |h: &mut u64, bytes: &[u8]| {
        for &b in bytes {
            *h ^= u64::from(b);
            *h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
    };
    for (id, _) in session.graph().params() {
        let name = match &session.graph().node(*id).op {
            Op::Parameter { name } => name.clone(),
            _ => continue,
        };
        if let Some(t) = session.param(*id) {
            mix(&mut h, name.as_bytes());
            mix(&mut h, &value_hash(t.data()).to_le_bytes());
        }
    }
    h
}

/// The chaos harness's deterministic proxy workload: a tiny dropout MLP
/// whose bitwise parameter trajectory depends on the session step counter
/// — exactly the state replay must preserve. Returns the session (seeded
/// with `seed`), the `x` and `t` input nodes and the scalar loss.
pub fn proxy_session(seed: u64, exec: ExecConfig) -> (Session, NodeId, NodeId, NodeId) {
    let mut g = GraphBuilder::new();
    let x = g.input("x", [4, 8]);
    let w1 = g.parameter("fc1/w", [8, 16], Init::Xavier { fan_in: 8, fan_out: 16 });
    let b1 = g.parameter("fc1/b", [16], Init::Zeros);
    let h = g.matmul(x, w1).expect("proxy graph");
    let h = g.add_bias(h, b1).expect("proxy graph");
    let h = g.relu(h).expect("proxy graph");
    let h = g.dropout(h, 0.25).expect("proxy graph");
    let w2 = g.parameter("fc2/w", [16, 4], Init::Xavier { fan_in: 16, fan_out: 4 });
    let b2 = g.parameter("fc2/b", [4], Init::Zeros);
    let logits = g.matmul(h, w2).expect("proxy graph");
    let logits = g.add_bias(logits, b2).expect("proxy graph");
    let t = g.input("t", [4]);
    let loss = g.cross_entropy(logits, t).expect("proxy graph");
    (Session::with_exec(g.finish(), seed, exec), x, t, loss)
}

/// Feeds of [`proxy_session`] as a pure function of the logical step index
/// (the replay contract), drawn from a counter-based stream rooted at
/// `seed`.
pub fn proxy_feeds(seed: u64, x: NodeId, t: NodeId) -> impl Fn(u64) -> Vec<(NodeId, Tensor)> {
    move |step| {
        let xs: Vec<f32> = (0..32u64).map(|i| unit(seed, 77, step * 64 + i) as f32 - 0.5).collect();
        let ts: Vec<f32> = (0..4u64).map(|i| ((step + i) % 4) as f32).collect();
        vec![(x, Tensor::from_vec(xs, [4, 8]).expect("proxy batch")), (t, Tensor::from_slice(&ts))]
    }
}

/// In-memory checkpoint: serialized bytes plus the optimizer state cloned
/// at the same instant (optimizer state is not part of the v2 file format;
/// the harness snapshots it beside the bytes).
struct Stored<O> {
    bytes: Vec<u8>,
    optimizer: O,
    step: u64,
}

/// A fault-injecting, self-recovering training loop around a [`Session`].
///
/// See the module docs for the fault taxonomy and determinism contract.
pub struct ResilientTrainer<O: Optimizer + Clone> {
    session: Session,
    loss: NodeId,
    optimizer: O,
    config: ResilienceConfig,
    policy: RecoveryPolicy,
}

impl<O: Optimizer + Clone> ResilientTrainer<O> {
    /// Wraps a session, its scalar loss node, an optimizer, the chaos
    /// configuration and a recovery policy.
    pub fn new(
        session: Session,
        loss: NodeId,
        optimizer: O,
        config: ResilienceConfig,
        policy: RecoveryPolicy,
    ) -> Self {
        ResilientTrainer { session, loss, optimizer, config, policy }
    }

    /// The wrapped session (for evaluation or hashing after a run).
    pub fn session(&self) -> &Session {
        &self.session
    }

    /// Runs `target_steps` logical steps to completion, injecting faults
    /// and recovering per the policy — the loop never aborts on a fault.
    /// `feeds` must be a pure function of the logical step index: replay
    /// correctness (and therefore bit-exact recovery) depends on step `s`
    /// always seeing the same batch.
    ///
    /// # Errors
    ///
    /// Propagates genuine graph-execution errors (bad feeds, kernel
    /// failures) — those are bugs, not injected faults.
    pub fn run(
        &mut self,
        target_steps: u64,
        feeds: impl Fn(u64) -> Vec<(NodeId, Tensor)>,
        tracer: Option<&TraceRecorder>,
    ) -> Result<RunOutcome, GraphError> {
        let cfg = self.config.clone();
        let mut clock_s = 0.0f64;
        let mut out = RunOutcome {
            useful_steps: 0,
            executed_steps: 0,
            replayed_steps: 0,
            skipped_steps: 0,
            faults_injected: 0,
            faults_by_kind: [0; 5],
            recoveries: 0,
            forced_through: 0,
            fallback_restores: 0,
            checkpoints_written: 0,
            checkpoint_bytes: 0,
            recovery_time_s: 0.0,
            sim_time_s: 0.0,
            samples_per_step: cfg.samples_per_step,
            degraded: None,
            final_loss: f32::NAN,
            param_hash: 0,
        };

        // Initial checkpoint so the very first crash has somewhere to go.
        // The trainer retains up to [`CHECKPOINT_HISTORY`] snapshots,
        // newest last, so a corrupt latest file still leaves a way back.
        let mut history: Vec<Stored<O>> = Vec::new();
        let initial = self.write_checkpoint(&mut clock_s, &mut out, tracer);
        retain_history(&mut history, initial);

        for step in 0..target_steps {
            let mut retry = 0u32;
            loop {
                let forced = retry >= MAX_RETRIES;
                let fault = if forced { None } else { cfg.faults.fault_at(step, retry) };
                let Some(kind) = fault else {
                    if forced {
                        out.forced_through += 1;
                    }
                    // Clean (or forced) execution of the step.
                    out.final_loss = train_step(
                        &mut self.session,
                        self.loss,
                        &mut self.optimizer,
                        &feeds(step),
                    )?;
                    clock_s += cfg.iteration_s;
                    out.executed_steps += 1;
                    out.useful_steps += 1;
                    if (step + 1) % CHECKPOINT_INTERVAL == 0 {
                        let fresh = self.write_checkpoint(&mut clock_s, &mut out, tracer);
                        retain_history(&mut history, fresh);
                    }
                    break;
                };

                out.faults_injected += 1;
                out.faults_by_kind[kind.index()] += 1;
                emit(tracer, |event| {
                    let name = event.intern(format!("fault/{}", kind.label()));
                    event
                        .span(name, TraceLayer::Executor, EventKind::Fault, clock_s * 1e6, 0.0)
                        .on_track(RESILIENCE_TRACK)
                        .with_arg("fault", kind.label())
                        .with_arg("step", step)
                        .with_arg("retry", u64::from(retry));
                });

                let action = self.policy.decide(kind);
                let recovery_start_s = clock_s;
                let mut replayed_now = 0u64;
                match action {
                    RecoveryAction::RestoreReplay => {
                        // The crash destroyed live state. Scan the history
                        // newest → oldest for the first checkpoint whose
                        // checksum still verifies: a corrupt latest file
                        // costs extra replayed steps, never the run.
                        let back =
                            history.iter().rev().position(|s| checkpoint::verify(&s.bytes).is_ok());
                        let restored = match back {
                            Some(back) => {
                                if back > 0 {
                                    out.fallback_restores += 1;
                                }
                                &history[history.len() - 1 - back]
                            }
                            None => {
                                // Every retained checkpoint is corrupt:
                                // heal from live state (params are still
                                // intact in this simulated crash).
                                let fresh = self.write_checkpoint(&mut clock_s, &mut out, tracer);
                                retain_history(&mut history, fresh);
                                history.last().expect("just pushed")
                            }
                        };
                        checkpoint::load(&mut self.session, restored.bytes.as_slice())
                            .expect("verified checkpoint loads");
                        self.optimizer = restored.optimizer.clone();
                        clock_s += restored.bytes.len() as f64 / RESTORE_READ_BPS;
                        let restored_step = restored.step;
                        // Replay the steps lost since that checkpoint.
                        for lost in restored_step..step {
                            out.final_loss = train_step(
                                &mut self.session,
                                self.loss,
                                &mut self.optimizer,
                                &feeds(lost),
                            )?;
                            clock_s += cfg.iteration_s;
                            out.executed_steps += 1;
                            out.replayed_steps += 1;
                            replayed_now += 1;
                        }
                    }
                    RecoveryAction::SkipBatch => {
                        // The batch was processed (forward ran, dropout
                        // stream advanced) but its non-finite update is
                        // dropped. Intentionally diverges from the
                        // fault-free trajectory.
                        let batch = feeds(step);
                        let _ = self.session.forward(&batch)?;
                        clock_s += cfg.iteration_s;
                        out.executed_steps += 1;
                        out.skipped_steps += 1;
                    }
                    RecoveryAction::Recompute => {
                        // The poisoned attempt is discarded wholesale: the
                        // forward ran and is thrown away, and the dropout
                        // counter rewinds so the retry draws the same
                        // streams the fault-free run would.
                        let before = self.session.step_count();
                        let batch = feeds(step);
                        let _ = self.session.forward(&batch)?;
                        self.session.set_step_count(before);
                        clock_s += cfg.iteration_s;
                        out.executed_steps += 1;
                    }
                    RecoveryAction::Degrade => {
                        if let Some(ladder) = cfg.ladder.as_ref() {
                            if out.degraded.is_none() {
                                out.degraded = plan_degradation(ladder);
                            }
                            let rungs = out.degraded.as_ref().map_or(1, |d| d.rungs_tried).max(1);
                            clock_s += REPLAN_S * f64::from(rungs);
                        } else {
                            clock_s += REPLAN_S;
                        }
                    }
                    RecoveryAction::Wait => {
                        clock_s += cfg.faults.stall_duration_s(STALL_BASE_S, step, retry);
                    }
                    RecoveryAction::RewriteCheckpoint => {
                        // Corrupt the newest stored bytes at a
                        // schedule-determined site and observe the typed
                        // checksum failure; unless healing is deferred,
                        // re-serialise live state on the spot.
                        let newest = history.last_mut().expect("initial checkpoint exists");
                        corrupt(&mut newest.bytes, cfg.faults.seed, step, retry);
                        let verified = checkpoint::verify(&newest.bytes);
                        debug_assert!(
                            matches!(verified, Err(CheckpointError::ChecksumMismatch { .. })),
                            "injected corruption must be caught by the checksum"
                        );
                        clock_s += newest.bytes.len() as f64 / RESTORE_READ_BPS;
                        if !cfg.defer_corrupt_heal {
                            let fresh = self.write_checkpoint(&mut clock_s, &mut out, tracer);
                            retain_history(&mut history, fresh);
                        }
                    }
                }

                let retries_again = !matches!(action, RecoveryAction::SkipBatch);
                if retries_again {
                    clock_s += BACKOFF_BASE_S * BACKOFF_FACTOR.powi(retry as i32);
                }
                out.recoveries += 1;
                let recovery_s = clock_s - recovery_start_s;
                out.recovery_time_s += recovery_s;
                emit(tracer, |event| {
                    let name = event.intern(format!("recovery/{}", action.label()));
                    let span = event
                        .span(
                            name,
                            TraceLayer::Executor,
                            EventKind::Recovery,
                            recovery_start_s * 1e6,
                            recovery_s * 1e6,
                        )
                        .on_track(RESILIENCE_TRACK)
                        .with_arg("action", action.label())
                        .with_arg("fault", kind.label())
                        .with_arg("step", step)
                        .with_arg("recovery_time_s", recovery_s);
                    if replayed_now > 0 {
                        span.with_arg("replayed", replayed_now);
                    }
                });

                if retries_again {
                    retry += 1;
                } else {
                    out.useful_steps += 1;
                    break;
                }
            }
        }

        out.sim_time_s = clock_s;
        out.param_hash = param_hash(&self.session);
        emit(tracer, |event| {
            let name = event.intern("chaos/run");
            event
                .span(name, TraceLayer::Executor, EventKind::Iteration, 0.0, clock_s * 1e6)
                .on_track(RESILIENCE_TRACK)
                .with_arg("goodput", out.goodput())
                .with_arg("throughput", out.throughput())
                .with_arg("param_hash", out.param_hash)
                .with_arg("faults", out.faults_injected);
        });
        Ok(out)
    }

    /// Serialises the live session + optimizer into a fresh checkpoint,
    /// charging write time and emitting the spine event.
    fn write_checkpoint(
        &mut self,
        clock_s: &mut f64,
        out: &mut RunOutcome,
        tracer: Option<&TraceRecorder>,
    ) -> Stored<O> {
        let bytes = checkpoint::to_bytes(&self.session);
        *clock_s += bytes.len() as f64 / CHECKPOINT_WRITE_BPS;
        out.checkpoints_written += 1;
        out.checkpoint_bytes = bytes.len() as u64;
        emit(tracer, |event| {
            let name = event.intern("checkpoint/write");
            event
                .span(name, TraceLayer::Executor, EventKind::Checkpoint, *clock_s * 1e6, 0.0)
                .on_track(RESILIENCE_TRACK)
                .with_arg("bytes", bytes.len())
                .with_arg("step", self.session.step_count());
        });
        Stored { bytes, optimizer: self.optimizer.clone(), step: self.session.step_count() }
    }
}

/// Appends `stored` as the newest checkpoint, dropping the oldest beyond
/// [`CHECKPOINT_HISTORY`].
fn retain_history<O>(history: &mut Vec<Stored<O>>, stored: Stored<O>) {
    history.push(stored);
    if history.len() > CHECKPOINT_HISTORY {
        history.remove(0);
    }
}

/// Publishes the one event `write` puts into a fresh store; writes
/// nothing when untraced.
fn emit(tracer: Option<&TraceRecorder>, write: impl FnOnce(&mut TraceStore)) {
    if let Some(t) = tracer {
        let mut event = TraceStore::new();
        write(&mut event);
        t.record_batch(event);
    }
}

/// Flips one bit of the checkpoint body at a schedule-determined site
/// (past the 8-byte header, before the 8-byte checksum) so the corruption
/// is always detectable and always the same for a given seed.
fn corrupt(bytes: &mut [u8], seed: u64, step: u64, retry: u32) {
    if bytes.len() <= 16 {
        return;
    }
    let span = bytes.len() - 16;
    let site =
        8 + (mix64(seed ^ STREAM_CORRUPT_SITE ^ FaultSpec::key(step, retry)) as usize) % span;
    bytes[site] ^= 0x40;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Sgd;

    /// The proxy with session seed 42, its feeds rooted at 1234.
    fn proxy_trainer(
        cfg: ResilienceConfig,
        policy: RecoveryPolicy,
    ) -> (ResilientTrainer<Sgd>, impl Fn(u64) -> Vec<(NodeId, Tensor)>) {
        let (session, x, t, loss) = proxy_session(42, ExecConfig::default());
        (ResilientTrainer::new(session, loss, Sgd::new(0.1), cfg, policy), proxy_feeds(1234, x, t))
    }

    fn run_with(spec: FaultSpec, policy: RecoveryPolicy, steps: u64) -> RunOutcome {
        let (mut trainer, feeds) = proxy_trainer(ResilienceConfig::with_faults(spec), policy);
        trainer.run(steps, feeds, None).unwrap()
    }

    #[test]
    fn policies_differ_only_on_loss_spikes() {
        for kind in FaultKind::ALL {
            let (default, exact) =
                (RecoveryPolicy::Default.decide(kind), RecoveryPolicy::ReplayExact.decide(kind));
            if kind == FaultKind::LossSpike {
                assert_eq!(
                    (default, exact),
                    (RecoveryAction::SkipBatch, RecoveryAction::Recompute)
                );
            } else {
                assert_eq!(default, exact, "{}", kind.label());
            }
        }
    }

    #[test]
    fn fault_free_run_trains_and_counts_nothing() {
        let out = run_with(FaultSpec::none(7), RecoveryPolicy::Default, 12);
        assert_eq!(out.useful_steps, 12);
        assert_eq!(out.executed_steps, 12);
        assert_eq!(out.faults_injected, 0);
        assert_eq!(out.recoveries, 0);
        assert!(out.final_loss.is_finite());
        assert!(out.checkpoints_written >= 2, "initial + interval checkpoints");
        assert_eq!(out.throughput().to_bits(), out.goodput().to_bits());
    }

    #[test]
    fn replay_exact_recovery_is_bitwise_identical() {
        let clean = run_with(FaultSpec::none(7), RecoveryPolicy::ReplayExact, 20);
        let faulted = run_with(FaultSpec::heavy(7), RecoveryPolicy::ReplayExact, 20);
        assert!(faulted.faults_injected > 0, "heavy schedule must fault");
        assert_eq!(faulted.recoveries, faulted.faults_injected);
        assert_eq!(
            clean.param_hash, faulted.param_hash,
            "replay-exact recovery must preserve the bitwise parameter trajectory"
        );
        assert_eq!(clean.final_loss.to_bits(), faulted.final_loss.to_bits());
        assert_eq!(faulted.skipped_steps, 0, "replay-exact never skips");
    }

    #[test]
    fn skip_batch_policy_diverges_but_completes() {
        let mut spec = FaultSpec::none(3);
        spec.spike_rate = 0.4;
        let clean = run_with(FaultSpec::none(3), RecoveryPolicy::Default, 16);
        let faulted = run_with(spec, RecoveryPolicy::Default, 16);
        assert!(faulted.skipped_steps > 0);
        assert_eq!(faulted.useful_steps, 16, "skipped batches still complete the step");
        assert_ne!(clean.param_hash, faulted.param_hash, "dropping updates intentionally diverges");
    }

    #[test]
    fn same_seed_same_outcome_bitwise() {
        let a = run_with(FaultSpec::heavy(99), RecoveryPolicy::ReplayExact, 15);
        let b = run_with(FaultSpec::heavy(99), RecoveryPolicy::ReplayExact, 15);
        assert_eq!(a, b, "chaos runs are pure functions of the seed");
    }

    #[test]
    fn rate_one_terminates_via_forced_progress() {
        let spec = FaultSpec::mild(5).scaled(1e9); // every rate clamps to 1.0
        let out = run_with(spec, RecoveryPolicy::ReplayExact, 4);
        assert_eq!(out.useful_steps, 4);
        assert!(out.forced_through > 0, "the retry budget must force progress");
    }

    #[test]
    fn goodput_never_exceeds_throughput() {
        for seed in 0..6 {
            let out = run_with(FaultSpec::heavy(seed), RecoveryPolicy::Default, 10);
            assert!(
                out.goodput() <= out.throughput() + 1e-12,
                "seed {seed}: goodput {} > throughput {}",
                out.goodput(),
                out.throughput()
            );
        }
    }

    #[test]
    fn corrupted_latest_checkpoint_falls_back_to_an_older_valid_one() {
        // Deferred healing leaves the corruption latent on storage, so a
        // later crash finds the newest checkpoint failing its checksum and
        // must walk back through the history. The fallback replays more
        // steps but — under the replay-exact policy — lands on the same
        // bitwise parameter trajectory as the clean twin.
        let mut fallbacks_seen = 0u64;
        for seed in 0..24 {
            let mut spec = FaultSpec::none(seed);
            spec.corrupt_rate = 0.25;
            spec.crash_rate = 0.25;
            let clean = run_with(FaultSpec::none(seed), RecoveryPolicy::ReplayExact, 20);
            let mut cfg = ResilienceConfig::with_faults(spec);
            cfg.defer_corrupt_heal = true;
            let (mut trainer, feeds) = proxy_trainer(cfg, RecoveryPolicy::ReplayExact);
            let faulted = trainer.run(20, feeds, None).unwrap();
            fallbacks_seen += faulted.fallback_restores;
            assert_eq!(
                clean.param_hash, faulted.param_hash,
                "seed {seed}: falling back through the history must stay bit-exact"
            );
        }
        assert!(
            fallbacks_seen > 0,
            "no seed exercised the corrupt-latest → older-checkpoint fallback"
        );
    }

    #[test]
    fn immediate_heal_never_needs_the_fallback() {
        // The production default (heal on detection) keeps the newest
        // checkpoint valid, so restores never walk back.
        for seed in 0..8 {
            let out = run_with(FaultSpec::heavy(seed), RecoveryPolicy::ReplayExact, 15);
            assert_eq!(out.fallback_restores, 0, "seed {seed}");
        }
    }

    #[test]
    fn corrupt_checkpoint_is_detected_and_healed() {
        let mut spec = FaultSpec::none(11);
        spec.corrupt_rate = 0.5;
        spec.crash_rate = 0.2;
        let clean = run_with(FaultSpec::none(11), RecoveryPolicy::ReplayExact, 20);
        let faulted = run_with(spec, RecoveryPolicy::ReplayExact, 20);
        assert!(faulted.faults_by_kind[FaultKind::CorruptCheckpoint.index()] > 0);
        assert_eq!(clean.param_hash, faulted.param_hash);
    }

    #[test]
    fn degradation_ladder_fits_infeasible_batch_on_p4000() {
        // ResNet-50 at batch 64 OOMs at baseline on the Quadro P4000
        // (Observation 11); the ladder must find a fitting plan without
        // aborting, and the plan must actually fit the device.
        let ladder = DegradationLadder {
            kind: ModelKind::ResNet50,
            framework: Framework::mxnet(),
            gpu: GpuSpec::quadro_p4000(),
            batch: 64,
        };
        let model = ladder.kind.build_full(64).unwrap();
        let hints = ladder.framework.hints(ladder.kind, 64);
        assert!(
            profile_with_strategy(ladder.framework, &model, &ladder.gpu, hints, Strategy::Baseline)
                .is_err(),
            "batch 64 must OOM at baseline for this test to mean anything"
        );
        let plan = plan_degradation(&ladder).expect("ladder never aborts");
        assert!(plan.profile.total_bytes <= ladder.gpu.memory_bytes);
        assert!(plan.rungs_tried > 1, "baseline OOMed, so a later rung must have fit");
        assert_ne!(plan.strategy, Strategy::Baseline);
    }

    #[test]
    fn fault_events_land_on_the_spine() {
        let (mut trainer, feeds) = proxy_trainer(
            ResilienceConfig::with_faults(FaultSpec::heavy(21)),
            RecoveryPolicy::ReplayExact,
        );
        let rec = TraceRecorder::shared();
        let out = trainer.run(10, feeds, Some(&rec)).unwrap();
        let events = rec.drain();
        let faults = events.iter().filter(|e| e.kind == EventKind::Fault).count() as u64;
        let recoveries = events.iter().filter(|e| e.kind == EventKind::Recovery).count() as u64;
        let checkpoints = events.iter().filter(|e| e.kind == EventKind::Checkpoint).count() as u64;
        assert_eq!(faults, out.faults_injected);
        assert_eq!(recoveries, out.recoveries);
        assert_eq!(checkpoints, out.checkpoints_written);
        assert!(events.iter().all(|e| e.deterministic), "logical clock only");
    }
}
