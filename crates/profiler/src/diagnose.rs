//! Trace-mining diagnosis engine (`tbd diagnose`, DESIGN.md §5h).
//!
//! The paper's contribution is *analysis*: attributing training time to
//! compute, exposed communication, launch overhead and memory behaviour
//! (Figs 5/9/10, Eqs 1–3). This module automates that attribution in the
//! style of DeepProf (PAPERS.md, arXiv:1707.03750): a rule table mines a
//! captured [`Trace`] plus its [`MetricsRegistry`] snapshot and emits a
//! ranked, schema-versioned [`DiagnosisReport`] naming the dominant
//! bottleneck, the evidence that fired, and a remediation pointing at a
//! knob this codebase actually has.
//!
//! # Determinism contract
//!
//! Every rule input is simulated/logical time (registry gauges derived
//! from deterministic spans, plus deterministic span arguments mined
//! straight from the trace). Wall-clock series such as
//! `host_node_time_us` are never consumed, so for a fixed workload the
//! report — and its FNV digest — is bitwise identical across
//! `intra_op_threads` and across `record_batch` split points
//! (`crates/profiler/tests/diagnose_props.rs`).
//!
//! # Guard discipline
//!
//! Thresholds are ratios; every denominator goes through `ratio`, which
//! returns `None` for empty, zero-duration or non-finite inputs (the same
//! `Option` discipline as [`crate::sampling::window_throughput`]). An
//! empty trace therefore diagnoses `compute-bound` with confidence `0.0`
//! and an "empty trace" evidence line — never NaN/Inf.

use crate::agg::{aggregate, arg_f64, series, Log2Histogram, MetricsRegistry};
use crate::json::{self, Canonical, Codec, Value};
use crate::sampling::SamplingConfig;
use crate::trace::Trace;
use std::fmt::{self, Write as _};
use tbd_graph::trace::{EventKind, TraceLayer, TraceStore};

/// Version stamp of the diagnosis-report JSON schema.
pub const DIAGNOSE_SCHEMA_VERSION: u64 = 1;

/// Exposed-communication share of the cluster iteration above which the
/// run is communication-bound. Fig. 10: the 2M1G Ethernet point spends
/// over half its iteration in exposed communication, while the
/// single-machine PCIe points stay in single digits.
pub const EXPOSED_COMM_THRESHOLD: f64 = 0.15;

/// Launch-pipeline share (launch + sync gaps over the simulated
/// iteration) above which the device is starvation-bound. Observation 5:
/// per-timestep RNN kernels sit behind a 5 µs launch + 4 µs scheduling
/// gap they never amortise.
pub const LAUNCH_GAP_THRESHOLD: f64 = 0.30;

/// Share of device-busy time in bandwidth-bound kernels (roofline
/// verdict per kernel) above which the run is memory-bandwidth-bound.
/// Observations 6–7: low FP32 utilisation at high GPU utilisation means
/// kernels are pinned against bandwidth, not FLOPs.
pub const MEMORY_BOUND_THRESHOLD: f64 = 0.60;

/// Per-worker compute slowdown factor above which a straggler diagnosis
/// fires (the event engine's injected `slowdown` span argument). A
/// balanced exchange reports exactly `1.0`, so the bar only needs to
/// clear float noise plus the smallest injected skew worth naming.
pub const STRAGGLER_SKEW_THRESHOLD: f64 = 1.05;

/// Recovery share of the simulated chaos run above which the run is
/// recovery-bound rather than merely faulted. The rule additionally
/// requires at least one recovery, so fault-free runs can never trip it;
/// the low bar catches cheap-recovery kinds (checkpoint corruption
/// re-writes) whose individual cost is small but whose replay still
/// dominates goodput loss.
pub const RECOVERY_FRACTION_THRESHOLD: f64 = 0.05;

/// Minimum allocator events before churn can fire at all (healthy
/// captures allocate a handful of category-level arenas).
pub const ALLOC_CHURN_MIN_EVENTS: u64 = 64;

/// Allocator events per kernel launch above which the allocator, not the
/// kernels, dominates the timeline.
pub const ALLOC_CHURN_PER_LAUNCH: f64 = 2.0;

/// Free-to-alloc ratio above which churn is cyclic (alloc/free ping-pong)
/// rather than a growing working set.
pub const ALLOC_CHURN_FREE_RATIO: f64 = 0.8;

/// The bottleneck taxonomy, ordered by rule specificity (the tie-break
/// rank when two diagnoses share a confidence).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BottleneckClass {
    /// Device-memory pressure: failed allocations or OOM-dominated faults.
    OomPressure,
    /// Recovery (restores, replays, stalls) dominates the simulated run.
    RecoveryOverhead,
    /// Membership churn: evictions, degraded cohorts and rejoin catch-up
    /// from the elastic supervisor dominate goodput loss.
    MembershipChurn,
    /// One worker's compute or link drags the whole exchange.
    Straggler,
    /// Gradient exchange extends the iteration past the backward pass.
    ExposedCommunication,
    /// Launch overhead and scheduling gaps starve the device.
    LaunchOverheadBound,
    /// Device time is pinned against memory bandwidth, not FLOPs.
    MemoryBandwidthBound,
    /// Allocator churn (alloc/free ping-pong) dominates device bookkeeping.
    AllocatorThrash,
    /// Healthy: compute is the bottleneck, as it should be.
    ComputeBound,
}

impl BottleneckClass {
    /// Every class, in tie-break rank order.
    pub const ALL: [BottleneckClass; 9] = [
        BottleneckClass::OomPressure,
        BottleneckClass::RecoveryOverhead,
        BottleneckClass::MembershipChurn,
        BottleneckClass::Straggler,
        BottleneckClass::ExposedCommunication,
        BottleneckClass::LaunchOverheadBound,
        BottleneckClass::MemoryBandwidthBound,
        BottleneckClass::AllocatorThrash,
        BottleneckClass::ComputeBound,
    ];

    /// Stable kebab-case label (round-trips through [`Self::parse`]).
    pub fn label(self) -> &'static str {
        match self {
            BottleneckClass::OomPressure => "oom-pressure",
            BottleneckClass::RecoveryOverhead => "recovery-overhead",
            BottleneckClass::MembershipChurn => "membership-churn",
            BottleneckClass::Straggler => "straggler",
            BottleneckClass::ExposedCommunication => "exposed-communication",
            BottleneckClass::LaunchOverheadBound => "launch-overhead",
            BottleneckClass::MemoryBandwidthBound => "memory-bandwidth",
            BottleneckClass::AllocatorThrash => "allocator-thrash",
            BottleneckClass::ComputeBound => "compute-bound",
        }
    }

    /// Parses a [`Self::label`] back into the class.
    ///
    /// # Errors
    ///
    /// Returns a message listing the valid labels.
    pub fn parse(label: &str) -> Result<BottleneckClass, String> {
        Self::ALL
            .into_iter()
            .find(|c| c.label() == label)
            .ok_or_else(|| format!("unknown bottleneck class '{label}'"))
    }

    /// Tie-break rank: lower wins at equal confidence.
    fn rank(self) -> usize {
        Self::ALL.iter().position(|c| *c == self).unwrap_or(Self::ALL.len())
    }

    /// Remediation hint, each pointing at a knob this codebase has.
    pub fn remediation(self) -> &'static str {
        match self {
            BottleneckClass::OomPressure => {
                "lower the batch or let the degradation ladder pick a plan \
                 (tbd-memopt plan_degradation: checkpointing, offload, half-precision activations)"
            }
            BottleneckClass::RecoveryOverhead => {
                "shorten replay by lowering checkpoint_interval, or raise max_retries budget \
                 (tbd-train ResilienceConfig) so faults stop outpacing checkpoints"
            }
            BottleneckClass::MembershipChurn => {
                "stabilise the cohort: lengthen the collective deadline (StragglerSpec retry \
                 ladder), lower checkpoint_interval so rejoiners replay less, or lower the \
                 churn rate feeding tbd scale --churn"
            }
            BottleneckClass::Straggler => {
                "rebalance or evict the slow worker; for flaky links raise retry_timeout_s / \
                 retry_backoff (tbd-distrib StragglerSpec::with_retry)"
            }
            BottleneckClass::ExposedCommunication => {
                "grow gradient buckets (BucketingConfig::BucketBytes), switch to \
                 HierarchicalAllReduce, or move to a faster interconnect (tbd scale --sweep)"
            }
            BottleneckClass::LaunchOverheadBound => {
                "enable kernel fusion (--fuse, the speed tier default) so fewer, larger kernels \
                 amortise the per-kernel launch overhead and sync gap"
            }
            BottleneckClass::MemoryBandwidthBound => {
                "drop storage precision to f16/bf16 (--precision) to halve memory traffic; \
                 fused epilogues avoid extra memory round trips"
            }
            BottleneckClass::AllocatorThrash => {
                "route transient tensors through the arena allocator (tbd-tensor::arena) to \
                 recycle power-of-two bins instead of device alloc/free churn"
            }
            BottleneckClass::ComputeBound => {
                "healthy — device compute dominates; scale out with more workers (tbd scale) \
                 or a larger batch if memory allows"
            }
        }
    }
}

/// One piece of evidence behind a diagnosis: the metric that fired, its
/// observed value and the threshold it crossed.
#[derive(Debug, Clone, PartialEq)]
pub struct Evidence {
    /// Metric or span-argument name (registry series or trace arg).
    pub metric: String,
    /// Observed value (always finite).
    pub value: f64,
    /// Threshold the rule compared against.
    pub threshold: f64,
    /// Human-readable elaboration.
    pub detail: String,
}

/// One ranked diagnosis: a class, its confidence and the evidence list.
#[derive(Debug, Clone, PartialEq)]
pub struct Diagnosis {
    /// Bottleneck class.
    pub class: BottleneckClass,
    /// Confidence in `[0, 1]`, always finite.
    pub confidence: f64,
    /// Evidence lines that fired, in rule order.
    pub evidence: Vec<Evidence>,
    /// Remediation hint (copied from the class for serialisation).
    pub remediation: String,
}

/// A full diagnosis report: ranked diagnoses over one trace.
#[derive(Debug, Clone, PartialEq)]
pub struct DiagnosisReport {
    /// Schema version ([`DIAGNOSE_SCHEMA_VERSION`]).
    pub schema_version: u64,
    /// Workload name.
    pub model: String,
    /// Framework profile name.
    pub framework: String,
    /// Mini-batch of the captured iteration.
    pub batch: usize,
    /// Events mined.
    pub events: u64,
    /// Primary iteration span used as the rule denominator, µs (the
    /// longest of the simulated device, cluster and chaos iterations;
    /// `0.0` when the trace has none).
    pub iteration_us: f64,
    /// Diagnoses ranked by confidence (ties broken by class rank).
    pub diagnoses: Vec<Diagnosis>,
}

impl Codec for BottleneckClass {
    fn to_value(&self) -> Value {
        Value::Str(self.label().to_string())
    }

    fn from_value(value: &Value) -> Result<Self, String> {
        BottleneckClass::parse(&String::from_value(value)?)
    }
}

crate::json_record!(Evidence, "evidence"; fields { metric, value, threshold, detail });
crate::json_record!(Diagnosis, "diagnosis"; fields { class, confidence, evidence, remediation });
crate::json_record!(DiagnosisReport, "diagnosis report", schema = DIAGNOSE_SCHEMA_VERSION;
    fields { schema_version, model, framework, batch, events, iteration_us, diagnoses }
    derived { digest = DiagnosisReport::digest_hex });

/// The digest text: a header line, then one `\nD|` line per diagnosis,
/// each followed by one `\nE|` line per evidence — nested lines that a
/// field list cannot spell. Remediation strings are derived from the
/// class, so they are excluded.
impl Canonical for DiagnosisReport {
    fn write_canonical(&self, out: &mut dyn fmt::Write) -> fmt::Result {
        write!(out, "v{}|{}|{}", self.schema_version, self.model, self.framework)?;
        write!(out, "|b:{}|ev:{}", self.batch, self.events)?;
        self.iteration_us.write_field(out, "|iter:")?;
        for d in &self.diagnoses {
            write!(out, "\nD|{}", d.class.label())?;
            d.confidence.write_field(out, "|c:")?;
            for e in &d.evidence {
                write!(out, "\nE|{}", e.metric)?;
                e.value.write_field(out, "|v:")?;
                e.threshold.write_field(out, "|t:")?;
                write!(out, "|{}", e.detail)?;
            }
        }
        Ok(())
    }
}

/// `Some(num / den)` when `den` is positive and the quotient finite.
fn ratio(num: f64, den: f64) -> Option<f64> {
    if den > 0.0 && den.is_finite() && num.is_finite() {
        Some(num / den)
    } else {
        None
    }
}

/// Deterministic rule inputs mined from the registry and the raw spans.
#[derive(Debug, Default)]
struct Signals {
    events: u64,
    sim_iteration_us: f64,
    cluster_iteration_us: f64,
    chaos_span_us: f64,
    exposed_ratio: Option<f64>,
    comm_exposed_us: f64,
    launch_gap_frac: Option<f64>,
    launch_us: f64,
    sync_us: f64,
    launches: u64,
    kernel_us: f64,
    small_kernel_mass: Option<f64>,
    membw_frac: Option<f64>,
    fp32_utilization: Option<f64>,
    gpu_utilization: Option<f64>,
    allocs: u64,
    frees: u64,
    alloc_fails: u64,
    alloc_fail_bytes: f64,
    max_slowdown: Option<f64>,
    retries: u64,
    recoveries: u64,
    recovery_frac: Option<f64>,
    faults_total: u64,
    oom_faults: u64,
    evictions: u64,
    rejoins: u64,
    membership_epochs: u64,
    degraded_iterations: u64,
    rejoin_catchup_s: f64,
    churn_goodput_fraction: Option<f64>,
    elastic_span_us: f64,
}

/// Fraction of kernel durations at or below `cap_us` (launch-overhead
/// scale) in the log2 histogram.
fn hist_mass_below(hist: &Log2Histogram, cap_us: f64) -> Option<f64> {
    if hist.count() == 0 {
        return None;
    }
    let small: u64 = hist
        .nonzero_buckets()
        .filter(|(i, _)| Log2Histogram::bucket_upper_bound(*i) <= cap_us)
        .map(|(_, c)| c)
        .sum();
    Some(small as f64 / hist.count() as f64)
}

fn mine(events: &TraceStore, reg: &MetricsRegistry) -> Signals {
    let mut s = Signals { events: events.len() as u64, ..Signals::default() };
    let finite_gauge = |name: &str| reg.gauge(name).filter(|v| v.is_finite());
    s.sim_iteration_us = finite_gauge("sim_iteration_us").unwrap_or(0.0);
    s.cluster_iteration_us = finite_gauge("cluster_iteration_us").unwrap_or(0.0);
    s.exposed_ratio = finite_gauge("exposed_comm_ratio");
    s.comm_exposed_us = finite_gauge("comm_exposed_us").unwrap_or(0.0);
    s.launch_us = finite_gauge("launch_time_us").unwrap_or(0.0);
    s.sync_us = finite_gauge("sync_time_us").unwrap_or(0.0);
    s.launches = reg.counter("kernel_launches_total").unwrap_or(0);
    s.kernel_us = finite_gauge("kernel_time_us").unwrap_or(0.0);
    s.launch_gap_frac = ratio(s.launch_us + s.sync_us, s.sim_iteration_us);
    s.small_kernel_mass = reg.histogram("kernel_duration_us").and_then(|h| hist_mass_below(h, 8.0));
    s.membw_frac = finite_gauge("memory_bound_time_fraction");
    s.fp32_utilization = finite_gauge("fp32_utilization");
    s.gpu_utilization = finite_gauge("gpu_utilization");
    s.allocs = reg.counter("alloc_events_total").unwrap_or(0);
    s.frees = reg.counter("free_events_total").unwrap_or(0);
    s.alloc_fails = reg.counter("alloc_failures_total").unwrap_or(0);
    s.alloc_fail_bytes = finite_gauge("alloc_fail_bytes").unwrap_or(0.0);
    s.retries = reg.counter("comm_retries_total").unwrap_or(0);
    s.recoveries = reg.counter("recoveries_total").unwrap_or(0);
    s.faults_total = reg.counter("faults_injected_total").unwrap_or(0);
    s.oom_faults = reg.counter(&series("faults_injected_total", "fault", "alloc-oom")).unwrap_or(0);
    s.evictions = reg.counter("evictions_total").unwrap_or(0);
    s.rejoins = reg.counter("rejoins_total").unwrap_or(0);
    s.membership_epochs = reg.counter("membership_epochs_total").unwrap_or(0);
    s.degraded_iterations = reg.counter("degraded_iterations_total").unwrap_or(0);
    s.rejoin_catchup_s = finite_gauge("rejoin_catchup_s").unwrap_or(0.0);
    s.churn_goodput_fraction = finite_gauge("churn_goodput_fraction");
    // Span-level mining: straggler slowdown from the event engine's
    // compute phase, the chaos run extent for the recovery denominator.
    let mined = |layer, kind| {
        matches!(
            (layer, kind),
            (TraceLayer::Distrib, EventKind::Phase | EventKind::Membership)
                | (TraceLayer::Executor, EventKind::Iteration)
        )
    };
    for e in events.iter_where(mined) {
        match (e.layer, e.kind) {
            (TraceLayer::Distrib, EventKind::Phase) => {
                if let Some(sd) = arg_f64(e, "slowdown").filter(|v| v.is_finite()) {
                    s.max_slowdown = Some(s.max_slowdown.map_or(sd, |m: f64| m.max(sd)));
                }
            }
            (TraceLayer::Executor, EventKind::Iteration)
                if e.name == "chaos/run" && e.dur_us.is_finite() =>
            {
                s.chaos_span_us = s.chaos_span_us.max(e.dur_us);
            }
            (TraceLayer::Distrib, EventKind::Membership)
                if e.name == "elastic/run" && e.dur_us.is_finite() =>
            {
                s.elastic_span_us = s.elastic_span_us.max(e.dur_us);
            }
            _ => {}
        }
    }
    let recovery_us = finite_gauge("recovery_time_s").unwrap_or(0.0) * 1e6;
    s.recovery_frac = ratio(recovery_us, s.chaos_span_us);
    s
}

/// Appends `d` or merges it into an existing diagnosis of the same class
/// (max confidence, concatenated evidence).
fn push_merged(diags: &mut Vec<Diagnosis>, d: Diagnosis) {
    if let Some(existing) = diags.iter_mut().find(|x| x.class == d.class) {
        existing.confidence = existing.confidence.max(d.confidence);
        existing.evidence.extend(d.evidence);
    } else {
        diags.push(d);
    }
}

fn evidence(metric: &str, value: f64, threshold: f64, detail: String) -> Evidence {
    Evidence { metric: metric.to_string(), value, threshold, detail }
}

fn diagnosis(class: BottleneckClass, confidence: f64, evidence: Vec<Evidence>) -> Diagnosis {
    let confidence = if confidence.is_finite() { confidence.clamp(0.0, 1.0) } else { 0.0 };
    Diagnosis { class, confidence, evidence, remediation: class.remediation().to_string() }
}

/// Runs the rule table over mined signals.
fn classify(s: &Signals) -> Vec<Diagnosis> {
    let mut diags: Vec<Diagnosis> = Vec::new();

    // Rule 1 — OOM pressure from failed device allocations (hard
    // evidence: the trace ends with an AllocFail instant).
    if s.alloc_fails > 0 {
        let density = s.alloc_fails as f64 / (s.alloc_fails + s.allocs) as f64;
        push_merged(
            &mut diags,
            diagnosis(
                BottleneckClass::OomPressure,
                0.85 + 0.15 * density,
                vec![evidence(
                    "alloc_failures_total",
                    s.alloc_fails as f64,
                    0.0,
                    format!(
                        "{} failed allocation(s), last request {:.1} MB; \
                         AllocFail density {:.2} over {} allocator events",
                        s.alloc_fails,
                        s.alloc_fail_bytes / 1e6,
                        density,
                        s.alloc_fails + s.allocs
                    ),
                )],
            ),
        );
    }

    // Rule 2 — recovery overhead from the chaos harness. The class
    // follows the dominant fault kind: alloc-oom faults are memory
    // pressure wearing a recovery costume.
    if s.recoveries > 0 {
        if let Some(frac) = s.recovery_frac {
            if frac >= RECOVERY_FRACTION_THRESHOLD {
                let oom_dominant = s.oom_faults > 0 && 2 * s.oom_faults >= s.faults_total;
                let class = if oom_dominant {
                    BottleneckClass::OomPressure
                } else {
                    BottleneckClass::RecoveryOverhead
                };
                let conf =
                    0.55 + 0.45 * ((frac - RECOVERY_FRACTION_THRESHOLD) / 0.45).clamp(0.0, 1.0);
                push_merged(
                    &mut diags,
                    diagnosis(
                        class,
                        conf,
                        vec![evidence(
                            "recovery_fraction",
                            frac,
                            RECOVERY_FRACTION_THRESHOLD,
                            format!(
                                "{} recoveries over {} fault(s) ({} alloc-oom) consumed \
                                 {:.0}% of the simulated run",
                                s.recoveries,
                                s.faults_total,
                                s.oom_faults,
                                frac * 100.0
                            ),
                        )],
                    ),
                );
            }
        }
    }

    // Rule 2.5 — membership churn: the elastic supervisor evicted at
    // least one worker, so iterations ran degraded and rejoiners paid
    // checkpoint catch-up. Confidence scales with the goodput lost to
    // churn; evidence carries the full epoch/eviction/rejoin accounting.
    if s.evictions > 0 {
        let lost = s.churn_goodput_fraction.map_or(0.0, |f| (1.0 - f).clamp(0.0, 1.0));
        let conf = (0.62 + 0.33 * lost + (0.01 * s.evictions as f64).min(0.04)).min(0.97);
        let mut ev = vec![evidence(
            "evictions_total",
            s.evictions as f64,
            0.0,
            format!(
                "{} eviction(s) across {} membership epoch(s); {} iteration(s) ran degraded",
                s.evictions, s.membership_epochs, s.degraded_iterations
            ),
        )];
        if let Some(f) = s.churn_goodput_fraction {
            ev.push(evidence(
                "churn_goodput_fraction",
                f,
                1.0,
                format!("churn retains {:.0}% of healthy goodput", f * 100.0),
            ));
        }
        if s.rejoins > 0 {
            ev.push(evidence(
                "rejoin_catchup_s",
                s.rejoin_catchup_s,
                0.0,
                format!(
                    "{} rejoin(s) spent {:.3} s in checkpoint restore + replay",
                    s.rejoins, s.rejoin_catchup_s
                ),
            ));
        }
        push_merged(&mut diags, diagnosis(BottleneckClass::MembershipChurn, conf, ev));
    }

    // Rule 3 — stragglers: the event engine's injected compute slowdown
    // (per-worker finish-time skew) or retried bucket transfers.
    let slow = s.max_slowdown.filter(|sd| *sd >= STRAGGLER_SKEW_THRESHOLD);
    if slow.is_some() || s.retries > 0 {
        let sd = slow.unwrap_or(1.0);
        let conf = 0.6 + (0.8 * (sd - 1.0)).clamp(0.0, 0.35) + (0.02 * s.retries as f64).min(0.05);
        let mut ev = Vec::new();
        if let Some(sd) = slow {
            ev.push(evidence(
                "worker_slowdown",
                sd,
                STRAGGLER_SKEW_THRESHOLD,
                format!("slowest worker runs {sd:.2}x the healthy compute time"),
            ));
        }
        if s.retries > 0 {
            ev.push(evidence(
                "comm_retries_total",
                s.retries as f64,
                0.0,
                format!("{} bucket transfer(s) dropped and retried", s.retries),
            ));
        }
        push_merged(&mut diags, diagnosis(BottleneckClass::Straggler, conf, ev));
    }

    // Rule 4 — exposed communication: comm_exposed_us / iteration_us
    // (Fig. 10's Ethernet cliff).
    if let Some(r) = s.exposed_ratio.filter(|r| *r >= EXPOSED_COMM_THRESHOLD) {
        let conf = (0.2 + 1.2 * r).min(0.88);
        push_merged(
            &mut diags,
            diagnosis(
                BottleneckClass::ExposedCommunication,
                conf,
                vec![evidence(
                    "exposed_comm_ratio",
                    r,
                    EXPOSED_COMM_THRESHOLD,
                    format!(
                        "{:.1} ms of communication extends the iteration ({:.0}% exposed)",
                        s.comm_exposed_us / 1e3,
                        r * 100.0
                    ),
                )],
            ),
        );
    }

    // Rule 5 — launch-overhead starvation: launch + sync-gap share of the
    // simulated iteration (Observation 5).
    let launch_fired = s.launch_gap_frac.filter(|f| *f >= LAUNCH_GAP_THRESHOLD);
    if let Some(f) = launch_fired {
        let conf = 0.5 + 0.45 * ((f - LAUNCH_GAP_THRESHOLD) / 0.5).clamp(0.0, 1.0);
        let mut ev = vec![evidence(
            "launch_gap_fraction",
            f,
            LAUNCH_GAP_THRESHOLD,
            format!(
                "{:.1} ms of launches + {:.1} ms of sync gaps across {} launches \
                 dominate a {:.1} ms iteration",
                s.launch_us / 1e3,
                s.sync_us / 1e3,
                s.launches,
                s.sim_iteration_us / 1e3
            ),
        )];
        if let Some(mass) = s.small_kernel_mass {
            ev.push(evidence(
                "small_kernel_mass",
                mass,
                0.5,
                format!(
                    "{:.0}% of kernels finish within launch-overhead scale (≤8 µs)",
                    mass * 100.0
                ),
            ));
        }
        push_merged(&mut diags, diagnosis(BottleneckClass::LaunchOverheadBound, conf, ev));
    }

    // Rule 6 — memory-bandwidth-bound: roofline verdict share of device
    // time. Gated on the device actually running (not starving): tiny
    // kernels are individually bandwidth-bound but the fix is fusion,
    // not precision.
    if launch_fired.is_none() {
        if let Some(m) = s.membw_frac.filter(|m| *m >= MEMORY_BOUND_THRESHOLD) {
            let conf = 0.5
                + 0.4
                    * ((m - MEMORY_BOUND_THRESHOLD) / (1.0 - MEMORY_BOUND_THRESHOLD))
                        .clamp(0.0, 1.0);
            let mut ev = vec![evidence(
                "memory_bound_time_fraction",
                m,
                MEMORY_BOUND_THRESHOLD,
                format!("{:.0}% of device-busy time is pinned against bandwidth", m * 100.0),
            )];
            if let Some(fp32) = s.fp32_utilization {
                ev.push(evidence(
                    "fp32_utilization",
                    fp32,
                    0.0,
                    format!("FP32 utilisation {:.2} while bandwidth-bound", fp32),
                ));
            }
            push_merged(&mut diags, diagnosis(BottleneckClass::MemoryBandwidthBound, conf, ev));
        }
    }

    // Rule 7 — allocator thrash: cyclic alloc/free churn out of
    // proportion to the kernel stream, without memory pressure.
    if s.alloc_fails == 0
        && s.allocs >= ALLOC_CHURN_MIN_EVENTS
        && s.frees as f64 >= ALLOC_CHURN_FREE_RATIO * s.allocs as f64
        && s.allocs as f64 > ALLOC_CHURN_PER_LAUNCH * s.launches as f64
    {
        let churn = (s.allocs + s.frees) as f64;
        let conf = 0.55 + 0.4 * (churn / (churn + 512.0));
        push_merged(
            &mut diags,
            diagnosis(
                BottleneckClass::AllocatorThrash,
                conf,
                vec![evidence(
                    "alloc_churn",
                    churn,
                    ALLOC_CHURN_MIN_EVENTS as f64,
                    format!(
                        "{} allocs / {} frees against {} kernel launches \
                         (cyclic churn, no growth)",
                        s.allocs, s.frees, s.launches
                    ),
                )],
            ),
        );
    }

    // Fallback — healthy. Confidence is the margin to the nearest
    // threshold, so a run close to a cliff reports lower confidence.
    if diags.is_empty() {
        if s.events == 0 {
            diags.push(diagnosis(
                BottleneckClass::ComputeBound,
                0.0,
                vec![evidence("events_total", 0.0, 0.0, "empty trace".to_string())],
            ));
        } else {
            let pressures = [
                s.exposed_ratio.map(|r| r / EXPOSED_COMM_THRESHOLD),
                s.launch_gap_frac.map(|f| f / LAUNCH_GAP_THRESHOLD),
                s.membw_frac.map(|m| m / MEMORY_BOUND_THRESHOLD),
                s.max_slowdown.map(|sd| (sd - 1.0) / (STRAGGLER_SKEW_THRESHOLD - 1.0)),
                s.recovery_frac.map(|f| f / RECOVERY_FRACTION_THRESHOLD),
            ];
            let max_pressure =
                pressures.into_iter().flatten().filter(|p| p.is_finite()).fold(0.0f64, f64::max);
            let informed = s.sim_iteration_us > 0.0
                || s.cluster_iteration_us > 0.0
                || s.chaos_span_us > 0.0
                || s.elastic_span_us > 0.0;
            let conf = if informed { (1.0 - max_pressure).clamp(0.05, 1.0) } else { 0.25 };
            let mut ev = vec![evidence(
                "threshold_margin",
                max_pressure,
                1.0,
                if informed {
                    format!("closest rule reached {:.0}% of its threshold", max_pressure * 100.0)
                } else {
                    "no iteration span to attribute against (insufficient trace)".to_string()
                },
            )];
            if let Some(util) = s.gpu_utilization {
                ev.push(evidence(
                    "gpu_utilization",
                    util,
                    0.0,
                    format!("device busy {:.0}% of the iteration", util * 100.0),
                ));
            }
            diags.push(diagnosis(BottleneckClass::ComputeBound, conf, ev));
        }
    }

    diags.sort_by(|a, b| {
        b.confidence.total_cmp(&a.confidence).then_with(|| a.class.rank().cmp(&b.class.rank()))
    });
    diags
}

/// Diagnoses a captured [`Trace`] against its [`MetricsRegistry`]
/// snapshot (use [`aggregate`] or a live
/// [`StreamingAggregator`](crate::agg::StreamingAggregator) to produce
/// one from the same events).
pub fn diagnose(trace: &Trace, registry: &MetricsRegistry) -> DiagnosisReport {
    diagnose_named(trace.model.name(), trace.framework, trace.batch, &trace.events, registry)
}

/// Diagnoses a raw event stream, aggregating it internally with the
/// default [`SamplingConfig`].
pub fn diagnose_events(
    model: &str,
    framework: &str,
    batch: usize,
    events: &TraceStore,
) -> DiagnosisReport {
    let registry = aggregate(events, &SamplingConfig::default());
    diagnose_named(model, framework, batch, events, &registry)
}

/// The fully-spelled entry point behind both conveniences.
pub fn diagnose_named(
    model: &str,
    framework: &str,
    batch: usize,
    events: &TraceStore,
    registry: &MetricsRegistry,
) -> DiagnosisReport {
    let s = mine(events, registry);
    let iteration_us =
        s.sim_iteration_us.max(s.cluster_iteration_us).max(s.chaos_span_us).max(s.elastic_span_us);
    DiagnosisReport {
        schema_version: DIAGNOSE_SCHEMA_VERSION,
        model: model.to_string(),
        framework: framework.to_string(),
        batch,
        events: s.events,
        iteration_us,
        diagnoses: classify(&s),
    }
}

impl DiagnosisReport {
    /// The top-ranked diagnosis (every report has at least the fallback).
    pub fn top1(&self) -> &Diagnosis {
        &self.diagnoses[0]
    }

    /// Compares this report against a pinned snapshot: the ranked class
    /// sequence must match exactly, confidences within
    /// [`json::DETERMINISTIC_DRIFT_TOLERANCE`]: the engine is deterministic.
    ///
    /// # Errors
    ///
    /// Returns one line per divergence.
    pub fn check_drift(&self, baseline: &DiagnosisReport) -> Result<(), String> {
        let mut failures = Vec::new();
        if self.model != baseline.model
            || self.framework != baseline.framework
            || self.batch != baseline.batch
        {
            failures.push(format!(
                "configuration mismatch: report is {}/{}/b{}, baseline is {}/{}/b{}",
                self.model,
                self.framework,
                self.batch,
                baseline.model,
                baseline.framework,
                baseline.batch
            ));
        }
        let mine: Vec<&str> = self.diagnoses.iter().map(|d| d.class.label()).collect();
        let theirs: Vec<&str> = baseline.diagnoses.iter().map(|d| d.class.label()).collect();
        if mine != theirs {
            failures.push(format!("ranked classes {mine:?} != pinned {theirs:?}"));
        } else {
            for (d, b) in self.diagnoses.iter().zip(&baseline.diagnoses) {
                let drift = (d.confidence - b.confidence).abs();
                if drift > json::DETERMINISTIC_DRIFT_TOLERANCE {
                    failures.push(format!(
                        "{} confidence {:.6} drifted {:.2e} from pinned {:.6}",
                        d.class.label(),
                        d.confidence,
                        drift,
                        b.confidence
                    ));
                }
            }
        }
        if self.events != baseline.events {
            failures.push(format!("events {} != pinned {}", self.events, baseline.events));
        }
        json::verdict(failures)
    }

    /// Renders the report as markdown (the CI diagnose artifact).
    pub fn to_markdown(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "# `tbd diagnose` — {} / {} / batch {}\n",
            self.model, self.framework, self.batch
        );
        let _ = writeln!(
            out,
            "{} events mined; primary iteration span {:.2} ms.\n",
            self.events,
            self.iteration_us / 1e3
        );
        let _ = writeln!(out, "| rank | class | confidence | remediation |");
        let _ = writeln!(out, "|---:|---|---:|---|");
        for (i, d) in self.diagnoses.iter().enumerate() {
            let _ = writeln!(
                out,
                "| {} | **{}** | {:.2} | {} |",
                i + 1,
                d.class.label(),
                d.confidence,
                d.remediation
            );
        }
        for d in &self.diagnoses {
            let _ = writeln!(out, "\n## {} ({:.2})", d.class.label(), d.confidence);
            for e in &d.evidence {
                let _ = writeln!(
                    out,
                    "- `{}` = {:.4} (threshold {:.4}): {}",
                    e.metric, e.value, e.threshold, e.detail
                );
            }
        }
        let _ = writeln!(out, "\nreport digest `{}`", self.digest_hex());
        out
    }
}

/// Deterministic ground-truth scenario builders shared by the property
/// tests, the confusion-matrix acceptance test and the golden baseline:
/// each constructs a trace whose injected condition the engine must name
/// top-1.
pub mod scenarios {
    use super::*;
    use tbd_distrib::{
        BackwardProfile, ChurnSpec, ClusterConfig, DataParallelSim, ElasticConfig, ElasticOutcome,
        EventConfig, EventOutcome, StragglerSpec,
    };
    use tbd_gpusim::{simulate_iteration, CpuSpec, ExecutionParams, GpuSpec};
    use tbd_graph::lower::LoweredKernel;
    use tbd_graph::trace::TraceRecorder;
    use tbd_graph::{KernelClass, KernelSpec, NodeId, Phase};

    /// Analytic per-model shape feeding the distributed event engine
    /// (single-GPU compute time, gradient volume, backward layer count).
    #[derive(Debug, Clone, Copy)]
    pub struct WorkloadShape {
        /// Display name.
        pub name: &'static str,
        /// Single-worker iteration compute time, seconds.
        pub compute_iter_s: f64,
        /// Gradient bytes exchanged per iteration.
        pub gradient_bytes: f64,
        /// Backward layers (bucket granularity).
        pub layers: usize,
    }

    impl WorkloadShape {
        /// One worker of this shape at per-GPU batch 32, its gradients
        /// spread evenly over the backward pass.
        pub fn worker(&self) -> DataParallelSim {
            let backward =
                BackwardProfile::analytic(self.compute_iter_s, self.gradient_bytes, self.layers);
            DataParallelSim { backward, per_gpu_batch: 32 }
        }
    }

    /// ResNet-50: ~102 MB of gradients behind a 0.36 s iteration
    /// (paper Table 2 / Fig. 10 inputs).
    pub const RESNET50: WorkloadShape = WorkloadShape {
        name: "resnet-50",
        compute_iter_s: 0.36,
        gradient_bytes: 102e6,
        layers: 161,
    };

    /// Seq2Seq (GNMT-scale): embedding-heavy ~870 MB of gradients behind
    /// a shorter compute iteration — the communication-hostile shape.
    pub const SEQ2SEQ: WorkloadShape =
        WorkloadShape { name: "seq2seq", compute_iter_s: 0.21, gradient_bytes: 870e6, layers: 96 };

    /// Runs the event engine for `shape` on `cluster`, optionally with
    /// seeded straggler injection, returning the recorded events and the
    /// engine outcome (for ground-truth filtering).
    pub fn cluster_events(
        shape: &WorkloadShape,
        cluster: &ClusterConfig,
        stragglers: Option<StragglerSpec>,
    ) -> (TraceStore, EventOutcome) {
        let config = EventConfig { stragglers, ..EventConfig::default() };
        let tracer = TraceRecorder::shared();
        let outcome = shape.worker().simulate_events(cluster, &config, Some(&tracer));
        (tracer.drain(), outcome)
    }

    fn kern(index: usize, class: KernelClass, flops: f64, bytes: f64) -> LoweredKernel {
        LoweredKernel {
            node: NodeId::from_index(index),
            phase: Phase::Forward,
            spec: KernelSpec::new(class, flops, bytes, "scenario"),
        }
    }

    fn device_events(kernels: &[LoweredKernel]) -> TraceStore {
        let tracer = TraceRecorder::shared();
        simulate_iteration(
            kernels,
            &GpuSpec::quadro_p4000(),
            &CpuSpec::xeon_e5_2680(),
            &ExecutionParams::default(),
            Some(&tracer),
        );
        tracer.drain()
    }

    /// Launch-starvation scenario: a per-timestep-RNN-like stream of tiny
    /// elementwise kernels that never amortise the 5 µs launch overhead
    /// (Observation 5).
    pub fn launch_bound(kernels: usize) -> TraceStore {
        let stream: Vec<_> =
            (0..kernels).map(|i| kern(i, KernelClass::Elementwise, 3e4, 4e5)).collect();
        device_events(&stream)
    }

    /// Bandwidth-bound scenario: large elementwise/normalisation kernels
    /// whose roofline verdict is memory on every record.
    pub fn memory_bound(kernels: usize) -> TraceStore {
        let stream: Vec<_> = (0..kernels)
            .map(|i| {
                let class = if i % 2 == 0 {
                    KernelClass::Elementwise
                } else {
                    KernelClass::BatchNormForward
                };
                kern(i, class, 1e7, 4e8)
            })
            .collect();
        device_events(&stream)
    }

    /// Healthy compute-bound scenario: a stream of large GEMMs.
    pub fn compute_bound(kernels: usize) -> TraceStore {
        let stream: Vec<_> = (0..kernels).map(|i| kern(i, KernelClass::Gemm, 1e10, 1e8)).collect();
        device_events(&stream)
    }

    /// Allocator-thrash scenario: cyclic alloc/free ping-pong on the
    /// dynamic category with no kernel stream to amortise it.
    pub fn allocator_thrash(pairs: usize) -> TraceStore {
        let mut events = TraceStore::with_capacity(2 * pairs);
        let name = events.intern("dynamic");
        for i in 0..pairs {
            let t = i as f64 * 2.0;
            for (kind, at) in [(EventKind::Alloc, t), (EventKind::Free, t + 1.0)] {
                events.span(name, TraceLayer::GpuSim, kind, at, 0.0).with_arg("bytes", 1u64 << 22);
            }
        }
        events
    }

    /// Membership-churn scenario: the elastic supervisor runs `shape` on
    /// a four-GPU cohort under a seeded churn schedule heavy enough to
    /// guarantee at least one eviction, returning the recorded membership
    /// events and the elastic outcome (ground truth for the confusion
    /// matrix).
    pub fn membership_churn(shape: &WorkloadShape, seed: u64) -> (TraceStore, ElasticOutcome) {
        let cluster = ClusterConfig::single_machine(4);
        let config = ElasticConfig::new(ChurnSpec::with_seed(seed).with_rate(0.9), 40);
        let tracer = TraceRecorder::shared();
        let outcome = shape.worker().simulate_elastic(&cluster, &config, Some(&tracer));
        (tracer.drain(), outcome)
    }

    /// OOM-pressure scenario: a run that ends in failed device
    /// allocations (the silent-OOM path PR 2 made loud).
    pub fn oom_pressure(fails: usize) -> TraceStore {
        let mut events = TraceStore::new();
        let weights = events.intern("weights");
        events
            .span(weights, TraceLayer::GpuSim, EventKind::Alloc, 0.0, 0.0)
            .with_arg("bytes", 1u64 << 30);
        let workspace = events.intern("workspace");
        for i in 0..fails {
            events
                .span(workspace, TraceLayer::GpuSim, EventKind::AllocFail, 1.0 + i as f64, 0.0)
                .with_arg("bytes", 3u64 << 30);
        }
        events
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_trace_is_guarded() {
        let report = diagnose_events("empty", "tf", 4, &TraceStore::new());
        assert_eq!(report.top1().class, BottleneckClass::ComputeBound);
        assert_eq!(report.top1().confidence, 0.0);
        assert!(report.diagnoses.iter().all(|d| d.confidence.is_finite()));
        assert_eq!(report.diagnoses.len(), 1);
    }

    #[test]
    fn single_event_trace_is_guarded() {
        let mut events = TraceStore::new();
        let capture = events.intern("capture");
        events.span(capture, TraceLayer::Profiler, EventKind::Phase, 0.0, 0.0);
        let report = diagnose_events("tiny", "tf", 4, &events);
        assert_eq!(report.top1().class, BottleneckClass::ComputeBound);
        assert!(report.top1().confidence.is_finite());
        assert!((0.0..=1.0).contains(&report.top1().confidence));
    }

    #[test]
    fn labels_round_trip() {
        for class in BottleneckClass::ALL {
            assert_eq!(BottleneckClass::parse(class.label()).unwrap(), class);
        }
        assert!(BottleneckClass::parse("slow-vibes").is_err());
    }

    #[test]
    fn report_round_trips_through_json() {
        let events = scenarios::oom_pressure(3);
        let report = diagnose_events("oom", "mxnet", 8, &events);
        assert_eq!(report.top1().class, BottleneckClass::OomPressure);
        let text = report.to_json().to_string();
        let parsed = DiagnosisReport::from_json_text(&text).expect("round trip");
        assert_eq!(parsed, report);
        assert_eq!(parsed.digest_hex(), report.digest_hex());
        let bumped = text.replace("\"schema_version\":1", "\"schema_version\":99");
        assert!(DiagnosisReport::from_json_text(&bumped).is_err());
    }

    #[test]
    fn drift_gate_passes_self_and_catches_reordering() {
        let report = diagnose_events("oom", "mxnet", 8, &scenarios::oom_pressure(2));
        report.check_drift(&report).expect("self never drifts");
        let mut moved = report.clone();
        moved.diagnoses[0].confidence -= 0.5;
        assert!(moved.check_drift(&report).is_err());
    }

    #[test]
    fn injected_churn_is_named_top1() {
        for seed in [1u64, 2, 3] {
            let (events, outcome) = scenarios::membership_churn(&scenarios::RESNET50, seed);
            assert!(outcome.evictions > 0, "seed {seed} injected no churn");
            let report = diagnose_events("resnet-50", "tf", 32, &events);
            assert_eq!(
                report.top1().class,
                BottleneckClass::MembershipChurn,
                "seed {seed}: {:?}",
                report.diagnoses.iter().map(|d| d.class.label()).collect::<Vec<_>>()
            );
            assert!(report.top1().confidence > 0.6);
            assert!(report.top1().evidence.iter().any(|e| e.metric == "churn_goodput_fraction"));
        }
    }

    #[test]
    fn markdown_names_the_top_class() {
        let report = diagnose_events("launch", "tf", 4, &scenarios::launch_bound(1500));
        let md = report.to_markdown();
        assert!(md.contains("launch-overhead"), "{md}");
        assert!(md.contains("report digest"), "{md}");
    }
}
