//! Streaming, bounded-memory metrics aggregation over the trace spine.
//!
//! PR 2 gave every layer a shared event stream; this module turns that
//! stream into the paper's metric set (§3.4.3) *online*: a
//! [`StreamingAggregator`] attaches to a
//! [`TraceRecorder`](tbd_graph::TraceRecorder) as a
//! [`TraceSink`] and folds each published batch into a fixed-size state —
//! per-kernel compute/FP32 attribution (Fig. 5), host/CPU utilisation from
//! executor spans (Fig. 7), the Fig. 9 memory breakdown from
//! alloc/free/alloc-fail instants, exposed-communication and
//! memcpy-overlap ratios (Fig. 10), and a rolling stable-window throughput
//! that reuses [`detect_stable_window`] — then snapshots everything into a
//! [`MetricsRegistry`] of counters, gauges and log2-bucket histograms with
//! Prometheus-text, JSON and markdown exporters.
//!
//! # Determinism contract
//!
//! Aggregation is a left fold over the event sequence. The recorder calls
//! the sink under its event lock, so the fold order equals the storage
//! order regardless of how events were split across `record_batch` calls
//! — which makes streaming aggregation *bit-identical* to post-hoc
//! aggregation of the drained trace (asserted by
//! `crates/profiler/tests/agg_props.rs` via [`MetricsRegistry::canonical`],
//! which encodes every float by exact bit pattern).
//!
//! # Bounded memory
//!
//! The state never grows with trace length: the per-kernel table is capped
//! at [`MAX_KERNEL_SERIES`] distinct names (the overflow folds into an
//! `_other` row — deterministic, because arrival order is part of the
//! fold), histograms have a fixed 64 log2 buckets, and the rolling
//! iteration window keeps the newest [`ITERATION_WINDOW_CAP`] durations.

use crate::json::Value;
use crate::sampling::{detect_stable_window, window_throughput, SamplingConfig};
use std::collections::{BTreeMap, HashMap};
use std::fmt::Write as _;
use std::sync::{Arc, Mutex};
use tbd_graph::trace::{ArgValue, EventKind, EventRef, TraceLayer, TraceSink, TraceStore};

/// Cap on distinct per-kernel series; later names fold into `_other`.
pub const MAX_KERNEL_SERIES: usize = 256;
/// Cap on distinct kernel-class series.
pub const MAX_CLASS_SERIES: usize = 64;
/// Rolling iteration-duration window length (newest kept).
pub const ITERATION_WINDOW_CAP: usize = 1024;
/// Name of the overflow row once [`MAX_KERNEL_SERIES`] is exceeded.
pub const OVERFLOW_SERIES: &str = "_other";

const LOG2_BUCKETS: usize = 64;

/// A fixed-size histogram with power-of-two bucket boundaries.
///
/// Bucket 0 covers `(-inf, 1)`; bucket `i` covers `[2^(i-1), 2^i)`; the
/// last bucket absorbs everything above. Designed for microsecond
/// durations, whose interesting range spans ~9 orders of magnitude.
#[derive(Debug, Clone, PartialEq)]
pub struct Log2Histogram {
    buckets: [u64; LOG2_BUCKETS],
    count: u64,
    sum: f64,
}

impl Default for Log2Histogram {
    fn default() -> Self {
        Log2Histogram { buckets: [0; LOG2_BUCKETS], count: 0, sum: 0.0 }
    }
}

impl Log2Histogram {
    /// Index of the bucket `value` falls into.
    pub fn bucket_index(value: f64) -> usize {
        if value.is_nan() || value < 1.0 {
            return 0; // negatives, zeros and NaN all land in the first bucket
        }
        let truncated = if value >= u64::MAX as f64 { u64::MAX } else { value as u64 };
        ((64 - truncated.leading_zeros()) as usize).min(LOG2_BUCKETS - 1)
    }

    /// Exclusive upper bound of bucket `index`.
    pub fn bucket_upper_bound(index: usize) -> f64 {
        if index >= LOG2_BUCKETS - 1 {
            f64::INFINITY
        } else {
            (index as f64).exp2()
        }
    }

    /// Records one observation.
    pub fn observe(&mut self, value: f64) {
        self.buckets[Self::bucket_index(value)] += 1;
        self.count += 1;
        self.sum += value;
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all observations.
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// `(bucket index, count)` for every non-empty bucket.
    pub fn nonzero_buckets(&self) -> impl Iterator<Item = (usize, u64)> + '_ {
        self.buckets.iter().enumerate().filter(|(_, &c)| c > 0).map(|(i, &c)| (i, c))
    }
}

/// A snapshot of aggregated metrics: counters, gauges and histograms keyed
/// by series name (`family` or `family{label="value"}`). [`BTreeMap`]s make
/// every export deterministic.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsRegistry {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, f64>,
    histograms: BTreeMap<String, Log2Histogram>,
}

/// Builds a `family{key="value"}` series name with label escaping.
pub fn series(family: &str, label_key: &str, label_value: &str) -> String {
    format!("{family}{{{label_key}=\"{}\"}}", escape_label_value(label_value))
}

/// Escapes a label value per the Prometheus exposition format: `\`, `"`
/// and newline become `\\`, `\"` and `\n`. Kernel labels like `fused:a+b`
/// pass through unchanged — only the three escape-relevant characters are
/// rewritten.
pub fn escape_label_value(value: &str) -> String {
    let mut out = String::with_capacity(value.len());
    for c in value.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

/// Rewrites a metric family name into the Prometheus name charset
/// (`[a-zA-Z_:][a-zA-Z0-9_:]*`): every invalid character becomes `_`, and
/// a leading digit is prefixed with `_`. In-tree families are already
/// clean; this guards dynamically named series (future per-kernel
/// families) from producing unscrapable output.
pub fn sanitize_metric_name(name: &str) -> String {
    let mut out = String::with_capacity(name.len());
    for c in name.chars() {
        let valid = c.is_ascii_alphanumeric() || c == '_' || c == ':';
        out.push(if valid { c } else { '_' });
    }
    if out.is_empty() || out.as_bytes()[0].is_ascii_digit() {
        out.insert(0, '_');
    }
    out
}

fn family_of(series: &str) -> &str {
    series.split('{').next().unwrap_or(series)
}

/// Series name as written in the exposition output: the family part runs
/// through [`sanitize_metric_name`], the label part (already escaped at
/// [`series`]-construction time) is preserved.
fn prom_series_name(series: &str) -> String {
    match series.split_once('{') {
        Some((family, labels)) => format!("{}{{{labels}", sanitize_metric_name(family)),
        None => sanitize_metric_name(series),
    }
}

impl MetricsRegistry {
    /// Adds `by` to a counter series.
    pub fn inc(&mut self, series: impl Into<String>, by: u64) {
        *self.counters.entry(series.into()).or_insert(0) += by;
    }

    /// Sets a gauge series.
    pub fn set_gauge(&mut self, series: impl Into<String>, value: f64) {
        self.gauges.insert(series.into(), value);
    }

    /// Records an observation into a histogram series.
    pub fn observe(&mut self, series: impl Into<String>, value: f64) {
        self.histograms.entry(series.into()).or_default().observe(value);
    }

    /// Inserts a pre-built histogram under `series`.
    pub fn insert_histogram(&mut self, series: impl Into<String>, hist: Log2Histogram) {
        self.histograms.insert(series.into(), hist);
    }

    /// Value of a counter series.
    pub fn counter(&self, series: &str) -> Option<u64> {
        self.counters.get(series).copied()
    }

    /// Value of a gauge series.
    pub fn gauge(&self, series: &str) -> Option<f64> {
        self.gauges.get(series).copied()
    }

    /// A histogram series.
    pub fn histogram(&self, series: &str) -> Option<&Log2Histogram> {
        self.histograms.get(series)
    }

    /// All counter series in deterministic order.
    pub fn counters(&self) -> impl Iterator<Item = (&str, u64)> {
        self.counters.iter().map(|(k, &v)| (k.as_str(), v))
    }

    /// All gauge series in deterministic order.
    pub fn gauges(&self) -> impl Iterator<Item = (&str, f64)> {
        self.gauges.iter().map(|(k, &v)| (k.as_str(), v))
    }

    /// `true` when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.gauges.is_empty() && self.histograms.is_empty()
    }

    /// Canonical text form: one line per series, floats rendered by exact
    /// bit pattern. Two registries are bit-identical iff their canonical
    /// forms are equal — the comparison the streaming-vs-post-hoc property
    /// test performs.
    pub fn canonical(&self) -> String {
        let mut out = String::new();
        for (name, value) in &self.counters {
            let _ = writeln!(out, "c|{name}|{value}");
        }
        for (name, value) in &self.gauges {
            let _ = writeln!(out, "g|{name}|{:016x}", value.to_bits());
        }
        for (name, hist) in &self.histograms {
            let _ = write!(out, "h|{name}|n:{}|s:{:016x}", hist.count, hist.sum.to_bits());
            for (bucket, count) in hist.nonzero_buckets() {
                let _ = write!(out, "|{bucket}:{count}");
            }
            out.push('\n');
        }
        out
    }

    /// Prometheus text exposition format. Every family is prefixed `tbd_`;
    /// histograms emit cumulative `_bucket{le=…}` series plus `_sum` and
    /// `_count`, as the format requires.
    pub fn to_prometheus(&self) -> String {
        let mut out = String::new();
        let mut grouped: BTreeMap<&str, Vec<(&str, String)>> = BTreeMap::new();
        for (name, value) in &self.counters {
            grouped.entry(family_of(name)).or_default().push((name.as_str(), value.to_string()));
        }
        for (family, series) in grouped {
            let _ = writeln!(out, "# TYPE tbd_{} counter", sanitize_metric_name(family));
            for (name, value) in series {
                let _ = writeln!(out, "tbd_{} {value}", prom_series_name(name));
            }
        }
        let mut grouped: BTreeMap<&str, Vec<(&str, f64)>> = BTreeMap::new();
        for (name, value) in &self.gauges {
            grouped.entry(family_of(name)).or_default().push((name.as_str(), *value));
        }
        for (family, series) in grouped {
            let _ = writeln!(out, "# TYPE tbd_{} gauge", sanitize_metric_name(family));
            for (name, value) in series {
                let _ = writeln!(out, "tbd_{} {value}", prom_series_name(name));
            }
        }
        for (name, hist) in &self.histograms {
            let name = sanitize_metric_name(name);
            let _ = writeln!(out, "# TYPE tbd_{name} histogram");
            let mut cumulative = 0u64;
            for (bucket, count) in hist.nonzero_buckets() {
                cumulative += count;
                let le = Log2Histogram::bucket_upper_bound(bucket);
                if le.is_finite() {
                    let _ = writeln!(out, "tbd_{name}_bucket{{le=\"{le}\"}} {cumulative}");
                }
            }
            let _ = writeln!(out, "tbd_{name}_bucket{{le=\"+Inf\"}} {}", hist.count);
            let _ = writeln!(out, "tbd_{name}_sum {}", hist.sum);
            let _ = writeln!(out, "tbd_{name}_count {}", hist.count);
        }
        out
    }

    /// JSON export through the in-tree [`crate::json`] value model, so the
    /// output round-trips by construction.
    pub fn to_json(&self) -> Value {
        let mut root = BTreeMap::new();
        let counters: BTreeMap<String, Value> =
            self.counters.iter().map(|(k, &v)| (k.clone(), Value::Num(v as f64))).collect();
        let gauges: BTreeMap<String, Value> =
            self.gauges.iter().map(|(k, &v)| (k.clone(), Value::Num(v))).collect();
        let mut histograms = BTreeMap::new();
        for (name, hist) in &self.histograms {
            let buckets: Vec<Value> = hist
                .nonzero_buckets()
                .map(|(bucket, count)| {
                    let mut entry = BTreeMap::new();
                    entry.insert(
                        "le".to_string(),
                        Value::Num(Log2Histogram::bucket_upper_bound(bucket).min(f64::MAX)),
                    );
                    entry.insert("count".to_string(), Value::Num(count as f64));
                    Value::Obj(entry)
                })
                .collect();
            let mut h = BTreeMap::new();
            h.insert("count".to_string(), Value::Num(hist.count as f64));
            h.insert("sum".to_string(), Value::Num(hist.sum));
            h.insert("buckets".to_string(), Value::Arr(buckets));
            histograms.insert(name.clone(), Value::Obj(h));
        }
        root.insert("counters".to_string(), Value::Obj(counters));
        root.insert("gauges".to_string(), Value::Obj(gauges));
        root.insert("histograms".to_string(), Value::Obj(histograms));
        Value::Obj(root)
    }
}

/// One row of the Fig. 5 per-kernel attribution table.
#[derive(Debug, Clone, PartialEq)]
pub struct KernelAttribution {
    /// Kernel label (`origin::Class`, or [`OVERFLOW_SERIES`]).
    pub name: String,
    /// Kernel class tag (from the gpusim `class` arg).
    pub class: String,
    /// Whether the series aggregates memcpy spans.
    pub memcpy: bool,
    /// Invocations.
    pub calls: u64,
    /// Summed device time in microseconds.
    pub total_us: f64,
    /// Summed FLOPs.
    pub flops: f64,
    /// Duration-weighted mean FP32 utilisation.
    pub fp32_utilization: f64,
    /// Share of total device-active time.
    pub compute_share: f64,
}

/// One row of the Fig. 9 memory breakdown.
#[derive(Debug, Clone, PartialEq)]
pub struct MemoryAttribution {
    /// Category label (matches `MemoryCategory`'s display form).
    pub category: &'static str,
    /// Peak bytes ever resident in the category.
    pub peak_bytes: u64,
    /// Fraction of the summed per-category peaks.
    pub fraction: f64,
}

#[derive(Debug, Clone, Default)]
struct KernelFold {
    class: String,
    memcpy: bool,
    calls: u64,
    total_us: f64,
    flops: f64,
    fp32_weighted_us: f64,
}

/// Display names of the five Fig. 9 categories, in paper plot order.
/// Kept in sync with `MemoryCategory::ALL` by a test in `tbd-frameworks`'
/// dependents; the aggregator matches allocator events by name so it does
/// not need a dependency on `tbd-gpusim`.
const MEMORY_CATEGORIES: [&str; 5] =
    ["feature maps", "weights", "weight gradients", "dynamic", "workspace"];

#[derive(Debug, Default)]
struct AggState {
    events_total: u64,
    events_by_layer: [u64; 5],
    // Fig. 5: per-kernel attribution (bounded table) + per-class totals,
    // each a list of series with a name index.
    kernels: Vec<(String, KernelFold)>,
    kernel_index: HashMap<String, usize>,
    classes: Vec<(String, u64, f64)>,
    class_index: HashMap<String, usize>,
    kernel_us: f64,
    kernel_calls: u64,
    fp32_weighted_us: f64,
    total_flops: f64,
    kernel_hist: Log2Histogram,
    // Roofline verdict split: device time in [compute, memory]-bound
    // kernels (the diagnosis engine's bandwidth-vs-roofline input).
    bound_us: [f64; 2],
    // Device stream bookkeeping.
    memcpy_us: f64,
    memcpy_calls: u64,
    memcpy_hist: Log2Histogram,
    launch_us: f64,
    launch_calls: u64,
    launch_hist: Log2Histogram,
    sync_us: f64,
    sync_calls: u64,
    sim_iteration_us: f64,
    gpu_busy_us: f64,
    // Fig. 7: host side.
    host_node_us: f64,
    host_nodes: u64,
    host_phase_us: f64,
    host_threads: u32,
    node_hist: Log2Histogram,
    // Framework-tagged gauges.
    framework_seen: bool,
    framework_throughput: f64,
    framework_cpu_utilization: f64,
    framework_fp32_utilization: f64,
    framework_gpu_utilization: f64,
    input_pipeline_us: f64,
    pipeline_overlap: f64,
    pipeline_seen: bool,
    // Fig. 10: communication.
    comm_us: f64,
    comm_exposed_us: f64,
    comm_bytes: f64,
    comm_events: u64,
    comm_buckets: u64,
    comm_retries: u64,
    cluster_iteration_us: f64,
    cluster_throughput: f64,
    // Fig. 9: memory.
    mem_current: [u64; 5],
    mem_peak: [u64; 5],
    allocs: u64,
    frees: u64,
    alloc_fails: u64,
    alloc_fail_bytes: u64,
    // Rolling throughput window.
    iteration_s: Vec<f64>,
    iterations_total: u64,
    iteration_batch: u64,
    // Bounded-memory loss accounting: device spans folded into the
    // `_other` overflow row, and iteration durations evicted from the
    // rolling window. Nonzero values mean the bounded state is summarising
    // (not dropping) — but the operator must be able to see it happening.
    kernel_series_overflow: u64,
    window_dropped: u64,
    // §5f: faults and recovery (chaos harness).
    faults_total: u64,
    faults_by_kind: BTreeMap<String, u64>,
    recoveries_total: u64,
    recoveries_by_action: BTreeMap<String, u64>,
    recovery_time_us: f64,
    checkpoints_total: u64,
    checkpoint_bytes: u64,
    checkpoint_bytes_total: u64,
    chaos_seen: bool,
    goodput: f64,
    chaos_throughput: f64,
    // §5k: elastic membership (churn harness).
    membership_epochs: u64,
    evictions_total: u64,
    rejoins_total: u64,
    degraded_iterations: u64,
    deadline_stall_us: f64,
    rejoin_catchup_us: f64,
    elastic_seen: bool,
    elastic_goodput: f64,
    elastic_healthy_goodput: f64,
}

/// A numeric (`F64` or `U64`) argument of `event`.
pub(crate) fn arg_f64(event: EventRef<'_>, key: &str) -> Option<f64> {
    event.arg(key).and_then(|v| match v {
        ArgValue::F64(x) => Some(*x),
        ArgValue::U64(x) => Some(*x as f64),
        _ => None,
    })
}

fn arg_u64(event: EventRef<'_>, key: &str) -> Option<u64> {
    event.arg(key).and_then(|v| match v {
        ArgValue::U64(x) => Some(*x),
        _ => None,
    })
}

fn arg_str<'e>(event: EventRef<'e>, key: &str) -> Option<&'e str> {
    event.arg(key).and_then(|v| match v {
        ArgValue::Str(s) => Some(s.as_ref()),
        _ => None,
    })
}

/// The args a device span folds, each read from its key's first
/// occurrence as [`EventRef::arg`] would, in one pass over the args.
/// `Some(None)`: the key came with a value of another type.
#[derive(Debug, Default)]
struct DeviceArgs<'a> {
    fp32_util: Option<Option<f64>>,
    flops: Option<Option<f64>>,
    class: Option<Option<&'a str>>,
    bound: Option<Option<&'a str>>,
}

impl<'a> DeviceArgs<'a> {
    fn of(event: EventRef<'a>) -> Self {
        let number = |v: &ArgValue| match v {
            ArgValue::F64(x) => Some(*x),
            ArgValue::U64(x) => Some(*x as f64),
            _ => None,
        };
        let text = |v: &'a ArgValue| match v {
            ArgValue::Str(s) => Some(s.as_ref()),
            _ => None,
        };
        let mut args = DeviceArgs::default();
        for (key, value) in event.args {
            match *key {
                "fp32_util" => _ = args.fp32_util.get_or_insert(number(value)),
                "flops" => _ = args.flops.get_or_insert(number(value)),
                "class" => _ = args.class.get_or_insert(text(value)),
                "bound" => _ = args.bound.get_or_insert(text(value)),
                _ => {}
            }
        }
        args
    }
}

/// The kernel series a device-span name folds into.
#[derive(Debug, Clone, Copy)]
enum KernelSlot {
    /// Its own row.
    Own(usize),
    /// The `_other` row: the table was full when the name first came.
    Overflow(usize),
}

/// What one name id of the batch being folded resolved to: its kernel
/// series, and the class series of the last class it came with. A name
/// resolves once per batch; later events of it fold by integer index.
#[derive(Debug, Clone, Copy, Default)]
struct NameSlot<'a> {
    kernel: Option<KernelSlot>,
    class: Option<(&'a str, Option<usize>)>,
}

impl AggState {
    /// Folds every event of `events`, in order. Spans that fold only
    /// their timing are read from the columns; an [`EventRef`] is built
    /// only for events whose name or args are read.
    fn fold_all(&mut self, events: &TraceStore) {
        let mut slots = vec![NameSlot::default(); events.names().len()];
        let (layers, kinds) = (events.layer_column(), events.kind_column());
        let (durs, tracks) = (events.dur_column(), events.track_column());
        for i in 0..events.len() {
            let (layer, dur_us) = (layers[i], durs[i]);
            self.events_total += 1;
            self.events_by_layer[layer.index()] += 1;
            match (layer, kinds[i]) {
                (TraceLayer::Executor, EventKind::NodeExec) => {
                    self.host_node_us += dur_us;
                    self.host_nodes += 1;
                    self.host_threads = self.host_threads.max(tracks[i] + 1);
                    self.node_hist.observe(dur_us);
                }
                (TraceLayer::Executor, EventKind::Phase) => self.host_phase_us += dur_us,
                (TraceLayer::GpuSim, EventKind::KernelLaunch) => {
                    self.launch_us += dur_us;
                    self.launch_calls += 1;
                    self.launch_hist.observe(dur_us);
                }
                (TraceLayer::GpuSim, EventKind::Sync) => {
                    self.sync_us += dur_us;
                    self.sync_calls += 1;
                }
                _ => self.fold(events.event(i), &mut slots),
            }
        }
    }

    /// Folds one event that reads its name or args (the rest of
    /// [`AggState::fold_all`]).
    fn fold<'a>(&mut self, event: EventRef<'a>, slots: &mut [NameSlot<'a>]) {
        match (event.layer, event.kind) {
            (TraceLayer::Executor, EventKind::Fault) => {
                self.faults_total += 1;
                if let Some(kind) = arg_str(event, "fault") {
                    // Bounded by the fault taxonomy (5 kinds).
                    if self.faults_by_kind.contains_key(kind) || self.faults_by_kind.len() < 8 {
                        *self.faults_by_kind.entry(kind.to_string()).or_insert(0) += 1;
                    }
                }
            }
            (TraceLayer::Executor, EventKind::Recovery) => {
                self.recoveries_total += 1;
                self.recovery_time_us += event.dur_us;
                if let Some(action) = arg_str(event, "action") {
                    if self.recoveries_by_action.contains_key(action)
                        || self.recoveries_by_action.len() < 8
                    {
                        *self.recoveries_by_action.entry(action.to_string()).or_insert(0) += 1;
                    }
                }
            }
            (TraceLayer::Executor, EventKind::Checkpoint) => {
                self.checkpoints_total += 1;
                if let Some(bytes) = arg_u64(event, "bytes") {
                    self.checkpoint_bytes = bytes;
                    self.checkpoint_bytes_total += bytes;
                }
            }
            (TraceLayer::Executor, EventKind::Iteration) => {
                // The chaos run summary: goodput = useful samples over
                // total simulated time, net of replayed and skipped work.
                if let Some(goodput) = arg_f64(event, "goodput") {
                    self.chaos_seen = true;
                    self.goodput = goodput;
                }
                if let Some(throughput) = arg_f64(event, "throughput") {
                    self.chaos_throughput = throughput;
                }
            }
            (TraceLayer::GpuSim, EventKind::KernelExec)
            | (TraceLayer::GpuSim, EventKind::Memcpy) => {
                self.fold_device_span(event, &mut slots[event.name_id as usize]);
            }
            (TraceLayer::GpuSim, EventKind::Iteration) => {
                self.sim_iteration_us = event.dur_us;
                if let Some(busy) = arg_f64(event, "gpu_busy_us") {
                    self.gpu_busy_us = busy;
                }
            }
            (TraceLayer::GpuSim, EventKind::Alloc) => {
                self.allocs += 1;
                self.fold_memory(event, true);
            }
            (TraceLayer::GpuSim, EventKind::Free) => {
                self.frees += 1;
                self.fold_memory(event, false);
            }
            (TraceLayer::GpuSim, EventKind::AllocFail) => {
                self.alloc_fails += 1;
                if let Some(bytes) = arg_u64(event, "bytes") {
                    self.alloc_fail_bytes = bytes;
                }
            }
            (TraceLayer::Framework, EventKind::Iteration) => {
                self.framework_seen = true;
                if let Some(v) = arg_f64(event, "throughput") {
                    self.framework_throughput = v;
                }
                if let Some(v) = arg_f64(event, "cpu_utilization") {
                    self.framework_cpu_utilization = v;
                }
                if let Some(v) = arg_f64(event, "fp32_utilization") {
                    self.framework_fp32_utilization = v;
                }
                if let Some(v) = arg_f64(event, "gpu_utilization") {
                    self.framework_gpu_utilization = v;
                }
            }
            (TraceLayer::Framework, EventKind::Phase) => {
                if let Some(overlap) = arg_f64(event, "overlap") {
                    self.pipeline_seen = true;
                    self.input_pipeline_us += event.dur_us;
                    self.pipeline_overlap = overlap;
                }
            }
            (TraceLayer::Distrib, EventKind::Communication) => {
                self.comm_events += 1;
                self.comm_us += event.dur_us;
                if let Some(v) = arg_f64(event, "exposed_us") {
                    self.comm_exposed_us += v;
                }
                if let Some(v) = arg_f64(event, "bytes") {
                    self.comm_bytes += v;
                }
                // Event-engine bucket spans: count buckets and any retried
                // transfer attempts (attempts > 1 means drops happened).
                if arg_f64(event, "bucket").is_some() {
                    self.comm_buckets += 1;
                }
                if let Some(a) = arg_f64(event, "attempts") {
                    self.comm_retries += (a as u64).saturating_sub(1);
                }
            }
            (TraceLayer::Distrib, EventKind::Iteration) => {
                self.cluster_iteration_us = event.dur_us;
                if let Some(v) = arg_f64(event, "throughput") {
                    self.cluster_throughput = v;
                }
            }
            (TraceLayer::Distrib, EventKind::Eviction) => {
                self.elastic_seen = true;
                self.evictions_total += 1;
            }
            (TraceLayer::Distrib, EventKind::Rejoin) => {
                self.elastic_seen = true;
                self.rejoins_total += 1;
            }
            (TraceLayer::Distrib, EventKind::Membership) => {
                self.elastic_seen = true;
                // Epoch-transition instants carry the epoch ordinal; the
                // `elastic/run` summary span carries the authoritative
                // totals. Deadline/catch-up time comes from the summary
                // only: simultaneous evictions share one deadline stall,
                // so summing the per-worker instants would double-count.
                if let Some(epoch) = arg_u64(event, "epoch") {
                    self.membership_epochs = self.membership_epochs.max(epoch + 1);
                }
                if let Some(epochs) = arg_u64(event, "epochs") {
                    self.membership_epochs = self.membership_epochs.max(epochs);
                }
                if let Some(v) = arg_u64(event, "degraded_steps") {
                    self.degraded_iterations = v;
                }
                if let Some(v) = arg_f64(event, "deadline_stall_s") {
                    self.deadline_stall_us = v * 1e6;
                }
                if let Some(v) = arg_f64(event, "rejoin_catchup_s") {
                    self.rejoin_catchup_us = v * 1e6;
                }
                if let Some(v) = arg_f64(event, "goodput") {
                    self.elastic_goodput = v;
                }
                if let Some(v) = arg_f64(event, "healthy_goodput") {
                    self.elastic_healthy_goodput = v;
                }
            }
            _ => {}
        }
        // Rolling stable-window throughput: any iteration span carrying a
        // `batch` arg (framework iterations, `tbd metrics`' synthesised
        // training run) feeds the bounded window.
        if event.kind == EventKind::Iteration {
            if let Some(batch) = arg_u64(event, "batch") {
                self.iterations_total += 1;
                self.iteration_batch = batch;
                if self.iteration_s.len() == ITERATION_WINDOW_CAP {
                    self.iteration_s.remove(0);
                    self.window_dropped += 1;
                }
                self.iteration_s.push(event.dur_us / 1e6);
            }
        }
    }

    fn fold_device_span<'a>(&mut self, event: EventRef<'a>, slot: &mut NameSlot<'a>) {
        let memcpy = event.kind == EventKind::Memcpy;
        let args = DeviceArgs::of(event);
        let fp32 = args.fp32_util.flatten().unwrap_or(0.0);
        let flops = args.flops.flatten().unwrap_or(0.0);
        let class = args.class.flatten().unwrap_or(if memcpy { "Memcpy" } else { "Kernel" });
        if memcpy {
            self.memcpy_us += event.dur_us;
            self.memcpy_calls += 1;
            self.memcpy_hist.observe(event.dur_us);
        } else {
            self.kernel_us += event.dur_us;
            self.kernel_calls += 1;
            self.fp32_weighted_us += fp32 * event.dur_us;
            self.total_flops += flops;
            self.kernel_hist.observe(event.dur_us);
            match args.bound.flatten() {
                Some("compute") => self.bound_us[0] += event.dur_us,
                Some("memory") => self.bound_us[1] += event.dur_us,
                _ => {}
            }
        }
        // Hot path: the name resolved earlier in the batch folds by index;
        // the `to_string`s only run on a series' first event.
        let kernel = *slot.kernel.get_or_insert_with(|| {
            if let Some(&index) = self.kernel_index.get(event.name) {
                KernelSlot::Own(index)
            } else if self.kernels.len() < MAX_KERNEL_SERIES {
                let fold = KernelFold { class: class.to_string(), memcpy, ..KernelFold::default() };
                KernelSlot::Own(self.add_kernel(event.name, fold))
            } else {
                let index = match self.kernel_index.get(OVERFLOW_SERIES) {
                    Some(&index) => index,
                    None => self.add_kernel(OVERFLOW_SERIES, KernelFold::default()),
                };
                KernelSlot::Overflow(index)
            }
        });
        let fold = match kernel {
            KernelSlot::Own(index) => &mut self.kernels[index].1,
            KernelSlot::Overflow(index) => {
                self.kernel_series_overflow += 1;
                let fold = &mut self.kernels[index].1;
                if fold.calls == 0 {
                    fold.class = class.to_string();
                    fold.memcpy = memcpy;
                }
                fold
            }
        };
        fold.calls += 1;
        fold.total_us += event.dur_us;
        fold.flops += flops;
        fold.fp32_weighted_us += fp32 * event.dur_us;
        let index = match slot.class {
            Some((seen, index)) if seen == class => index,
            _ => self.class_index.get(class).copied(),
        };
        let index = match index {
            Some(index) => {
                let (_, calls, total_us) = &mut self.classes[index];
                *calls += 1;
                *total_us += event.dur_us;
                Some(index)
            }
            None if self.classes.len() < MAX_CLASS_SERIES => {
                self.class_index.insert(class.to_string(), self.classes.len());
                self.classes.push((class.to_string(), 1, event.dur_us));
                Some(self.classes.len() - 1)
            }
            None => None,
        };
        slot.class = Some((class, index));
    }

    fn add_kernel(&mut self, name: &str, fold: KernelFold) -> usize {
        self.kernel_index.insert(name.to_string(), self.kernels.len());
        self.kernels.push((name.to_string(), fold));
        self.kernels.len() - 1
    }

    /// Class series sorted by name.
    fn sorted_classes(&self) -> Vec<&(String, u64, f64)> {
        let mut classes: Vec<_> = self.classes.iter().collect();
        classes.sort_by(|a, b| a.0.cmp(&b.0));
        classes
    }

    fn fold_memory(&mut self, event: EventRef<'_>, alloc: bool) {
        let Some(index) = MEMORY_CATEGORIES.iter().position(|c| *c == event.name) else {
            return;
        };
        let bytes = arg_u64(event, "bytes").unwrap_or(0);
        if alloc {
            self.mem_current[index] += bytes;
            self.mem_peak[index] = self.mem_peak[index].max(self.mem_current[index]);
        } else {
            self.mem_current[index] = self.mem_current[index].saturating_sub(bytes);
        }
    }

    fn kernel_attribution(&self) -> Vec<KernelAttribution> {
        let active = self.kernel_us + self.memcpy_us;
        let mut rows: Vec<KernelAttribution> = self
            .kernels
            .iter()
            .map(|(name, fold)| KernelAttribution {
                name: name.clone(),
                class: fold.class.clone(),
                memcpy: fold.memcpy,
                calls: fold.calls,
                total_us: fold.total_us,
                flops: fold.flops,
                fp32_utilization: if fold.total_us > 0.0 {
                    fold.fp32_weighted_us / fold.total_us
                } else {
                    0.0
                },
                compute_share: if active > 0.0 { fold.total_us / active } else { 0.0 },
            })
            .collect();
        rows.sort_by(|a, b| b.total_us.total_cmp(&a.total_us).then_with(|| a.name.cmp(&b.name)));
        rows
    }

    fn memory_attribution(&self) -> Vec<MemoryAttribution> {
        let total: u64 = self.mem_peak.iter().sum();
        MEMORY_CATEGORIES
            .iter()
            .enumerate()
            .map(|(i, category)| MemoryAttribution {
                category,
                peak_bytes: self.mem_peak[i],
                fraction: if total > 0 { self.mem_peak[i] as f64 / total as f64 } else { 0.0 },
            })
            .collect()
    }

    fn stable_throughput(&self, cfg: &SamplingConfig) -> Option<(usize, usize, f64)> {
        let window = detect_stable_window(&self.iteration_s, cfg)?;
        let throughput =
            window_throughput(&self.iteration_s, window, self.iteration_batch as usize)?;
        Some((window.0, window.1, throughput))
    }

    fn registry(&self, cfg: &SamplingConfig) -> MetricsRegistry {
        let mut reg = MetricsRegistry::default();
        reg.inc("events_total", self.events_total);
        for layer in TraceLayer::ALL {
            let count = self.events_by_layer[layer.pid() as usize - 1];
            if count > 0 {
                reg.inc(series("events_total", "layer", &layer.to_string()), count);
            }
        }
        // Bounded-memory loss accounting, exported even at zero so the
        // absence of data loss is an observable fact, not a missing series.
        reg.inc("agg_kernel_series_overflow_total", self.kernel_series_overflow);
        reg.inc("agg_window_dropped_total", self.window_dropped);
        // Fig. 5: per-kernel attribution.
        for row in self.kernel_attribution() {
            reg.inc(series("kernel_calls_total", "kernel", &row.name), row.calls);
            reg.set_gauge(series("kernel_time_us_total", "kernel", &row.name), row.total_us);
            if !row.memcpy {
                reg.set_gauge(
                    series("kernel_fp32_utilization", "kernel", &row.name),
                    row.fp32_utilization,
                );
            }
            reg.set_gauge(series("kernel_compute_share", "kernel", &row.name), row.compute_share);
        }
        for (class, calls, total_us) in self.sorted_classes() {
            reg.inc(series("class_calls_total", "class", class), *calls);
            reg.set_gauge(series("class_time_us_total", "class", class), *total_us);
        }
        if self.kernel_calls > 0 {
            reg.set_gauge("kernel_time_us", self.kernel_us);
            reg.set_gauge("total_flops", self.total_flops);
            reg.insert_histogram("kernel_duration_us", self.kernel_hist.clone());
            if self.kernel_us > 0.0 {
                reg.set_gauge("fp32_utilization", self.fp32_weighted_us / self.kernel_us);
            }
            let bound_total = self.bound_us[0] + self.bound_us[1];
            if bound_total > 0.0 {
                reg.set_gauge(series("kernel_bound_us", "bound", "compute"), self.bound_us[0]);
                reg.set_gauge(series("kernel_bound_us", "bound", "memory"), self.bound_us[1]);
                reg.set_gauge("memory_bound_time_fraction", self.bound_us[1] / bound_total);
            }
        }
        // Device stream totals and Eq. 1 utilisation.
        if self.memcpy_calls > 0 {
            reg.inc("memcpy_total", self.memcpy_calls);
            reg.set_gauge("memcpy_time_us", self.memcpy_us);
            reg.insert_histogram("memcpy_duration_us", self.memcpy_hist.clone());
        }
        if self.launch_calls > 0 {
            reg.inc("kernel_launches_total", self.launch_calls);
            reg.set_gauge("launch_time_us", self.launch_us);
            reg.insert_histogram("launch_duration_us", self.launch_hist.clone());
        }
        if self.sync_calls > 0 {
            reg.inc("device_sync_total", self.sync_calls);
            reg.set_gauge("sync_time_us", self.sync_us);
        }
        if self.sim_iteration_us > 0.0 {
            reg.set_gauge("sim_iteration_us", self.sim_iteration_us);
            reg.set_gauge("gpu_busy_us", self.gpu_busy_us);
            reg.set_gauge("gpu_utilization", (self.gpu_busy_us / self.sim_iteration_us).min(1.0));
        }
        let device_active = self.kernel_us + self.memcpy_us + self.sync_us;
        if device_active > 0.0 {
            reg.set_gauge("memcpy_time_fraction", self.memcpy_us / device_active);
        }
        // Fig. 7: host side.
        if self.host_nodes > 0 {
            reg.inc("host_nodes_total", self.host_nodes);
            reg.set_gauge("host_node_time_us", self.host_node_us);
            reg.set_gauge("host_threads", f64::from(self.host_threads));
            reg.insert_histogram("node_duration_us", self.node_hist.clone());
            if self.host_phase_us > 0.0 {
                reg.set_gauge(
                    "host_utilization",
                    (self.host_node_us / (self.host_phase_us * f64::from(self.host_threads.max(1))))
                        .min(1.0),
                );
            }
        }
        if self.framework_seen {
            reg.set_gauge("framework_throughput", self.framework_throughput);
            reg.set_gauge("cpu_utilization", self.framework_cpu_utilization);
            reg.set_gauge("framework_fp32_utilization", self.framework_fp32_utilization);
            reg.set_gauge("framework_gpu_utilization", self.framework_gpu_utilization);
        }
        if self.pipeline_seen {
            reg.set_gauge("input_pipeline_us", self.input_pipeline_us);
            reg.set_gauge("pipeline_overlap", self.pipeline_overlap);
            // Fig. 10 companion: H2D copies ride the input pipeline, so the
            // hidden fraction follows the framework's pipeline overlap.
            reg.set_gauge("memcpy_overlap_ratio", self.pipeline_overlap);
            reg.set_gauge("memcpy_exposed_us", self.memcpy_us * (1.0 - self.pipeline_overlap));
        }
        // Fig. 10: exposed communication.
        if self.comm_events > 0 {
            reg.inc("comm_events_total", self.comm_events);
            reg.set_gauge("comm_time_us", self.comm_us);
            reg.set_gauge("comm_exposed_us", self.comm_exposed_us);
            reg.set_gauge("comm_bytes", self.comm_bytes);
            if self.comm_buckets > 0 {
                reg.inc("comm_buckets_total", self.comm_buckets);
            }
            if self.comm_retries > 0 {
                reg.inc("comm_retries_total", self.comm_retries);
            }
            if self.comm_us > 0.0 {
                reg.set_gauge("comm_overlap_ratio", 1.0 - self.comm_exposed_us / self.comm_us);
            }
        }
        if self.cluster_iteration_us > 0.0 {
            reg.set_gauge("cluster_iteration_us", self.cluster_iteration_us);
            reg.set_gauge("cluster_throughput", self.cluster_throughput);
            reg.set_gauge("exposed_comm_ratio", self.comm_exposed_us / self.cluster_iteration_us);
        }
        // Fig. 9: memory breakdown.
        if self.allocs > 0 || self.alloc_fails > 0 {
            reg.inc("alloc_events_total", self.allocs);
            reg.inc("free_events_total", self.frees);
            reg.inc("alloc_failures_total", self.alloc_fails);
            if self.alloc_fails > 0 {
                reg.set_gauge("alloc_fail_bytes", self.alloc_fail_bytes as f64);
            }
            let mut total = 0u64;
            for row in self.memory_attribution() {
                reg.set_gauge(
                    series("memory_peak_bytes", "category", row.category),
                    row.peak_bytes as f64,
                );
                reg.set_gauge(series("memory_fraction", "category", row.category), row.fraction);
                total += row.peak_bytes;
            }
            reg.set_gauge("memory_peak_total_bytes", total as f64);
        }
        // Rolling stable-window throughput (§3.4.2, online).
        if self.iterations_total > 0 {
            reg.inc("iterations_total", self.iterations_total);
            if let Some((start, end, throughput)) = self.stable_throughput(cfg) {
                reg.set_gauge("stable_throughput", throughput);
                reg.set_gauge("stable_window_start", start as f64);
                reg.set_gauge("stable_window_len", (end - start) as f64);
            }
        }
        // §5f: faults and recovery.
        if self.faults_total > 0 || self.recoveries_total > 0 {
            reg.inc("faults_injected_total", self.faults_total);
            for (kind, count) in &self.faults_by_kind {
                reg.inc(series("faults_injected_total", "fault", kind), *count);
            }
            reg.inc("recoveries_total", self.recoveries_total);
            for (action, count) in &self.recoveries_by_action {
                reg.inc(series("recoveries_total", "action", action), *count);
            }
            reg.set_gauge("recovery_time_s", self.recovery_time_us / 1e6);
        }
        if self.checkpoints_total > 0 {
            reg.inc("checkpoints_total", self.checkpoints_total);
            reg.set_gauge("checkpoint_bytes", self.checkpoint_bytes as f64);
            reg.set_gauge("checkpoint_bytes_total", self.checkpoint_bytes_total as f64);
        }
        if self.chaos_seen {
            reg.set_gauge("goodput", self.goodput);
            reg.set_gauge("chaos_throughput", self.chaos_throughput);
        }
        // §5k: elastic membership. Guarded so churn-free traces (and their
        // pinned goldens) see no new series.
        if self.elastic_seen {
            reg.inc("membership_epochs_total", self.membership_epochs);
            reg.inc("evictions_total", self.evictions_total);
            reg.inc("rejoins_total", self.rejoins_total);
            reg.inc("degraded_iterations_total", self.degraded_iterations);
            reg.set_gauge("deadline_stall_s", self.deadline_stall_us / 1e6);
            reg.set_gauge("rejoin_catchup_s", self.rejoin_catchup_us / 1e6);
            reg.set_gauge("elastic_goodput", self.elastic_goodput);
            if self.elastic_healthy_goodput > 0.0 {
                reg.set_gauge(
                    "churn_goodput_fraction",
                    self.elastic_goodput / self.elastic_healthy_goodput,
                );
            }
        }
        reg
    }

    fn markdown(&self, cfg: &SamplingConfig) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "# Metrics report\n");
        let _ = writeln!(out, "{} events across {} layers\n", self.events_total, {
            self.events_by_layer.iter().filter(|&&c| c > 0).count()
        });
        if self.kernel_series_overflow > 0 || self.window_dropped > 0 {
            let _ = writeln!(
                out,
                "> bounded-state summarisation: {} kernel span(s) folded into `{OVERFLOW_SERIES}` \
                 past {MAX_KERNEL_SERIES} series, {} iteration(s) evicted from the \
                 {ITERATION_WINDOW_CAP}-entry window\n",
                self.kernel_series_overflow, self.window_dropped
            );
        }
        if self.iterations_total > 0 || self.framework_seen {
            let _ = writeln!(out, "## Throughput\n");
            if self.framework_seen {
                let _ = writeln!(
                    out,
                    "- simulated steady state: {:.2} samples/s",
                    self.framework_throughput
                );
            }
            match self.stable_throughput(cfg) {
                Some((start, end, throughput)) => {
                    let _ = writeln!(
                        out,
                        "- stable-window sample (§3.4.2): {throughput:.2} samples/s \
                         over iterations {start}..{end} of {}",
                        self.iterations_total
                    );
                }
                None if self.iterations_total > 0 => {
                    let _ = writeln!(
                        out,
                        "- stable-window sample: not yet stable after {} iterations",
                        self.iterations_total
                    );
                }
                None => {}
            }
            out.push('\n');
        }
        let _ = writeln!(out, "## Utilization (Figs. 5/7)\n");
        if self.sim_iteration_us > 0.0 {
            let _ = writeln!(
                out,
                "- GPU compute: {:.1}% (busy {:.3} ms of {:.3} ms)",
                100.0 * (self.gpu_busy_us / self.sim_iteration_us).min(1.0),
                self.gpu_busy_us / 1e3,
                self.sim_iteration_us / 1e3
            );
        }
        if self.kernel_us > 0.0 {
            let _ =
                writeln!(out, "- FP32: {:.1}%", 100.0 * self.fp32_weighted_us / self.kernel_us);
        }
        if self.framework_seen {
            let _ = writeln!(out, "- CPU: {:.1}%", 100.0 * self.framework_cpu_utilization);
        }
        out.push('\n');
        let kernels = self.kernel_attribution();
        if !kernels.is_empty() {
            let _ = writeln!(out, "## Kernel attribution (Fig. 5)\n");
            let _ = writeln!(out, "| kernel | class | calls | total (us) | share | fp32 |");
            let _ = writeln!(out, "|---|---|---:|---:|---:|---:|");
            for row in kernels.iter().take(16) {
                let _ = writeln!(
                    out,
                    "| {} | {} | {} | {:.1} | {:.1}% | {:.1}% |",
                    row.name,
                    row.class,
                    row.calls,
                    row.total_us,
                    100.0 * row.compute_share,
                    100.0 * row.fp32_utilization
                );
            }
            if kernels.len() > 16 {
                let _ = writeln!(out, "| … {} more | | | | | |", kernels.len() - 16);
            }
            out.push('\n');
        }
        if self.allocs > 0 {
            let _ = writeln!(out, "## Memory breakdown (Fig. 9)\n");
            let _ = writeln!(out, "| category | peak (MB) | fraction |");
            let _ = writeln!(out, "|---|---:|---:|");
            for row in self.memory_attribution() {
                let _ = writeln!(
                    out,
                    "| {} | {:.1} | {:.1}% |",
                    row.category,
                    row.peak_bytes as f64 / 1e6,
                    100.0 * row.fraction
                );
            }
            if self.alloc_fails > 0 {
                let _ = writeln!(
                    out,
                    "\n**{} failed allocation(s)** — last requested {:.1} MB",
                    self.alloc_fails,
                    self.alloc_fail_bytes as f64 / 1e6
                );
            }
            out.push('\n');
        }
        if self.comm_events > 0 {
            let _ = writeln!(out, "## Communication (Fig. 10)\n");
            let _ = writeln!(
                out,
                "- gradient exchange: {:.3} ms, {:.1} MB",
                self.comm_us / 1e3,
                self.comm_bytes / 1e6
            );
            if self.comm_us > 0.0 {
                let _ = writeln!(
                    out,
                    "- overlapped under backward pass: {:.1}%",
                    100.0 * (1.0 - self.comm_exposed_us / self.comm_us)
                );
            }
            if self.cluster_iteration_us > 0.0 {
                let _ = writeln!(
                    out,
                    "- exposed share of cluster iteration: {:.1}%",
                    100.0 * self.comm_exposed_us / self.cluster_iteration_us
                );
            }
            out.push('\n');
        }
        if self.faults_total > 0 || self.recoveries_total > 0 || self.chaos_seen {
            let _ = writeln!(out, "## Faults and recovery (§5f)\n");
            let _ = writeln!(
                out,
                "- faults injected: {} — recoveries: {} ({:.3} s recovering)",
                self.faults_total,
                self.recoveries_total,
                self.recovery_time_us / 1e6
            );
            for (kind, count) in &self.faults_by_kind {
                let _ = writeln!(out, "  - {kind}: {count}");
            }
            if self.checkpoints_total > 0 {
                let _ = writeln!(
                    out,
                    "- checkpoints: {} written, last {:.1} MB ({:.1} MB cumulative)",
                    self.checkpoints_total,
                    self.checkpoint_bytes as f64 / 1e6,
                    self.checkpoint_bytes_total as f64 / 1e6
                );
            }
            if self.chaos_seen {
                let _ = writeln!(
                    out,
                    "- goodput: {:.2} samples/s of {:.2} samples/s throughput ({:.1}% effective)",
                    self.goodput,
                    self.chaos_throughput,
                    if self.chaos_throughput > 0.0 {
                        100.0 * self.goodput / self.chaos_throughput
                    } else {
                        0.0
                    }
                );
            }
            out.push('\n');
        }
        if self.elastic_seen {
            let _ = writeln!(out, "## Elastic membership (§5k)\n");
            let _ = writeln!(
                out,
                "- membership epochs: {} — evictions: {}, rejoins: {}",
                self.membership_epochs, self.evictions_total, self.rejoins_total
            );
            let _ = writeln!(
                out,
                "- degraded iterations: {} ({:.3} s deadline stalls, {:.3} s rejoin catch-up)",
                self.degraded_iterations,
                self.deadline_stall_us / 1e6,
                self.rejoin_catchup_us / 1e6
            );
            if self.elastic_healthy_goodput > 0.0 {
                let _ = writeln!(
                    out,
                    "- churn-adjusted goodput: {:.2} samples/s of {:.2} samples/s healthy \
                     ({:.1}% retained)",
                    self.elastic_goodput,
                    self.elastic_healthy_goodput,
                    100.0 * self.elastic_goodput / self.elastic_healthy_goodput
                );
            }
            out.push('\n');
        }
        out
    }
}

/// The streaming aggregator: a [`TraceSink`] folding event batches into
/// bounded state, snapshotting on demand into a [`MetricsRegistry`].
///
/// Attach it at recorder creation
/// (`TraceRecorder::shared_with_sink(agg.clone())`) or later via
/// `set_sink`; the same type also serves as the post-hoc aggregator
/// ([`StreamingAggregator::consume_all`] over a drained trace), which is
/// exactly what the equivalence property test exploits.
#[derive(Debug, Default)]
pub struct StreamingAggregator {
    state: Mutex<AggState>,
    config: SamplingConfig,
}

impl StreamingAggregator {
    /// Creates an aggregator with the default sampling config.
    pub fn new() -> Self {
        StreamingAggregator::default()
    }

    /// Creates an aggregator with a custom stable-window config.
    pub fn with_config(config: SamplingConfig) -> Self {
        StreamingAggregator { state: Mutex::new(AggState::default()), config }
    }

    /// Creates a shared aggregator ready to pass to `set_sink`.
    pub fn shared() -> Arc<Self> {
        Arc::new(StreamingAggregator::new())
    }

    /// Folds a store of events — the post-hoc path over a drained trace.
    pub fn consume_all(&self, events: &TraceStore) {
        self.state.lock().expect("agg lock").fold_all(events);
    }

    /// Snapshots the folded state into a registry. Derived ratios are
    /// computed here, deterministically, from the raw folds.
    pub fn registry(&self) -> MetricsRegistry {
        self.state.lock().expect("agg lock").registry(&self.config)
    }

    /// The Fig. 5 per-kernel attribution table, sorted by total time.
    pub fn kernel_attribution(&self) -> Vec<KernelAttribution> {
        self.state.lock().expect("agg lock").kernel_attribution()
    }

    /// The Fig. 9 memory breakdown, in paper plot order.
    pub fn memory_attribution(&self) -> Vec<MemoryAttribution> {
        self.state.lock().expect("agg lock").memory_attribution()
    }

    /// Per-kernel-class `(calls, total device microseconds)`, sorted by
    /// class name — the BENCH trajectory's wall-time-per-class map.
    pub fn class_times(&self) -> Vec<(String, u64, f64)> {
        let state = self.state.lock().expect("agg lock");
        state.sorted_classes().into_iter().map(|(c, n, us)| (c.clone(), *n, *us)).collect()
    }

    /// Rolling stable-window throughput, when the window has stabilised.
    pub fn stable_throughput(&self) -> Option<f64> {
        self.state.lock().expect("agg lock").stable_throughput(&self.config).map(|(_, _, t)| t)
    }

    /// Human-readable markdown report.
    pub fn to_markdown(&self) -> String {
        self.state.lock().expect("agg lock").markdown(&self.config)
    }

    /// Total events folded so far.
    pub fn events_seen(&self) -> u64 {
        self.state.lock().expect("agg lock").events_total
    }
}

impl TraceSink for StreamingAggregator {
    fn consume(&self, events: &TraceStore) {
        self.consume_all(events);
    }
}

/// Post-hoc convenience: aggregates a finished event stream in one call.
pub fn aggregate(events: &TraceStore, config: &SamplingConfig) -> MetricsRegistry {
    let agg = StreamingAggregator::with_config(*config);
    agg.consume_all(events);
    agg.registry()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn log2_buckets_cover_the_line() {
        assert_eq!(Log2Histogram::bucket_index(0.0), 0);
        assert_eq!(Log2Histogram::bucket_index(-3.0), 0);
        assert_eq!(Log2Histogram::bucket_index(f64::NAN), 0);
        assert_eq!(Log2Histogram::bucket_index(0.5), 0);
        assert_eq!(Log2Histogram::bucket_index(1.0), 1);
        assert_eq!(Log2Histogram::bucket_index(1.9), 1);
        assert_eq!(Log2Histogram::bucket_index(2.0), 2);
        assert_eq!(Log2Histogram::bucket_index(1024.0), 11);
        assert_eq!(Log2Histogram::bucket_index(f64::INFINITY), LOG2_BUCKETS - 1);
        // Bucket i's upper bound is the smallest value of bucket i+1.
        assert_eq!(Log2Histogram::bucket_upper_bound(1), 2.0);
        assert_eq!(Log2Histogram::bucket_upper_bound(11), 2048.0);
        assert!(Log2Histogram::bucket_upper_bound(LOG2_BUCKETS - 1).is_infinite());
    }

    #[test]
    fn registry_exports_are_consistent() {
        let mut reg = MetricsRegistry::default();
        reg.inc(series("kernel_calls_total", "kernel", "conv\"1\""), 3);
        reg.set_gauge("gpu_utilization", 0.75);
        reg.observe("kernel_duration_us", 10.0);
        reg.observe("kernel_duration_us", 3000.0);
        let prom = reg.to_prometheus();
        assert!(prom.contains("# TYPE tbd_kernel_calls_total counter"));
        assert!(prom.contains("tbd_kernel_calls_total{kernel=\"conv\\\"1\\\"\"} 3"));
        assert!(prom.contains("tbd_gpu_utilization 0.75"));
        assert!(prom.contains("tbd_kernel_duration_us_bucket{le=\"+Inf\"} 2"));
        assert!(prom.contains("tbd_kernel_duration_us_count 2"));
        let json = reg.to_json();
        assert_eq!(
            json.get("gauges").unwrap().get("gpu_utilization").unwrap().as_f64(),
            Some(0.75)
        );
        let round = crate::json::parse(&json.to_string()).expect("valid JSON");
        assert_eq!(round, json);
        // Canonical form is bitwise-sensitive.
        let mut other = reg.clone();
        other.set_gauge("gpu_utilization", 0.75 + f64::EPSILON);
        assert_ne!(reg.canonical(), other.canonical());
    }

    #[test]
    fn kernel_table_overflow_is_bounded_and_deterministic() {
        let agg = StreamingAggregator::new();
        let mut events = TraceStore::new();
        for i in 0..MAX_KERNEL_SERIES + 50 {
            let name = events.intern(format!("k{i}"));
            events
                .span(name, TraceLayer::GpuSim, EventKind::KernelExec, i as f64, 1.0)
                .with_arg("class", "Gemm")
                .with_arg("flops", 1.0)
                .with_arg("fp32_util", 0.5);
        }
        agg.consume_all(&events);
        let rows = agg.kernel_attribution();
        assert_eq!(rows.len(), MAX_KERNEL_SERIES + 1, "capped series plus overflow row");
        let other = rows.iter().find(|r| r.name == OVERFLOW_SERIES).expect("overflow row");
        assert_eq!(other.calls, 50);
        let reg = agg.registry();
        assert_eq!(reg.counter("agg_kernel_series_overflow_total"), Some(50));
        assert_eq!(reg.counter("agg_window_dropped_total"), Some(0), "no window eviction");
        let md = agg.to_markdown();
        assert!(md.contains("bounded-state summarisation"), "{md}");
        assert!(md.contains("50 kernel span(s)"), "{md}");
    }

    #[test]
    fn loss_counters_are_present_even_at_zero_in_every_exporter() {
        let agg = StreamingAggregator::new();
        let mut events = TraceStore::new();
        let name = events.intern("sgemm");
        events.span(name, TraceLayer::GpuSim, EventKind::KernelExec, 0.0, 1.0);
        agg.consume_all(&events);
        let reg = agg.registry();
        assert_eq!(reg.counter("agg_kernel_series_overflow_total"), Some(0));
        assert_eq!(reg.counter("agg_window_dropped_total"), Some(0));
        let prom = reg.to_prometheus();
        assert!(prom.contains("tbd_agg_kernel_series_overflow_total 0"), "{prom}");
        assert!(prom.contains("tbd_agg_window_dropped_total 0"), "{prom}");
        let json = reg.to_json();
        let counters = json.get("counters").unwrap();
        assert!(counters.get("agg_kernel_series_overflow_total").is_some());
        assert!(counters.get("agg_window_dropped_total").is_some());
        assert!(reg.canonical().contains("c|agg_window_dropped_total|0"));
        // Zero loss is not worth a markdown warning.
        assert!(!agg.to_markdown().contains("bounded-state summarisation"));
    }

    #[test]
    fn window_eviction_is_counted() {
        let agg = StreamingAggregator::new();
        let extra = 10;
        for i in 0..(ITERATION_WINDOW_CAP + extra) {
            let mut event = TraceStore::new();
            let name = event.intern("iteration");
            event
                .span(name, TraceLayer::Profiler, EventKind::Iteration, i as f64, 1e6)
                .with_arg("batch", 8u64);
            agg.consume(&event);
        }
        let reg = agg.registry();
        assert_eq!(reg.counter("agg_window_dropped_total"), Some(extra as u64));
        assert_eq!(reg.counter("iterations_total"), Some((ITERATION_WINDOW_CAP + extra) as u64));
    }

    #[test]
    fn metric_names_are_sanitized_and_label_values_escaped() {
        assert_eq!(sanitize_metric_name("kernel_time_us"), "kernel_time_us");
        assert_eq!(sanitize_metric_name("fused:a+b"), "fused:a_b");
        assert_eq!(sanitize_metric_name("9lives"), "_9lives");
        assert_eq!(sanitize_metric_name("über-metric"), "_ber_metric");
        assert_eq!(sanitize_metric_name(""), "_");
        assert_eq!(escape_label_value("fused:a+b"), "fused:a+b");
        assert_eq!(escape_label_value("a\\b\"c\nd"), "a\\\\b\\\"c\\nd");
        let mut reg = MetricsRegistry::default();
        reg.inc(series("kernel.calls+total", "kernel", "fused:sgemm+bias"), 2);
        reg.observe("weird metric", 4.0);
        let prom = reg.to_prometheus();
        assert!(prom.contains("# TYPE tbd_kernel_calls_total counter"), "{prom}");
        assert!(prom.contains("tbd_kernel_calls_total{kernel=\"fused:sgemm+bias\"} 2"), "{prom}");
        assert!(prom.contains("# TYPE tbd_weird_metric histogram"), "{prom}");
        assert!(prom.contains("tbd_weird_metric_count 1"), "{prom}");
    }

    #[test]
    fn memory_fold_tracks_peaks_per_category() {
        let agg = StreamingAggregator::new();
        let mut events = TraceStore::new();
        for (kind, name, bytes) in [
            (EventKind::Alloc, "feature maps", 700u64),
            (EventKind::Alloc, "weights", 200),
            (EventKind::Free, "feature maps", 650),
            (EventKind::Alloc, "feature maps", 100),
            (EventKind::AllocFail, "workspace", 4096),
        ] {
            let name = events.intern(name);
            events.span(name, TraceLayer::GpuSim, kind, 0.0, 0.0).with_arg("bytes", bytes);
        }
        agg.consume_all(&events);
        let mem = agg.memory_attribution();
        assert_eq!(mem[0].category, "feature maps");
        assert_eq!(mem[0].peak_bytes, 700);
        assert_eq!(mem[1].peak_bytes, 200);
        assert!((mem[0].fraction - 700.0 / 900.0).abs() < 1e-12);
        let reg = agg.registry();
        assert_eq!(reg.counter("alloc_failures_total"), Some(1));
        assert_eq!(reg.gauge("alloc_fail_bytes"), Some(4096.0));
    }

    #[test]
    fn chaos_events_fold_into_resilience_metrics() {
        let agg = StreamingAggregator::new();
        let mut events = TraceStore::new();
        let name = events.intern("fault/worker-crash");
        events
            .span(name, TraceLayer::Executor, EventKind::Fault, 0.0, 0.0)
            .with_arg("fault", "worker-crash")
            .with_arg("step", 3u64);
        let name = events.intern("fault/loss-spike");
        events
            .span(name, TraceLayer::Executor, EventKind::Fault, 1.0, 0.0)
            .with_arg("fault", "loss-spike")
            .with_arg("step", 5u64);
        let name = events.intern("recovery/restore-replay");
        events
            .span(name, TraceLayer::Executor, EventKind::Recovery, 0.0, 250_000.0)
            .with_arg("action", "restore-replay")
            .with_arg("fault", "worker-crash");
        let name = events.intern("checkpoint/write");
        events
            .span(name, TraceLayer::Executor, EventKind::Checkpoint, 2.0, 0.0)
            .with_arg("bytes", 1_000_000u64)
            .with_arg("step", 5u64);
        let name = events.intern("chaos/run");
        events
            .span(name, TraceLayer::Executor, EventKind::Iteration, 0.0, 3e6)
            .with_arg("goodput", 96.0)
            .with_arg("throughput", 128.0);
        agg.consume_all(&events);
        let reg = agg.registry();
        assert_eq!(reg.counter("faults_injected_total"), Some(2));
        assert_eq!(reg.counter(&series("faults_injected_total", "fault", "worker-crash")), Some(1));
        assert_eq!(reg.counter("recoveries_total"), Some(1));
        assert_eq!(reg.counter(&series("recoveries_total", "action", "restore-replay")), Some(1));
        assert_eq!(reg.gauge("recovery_time_s"), Some(0.25));
        assert_eq!(reg.counter("checkpoints_total"), Some(1));
        assert_eq!(reg.gauge("checkpoint_bytes"), Some(1_000_000.0));
        assert_eq!(reg.gauge("goodput"), Some(96.0));
        assert_eq!(reg.gauge("chaos_throughput"), Some(128.0));
        let md = agg.state.lock().unwrap().markdown(&SamplingConfig::default());
        assert!(md.contains("Faults and recovery"), "{md}");
        assert!(md.contains("goodput"), "{md}");
    }

    #[test]
    fn elastic_events_fold_into_membership_metrics() {
        let agg = StreamingAggregator::new();
        let mut events = TraceStore::new();
        let name = events.intern("membership/evict");
        events
            .span(name, TraceLayer::Distrib, EventKind::Eviction, 0.0, 0.0)
            .with_arg("worker", 2u64)
            .with_arg("step", 4u64)
            .with_arg("deadline_s", 0.35);
        let name = events.intern("membership/epoch");
        events
            .span(name, TraceLayer::Distrib, EventKind::Membership, 0.0, 0.0)
            .with_arg("epoch", 1u64)
            .with_arg("survivors", 3u64);
        let name = events.intern("membership/rejoin");
        events
            .span(name, TraceLayer::Distrib, EventKind::Rejoin, 2.0, 0.0)
            .with_arg("worker", 2u64)
            .with_arg("step", 9u64)
            .with_arg("catchup_s", 0.5);
        let name = events.intern("membership/epoch");
        events
            .span(name, TraceLayer::Distrib, EventKind::Membership, 2.0, 0.0)
            .with_arg("epoch", 2u64)
            .with_arg("survivors", 4u64);
        let name = events.intern("elastic/run");
        events
            .span(name, TraceLayer::Distrib, EventKind::Membership, 0.0, 5e6)
            .with_arg("epochs", 3u64)
            .with_arg("degraded_steps", 5u64)
            .with_arg("deadline_stall_s", 0.35)
            .with_arg("rejoin_catchup_s", 0.5)
            .with_arg("goodput", 200.0)
            .with_arg("healthy_goodput", 250.0);
        agg.consume_all(&events);
        let reg = agg.registry();
        assert_eq!(reg.counter("membership_epochs_total"), Some(3));
        assert_eq!(reg.counter("evictions_total"), Some(1));
        assert_eq!(reg.counter("rejoins_total"), Some(1));
        assert_eq!(reg.counter("degraded_iterations_total"), Some(5));
        assert_eq!(reg.gauge("deadline_stall_s"), Some(0.35));
        assert_eq!(reg.gauge("rejoin_catchup_s"), Some(0.5));
        assert_eq!(reg.gauge("elastic_goodput"), Some(200.0));
        assert_eq!(reg.gauge("churn_goodput_fraction"), Some(0.8));
        let md = agg.state.lock().unwrap().markdown(&SamplingConfig::default());
        assert!(md.contains("Elastic membership"), "{md}");
        assert!(md.contains("churn-adjusted goodput"), "{md}");
    }

    #[test]
    fn churn_free_traces_emit_no_membership_series() {
        let agg = StreamingAggregator::new();
        let mut events = TraceStore::new();
        let name = events.intern("1M2G iteration");
        events
            .span(name, TraceLayer::Distrib, EventKind::Iteration, 0.0, 4e5)
            .with_arg("throughput", 128.0);
        agg.consume_all(&events);
        let reg = agg.registry();
        assert_eq!(reg.counter("membership_epochs_total"), None);
        assert_eq!(reg.counter("evictions_total"), None);
        assert_eq!(reg.gauge("rejoin_catchup_s"), None);
    }

    #[test]
    fn rolling_window_stabilises_live() {
        let agg = StreamingAggregator::new();
        // Warm-up then steady iterations, fed one batch at a time.
        for i in 0..400u64 {
            let dur_s = if i < 100 { 0.5 * (1.0 + (100 - i) as f64 / 50.0) } else { 0.5 };
            let mut event = TraceStore::new();
            let name = event.intern("iteration");
            event
                .span(name, TraceLayer::Profiler, EventKind::Iteration, i as f64, dur_s * 1e6)
                .with_arg("batch", 16u64);
            agg.consume(&event);
            if i < 50 {
                assert!(agg.stable_throughput().is_none(), "too few iterations at {i}");
            }
        }
        let throughput = agg.stable_throughput().expect("steady tail stabilises");
        assert!((throughput - 32.0).abs() / 32.0 < 0.05, "{throughput}");
        let reg = agg.registry();
        assert_eq!(reg.counter("iterations_total"), Some(400));
        assert!(reg.gauge("stable_throughput").is_some());
    }
}
