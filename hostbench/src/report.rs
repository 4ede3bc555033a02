//! Metric names, units and the result line.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::spans::Span;

/// One reported figure.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit, e.g. `ms`.
    pub unit: &'static str,
}

impl Metric {
    /// A metric.
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
        Metric {
            name: name.into(),
            value,
            unit,
        }
    }
}

/// The end-to-end figures every workload reports under the same names.
/// Each workload defines its operation and its heavy operation class:
///
/// | workload | operation | throughput | heavy class |
/// |---|---|---|---|
/// | train | one optimizer step of every model | samples/s | checkpoint steps |
/// | analyze | one model×framework analysis | analyses/s | large traces |
/// | serve | one HTTP query (p50/tail over cache hits) | 2xx within the limit per s | cache misses |
///
/// Set-up and the operations of `train` and `analyze` are CPU time at
/// nominal host speed (see [`crate::speed`]); `serve` latencies are wall
/// time from each request's due time.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Summary {
    /// Median of the set-up repeats, CPU seconds at nominal host speed.
    pub setup_s: f64,
    /// Peak resident set size, MiB.
    pub peak_rss_mb: f64,
    /// Completed work per second.
    pub throughput_per_s: f64,
    /// Median operation latency, ms.
    pub p50_ms: f64,
    /// Tail operation latency at the workload's fixed percentile, ms.
    pub tail_ms: f64,
    /// Median latency of the heavy class, ms.
    pub heavy_p50_ms: f64,
    /// Tail latency of the heavy class at its fixed percentile, ms.
    pub heavy_tail_ms: f64,
}

/// `(name, unit)` of every end-to-end metric, in output order.
pub const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("throughput_per_s", "1/s"),
    ("p50_ms", "ms"),
    ("tail_ms", "ms"),
    ("heavy_p50_ms", "ms"),
    ("heavy_tail_ms", "ms"),
];

impl Summary {
    /// The figures as metrics, in [`END_TO_END`] order.
    pub fn metrics(&self) -> Vec<Metric> {
        let values = [
            self.setup_s,
            self.peak_rss_mb,
            self.throughput_per_s,
            self.p50_ms,
            self.tail_ms,
            self.heavy_p50_ms,
            self.heavy_tail_ms,
        ];
        END_TO_END
            .iter()
            .zip(values)
            .map(|(&(name, unit), v)| Metric::new(name, v, unit))
            .collect()
    }
}

/// Short per-model keys used in per-layer metric names.
pub const TRAIN_MODELS: [&str; 4] = ["resnet50", "inception_v3", "seq2seq", "transformer"];

/// Models of the analysis matrix, by per-layer key.
pub const ANALYZE_MODELS: [&str; 8] = [
    "resnet50",
    "inception_v3",
    "seq2seq",
    "transformer",
    "faster_rcnn",
    "deepspeech2",
    "wgan",
    "a3c",
];

/// Per-layer timings of the train workload that are also split per model.
pub const TRAIN_SPLIT: [&str; 5] = [
    "train.graph.forward_ms",
    "train.graph.backward_ms",
    "train.optim.step_ms",
    "train.tensor.arena_reuse_fraction",
    "train.tensor.fresh_allocs_per_step",
];

/// Per-layer timings of the analyze workload that are also split per model.
pub const ANALYZE_SPLIT: [&str; 7] = [
    "analyze.graph.exec_ms",
    "analyze.frameworks.lower_sim_ms",
    "analyze.distrib.event_ms",
    "analyze.profiler.aggregate_ms",
    "analyze.profiler.diagnose_ms",
    "analyze.profiler.report_ms",
    "analyze.profiler.export_ms",
];

const OTHER_LAYERS: [(&str, &str, &str); 31] = [
    ("train.checkpoint.save_ms", "ms", "lower"),
    ("train.checkpoint.load_ms", "ms", "lower"),
    ("train.checkpoint.hash_ms", "ms", "lower"),
    ("train.checkpoint.bytes", "bytes", "lower"),
    ("train.bench.residual_ms", "ms", "lower"),
    ("train.bench.trace_overhead_pct", "%", "lower"),
    ("analyze.profiler.observe_self_ms", "ms", "lower"),
    ("analyze.profiler.prometheus_ms", "ms", "lower"),
    ("analyze.profiler.digest_ms", "ms", "lower"),
    ("analyze.profiler.free_ms", "ms", "lower"),
    ("analyze.graph.trace_events", "count", "lower"),
    ("analyze.profiler.export_bytes", "bytes", "lower"),
    ("analyze.gpusim.roofline_memo_hit_ratio", "ratio", "higher"),
    ("analyze.bench.residual_ms", "ms", "lower"),
    ("analyze.bench.trace_overhead_pct", "%", "lower"),
    ("serve.gen.lateness_ms", "ms", "lower"),
    ("serve.http.connect_ms", "ms", "lower"),
    ("serve.http.ttfb_ms", "ms", "lower"),
    ("serve.http.body_ms", "ms", "lower"),
    ("serve.http.wait_ms", "ms", "lower"),
    ("serve.core.parse_us", "us", "lower"),
    ("serve.core.hit_us", "us", "lower"),
    ("serve.core.miss_us", "us", "lower"),
    ("serve.core.profile_miss_ms", "ms", "lower"),
    ("serve.core.hit_ratio", "ratio", "higher"),
    ("serve.core.computes", "count", "lower"),
    ("serve.core.profile_computes", "count", "lower"),
    ("serve.http.failed", "count", "lower"),
    ("serve.http.shed_503", "count", "lower"),
    ("serve.bench.residual_ms", "ms", "lower"),
    ("serve.bench.trace_overhead_pct", "%", "lower"),
];

fn unit_of(name: &str) -> (&'static str, &'static str) {
    if name.ends_with("_ms") {
        ("ms", "lower")
    } else if name.ends_with("_fraction") {
        ("fraction", "higher")
    } else {
        ("count", "lower")
    }
}

/// Every per-layer metric as `(name, unit, better)`, in output order. A
/// traced run of any workload prints all of them; layers the workload
/// does not exercise read `0`.
pub fn per_layer_catalogue() -> Vec<(String, &'static str, &'static str)> {
    let mut out = Vec::new();
    for base in TRAIN_SPLIT {
        let (unit, better) = unit_of(base);
        out.push((base.to_string(), unit, better));
        out.extend(
            TRAIN_MODELS
                .iter()
                .map(|m| (format!("{base}.{m}"), unit, better)),
        );
    }
    for base in ANALYZE_SPLIT {
        out.push((base.to_string(), "ms", "lower"));
        out.extend(
            ANALYZE_MODELS
                .iter()
                .map(|m| (format!("{base}.{m}"), "ms", "lower")),
        );
    }
    for (name, unit, better) in OTHER_LAYERS {
        out.push((name.to_string(), unit, better));
    }
    out
}

/// The catalogue's metrics filled from `values`.
///
/// # Panics
///
/// Panics when `values` names a metric missing from the catalogue (a bug
/// in the workload that produced it).
pub fn per_layer_metrics(values: &BTreeMap<String, f64>) -> Vec<Metric> {
    let catalogue = per_layer_catalogue();
    for name in values.keys() {
        assert!(
            catalogue.iter().any(|(n, _, _)| n == name),
            "per-layer metric {name} not catalogued"
        );
    }
    catalogue
        .into_iter()
        .map(|(name, unit, _)| {
            let value = values.get(&name).copied().unwrap_or(0.0);
            Metric::new(name, value, unit)
        })
        .collect()
}

/// What one workload run produced.
#[derive(Debug, Default)]
pub struct RunReport {
    /// Operations attempted in the measured window(s).
    pub attempted: u64,
    /// Operations that returned an error or a wrong answer.
    pub failed: u64,
    /// Failed correctness checks, one line each.
    pub check_failures: Vec<String>,
    /// End-to-end figures of the untraced window.
    pub summary: Summary,
    /// The workload's figures under their workload-specific names.
    pub named: Vec<Metric>,
    /// Per-layer figures of the traced window.
    pub layers: BTreeMap<String, f64>,
    /// Recorded spans of the traced window.
    pub spans: Vec<Span>,
    /// Human-readable notes (breakdown tables, tail sample counts).
    pub notes: Vec<String>,
}

impl RunReport {
    /// Records a failed check.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.check_failures.push(what());
        }
    }
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The final result line: `correct`, `attempted`, `failed` and every
/// metric with its unit. A non-finite value makes the result incorrect
/// and is written as `0` so the line stays valid JSON.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let finite = metrics.iter().all(|m| m.value.is_finite());
    let mut out = format!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{",
        correct && finite
    );
    for (i, m) in metrics.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let value = if m.value.is_finite() { m.value } else { 0.0 };
        let _ = write!(
            out,
            "{}: {{\"value\": {value:?}, \"unit\": {}}}",
            json_str(&m.name),
            json_str(m.unit)
        );
    }
    out.push_str("}}");
    out
}
