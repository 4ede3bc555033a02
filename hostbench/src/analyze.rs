//! `analyze`: the paper's analysis toolchain over every supported
//! model×framework pair, at the largest paper batch that fits the device
//! (the operating point `tbd bench --matrix` chooses).
//!
//! One analysis runs `observe` (functional step, lowering and roofline
//! simulation, the 1M2G event simulation and the streaming aggregator),
//! then a post-hoc `aggregate`, `diagnose_events`, `render_report`,
//! `to_prometheus` and `to_chrome_json`. Here the profiler's render and
//! export paths, `tbd-gpusim` lowering and the recorder do the work;
//! kernels do little. The trace and report digests of every pair are
//! pinned in `analyze_pins.txt` and must repeat on every analysis.
//!
//! Times are the CPU time of each analysis at nominal host speed (see
//! [`crate::speed`]): the reference kernel runs before every analysis, and
//! each pass is scaled by the median of its reference timings.

use std::time::{Duration, Instant};

use tbd_core::{paper_batches, Suite};
use tbd_frameworks::Framework;
use tbd_gpusim::{roofline_memo_stats, GpuSpec};
use tbd_models::ModelKind;
use tbd_profiler::live::render_report;
use tbd_profiler::{
    aggregate, diagnose_events, observe, SamplingConfig, TraceOptions, DIGEST_TIMESTAMP,
};

use crate::host::cpu_s;
use crate::report::{Metric, RunReport, Summary, ANALYZE_MODELS, ANALYZE_SPLIT};
use crate::rng::SplitMix64;
use crate::spans::{breakdown, overhead_pct, self_times, self_times_by, Tracer};
use crate::speed::{scale, Reference};
use crate::stats::{mean, median, percentile, sorted, tail_note};
use crate::{RunArgs, SETUP_REPEATS};

/// Pinned `(model|framework|batch|trace digest|report digest)` lines.
pub const PINS: &str = include_str!("../analyze_pins.txt");

/// An analysis whose trace has at least this many events is heavy.
pub const HEAVY_EVENTS: usize = 10_000;

/// Fixed tail percentile of all analyses. The percentiles are chosen to
/// fall inside one pair's cluster of times, never on the edge between
/// two pairs, where they would jump between clusters.
pub const TAIL: f64 = 90.0;

/// Fixed tail percentile of heavy analyses (Deep Speech 2 is the top
/// quarter of them).
pub const HEAVY_TAIL: f64 = 80.0;

/// One pinned pair.
#[derive(Debug, Clone)]
pub struct Pair {
    /// Model.
    pub kind: ModelKind,
    /// Framework profile.
    pub framework: Framework,
    /// Paper batch.
    pub batch: usize,
    /// Pinned trace digest.
    pub trace_digest: String,
    /// Pinned report digest.
    pub report_digest: String,
    /// Index into [`ANALYZE_MODELS`].
    pub model: usize,
}

fn model_index(kind: ModelKind) -> usize {
    ModelKind::ALL
        .iter()
        .position(|&k| k == kind)
        .expect("every kind is in ALL")
}

/// Parses [`PINS`] and checks it covers exactly the supported pairs.
///
/// # Errors
///
/// Returns a message for a malformed line or a pair set that differs
/// from `Suite::supported_pairs`.
pub fn pinned_pairs() -> Result<Vec<Pair>, String> {
    let mut pairs = Vec::new();
    for line in PINS
        .lines()
        .filter(|l| !l.trim().is_empty() && !l.starts_with('#'))
    {
        let fields: Vec<&str> = line.split('|').collect();
        let [model, framework, batch, trace, report] = fields[..] else {
            return Err(format!("malformed pin line '{line}'"));
        };
        let kind = ModelKind::ALL
            .into_iter()
            .find(|k| k.name() == model)
            .ok_or_else(|| format!("unknown pinned model '{model}'"))?;
        let framework = Framework::all()
            .into_iter()
            .find(|f| f.name() == framework)
            .ok_or_else(|| format!("unknown pinned framework '{framework}'"))?;
        let batch = batch
            .parse()
            .map_err(|_| format!("bad pinned batch in '{line}'"))?;
        pairs.push(Pair {
            kind,
            framework,
            batch,
            trace_digest: trace.to_string(),
            report_digest: report.to_string(),
            model: model_index(kind),
        });
    }
    let pinned: Vec<(ModelKind, &str)> =
        pairs.iter().map(|p| (p.kind, p.framework.name())).collect();
    let supported: Vec<(ModelKind, &str)> = Suite::supported_pairs()
        .into_iter()
        .map(|(k, f)| (k, f.name()))
        .collect();
    if pinned != supported {
        return Err(format!(
            "pinned pairs {pinned:?} differ from supported pairs {supported:?}"
        ));
    }
    Ok(pairs)
}

/// What one analysis produced.
#[derive(Debug, Clone, PartialEq)]
pub struct Analysis {
    /// Trace digest.
    pub trace_digest: String,
    /// Report digest.
    pub report_digest: String,
    /// Events in the trace.
    pub events: usize,
    /// Bytes of the Chrome trace export.
    pub export_bytes: usize,
}

/// Analyses one pair, recording spans under an `analysis` root.
///
/// # Errors
///
/// Returns the capture's error message.
pub fn analyze(
    kind: ModelKind,
    framework: Framework,
    batch: usize,
    tracer: &mut Tracer,
    op: u64,
) -> Result<Analysis, String> {
    let gpu = GpuSpec::quadro_p4000();
    let root = tracer.open("analysis", None, op);
    let t0 = Instant::now();
    let obs = observe(kind, framework, batch, &gpu, &TraceOptions::default(), None)
        .map_err(|e| format!("{}/{}: {e}", kind.name(), framework.name()))?;
    if tracer.on() {
        // The capture times its own phases; lay them out inside the
        // observe span so its self time is the remainder.
        let t1 = Instant::now();
        let parent = tracer.record("profiler.observe", t0, t1, root, op);
        let wall = obs.capture.wall;
        let mut at = t0;
        for (name, s) in [
            ("graph.exec", wall.exec_s),
            ("frameworks.lower_sim", wall.lower_sim_s),
            ("distrib.event", wall.distrib_s),
        ] {
            let end = (at + Duration::from_secs_f64(s)).min(t1);
            tracer.record(name, at, end, parent, op);
            at = end;
        }
    }
    let trace = &obs.capture.trace;
    let registry = tracer.time("profiler.aggregate", root, op, || {
        aggregate(&trace.events, &SamplingConfig::default())
    });
    let diagnosis = tracer.time("profiler.diagnose", root, op, || {
        diagnose_events(kind.name(), framework.name(), batch, &trace.events)
    });
    let rendered = tracer.time("profiler.report", root, op, || {
        render_report(&obs, DIGEST_TIMESTAMP)
    });
    let prometheus = tracer.time("profiler.prometheus", root, op, || {
        obs.registry.to_prometheus()
    });
    let chrome = tracer.time("profiler.export", root, op, || trace.to_chrome_json());
    let trace_digest = tracer.time("profiler.digest", root, op, || trace.digest_hex());
    let out = Analysis {
        trace_digest,
        report_digest: rendered.digest_hex,
        events: trace.events.len(),
        export_bytes: chrome.len(),
    };
    std::hint::black_box((&registry, &diagnosis, &prometheus, &rendered.html));
    tracer.time("free", root, op, || {
        drop((registry, diagnosis, prometheus, chrome, rendered.html, obs))
    });
    tracer.close(root);
    Ok(out)
}

/// One analysis of a measured window.
struct Sample {
    /// Index of the pair analysed.
    pair: usize,
    /// Pass over all pairs it belongs to.
    pass: usize,
    /// Wall milliseconds.
    wall_ms: f64,
    /// CPU milliseconds.
    cpu_ms: f64,
    /// CPU milliseconds of the reference kernel run just before it.
    reference_ms: f64,
    result: Result<Analysis, String>,
}

/// Every analysis of one measured window, in passes over all pairs.
struct Window {
    samples: Vec<Sample>,
    passes: usize,
}

impl Window {
    /// Each analysis's CPU time at nominal host speed, scaled by the
    /// median reference timing of its pass.
    fn nominal_ms(&self) -> Vec<f64> {
        let scales: Vec<f64> = (0..self.passes)
            .map(|p| {
                let reference: Vec<f64> = self
                    .samples
                    .iter()
                    .filter(|s| s.pass == p)
                    .map(|s| s.reference_ms)
                    .collect();
                scale(&reference)
            })
            .collect();
        self.samples
            .iter()
            .map(|s| s.cpu_ms * scales[s.pass])
            .collect()
    }

    /// Nominal times of every analysis, or of heavy ones only, sorted.
    fn times(&self, heavy_only: bool) -> Vec<f64> {
        sorted(
            &self
                .samples
                .iter()
                .zip(self.nominal_ms())
                .filter(|(s, _)| {
                    !heavy_only || s.result.as_ref().is_ok_and(|r| r.events >= HEAVY_EVENTS)
                })
                .map(|(_, ms)| ms)
                .collect::<Vec<_>>(),
        )
    }
}

fn run_window(
    pairs: &[Pair],
    rng: &mut SplitMix64,
    window: Duration,
    tracer: &mut Tracer,
    op_model: &mut Vec<usize>,
) -> Window {
    let mut w = Window {
        samples: Vec::new(),
        passes: 0,
    };
    let mut reference = Reference::new();
    let start = Instant::now();
    // Whole passes only, so every pair is analysed equally often.
    while w.passes == 0 || start.elapsed() < window {
        let mut order: Vec<usize> = (0..pairs.len()).collect();
        rng.shuffle(&mut order);
        for pair in order {
            let p = &pairs[pair];
            let op = op_model.len() as u64;
            op_model.push(p.model);
            let reference_ms = reference.run_ms();
            let (t0, cpu0) = (Instant::now(), cpu_s());
            let result = analyze(p.kind, p.framework, p.batch, tracer, op);
            w.samples.push(Sample {
                pair,
                pass: w.passes,
                cpu_ms: (cpu_s() - cpu0) * 1e3,
                wall_ms: t0.elapsed().as_secs_f64() * 1e3,
                reference_ms,
                result,
            });
        }
        w.passes += 1;
    }
    w
}

/// Checks each analysis against its pair's pins; returns the failures.
fn check(pairs: &[Pair], w: &Window, report: &mut RunReport) -> u64 {
    let mut failed = 0;
    for Sample { pair, result, .. } in &w.samples {
        let pair = &pairs[*pair];
        let ok = match result {
            Ok(a) => a.trace_digest == pair.trace_digest && a.report_digest == pair.report_digest,
            Err(_) => false,
        };
        if !ok {
            failed += 1;
            report.check(false, || {
                format!(
                    "{}/{} b{}: got {:?}, pinned trace {} report {}",
                    pair.kind.name(),
                    pair.framework.name(),
                    pair.batch,
                    result.as_ref().map(|a| (&a.trace_digest, &a.report_digest)),
                    pair.trace_digest,
                    pair.report_digest
                )
            });
        }
    }
    failed
}

/// Runs the workload.
///
/// # Errors
///
/// Returns a message when the pins are malformed.
pub fn run(args: &RunArgs) -> Result<RunReport, String> {
    let pairs = pinned_pairs()?;
    let mut report = RunReport::default();
    // Set-up: one pass over every pair, checked against the pins; the
    // first repeat also pays every cold cache.
    let mut setups = Vec::new();
    for _ in 0..SETUP_REPEATS {
        let w = run_window(
            &pairs,
            &mut SplitMix64::stream(args.seed, 1),
            Duration::ZERO,
            &mut Tracer::new(Instant::now(), false),
            &mut Vec::new(),
        );
        setups.push(w.nominal_ms().iter().sum::<f64>() / 1e3);
        report.attempted += w.samples.len() as u64;
        report.failed += check(&pairs, &w, &mut report);
    }
    let mut rng = SplitMix64::stream(args.seed, 2);
    let untraced_window = if args.trace {
        args.window / 2
    } else {
        args.window
    };
    let mut op_model = Vec::new();
    let w = run_window(
        &pairs,
        &mut rng,
        untraced_window,
        &mut Tracer::new(Instant::now(), false),
        &mut op_model,
    );
    report.attempted += w.samples.len() as u64;
    report.failed += check(&pairs, &w, &mut report);
    let (all, heavy) = (w.times(false), w.times(true));
    let total_s = all.iter().sum::<f64>() / 1e3;
    if heavy.is_empty() {
        return Err(format!("no analysis reached {HEAVY_EVENTS} events"));
    }
    report.summary = Summary {
        setup_s: median(&sorted(&setups)),
        peak_rss_mb: 0.0,
        throughput_per_s: all.len() as f64 / total_s,
        p50_ms: median(&all),
        tail_ms: percentile(&all, TAIL),
        heavy_p50_ms: median(&heavy),
        heavy_tail_ms: percentile(&heavy, HEAVY_TAIL),
    };
    let s = report.summary;
    let wall = sorted(&w.samples.iter().map(|a| a.wall_ms).collect::<Vec<_>>());
    report.notes.push(tail_note("analyses", all.len(), TAIL));
    report
        .notes
        .push(tail_note("heavy analyses", heavy.len(), HEAVY_TAIL));
    report.named = vec![
        Metric::new("analyze.analyses_per_s", s.throughput_per_s, "1/s"),
        Metric::new("analyze.analysis_p50_ms", s.p50_ms, "ms"),
        Metric::new(format!("analyze.analysis_p{TAIL}_ms"), s.tail_ms, "ms"),
        Metric::new("analyze.heavy_analysis_p50_ms", s.heavy_p50_ms, "ms"),
        Metric::new(
            format!("analyze.heavy_analysis_p{HEAVY_TAIL}_ms"),
            s.heavy_tail_ms,
            "ms",
        ),
        Metric::new("analyze.analysis_wall_p50_ms", median(&wall), "ms"),
    ];
    report.notes.push(format!(
        "{} passes over {} pairs: {} analyses ({} heavy, >= {HEAVY_EVENTS} events) taking {total_s:.2} nominal CPU s; host speed {:.3} of nominal (median)",
        w.passes,
        pairs.len(),
        all.len(),
        heavy.len(),
        scale(&w.samples.iter().map(|a| a.reference_ms).collect::<Vec<_>>()),
    ));
    if args.trace {
        traced(&pairs, &mut rng, args, mean(&all), &mut report);
    }
    Ok(report)
}

fn traced(
    pairs: &[Pair],
    rng: &mut SplitMix64,
    args: &RunArgs,
    untraced_mean_ms: f64,
    report: &mut RunReport,
) {
    let mut tracer = Tracer::new(Instant::now(), true);
    let mut op_model = Vec::new();
    let (hits0, misses0) = roofline_memo_stats();
    let w = run_window(
        pairs,
        rng,
        args.window - args.window / 2,
        &mut tracer,
        &mut op_model,
    );
    let (hits1, misses1) = roofline_memo_stats();
    report.attempted += w.samples.len() as u64;
    report.failed += check(pairs, &w, report);
    let n = w.samples.len() as f64;
    let mut per_model_n = [0.0f64; ANALYZE_MODELS.len()];
    for &m in &op_model {
        per_model_n[m] += 1.0;
    }
    let times = self_times(tracer.spans());
    let by_model = self_times_by(tracer.spans(), |s| op_model[s.op as usize]);
    let span_of = |metric: &str| match metric {
        "analyze.graph.exec_ms" => "graph.exec",
        "analyze.frameworks.lower_sim_ms" => "frameworks.lower_sim",
        "analyze.distrib.event_ms" => "distrib.event",
        "analyze.profiler.aggregate_ms" => "profiler.aggregate",
        "analyze.profiler.diagnose_ms" => "profiler.diagnose",
        "analyze.profiler.report_ms" => "profiler.report",
        "analyze.profiler.export_ms" => "profiler.export",
        other => unreachable!("no span for {other}"),
    };
    let self_ms = |name: &str| times.get(name).map_or(0.0, |t| t.self_ns as f64 / 1e6);
    let layers = &mut report.layers;
    for metric in ANALYZE_SPLIT {
        let span = span_of(metric);
        layers.insert(metric.to_string(), self_ms(span) / n);
        for (m, key) in ANALYZE_MODELS.iter().enumerate() {
            let ms = by_model
                .get(&(m, span))
                .map_or(0.0, |t| t.self_ns as f64 / 1e6);
            layers.insert(format!("{metric}.{key}"), ms / per_model_n[m].max(1.0));
        }
    }
    layers.insert(
        "analyze.profiler.observe_self_ms".into(),
        self_ms("profiler.observe") / n,
    );
    layers.insert(
        "analyze.profiler.prometheus_ms".into(),
        self_ms("profiler.prometheus") / n,
    );
    layers.insert(
        "analyze.profiler.digest_ms".into(),
        self_ms("profiler.digest") / n,
    );
    layers.insert("analyze.profiler.free_ms".into(), self_ms("free") / n);
    let ok: Vec<&Analysis> = w
        .samples
        .iter()
        .filter_map(|a| a.result.as_ref().ok())
        .collect();
    let per = |f: fn(&Analysis) -> usize| {
        ok.iter().map(|a| f(a) as f64).sum::<f64>() / ok.len().max(1) as f64
    };
    layers.insert("analyze.graph.trace_events".into(), per(|a| a.events));
    layers.insert(
        "analyze.profiler.export_bytes".into(),
        per(|a| a.export_bytes),
    );
    let (hits, misses) = (hits1 - hits0, misses1 - misses0);
    layers.insert(
        "analyze.gpusim.roofline_memo_hit_ratio".into(),
        if hits + misses == 0 {
            0.0
        } else {
            hits as f64 / (hits + misses) as f64
        },
    );
    let traced_mean_ms = mean(&w.samples.iter().map(|a| a.wall_ms).collect::<Vec<_>>());
    layers.insert("analyze.bench.residual_ms".into(), self_ms("analysis") / n);
    let overhead = overhead_pct(mean(&w.times(false)), untraced_mean_ms);
    layers.insert("analyze.bench.trace_overhead_pct".into(), overhead);
    report
        .notes
        .push(breakdown("analysis", n, traced_mean_ms, &times, "analysis"));
    report.notes.push(format!(
        "tracing overhead {overhead:+.2}% (mean nominal CPU time of an analysis, traced vs untraced)"
    ));
    report.spans = tracer.spans().to_vec();
}

/// The pin table for the current code: every supported pair at the
/// largest paper batch that fits, with its digests (`--pin`).
///
/// # Errors
///
/// Returns a message when a capture fails or no batch fits.
pub fn pin_table() -> Result<String, String> {
    let gpu = GpuSpec::quadro_p4000();
    let mut out = String::from("# model|framework|batch|trace digest|report digest\n");
    for (kind, framework) in Suite::supported_pairs() {
        let options = TraceOptions {
            functional: false,
            ..TraceOptions::default()
        };
        let batch = paper_batches(kind)
            .into_iter()
            .rev()
            .find(|&b| {
                tbd_profiler::capture(kind, framework, b, &gpu, &options)
                    .is_ok_and(|c| c.oom.is_none())
            })
            .ok_or_else(|| format!("{}/{}: no paper batch fits", kind.name(), framework.name()))?;
        let a = analyze(
            kind,
            framework,
            batch,
            &mut Tracer::new(Instant::now(), false),
            0,
        )?;
        out.push_str(&format!(
            "{}|{}|{batch}|{}|{}\n",
            kind.name(),
            framework.name(),
            a.trace_digest,
            a.report_digest
        ));
    }
    Ok(out)
}
