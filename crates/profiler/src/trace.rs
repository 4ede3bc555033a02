//! The user-facing end of the unified trace spine.
//!
//! The recording layer ([`TraceRecorder`] and the columnar [`TraceStore`]
//! every producer writes its events into, re-exported here) lives in
//! `tbd-graph::trace` so every instrumented crate can reach it without a
//! dependency cycle; this module assembles recordings into a
//! [`Trace`] and provides what the paper's toolchain provides around
//! nvprof (§3.4): a Chrome trace-event exporter (loadable in
//! `chrome://tracing` / Perfetto), an nvprof-style per-kernel summary
//! table, and — for the regression harness — a deterministic digest that
//! is bit-stable across intra-op thread counts.
//!
//! [`capture`] records one workload end to end: a *functional* miniature
//! training step through the real executor (wave scheduler, per-node
//! spans, output-value hashes) and the *paper-scale* simulated iteration
//! through the framework profile (allocator events, launch/kernel/sync
//! timeline, framework-tagged spans).

use crate::json;
use crate::metrics::profile_workload;
use std::fmt::Write as _;
use std::sync::Arc;
use std::time::Instant;
use tbd_distrib::{ClusterConfig, DataParallelSim, EventConfig};
use tbd_frameworks::{Framework, SpeedOptions, WorkloadProfile};
use tbd_gpusim::{GpuSpec, OutOfMemory};
use tbd_graph::{GraphError, NodeId, Op, Session};
use tbd_models::{BuiltModel, ModelKind};
use tbd_tensor::{Precision, Tensor};

pub use tbd_graph::trace::{
    events_digest, fnv1a, value_hash, write_fixed, write_u64, ArgValue, EventKind, EventRef, Fnv1a,
    Template, TraceLayer, TraceRecorder, TraceStore,
};

/// A merged recording of one workload run across every layer.
#[derive(Debug, Clone)]
pub struct Trace {
    /// Workload identity.
    pub model: ModelKind,
    /// Framework profile the run used.
    pub framework: &'static str,
    /// Paper-scale mini-batch of the simulated iteration.
    pub batch: usize,
    /// All recorded events, in recording order (deterministic: parallel
    /// executor waves publish in ascending node order).
    pub events: TraceStore,
}

/// One row of the full nvprof-style summary: kernels, memcpys and
/// communication, with a cumulative-time column.
#[derive(Debug, Clone, PartialEq)]
pub struct SummaryRow {
    /// Event name.
    pub name: String,
    /// Activity category: `"kernel"`, `"memcpy"` or `"comm"`.
    pub category: &'static str,
    /// Number of invocations.
    pub count: usize,
    /// Summed duration in microseconds.
    pub total_us: f64,
    /// Share of the summed activity time.
    pub pct: f64,
    /// Running share up to and including this row.
    pub cumulative_pct: f64,
}

impl Trace {
    /// Deterministic 64-bit digest of the trace.
    ///
    /// FNV-1a over the header line `trace|<model>|<framework>|batch=<n>`
    /// followed by `'\n'` + the canonical line of every event, streamed
    /// through the hasher without materialising the text. Simulated
    /// timestamps participate bit-exactly; wall-clock (executor) events
    /// contribute identity and args only — including the output-value
    /// hashes — so the digest is stable across `intra_op_threads` while
    /// still asserting bitwise-identical computation.
    ///
    /// The events are hashed once per trace value: the store caches the
    /// result against the header's hasher state
    /// ([`TraceStore::digest_after`]), so the report, the Chrome export
    /// and the caller share one pass, while a changed header or event
    /// list still gets a fresh digest.
    pub fn digest(&self) -> u64 {
        let mut header = Fnv1a::new();
        let _ =
            write!(header, "trace|{}|{}|batch={}", self.model.name(), self.framework, self.batch);
        self.events.digest_after(&header)
    }

    /// The digest as a fixed-width hex string (golden-file format).
    pub fn digest_hex(&self) -> String {
        format!("{:016x}", self.digest())
    }

    /// Events emitted by `layer`.
    pub fn layer_events(&self, layer: TraceLayer) -> impl Iterator<Item = EventRef<'_>> {
        self.events.iter_where(move |l, _| l == layer)
    }

    /// Exports the trace in Chrome trace-event JSON ("JSON object format":
    /// a top-level object with a `traceEvents` array), loadable in
    /// `chrome://tracing` and Perfetto. Each [`TraceLayer`] becomes a
    /// process with a metadata name; spans are `ph:"X"` duration events
    /// and zero-duration events become `ph:"i"` instants.
    ///
    /// Every record is written straight into one growing output buffer.
    /// The text around a record's times is rendered once per
    /// [`Template`]. A non-finite `ts`/`dur` is written as `null` (JSON
    /// has no NaN or infinity), like a non-finite float arg.
    pub fn to_chrome_json(&self) -> String {
        let events = &self.events;
        let texts: Vec<(String, String)> = events
            .templates()
            .iter()
            .map(|t| record_text(t, &events.names()[t.name as usize]))
            .collect();
        let mut out = String::new();
        out.push_str("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
        let mut separator = "";
        for (layer, count) in TraceLayer::ALL.into_iter().zip(self.events.layer_counts()) {
            if count > 0 {
                out.push_str(separator);
                separator = ",";
                let _ = write!(
                    out,
                    "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":{},\"tid\":0,\"args\":{{\"name\":\"",
                    layer.pid()
                );
                json::escape_into(&mut out, layer.process_name());
                out.push_str("\"}}");
            }
        }
        let (starts, durs) = (events.start_column(), events.dur_column());
        for (i, &id) in events.template_ids().iter().enumerate() {
            out.push_str(separator);
            separator = ",";
            let (head, tail) = &texts[id as usize];
            out.push_str(head);
            if durs[i] > 0.0 {
                out.push_str("X\",\"ts\":");
                write_us(&mut out, starts[i]);
                out.push_str(",\"dur\":");
                write_us(&mut out, durs[i]);
            } else {
                out.push_str("i\",\"ts\":");
                write_us(&mut out, starts[i]);
                out.push_str(",\"s\":\"t\"");
            }
            out.push_str(tail);
        }
        out.push_str("],\"otherData\":{\"model\":\"");
        json::escape_into(&mut out, self.model.name());
        out.push_str("\",\"framework\":\"");
        json::escape_into(&mut out, self.framework);
        let _ = write!(out, "\",\"batch\":{},\"digest\":\"{}\"}}}}", self.batch, self.digest_hex());
        out
    }

    /// Full activity aggregation for the nvprof-style table: kernel,
    /// memcpy *and* communication rows, sorted by total time descending,
    /// with per-row and cumulative shares (nvprof's `Time(%)` column plus
    /// the running sum analysts compute by hand).
    pub fn summary_rows(&self) -> Vec<SummaryRow> {
        const CATEGORIES: [&str; 3] = ["comm", "kernel", "memcpy"];
        // `(count, µs)` per (category, name id), folded in event order.
        let events = &self.events;
        let names = events.names();
        let mut folds = vec![[(0usize, 0.0f64); 3]; names.len()];
        let categories: Vec<Option<usize>> = events
            .templates()
            .iter()
            .map(|t| match (t.layer, t.kind) {
                (TraceLayer::GpuSim, EventKind::KernelExec) => Some(1),
                (TraceLayer::GpuSim, EventKind::Memcpy) => Some(2),
                (TraceLayer::Distrib, EventKind::Communication) => Some(0),
                _ => None,
            })
            .collect();
        for (&id, &dur_us) in events.template_ids().iter().zip(events.dur_column()) {
            let Some(category) = categories[id as usize] else { continue };
            let slot = &mut folds[events.templates()[id as usize].name as usize][category];
            slot.0 += 1;
            slot.1 += dur_us;
        }
        let mut keyed: Vec<(usize, &str, (usize, f64))> = folds
            .iter()
            .zip(names)
            .flat_map(|(fold, name)| {
                (0..3).filter(|&c| fold[c].0 > 0).map(move |c| (c, name.as_ref(), fold[c]))
            })
            .collect();
        // The share denominator sums in (category, name) order.
        keyed.sort_by(|a, b| (a.0, a.1).cmp(&(b.0, b.1)));
        let total: f64 = keyed.iter().map(|(_, _, (_, us))| us).sum();
        let mut rows: Vec<SummaryRow> = keyed
            .into_iter()
            .map(|(category, name, (count, total_us))| SummaryRow {
                name: name.to_string(),
                category: CATEGORIES[category],
                count,
                total_us,
                pct: if total > 0.0 { 100.0 * total_us / total } else { 0.0 },
                cumulative_pct: 0.0,
            })
            .collect();
        rows.sort_by(|a, b| b.total_us.total_cmp(&a.total_us).then_with(|| a.name.cmp(&b.name)));
        let mut running = 0.0;
        for row in &mut rows {
            running += row.pct;
            row.cumulative_pct = running;
        }
        rows
    }

    /// nvprof-style text summary: per-activity time table of the simulated
    /// device stream (paper Tables 5/6 layout) — kernels, memcpys and
    /// gradient-exchange rows with a cumulative-% column — plus layer
    /// totals.
    pub fn nvprof_summary(&self) -> String {
        let rows = self.summary_rows();
        let total: f64 = rows.iter().map(|r| r.total_us).sum();
        let mut out = String::new();
        let _ = writeln!(
            out,
            "==PROF== {} on {} (batch {}) — digest {}",
            self.model.name(),
            self.framework,
            self.batch,
            self.digest_hex()
        );
        let _ = writeln!(out, "GPU activities ({} rows, {:.3} ms total):", rows.len(), total / 1e3);
        let _ = writeln!(
            out,
            "{:>8}  {:>8}  {:>6}  {:>12}  {:>12}  {:<8}Name",
            "Time%", "Cum%", "Calls", "Total(us)", "Avg(us)", "Type"
        );
        for row in &rows {
            let _ = writeln!(
                out,
                "{:>7.2}%  {:>7.2}%  {:>6}  {:>12.3}  {:>12.3}  {:<8}{}",
                row.pct,
                row.cumulative_pct,
                row.count,
                row.total_us,
                row.total_us / row.count as f64,
                row.category,
                row.name
            );
        }
        let _ = writeln!(out, "Events by layer:");
        for (layer, count) in TraceLayer::ALL.into_iter().zip(self.events.layer_counts()) {
            if count > 0 {
                let _ = writeln!(out, "  {layer:<10} {count}");
            }
        }
        out
    }
}

/// A template's Chrome record around a row's times: the opening
/// `{"name":"…","ph":"` and the closing
/// `,"pid":…,"tid":…,"args":{"kind":"…",…}}`.
fn record_text(template: &Template, name: &str) -> (String, String) {
    let mut head = "{\"name\":\"".to_string();
    json::escape_into(&mut head, name);
    head.push_str("\",\"ph\":\"");
    let (pid, tid, kind) = (template.layer.pid(), template.track, template.kind);
    let mut tail = format!(",\"pid\":{pid},\"tid\":{tid},\"args\":{{\"kind\":\"{kind}\"");
    for (key, value) in &template.args {
        tail.push_str(",\"");
        json::escape_into(&mut tail, key);
        tail.push_str("\":");
        value.write_json(&mut tail);
    }
    tail.push_str("}}");
    (head, tail)
}

/// Writes a Chrome-trace microsecond timestamp: three decimals, or `null`
/// when the value is not finite.
fn write_us(out: &mut String, us: f64) {
    if us.is_finite() {
        write_fixed(out, us, 3);
    } else {
        out.push_str("null");
    }
}

/// Options for [`capture`]: the one capture configuration of a workload
/// beyond its model, framework, batch and device.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TraceOptions {
    /// Intra-op thread cap for the functional executor run (`0` = auto).
    /// Never affects the digest: that is the invariance under test.
    pub intra_op_threads: usize,
    /// Run the miniature functional training step through the executor
    /// (adds executor-layer spans). Disable for simulation-only traces.
    pub functional: bool,
    /// Speed tier of the functional executor and the lowered kernel
    /// stream. The default, [`SpeedOptions::fused`] at f32, fuses
    /// elementwise/activation/bias/norm chains (bitwise identical to
    /// unfused execution; only the span structure and the kernel stream
    /// change) and keeps the exact f32 baseline precision.
    pub speed: SpeedOptions,
}

impl Default for TraceOptions {
    fn default() -> Self {
        TraceOptions {
            intra_op_threads: 1,
            functional: true,
            speed: SpeedOptions::fused(Precision::F32),
        }
    }
}

/// Wall-clock cost of one [`capture`] run, split by phase.
///
/// Real measured host time — machine- and load-dependent, so it never
/// participates in trace digests or golden files; the bench trajectory
/// records it under a wide drift gate for trend-watching only.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct CaptureWall {
    /// The whole capture, in seconds.
    pub total_s: f64,
    /// Functional executor step (tiny forward + backward), in seconds.
    pub exec_s: f64,
    /// Lowering plus the simulated paper-scale iteration (the framework
    /// profile), in seconds.
    pub lower_sim_s: f64,
    /// Data-parallel event simulation, in seconds.
    pub distrib_s: f64,
}

/// Everything one [`capture`] run produces.
#[derive(Debug)]
pub struct Capture {
    /// The merged trace.
    pub trace: Trace,
    /// The simulated paper-scale profile, when the batch fit the device.
    pub profile: Option<WorkloadProfile>,
    /// The failing allocation, when it did not (the trace then ends with
    /// the corresponding `AllocFail` event).
    pub oom: Option<OutOfMemory>,
    /// One data-parallel worker of the simulated iteration (the model the
    /// 1M2G stage replays), when the batch fit the device. Cluster replays
    /// reuse it instead of rebuilding the graph.
    pub worker: Option<DataParallelSim>,
    /// Measured wall-clock phase split of this capture.
    pub wall: CaptureWall,
}

/// Records one workload end to end into a fresh [`Trace`]:
///
/// 1. a profiler-layer capture marker,
/// 2. (optional) a miniature functional forward+backward through the real
///    executor under the framework's host-threading profile — per-node
///    spans with wave/thread attribution and output-value hashes,
/// 3. the paper-scale simulated training iteration through
///    [`profile_workload`], with the recorder as its tracer — allocator
///    events, launch/kernel/sync timeline and framework-tagged spans.
///
/// Out-of-memory at paper scale is *not* an error here: the returned
/// trace ends with the failing allocation and [`Capture::oom`] is set.
///
/// # Errors
///
/// Returns [`GraphError`] only for model-construction or functional
/// execution failures (bugs, not user errors).
pub fn capture(
    kind: ModelKind,
    framework: Framework,
    batch: usize,
    gpu: &GpuSpec,
    options: &TraceOptions,
) -> Result<Capture, GraphError> {
    capture_into(kind, framework, batch, gpu, options, &TraceRecorder::shared())
}

/// [`capture`] recording into a caller-supplied recorder — the hook for
/// live consumers: attach a [`TraceSink`](tbd_graph::TraceSink) (e.g. a
/// [`crate::agg::StreamingAggregator`]) to the recorder first and it
/// observes every event online, at the same `record_batch` boundaries the
/// instrumented layers publish at. The recorder is drained into the
/// returned [`Trace`] on completion.
///
/// After a successful paper-scale profile, a data-parallel stage
/// (2 GPUs, single machine — the paper's 1M2G point) replays the
/// simulated iteration through `tbd-distrib`'s event engine: per-layer
/// backward finish times come straight off the kernel timeline, gradients
/// coalesce into DDP-style buckets, and one [`EventKind::Communication`]
/// span per bucket (args `bucket`, `phase`, `bytes`, `exposed_us`) feeds
/// the Fig. 10 exposed-communication metrics and the `--summary` comm
/// rows — with overlap *derived* from the schedule.
///
/// # Errors
///
/// Returns [`GraphError`] only for model-construction or functional
/// execution failures (bugs, not user errors).
pub fn capture_into(
    kind: ModelKind,
    framework: Framework,
    batch: usize,
    gpu: &GpuSpec,
    options: &TraceOptions,
    recorder: &Arc<TraceRecorder>,
) -> Result<Capture, GraphError> {
    let capture_start = Instant::now();
    let mut wall = CaptureWall::default();
    let mut marker = TraceStore::new();
    let name = marker.intern("capture");
    marker
        .span(name, TraceLayer::Profiler, EventKind::Phase, 0.0, 0.0)
        .with_arg("model", kind.name())
        .with_arg("framework", framework.name())
        .with_arg("batch", batch);
    recorder.record_batch(marker);
    if options.functional {
        let t0 = Instant::now();
        functional_step(kind, framework, options, recorder)?;
        wall.exec_s = t0.elapsed().as_secs_f64();
    }
    let full = kind.build_full(batch)?;
    let t0 = Instant::now();
    let (profile, oom) =
        match profile_workload(kind, framework, &full, gpu, options.speed, Some(recorder)) {
            Ok(profile) => (Some(profile), None),
            Err(oom) => (None, Some(oom)),
        };
    wall.lower_sim_s = t0.elapsed().as_secs_f64();
    let worker = profile.as_ref().map(|profile| {
        let t0 = Instant::now();
        let worker = DataParallelSim::from_iteration(&full.graph, &profile.iteration, batch);
        worker.simulate_events(
            &ClusterConfig::single_machine(2),
            &EventConfig::default(),
            Some(recorder),
        );
        wall.distrib_s = t0.elapsed().as_secs_f64();
        worker
    });
    let mut marker = TraceStore::new();
    let name = marker.intern("analysis complete");
    marker
        .span(name, TraceLayer::Profiler, EventKind::Phase, 1.0, 0.0)
        .with_arg("oom", oom.is_some())
        .with_arg("events", recorder.len());
    recorder.record_batch(marker);
    let trace = Trace { model: kind, framework: framework.name(), batch, events: recorder.drain() };
    wall.total_s = capture_start.elapsed().as_secs_f64();
    Ok(Capture { trace, profile, oom, worker, wall })
}

/// RNG seed of the functional session. Every value hash in a trace, and so
/// every golden digest, depends on it.
const FUNCTIONAL_SEED: u64 = 42;

/// Runs one miniature functional training step (forward + backward at tiny
/// scale) with the recorder attached to the executor.
fn functional_step(
    kind: ModelKind,
    framework: Framework,
    options: &TraceOptions,
    recorder: &Arc<TraceRecorder>,
) -> Result<(), GraphError> {
    let model = build_tiny(kind)?;
    let feeds = synthetic_feeds(&model);
    let loss = model.loss();
    let mut exec = framework.host_threading();
    exec.intra_op_threads = options.intra_op_threads;
    let mut session = Session::with_exec(model.graph, FUNCTIONAL_SEED, exec);
    session.set_fusion_enabled(options.speed.fuse);
    session.set_precision(options.speed.precision);
    session.set_tracer(Some(Arc::clone(recorder)));
    let run = session.forward(&feeds)?;
    session.backward(&run, loss, Tensor::scalar(1.0))?;
    // Leave the process-wide intra-op cap as the harness default.
    tbd_tensor::par::set_max_threads(0);
    Ok(())
}

/// The miniature (functionally identical) configuration of each workload,
/// used for the executor-layer portion of a trace. Public so the
/// fusion-equivalence property tests and the criterion benches exercise
/// exactly the graphs `capture()` executes.
pub fn build_tiny(kind: ModelKind) -> Result<BuiltModel, GraphError> {
    use tbd_models as m;
    match kind {
        ModelKind::ResNet50 => m::resnet::ResNetConfig::tiny().build(2),
        ModelKind::InceptionV3 => m::inception::InceptionConfig::tiny().build(2),
        ModelKind::Seq2Seq => m::seq2seq::Seq2SeqConfig::tiny().build(2),
        ModelKind::Transformer => m::transformer::TransformerConfig::tiny().build(2),
        ModelKind::FasterRcnn => m::faster_rcnn::FasterRcnnConfig::tiny().build(),
        ModelKind::DeepSpeech2 => m::deepspeech::DeepSpeechConfig::tiny().build(2),
        ModelKind::Wgan => m::wgan::WganConfig::tiny().build(2),
        ModelKind::A3c => m::a3c::A3cConfig::tiny().build(2),
    }
}

/// Deterministic synthetic feeds for every input of `model`.
///
/// Inputs consumed as *indices* — the `targets` operand of a cross-entropy
/// node or the `ids` operand of an embedding lookup — receive alternating
/// `0/1` (valid for any vocabulary or class count ≥ 2); everything else
/// receives a smooth, fixed float pattern.
pub fn synthetic_feeds(model: &BuiltModel) -> Vec<(NodeId, Tensor)> {
    let graph = &model.graph;
    let mut index_like = vec![false; graph.len()];
    for i in 0..graph.len() {
        let node = graph.node(NodeId::from_index(i));
        if matches!(node.op, Op::CrossEntropy | Op::Embedding) {
            if let Some(ids) = node.inputs.get(1) {
                index_like[ids.index()] = true;
            }
        }
    }
    model
        .inputs
        .values()
        .map(|&id| {
            let shape = graph.node(id).shape.clone();
            let tensor = if index_like[id.index()] {
                Tensor::from_fn(shape, |i| (i % 2) as f32)
            } else {
                Tensor::from_fn(shape, |i| ((i * 7 % 23) as f32 - 11.0) * 0.01)
            };
            (id, tensor)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_capture(threads: usize) -> Capture {
        let options = TraceOptions { intra_op_threads: threads, ..TraceOptions::default() };
        capture(ModelKind::ResNet50, Framework::tensorflow(), 4, &GpuSpec::quadro_p4000(), &options)
            .expect("capture succeeds")
    }

    #[test]
    fn capture_spans_executor_gpusim_framework_and_profiler_layers() {
        let cap = quick_capture(1);
        assert!(cap.oom.is_none());
        assert!(cap.profile.is_some());
        for layer in TraceLayer::ALL {
            assert!(
                cap.trace.layer_events(layer).count() > 0,
                "layer {layer} must contribute events"
            );
        }
        assert!(cap.trace.summary_rows().iter().any(|r| r.category == "kernel"));
    }

    #[test]
    fn digest_is_stable_across_intra_op_thread_counts() {
        let a = quick_capture(1);
        let b = quick_capture(4);
        assert_eq!(a.trace.digest_hex(), b.trace.digest_hex());
        // And genuinely sensitive to the run: another batch differs.
        let c = capture(
            ModelKind::ResNet50,
            Framework::tensorflow(),
            8,
            &GpuSpec::quadro_p4000(),
            &TraceOptions::default(),
        )
        .unwrap();
        assert_ne!(a.trace.digest_hex(), c.trace.digest_hex());
    }

    #[test]
    fn chrome_json_round_trips_and_names_processes() {
        let cap = quick_capture(1);
        let text = cap.trace.to_chrome_json();
        let value = json::parse(&text).expect("exporter must emit valid JSON");
        let reparsed = json::parse(&value.to_string()).expect("round trip");
        assert_eq!(value, reparsed);
        let events = value.get("traceEvents").unwrap().as_array().unwrap();
        assert!(events.len() > cap.trace.events.len(), "events plus metadata records");
        let has_meta = events.iter().any(|e| {
            e.get("ph").and_then(json::Value::as_str) == Some("M")
                && e.get("args").and_then(|a| a.get("name")).and_then(json::Value::as_str)
                    == Some("executor (host)")
        });
        assert!(has_meta, "executor process must be named");
        assert_eq!(
            value.get("otherData").unwrap().get("digest").unwrap().as_str().unwrap(),
            cap.trace.digest_hex()
        );
    }

    /// The parsed `traceEvents` records on the simulated GPU stream.
    fn gpu_track_records(trace: &Trace) -> Vec<json::Value> {
        let value = json::parse(&trace.to_chrome_json()).expect("exporter must emit valid JSON");
        let field = |e: &json::Value, key| e.get(key).and_then(json::Value::as_f64);
        let gpu_pid = f64::from(TraceLayer::GpuSim.pid());
        let events = value.get("traceEvents").unwrap().as_array().unwrap();
        events
            .iter()
            .filter(|e| field(e, "pid") == Some(gpu_pid) && field(e, "tid") == Some(1.0))
            .cloned()
            .collect()
    }

    #[test]
    fn trace_is_json_array_with_one_event_per_kernel() {
        let mut events = TraceStore::new();
        for (name, start_us) in [("conv2d", 0.0), ("conv \"3x3\" \\ fused", 12.0)] {
            let name = events.intern(name);
            let kind = EventKind::KernelExec;
            events.span(name, TraceLayer::GpuSim, kind, start_us, 10.0).on_track(1);
        }
        let trace = Trace { model: ModelKind::ResNet50, framework: "TensorFlow", batch: 4, events };
        let records = gpu_track_records(&trace);
        assert_eq!(records.len(), 2);
        let names: Vec<_> =
            records.iter().map(|e| e.get("name").and_then(json::Value::as_str).unwrap()).collect();
        assert_eq!(names, ["conv2d", "conv \"3x3\" \\ fused"], "names are JSON-escaped");
        assert!(records.iter().all(|e| e.get("ph").and_then(json::Value::as_str) == Some("X")));
    }

    #[test]
    fn events_do_not_overlap_on_the_gpu_track() {
        let options = TraceOptions { functional: false, ..TraceOptions::default() };
        let cap = capture(
            ModelKind::ResNet50,
            Framework::tensorflow(),
            4,
            &GpuSpec::quadro_p4000(),
            &options,
        )
        .unwrap();
        let records = gpu_track_records(&cap.trace);
        let kind_in = |e: &&json::Value, kinds: &[&str]| {
            let kind = e.get("args").and_then(|a| a.get("kind")).and_then(json::Value::as_str);
            kind.is_some_and(|k| kinds.contains(&k))
        };
        let kernels = records.iter().filter(|e| kind_in(e, &["kernel", "memcpy"])).count();
        let profile = cap.profile.expect("batch 4 fits");
        assert_eq!(kernels, profile.iteration.records.len(), "one span per kernel");
        // Kernels, memcpys and sync gaps tile the stream in order (the
        // whole-iteration span and allocator instants share the track).
        let mut last_end = 0.0f64;
        for e in records.iter().filter(|e| kind_in(e, &["kernel", "memcpy", "sync"])) {
            let ts = e.get("ts").and_then(json::Value::as_f64).unwrap();
            let dur = e.get("dur").and_then(json::Value::as_f64).unwrap();
            // Both fields are written to 1 ns, so allow two roundings.
            assert!(ts >= last_end - 2e-3, "spans overlap: {ts} < {last_end}");
            last_end = ts + dur;
        }
        assert!(last_end > 0.0);
    }

    #[test]
    fn empty_trace_is_valid() {
        let trace = Trace {
            model: ModelKind::A3c,
            framework: "MXNet",
            batch: 1,
            events: TraceStore::new(),
        };
        let value = json::parse(&trace.to_chrome_json()).expect("valid JSON");
        assert_eq!(value.get("traceEvents").unwrap().as_array().unwrap().len(), 0);
        assert!(gpu_track_records(&trace).is_empty());
    }

    #[test]
    fn nvprof_summary_lists_dominant_kernels() {
        let cap = quick_capture(1);
        let summary = cap.trace.nvprof_summary();
        assert!(summary.contains("GPU activities"));
        assert!(summary.contains("Time%"));
        assert!(summary.contains("Cum%"));
        let rows = cap.trace.summary_rows();
        assert!(summary.contains(rows[0].name.as_str()));
        // Rows are sorted by total time descending.
        assert!(rows.windows(2).all(|w| w[0].total_us >= w[1].total_us));
    }

    #[test]
    fn summary_rows_cover_memcpy_and_communication_with_cumulative_shares() {
        let cap = quick_capture(1);
        let rows = cap.trace.summary_rows();
        assert!(rows.iter().any(|r| r.category == "kernel"));
        assert!(rows.iter().any(|r| r.category == "memcpy"), "H2D copies must appear");
        assert!(rows.iter().any(|r| r.category == "comm"), "gradient exchange must appear");
        // Sorted by total time; cumulative share is monotone and ends at 100%.
        assert!(rows.windows(2).all(|w| w[0].total_us >= w[1].total_us));
        assert!(rows.windows(2).all(|w| w[0].cumulative_pct <= w[1].cumulative_pct + 1e-9));
        let last = rows.last().unwrap();
        assert!((last.cumulative_pct - 100.0).abs() < 1e-6, "{}", last.cumulative_pct);
        // The text table carries the category column.
        let summary = cap.trace.nvprof_summary();
        assert!(summary.contains("comm"));
        assert!(summary.contains("memcpy"));
    }

    #[test]
    fn capture_records_wall_phase_split_and_fusion_toggles_span_structure() {
        let fused = quick_capture(1);
        assert!(fused.wall.total_s > 0.0);
        assert!(fused.wall.exec_s > 0.0);
        assert!(fused.wall.lower_sim_s > 0.0);
        assert!(fused.wall.distrib_s > 0.0);
        let parts = fused.wall.exec_s + fused.wall.lower_sim_s + fused.wall.distrib_s;
        assert!(fused.wall.total_s >= parts - 1e-9, "phases must nest inside the total");
        // The speed tier is on by default: fused groups appear in the trace.
        assert!(fused.trace.events.iter().any(|e| e.name.starts_with("fused:")));
        // Opting out restores the unfused stream (and a different digest).
        let unfused = capture(
            ModelKind::ResNet50,
            Framework::tensorflow(),
            4,
            &GpuSpec::quadro_p4000(),
            &TraceOptions { speed: SpeedOptions::default(), ..TraceOptions::default() },
        )
        .unwrap();
        assert!(!unfused.trace.events.iter().any(|e| e.name.starts_with("fused:")));
        assert_ne!(fused.trace.digest_hex(), unfused.trace.digest_hex());
    }

    #[test]
    fn mixed_precision_capture_is_deterministic_across_thread_counts() {
        let opts = |threads| TraceOptions {
            intra_op_threads: threads,
            speed: SpeedOptions::fused(Precision::Bf16),
            ..TraceOptions::default()
        };
        let a = capture(
            ModelKind::ResNet50,
            Framework::tensorflow(),
            4,
            &GpuSpec::quadro_p4000(),
            &opts(1),
        )
        .unwrap();
        let b = capture(
            ModelKind::ResNet50,
            Framework::tensorflow(),
            4,
            &GpuSpec::quadro_p4000(),
            &opts(4),
        )
        .unwrap();
        assert_eq!(a.trace.digest_hex(), b.trace.digest_hex());
        // Reduced precision genuinely changes the run (values and timings).
        let f32_run = quick_capture(1);
        assert_ne!(a.trace.digest_hex(), f32_run.trace.digest_hex());
        let (pa, pf) = (a.profile.unwrap(), f32_run.profile.unwrap());
        assert!(
            pa.iteration.wall_time_s < pf.iteration.wall_time_s,
            "bf16 roofline must be faster: {} vs {}",
            pa.iteration.wall_time_s,
            pf.iteration.wall_time_s
        );
    }

    #[test]
    fn oom_capture_returns_partial_trace_with_failing_allocation() {
        let cap = capture(
            ModelKind::ResNet50,
            Framework::tensorflow(),
            512,
            &GpuSpec::quadro_p4000(),
            &TraceOptions { functional: false, ..TraceOptions::default() },
        )
        .unwrap();
        assert!(cap.profile.is_none());
        let oom = cap.oom.expect("batch 512 exceeds 8 GB");
        assert!(cap
            .trace
            .events
            .iter()
            .any(|e| e.kind == EventKind::AllocFail && e.name == oom.category.to_string()));
    }

    #[test]
    fn every_workload_has_working_synthetic_feeds() {
        // The functional stage must execute for all Table-2 models: valid
        // index feeds (embedding ids, cross-entropy targets) included.
        for kind in ModelKind::ALL {
            let model = build_tiny(kind).expect("tiny build");
            let feeds = synthetic_feeds(&model);
            assert_eq!(feeds.len(), model.inputs.len(), "{kind:?}");
            let loss = model.loss();
            let mut session = Session::new(model.graph, 5);
            let run = session.forward(&feeds).unwrap_or_else(|e| panic!("{kind:?}: {e}"));
            let l = run.scalar(loss).expect("loss computed");
            assert!(l.is_finite(), "{kind:?} loss {l}");
        }
    }
}
