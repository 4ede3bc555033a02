//! The user-facing end of the unified trace spine.
//!
//! The recording layer ([`TraceRecorder`], [`TraceEvent`], re-exported
//! here) lives in `tbd-graph::trace` so every instrumented crate can reach
//! it without a dependency cycle; this module assembles recordings into a
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
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::Arc;
use tbd_distrib::{BackwardProfile, ClusterConfig, DataParallelSim, EventConfig};
use std::time::Instant;
use tbd_frameworks::{Framework, SpeedOptions, WorkloadProfile};
use tbd_gpusim::{GpuSpec, MemoryCategory, OutOfMemory};
use tbd_graph::{GraphError, NodeId, Op, Session};
use tbd_models::{BuiltModel, ModelKind};
use tbd_tensor::{Precision, Tensor};

pub use tbd_graph::trace::{
    fnv1a, value_hash, ArgValue, EventKind, Fnv1a, TraceEvent, TraceLayer, TraceRecorder,
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
    pub events: Vec<TraceEvent>,
}

/// One row of the kernel-level summary used by the golden-trace diff and
/// the nvprof-style table.
#[derive(Debug, Clone, PartialEq)]
pub struct KernelRow {
    /// Event name (kernel label).
    pub name: String,
    /// Number of invocations.
    pub count: usize,
    /// Summed duration in microseconds.
    pub total_us: f64,
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
    pub fn digest(&self) -> u64 {
        let mut hasher = Fnv1a::new();
        let _ = write!(
            hasher,
            "trace|{}|{}|batch={}",
            self.model.name(),
            self.framework,
            self.batch
        );
        for event in &self.events {
            hasher.update(b"\n");
            let _ = event.write_canonical(&mut hasher);
        }
        hasher.finish()
    }

    /// The digest as a fixed-width hex string (golden-file format).
    pub fn digest_hex(&self) -> String {
        format!("{:016x}", self.digest())
    }

    /// Events emitted by `layer`.
    pub fn layer_events(&self, layer: TraceLayer) -> impl Iterator<Item = &TraceEvent> {
        self.events.iter().filter(move |e| e.layer == layer)
    }

    /// Per-kernel aggregation of the simulated device stream (kernel and
    /// memcpy spans), ordered by total time descending, then by name.
    pub fn kernel_rows(&self) -> Vec<KernelRow> {
        let mut by_name: BTreeMap<&str, (usize, f64)> = BTreeMap::new();
        for event in &self.events {
            if event.layer == TraceLayer::GpuSim
                && matches!(event.kind, EventKind::KernelExec | EventKind::Memcpy)
            {
                let slot = by_name.entry(&event.name).or_insert((0, 0.0));
                slot.0 += 1;
                slot.1 += event.dur_us;
            }
        }
        let mut rows: Vec<KernelRow> = by_name
            .into_iter()
            .map(|(name, (count, total_us))| KernelRow { name: name.to_string(), count, total_us })
            .collect();
        rows.sort_by(|a, b| b.total_us.total_cmp(&a.total_us).then_with(|| a.name.cmp(&b.name)));
        rows
    }

    /// Exports the trace in Chrome trace-event JSON ("JSON object format":
    /// a top-level object with a `traceEvents` array), loadable in
    /// `chrome://tracing` and Perfetto. Each [`TraceLayer`] becomes a
    /// process with a metadata name; spans are `ph:"X"` duration events
    /// and zero-duration events become `ph:"i"` instants.
    ///
    /// Every record is written straight into the output buffer; a
    /// non-finite `ts`/`dur` is written as `null` (JSON has no NaN or
    /// infinity), like a non-finite float arg.
    pub fn to_chrome_json(&self) -> String {
        let mut out = String::with_capacity(256 + self.events.len() * 128);
        out.push_str("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
        let mut first = true;
        // Every record opens with its `name` key; the caller writes the value.
        let mut open_record = |out: &mut String| {
            if !first {
                out.push(',');
            }
            first = false;
            out.push_str("{\"name\":\"");
        };
        for layer in TraceLayer::ALL {
            if self.events.iter().any(|e| e.layer == layer) {
                open_record(&mut out);
                let _ = write!(
                    out,
                    "process_name\",\"ph\":\"M\",\"pid\":{},\"tid\":0,\"args\":{{\"name\":\"",
                    layer.pid()
                );
                json::escape_into(&mut out, layer.process_name());
                out.push_str("\"}}");
            }
        }
        for event in &self.events {
            open_record(&mut out);
            json::escape_into(&mut out, &event.name);
            if event.dur_us > 0.0 {
                out.push_str("\",\"ph\":\"X\",\"ts\":");
                write_us(&mut out, event.start_us);
                out.push_str(",\"dur\":");
                write_us(&mut out, event.dur_us);
            } else {
                out.push_str("\",\"ph\":\"i\",\"ts\":");
                write_us(&mut out, event.start_us);
                out.push_str(",\"s\":\"t\"");
            }
            let _ = write!(
                out,
                ",\"pid\":{},\"tid\":{},\"args\":{{\"kind\":\"{}\"",
                event.layer.pid(),
                event.track,
                event.kind.as_str()
            );
            for (key, value) in &event.args {
                out.push_str(",\"");
                json::escape_into(&mut out, key);
                out.push_str("\":");
                value.write_json(&mut out);
            }
            out.push_str("}}");
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
        let mut by_name: BTreeMap<(&'static str, &str), (usize, f64)> = BTreeMap::new();
        for event in &self.events {
            let category = match (event.layer, event.kind) {
                (TraceLayer::GpuSim, EventKind::KernelExec) => "kernel",
                (TraceLayer::GpuSim, EventKind::Memcpy) => "memcpy",
                (TraceLayer::Distrib, EventKind::Communication) => "comm",
                _ => continue,
            };
            let slot = by_name.entry((category, &event.name)).or_insert((0, 0.0));
            slot.0 += 1;
            slot.1 += event.dur_us;
        }
        let total: f64 = by_name.values().map(|(_, us)| us).sum();
        let mut rows: Vec<SummaryRow> = by_name
            .into_iter()
            .map(|((category, name), (count, total_us))| SummaryRow {
                name: name.to_string(),
                category,
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
        let mut by_layer: BTreeMap<TraceLayer, usize> = BTreeMap::new();
        for event in &self.events {
            *by_layer.entry(event.layer).or_insert(0) += 1;
        }
        let _ = writeln!(out, "Events by layer:");
        for (layer, count) in by_layer {
            let _ = writeln!(out, "  {layer:<10} {count}");
        }
        out
    }
}

/// Writes a Chrome-trace microsecond timestamp: three decimals, or `null`
/// when the value is not finite.
fn write_us(out: &mut String, us: f64) {
    if us.is_finite() {
        let _ = write!(out, "{us:.3}");
    } else {
        out.push_str("null");
    }
}

/// Options for [`capture`].
#[derive(Debug, Clone, Copy)]
pub struct TraceOptions {
    /// Intra-op thread cap for the functional executor run (`0` = auto).
    /// Never affects the digest: that is the invariance under test.
    pub intra_op_threads: usize,
    /// Run the miniature functional training step through the executor
    /// (adds executor-layer spans). Disable for simulation-only traces.
    pub functional: bool,
    /// RNG seed of the functional session.
    pub seed: u64,
    /// Fuse elementwise/activation/bias/norm chains in the functional
    /// executor and the lowered kernel stream (`true`, the default: the
    /// speed tier is on unless opted out). Fused f32 execution is bitwise
    /// identical to unfused; only the span structure (one `NodeExec` per
    /// group) and the kernel stream change.
    pub fuse: bool,
    /// Storage precision of the speed tier: functional matmul/conv
    /// kernels and the simulated roofline both honour it. `F32`
    /// (default) is the exact baseline.
    pub precision: Precision,
}

impl Default for TraceOptions {
    fn default() -> Self {
        TraceOptions {
            intra_op_threads: 1,
            functional: true,
            seed: 42,
            fuse: true,
            precision: Precision::F32,
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
///    [`Framework::profile_traced`] — allocator events, launch/kernel/sync
///    timeline and framework-tagged spans.
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
    recorder.record(
        TraceEvent::instant("capture", TraceLayer::Profiler, EventKind::Phase, 0.0)
            .with_arg("model", kind.name())
            .with_arg("framework", framework.name())
            .with_arg("batch", batch),
    );
    if options.functional {
        let t0 = Instant::now();
        functional_step(kind, framework, options, recorder)?;
        wall.exec_s = t0.elapsed().as_secs_f64();
    }
    let full = kind.build_full(batch)?;
    let hints = framework.hints(kind, batch);
    let speed = SpeedOptions { fuse: options.fuse, precision: options.precision };
    let t0 = Instant::now();
    let (profile, oom) = match framework.profile_traced_with_speed(&full, gpu, hints, speed, recorder)
    {
        Ok(profile) => (Some(profile), None),
        Err(oom) => (None, Some(oom)),
    };
    wall.lower_sim_s = t0.elapsed().as_secs_f64();
    if let Some(profile) = &profile {
        let t0 = Instant::now();
        let sim = DataParallelSim {
            compute_iter_s: profile.iteration.wall_time_s,
            gradient_bytes: (profile.memory.peak(MemoryCategory::WeightGrads) as f64).max(1.0),
            per_gpu_batch: batch,
        };
        let grad_map: Vec<(usize, f64)> =
            tbd_graph::lower::weight_grad_bytes_by_consumer(&full.graph)
                .into_iter()
                .map(|(id, bytes)| (id.index(), bytes as f64))
                .collect();
        let backward = BackwardProfile::from_records(
            profile.iteration.wall_time_s,
            &profile.iteration.records,
            &grad_map,
        );
        sim.simulate_events_traced(
            &ClusterConfig::single_machine(2),
            &backward,
            &EventConfig::default(),
            recorder,
        );
        wall.distrib_s = t0.elapsed().as_secs_f64();
    }
    recorder.record(
        TraceEvent::instant("analysis complete", TraceLayer::Profiler, EventKind::Phase, 1.0)
            .with_arg("oom", oom.is_some())
            .with_arg("events", recorder.len()),
    );
    let trace =
        Trace { model: kind, framework: framework.name(), batch, events: recorder.drain() };
    wall.total_s = capture_start.elapsed().as_secs_f64();
    Ok(Capture { trace, profile, oom, wall })
}

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
    let mut session = Session::with_exec(model.graph, options.seed, exec);
    session.set_fusion_enabled(options.fuse);
    session.set_precision(options.precision);
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
        capture(
            ModelKind::ResNet50,
            Framework::tensorflow(),
            4,
            &GpuSpec::quadro_p4000(),
            &options,
        )
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
        assert!(!cap.trace.kernel_rows().is_empty());
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

    #[test]
    fn nvprof_summary_lists_dominant_kernels() {
        let cap = quick_capture(1);
        let summary = cap.trace.nvprof_summary();
        assert!(summary.contains("GPU activities"));
        assert!(summary.contains("Time%"));
        assert!(summary.contains("Cum%"));
        let rows = cap.trace.kernel_rows();
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
            &TraceOptions { fuse: false, ..TraceOptions::default() },
        )
        .unwrap();
        assert!(!unfused.trace.events.iter().any(|e| e.name.starts_with("fused:")));
        assert_ne!(fused.trace.digest_hex(), unfused.trace.digest_hex());
    }

    #[test]
    fn mixed_precision_capture_is_deterministic_across_thread_counts() {
        let opts = |threads| TraceOptions {
            intra_op_threads: threads,
            precision: Precision::Bf16,
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
    #[ignore = "wall-clock probe, run manually with --ignored --nocapture"]
    fn speed_probe() {
        for kind in [ModelKind::ResNet50] {
            for fuse in [false, true] {
                tbd_tensor::arena::set_enabled(fuse);
                let mut walls = Vec::new();
                for _ in 0..6 {
                    let opts = TraceOptions { fuse, ..TraceOptions::default() };
                    let recorder = TraceRecorder::shared();
                    let cap = capture_into(
                        kind,
                        Framework::tensorflow(),
                        4,
                        &GpuSpec::quadro_p4000(),
                        &opts,
                        &recorder,
                    )
                    .unwrap();
                    walls.push(cap.wall);
                }
                walls.sort_by(|a, b| a.total_s.total_cmp(&b.total_s));
                let w = walls[walls.len() / 2];
                println!(
                    "{:?} fuse={fuse} (median of {}): total {:.4}s exec {:.4}s lower+sim {:.4}s distrib {:.4}s",
                    kind,
                    walls.len(),
                    w.total_s,
                    w.exec_s,
                    w.lower_sim_s,
                    w.distrib_s
                );
            }
        }
        tbd_tensor::arena::set_enabled(true);
    }

    #[test]
    #[ignore = "wall-clock probe, run manually with --ignored --nocapture"]
    fn speed_probe_lower_sim_breakdown() {
        use std::time::Instant;
        use tbd_graph::fuse::FusionPlan;
        use tbd_graph::lower::{lower_training_iteration, lower_training_iteration_fused};
        let model = ModelKind::ResNet50.build_full(4).expect("builds");
        for _ in 0..3 {
            let t0 = Instant::now();
            let plan = FusionPlan::analyze(&model.graph);
            let t1 = Instant::now();
            let fused = lower_training_iteration_fused(&model.graph, Some(&plan));
            let t2 = Instant::now();
            let unfused = lower_training_iteration(&model.graph);
            let t3 = Instant::now();
            eprintln!(
                "analyze {:.3}ms lower_fused {:.3}ms ({} kernels) lower_unfused {:.3}ms ({} kernels)",
                (t1 - t0).as_secs_f64() * 1e3,
                (t2 - t1).as_secs_f64() * 1e3,
                fused.len(),
                (t3 - t2).as_secs_f64() * 1e3,
                unfused.len()
            );
            use tbd_gpusim::spec::CpuSpec;
            use tbd_gpusim::timeline::{simulate_iteration, simulate_iteration_traced};
            let gpu = GpuSpec::quadro_p4000();
            let cpu = CpuSpec::xeon_e5_2680();
            let params = Framework::tensorflow().execution_params(0);
            for (label, kernels) in [("fused", &fused), ("unfused", &unfused)] {
                let t0 = Instant::now();
                let _ = simulate_iteration(kernels, &gpu, &cpu, &params);
                let t1 = Instant::now();
                let rec = TraceRecorder::shared();
                let _ = simulate_iteration_traced(kernels, &gpu, &cpu, &params, Some(&rec));
                let t2 = Instant::now();
                eprintln!(
                    "  sim {label}: untraced {:.3}ms traced {:.3}ms ({} events)",
                    (t1 - t0).as_secs_f64() * 1e3,
                    (t2 - t1).as_secs_f64() * 1e3,
                    rec.drain().len()
                );
            }
        }
    }

    #[test]
    #[ignore = "wall-clock probe, run manually with --ignored --nocapture"]
    fn speed_probe_fixed_costs() {
        use std::time::Instant;
        use tbd_graph::lower::{memory_footprint, weight_grad_bytes_by_consumer};
        for _ in 0..3 {
            let t0 = Instant::now();
            let model = ModelKind::ResNet50.build_full(4).expect("builds");
            let t1 = Instant::now();
            let fp = memory_footprint(&model.graph);
            let t2 = Instant::now();
            let grads = weight_grad_bytes_by_consumer(&model.graph);
            let t3 = Instant::now();
            let tiny = build_tiny(ModelKind::ResNet50).unwrap();
            let t4 = Instant::now();
            eprintln!(
                "build_full {:.3}ms footprint {:.3}ms ({} B weights) grad_map {:.3}ms ({} entries) build_tiny {:.3}ms ({} nodes)",
                (t1 - t0).as_secs_f64() * 1e3,
                (t2 - t1).as_secs_f64() * 1e3,
                fp.weights,
                (t3 - t2).as_secs_f64() * 1e3,
                grads.len(),
                (t4 - t3).as_secs_f64() * 1e3,
                tiny.graph.len(),
            );
        }
    }

    #[test]
    #[ignore = "wall-clock probe, run manually with --ignored --nocapture"]
    fn speed_probe_exec_breakdown() {
        const REPS: u32 = 50;
        for (fuse, arena, traced, inter) in [
            (false, false, true, true),
            (false, true, true, true),
            (true, false, true, true),
            (true, true, true, true),
            (false, false, false, true),
            (true, true, false, true),
            (false, false, true, false),
            (true, true, true, false),
            (false, false, false, false),
            (true, true, false, false),
        ] {
            tbd_tensor::arena::set_enabled(arena);
            let recorder = TraceRecorder::shared();
            let model = build_tiny(ModelKind::ResNet50).unwrap();
            let feeds = synthetic_feeds(&model);
            let loss = model.loss();
            let mut exec = Framework::tensorflow().host_threading();
            exec.intra_op_threads = 1;
            exec.inter_op_parallel = inter;
            let mut session = Session::with_exec(model.graph, 42, exec);
            session.set_fusion_enabled(fuse);
            if traced {
                session.set_tracer(Some(Arc::clone(&recorder)));
            }
            let (mut t_fwd, mut t_bwd) = (0.0, 0.0);
            for _ in 0..REPS {
                let t0 = Instant::now();
                let run = session.forward(&feeds).unwrap();
                t_fwd += t0.elapsed().as_secs_f64();
                let t0 = Instant::now();
                session.backward(&run, loss, Tensor::scalar(1.0)).unwrap();
                t_bwd += t0.elapsed().as_secs_f64();
                recorder.drain();
            }
            println!(
                "fuse={fuse} arena={arena} traced={traced} inter={inter}: fwd {:.3}ms bwd {:.3}ms (mean of {REPS})",
                t_fwd * 1e3 / f64::from(REPS),
                t_bwd * 1e3 / f64::from(REPS),
            );
        }
        tbd_tensor::arena::set_enabled(true);
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
