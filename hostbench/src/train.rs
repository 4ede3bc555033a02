//! `train`: real CPU training through `tbd-tensor` → `tbd-graph` →
//! `tbd-train`.
//!
//! A step is one optimizer step of each of four tiny models (ResNet-50,
//! Inception-v3, Seq2Seq, Transformer) in fixed order. Every
//! [`CHECKPOINT_EVERY`]-th step also snapshots and restores every model's
//! weights in memory through the checkpoint layer. This is the only
//! workload where kernels, the executor and the optimizer do the work.
//! WGAN is left out: its loss reaches NaN within 20 plain-SGD steps.
//!
//! Times are CPU times at nominal host speed (see [`crate::speed`]): the
//! reference kernel runs every [`REFERENCE_EVERY`] steps, and each slice of
//! [`SLICE_STEPS`] steps is scaled by the median of its reference timings.

use std::time::{Duration, Instant};

use tbd_graph::{ExecConfig, NodeId, Op, Session};
use tbd_models::{BuiltModel, ModelKind};
use tbd_tensor::{arena, Tensor};
use tbd_train::{checkpoint, param_hash, Adam, Momentum, Optimizer};

use crate::host::cpu_s;
use crate::report::{Metric, RunReport, Summary, TRAIN_MODELS};
use crate::rng::SplitMix64;
use crate::spans::{breakdown, overhead_pct, self_times, Tracer};
use crate::speed::{nominal_cpu_s, scale, Reference};
use crate::stats::{mean, median, percentile, sorted, tail_note};
use crate::{RunArgs, SETUP_REPEATS};

/// Models of the mix, in step order.
pub const MODELS: [ModelKind; 4] = [
    ModelKind::ResNet50,
    ModelKind::InceptionV3,
    ModelKind::Seq2Seq,
    ModelKind::Transformer,
];

/// One intra-op thread and a sequential node walk. On a small shared host
/// a co-tenant on the second core stalls every multi-threaded kernel at
/// its join, which made step times bimodal across runs; single-threaded
/// steps keep the figures comparable between commits.
pub const EXEC: ExecConfig = ExecConfig {
    intra_op_threads: 1,
    inter_op_parallel: false,
};

/// Every this many steps, each model's weights make a checkpoint round trip.
pub const CHECKPOINT_EVERY: u64 = 8;

/// Distinct seeded batches per model, used in rotation.
pub const FEED_POOL: usize = 4;

/// Losses averaged at each end of the run for the did-it-learn check.
pub const LOSS_WINDOW: usize = 3;

/// Steps run during set-up and excluded from timing (warm-up).
pub const WARMUP_STEPS: u64 = 3;

/// Steps per slice of a window; a multiple of [`CHECKPOINT_EVERY`], so
/// every slice holds the same work.
pub const SLICE_STEPS: usize = 32;

/// The reference kernel runs before every this many steps.
pub const REFERENCE_EVERY: usize = 4;

/// Fixed tail percentile of all steps; checkpoint steps land in it.
pub const STEP_TAIL: f64 = 95.0;

/// Fixed tail percentile of checkpoint steps.
pub const CHECKPOINT_TAIL: f64 = 90.0;

/// Seeded feeds for every input of `model`. Inputs consumed as indices —
/// cross-entropy targets and embedding ids — get `0`/`1` (valid for any
/// class or vocabulary count ≥ 2); every other input gets uniform values
/// in `[-0.11, 0.11]`.
pub fn seeded_feeds(model: &BuiltModel, rng: &mut SplitMix64) -> Vec<(NodeId, Tensor)> {
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
                Tensor::from_fn(shape, |_| rng.below(2) as f32)
            } else {
                Tensor::from_fn(shape, |_| (rng.next_f64() * 0.22 - 0.11) as f32)
            };
            (id, tensor)
        })
        .collect()
}

fn optimizer_for(kind: ModelKind) -> Box<dyn Optimizer> {
    match kind {
        ModelKind::ResNet50 | ModelKind::InceptionV3 => Box::new(Momentum::new(0.01, 0.9)),
        _ => Box::new(Adam::new(0.002)),
    }
}

/// Span names of each model's layer calls: forward, backward, optimizer.
const SPAN_NAMES: [[&str; 3]; 4] = [
    [
        "graph.forward.resnet50",
        "graph.backward.resnet50",
        "optim.step.resnet50",
    ],
    [
        "graph.forward.inception_v3",
        "graph.backward.inception_v3",
        "optim.step.inception_v3",
    ],
    [
        "graph.forward.seq2seq",
        "graph.backward.seq2seq",
        "optim.step.seq2seq",
    ],
    [
        "graph.forward.transformer",
        "graph.backward.transformer",
        "optim.step.transformer",
    ],
];

struct Model {
    key: &'static str,
    spans: [&'static str; 3],
    session: Session,
    loss: NodeId,
    batches: Vec<Vec<(NodeId, Tensor)>>,
    optimizer: Box<dyn Optimizer>,
    samples: usize,
    /// Loss of every step on batch 0, in order.
    batch0_losses: Vec<f32>,
    nonfinite: u64,
    /// Arena counters of this model's traced steps: fresh allocations,
    /// bytes requested, bytes reused.
    arena: [u64; 3],
}

/// The four models with their sessions, feeds and optimizers.
pub struct Mix {
    models: Vec<Model>,
    step: u64,
}

impl Mix {
    /// Builds the mix from `seed` (weights and feeds) and runs the
    /// warm-up steps.
    ///
    /// # Errors
    ///
    /// Returns a message when a model fails to build or execute.
    pub fn new(seed: u64) -> Result<Mix, String> {
        let mut models = Vec::new();
        for (i, (&kind, &key)) in MODELS.iter().zip(TRAIN_MODELS.iter()).enumerate() {
            debug_assert!(SPAN_NAMES[i][0].ends_with(key));
            let built = tbd_profiler::trace::build_tiny(kind).map_err(|e| e.to_string())?;
            let mut rng = SplitMix64::stream(seed, 100 + i as u64);
            let batches = (0..FEED_POOL)
                .map(|_| seeded_feeds(&built, &mut rng))
                .collect();
            let loss = built.loss();
            let samples = built.batch;
            let session = Session::with_exec(built.graph, rng.next_u64(), EXEC);
            models.push(Model {
                key,
                spans: SPAN_NAMES[i],
                session,
                loss,
                batches,
                optimizer: optimizer_for(kind),
                samples,
                batch0_losses: Vec::new(),
                nonfinite: 0,
                arena: [0; 3],
            });
        }
        let mut mix = Mix { models, step: 0 };
        let mut tracer = Tracer::new(Instant::now(), false);
        for _ in 0..WARMUP_STEPS {
            mix.step(&mut tracer)?;
        }
        Ok(mix)
    }

    /// Samples consumed by one step.
    pub fn samples_per_step(&self) -> usize {
        self.models.iter().map(|m| m.samples).sum()
    }

    /// Runs one step; returns whether it was a checkpoint step.
    fn step(&mut self, tracer: &mut Tracer) -> Result<bool, String> {
        let op = self.step;
        let checkpoint = op % CHECKPOINT_EVERY == CHECKPOINT_EVERY - 1;
        let root = tracer.open("train.step", None, op);
        for model in &mut self.models {
            let batch = (op % FEED_POOL as u64) as usize;
            let feeds = &model.batches[batch];
            let session = &mut model.session;
            let arena0 = tracer.on().then(arena::stats);
            let [forward, backward, optim] = model.spans;
            let run = tracer
                .time(forward, root, op, || session.forward(feeds))
                .map_err(|e| format!("{} forward: {e}", model.key))?;
            let loss = run.scalar(model.loss).unwrap_or(f32::NAN);
            if !loss.is_finite() {
                model.nonfinite += 1;
            }
            if batch == 0 {
                model.batch0_losses.push(loss);
            }
            let grads = tracer
                .time(backward, root, op, || {
                    session.backward(&run, model.loss, Tensor::scalar(1.0))
                })
                .map_err(|e| format!("{} backward: {e}", model.key))?;
            let optimizer = &mut model.optimizer;
            tracer.time(optim, root, op, || optimizer.step(session, &grads));
            if let Some(a0) = arena0 {
                let a1 = arena::stats();
                model.arena[0] += a1.fresh_allocs - a0.fresh_allocs;
                model.arena[1] += a1.bytes_requested - a0.bytes_requested;
                model.arena[2] += a1.bytes_reused - a0.bytes_reused;
            }
        }
        if checkpoint {
            for model in &mut self.models {
                let session = &mut model.session;
                let before = tracer.time("checkpoint.hash", root, op, || param_hash(session));
                let bytes = tracer.time("checkpoint.save", root, op, || {
                    checkpoint::to_bytes(session)
                });
                tracer
                    .time("checkpoint.load", root, op, || {
                        checkpoint::verify(&bytes)?;
                        checkpoint::load(session, bytes.as_slice())
                    })
                    .map_err(|e| format!("{} checkpoint: {e}", model.key))?;
                let after = tracer.time("checkpoint.hash", root, op, || param_hash(session));
                if before != after {
                    return Err(format!(
                        "{}: param hash {before:016x} changed to {after:016x} across a checkpoint round trip",
                        model.key
                    ));
                }
            }
        }
        tracer.close(root);
        self.step += 1;
        Ok(checkpoint)
    }

    fn check_losses(&self, report: &mut RunReport) {
        for m in &self.models {
            report.check(m.nonfinite == 0, || {
                format!("{}: {} non-finite losses", m.key, m.nonfinite)
            });
            // Compare the mean of the first and the last few losses on the
            // same batch, so one noisy step cannot decide the check.
            let n = LOSS_WINDOW.min(m.batch0_losses.len() / 2);
            let avg = |l: &[f32]| l.iter().sum::<f32>() / l.len().max(1) as f32;
            let first = avg(&m.batch0_losses[..n]);
            let last = avg(&m.batch0_losses[m.batch0_losses.len() - n..]);
            report.check(n > 0 && last < first, || {
                format!("{}: loss on batch 0 did not fall: {first} -> {last}", m.key)
            });
        }
    }
}

/// One completed step of a measured window.
struct Step {
    /// Slice of [`SLICE_STEPS`] steps it belongs to.
    slice: usize,
    /// Wall milliseconds.
    wall_ms: f64,
    /// CPU milliseconds.
    cpu_ms: f64,
    checkpoint: bool,
}

/// Steps of one measured window, in slices of [`SLICE_STEPS`] steps.
struct Window {
    steps: Vec<Step>,
    /// Reference timings of each slice, ms.
    reference_ms: Vec<Vec<f64>>,
    failed: u64,
}

impl Window {
    /// Nominal times of every step, or of checkpoint steps only, sorted.
    fn times(&self, checkpoints_only: bool) -> Vec<f64> {
        let scales: Vec<f64> = self.reference_ms.iter().map(|r| scale(r)).collect();
        sorted(
            &self
                .steps
                .iter()
                .filter(|s| s.checkpoint || !checkpoints_only)
                .map(|s| s.cpu_ms * scales[s.slice])
                .collect::<Vec<_>>(),
        )
    }
}

fn run_window(mix: &mut Mix, window: Duration, tracer: &mut Tracer) -> Window {
    let mut out = Window {
        steps: Vec::new(),
        reference_ms: Vec::new(),
        failed: 0,
    };
    let mut reference = Reference::new();
    let start = Instant::now();
    'window: while out.reference_ms.is_empty() || start.elapsed() < window {
        let slice = out.reference_ms.len();
        out.reference_ms.push(Vec::new());
        for i in 0..SLICE_STEPS {
            if i % REFERENCE_EVERY == 0 {
                out.reference_ms[slice].push(reference.run_ms());
            }
            let (t0, cpu0) = (Instant::now(), cpu_s());
            match mix.step(tracer) {
                Ok(checkpoint) => out.steps.push(Step {
                    slice,
                    cpu_ms: (cpu_s() - cpu0) * 1e3,
                    wall_ms: t0.elapsed().as_secs_f64() * 1e3,
                    checkpoint,
                }),
                Err(e) => {
                    eprintln!("train step failed: {e}");
                    out.failed += 1;
                    break 'window;
                }
            }
        }
    }
    out
}

/// Runs the workload.
///
/// # Errors
///
/// Returns a message when set-up fails.
pub fn run(args: &RunArgs) -> Result<RunReport, String> {
    let mut setups = Vec::new();
    let mut mix = None;
    let mut reference = Reference::new();
    for _ in 0..SETUP_REPEATS {
        let (built, s) = nominal_cpu_s(&mut reference, || Mix::new(args.seed));
        mix = Some(built?);
        setups.push(s);
    }
    let mut mix = mix.expect("at least one set-up");
    let mut report = RunReport::default();
    let samples = mix.samples_per_step() as f64;
    let untraced_window = if args.trace {
        args.window / 2
    } else {
        args.window
    };
    let w = run_window(
        &mut mix,
        untraced_window,
        &mut Tracer::new(Instant::now(), false),
    );
    report.attempted += w.steps.len() as u64 + w.failed;
    report.failed += w.failed;
    let (steps, ckpt) = (w.times(false), w.times(true));
    let total_s = steps.iter().sum::<f64>() / 1e3;
    if steps.is_empty() || ckpt.is_empty() {
        return Err("no complete step or checkpoint step in the window".to_string());
    }
    report.summary = Summary {
        setup_s: median(&sorted(&setups)),
        peak_rss_mb: 0.0,
        throughput_per_s: samples * steps.len() as f64 / total_s,
        p50_ms: median(&steps),
        tail_ms: percentile(&steps, STEP_TAIL),
        heavy_p50_ms: median(&ckpt),
        heavy_tail_ms: percentile(&ckpt, CHECKPOINT_TAIL),
    };
    let s = report.summary;
    let wall = sorted(&w.steps.iter().map(|s| s.wall_ms).collect::<Vec<_>>());
    report
        .notes
        .push(tail_note("steps", steps.len(), STEP_TAIL));
    report
        .notes
        .push(tail_note("checkpoint steps", ckpt.len(), CHECKPOINT_TAIL));
    report.named = vec![
        Metric::new("train.samples_per_s", s.throughput_per_s, "1/s"),
        Metric::new("train.step_p50_ms", s.p50_ms, "ms"),
        Metric::new(format!("train.step_p{STEP_TAIL}_ms"), s.tail_ms, "ms"),
        Metric::new("train.checkpoint_step_p50_ms", s.heavy_p50_ms, "ms"),
        Metric::new(
            format!("train.checkpoint_step_p{CHECKPOINT_TAIL}_ms"),
            s.heavy_tail_ms,
            "ms",
        ),
        Metric::new("train.step_wall_p50_ms", median(&wall), "ms"),
    ];
    report.notes.push(format!(
        "{} steps ({} checkpoint steps) in {} slices of {SLICE_STEPS} taking {total_s:.2} nominal CPU s; {samples} samples per step; host speed {:.3} of nominal (median)",
        steps.len(),
        ckpt.len(),
        w.reference_ms.len(),
        scale(&w.reference_ms.concat()),
    ));
    if args.trace {
        traced(&mut mix, args, mean(&steps), &mut report);
    }
    mix.check_losses(&mut report);
    Ok(report)
}

fn traced(mix: &mut Mix, args: &RunArgs, untraced_mean_ms: f64, report: &mut RunReport) {
    let mut tracer = Tracer::new(Instant::now(), true);
    let w = run_window(mix, args.window - args.window / 2, &mut tracer);
    report.attempted += w.steps.len() as u64 + w.failed;
    report.failed += w.failed;
    let steps = w.steps.len().max(1) as f64;
    let checkpoints = w.steps.iter().filter(|s| s.checkpoint).count().max(1) as f64;
    let times = self_times(tracer.spans());
    let self_ms = |name: &str| times.get(name).map_or(0.0, |t| t.self_ns as f64 / 1e6);
    let layers = &mut report.layers;
    let mut totals = [0.0; 3];
    let mut arena_total = [0u64; 3];
    for model in &mix.models {
        for (k, metric) in [
            "train.graph.forward_ms",
            "train.graph.backward_ms",
            "train.optim.step_ms",
        ]
        .into_iter()
        .enumerate()
        {
            let ms = self_ms(model.spans[k]) / steps;
            totals[k] += ms;
            layers.insert(format!("{metric}.{}", model.key), ms);
        }
        let [fresh, requested, reused] = model.arena;
        layers.insert(
            format!("train.tensor.fresh_allocs_per_step.{}", model.key),
            fresh as f64 / steps,
        );
        layers.insert(
            format!("train.tensor.arena_reuse_fraction.{}", model.key),
            fraction(reused, requested),
        );
        for (t, v) in arena_total.iter_mut().zip(model.arena) {
            *t += v;
        }
    }
    layers.insert("train.graph.forward_ms".into(), totals[0]);
    layers.insert("train.graph.backward_ms".into(), totals[1]);
    layers.insert("train.optim.step_ms".into(), totals[2]);
    layers.insert(
        "train.tensor.fresh_allocs_per_step".into(),
        arena_total[0] as f64 / steps,
    );
    layers.insert(
        "train.tensor.arena_reuse_fraction".into(),
        fraction(arena_total[2], arena_total[1]),
    );
    layers.insert(
        "train.checkpoint.save_ms".into(),
        self_ms("checkpoint.save") / checkpoints,
    );
    layers.insert(
        "train.checkpoint.load_ms".into(),
        self_ms("checkpoint.load") / checkpoints,
    );
    layers.insert(
        "train.checkpoint.hash_ms".into(),
        self_ms("checkpoint.hash") / checkpoints,
    );
    let bytes: usize = mix
        .models
        .iter()
        .map(|m| checkpoint::to_bytes(&m.session).len())
        .sum();
    layers.insert("train.checkpoint.bytes".into(), bytes as f64);
    let traced_mean_ms = mean(&w.steps.iter().map(|s| s.wall_ms).collect::<Vec<_>>());
    let residual = self_ms("train.step") / steps;
    layers.insert("train.bench.residual_ms".into(), residual);
    let overhead = overhead_pct(mean(&w.times(false)), untraced_mean_ms);
    layers.insert("train.bench.trace_overhead_pct".into(), overhead);
    report.notes.push(breakdown(
        "step",
        steps,
        traced_mean_ms,
        &times,
        "train.step",
    ));
    report.notes.push(format!(
        "tracing overhead {overhead:+.2}% (mean nominal CPU time of a step, traced vs untraced)"
    ));
    report.spans = tracer.spans().to_vec();
}

fn fraction(part: u64, whole: u64) -> f64 {
    if whole == 0 {
        0.0
    } else {
        part as f64 / whole as f64
    }
}
