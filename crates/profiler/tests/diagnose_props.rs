//! Ground-truth validation of the diagnosis engine (ISSUE acceptance
//! criterion): for every fault class the harness can inject — stragglers
//! via [`StragglerSpec`], chaos faults via [`FaultSpec`], slow
//! interconnects, launch starvation, bandwidth saturation, allocator
//! churn, OOM — the injected condition must be the **top-1** diagnosis
//! across seeds and across both workload shapes, healthy runs must
//! diagnose `compute-bound` with zero fault positives, and the report
//! digest must be bitwise stable across `intra_op_threads` and across
//! `record_batch` split points.

use proptest::prelude::*;
use std::sync::OnceLock;
use tbd_distrib::{unit, ClusterConfig, EventConfig, StragglerSpec};
use tbd_gpusim::Interconnect;
use tbd_graph::trace::TraceRecorder;
use tbd_graph::{ExecConfig, GraphBuilder, Init, NodeId, Session};
use tbd_profiler::diagnose::scenarios::{self, WorkloadShape, RESNET50, SEQ2SEQ};
use tbd_profiler::json::Canonical;
use tbd_profiler::trace::TraceStore;
use tbd_profiler::{
    aggregate, diagnose_events, diagnose_named, BottleneckClass, DiagnosisReport, SamplingConfig,
    StreamingAggregator,
};
use tbd_tensor::Tensor;
use tbd_train::{DefaultPolicy, FaultSpec, ResilienceConfig, ResilientTrainer, Sgd};

const SHAPES: [&WorkloadShape; 2] = [&RESNET50, &SEQ2SEQ];

/// A fast cluster per shape: communication never dominates, so any
/// non-compute diagnosis is caused by the injection alone.
fn fast_cluster() -> ClusterConfig {
    ClusterConfig::single_machine(4)
}

fn ranked(report: &DiagnosisReport) -> Vec<&'static str> {
    report.diagnoses.iter().map(|d| d.class.label()).collect()
}

/// The chaos proxy of `tbd chaos`, inlined: a tiny MLP under the
/// resilience loop with a single-kind [`FaultSpec`], returning the spine
/// events (Fault / Recovery / Checkpoint / the `chaos/run` span).
fn chaos_events(seed: u64, threads: usize, tweak: impl Fn(&mut FaultSpec)) -> TraceStore {
    let mut g = GraphBuilder::new();
    let x = g.input("x", [4, 8]);
    let w1 = g.parameter("fc1/w", [8, 16], Init::Xavier { fan_in: 8, fan_out: 16 });
    let h = g.matmul(x, w1).expect("proxy graph");
    let h = g.relu(h).expect("proxy graph");
    let w2 = g.parameter("fc2/w", [16, 4], Init::Xavier { fan_in: 16, fan_out: 4 });
    let logits = g.matmul(h, w2).expect("proxy graph");
    let t = g.input("t", [4]);
    let loss = g.cross_entropy(logits, t).expect("proxy graph");
    let exec = ExecConfig { intra_op_threads: threads, inter_op_parallel: false };
    let session = Session::with_exec(g.finish(), seed, exec);

    let mut spec = FaultSpec::none(seed);
    tweak(&mut spec);
    let cfg = ResilienceConfig::with_faults(spec);

    let feeds = move |step: u64| -> Vec<(NodeId, Tensor)> {
        let xs: Vec<f32> = (0..32u64).map(|i| unit(seed, 77, step * 64 + i) as f32 - 0.5).collect();
        let ts: Vec<f32> = (0..4u64).map(|i| ((step + i) % 4) as f32).collect();
        vec![(x, Tensor::from_vec(xs, [4, 8]).expect("proxy batch")), (t, Tensor::from_slice(&ts))]
    };
    let tracer = TraceRecorder::shared();
    ResilientTrainer::new(session, loss, Sgd::new(0.1), cfg, DefaultPolicy::default())
        .run(40, feeds, Some(&tracer))
        .expect("proxy run succeeds");
    tracer.drain()
}

/// Injected compute stragglers are named top-1 for every seed whose draw
/// actually slowed a worker (the spec slows ~1/3 of workers per draw, so
/// a seed can legitimately leave all four healthy — those seeds must
/// instead stay clean).
#[test]
fn injected_stragglers_are_named_top1_across_seeds() {
    for shape in SHAPES {
        let mut qualifying = 0usize;
        for seed in 1u64..=12 {
            let spec = StragglerSpec::with_seed(seed);
            let (events, outcome) = scenarios::cluster_events(shape, &fast_cluster(), Some(spec));
            let report = diagnose_events(shape.name, "sim", 32, &events);
            // A seed qualifies when its draw actually injected something:
            // a compute slowdown past the rule threshold, or a dropped
            // bucket transfer (retries).
            if outcome.slowdown_factor >= 1.05 || outcome.retries > 0 {
                qualifying += 1;
                assert_eq!(
                    report.top1().class,
                    BottleneckClass::Straggler,
                    "{} seed {} (slowdown {:.3}, retries {}) ranked {:?}",
                    shape.name,
                    seed,
                    outcome.slowdown_factor,
                    outcome.retries,
                    ranked(&report)
                );
            } else {
                assert_eq!(
                    report.top1().class,
                    BottleneckClass::ComputeBound,
                    "{} seed {} injected nothing yet ranked {:?}",
                    shape.name,
                    seed,
                    ranked(&report)
                );
            }
        }
        assert!(qualifying >= 8, "{}: only {qualifying}/12 seeds drew a straggler", shape.name);
    }
}

/// A 1 GbE two-machine cluster (Fig. 10's cliff) is named
/// exposed-communication for both shapes at every tie-break salt.
#[test]
fn slow_interconnect_is_named_exposed_communication() {
    let cluster = ClusterConfig::multi_machine(2, Interconnect::ethernet_1g());
    for shape in SHAPES {
        for salt in 0u64..8 {
            let config = EventConfig { tie_break_salt: salt, ..EventConfig::default() };
            let tracer = TraceRecorder::shared();
            shape.worker().simulate_events(&cluster, &config, Some(&tracer));
            let report = diagnose_events(shape.name, "sim", 32, &tracer.drain());
            assert_eq!(
                report.top1().class,
                BottleneckClass::ExposedCommunication,
                "{} salt {} ranked {:?}",
                shape.name,
                salt,
                ranked(&report)
            );
        }
    }
}

/// Every chaos fault kind is classified from its recovery signature:
/// alloc-oom → oom-pressure (memory pressure wearing a recovery
/// costume), the other four → recovery-overhead.
#[test]
fn injected_chaos_faults_are_named_top1_across_seeds() {
    type Tweak = fn(&mut FaultSpec);
    let kinds: [(&str, Tweak, BottleneckClass); 5] = [
        ("worker-crash", |s| s.crash_rate = 0.15, BottleneckClass::RecoveryOverhead),
        ("alloc-oom", |s| s.oom_rate = 0.15, BottleneckClass::OomPressure),
        ("data-stall", |s| s.stall_rate = 0.15, BottleneckClass::RecoveryOverhead),
        ("corrupt-checkpoint", |s| s.corrupt_rate = 0.25, BottleneckClass::RecoveryOverhead),
        ("loss-spike", |s| s.spike_rate = 0.15, BottleneckClass::RecoveryOverhead),
    ];
    for (shape_idx, shape) in SHAPES.iter().enumerate() {
        for (kind, tweak, expected) in kinds {
            // Per-shape seed stream: the chaos proxy is model-independent,
            // so each shape contributes an independent fault schedule.
            for seed in 1u64..=8 {
                let events = chaos_events(seed + 100 * shape_idx as u64, 1, tweak);
                let report = diagnose_events(shape.name, "chaos", 4, &events);
                assert_eq!(
                    report.top1().class,
                    expected,
                    "{} / {kind} seed {seed} ranked {:?}",
                    shape.name,
                    ranked(&report)
                );
            }
        }
    }
}

/// Healthy runs — fast clusters without stragglers and fault-free chaos
/// loops — diagnose compute-bound with **zero** fault positives: no
/// fault class appears anywhere in the ranked list.
#[test]
fn healthy_runs_are_compute_bound_with_zero_false_positives() {
    for shape in SHAPES {
        for cluster in [
            ClusterConfig::single_machine(2),
            ClusterConfig::single_machine(4),
            ClusterConfig::multi_machine(2, Interconnect::infiniband_100g()),
        ] {
            let (events, _) = scenarios::cluster_events(shape, &cluster, None);
            let report = diagnose_events(shape.name, "sim", 32, &events);
            assert_eq!(
                ranked(&report),
                vec!["compute-bound"],
                "{} on {} must be clean",
                shape.name,
                cluster.label()
            );
        }
        for seed in 1u64..=8 {
            let events = chaos_events(seed, 1, |_| {});
            let report = diagnose_events(shape.name, "chaos", 4, &events);
            assert_eq!(
                ranked(&report),
                vec!["compute-bound"],
                "{} fault-free chaos seed {seed} must be clean",
                shape.name
            );
        }
    }
}

/// The gpusim-level ground truths: launch starvation, bandwidth
/// saturation, allocator churn and failed allocations each dominate the
/// ranking at every scenario size; large-GEMM streams stay healthy.
#[test]
fn device_level_scenarios_are_named_top1() {
    for i in 0..8usize {
        let launch = diagnose_events("sim", "sim", 32, &scenarios::launch_bound(1200 + 100 * i));
        assert_eq!(launch.top1().class, BottleneckClass::LaunchOverheadBound, "{i}");
        let membw = diagnose_events("sim", "sim", 32, &scenarios::memory_bound(120 + 20 * i));
        assert_eq!(membw.top1().class, BottleneckClass::MemoryBandwidthBound, "{i}");
        let healthy = diagnose_events("sim", "sim", 32, &scenarios::compute_bound(40 + 10 * i));
        assert_eq!(healthy.top1().class, BottleneckClass::ComputeBound, "{i}");
        assert_eq!(healthy.diagnoses.len(), 1, "{i}: healthy stream must stay clean");
        let thrash = diagnose_events("sim", "sim", 32, &scenarios::allocator_thrash(64 + 32 * i));
        assert_eq!(thrash.top1().class, BottleneckClass::AllocatorThrash, "{i}");
        let oom = diagnose_events("sim", "sim", 32, &scenarios::oom_pressure(1 + i));
        assert_eq!(oom.top1().class, BottleneckClass::OomPressure, "{i}");
    }
}

/// One chaos trace per thread count, cached for the determinism
/// properties below (seed 5, worker crashes — a recovery-heavy class).
fn crash_events(threads: usize) -> &'static TraceStore {
    static CACHE: [OnceLock<TraceStore>; 2] = [OnceLock::new(), OnceLock::new()];
    let slot = match threads {
        1 => &CACHE[0],
        4 => &CACHE[1],
        _ => panic!("cache covers threads 1 and 4"),
    };
    slot.get_or_init(|| chaos_events(5, threads, |s| s.crash_rate = 0.15))
}

/// The report digest is a pure function of the workload, not of the
/// executor's kernel thread cap.
#[test]
fn digest_is_bitwise_identical_across_thread_counts() {
    let one = diagnose_events("proxy", "chaos", 4, crash_events(1));
    let four = diagnose_events("proxy", "chaos", 4, crash_events(4));
    assert_eq!(one.top1().class, BottleneckClass::RecoveryOverhead);
    assert_eq!(one.digest_hex(), four.digest_hex(), "threads leaked into the diagnosis");
    assert_eq!(one.canonical(), four.canonical());
}

/// Events `start..end` of `events` copied row for row into a batch of
/// their own.
fn batch_of(events: &TraceStore, start: usize, end: usize) -> TraceStore {
    let mut batch = TraceStore::new();
    for e in events.iter().skip(start).take(end - start) {
        let name = batch.intern(e.name.to_string());
        let mut row = batch.span(name, e.layer, e.kind, e.start_us, e.dur_us).on_track(e.track);
        if !e.deterministic {
            row = row.wall_clock();
        }
        for (key, value) in e.args {
            row = row.with_arg(key, value.clone());
        }
    }
    batch
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Feeding the same events through a [`StreamingAggregator`] at *any*
    /// `record_batch` partition yields a registry — and therefore a
    /// diagnosis digest — bitwise equal to the post-hoc fold.
    #[test]
    fn digest_is_stable_across_record_batch_splits(
        raw_splits in prop::collection::vec(0usize..10_000, 0..9),
        threads_pick in 0usize..2,
    ) {
        let threads = [1, 4][threads_pick];
        let events = crash_events(threads);
        let posthoc = aggregate(events, &SamplingConfig::default());
        let baseline = diagnose_named("proxy", "chaos", 4, events, &posthoc);

        let agg = StreamingAggregator::shared();
        let recorder = TraceRecorder::shared_with_sink(agg.clone());
        let mut splits: Vec<usize> =
            raw_splits.iter().map(|&s| s % (events.len() + 1)).collect();
        splits.sort_unstable();
        splits.dedup();
        splits.push(events.len());
        let mut start = 0;
        for end in splits {
            if end > start {
                recorder.record_batch(batch_of(events, start, end));
                start = end;
            }
        }
        let streamed = diagnose_named("proxy", "chaos", 4, events, &agg.lock().unwrap().registry());
        prop_assert_eq!(streamed.digest_hex(), baseline.digest_hex());
        prop_assert_eq!(&streamed, &baseline);
    }
}

/// Degenerate traces never produce NaN/Inf confidences (the
/// `window_throughput` Option discipline, applied to every rule
/// denominator).
#[test]
fn degenerate_traces_are_guarded() {
    for events in [TraceStore::new(), {
        let mut solo = TraceStore::new();
        let name = solo.intern("solo");
        solo.span(name, tbd_graph::TraceLayer::Profiler, tbd_graph::EventKind::Phase, 0.0, 0.0);
        solo
    }] {
        let report = diagnose_events("degenerate", "sim", 1, &events);
        assert_eq!(report.top1().class, BottleneckClass::ComputeBound);
        for d in &report.diagnoses {
            assert!(d.confidence.is_finite(), "{:?}", d);
            assert!((0.0..=1.0).contains(&d.confidence), "{:?}", d);
        }
        assert!(report.iteration_us.is_finite());
    }
}
