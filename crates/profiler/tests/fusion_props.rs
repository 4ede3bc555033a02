//! Fusion-equivalence property tests (ISSUE 6, satellite c).
//!
//! The speed tier must be a pure scheduling optimisation: installing a
//! fusion plan changes how many kernels the executor launches and how the
//! waves are built, but every node value and every parameter gradient must
//! stay **bitwise** identical to the eager tier at f32. This holds across
//! all eight paper workloads and across intra-op thread counts, because
//! the tensor kernels split reductions deterministically (fixed chunking,
//! not work-stealing) — see `tbd_tensor::par`.

use tbd_graph::trace::value_hash;
use tbd_graph::{ArgValue, EventKind, EventRef, FusionPlan, NodeId, Session, TraceRecorder};
use tbd_models::ModelKind;
use tbd_profiler::trace::{build_tiny, synthetic_feeds};
use tbd_tensor::Tensor;

/// Runs one forward+backward at the given intra-op width and returns
/// `(per-node output hashes, per-node gradient hashes)`; `None` marks
/// nodes the pass did not reach (unused outputs, no-grad nodes).
fn run_hashes(kind: ModelKind, fuse: bool, threads: usize) -> (Vec<Option<u64>>, Vec<Option<u64>>) {
    let model = build_tiny(kind).expect("tiny model builds");
    let feeds = synthetic_feeds(&model);
    let loss = model.loss();
    let exec = tbd_graph::ExecConfig { intra_op_threads: threads, inter_op_parallel: true };
    let mut session = Session::with_exec(model.graph, 42, exec);
    session.set_fusion_enabled(fuse);
    let run = session.forward(&feeds).expect("forward succeeds");
    let grads = session.backward(&run, loss, Tensor::scalar(1.0)).expect("backward succeeds");
    let n = session.graph().len();
    let values =
        (0..n).map(|i| run.value(NodeId::from_index(i)).map(|t| value_hash(t.data()))).collect();
    let grad_hashes = (0..n)
        .map(|i| {
            let id = NodeId::from_index(i);
            match session.graph().node(id).op {
                tbd_graph::Op::Parameter { .. } => {
                    grads.param_grad(id).map(|t| value_hash(t.data()))
                }
                _ => None,
            }
        })
        .collect();
    // Restore the process-wide intra-op cap for other tests in this binary.
    tbd_tensor::par::set_max_threads(0);
    (values, grad_hashes)
}

/// Satellite (c): fused execution is bitwise-identical to unfused at f32
/// across all 8 models × intra-op threads 1 and 4 — node outputs AND
/// parameter gradients.
#[test]
fn fused_matches_unfused_bitwise_across_all_models_and_thread_counts() {
    for kind in ModelKind::ALL {
        let (base_vals, base_grads) = run_hashes(kind, false, 1);
        assert!(base_vals.iter().any(Option::is_some), "{kind:?}: forward pass computed no values");
        assert!(
            base_grads.iter().any(Option::is_some),
            "{kind:?}: backward pass produced no parameter gradients"
        );
        for (fuse, threads) in [(false, 4), (true, 1), (true, 4)] {
            let (vals, grads) = run_hashes(kind, fuse, threads);
            assert_eq!(
                base_vals, vals,
                "{kind:?}: node outputs diverge at fuse={fuse} threads={threads}"
            );
            assert_eq!(
                base_grads, grads,
                "{kind:?}: parameter gradients diverge at fuse={fuse} threads={threads}"
            );
        }
    }
}

/// `(unit, wave, track)` of one forward `NodeExec` span; the unit is the
/// node, or a fusion group's anchor.
type Slot = (usize, u64, u32);

fn unit_of(plan: Option<&FusionPlan>, i: usize) -> usize {
    plan.and_then(|p| p.group_of(NodeId::from_index(i)).map(|g| p.groups()[g].anchor().index()))
        .unwrap_or(i)
}

/// Runs one traced forward pass; returns its spans' slots and every
/// event's canonical line.
fn forward_slots(
    kind: ModelKind,
    fuse: bool,
    inter_op: bool,
    threads: usize,
) -> (Vec<Slot>, Vec<String>) {
    let model = build_tiny(kind).expect("tiny model builds");
    let feeds = synthetic_feeds(&model);
    let exec = tbd_graph::ExecConfig { intra_op_threads: threads, inter_op_parallel: inter_op };
    let mut session = Session::with_exec(model.graph, 42, exec);
    session.set_fusion_enabled(fuse);
    let tracer = TraceRecorder::shared();
    session.set_tracer(Some(std::sync::Arc::clone(&tracer)));
    session.forward(&feeds).expect("forward succeeds");
    tbd_tensor::par::set_max_threads(0);
    let plan = session.fusion().map(|p| &**p);
    let arg = |e: EventRef<'_>, key: &str| match e.args.iter().find(|(k, _)| *k == key) {
        Some((_, ArgValue::U64(v))) => *v,
        other => panic!("{kind:?}: span {} has no integer `{key}` arg: {other:?}", e.name),
    };
    let events = tracer.drain();
    let slots = events
        .iter()
        .filter(|e| e.kind == EventKind::NodeExec)
        .map(|e| (unit_of(plan, arg(e, "node") as usize), arg(e, "wave"), e.track))
        .collect();
    (slots, events.iter().map(|e| e.canonical()).collect())
}

/// The slots the schedule rules predict: one per scheduling unit. A
/// sequential pass runs one unit per wave labelled with the unit's node
/// index; an inter-op pass puts leaves in wave 0 and every other unit one
/// wave after its latest external input. `track` is the unit's rank within
/// its wave, and spans come in (wave, track) order.
fn predicted_slots(kind: ModelKind, fuse: bool, inter_op: bool) -> Vec<Slot> {
    let graph = build_tiny(kind).expect("tiny model builds").graph;
    let plan = fuse.then(|| FusionPlan::analyze(&graph));
    let unit = |i: usize| unit_of(plan.as_ref(), i);
    let mut wave = vec![0u64; graph.len()];
    for i in 0..graph.len() {
        for input in &graph.node(NodeId::from_index(i)).inputs {
            let producer = unit(input.index());
            if producer != unit(i) {
                wave[unit(i)] = wave[unit(i)].max(wave[producer] + 1);
            }
        }
    }
    let mut units: Vec<(u64, usize)> = (0..graph.len())
        .filter(|&i| unit(i) == i)
        .map(|i| (if inter_op { wave[i] } else { i as u64 }, i))
        .collect();
    units.sort_unstable();
    let mut slots: Vec<Slot> = Vec::with_capacity(units.len());
    for (w, u) in units {
        let track = match slots.last() {
            Some(&(_, last_wave, last_track)) if last_wave == w => last_track + 1,
            _ => 0,
        };
        slots.push((u, w, track));
    }
    slots
}

/// Every forward span follows the schedule rules in every mode — all 8
/// models × fuse on/off × inter-op on/off — and the canonical lines do
/// not depend on the intra-op thread count.
#[test]
fn forward_waves_follow_the_schedule_rules_for_every_mode() {
    for kind in ModelKind::ALL {
        for fuse in [false, true] {
            for inter_op in [false, true] {
                let mode = format!("{kind:?} fuse={fuse} inter_op={inter_op}");
                let (slots, canonical) = forward_slots(kind, fuse, inter_op, 1);
                let (slots_4, canonical_4) = forward_slots(kind, fuse, inter_op, 4);
                assert_eq!(canonical, canonical_4, "{mode}: canonical lines differ at 1 vs 4");
                assert_eq!(slots, slots_4, "{mode}: schedule differs at 1 vs 4 threads");
                assert_eq!(
                    slots,
                    predicted_slots(kind, fuse, inter_op),
                    "{mode}: forward spans break the schedule rules"
                );
            }
        }
    }
}
