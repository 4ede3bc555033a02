//! Acceptance tests for the chaos harness (`DESIGN.md` §5f): replay-exact
//! recovery is bitwise identical and digest-stable across intra-op thread
//! counts, OOM degradation re-plans an infeasible batch until it fits, and
//! the CLI's pinned golden baseline stays reachable.

use tbd_core::{ChaosReport, FaultPreset, Framework, GpuSpec, ModelKind};
use tbd_graph::{GraphBuilder, Init, NodeId, Session};
use tbd_profiler::json::Canonical;
use tbd_tensor::Tensor;
use tbd_train::{
    DegradationLadder, FaultSpec, ReplayExactPolicy, ResilienceConfig, ResilientTrainer, Sgd,
};

/// The CI invocation: `tbd chaos resnet-50 --seed 7 --check ...` — CLI
/// defaults are largest paper batch (32), 20 steps, mild faults,
/// replay-exact policy, the first framework supporting the model
/// (TensorFlow) and one intra-op thread.
fn ci_report(threads: usize) -> ChaosReport {
    ChaosReport::run(
        ModelKind::ResNet50,
        Framework::tensorflow(),
        32,
        &GpuSpec::quadro_p4000(),
        7,
        20,
        FaultPreset::Mild,
        true,
        threads,
    )
    .expect("chaos run completes")
}

/// The headline invariant: a faulted run under the replay-exact policy
/// finishes bitwise identical to its fault-free twin, and the whole report
/// digests identically across `intra_op_threads` 1 and 4.
#[test]
fn replay_exact_report_is_digest_stable_across_thread_counts() {
    let one = ci_report(1);
    assert!(one.faults_injected > 0, "the mild schedule at seed 7 must fault");
    assert!(one.replay_exact, "faulted params must match the fault-free twin");
    assert_eq!(one.param_hash, one.fault_free_hash);
    let four = ci_report(4);
    assert_eq!(one.digest_hex(), four.digest_hex(), "digest must not depend on threads");
    assert_eq!(one, four, "every report field must be thread-invariant");
}

/// An infeasible batch (ResNet-50 at 64 OOMs at baseline on the P4000 —
/// Observation 11) must complete through memopt re-planning: the run never
/// aborts and the chosen plan's footprint fits the device.
#[test]
fn oom_degradation_replans_until_the_footprint_fits() {
    let mut g = GraphBuilder::new();
    let x = g.input("x", [4, 8]);
    let w = g.parameter("fc/w", [8, 4], Init::Xavier { fan_in: 8, fan_out: 4 });
    let logits = g.matmul(x, w).unwrap();
    let t = g.input("t", [4]);
    let loss = g.cross_entropy(logits, t).unwrap();
    let session = Session::new(g.finish(), 1);

    let gpu = GpuSpec::quadro_p4000();
    let mut spec = FaultSpec::none(13);
    spec.oom_rate = 0.5; // OOM faults fire often; everything else is off.
    let mut cfg = ResilienceConfig::with_faults(spec);
    cfg.ladder = Some(DegradationLadder {
        kind: ModelKind::ResNet50,
        framework: Framework::mxnet(),
        gpu: gpu.clone(),
        batch: 64,
    });
    let feeds = feeds_for(x, t);
    let mut trainer =
        ResilientTrainer::new(session, loss, Sgd::new(0.1), cfg, ReplayExactPolicy::default());
    let out = trainer.run(16, feeds, None).expect("the loop never aborts on injected OOM");

    assert_eq!(out.useful_steps, 16, "every step completes despite OOM faults");
    let plan = out.degraded.expect("an OOM fault must have triggered re-planning");
    assert!(
        plan.profile.total_bytes <= gpu.memory_bytes,
        "chosen footprint {} must fit capacity {}",
        plan.profile.total_bytes,
        gpu.memory_bytes
    );
    assert!(plan.rungs_tried > 1, "batch 64 OOMs at baseline, so a later rung must fit");
}

fn feeds_for(x: NodeId, t: NodeId) -> impl Fn(u64) -> Vec<(NodeId, Tensor)> {
    move |step| {
        let xs: Vec<f32> =
            (0..32u64).map(|i| tbd_distrib::unit(99, 77, step * 64 + i) as f32 - 0.5).collect();
        let ts: Vec<f32> = (0..4u64).map(|i| ((step + i) % 4) as f32).collect();
        vec![(x, Tensor::from_vec(xs, [4, 8]).unwrap()), (t, Tensor::from_slice(&ts))]
    }
}

/// The pinned golden baseline the CI `chaos` job gates on must stay
/// reachable: a fresh run with the CI parameters parses it, passes the
/// drift gate and reproduces its digest exactly.
#[test]
fn golden_chaos_baseline_is_reproduced() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../tests/golden/chaos-baseline.json");
    let text = std::fs::read_to_string(path).expect("pinned baseline exists");
    let baseline = ChaosReport::from_json_text(&text).expect("baseline parses");
    let fresh = ci_report(1);
    fresh.check_drift(&baseline).expect("deterministic run matches the pinned baseline");
    assert_eq!(fresh.digest_hex(), baseline.digest_hex(), "bit-stable report digest");
    assert!(baseline.replay_exact, "the pinned baseline records a replay-exact run");
}
