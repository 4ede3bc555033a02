//! Differential framework test (paper §3.2).
//!
//! The paper's central setup constraint is that each workload is "the same
//! model" across TensorFlow, MXNet and CNTK — differences in the profiles
//! must come from the runtimes, not the math. This test enforces both
//! halves at once: one small model executed under all three framework
//! host profiles produces **bitwise identical** final losses and
//! gradients, while the captured traces visibly differ in the
//! runtime-owned spans (kernel-launch overhead, sync gaps, input-pipeline
//! overlap).

use tbd_core::{Framework, GpuSpec, ModelKind};
use tbd_graph::Session;
use tbd_models::resnet::ResNetConfig;
use tbd_profiler::trace::{value_hash, EventKind, TraceLayer};
use tbd_profiler::{capture, TraceOptions};
use tbd_tensor::Tensor;

fn frameworks() -> [Framework; 3] {
    [Framework::tensorflow(), Framework::mxnet(), Framework::cntk()]
}

/// One functional training step of tiny ResNet under a framework's host
/// threading profile; returns (loss bits, gradient hash).
fn functional_step(framework: &Framework) -> (u32, u64) {
    let model = ResNetConfig::tiny().build(2).expect("tiny resnet builds");
    let images = model.input("images").expect("images input");
    let labels = model.input("labels").expect("labels input");
    let image_shape = model.graph.node(images).shape.clone();
    let feeds = vec![
        (images, Tensor::from_fn(image_shape, |i| ((i * 7 % 23) as f32 - 11.0) * 0.01)),
        (labels, Tensor::from_fn([2], |i| (i % 2) as f32)),
    ];
    let loss = model.loss();
    let mut session = Session::with_exec(model.graph, 7, framework.host_threading());
    let run = session.forward(&feeds).expect("forward");
    let loss_bits = run.scalar(loss).expect("loss").to_bits();
    let grads = session.backward(&run, loss, Tensor::scalar(1.0)).expect("backward");
    let (first_param, _) = session.graph().params()[0];
    let grad = grads.param_grad(first_param).expect("gradient of first parameter");
    (loss_bits, value_hash(grad.data()))
}

#[test]
fn same_model_same_math_across_all_three_frameworks() {
    let results: Vec<(u32, u64)> = frameworks().iter().map(functional_step).collect();
    let (loss_bits, grad_hash) = results[0];
    assert!(f32::from_bits(loss_bits).is_finite());
    for (i, &(l, g)) in results.iter().enumerate() {
        assert_eq!(l, loss_bits, "framework #{i}: loss must be bitwise identical");
        assert_eq!(g, grad_hash, "framework #{i}: gradients must be bitwise identical");
    }
}

#[test]
fn runtime_spans_distinguish_the_frameworks() {
    let gpu = GpuSpec::quadro_p4000();
    let options = TraceOptions::default();
    let captures: Vec<_> = frameworks()
        .into_iter()
        .map(|fw| capture(ModelKind::ResNet50, fw, 4, &gpu, &options).expect("capture"))
        .collect();

    // Same model, different runtimes: every pair of traces diverges.
    for i in 0..captures.len() {
        for j in i + 1..captures.len() {
            assert_ne!(
                captures[i].trace.digest_hex(),
                captures[j].trace.digest_hex(),
                "{} vs {} traces must differ",
                captures[i].trace.framework,
                captures[j].trace.framework
            );
        }
    }

    // The divergence is in runtime-owned spans. Launch overhead: CNTK's
    // per-kernel launch cost (5 us) exceeds TensorFlow's (4 us).
    let avg_launch = |cap: &tbd_profiler::Capture| {
        let launches: Vec<f64> = cap
            .trace
            .layer_events(TraceLayer::GpuSim)
            .filter(|e| e.kind == EventKind::KernelLaunch)
            .map(|e| e.dur_us)
            .collect();
        assert!(!launches.is_empty(), "{}: no launch spans", cap.trace.framework);
        launches.iter().sum::<f64>() / launches.len() as f64
    };
    let tf_launch = avg_launch(&captures[0]);
    let cntk_launch = avg_launch(&captures[2]);
    assert!(
        cntk_launch > tf_launch,
        "CNTK launch overhead ({cntk_launch:.3} us) must exceed TensorFlow's ({tf_launch:.3} us)"
    );

    // Input-pipeline overlap: the exposed (non-overlapped) pipeline span
    // grows as overlap shrinks (TF 0.95 > MXNet 0.93 > CNTK 0.90).
    let exposed = |cap: &tbd_profiler::Capture| {
        cap.trace
            .layer_events(TraceLayer::GpuSim)
            .find(|e| e.name.contains("input pipeline"))
            .map(|e| e.dur_us)
            .expect("exposed-pipeline span present")
    };
    let (tf, mx, ck) = (exposed(&captures[0]), exposed(&captures[1]), exposed(&captures[2]));
    assert!(
        tf < mx && mx < ck,
        "exposed pipeline must order TF {tf:.1} < MXNet {mx:.1} < CNTK {ck:.1}"
    );
}
