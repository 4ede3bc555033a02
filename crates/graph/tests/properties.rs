//! Property-based tests over graph construction, autodiff and lowering.

use proptest::prelude::*;
use tbd_graph::lower::{lower_training_iteration, memory_footprint};
use tbd_graph::{GraphBuilder, Init, KernelClass, Phase, Session};
use tbd_tensor::Tensor;

/// Builds a random MLP: `depth` dense+activation layers over `width`-wide
/// hidden states, ending in a cross-entropy loss.
fn random_mlp(
    depth: usize,
    width: usize,
    acts: &[u8],
) -> (
    tbd_graph::Graph,
    tbd_graph::NodeId,
    tbd_graph::NodeId,
    tbd_graph::NodeId,
    Vec<tbd_graph::NodeId>,
) {
    let batch = 3;
    let mut g = GraphBuilder::new();
    let x = g.input("x", [batch, width]);
    let mut h = x;
    let mut params = Vec::new();
    for layer in 0..depth {
        let w = g.parameter(
            &format!("w{layer}"),
            [width, width],
            Init::Xavier { fan_in: width, fan_out: width },
        );
        let b = g.parameter(&format!("b{layer}"), [width], Init::Zeros);
        params.push(w);
        params.push(b);
        h = g.matmul(h, w).unwrap();
        h = g.add_bias(h, b).unwrap();
        h = match acts.get(layer).copied().unwrap_or(0) % 3 {
            0 => g.relu(h).unwrap(),
            1 => g.tanh(h).unwrap(),
            _ => g.sigmoid(h).unwrap(),
        };
    }
    let t = g.input("t", [batch]);
    let loss = g.cross_entropy(h, t).unwrap();
    (g.finish(), x, t, loss, params)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Autodiff gradients of random MLPs match finite differences.
    ///
    /// Activations are restricted to the smooth ones (tanh/sigmoid):
    /// central differences across a ReLU kink measure the wrong one-sided
    /// slope whenever a pre-activation sits within ±ε of zero, which is a
    /// property of finite differencing, not of the autodiff under test
    /// (ReLU gradients are covered by the exact kernel-level tests).
    #[test]
    fn random_mlp_gradients_match_finite_differences(
        depth in 1usize..4,
        width in 2usize..5,
        acts in prop::collection::vec(1u8..3, 4),
        seed in 0u64..1000,
    ) {
        let (graph, x, t, loss, params) = random_mlp(depth, width, &acts);
        let mut session = Session::new(graph, seed);
        let xt = Tensor::from_fn([3, width], |i| ((i * 7 + 3) % 11) as f32 * 0.1 - 0.5);
        let tt = Tensor::from_fn([3], |i| (i % width) as f32);
        let run = session.forward(&[(x, xt.clone()), (t, tt.clone())]).unwrap();
        let grads = session.backward(&run, loss, Tensor::scalar(1.0)).unwrap();
        // Check a few coordinates of the first weight matrix.
        let w0 = params[0];
        let analytic = grads.param_grad(w0).unwrap().clone();
        let eps = 1e-2f32;
        let orig = session.param(w0).unwrap().clone();
        for i in (0..orig.len()).step_by(orig.len().max(1) / 3 + 1) {
            let mut up = orig.clone();
            up.data_mut()[i] += eps;
            *session.param_mut(w0).unwrap() = up;
            let lp = session.forward(&[(x, xt.clone()), (t, tt.clone())]).unwrap().scalar(loss).unwrap();
            let mut dn = orig.clone();
            dn.data_mut()[i] -= eps;
            *session.param_mut(w0).unwrap() = dn;
            let lm = session.forward(&[(x, xt.clone()), (t, tt.clone())]).unwrap().scalar(loss).unwrap();
            *session.param_mut(w0).unwrap() = orig.clone();
            let fd = (lp - lm) / (2.0 * eps);
            prop_assert!(
                (fd - analytic.data()[i]).abs() < 2e-2,
                "coord {i}: fd {fd} vs analytic {}", analytic.data()[i]
            );
        }
    }

    /// Lowering invariants: every kernel has non-negative cost, forward
    /// kernels precede backward kernels, and the footprint is consistent.
    #[test]
    fn lowering_invariants(depth in 1usize..5, width in 2usize..8, acts in prop::collection::vec(0u8..3, 5)) {
        let (graph, _, _, _, _) = random_mlp(depth, width, &acts);
        let stream = lower_training_iteration(&graph, None);
        prop_assert!(!stream.is_empty());
        let mut seen_backward = false;
        for k in &stream {
            prop_assert!(k.spec.flops >= 0.0 && k.spec.bytes >= 0.0);
            match k.phase {
                Phase::Forward => prop_assert!(!seen_backward, "forward after backward"),
                Phase::Backward => seen_backward = true,
                Phase::Update => {}
            }
        }
        // Every dense layer contributes 1 forward GEMM and ≥1 backward GEMM.
        let fwd_gemm = stream
            .iter()
            .filter(|k| k.phase == Phase::Forward && k.spec.class == KernelClass::Gemm)
            .count();
        prop_assert_eq!(fwd_gemm, depth);
        let fp = memory_footprint(&graph);
        prop_assert_eq!(fp.weights, fp.weight_grads);
        prop_assert!(fp.feature_maps > 0);
        prop_assert!(fp.total() >= fp.weights + fp.feature_maps);
    }

    /// Session forward is deterministic for a fixed seed and feeds
    /// (dropout-free graphs).
    #[test]
    fn forward_is_deterministic(width in 2usize..6, seed in 0u64..50) {
        let (graph, x, t, loss, _) = random_mlp(2, width, &[0, 1]);
        let graph2 = graph.clone();
        let mut s1 = Session::new(graph, seed);
        let mut s2 = Session::new(graph2, seed);
        let xt = Tensor::from_fn([3, width], |i| (i as f32 * 0.31).sin());
        let tt = Tensor::zeros([3]);
        let l1 = s1.forward(&[(x, xt.clone()), (t, tt.clone())]).unwrap().scalar(loss).unwrap();
        let l2 = s2.forward(&[(x, xt), (t, tt)]).unwrap().scalar(loss).unwrap();
        prop_assert_eq!(l1, l2);
    }

    /// Snapshot round-trips restore exact behaviour.
    #[test]
    fn snapshot_round_trip(width in 2usize..6, seed_a in 0u64..50, seed_b in 50u64..100) {
        let (graph, x, t, loss, _) = random_mlp(2, width, &[2, 0]);
        let graph2 = graph.clone();
        let mut donor = Session::new(graph, seed_a);
        let mut receiver = Session::new(graph2, seed_b);
        receiver.load_snapshot(&donor.snapshot());
        let xt = Tensor::from_fn([3, width], |i| (i as f32 * 0.17).cos());
        let tt = Tensor::zeros([3]);
        let la = donor.forward(&[(x, xt.clone()), (t, tt.clone())]).unwrap().scalar(loss).unwrap();
        let lb = receiver.forward(&[(x, xt), (t, tt)]).unwrap().scalar(loss).unwrap();
        prop_assert_eq!(la, lb);
    }
}
