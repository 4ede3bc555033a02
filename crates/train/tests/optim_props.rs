//! Bitwise oracles for the in-place optimizers.
//!
//! The references below are the allocating update compositions the fused
//! in-place loops replaced (`scale` → `add_scaled` → clone → `add_scaled`
//! per parameter), kept verbatim as oracles, with the AXPY kernel
//! `add_scaled` they were built from. Two sessions built from the
//! same seed train side by side — one stepped by the library optimizer, one
//! by its reference — and every parameter must agree bit for bit (compared
//! with `to_bits`) after every step: through dead-ReLU zero gradients,
//! subnormal gradients and optimizer state, `gen/`/`critic/` filtered steps
//! and WGAN weight clipping.

use std::collections::HashMap;

use proptest::prelude::*;
use tbd_graph::{Gradients, GraphBuilder, Init, NodeId, Session};
use tbd_tensor::{ops, Tensor};
use tbd_train::optim::clip_weights;
use tbd_train::{Adam, Momentum, Optimizer, Sgd};

fn param_name(session: &Session, id: NodeId) -> String {
    match &session.graph().node(id).op {
        tbd_graph::Op::Parameter { name } => name.clone(),
        _ => String::new(),
    }
}

fn updatable_params(
    session: &Session,
    grads: &Gradients,
    filter: &dyn Fn(&str) -> bool,
) -> Vec<(NodeId, Tensor)> {
    session
        .graph()
        .params()
        .iter()
        .map(|(id, _)| *id)
        .filter(|id| filter(&param_name(session, *id)))
        .filter_map(|id| grads.param_grad(id).map(|g| (id, g.clone())))
        .collect()
}

/// The allocating AXPY `a + s·b` the optimizers were composed from.
fn add_scaled(a: &Tensor, b: &Tensor, s: f32) -> tbd_tensor::Result<Tensor> {
    assert_eq!(a.shape(), b.shape(), "shapes match");
    let data = a.data().iter().zip(b.data()).map(|(&x, &y)| x + s * y).collect();
    Tensor::from_vec(data, a.shape().clone())
}

/// The allocating optimizers, one variant per library optimizer.
enum Reference {
    Sgd {
        lr: f32,
    },
    Momentum {
        lr: f32,
        momentum: f32,
        velocity: HashMap<usize, Tensor>,
    },
    Adam {
        lr: f32,
        beta1: f32,
        beta2: f32,
        eps: f32,
        t: i32,
        m: HashMap<usize, Tensor>,
        v: HashMap<usize, Tensor>,
    },
}

impl Reference {
    fn step_filtered(
        &mut self,
        session: &mut Session,
        grads: &Gradients,
        filter: &dyn Fn(&str) -> bool,
    ) {
        match self {
            Reference::Sgd { lr } => {
                for (id, grad) in updatable_params(session, grads, filter) {
                    if let Some(w) = session.param_mut(id) {
                        *w = add_scaled(w, &grad, -*lr).expect("shapes match");
                    }
                }
            }
            Reference::Momentum { lr, momentum, velocity } => {
                for (id, grad) in updatable_params(session, grads, filter) {
                    let v = velocity
                        .entry(id.index())
                        .or_insert_with(|| Tensor::zeros(grad.shape().clone()));
                    *v = add_scaled(&ops::scale(v, *momentum), &grad, 1.0).expect("shapes match");
                    let vc = v.clone();
                    if let Some(w) = session.param_mut(id) {
                        *w = add_scaled(w, &vc, -*lr).expect("shapes match");
                    }
                }
            }
            Reference::Adam { lr, beta1, beta2, eps, t, m, v } => {
                *t += 1;
                let bc1 = 1.0 - beta1.powi(*t);
                let bc2 = 1.0 - beta2.powi(*t);
                for (id, grad) in updatable_params(session, grads, filter) {
                    let m =
                        m.entry(id.index()).or_insert_with(|| Tensor::zeros(grad.shape().clone()));
                    *m = add_scaled(&ops::scale(m, *beta1), &grad, 1.0 - *beta1)
                        .expect("shapes match");
                    let g2 = ops::mul(&grad, &grad).expect("same shape");
                    let v =
                        v.entry(id.index()).or_insert_with(|| Tensor::zeros(grad.shape().clone()));
                    *v = add_scaled(&ops::scale(v, *beta2), &g2, 1.0 - *beta2)
                        .expect("shapes match");
                    let (mc, vc) = (m.clone(), v.clone());
                    let lr = *lr;
                    let (eps, bc1, bc2) = (*eps, bc1, bc2);
                    if let Some(w) = session.param_mut(id) {
                        let mut out = w.clone();
                        for i in 0..out.len() {
                            let mhat = mc.data()[i] / bc1;
                            let vhat = vc.data()[i] / bc2;
                            out.data_mut()[i] -= lr * mhat / (vhat.sqrt() + eps);
                        }
                        *w = out;
                    }
                }
            }
        }
    }
}

/// The allocating clamp `clip_weights` replaced.
fn clip_reference(session: &mut Session, c: f32, filter: &dyn Fn(&str) -> bool) {
    let ids: Vec<NodeId> = session
        .graph()
        .params()
        .iter()
        .map(|(id, _)| *id)
        .filter(|id| filter(&param_name(session, *id)))
        .collect();
    for id in ids {
        if let Some(w) = session.param_mut(id) {
            *w = w.map(|v| v.clamp(-c, c));
        }
    }
}

/// A two-layer `gen/` → `critic/` ReLU net. Half the input columns are
/// zero, so their first-layer weight rows get exact-zero gradients, and
/// dead ReLU units zero whole gradient columns.
fn build(seed: u64) -> (Session, NodeId, NodeId, NodeId) {
    let mut g = GraphBuilder::new();
    let x = g.input("x", [4, 6]);
    let w1 = g.parameter("gen/w1", [6, 8], Init::Xavier { fan_in: 6, fan_out: 8 });
    let b1 = g.parameter("gen/b1", [8], Init::Uniform { lo: -0.5, hi: 0.1 });
    let h = g.matmul(x, w1).unwrap();
    let h = g.add_bias(h, b1).unwrap();
    let h = g.relu(h).unwrap();
    let w2 = g.parameter("critic/w2", [8, 3], Init::Xavier { fan_in: 8, fan_out: 3 });
    let b2 = g.parameter("critic/b2", [3], Init::Zeros);
    let logits = g.matmul(h, w2).unwrap();
    let logits = g.add_bias(logits, b2).unwrap();
    let t = g.input("t", [4]);
    let loss = g.cross_entropy(logits, t).unwrap();
    (Session::new(g.finish(), seed), x, t, loss)
}

/// Step `step`'s feeds: inputs of magnitude `scale` (a subnormal `scale`
/// makes subnormal gradients and optimizer state; zero makes every
/// first-layer weight gradient exactly zero), odd columns zero.
fn feeds(x: NodeId, t: NodeId, seed: u64, step: u64, scale: f32) -> Vec<(NodeId, Tensor)> {
    let mut s = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ step.wrapping_add(1);
    let xs = Tensor::from_fn([4, 6], |i| {
        s ^= s << 13;
        s ^= s >> 7;
        s ^= s << 17;
        let v = ((s >> 40) % 2001) as f32 / 1000.0 - 1.0;
        if i % 2 == 1 {
            0.0
        } else {
            v * scale
        }
    });
    let ts = Tensor::from_fn([4], |i| ((step + i as u64) % 3) as f32);
    vec![(x, xs), (t, ts)]
}

fn bits(session: &Session) -> Vec<Vec<u32>> {
    session.snapshot().iter().map(|(_, t)| t.data().iter().map(|v| v.to_bits()).collect()).collect()
}

/// Which parameters a step updates: all of them, or alternately `gen/`
/// and `critic/` with the critic clipped after its step (WGAN).
#[derive(Clone, Copy)]
enum Schedule {
    All,
    Alternate { clip: f32 },
}

/// Trains the library optimizer and its reference side by side for
/// `steps` steps, feeding step `k` inputs of magnitude `scale(k)`, and
/// asserts bitwise-equal parameters after every step.
fn check(
    opt: &mut dyn Optimizer,
    reference: &mut Reference,
    schedule: Schedule,
    seed: u64,
    steps: u64,
    scale: impl Fn(u64) -> f32,
) {
    let (mut fast, x, t, loss) = build(seed);
    let (mut slow, ..) = build(seed);
    let gen = |name: &str| name.starts_with("gen/");
    let critic = |name: &str| name.starts_with("critic/");
    for step in 0..steps {
        let batch = feeds(x, t, seed, step, scale(step));
        let grads = [&mut fast, &mut slow].map(|session| {
            let run = session.forward(&batch).unwrap();
            session.backward(&run, loss, Tensor::scalar(1.0)).unwrap()
        });
        match schedule {
            Schedule::All => {
                opt.step(&mut fast, &grads[0]);
                reference.step_filtered(&mut slow, &grads[1], &|_| true);
            }
            Schedule::Alternate { clip } => {
                let filter: &dyn Fn(&str) -> bool = if step % 2 == 0 { &gen } else { &critic };
                opt.step_filtered(&mut fast, &grads[0], filter);
                reference.step_filtered(&mut slow, &grads[1], filter);
                if step % 2 == 1 {
                    clip_weights(&mut fast, clip, &critic);
                    clip_reference(&mut slow, clip, &critic);
                }
            }
        }
        assert_eq!(bits(&fast), bits(&slow), "step {step} scale {:e}", scale(step));
    }
}

const SCALES: [f32; 3] = [1.0, 1e-30, 1e-39];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// In-place SGD is bitwise the allocating `w + (-lr)·g`.
    #[test]
    fn sgd_matches_reference_bitwise(
        seed in 0u64..u64::MAX,
        lr in 0.001f32..0.5,
        scale in 0usize..3,
        alternate in 0u8..2,
    ) {
        let schedule =
            if alternate == 1 { Schedule::Alternate { clip: 0.3 } } else { Schedule::All };
        check(&mut Sgd::new(lr), &mut Reference::Sgd { lr }, schedule, seed, 12, |_| SCALES[scale]);
    }

    /// Fused in-place momentum is bitwise `v·μ + 1.0·g` then `w + (-lr)·v`,
    /// including momenta small enough to decay zero-gradient velocities
    /// into subnormals within the run.
    #[test]
    fn momentum_matches_reference_bitwise(
        seed in 0u64..u64::MAX,
        lr in 0.001f32..0.5,
        momentum in 0.0f32..0.99,
        scale in 0usize..3,
        alternate in 0u8..2,
    ) {
        let schedule =
            if alternate == 1 { Schedule::Alternate { clip: 0.3 } } else { Schedule::All };
        let reference = &mut Reference::Momentum { lr, momentum, velocity: HashMap::new() };
        check(&mut Momentum::new(lr, momentum), reference, schedule, seed, 24, |_| SCALES[scale]);
    }

    /// Fused in-place Adam is bitwise the allocating moment updates and
    /// bias-corrected step, with `t` advancing on filtered steps too.
    #[test]
    fn adam_matches_reference_bitwise(
        seed in 0u64..u64::MAX,
        lr in 0.0001f32..0.1,
        scale in 0usize..3,
        alternate in 0u8..2,
    ) {
        let schedule =
            if alternate == 1 { Schedule::Alternate { clip: 0.05 } } else { Schedule::All };
        let opt = Adam::new(lr);
        let reference = &mut Reference::Adam {
            lr,
            beta1: opt.beta1,
            beta2: opt.beta2,
            eps: opt.eps,
            t: 0,
            m: HashMap::new(),
            v: HashMap::new(),
        };
        check(&mut { opt }, reference, schedule, seed, 16, |_| SCALES[scale]);
    }
}

/// Four live steps, then zero inputs: every first-layer velocity decays by
/// μ = 0.05 per step through the subnormal range to zero, with the weight
/// update still applied at every step.
#[test]
fn momentum_decays_through_subnormals_bitwise() {
    for seed in [7, 8] {
        let reference =
            &mut Reference::Momentum { lr: 0.1, momentum: 0.05, velocity: HashMap::new() };
        let live = |step| if step < 4 { 1.0 } else { 0.0 };
        check(&mut Momentum::new(0.1, 0.05), reference, Schedule::All, seed, 48, live);
    }
}
