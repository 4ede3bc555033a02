//! Optimizers over graph sessions.

use std::collections::HashMap;
use tbd_graph::{Gradients, NodeId, Session};
use tbd_tensor::Tensor;

/// An optimizer that applies parameter updates to a [`Session`].
///
/// `step` visits every parameter with a gradient; `step_filtered` restricts
/// updates to parameters whose name satisfies a predicate (WGAN alternates
/// between `gen/…` and `critic/…`).
pub trait Optimizer {
    /// Applies one update from `grads` to every parameter of `session`.
    fn step(&mut self, session: &mut Session, grads: &Gradients) {
        self.step_filtered(session, grads, &|_| true);
    }

    /// Applies one update to parameters whose name passes `filter`.
    fn step_filtered(
        &mut self,
        session: &mut Session,
        grads: &Gradients,
        filter: &dyn Fn(&str) -> bool,
    );
}

fn param_name(session: &Session, id: NodeId) -> &str {
    match &session.graph().node(id).op {
        tbd_graph::Op::Parameter { name } => name,
        _ => "",
    }
}

/// Calls `update(id, weight, grad)` in place for every parameter that passes
/// `filter` and has a gradient, in graph order. The gradient is borrowed
/// from `grads`, never copied.
///
/// # Panics
///
/// Panics when a gradient's shape differs from its parameter's.
fn update_params(
    session: &mut Session,
    grads: &Gradients,
    filter: &dyn Fn(&str) -> bool,
    mut update: impl FnMut(NodeId, &mut Tensor, &Tensor),
) {
    for k in 0..session.graph().params().len() {
        let id = session.graph().params()[k].0;
        if !filter(param_name(session, id)) {
            continue;
        }
        let Some(grad) = grads.param_grad(id) else { continue };
        let w = session.param_mut(id).expect("every graph parameter holds a value");
        assert_eq!(w.shape(), grad.shape(), "gradient shape must match its parameter");
        update(id, w, grad);
    }
}

/// The AXPY weight update `w ← w + s·g`, in place (`w` and `g` have equal
/// shapes).
pub(crate) fn axpy(w: &mut Tensor, g: &Tensor, s: f32) {
    for (w, &g) in w.data_mut().iter_mut().zip(g.data()) {
        *w += s * g;
    }
}

/// Optimizer state of one parameter: a zero tensor of the gradient's shape
/// on first use.
fn state_for<'a>(
    state: &'a mut HashMap<usize, Tensor>,
    id: NodeId,
    grad: &Tensor,
) -> &'a mut [f32] {
    state.entry(id.index()).or_insert_with(|| Tensor::zeros(grad.shape().clone())).data_mut()
}

/// Plain stochastic gradient descent: `w ← w − lr·g`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sgd {
    /// Learning rate.
    pub lr: f32,
}

impl Sgd {
    /// Creates plain SGD with the given learning rate.
    pub fn new(lr: f32) -> Self {
        Sgd { lr }
    }
}

impl Optimizer for Sgd {
    fn step_filtered(
        &mut self,
        session: &mut Session,
        grads: &Gradients,
        filter: &dyn Fn(&str) -> bool,
    ) {
        update_params(session, grads, filter, |_, w, grad| axpy(w, grad, -self.lr));
    }
}

/// SGD with classical momentum: `v ← μv + g; w ← w − lr·v` — the optimizer
/// all three frameworks use for the paper's CNN workloads.
#[derive(Debug, Clone)]
pub struct Momentum {
    /// Learning rate.
    pub lr: f32,
    /// Momentum coefficient μ.
    pub momentum: f32,
    velocity: HashMap<usize, Tensor>,
}

impl Momentum {
    /// Creates momentum SGD.
    pub fn new(lr: f32, momentum: f32) -> Self {
        Momentum { lr, momentum, velocity: HashMap::new() }
    }
}

impl Optimizer for Momentum {
    fn step_filtered(
        &mut self,
        session: &mut Session,
        grads: &Gradients,
        filter: &dyn Fn(&str) -> bool,
    ) {
        let (lr, mu) = (self.lr, self.momentum);
        update_params(session, grads, filter, |id, w, grad| {
            let v = state_for(&mut self.velocity, id, grad);
            for ((v, &g), w) in v.iter_mut().zip(grad.data()).zip(w.data_mut()) {
                *v = *v * mu + 1.0 * g;
                *w += -lr * *v;
            }
        });
    }
}

/// Adam (Kingma & Ba), used by the paper's Transformer and GAN workloads.
#[derive(Debug, Clone)]
pub struct Adam {
    /// Learning rate.
    pub lr: f32,
    /// First-moment decay.
    pub beta1: f32,
    /// Second-moment decay.
    pub beta2: f32,
    /// Numerical floor.
    pub eps: f32,
    t: i32,
    m: HashMap<usize, Tensor>,
    v: HashMap<usize, Tensor>,
}

impl Adam {
    /// Creates Adam with standard betas (0.9, 0.999).
    pub fn new(lr: f32) -> Self {
        Adam { lr, beta1: 0.9, beta2: 0.999, eps: 1e-8, t: 0, m: HashMap::new(), v: HashMap::new() }
    }
}

impl Optimizer for Adam {
    fn step_filtered(
        &mut self,
        session: &mut Session,
        grads: &Gradients,
        filter: &dyn Fn(&str) -> bool,
    ) {
        self.t += 1;
        let bc1 = 1.0 - self.beta1.powi(self.t);
        let bc2 = 1.0 - self.beta2.powi(self.t);
        let (lr, beta1, beta2, eps) = (self.lr, self.beta1, self.beta2, self.eps);
        let (m_state, v_state) = (&mut self.m, &mut self.v);
        update_params(session, grads, filter, |id, w, grad| {
            let m = state_for(m_state, id, grad);
            let v = state_for(v_state, id, grad);
            let terms = m.iter_mut().zip(v.iter_mut()).zip(grad.data()).zip(w.data_mut());
            for (((m, v), &g), w) in terms {
                *m = *m * beta1 + (1.0 - beta1) * g;
                *v = *v * beta2 + (1.0 - beta2) * (g * g);
                let mhat = *m / bc1;
                let vhat = *v / bc2;
                *w -= lr * mhat / (vhat.sqrt() + eps);
            }
        });
    }
}

/// Clamps every parameter passing `filter` into `[-c, c]` in place — the
/// WGAN Lipschitz weight-clipping rule applied to the critic after each
/// update.
pub fn clip_weights(session: &mut Session, c: f32, filter: &dyn Fn(&str) -> bool) {
    for k in 0..session.graph().params().len() {
        let id = session.graph().params()[k].0;
        if !filter(param_name(session, id)) {
            continue;
        }
        if let Some(w) = session.param_mut(id) {
            for v in w.data_mut() {
                *v = v.clamp(-c, c);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tbd_graph::{GraphBuilder, Init};

    /// loss = mean((w − 3)²): minimised at w = 3.
    fn quadratic() -> (Session, NodeId, NodeId) {
        let mut g = GraphBuilder::new();
        let w = g.parameter("w", [4], Init::Zeros);
        let t = g.input("t", [4]);
        let d = g.sub(w, t).unwrap();
        let sq = g.mul(d, d).unwrap();
        let loss = g.mean_all(sq).unwrap();
        (Session::new(g.finish(), 0), w, loss)
    }

    fn run_steps(opt: &mut dyn Optimizer, steps: usize) -> f32 {
        let (mut session, w, loss) = quadratic();
        let t_id = session.graph().inputs()[0];
        let target = Tensor::full([4], 3.0);
        let mut last = f32::MAX;
        for _ in 0..steps {
            let run = session.forward(&[(t_id, target.clone())]).unwrap();
            last = run.scalar(loss).unwrap();
            let grads = session.backward(&run, loss, Tensor::scalar(1.0)).unwrap();
            opt.step(&mut session, &grads);
        }
        let _ = w;
        last
    }

    #[test]
    fn sgd_converges_on_quadratic() {
        assert!(run_steps(&mut Sgd::new(0.5), 40) < 1e-3);
    }

    #[test]
    fn momentum_converges_on_quadratic() {
        assert!(run_steps(&mut Momentum::new(0.2, 0.9), 80) < 1e-2);
    }

    #[test]
    fn adam_converges_on_quadratic() {
        assert!(run_steps(&mut Adam::new(0.2), 120) < 1e-2);
    }

    #[test]
    fn filtered_step_leaves_other_params_untouched() {
        let mut g = GraphBuilder::new();
        let a = g.parameter("gen/a", [2], Init::Ones);
        let b = g.parameter("critic/b", [2], Init::Ones);
        let s = g.add(a, b).unwrap();
        let loss = g.sum_all(s).unwrap();
        let mut session = Session::new(g.finish(), 0);
        let run = session.forward(&[]).unwrap();
        let grads = session.backward(&run, loss, Tensor::scalar(1.0)).unwrap();
        let mut opt = Sgd::new(0.1);
        opt.step_filtered(&mut session, &grads, &|name| name.starts_with("gen/"));
        assert!(session.param(a).unwrap().data()[0] < 1.0);
        assert_eq!(session.param(b).unwrap().data()[0], 1.0);
    }

    #[test]
    fn clip_weights_bounds_parameters() {
        let mut g = GraphBuilder::new();
        let w = g.parameter("critic/w", [3], Init::Constant(5.0));
        let _ = g.sum_all(w).unwrap();
        let mut session = Session::new(g.finish(), 0);
        clip_weights(&mut session, 0.1, &|n| n.starts_with("critic/"));
        assert!(session.param(w).unwrap().data().iter().all(|&v| v.abs() <= 0.1));
    }
}
