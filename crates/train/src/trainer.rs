//! Generic supervised training loops.

use crate::Optimizer;
use tbd_graph::{GraphError, NodeId, Session};
use tbd_tensor::Tensor;

/// Drives a [`Session`] through forward/backward/update iterations.
///
/// # Examples
///
/// ```
/// use tbd_graph::{GraphBuilder, Init, Session};
/// use tbd_train::{Sgd, Trainer};
/// use tbd_tensor::Tensor;
///
/// # fn main() -> Result<(), tbd_graph::GraphError> {
/// let mut g = GraphBuilder::new();
/// let x = g.input("x", [2, 2]);
/// let w = g.parameter("w", [2, 1], Init::Xavier { fan_in: 2, fan_out: 1 });
/// let y = g.matmul(x, w)?;
/// let t = g.input("t", [2, 1]);
/// let d = g.sub(y, t)?;
/// let sq = g.mul(d, d)?;
/// let loss = g.mean_all(sq)?;
/// let session = Session::new(g.finish(), 0);
///
/// let mut trainer = Trainer::new(session, loss, Sgd::new(0.1));
/// let feeds = vec![
///     (x, Tensor::from_vec(vec![1.0, 0.0, 0.0, 1.0], [2, 2])?),
///     (t, Tensor::from_vec(vec![1.0, -1.0], [2, 1])?),
/// ];
/// let first = trainer.step(&feeds)?;
/// for _ in 0..50 {
///     trainer.step(&feeds)?;
/// }
/// assert!(trainer.last_loss() < first);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct Trainer<O> {
    session: Session,
    loss: NodeId,
    optimizer: O,
    last_loss: f32,
    steps: usize,
}

impl<O: Optimizer> Trainer<O> {
    /// Creates a trainer around a session, its scalar loss node and an
    /// optimizer.
    pub fn new(session: Session, loss: NodeId, optimizer: O) -> Self {
        Trainer { session, loss, optimizer, last_loss: f32::NAN, steps: 0 }
    }

    /// The wrapped session (for evaluation passes).
    pub fn session(&self) -> &Session {
        &self.session
    }

    /// Mutable access to the wrapped session.
    pub fn session_mut(&mut self) -> &mut Session {
        &mut self.session
    }

    /// Loss of the most recent step (NaN before the first step).
    pub fn last_loss(&self) -> f32 {
        self.last_loss
    }

    /// Number of optimization steps taken.
    pub fn steps(&self) -> usize {
        self.steps
    }

    /// Mutable access to the optimizer (e.g. to apply a learning-rate
    /// schedule between steps).
    pub fn optimizer_mut(&mut self) -> &mut O {
        &mut self.optimizer
    }

    /// Runs one forward/backward/update step and returns the loss.
    ///
    /// # Errors
    ///
    /// Propagates graph-execution errors (bad feeds, kernel failures).
    pub fn step(&mut self, feeds: &[(NodeId, Tensor)]) -> Result<f32, GraphError> {
        let loss = train_step(&mut self.session, self.loss, &mut self.optimizer, feeds)?;
        self.last_loss = loss;
        self.steps += 1;
        Ok(loss)
    }

    /// Trains for `steps` iterations, drawing feeds from `next_batch`, and
    /// returns the per-step losses.
    ///
    /// # Errors
    ///
    /// Propagates graph-execution errors.
    pub fn run(
        &mut self,
        steps: usize,
        mut next_batch: impl FnMut(usize) -> Vec<(NodeId, Tensor)>,
    ) -> Result<Vec<f32>, GraphError> {
        let mut losses = Vec::with_capacity(steps);
        for i in 0..steps {
            let feeds = next_batch(i);
            losses.push(self.step(&feeds)?);
        }
        Ok(losses)
    }
}

/// One training step: forward on `feeds`, read the scalar `loss`, backward
/// from it and apply `optimizer`. Returns the loss.
pub(crate) fn train_step(
    session: &mut Session,
    loss: NodeId,
    optimizer: &mut impl Optimizer,
    feeds: &[(NodeId, Tensor)],
) -> Result<f32, GraphError> {
    let run = session.forward(feeds)?;
    let value = run.scalar(loss).ok_or(GraphError::ValueNotComputed(loss.index()))?;
    let grads = session.backward(&run, loss, Tensor::scalar(1.0))?;
    optimizer.step(session, &grads);
    Ok(value)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Momentum, Sgd};
    use tbd_graph::{GraphBuilder, Init};

    fn classification_session() -> (Session, NodeId, NodeId, NodeId) {
        let mut g = GraphBuilder::new();
        let x = g.input("x", [8, 2]);
        let w = g.parameter("w", [2, 2], Init::Xavier { fan_in: 2, fan_out: 2 });
        let b = g.parameter("b", [2], Init::Zeros);
        let h = g.matmul(x, w).unwrap();
        let logits = g.add_bias(h, b).unwrap();
        let t = g.input("t", [8]);
        let loss = g.cross_entropy(logits, t).unwrap();
        (Session::new(g.finish(), 3), x, t, loss)
    }

    fn linearly_separable_batch() -> (Tensor, Tensor) {
        // Class 0 in the left half-plane, class 1 in the right.
        let mut xs = Vec::new();
        let mut ts = Vec::new();
        for i in 0..8 {
            let side = if i % 2 == 0 { -1.0 } else { 1.0 };
            xs.push(side * (1.0 + i as f32 * 0.1));
            xs.push(i as f32 * 0.05);
            ts.push(if side < 0.0 { 0.0 } else { 1.0 });
        }
        (Tensor::from_vec(xs, [8, 2]).unwrap(), Tensor::from_slice(&ts))
    }

    #[test]
    fn trainer_reduces_classification_loss() {
        let (session, x, t, loss) = classification_session();
        let mut trainer = Trainer::new(session, loss, Sgd::new(0.5));
        let (xb, tb) = linearly_separable_batch();
        let losses = trainer.run(60, |_| vec![(x, xb.clone()), (t, tb.clone())]).unwrap();
        assert!(losses[59] < losses[0] * 0.2, "{} -> {}", losses[0], losses[59]);
        assert_eq!(trainer.steps(), 60);
    }

    #[test]
    fn momentum_trainer_also_converges() {
        let (session, x, t, loss) = classification_session();
        let mut trainer = Trainer::new(session, loss, Momentum::new(0.2, 0.9));
        let (xb, tb) = linearly_separable_batch();
        let losses = trainer.run(60, |_| vec![(x, xb.clone()), (t, tb.clone())]).unwrap();
        assert!(losses[59] < losses[0]);
    }

    #[test]
    fn last_loss_is_nan_before_training() {
        let (session, _, _, loss) = classification_session();
        let trainer = Trainer::new(session, loss, Sgd::new(0.1));
        assert!(trainer.last_loss().is_nan());
    }
}
