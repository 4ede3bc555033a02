//! A3C (Mnih et al. 2016), the paper's deep-reinforcement-learning
//! workload on Atari 2600 frames.
//!
//! The network is the classic 4-layer Atari architecture: two convolutions
//! over a stack of four 84×84 frames, a 256-wide dense layer, and separate
//! policy/value heads. The graph's loss combines the policy cross-entropy
//! (whose gradient the trainer re-weights by the advantage — see
//! `tbd-train::a3c`) with the value-function regression.

use crate::nn::NetBuilder;
use crate::BuiltModel;
use std::collections::BTreeMap;
use tbd_graph::Result;

/// Configuration of the A3C agent.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct A3cConfig {
    /// Square frame side (84 for Atari).
    pub frame: usize,
    /// Stacked frames per observation (4 for Atari).
    pub stack: usize,
    /// Number of discrete actions (6 for Pong).
    pub actions: usize,
}

impl A3cConfig {
    /// Paper-scale configuration (Atari Pong).
    pub fn full() -> Self {
        A3cConfig { frame: 84, stack: 4, actions: 6 }
    }

    /// The A3C network is already small; the tiny configuration only trims
    /// the action set.
    pub fn tiny() -> Self {
        A3cConfig { frame: 84, stack: 4, actions: 3 }
    }

    /// Builds the actor-critic graph for `batch` observations.
    ///
    /// Feeds: `frames` `[batch, stack, frame, frame]`, `actions` `[batch]`
    /// (taken actions) and `returns` `[batch, 1]` (bootstrapped returns).
    /// Outputs: `policy_logits`, `policy`, `value`, `policy_loss`,
    /// `value_loss` and the combined `loss`.
    ///
    /// # Errors
    ///
    /// Propagates graph-construction errors.
    pub fn build(&self, batch: usize) -> Result<BuiltModel> {
        let mut nb = NetBuilder::new();
        let frames = nb.g.input("frames", [batch, self.stack, self.frame, self.frame]);
        let actions = nb.g.input("actions", [batch]);
        let returns = nb.g.input("returns", [batch, 1]);

        // Mnih et al. (2016) feature trunk: 16×8×8/4 then 32×4×4/2.
        let c1 = nb.conv(frames, self.stack, 16, 8, 4, 0)?;
        let c1 = nb.g.relu(c1)?;
        let c2 = nb.conv(c1, 16, 32, 4, 2, 0)?;
        let c2 = nb.g.relu(c2)?;
        let dims = nb.g.shape(c2).dims().to_vec();
        let flat_dim = dims[1] * dims[2] * dims[3];
        let flat = nb.g.reshape(c2, [batch, flat_dim])?;
        let hidden = nb.dense(flat, flat_dim, 256)?;
        let hidden = nb.g.relu(hidden)?;

        let policy_logits = nb.scoped("policy", |nb| nb.dense(hidden, 256, self.actions))?;
        let policy = nb.g.softmax(policy_logits)?;
        let value = nb.scoped("value", |nb| nb.dense(hidden, 256, 1))?;

        // Policy loss: cross-entropy to the taken action (the trainer
        // re-weights its gradient seed by the advantage).
        let policy_loss = nb.g.cross_entropy(policy_logits, actions)?;
        // Value loss: ½·MSE(value, returns).
        let diff = nb.g.sub(value, returns)?;
        let sq = nb.g.mul(diff, diff)?;
        let mse = nb.g.mean_all(sq)?;
        let value_loss = nb.g.scale(mse, 0.5)?;
        let loss = nb.g.add(policy_loss, value_loss)?;

        let graph = nb.g.finish();
        let mut inputs = BTreeMap::new();
        inputs.insert("frames".to_string(), frames);
        inputs.insert("actions".to_string(), actions);
        inputs.insert("returns".to_string(), returns);
        let mut outputs = BTreeMap::new();
        outputs.insert("policy_logits".to_string(), policy_logits);
        outputs.insert("policy".to_string(), policy);
        outputs.insert("value".to_string(), value);
        outputs.insert("policy_loss".to_string(), policy_loss);
        outputs.insert("value_loss".to_string(), value_loss);
        outputs.insert("loss".to_string(), loss);
        Ok(BuiltModel { graph, batch, inputs, outputs })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tbd_graph::Session;
    use tbd_tensor::Tensor;

    #[test]
    fn network_has_four_weighted_layers() {
        let model = A3cConfig::full().build(1).unwrap();
        // conv1, conv2, shared dense, policy head, value head: the paper's
        // Table 2 counts 4 layers along the policy path.
        let convs =
            model.graph.nodes().iter().filter(|n| matches!(n.op, tbd_graph::Op::Conv2d(_))).count();
        assert_eq!(convs, 2);
        let policy = model.output("policy").unwrap();
        assert_eq!(model.graph.node(policy).shape.dims(), &[1, 6]);
    }

    #[test]
    fn a3c_trains_one_step() {
        let cfg = A3cConfig::tiny();
        let model = cfg.build(4).unwrap();
        let loss = model.loss();
        let frames = model.input("frames").unwrap();
        let actions = model.input("actions").unwrap();
        let returns = model.input("returns").unwrap();
        let mut session = Session::new(model.graph, 2);
        let run = session
            .forward(&[
                (frames, Tensor::from_fn([4, 4, 84, 84], |i| ((i % 13) as f32) / 13.0)),
                (actions, Tensor::from_slice(&[0.0, 1.0, 2.0, 1.0])),
                (returns, Tensor::from_vec(vec![0.5, -0.5, 1.0, 0.0], [4, 1]).unwrap()),
            ])
            .unwrap();
        assert!(run.scalar(loss).unwrap().is_finite());
        let grads = session.backward(&run, loss, Tensor::scalar(1.0)).unwrap();
        assert!(grads.global_norm(session.graph()) > 0.0);
    }

    #[test]
    fn policy_is_a_distribution() {
        let cfg = A3cConfig::tiny();
        let model = cfg.build(2).unwrap();
        let policy = model.output("policy").unwrap();
        let frames = model.input("frames").unwrap();
        let actions = model.input("actions").unwrap();
        let returns = model.input("returns").unwrap();
        let mut session = Session::new(model.graph, 6);
        let run = session
            .forward(&[
                (frames, Tensor::from_fn([2, 4, 84, 84], |i| ((i % 7) as f32) / 7.0)),
                (actions, Tensor::from_slice(&[0.0, 1.0])),
                (returns, Tensor::zeros([2, 1])),
            ])
            .unwrap();
        let p = run.value(policy).unwrap();
        for row in 0..2 {
            let s: f32 = p.data()[row * 3..(row + 1) * 3].iter().sum();
            assert!((s - 1.0).abs() < 1e-5);
        }
    }
}
