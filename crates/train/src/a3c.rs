//! Asynchronous advantage actor-critic on the real Pong environment.
//!
//! This is the paper's sixth application domain running end-to-end: several
//! worker threads each own a [`Pong`] game and a replica of the
//! A3C network, collect n-step rollouts with the current policy, compute
//! advantage-weighted policy gradients plus value-regression gradients, and
//! send them to a central parameter server that applies the update and
//! returns fresh weights — the "asynchronously updated policy and value
//! function networks trained in parallel over several processing threads"
//! of Mnih et al. (2016) / paper §3.1.6.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::mpsc;
use tbd_data::{Pong, PongAction};
use tbd_graph::{NodeId, Session};
use tbd_models::a3c::A3cConfig;
use tbd_tensor::{ops, Tensor};

/// Hyper-parameters of the A3C trainer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct A3cTrainer {
    /// Network configuration.
    pub config: A3cConfig,
    /// Steps per rollout (t_max).
    pub rollout: usize,
    /// Discount factor.
    pub gamma: f32,
    /// Learning rate of the central SGD update.
    pub lr: f32,
    /// Global-norm gradient clip.
    pub clip: f32,
}

impl A3cTrainer {
    /// Standard Pong hyper-parameters at the given learning rate.
    pub fn new(config: A3cConfig, lr: f32) -> Self {
        A3cTrainer { config, rollout: 5, gamma: 0.99, lr, clip: 5.0 }
    }

    /// Runs asynchronous training: `workers` threads each contribute
    /// `updates` gradient packets. Returns the trained central session and
    /// the per-update mean rollout rewards, in arrival order.
    ///
    /// # Panics
    ///
    /// Panics if the A3C graph fails to build (a bug in the model
    /// definition) or a worker thread panics.
    pub fn train(&self, workers: usize, updates: usize, seed: u64) -> (Session, Vec<f32>) {
        let center = A3cWorker::new(self.config, seed);
        let mut central = center.session;
        let (grad_tx, grad_rx) = mpsc::channel::<(usize, Vec<(NodeId, Tensor)>, f32)>();
        let mut reply_txs = Vec::new();
        let mut rewards = Vec::new();
        std::thread::scope(|scope| {
            for w in 0..workers {
                let (reply_tx, reply_rx) = mpsc::channel::<Vec<(NodeId, Tensor)>>();
                reply_txs.push(reply_tx);
                let grad_tx = grad_tx.clone();
                let trainer = *self;
                let snapshot = central.snapshot();
                scope.spawn(move || {
                    let mut worker = A3cWorker::new(trainer.config, seed + 1 + w as u64);
                    worker.session.load_snapshot(&snapshot);
                    for _ in 0..updates {
                        let (grads, mean_reward) = worker.collect_gradients(&trainer);
                        if grad_tx.send((w, grads, mean_reward)).is_err() {
                            return;
                        }
                        match reply_rx.recv() {
                            Ok(fresh) => worker.session.load_snapshot(&fresh),
                            Err(_) => return,
                        }
                    }
                });
            }
            drop(grad_tx);
            // Parameter server: apply each packet as it arrives and return
            // the fresh weights to the sender (Hogwild-style asynchrony:
            // packets computed against stale weights are still applied).
            while let Ok((w, grads, mean_reward)) = grad_rx.recv() {
                apply_clipped(&mut central, &grads, self.lr, self.clip);
                rewards.push(mean_reward);
                let _ = reply_txs[w].send(central.snapshot());
            }
        });
        (central, rewards)
    }
}

fn apply_clipped(session: &mut Session, grads: &[(NodeId, Tensor)], lr: f32, clip: f32) {
    let norm: f32 = grads.iter().map(|(_, g)| g.l2_norm().powi(2)).sum::<f32>().sqrt();
    let scale = if norm > clip { clip / norm } else { 1.0 };
    for (id, g) in grads {
        if let Some(w) = session.param_mut(*id) {
            assert_eq!(w.shape(), g.shape(), "gradient shape must match its parameter");
            crate::optim::axpy(w, g, -lr * scale);
        }
    }
}

/// One worker: an environment, a network replica and an RNG.
struct A3cWorker {
    session: Session,
    env: Pong,
    rng: StdRng,
    frames: NodeId,
    actions: NodeId,
    returns: NodeId,
    policy: NodeId,
    value: NodeId,
}

impl A3cWorker {
    fn new(config: A3cConfig, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let built = config.build(1).expect("A3C graph builds");
        let batch_model = built; // batch-1 model used for acting
        let frames = batch_model.input("frames").expect("declared");
        let actions = batch_model.input("actions").expect("declared");
        let returns = batch_model.input("returns").expect("declared");
        let policy = batch_model.output("policy").expect("declared");
        let value = batch_model.output("value").expect("declared");
        let env = Pong::new(&mut rng);
        A3cWorker {
            session: Session::new(batch_model.graph, seed),
            env,
            rng,
            frames,
            actions,
            returns,
            policy,
            value,
        }
    }

    /// Plays one rollout and returns `(parameter gradients, mean reward)`.
    fn collect_gradients(&mut self, cfg: &A3cTrainer) -> (Vec<(NodeId, Tensor)>, f32) {
        let mut observations = Vec::with_capacity(cfg.rollout);
        let mut taken = Vec::with_capacity(cfg.rollout);
        let mut rewards = Vec::with_capacity(cfg.rollout);
        let mut values = Vec::with_capacity(cfg.rollout);
        let actions_available = self.session.graph().node(self.policy).shape.dim(1);
        for _ in 0..cfg.rollout {
            let obs = self.env.observation();
            let batch1 = obs.reshape([1, 4, 84, 84]).expect("fixed shape");
            let run = self
                .session
                .forward(&[
                    (self.frames, batch1.clone()),
                    (self.actions, Tensor::zeros([1])),
                    (self.returns, Tensor::zeros([1, 1])),
                ])
                .expect("forward succeeds");
            let probs = run.value(self.policy).expect("computed").clone();
            let v = run.scalar(self.value).unwrap_or(0.0);
            let action_index = sample_categorical(probs.data(), &mut self.rng)
                .min(actions_available - 1)
                .min(PongAction::ALL.len() - 1);
            let outcome = self.env.step(PongAction::from_index(action_index), &mut self.rng);
            observations.push(batch1);
            taken.push(action_index);
            rewards.push(outcome.reward);
            values.push(v);
            if outcome.done {
                break;
            }
        }
        let steps = observations.len();
        // Bootstrapped n-step returns.
        let bootstrap = *values.last().unwrap_or(&0.0);
        let mut returns = vec![0.0f32; steps];
        let mut acc = bootstrap;
        for t in (0..steps).rev() {
            acc = rewards[t] + cfg.gamma * acc;
            returns[t] = acc;
        }
        let mean_reward = rewards.iter().sum::<f32>() / steps.max(1) as f32;

        // One batched forward over the rollout, then two seeded backwards:
        // advantage-weighted policy gradient + value regression.
        let mut frames_data = Vec::with_capacity(steps * 4 * 84 * 84);
        for obs in &observations {
            frames_data.extend_from_slice(obs.data());
        }
        // Rebuild a batch-`steps` graph when the rollout ended early would
        // churn; instead pad to the configured rollout with repeats.
        let pad_to = steps;
        let frames_batch =
            Tensor::from_vec(frames_data, [pad_to, 4, 84, 84]).expect("sized buffer");
        let mut model = self.batched_model(pad_to);
        model.session.load_snapshot(&self.session.snapshot());
        let actions_tensor = Tensor::from_fn([pad_to], |i| taken[i] as f32);
        let returns_tensor = Tensor::from_vec(returns.clone(), [pad_to, 1]).expect("sized buffer");
        let run = model
            .session
            .forward(&[
                (model.frames, frames_batch),
                (model.actions, actions_tensor),
                (model.returns, returns_tensor),
            ])
            .expect("forward succeeds");
        let probs = run.value(model.policy).expect("computed").clone();
        let value_out = run.value(model.value).expect("computed").clone();
        // Policy-gradient seed: (π − one_hot(a)) · advantage / steps.
        let classes = probs.shape().dim(1);
        let mut seed = probs.data().to_vec();
        for t in 0..pad_to {
            let advantage = returns[t] - value_out.data()[t];
            for c in 0..classes {
                let onehot = if c == taken[t] { 1.0 } else { 0.0 };
                seed[t * classes + c] =
                    (seed[t * classes + c] - onehot) * advantage / pad_to as f32;
            }
        }
        let seed = Tensor::from_vec(seed, probs.shape().clone()).expect("sized buffer");
        let policy_grads =
            model.session.backward(&run, model.policy_logits, seed).expect("backward succeeds");
        let value_grads = model
            .session
            .backward(&run, model.value_loss, Tensor::scalar(0.5))
            .expect("backward succeeds");
        let mut merged = Vec::new();
        for (id, _) in model.session.graph().params() {
            let p = policy_grads.param_grad(*id);
            let v = value_grads.param_grad(*id);
            let grad = match (p, v) {
                (Some(p), Some(v)) => ops::add(p, v).expect("same shape"),
                (Some(p), None) => p.clone(),
                (None, Some(v)) => v.clone(),
                (None, None) => continue,
            };
            merged.push((*id, grad));
        }
        (merged, mean_reward)
    }

    fn batched_model(&self, batch: usize) -> BatchedA3c {
        let cfg = A3cConfig {
            frame: 84,
            stack: 4,
            actions: self.session.graph().node(self.policy).shape.dim(1),
        };
        let built = cfg.build(batch).expect("A3C graph builds");
        BatchedA3c {
            frames: built.input("frames").expect("declared"),
            actions: built.input("actions").expect("declared"),
            returns: built.input("returns").expect("declared"),
            policy_logits: built.output("policy_logits").expect("declared"),
            policy: built.output("policy").expect("declared"),
            value: built.output("value").expect("declared"),
            value_loss: built.output("value_loss").expect("declared"),
            session: Session::new(built.graph, 0),
        }
    }
}

struct BatchedA3c {
    session: Session,
    frames: NodeId,
    actions: NodeId,
    returns: NodeId,
    policy_logits: NodeId,
    policy: NodeId,
    value: NodeId,
    value_loss: NodeId,
}

fn sample_categorical<R: Rng + ?Sized>(probs: &[f32], rng: &mut R) -> usize {
    let mut u: f32 = rng.gen();
    for (i, &p) in probs.iter().enumerate() {
        u -= p;
        if u <= 0.0 {
            return i;
        }
    }
    probs.len().saturating_sub(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sample_categorical_respects_distribution() {
        let mut rng = StdRng::seed_from_u64(1);
        let probs = [0.0f32, 1.0, 0.0];
        for _ in 0..20 {
            assert_eq!(sample_categorical(&probs, &mut rng), 1);
        }
        let skewed = [0.9f32, 0.1];
        let hits = (0..200).filter(|_| sample_categorical(&skewed, &mut rng) == 0).count();
        assert!(hits > 140, "hits {hits}");
    }

    #[test]
    fn async_training_runs_and_updates_weights() {
        let trainer = A3cTrainer::new(A3cConfig::tiny(), 1e-3);
        let before = {
            let built = A3cConfig::tiny().build(1).unwrap();
            Session::new(built.graph, 100).snapshot()
        };
        let (session, rewards) = trainer.train(2, 2, 100);
        assert_eq!(rewards.len(), 4, "2 workers × 2 updates");
        // Weights moved away from the central initialisation.
        let after = session.snapshot();
        let mut moved = 0.0f32;
        for ((_, a), (_, b)) in after.iter().zip(&before) {
            moved += a.max_abs_diff(b).unwrap_or(0.0);
        }
        assert!(moved > 0.0, "updates must change parameters");
        for (_, t) in &after {
            assert!(t.all_finite(), "weights must stay finite");
        }
    }
}
