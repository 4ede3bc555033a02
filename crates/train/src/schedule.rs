//! Learning-rate schedules.
//!
//! §4.2 of the paper notes that scaling to large mini-batches (for
//! multi-GPU data parallelism) requires "additional work … on model
//! parameters such as learning rate to preserve the training accuracy",
//! citing Goyal et al.'s linear-scaling rule with warm-up and You et al.'s
//! ImageNet-in-minutes recipes. This module provides those schedules.

/// A learning-rate schedule: maps a step index to a learning rate.
pub trait Schedule {
    /// Learning rate at optimization step `step` (0-based).
    fn lr(&self, step: usize) -> f32;
}

/// Constant learning rate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Constant(pub f32);

impl Schedule for Constant {
    fn lr(&self, _step: usize) -> f32 {
        self.0
    }
}

/// Goyal et al. (the paper's ref. 43): linear warm-up from a tenth of the
/// target over `warmup_steps`, then step decay by 10× at given milestones.
#[derive(Debug, Clone, PartialEq)]
pub struct WarmupStepDecay {
    /// Target (post-warm-up) learning rate.
    pub base_lr: f32,
    /// Warm-up length in steps.
    pub warmup_steps: usize,
    /// Steps at which the rate divides by 10.
    pub milestones: Vec<usize>,
}

impl WarmupStepDecay {
    /// The linear-scaling rule: the base rate grows proportionally with the
    /// global mini-batch ("when the minibatch size is multiplied by k,
    /// multiply the learning rate by k").
    pub fn linear_scaling(reference_lr: f32, reference_batch: usize, batch: usize) -> f32 {
        reference_lr * batch as f32 / reference_batch.max(1) as f32
    }
}

impl Schedule for WarmupStepDecay {
    fn lr(&self, step: usize) -> f32 {
        let base = if step < self.warmup_steps {
            let start = self.base_lr / 10.0;
            start + (self.base_lr - start) * step as f32 / self.warmup_steps.max(1) as f32
        } else {
            self.base_lr
        };
        let decays = self.milestones.iter().filter(|&&m| step >= m).count() as i32;
        base * 0.1f32.powi(decays)
    }
}

/// The Transformer's inverse-square-root schedule (Vaswani et al.):
/// `d_model^-0.5 · min(step^-0.5, step · warmup^-1.5)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct InverseSqrt {
    /// Model width.
    pub d_model: usize,
    /// Warm-up length in steps.
    pub warmup_steps: usize,
}

impl Schedule for InverseSqrt {
    fn lr(&self, step: usize) -> f32 {
        let step = (step + 1) as f32;
        let warmup = self.warmup_steps.max(1) as f32;
        (self.d_model as f32).powf(-0.5) * f32::min(step.powf(-0.5), step * warmup.powf(-1.5))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constant_is_constant() {
        let s = Constant(0.1);
        assert_eq!(s.lr(0), 0.1);
        assert_eq!(s.lr(10_000), 0.1);
    }

    #[test]
    fn warmup_ramps_then_decays() {
        let s = WarmupStepDecay { base_lr: 1.0, warmup_steps: 100, milestones: vec![1000, 2000] };
        assert!((s.lr(0) - 0.1).abs() < 1e-6, "starts at a tenth");
        assert!(s.lr(50) > s.lr(0) && s.lr(50) < 1.0, "ramping");
        assert!((s.lr(100) - 1.0).abs() < 1e-6, "reaches base");
        assert!((s.lr(1500) - 0.1).abs() < 1e-6, "first decay");
        assert!((s.lr(2500) - 0.01).abs() < 1e-6, "second decay");
    }

    #[test]
    fn linear_scaling_rule() {
        // Goyal et al.: lr 0.1 at batch 256 → 0.4 at batch 1024.
        let lr = WarmupStepDecay::linear_scaling(0.1, 256, 1024);
        assert!((lr - 0.4).abs() < 1e-6);
    }

    #[test]
    fn inverse_sqrt_peaks_at_warmup() {
        let s = InverseSqrt { d_model: 512, warmup_steps: 4000 };
        let before = s.lr(1000);
        let peak = s.lr(3999);
        let after = s.lr(16_000);
        assert!(before < peak, "{before} < {peak}");
        assert!(after < peak, "{after} < {peak}");
        assert!(peak < 0.01, "transformer rates are small");
    }

    #[test]
    fn schedules_drive_a_trainer() {
        use crate::{Sgd, Trainer};
        use tbd_graph::{GraphBuilder, Init, Session};
        use tbd_tensor::Tensor;
        // w → 3 under a warm-up schedule applied step by step.
        let mut g = GraphBuilder::new();
        let w = g.parameter("w", [2], Init::Zeros);
        let t = g.input("t", [2]);
        let d = g.sub(w, t).unwrap();
        let sq = g.mul(d, d).unwrap();
        let loss = g.mean_all(sq).unwrap();
        let session = Session::new(g.finish(), 0);
        let mut trainer = Trainer::new(session, loss, Sgd::new(0.0));
        let schedule = WarmupStepDecay { base_lr: 0.5, warmup_steps: 10, milestones: vec![] };
        let target = Tensor::full([2], 3.0);
        for step in 0..60 {
            trainer.optimizer_mut().lr = schedule.lr(step);
            trainer.step(&[(t, target.clone())]).unwrap();
        }
        let wv = trainer.session().param(w).unwrap();
        assert!(wv.data().iter().all(|&v| (v - 3.0).abs() < 0.05), "{wv}");
    }
}
