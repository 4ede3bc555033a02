//! Calibrated accuracy-versus-training-time curves (paper Fig. 2).
//!
//! Training the paper-scale models to convergence takes GPU-days to
//! GPU-weeks; per `DESIGN.md` (substitution 4) the *mechanics* of training
//! run for real at tiny scale while the full-scale learning curves are
//! generated from saturating models calibrated to the end-points the paper
//! reports: 75–80 % Top-1 for the ImageNet classifiers, BLEU ≈ 20 for the
//! Seq2Seq models, BLEU ≈ 24 for the Transformer, and a Pong score of
//! 19–20 for A3C.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use tbd_models::ModelKind;

/// Shape of the learning curve.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CurveShape {
    /// Saturating exponential `v(t) = v∞ − (v∞ − v₀)·e^{−t/τ}` (supervised
    /// models).
    Exponential,
    /// Logistic curve (reinforcement learning: long plateau, sharp
    /// breakthrough, saturation — the classic Pong shape).
    Sigmoid,
}

/// One workload's calibrated convergence behaviour.
#[derive(Debug, Clone, PartialEq)]
pub struct ConvergenceModel {
    /// Workload name (e.g. `"ResNet-50 (MXNet)"`).
    pub label: String,
    /// Metric name (`"Top-1 accuracy"`, `"BLEU"`, `"game score"`).
    pub metric: &'static str,
    /// Initial metric value.
    pub start: f64,
    /// Asymptotic metric value.
    pub end: f64,
    /// Time constant (exponential) or midpoint (sigmoid), in hours.
    pub tau_hours: f64,
    /// Span the paper plots, in hours.
    pub total_hours: f64,
    /// Curve family.
    pub shape: CurveShape,
}

/// A sampled learning curve.
#[derive(Debug, Clone, PartialEq)]
pub struct ConvergenceCurve {
    /// Workload label.
    pub label: String,
    /// Sample times in hours.
    pub hours: Vec<f64>,
    /// Metric values at each time.
    pub values: Vec<f64>,
}

impl ConvergenceModel {
    /// The calibrated model for a `(workload, framework-name)` pair, or
    /// `None` when the paper's Fig. 2 does not plot it.
    pub fn for_workload(kind: ModelKind, framework: &str) -> Option<ConvergenceModel> {
        let m = |label: String, metric, start, end, tau, total, shape| ConvergenceModel {
            label,
            metric,
            start,
            end,
            tau_hours: tau,
            total_hours: total,
            shape,
        };
        let label = format!("{} ({framework})", kind.name());
        match (kind, framework) {
            (ModelKind::InceptionV3, "MXNet") => {
                Some(m(label, "Top-1 accuracy", 0.02, 0.78, 110.0, 600.0, CurveShape::Exponential))
            }
            (ModelKind::InceptionV3, "TensorFlow") => {
                Some(m(label, "Top-1 accuracy", 0.02, 0.76, 150.0, 600.0, CurveShape::Exponential))
            }
            (ModelKind::InceptionV3, "CNTK") => {
                Some(m(label, "Top-1 accuracy", 0.02, 0.74, 150.0, 600.0, CurveShape::Exponential))
            }
            (ModelKind::ResNet50, "MXNet") => {
                Some(m(label, "Top-1 accuracy", 0.02, 0.77, 85.0, 432.0, CurveShape::Exponential))
            }
            (ModelKind::ResNet50, "TensorFlow") => {
                Some(m(label, "Top-1 accuracy", 0.02, 0.755, 115.0, 432.0, CurveShape::Exponential))
            }
            (ModelKind::ResNet50, "CNTK") => {
                Some(m(label, "Top-1 accuracy", 0.02, 0.74, 110.0, 432.0, CurveShape::Exponential))
            }
            (ModelKind::Transformer, "TensorFlow") => {
                Some(m(label, "BLEU", 0.0, 24.0, 6.0, 32.0, CurveShape::Exponential))
            }
            (ModelKind::Seq2Seq, "TensorFlow") => {
                let label = format!("NMT ({framework})");
                Some(m(label, "BLEU", 0.0, 20.5, 1.0, 5.0, CurveShape::Exponential))
            }
            (ModelKind::Seq2Seq, "MXNet") => {
                let label = format!("Sockeye ({framework})");
                Some(m(label, "BLEU", 0.0, 19.5, 1.4, 5.0, CurveShape::Exponential))
            }
            (ModelKind::A3c, "MXNet") => {
                Some(m(label, "game score", -21.0, 19.5, 6.0, 15.0, CurveShape::Sigmoid))
            }
            _ => None,
        }
    }

    /// Metric value at `hours` of training (noise-free).
    pub fn value_at(&self, hours: f64) -> f64 {
        match self.shape {
            CurveShape::Exponential => {
                self.end - (self.end - self.start) * (-hours / self.tau_hours).exp()
            }
            CurveShape::Sigmoid => {
                let width = self.tau_hours / 4.0;
                self.start
                    + (self.end - self.start) / (1.0 + (-(hours - self.tau_hours) / width).exp())
            }
        }
    }

    /// Samples the curve at `points` times with small measurement noise
    /// (seeded, deterministic).
    pub fn curve(&self, points: usize, seed: u64) -> ConvergenceCurve {
        let mut rng = StdRng::seed_from_u64(seed);
        let magnitude = (self.end - self.start).abs() * 0.015;
        let mut hours = Vec::with_capacity(points);
        let mut values = Vec::with_capacity(points);
        for i in 0..points {
            let t = self.total_hours * i as f64 / (points.max(2) - 1) as f64;
            let noise: f64 = rng.gen_range(-magnitude..=magnitude);
            hours.push(t);
            values.push(self.value_at(t) + if i == 0 { 0.0 } else { noise });
        }
        ConvergenceCurve { label: self.label.clone(), hours, values }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn image_models_reach_paper_accuracy() {
        // §3.3: Top-1 reaches 75–80 % for both classifiers.
        for fw in ["TensorFlow", "MXNet", "CNTK"] {
            for kind in [ModelKind::ResNet50, ModelKind::InceptionV3] {
                let m = ConvergenceModel::for_workload(kind, fw).unwrap();
                let v = m.value_at(m.total_hours);
                assert!((0.70..=0.80).contains(&v), "{} final {v}", m.label);
            }
        }
    }

    #[test]
    fn translation_models_reach_bleu_20ish() {
        let nmt = ConvergenceModel::for_workload(ModelKind::Seq2Seq, "TensorFlow").unwrap();
        assert!(nmt.value_at(5.0) > 19.0);
        let transformer =
            ConvergenceModel::for_workload(ModelKind::Transformer, "TensorFlow").unwrap();
        assert!(transformer.value_at(32.0) > 23.0);
    }

    #[test]
    fn a3c_matches_pong_19_to_20() {
        let m = ConvergenceModel::for_workload(ModelKind::A3c, "MXNet").unwrap();
        assert!(m.value_at(0.0) < -19.5, "start {}", m.value_at(0.0));
        let v = m.value_at(15.0);
        assert!((19.0..=20.0).contains(&v), "final {v}");
        // Sigmoid: still near the floor a quarter of the way in.
        assert!(m.value_at(2.0) < -15.0);
    }

    #[test]
    fn curves_are_monotone_up_to_noise() {
        let m = ConvergenceModel::for_workload(ModelKind::ResNet50, "MXNet").unwrap();
        let c = m.curve(50, 7);
        assert_eq!(c.hours.len(), 50);
        // The noise-free trend is monotone; tolerate the injected jitter.
        let final_avg = c.values[45..].iter().sum::<f64>() / 5.0;
        let early_avg = c.values[..5].iter().sum::<f64>() / 5.0;
        assert!(final_avg > early_avg);
    }

    #[test]
    fn unplotted_pairs_return_none() {
        assert!(ConvergenceModel::for_workload(ModelKind::Transformer, "MXNet").is_none());
        assert!(ConvergenceModel::for_workload(ModelKind::Wgan, "TensorFlow").is_none());
    }

    #[test]
    fn curves_are_deterministic_per_seed() {
        let m = ConvergenceModel::for_workload(ModelKind::A3c, "MXNet").unwrap();
        assert_eq!(m.curve(20, 1), m.curve(20, 1));
    }
}
