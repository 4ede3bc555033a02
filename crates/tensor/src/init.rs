//! Weight initialisation schemes.
//!
//! The TBD workloads use the initialisers that shipped with their reference
//! implementations: Xavier/Glorot for fully-connected and recurrent layers,
//! He/Kaiming for convolutions feeding ReLUs, and small uniform noise for
//! biases. All functions take an explicit RNG so experiments are
//! reproducible.

use crate::{Shape, Tensor};
use rand::distributions::{Distribution, Uniform};
use rand::Rng;

/// Samples a tensor with i.i.d. uniform entries in `[lo, hi)`.
///
/// # Panics
///
/// Panics if `lo >= hi` (propagated from the underlying distribution).
pub fn uniform<S: Into<Shape>, R: Rng + ?Sized>(shape: S, lo: f32, hi: f32, rng: &mut R) -> Tensor {
    let dist = Uniform::new(lo, hi);
    let shape = shape.into();
    Tensor::from_fn(shape, |_| dist.sample(rng))
}

/// Samples a tensor with i.i.d. normal entries (Box–Muller transform).
pub fn normal<S: Into<Shape>, R: Rng + ?Sized>(
    shape: S,
    mean: f32,
    std: f32,
    rng: &mut R,
) -> Tensor {
    let shape = shape.into();
    Tensor::from_fn(shape, |_| mean + std * sample_standard_normal(rng))
}

/// Xavier/Glorot uniform initialisation for a weight of the given fan-in and
/// fan-out: `U(-a, a)` with `a = sqrt(6 / (fan_in + fan_out))`.
pub fn xavier_uniform<S: Into<Shape>, R: Rng + ?Sized>(
    shape: S,
    fan_in: usize,
    fan_out: usize,
    rng: &mut R,
) -> Tensor {
    let a = (6.0 / (fan_in + fan_out) as f32).sqrt();
    uniform(shape, -a, a, rng)
}

/// He/Kaiming normal initialisation for ReLU networks:
/// `N(0, sqrt(2 / fan_in))`.
pub fn he_normal<S: Into<Shape>, R: Rng + ?Sized>(shape: S, fan_in: usize, rng: &mut R) -> Tensor {
    let std = (2.0 / fan_in.max(1) as f32).sqrt();
    normal(shape, 0.0, std, rng)
}

fn sample_standard_normal<R: Rng + ?Sized>(rng: &mut R) -> f32 {
    // Box–Muller; clamp u1 away from zero to avoid ln(0).
    let u1: f32 = rng.gen_range(f32::MIN_POSITIVE..1.0);
    let u2: f32 = rng.gen();
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f32::consts::PI * u2).cos()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn uniform_respects_bounds() {
        let mut rng = StdRng::seed_from_u64(1);
        let t = uniform([1000], -0.5, 0.5, &mut rng);
        assert!(t.data().iter().all(|&v| (-0.5..0.5).contains(&v)));
    }

    #[test]
    fn normal_has_roughly_requested_moments() {
        let mut rng = StdRng::seed_from_u64(2);
        let t = normal([20_000], 1.0, 2.0, &mut rng);
        let mean = t.mean();
        let var = t.data().iter().map(|v| (v - mean) * (v - mean)).sum::<f32>() / t.len() as f32;
        assert!((mean - 1.0).abs() < 0.05, "mean {mean}");
        assert!((var - 4.0).abs() < 0.2, "var {var}");
    }

    #[test]
    fn xavier_scale_shrinks_with_fan() {
        let mut rng = StdRng::seed_from_u64(3);
        let small = xavier_uniform([1000], 10, 10, &mut rng);
        let large = xavier_uniform([1000], 1000, 1000, &mut rng);
        assert!(
            small.data().iter().fold(0f32, |m, v| m.max(v.abs()))
                > large.data().iter().fold(0f32, |m, v| m.max(v.abs()))
        );
    }

    #[test]
    fn he_normal_is_finite_and_seeded() {
        let mut a = StdRng::seed_from_u64(7);
        let mut b = StdRng::seed_from_u64(7);
        let x = he_normal([64], 128, &mut a);
        let y = he_normal([64], 128, &mut b);
        assert!(x.all_finite());
        assert_eq!(x, y, "same seed must give same weights");
    }
}
