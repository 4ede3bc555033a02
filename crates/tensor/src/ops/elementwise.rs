//! Element-wise kernels (the memory-bandwidth-bound family).
//!
//! On real GPUs these are the `Eigen::internal::EigenMetaKernel` /
//! `mxnet_generic_kernel` entries that show up in the paper's Tables 5–6
//! with low FP32 utilisation: they perform one or two FLOPs per element
//! moved, so the roofline pins them against memory bandwidth.

use crate::par;
use crate::{Result, Tensor, TensorError};

/// Builds `f(a[i], b[i])` element-wise, fanning out across threads for
/// large tensors (these kernels are memory-bound; the threshold in
/// [`par::par_zip_inplace`] keeps small ones on the calling thread).
fn zip_with(a: &Tensor, b: &Tensor, f: impl Fn(f32, f32) -> f32 + Sync) -> Result<Tensor> {
    let mut data = a.data().to_vec();
    par::par_zip_inplace(&mut data, b.data(), f);
    Tensor::from_vec(data, a.shape().clone())
}

/// Builds `f(x[i])` element-wise with the same fan-out policy.
fn map_with(x: &Tensor, f: impl Fn(f32) -> f32 + Sync) -> Tensor {
    let mut data = x.data().to_vec();
    par::par_map_inplace(&mut data, f);
    Tensor::from_vec(data, x.shape().clone()).expect("same shape")
}

fn zip_check(op: &'static str, a: &Tensor, b: &Tensor) -> Result<()> {
    if a.shape() != b.shape() {
        return Err(TensorError::ShapeMismatch {
            op,
            lhs: a.shape().dims().to_vec(),
            rhs: b.shape().dims().to_vec(),
        });
    }
    Ok(())
}

/// Element-wise sum `a + b`.
///
/// # Errors
///
/// Returns [`TensorError::ShapeMismatch`] when the shapes differ.
pub fn add(a: &Tensor, b: &Tensor) -> Result<Tensor> {
    zip_check("add", a, b)?;
    zip_with(a, b, |x, y| x + y)
}

/// In-place element-wise sum `a ← a + b` (gradient accumulation); each
/// element is the same `a + b` that [`add`] computes.
///
/// # Errors
///
/// Returns [`TensorError::ShapeMismatch`] when the shapes differ.
pub fn add_assign(a: &mut Tensor, b: &Tensor) -> Result<()> {
    zip_check("add", a, b)?;
    par::par_zip_inplace(a.data_mut(), b.data(), |x, y| x + y);
    Ok(())
}

/// Element-wise difference `a - b`.
///
/// # Errors
///
/// Returns [`TensorError::ShapeMismatch`] when the shapes differ.
pub fn sub(a: &Tensor, b: &Tensor) -> Result<Tensor> {
    zip_check("sub", a, b)?;
    zip_with(a, b, |x, y| x - y)
}

/// Element-wise (Hadamard) product `a ⊙ b`.
///
/// # Errors
///
/// Returns [`TensorError::ShapeMismatch`] when the shapes differ.
pub fn mul(a: &Tensor, b: &Tensor) -> Result<Tensor> {
    zip_check("mul", a, b)?;
    zip_with(a, b, |x, y| x * y)
}

/// Element-wise quotient `a / b`.
///
/// # Errors
///
/// Returns [`TensorError::ShapeMismatch`] when the shapes differ.
pub fn div(a: &Tensor, b: &Tensor) -> Result<Tensor> {
    zip_check("div", a, b)?;
    zip_with(a, b, |x, y| x / y)
}

/// Scalar multiple `s · a`.
pub fn scale(a: &Tensor, s: f32) -> Tensor {
    map_with(a, |v| v * s)
}

/// Rectified linear unit `max(x, 0)`.
pub fn relu_forward(x: &Tensor) -> Tensor {
    map_with(x, |v| v.max(0.0))
}

/// Gradient of [`relu_forward`]: passes `dy` where the input was positive.
pub fn relu_backward(x: &Tensor, dy: &Tensor) -> Result<Tensor> {
    zip_check("relu_backward", x, dy)?;
    zip_with(x, dy, |v, g| if v > 0.0 { g } else { 0.0 })
}

/// Leaky ReLU `max(x, αx)` as used by the WGAN discriminator.
pub fn leaky_relu_forward(x: &Tensor, alpha: f32) -> Tensor {
    map_with(x, |v| if v > 0.0 { v } else { alpha * v })
}

/// Gradient of [`leaky_relu_forward`].
pub fn leaky_relu_backward(x: &Tensor, dy: &Tensor, alpha: f32) -> Result<Tensor> {
    zip_check("leaky_relu_backward", x, dy)?;
    zip_with(x, dy, |v, g| if v > 0.0 { g } else { alpha * g })
}

/// Logistic sigmoid `1 / (1 + e^{-x})` (LSTM/GRU gates).
pub fn sigmoid_forward(x: &Tensor) -> Tensor {
    map_with(x, |v| 1.0 / (1.0 + (-v).exp()))
}

/// Gradient of [`sigmoid_forward`] given the forward *output* `y`.
pub fn sigmoid_backward(y: &Tensor, dy: &Tensor) -> Result<Tensor> {
    zip_check("sigmoid_backward", y, dy)?;
    zip_with(y, dy, |s, g| g * s * (1.0 - s))
}

/// Hyperbolic tangent (LSTM cell activations).
pub fn tanh_forward(x: &Tensor) -> Tensor {
    map_with(x, f32::tanh)
}

/// Gradient of [`tanh_forward`] given the forward *output* `y`.
pub fn tanh_backward(y: &Tensor, dy: &Tensor) -> Result<Tensor> {
    zip_check("tanh_backward", y, dy)?;
    zip_with(y, dy, |t, g| g * (1.0 - t * t))
}

/// Inverted dropout: zeroes elements with probability `p` and rescales the
/// survivors by `1/(1-p)`. Returns `(output, mask)`; the mask feeds
/// [`dropout_backward`].
///
/// # Errors
///
/// Returns [`TensorError::InvalidArgument`] unless `0 ≤ p < 1`.
pub fn dropout_forward(x: &Tensor, p: f32, rng: &mut impl rand::Rng) -> Result<(Tensor, Tensor)> {
    if !(0.0..1.0).contains(&p) {
        return Err(TensorError::InvalidArgument {
            op: "dropout",
            reason: format!("drop probability {p} not in [0, 1)"),
        });
    }
    let keep = 1.0 - p;
    let mut mask = Tensor::zeros(x.shape().clone());
    for m in mask.data_mut() {
        *m = if rng.gen::<f32>() < keep { 1.0 / keep } else { 0.0 };
    }
    let out = mul(x, &mask)?;
    Ok((out, mask))
}

/// Gradient of [`dropout_forward`]: `dy ⊙ mask`.
pub fn dropout_backward(mask: &Tensor, dy: &Tensor) -> Result<Tensor> {
    mul(mask, dy)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn t(v: &[f32]) -> Tensor {
        Tensor::from_slice(v)
    }

    #[test]
    fn binary_ops() {
        let a = t(&[1.0, 2.0]);
        let b = t(&[3.0, 5.0]);
        assert_eq!(add(&a, &b).unwrap().data(), &[4.0, 7.0]);
        assert_eq!(sub(&a, &b).unwrap().data(), &[-2.0, -3.0]);
        assert_eq!(mul(&a, &b).unwrap().data(), &[3.0, 10.0]);
        assert_eq!(div(&b, &a).unwrap().data(), &[3.0, 2.5]);
        let mut acc = a.clone();
        add_assign(&mut acc, &b).unwrap();
        assert_eq!(acc.data(), &[4.0, 7.0]);
    }

    #[test]
    fn shape_mismatch_is_reported() {
        let a = Tensor::ones([2]);
        let b = Tensor::ones([3]);
        assert!(matches!(add(&a, &b), Err(TensorError::ShapeMismatch { op: "add", .. })));
        let mut acc = a.clone();
        assert!(matches!(
            add_assign(&mut acc, &b),
            Err(TensorError::ShapeMismatch { op: "add", .. })
        ));
    }

    #[test]
    fn relu_and_gradient() {
        let x = t(&[-1.0, 0.0, 2.0]);
        assert_eq!(relu_forward(&x).data(), &[0.0, 0.0, 2.0]);
        let dy = t(&[1.0, 1.0, 1.0]);
        assert_eq!(relu_backward(&x, &dy).unwrap().data(), &[0.0, 0.0, 1.0]);
    }

    #[test]
    fn leaky_relu_keeps_negative_slope() {
        let x = t(&[-2.0, 4.0]);
        assert_eq!(leaky_relu_forward(&x, 0.1).data(), &[-0.2, 4.0]);
        let dy = t(&[1.0, 1.0]);
        assert_eq!(leaky_relu_backward(&x, &dy, 0.1).unwrap().data(), &[0.1, 1.0]);
    }

    #[test]
    fn sigmoid_matches_closed_form_gradient() {
        let x = t(&[0.3, -0.7]);
        let y = sigmoid_forward(&x);
        let dy = t(&[1.0, 1.0]);
        let dx = sigmoid_backward(&y, &dy).unwrap();
        for (s, g) in y.data().iter().zip(dx.data()) {
            assert!((g - s * (1.0 - s)).abs() < 1e-6);
        }
    }

    #[test]
    fn tanh_gradient_at_zero_is_one() {
        let x = t(&[0.0]);
        let y = tanh_forward(&x);
        let dx = tanh_backward(&y, &t(&[1.0])).unwrap();
        assert!((dx.data()[0] - 1.0).abs() < 1e-6);
    }

    #[test]
    fn dropout_scales_survivors() {
        let mut rng = StdRng::seed_from_u64(11);
        let x = Tensor::ones([10_000]);
        let (y, mask) = dropout_forward(&x, 0.5, &mut rng).unwrap();
        // E[y] = 1, so the sum should be close to the element count.
        assert!((y.sum() - 10_000.0).abs() < 500.0);
        // Backward uses the same mask.
        let dx = dropout_backward(&mask, &x).unwrap();
        assert_eq!(dx, y);
    }

    #[test]
    fn dropout_rejects_bad_probability() {
        let mut rng = StdRng::seed_from_u64(1);
        assert!(dropout_forward(&Tensor::ones([2]), 1.0, &mut rng).is_err());
        assert!(dropout_forward(&Tensor::ones([2]), -0.1, &mut rng).is_err());
    }
}
