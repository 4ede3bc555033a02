//! Normalisation kernels: batch normalisation (the `bn_fw_tr`/`bn_bw` cuDNN
//! kernels that top the paper's low-utilisation Tables 5–6) and layer
//! normalisation (Transformer).

use crate::par;
use crate::{Result, Tensor, TensorError};

/// Saved forward-pass statistics needed by [`batch_norm_backward`].
#[derive(Debug, Clone, PartialEq)]
pub struct BatchNormState {
    /// Per-channel mean of the mini-batch.
    pub mean: Vec<f32>,
    /// Per-channel inverse standard deviation `1/sqrt(var + eps)`.
    pub inv_std: Vec<f32>,
    /// Normalised activations `x̂` (same shape as the input).
    pub normalized: Tensor,
}

/// Batch normalisation over `[n, c, h, w]` (per-channel statistics).
///
/// Returns the output together with the [`BatchNormState`] that the backward
/// pass consumes. `gamma` and `beta` are `[c]`.
///
/// # Errors
///
/// Returns rank/shape errors for malformed operands.
pub fn batch_norm_forward(
    x: &Tensor,
    gamma: &Tensor,
    beta: &Tensor,
    eps: f32,
) -> Result<(Tensor, BatchNormState)> {
    if x.shape().rank() != 4 {
        return Err(TensorError::RankMismatch {
            op: "batch_norm",
            expected: 4,
            actual: x.shape().rank(),
        });
    }
    let (n, c, h, w) = (x.shape().dim(0), x.shape().dim(1), x.shape().dim(2), x.shape().dim(3));
    if gamma.len() != c || beta.len() != c {
        return Err(TensorError::ShapeMismatch {
            op: "batch_norm",
            lhs: x.shape().dims().to_vec(),
            rhs: gamma.shape().dims().to_vec(),
        });
    }
    let count = (n * h * w) as f32;
    let hw = h * w;
    let xd = x.data();
    let [mut mean] = channel_sums(n, c, hw, [xd], |_, [v]| [v]);
    for m in &mut mean {
        *m /= count;
    }
    let [var] = channel_sums(n, c, hw, [xd], |ch, [v]| {
        let d = v - mean[ch];
        [d * d]
    });
    let inv_std: Vec<f32> = var.iter().map(|&v| 1.0 / (v / count + eps).sqrt()).collect();
    let mut norm = vec![0.0f32; xd.len()];
    let mut out = vec![0.0f32; xd.len()];
    if hw > 0 {
        // Per-plane (image, channel) rows are independent given the stats;
        // one pass writes both x̂ and the affine output from it.
        let threads = par::plan_threads(xd.len(), par::ELEMENTWISE_GRAIN, n * c);
        let mut planes: Vec<_> = norm.chunks_mut(hw).zip(out.chunks_mut(hw)).collect();
        par::parallel_bands(&mut planes, 1, threads, |first, band| {
            for (k, (nplane, oplane)) in band.iter_mut().enumerate() {
                let row = first + k;
                let ch = row % c;
                let (m, s) = (mean[ch], inv_std[ch]);
                let (g, bt) = (gamma.data()[ch], beta.data()[ch]);
                let xs = &xd[row * hw..(row + 1) * hw];
                for ((nv, ov), &v) in nplane.iter_mut().zip(oplane.iter_mut()).zip(xs) {
                    *nv = (v - m) * s;
                    *ov = g * *nv + bt;
                }
            }
        });
    }
    let normalized = Tensor::from_vec(norm, x.shape().clone())?;
    Ok((Tensor::from_vec(out, x.shape().clone())?, BatchNormState { mean, inv_std, normalized }))
}

/// Batch normalisation backward pass: returns `(dx, dgamma, dbeta)`.
///
/// # Errors
///
/// Returns shape errors when `dy` disagrees with the saved state.
pub fn batch_norm_backward(
    state: &BatchNormState,
    gamma: &Tensor,
    dy: &Tensor,
) -> Result<(Tensor, Tensor, Tensor)> {
    let x_shape = state.normalized.shape().clone();
    if dy.shape() != &x_shape {
        return Err(TensorError::ShapeMismatch {
            op: "batch_norm_backward",
            lhs: dy.shape().dims().to_vec(),
            rhs: x_shape.dims().to_vec(),
        });
    }
    let (n, c, h, w) = (x_shape.dim(0), x_shape.dim(1), x_shape.dim(2), x_shape.dim(3));
    let count = (n * h * w) as f32;
    let xh = state.normalized.data();
    let dyd = dy.data();
    let hw = h * w;
    let [dgamma, dbeta] = channel_sums(n, c, hw, [dyd, xh], |_, [g, x]| [g * x, g]);
    let mut dx = vec![0.0f32; dyd.len()];
    if hw > 0 {
        let threads = par::plan_threads(dyd.len(), par::ELEMENTWISE_GRAIN, n * c);
        par::par_rows(&mut dx, hw, threads, |row, plane| {
            let ch = row % c;
            let g = gamma.data()[ch] * state.inv_std[ch] / count;
            let base = row * hw;
            for (i, v) in plane.iter_mut().enumerate() {
                *v = g * (count * dyd[base + i] - dbeta[ch] - xh[base + i] * dgamma[ch]);
            }
        });
    }
    Ok((
        Tensor::from_vec(dx, x_shape)?,
        Tensor::from_vec(dgamma, [c])?,
        Tensor::from_vec(dbeta, [c])?,
    ))
}

/// Channels whose add chains [`channel_sums`] runs side by side.
const LANES: usize = 8;

/// Per-channel sums over `[n, c, hw]` inputs: for every channel `ch`, sum
/// `s` is `Σ term(ch, [x[i] for x in inputs])[s]` over the channel's
/// element indices `i`, image-major and ascending, accumulated from `0.0`
/// — one serial add chain per channel and sum, exactly as a plain loop
/// would run it.
///
/// Each chain is latency-bound, so blocks of up to [`LANES`]
/// channels advance together: independent chains fill the adder pipeline
/// while every chain keeps its own order, so the sums are bit-identical to
/// one channel at a time.
fn channel_sums<const A: usize, const S: usize>(
    n: usize,
    c: usize,
    hw: usize,
    inputs: [&[f32]; A],
    term: impl Fn(usize, [f32; A]) -> [f32; S],
) -> [Vec<f32>; S] {
    let mut sums = std::array::from_fn(|_| vec![0.0f32; c]);
    let mut ch0 = 0;
    while ch0 < c {
        let (t, s) = (&term, &mut sums);
        ch0 += match c - ch0 {
            r if r >= LANES => channel_block::<LANES, A, S>(n, c, hw, ch0, inputs, t, s),
            r if r >= 4 => channel_block::<4, A, S>(n, c, hw, ch0, inputs, t, s),
            r if r >= 2 => channel_block::<2, A, S>(n, c, hw, ch0, inputs, t, s),
            _ => channel_block::<1, A, S>(n, c, hw, ch0, inputs, t, s),
        };
    }
    sums
}

/// Accumulates channels `ch0..ch0 + K` of [`channel_sums`] in `K·S`
/// register accumulators, reading each channel's plane of each input as one
/// slice; returns `K`.
fn channel_block<const K: usize, const A: usize, const S: usize>(
    n: usize,
    c: usize,
    hw: usize,
    ch0: usize,
    inputs: [&[f32]; A],
    term: &impl Fn(usize, [f32; A]) -> [f32; S],
    sums: &mut [Vec<f32>; S],
) -> usize {
    let mut acc = [[0.0f32; S]; K];
    for img in 0..n {
        let base = (img * c + ch0) * hw;
        let planes: [[&[f32]; A]; K] =
            std::array::from_fn(|l| inputs.map(|x| &x[base + l * hw..][..hw]));
        for i in 0..hw {
            for (l, lane) in acc.iter_mut().enumerate() {
                let t = term(ch0 + l, planes[l].map(|p| p[i]));
                for (a, v) in lane.iter_mut().zip(t) {
                    *a += v;
                }
            }
        }
    }
    for (l, lane) in acc.iter().enumerate() {
        for (sum, &a) in sums.iter_mut().zip(lane) {
            sum[ch0 + l] = a;
        }
    }
    K
}

/// Saved forward-pass statistics needed by [`layer_norm_backward`].
#[derive(Debug, Clone, PartialEq)]
pub struct LayerNormState {
    /// Per-row inverse standard deviation.
    pub inv_std: Vec<f32>,
    /// Normalised activations `x̂`.
    pub normalized: Tensor,
}

/// Layer normalisation over the last axis of `[rows, features]`
/// (Transformer sub-layer norm).
///
/// # Errors
///
/// Returns rank/shape errors for malformed operands.
pub fn layer_norm_forward(
    x: &Tensor,
    gamma: &Tensor,
    beta: &Tensor,
    eps: f32,
) -> Result<(Tensor, LayerNormState)> {
    if x.shape().rank() != 2 {
        return Err(TensorError::RankMismatch {
            op: "layer_norm",
            expected: 2,
            actual: x.shape().rank(),
        });
    }
    let (rows, feat) = (x.shape().dim(0), x.shape().dim(1));
    if gamma.len() != feat || beta.len() != feat {
        return Err(TensorError::ShapeMismatch {
            op: "layer_norm",
            lhs: x.shape().dims().to_vec(),
            rhs: gamma.shape().dims().to_vec(),
        });
    }
    let xd = x.data();
    let mut norm = vec![0.0f32; xd.len()];
    let mut out = vec![0.0f32; xd.len()];
    let mut inv_std = vec![0.0f32; rows];
    if feat > 0 {
        // Each row's statistics and normalised values depend only on that
        // row, so rows band across threads; per-row inverse stds come back
        // as band results and are stitched together in band order.
        let threads = par::plan_threads(xd.len(), par::TRANSCENDENTAL_GRAIN, rows);
        let stds = par::parallel_bands(&mut norm, feat, threads, |first, band| {
            let mut istds = Vec::with_capacity(band.len() / feat);
            for (i, nrow) in band.chunks_mut(feat).enumerate() {
                let r = first + i;
                let row = &xd[r * feat..(r + 1) * feat];
                let mean = row.iter().sum::<f32>() / feat as f32;
                let var = row.iter().map(|v| (v - mean) * (v - mean)).sum::<f32>() / feat as f32;
                let istd = 1.0 / (var + eps).sqrt();
                istds.push(istd);
                for (nv, &v) in nrow.iter_mut().zip(row) {
                    *nv = (v - mean) * istd;
                }
            }
            istds
        });
        inv_std = stds.into_iter().flatten().collect();
        par::par_rows(&mut out, feat, threads, |r, orow| {
            let nrow = &norm[r * feat..(r + 1) * feat];
            for (j, (o, &xh)) in orow.iter_mut().zip(nrow).enumerate() {
                *o = gamma.data()[j] * xh + beta.data()[j];
            }
        });
    }
    let normalized = Tensor::from_vec(norm, x.shape().clone())?;
    Ok((Tensor::from_vec(out, x.shape().clone())?, LayerNormState { inv_std, normalized }))
}

/// Layer normalisation backward pass: returns `(dx, dgamma, dbeta)`.
///
/// # Errors
///
/// Returns shape errors when `dy` disagrees with the saved state.
pub fn layer_norm_backward(
    state: &LayerNormState,
    gamma: &Tensor,
    dy: &Tensor,
) -> Result<(Tensor, Tensor, Tensor)> {
    let shape = state.normalized.shape().clone();
    if dy.shape() != &shape {
        return Err(TensorError::ShapeMismatch {
            op: "layer_norm_backward",
            lhs: dy.shape().dims().to_vec(),
            rhs: shape.dims().to_vec(),
        });
    }
    let (rows, feat) = (shape.dim(0), shape.dim(1));
    let xh = state.normalized.data();
    let dyd = dy.data();
    let mut dgamma = vec![0.0f32; feat];
    let mut dbeta = vec![0.0f32; feat];
    for r in 0..rows {
        for j in 0..feat {
            dgamma[j] += dyd[r * feat + j] * xh[r * feat + j];
            dbeta[j] += dyd[r * feat + j];
        }
    }
    let mut dx = vec![0.0f32; dyd.len()];
    if feat > 0 {
        let threads = par::plan_threads(dyd.len(), par::ELEMENTWISE_GRAIN, rows);
        par::par_rows(&mut dx, feat, threads, |r, drow| {
            let mut sum_dy = 0.0;
            let mut sum_dy_xh = 0.0;
            for j in 0..feat {
                let g = dyd[r * feat + j] * gamma.data()[j];
                sum_dy += g;
                sum_dy_xh += g * xh[r * feat + j];
            }
            let istd = state.inv_std[r];
            for (j, v) in drow.iter_mut().enumerate() {
                let g = dyd[r * feat + j] * gamma.data()[j];
                *v = istd * (g - sum_dy / feat as f32 - xh[r * feat + j] * sum_dy_xh / feat as f32);
            }
        });
    }
    Ok((
        Tensor::from_vec(dx, shape)?,
        Tensor::from_vec(dgamma, [feat])?,
        Tensor::from_vec(dbeta, [feat])?,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn batch_norm_normalizes_channels() {
        let x = Tensor::from_fn([2, 2, 2, 2], |i| i as f32);
        let gamma = Tensor::ones([2]);
        let beta = Tensor::zeros([2]);
        let (y, state) = batch_norm_forward(&x, &gamma, &beta, 1e-5).unwrap();
        // Per-channel mean of the output must be ~0, variance ~1.
        for ch in 0..2 {
            let mut vals = Vec::new();
            for img in 0..2 {
                let base = (img * 2 + ch) * 4;
                vals.extend_from_slice(&y.data()[base..base + 4]);
            }
            let mean: f32 = vals.iter().sum::<f32>() / vals.len() as f32;
            let var: f32 =
                vals.iter().map(|v| (v - mean) * (v - mean)).sum::<f32>() / vals.len() as f32;
            assert!(mean.abs() < 1e-4, "mean {mean}");
            assert!((var - 1.0).abs() < 1e-2, "var {var}");
        }
        assert_eq!(state.mean.len(), 2);
    }

    #[test]
    fn batch_norm_gamma_beta_affine() {
        let x = Tensor::from_fn([1, 1, 2, 2], |i| i as f32);
        let gamma = Tensor::from_slice(&[2.0]);
        let beta = Tensor::from_slice(&[10.0]);
        let (y, _) = batch_norm_forward(&x, &gamma, &beta, 1e-5).unwrap();
        assert!((y.mean() - 10.0).abs() < 1e-4);
    }

    #[test]
    fn batch_norm_backward_finite_difference() {
        let x = Tensor::from_fn([2, 2, 2, 2], |i| ((i * 7 % 13) as f32 - 6.0) * 0.3);
        let gamma = Tensor::from_slice(&[1.5, 0.5]);
        let beta = Tensor::from_slice(&[0.1, -0.2]);
        let loss = |x: &Tensor| {
            let (y, _) = batch_norm_forward(x, &gamma, &beta, 1e-5).unwrap();
            // Weighted sum so the gradient is not trivially uniform.
            y.data().iter().enumerate().map(|(i, v)| v * (i as f32 * 0.1).sin()).sum::<f32>()
        };
        let (y, state) = batch_norm_forward(&x, &gamma, &beta, 1e-5).unwrap();
        let dy = Tensor::from_fn(y.shape().clone(), |i| (i as f32 * 0.1).sin());
        let (dx, _, _) = batch_norm_backward(&state, &gamma, &dy).unwrap();
        let eps = 1e-2;
        for i in 0..x.len() {
            let mut xp = x.clone();
            xp.data_mut()[i] += eps;
            let mut xm = x.clone();
            xm.data_mut()[i] -= eps;
            let fd = (loss(&xp) - loss(&xm)) / (2.0 * eps);
            assert!((fd - dx.data()[i]).abs() < 2e-2, "dx[{i}] fd {fd} vs {}", dx.data()[i]);
        }
    }

    #[test]
    fn layer_norm_rows_are_standardized() {
        let x = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 10.0, 20.0, 30.0, 40.0], [2, 4]).unwrap();
        let gamma = Tensor::ones([4]);
        let beta = Tensor::zeros([4]);
        let (y, _) = layer_norm_forward(&x, &gamma, &beta, 1e-5).unwrap();
        for r in 0..2 {
            let row = &y.data()[r * 4..(r + 1) * 4];
            let mean: f32 = row.iter().sum::<f32>() / 4.0;
            assert!(mean.abs() < 1e-5);
        }
    }

    #[test]
    fn layer_norm_backward_finite_difference() {
        let x = Tensor::from_fn([3, 5], |i| ((i * 11 % 17) as f32 - 8.0) * 0.2);
        let gamma = Tensor::from_fn([5], |i| 0.5 + i as f32 * 0.25);
        let beta = Tensor::zeros([5]);
        let weights: Vec<f32> = (0..15).map(|i| ((i as f32) * 0.3).cos()).collect();
        let loss = |x: &Tensor| {
            let (y, _) = layer_norm_forward(x, &gamma, &beta, 1e-5).unwrap();
            y.data().iter().zip(&weights).map(|(v, w)| v * w).sum::<f32>()
        };
        let (_, state) = layer_norm_forward(&x, &gamma, &beta, 1e-5).unwrap();
        let dy = Tensor::from_vec(weights.clone(), [3, 5]).unwrap();
        let (dx, _, _) = layer_norm_backward(&state, &gamma, &dy).unwrap();
        let eps = 1e-2;
        for i in 0..x.len() {
            let mut xp = x.clone();
            xp.data_mut()[i] += eps;
            let mut xm = x.clone();
            xm.data_mut()[i] -= eps;
            let fd = (loss(&xp) - loss(&xm)) / (2.0 * eps);
            assert!((fd - dx.data()[i]).abs() < 2e-2, "dx[{i}] fd {fd} vs {}", dx.data()[i]);
        }
    }

    #[test]
    fn norm_rejects_bad_shapes() {
        let x = Tensor::ones([2, 3]);
        assert!(batch_norm_forward(&x, &Tensor::ones([3]), &Tensor::ones([3]), 1e-5).is_err());
        let x4 = Tensor::ones([1, 3, 2, 2]);
        assert!(batch_norm_forward(&x4, &Tensor::ones([2]), &Tensor::ones([2]), 1e-5).is_err());
        assert!(layer_norm_forward(&x, &Tensor::ones([4]), &Tensor::ones([4]), 1e-5).is_err());
    }
}
