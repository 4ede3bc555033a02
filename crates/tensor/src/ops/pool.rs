//! Spatial pooling kernels (max, average, global average).

use super::conv::{conv2d_output_hw, tap_range, zip_strided, zip_strided_mut, Conv2dConfig};
use crate::{Result, Tensor, TensorError};
use std::ops::Range;

/// Window configuration for 2-D pooling.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Pool2dConfig {
    /// Window height and width (square window).
    pub kernel: usize,
    /// Vertical and horizontal stride.
    pub stride: usize,
    /// Zero padding on every border (max pooling pads with −∞ semantics).
    pub padding: usize,
}

impl Pool2dConfig {
    /// Creates a pooling config; `kernel` and `stride` are clamped to ≥ 1.
    pub fn new(kernel: usize, stride: usize, padding: usize) -> Self {
        Pool2dConfig { kernel: kernel.max(1), stride: stride.max(1), padding }
    }

    fn conv_cfg(self) -> Conv2dConfig {
        Conv2dConfig { stride: self.stride, pad_h: self.padding, pad_w: self.padding }
    }
}

fn pool_dims(x: &Tensor, cfg: Pool2dConfig) -> Result<(usize, usize, usize, usize, usize, usize)> {
    if x.shape().rank() != 4 {
        return Err(TensorError::RankMismatch {
            op: "pool2d",
            expected: 4,
            actual: x.shape().rank(),
        });
    }
    let (n, c, h, w) = (x.shape().dim(0), x.shape().dim(1), x.shape().dim(2), x.shape().dim(3));
    let (oh, ow) = conv2d_output_hw(h, w, cfg.kernel, cfg.kernel, cfg.conv_cfg()).ok_or(
        TensorError::InvalidArgument {
            op: "pool2d",
            reason: format!("window {k} larger than padded input {h}x{w}", k = cfg.kernel),
        },
    )?;
    Ok((n, c, h, w, oh, ow))
}

/// Row-range walk shared by the windowed pooling kernels.
///
/// Window tap `(ky, kx)` of output row `oy` reads input row
/// `iy = oy·stride + ky − padding` at the output columns [`tap_range`]
/// marks valid: one (strided) row segment per tap, with no per-element
/// bounds arithmetic. [`Taps::walk`] yields the segments with `ky`
/// ascending per `oy` and `kx` ascending (descending with `rev_kx`) per
/// `ky`, so every output still meets its window taps in `(ky, kx)` order,
/// exactly as a per-element window loop visits them.
struct Taps {
    kernel: usize,
    stride: usize,
    padding: usize,
    h: usize,
    oh: usize,
    /// Valid `[ox0, ox1)` output columns of each tap column `kx`.
    cols: Vec<(usize, usize)>,
}

impl Taps {
    fn new(cfg: Pool2dConfig, h: usize, w: usize, oh: usize, ow: usize) -> Self {
        let (kernel, stride, padding) = (cfg.kernel, cfg.stride, cfg.padding);
        let cols = (0..kernel).map(|kx| tap_range(w, ow, kx, padding, stride)).collect();
        Taps { kernel, stride, padding, h, oh, cols }
    }

    /// Calls `visit(oy, iy, ox0..ox1, ix0)` for every non-empty segment;
    /// `ix0` is the input column of output column `ox0`, and successive
    /// output columns step `stride` input columns.
    fn walk(&self, rev_kx: bool, mut visit: impl FnMut(usize, usize, Range<usize>, usize)) {
        let (k, s, pad) = (self.kernel, self.stride, self.padding);
        for oy in 0..self.oh {
            let ky0 = pad.saturating_sub(oy * s);
            let ky1 = (self.h + pad).saturating_sub(oy * s).min(k);
            for ky in ky0..ky1 {
                let iy = oy * s + ky - pad;
                for j in 0..k {
                    let kx = if rev_kx { k - 1 - j } else { j };
                    let (ox0, ox1) = self.cols[kx];
                    if ox0 < ox1 {
                        visit(oy, iy, ox0..ox1, ox0 * s + kx - pad);
                    }
                }
            }
        }
    }
}

/// Max pooling forward pass over `[n, c, h, w]`.
///
/// Returns `(output, argmax)`; `argmax` stores, for every output element, the
/// flat input index of the winning element and feeds
/// [`max_pool2d_backward`]. Ties (and NaN, which never compares greater)
/// keep the first element in window `(ky, kx)` order.
///
/// # Errors
///
/// Returns rank/argument errors for malformed input.
pub fn max_pool2d_forward(x: &Tensor, cfg: Pool2dConfig) -> Result<(Tensor, Vec<usize>)> {
    let (n, c, h, w, oh, ow) = pool_dims(x, cfg)?;
    let mut out = vec![f32::NEG_INFINITY; n * c * oh * ow];
    let mut arg = vec![0usize; n * c * oh * ow];
    let xd = x.data();
    let taps = Taps::new(cfg, h, w, oh, ow);
    for p in 0..n * c {
        let base = p * h * w;
        let plane = &xd[base..base + h * w];
        let outp = &mut out[p * oh * ow..(p + 1) * oh * ow];
        let argp = &mut arg[p * oh * ow..(p + 1) * oh * ow];
        taps.walk(false, |oy, iy, ox, ix0| {
            let (first, mut ii) = (oy * ow + ox.start, base + iy * w + ix0);
            let argseg = &mut argp[first..oy * ow + ox.end];
            let mut j = 0;
            let src = &plane[iy * w + ix0..(iy + 1) * w];
            zip_strided(&mut outp[first..oy * ow + ox.end], src, cfg.stride, |o, &v| {
                if v > *o {
                    *o = v;
                    argseg[j] = ii;
                }
                j += 1;
                ii += cfg.stride;
            });
        });
    }
    // Fully padded windows (possible with large padding) act as zero.
    for (o, a) in out.iter_mut().zip(&mut arg) {
        if *o == f32::NEG_INFINITY {
            *o = 0.0;
            *a = usize::MAX;
        }
    }
    Ok((Tensor::from_vec(out, [n, c, oh, ow])?, arg))
}

/// Max pooling backward pass: routes each `dy` element to its argmax source.
///
/// # Errors
///
/// Returns [`TensorError::LengthMismatch`] when `dy` and `argmax` disagree.
pub fn max_pool2d_backward(
    input_shape: &crate::Shape,
    argmax: &[usize],
    dy: &Tensor,
) -> Result<Tensor> {
    if argmax.len() != dy.len() {
        return Err(TensorError::LengthMismatch { expected: argmax.len(), actual: dy.len() });
    }
    let mut dx = vec![0.0f32; input_shape.len()];
    for (&src, &g) in argmax.iter().zip(dy.data()) {
        if src != usize::MAX {
            dx[src] += g;
        }
    }
    Tensor::from_vec(dx, input_shape.clone())
}

/// Average pooling forward pass over `[n, c, h, w]`.
///
/// Divides by the full window area (count-includes-padding), matching the
/// cuDNN default the frameworks use.
///
/// # Errors
///
/// Returns rank/argument errors for malformed input.
pub fn avg_pool2d_forward(x: &Tensor, cfg: Pool2dConfig) -> Result<Tensor> {
    let (n, c, h, w, oh, ow) = pool_dims(x, cfg)?;
    let area = (cfg.kernel * cfg.kernel) as f32;
    let xd = x.data();
    let mut out = vec![0.0f32; n * c * oh * ow];
    let taps = Taps::new(cfg, h, w, oh, ow);
    for p in 0..n * c {
        let plane = &xd[p * h * w..(p + 1) * h * w];
        let outp = &mut out[p * oh * ow..(p + 1) * oh * ow];
        taps.walk(false, |oy, iy, ox, ix0| {
            let dst = &mut outp[oy * ow + ox.start..oy * ow + ox.end];
            zip_strided(dst, &plane[iy * w + ix0..], cfg.stride, |o, v| *o += v);
        });
    }
    for o in &mut out {
        *o /= area;
    }
    Tensor::from_vec(out, [n, c, oh, ow])
}

/// Average pooling backward pass: spreads each `dy` element uniformly over
/// its window.
///
/// # Errors
///
/// Returns rank/argument errors for malformed input.
pub fn avg_pool2d_backward(
    input_shape: &crate::Shape,
    dy: &Tensor,
    cfg: Pool2dConfig,
) -> Result<Tensor> {
    if input_shape.rank() != 4 {
        return Err(TensorError::RankMismatch {
            op: "avg_pool2d_backward",
            expected: 4,
            actual: input_shape.rank(),
        });
    }
    let (n, c, h, w) =
        (input_shape.dim(0), input_shape.dim(1), input_shape.dim(2), input_shape.dim(3));
    let (oh, ow) = (dy.shape().dim(2), dy.shape().dim(3));
    let area = (cfg.kernel * cfg.kernel) as f32;
    let g: Vec<f32> = dy.data().iter().map(|v| v / area).collect();
    let mut dx = vec![0.0f32; input_shape.len()];
    let taps = Taps::new(cfg, h, w, oh, ow);
    for p in 0..n * c {
        let gp = &g[p * oh * ow..(p + 1) * oh * ow];
        let dxp = &mut dx[p * h * w..(p + 1) * h * w];
        // Taps of one row run `kx` descending so that, within an output
        // row, each input element receives its contributions in ascending
        // `ox` — the (oy, ox) order of a per-output scatter loop.
        taps.walk(true, |oy, iy, ox, ix0| {
            let src = &gp[oy * ow + ox.start..oy * ow + ox.end];
            zip_strided_mut(&mut dxp[iy * w + ix0..], src, cfg.stride, |d, g| *d += g);
        });
    }
    Tensor::from_vec(dx, input_shape.clone())
}

/// Global average pooling: `[n, c, h, w]` → `[n, c]` (ResNet/Inception
/// heads).
///
/// # Errors
///
/// Returns a rank error unless the input is rank 4.
pub fn global_avg_pool_forward(x: &Tensor) -> Result<Tensor> {
    if x.shape().rank() != 4 {
        return Err(TensorError::RankMismatch {
            op: "global_avg_pool",
            expected: 4,
            actual: x.shape().rank(),
        });
    }
    let (n, c, h, w) = (x.shape().dim(0), x.shape().dim(1), x.shape().dim(2), x.shape().dim(3));
    let area = (h * w) as f32;
    let mut out = vec![0.0f32; n * c];
    for (i, o) in out.iter_mut().enumerate() {
        *o = x.data()[i * h * w..(i + 1) * h * w].iter().sum::<f32>() / area;
    }
    Tensor::from_vec(out, [n, c])
}

/// Backward of [`global_avg_pool_forward`].
///
/// # Errors
///
/// Returns a rank error unless `input_shape` is rank 4.
pub fn global_avg_pool_backward(input_shape: &crate::Shape, dy: &Tensor) -> Result<Tensor> {
    if input_shape.rank() != 4 {
        return Err(TensorError::RankMismatch {
            op: "global_avg_pool_backward",
            expected: 4,
            actual: input_shape.rank(),
        });
    }
    let (h, w) = (input_shape.dim(2), input_shape.dim(3));
    let area = (h * w) as f32;
    let mut dx = vec![0.0f32; input_shape.len()];
    for i in 0..dy.len() {
        let g = dy.data()[i] / area;
        for v in &mut dx[i * h * w..(i + 1) * h * w] {
            *v = g;
        }
    }
    Tensor::from_vec(dx, input_shape.clone())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn max_pool_picks_window_max() {
        let x = Tensor::from_vec(
            vec![
                1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0, 11.0, 12.0, 13.0, 14.0, 15.0,
                16.0,
            ],
            [1, 1, 4, 4],
        )
        .unwrap();
        let (y, arg) = max_pool2d_forward(&x, Pool2dConfig::new(2, 2, 0)).unwrap();
        assert_eq!(y.data(), &[6.0, 8.0, 14.0, 16.0]);
        assert_eq!(arg, vec![5, 7, 13, 15]);
    }

    #[test]
    fn max_pool_backward_routes_to_argmax() {
        let x = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], [1, 1, 2, 2]).unwrap();
        let (_, arg) = max_pool2d_forward(&x, Pool2dConfig::new(2, 2, 0)).unwrap();
        let dy = Tensor::from_vec(vec![5.0], [1, 1, 1, 1]).unwrap();
        let dx = max_pool2d_backward(x.shape(), &arg, &dy).unwrap();
        assert_eq!(dx.data(), &[0.0, 0.0, 0.0, 5.0]);
    }

    #[test]
    fn avg_pool_averages() {
        let x = Tensor::from_vec(vec![1.0, 3.0, 5.0, 7.0], [1, 1, 2, 2]).unwrap();
        let y = avg_pool2d_forward(&x, Pool2dConfig::new(2, 2, 0)).unwrap();
        assert_eq!(y.data(), &[4.0]);
    }

    #[test]
    fn avg_pool_backward_spreads_uniformly() {
        let shape = crate::Shape::new(&[1, 1, 2, 2]);
        let dy = Tensor::from_vec(vec![4.0], [1, 1, 1, 1]).unwrap();
        let dx = avg_pool2d_backward(&shape, &dy, Pool2dConfig::new(2, 2, 0)).unwrap();
        assert_eq!(dx.data(), &[1.0, 1.0, 1.0, 1.0]);
    }

    #[test]
    fn global_avg_pool_reduces_spatial_dims() {
        let x = Tensor::from_fn([2, 3, 2, 2], |i| i as f32);
        let y = global_avg_pool_forward(&x).unwrap();
        assert_eq!(y.shape().dims(), &[2, 3]);
        assert_eq!(y.data()[0], 1.5); // mean of 0,1,2,3
        let dy = Tensor::ones([2, 3]);
        let dx = global_avg_pool_backward(x.shape(), &dy).unwrap();
        assert!(dx.data().iter().all(|&v| (v - 0.25).abs() < 1e-6));
    }

    #[test]
    fn pooling_rejects_rank_3() {
        let x = Tensor::ones([2, 3, 3]);
        assert!(max_pool2d_forward(&x, Pool2dConfig::new(2, 2, 0)).is_err());
        assert!(global_avg_pool_forward(&x).is_err());
    }

    #[test]
    fn padded_max_pool_ignores_padding() {
        // With padding 1 the corners see a 2x2 real region.
        let x = Tensor::from_vec(vec![-1.0, -2.0, -3.0, -4.0], [1, 1, 2, 2]).unwrap();
        let (y, _) = max_pool2d_forward(&x, Pool2dConfig::new(3, 2, 1)).unwrap();
        // All values negative: padding must not contribute zeros.
        assert_eq!(y.data(), &[-1.0]);
    }
}

/// Nearest-neighbour 2× spatial upsampling of `[n, c, h, w]` (GAN
/// generators).
///
/// # Errors
///
/// Returns a rank error unless the input is rank 4.
pub fn upsample2x_forward(x: &Tensor) -> Result<Tensor> {
    if x.shape().rank() != 4 {
        return Err(TensorError::RankMismatch {
            op: "upsample2x",
            expected: 4,
            actual: x.shape().rank(),
        });
    }
    let (n, c, h, w) = (x.shape().dim(0), x.shape().dim(1), x.shape().dim(2), x.shape().dim(3));
    let (oh, ow) = (2 * h, 2 * w);
    let mut out = vec![0.0f32; n * c * oh * ow];
    for i in 0..n * c {
        let src = &x.data()[i * h * w..(i + 1) * h * w];
        let dst = &mut out[i * oh * ow..(i + 1) * oh * ow];
        for y in 0..oh {
            for xq in 0..ow {
                dst[y * ow + xq] = src[(y / 2) * w + xq / 2];
            }
        }
    }
    Tensor::from_vec(out, [n, c, oh, ow])
}

/// Backward of [`upsample2x_forward`]: sums each 2×2 output block into its
/// source pixel.
///
/// # Errors
///
/// Returns a rank error unless `input_shape` is rank 4.
pub fn upsample2x_backward(input_shape: &crate::Shape, dy: &Tensor) -> Result<Tensor> {
    if input_shape.rank() != 4 {
        return Err(TensorError::RankMismatch {
            op: "upsample2x_backward",
            expected: 4,
            actual: input_shape.rank(),
        });
    }
    let (n, c, h, w) =
        (input_shape.dim(0), input_shape.dim(1), input_shape.dim(2), input_shape.dim(3));
    let (oh, ow) = (2 * h, 2 * w);
    let mut dx = vec![0.0f32; input_shape.len()];
    for i in 0..n * c {
        let src = &dy.data()[i * oh * ow..(i + 1) * oh * ow];
        let dst = &mut dx[i * h * w..(i + 1) * h * w];
        for y in 0..oh {
            for xq in 0..ow {
                dst[(y / 2) * w + xq / 2] += src[y * ow + xq];
            }
        }
    }
    Tensor::from_vec(dx, input_shape.clone())
}

#[cfg(test)]
mod upsample_tests {
    use super::*;

    #[test]
    fn upsample_repeats_pixels() {
        let x = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], [1, 1, 2, 2]).unwrap();
        let y = upsample2x_forward(&x).unwrap();
        assert_eq!(y.shape().dims(), &[1, 1, 4, 4]);
        assert_eq!(y.at(&[0, 0, 0, 0]), 1.0);
        assert_eq!(y.at(&[0, 0, 1, 1]), 1.0);
        assert_eq!(y.at(&[0, 0, 3, 3]), 4.0);
        assert_eq!(y.sum(), 4.0 * x.sum());
    }

    #[test]
    fn upsample_backward_sums_blocks() {
        let shape = crate::Shape::new(&[1, 1, 2, 2]);
        let dy = Tensor::ones([1, 1, 4, 4]);
        let dx = upsample2x_backward(&shape, &dy).unwrap();
        assert_eq!(dx.data(), &[4.0, 4.0, 4.0, 4.0]);
    }

    #[test]
    fn upsample_rejects_rank_2() {
        assert!(upsample2x_forward(&Tensor::ones([2, 2])).is_err());
    }
}
