//! 2-D convolution via im2col + GEMM, the lowering cuDNN applies for its
//! `IMPLICIT_GEMM` algorithms and the reason convolutional workloads reach
//! high FP32 utilisation in the paper (they spend their time inside large
//! GEMMs).
//!
//! Layout is `NCHW` for activations and `[out_c, in_c, kh, kw]` for filters.
//!
//! Both passes band the batch (`N`) axis across scoped threads: every image
//! is an independent im2col + GEMM, so each band lowers and multiplies its
//! own images with the packed *serial* GEMM (the fan-out already happened at
//! image granularity; nesting thread scopes would only oversubscribe).

use super::linalg::{gemm_serial_into, gemm_serial_nt_into, GEMM_WORK_PER_THREAD};
use crate::{arena, par};
use crate::{Result, Tensor, TensorError};

/// Stride and zero-padding configuration for a 2-D convolution or pooling
/// window.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Conv2dConfig {
    /// Vertical and horizontal stride (same in both directions).
    pub stride: usize,
    /// Zero padding added above and below.
    pub pad_h: usize,
    /// Zero padding added left and right.
    pub pad_w: usize,
}

impl Conv2dConfig {
    /// Creates a config with symmetric padding; `stride` must be at least 1.
    pub fn new(stride: usize, padding: usize) -> Self {
        Conv2dConfig { stride: stride.max(1), pad_h: padding, pad_w: padding }
    }

    /// Creates a config with separate vertical/horizontal padding (needed by
    /// Inception-v3's factorised 1×7 / 7×1 convolutions).
    pub fn with_pads(stride: usize, pad_h: usize, pad_w: usize) -> Self {
        Conv2dConfig { stride: stride.max(1), pad_h, pad_w }
    }
}

impl Default for Conv2dConfig {
    fn default() -> Self {
        Conv2dConfig { stride: 1, pad_h: 0, pad_w: 0 }
    }
}

/// Computes the output spatial size of a convolution/pooling window.
///
/// Returns `None` when the window does not fit the padded input.
pub fn conv2d_output_hw(
    h: usize,
    w: usize,
    kh: usize,
    kw: usize,
    cfg: Conv2dConfig,
) -> Option<(usize, usize)> {
    let ph = h + 2 * cfg.pad_h;
    let pw = w + 2 * cfg.pad_w;
    if kh > ph || kw > pw {
        return None;
    }
    Some(((ph - kh) / cfg.stride + 1, (pw - kw) / cfg.stride + 1))
}

/// The half-open range `[lo, hi)` of output positions `o < out` whose input
/// coordinate `o·stride + k − pad` lands inside `[0, len)` — the row (or
/// column) segment of one kernel tap that reads real input rather than
/// padding. Empty (`lo == hi`) when the tap only ever sees padding.
pub(crate) fn tap_range(
    len: usize,
    out: usize,
    k: usize,
    pad: usize,
    stride: usize,
) -> (usize, usize) {
    let hi = if len + pad > k { (len + pad - k).div_ceil(stride).min(out) } else { 0 };
    let lo = pad.saturating_sub(k).div_ceil(stride).min(hi);
    (lo, hi)
}

/// Unfolds image patches into columns: input `[c, h, w]` becomes
/// `[c*kh*kw, oh*ow]`.
///
/// Row-range lowering: each kernel tap `(ch, ky, kx)` resolves its valid
/// output rows and columns once (`tap_range`), then copies one whole
/// (strided) row segment per valid output row (`zip_strided`). Padding
/// positions keep the zeroed buffer's `0.0`.
pub fn im2col(
    input: &[f32],
    c: usize,
    h: usize,
    w: usize,
    kh: usize,
    kw: usize,
    cfg: Conv2dConfig,
) -> Vec<f32> {
    let (oh, ow) = conv2d_output_hw(h, w, kh, kw, cfg).expect("window must fit input");
    let cols_w = oh * ow;
    let s = cfg.stride;
    // Arena-pooled: padding positions rely on the zeroed buffer, and the
    // same unfold shapes recur for every image of a batch.
    let mut cols = arena::take_zeroed(c * kh * kw * cols_w);
    if cols.is_empty() || h * w == 0 {
        return cols;
    }
    for (plane, taps) in input.chunks_exact(h * w).zip(cols.chunks_exact_mut(kh * kw * cols_w)) {
        for (ky, rows) in taps.chunks_exact_mut(kw * cols_w).enumerate() {
            let (oy0, oy1) = tap_range(h, oh, ky, cfg.pad_h, s);
            for (kx, row) in rows.chunks_exact_mut(cols_w).enumerate() {
                let (ox0, ox1) = tap_range(w, ow, kx, cfg.pad_w, s);
                if ox0 == ox1 {
                    continue;
                }
                let ix0 = ox0 * s + kx - cfg.pad_w;
                for oy in oy0..oy1 {
                    let src = &plane[(oy * s + ky - cfg.pad_h) * w + ix0..];
                    let dst = &mut row[oy * ow + ox0..oy * ow + ox1];
                    zip_strided(dst, src, s, |d, v| *d = *v);
                }
            }
        }
    }
    cols
}

/// Folds columns back into an image, accumulating overlaps — the adjoint of
/// [`im2col`], used by the data-gradient path of the backward pass.
///
/// The same row-range walk as [`im2col`], as `+=` over row segments. The
/// loop order stays `ch, ky, kx, oy`: one tap reaches an image element at
/// most once, so every element still receives its contributions in
/// ascending `(ky, kx)` order and the sums are bitwise those of a
/// per-element loop.
pub fn col2im(
    cols: &[f32],
    c: usize,
    h: usize,
    w: usize,
    kh: usize,
    kw: usize,
    cfg: Conv2dConfig,
) -> Vec<f32> {
    let (oh, ow) = conv2d_output_hw(h, w, kh, kw, cfg).expect("window must fit input");
    let cols_w = oh * ow;
    let s = cfg.stride;
    let mut img = arena::take_zeroed(c * h * w);
    if img.is_empty() || cols.is_empty() {
        return img;
    }
    for (plane, taps) in img.chunks_exact_mut(h * w).zip(cols.chunks_exact(kh * kw * cols_w)) {
        for (ky, rows) in taps.chunks_exact(kw * cols_w).enumerate() {
            let (oy0, oy1) = tap_range(h, oh, ky, cfg.pad_h, s);
            for (kx, row) in rows.chunks_exact(cols_w).enumerate() {
                let (ox0, ox1) = tap_range(w, ow, kx, cfg.pad_w, s);
                if ox0 == ox1 {
                    continue;
                }
                let ix0 = ox0 * s + kx - cfg.pad_w;
                for oy in oy0..oy1 {
                    let dst = &mut plane[(oy * s + ky - cfg.pad_h) * w + ix0..];
                    let src = &row[oy * ow + ox0..oy * ow + ox1];
                    zip_strided_mut(dst, src, s, |d, v| *d += v);
                }
            }
        }
    }
    img
}

/// Calls `f(&mut dst[j], &src[j·stride])` for every `j < dst.len()`: the
/// strided read of one row segment. `src` must hold index
/// `(dst.len() − 1)·stride`.
///
/// `src` is walked as `chunks_exact(stride)` (the last element apart, whose
/// chunk may run past the slice), which leaves the loop without bounds
/// checks; strides 1 and 2 are dispatched as literals so their loops
/// inline with a constant step and vectorise.
#[inline(always)]
pub(crate) fn zip_strided(
    dst: &mut [f32],
    src: &[f32],
    stride: usize,
    f: impl FnMut(&mut f32, &f32),
) {
    match stride {
        1 => zip_chunks(dst, src, 1, f),
        2 => zip_chunks(dst, src, 2, f),
        s => zip_chunks(dst, src, s, f),
    }
}

/// [`zip_strided`] with the stride on the written side: calls
/// `f(&mut dst[j·stride], &src[j])` for every `j < src.len()`.
#[inline(always)]
pub(crate) fn zip_strided_mut(
    dst: &mut [f32],
    src: &[f32],
    stride: usize,
    f: impl FnMut(&mut f32, &f32),
) {
    match stride {
        1 => zip_chunks_mut(dst, src, 1, f),
        2 => zip_chunks_mut(dst, src, 2, f),
        s => zip_chunks_mut(dst, src, s, f),
    }
}

#[inline(always)]
fn zip_chunks(dst: &mut [f32], src: &[f32], stride: usize, mut f: impl FnMut(&mut f32, &f32)) {
    let Some((last, body)) = dst.split_last_mut() else { return };
    for (d, chunk) in body.iter_mut().zip(src.chunks_exact(stride)) {
        f(d, &chunk[0]);
    }
    f(last, &src[body.len() * stride]);
}

#[inline(always)]
fn zip_chunks_mut(dst: &mut [f32], src: &[f32], stride: usize, mut f: impl FnMut(&mut f32, &f32)) {
    let Some((last, body)) = src.split_last() else { return };
    for (chunk, v) in dst.chunks_exact_mut(stride).zip(body) {
        f(&mut chunk[0], v);
    }
    f(&mut dst[body.len() * stride], last);
}

/// `(n, c, h, w, oc, kh, kw, oh, ow)` resolved and validated by [`conv_dims`].
type ConvDims = (usize, usize, usize, usize, usize, usize, usize, usize, usize);

fn conv_dims(x: &Tensor, weight: &Tensor, cfg: Conv2dConfig) -> Result<ConvDims> {
    if x.shape().rank() != 4 {
        return Err(TensorError::RankMismatch {
            op: "conv2d",
            expected: 4,
            actual: x.shape().rank(),
        });
    }
    if weight.shape().rank() != 4 {
        return Err(TensorError::RankMismatch {
            op: "conv2d",
            expected: 4,
            actual: weight.shape().rank(),
        });
    }
    let (n, c, h, w) = (x.shape().dim(0), x.shape().dim(1), x.shape().dim(2), x.shape().dim(3));
    let (oc, ic, kh, kw) = (
        weight.shape().dim(0),
        weight.shape().dim(1),
        weight.shape().dim(2),
        weight.shape().dim(3),
    );
    if ic != c {
        return Err(TensorError::ShapeMismatch {
            op: "conv2d",
            lhs: x.shape().dims().to_vec(),
            rhs: weight.shape().dims().to_vec(),
        });
    }
    let (oh, ow) = conv2d_output_hw(h, w, kh, kw, cfg).ok_or(TensorError::InvalidArgument {
        op: "conv2d",
        reason: format!("kernel {kh}x{kw} larger than padded input {h}x{w}"),
    })?;
    Ok((n, c, h, w, oc, kh, kw, oh, ow))
}

/// 2-D convolution forward pass.
///
/// `x` is `[n, c, h, w]`, `weight` is `[oc, c, kh, kw]`; the result is
/// `[n, oc, oh, ow]`.
///
/// # Errors
///
/// Returns rank/shape errors for malformed operands and
/// [`TensorError::InvalidArgument`] when the kernel does not fit.
pub fn conv2d_forward(x: &Tensor, weight: &Tensor, cfg: Conv2dConfig) -> Result<Tensor> {
    let (n, c, h, w, oc, kh, kw, oh, ow) = conv_dims(x, weight, cfg)?;
    let patch = c * kh * kw;
    let cols_w = oh * ow;
    let wd = weight.data();
    let xd = x.data();
    let img_out = oc * cols_w;
    let mut out = vec![0.0f32; n * img_out];
    if img_out > 0 {
        let threads = par::plan_threads(n * img_out * patch, GEMM_WORK_PER_THREAD, n);
        par::parallel_bands(&mut out, img_out, threads, |first, band| {
            for (j, dst) in band.chunks_mut(img_out).enumerate() {
                let img = first + j;
                let cols =
                    im2col(&xd[img * c * h * w..(img + 1) * c * h * w], c, h, w, kh, kw, cfg);
                // GEMM: [oc, patch] x [patch, cols_w]
                gemm_serial_into(dst, wd, &cols, oc, patch, cols_w);
                arena::recycle(cols);
            }
        });
    }
    Tensor::from_vec(out, [n, oc, oh, ow])
}

/// 2-D convolution backward pass: returns `(dx, dweight)` given the upstream
/// gradient `dy` of shape `[n, oc, oh, ow]`.
///
/// # Errors
///
/// Returns rank/shape errors for malformed operands.
pub fn conv2d_backward(
    x: &Tensor,
    weight: &Tensor,
    dy: &Tensor,
    cfg: Conv2dConfig,
) -> Result<(Tensor, Tensor)> {
    let (n, c, h, w, oc, kh, kw, oh, ow) = conv_dims(x, weight, cfg)?;
    if dy.shape().dims() != [n, oc, oh, ow] {
        return Err(TensorError::ShapeMismatch {
            op: "conv2d_backward",
            lhs: dy.shape().dims().to_vec(),
            rhs: vec![n, oc, oh, ow],
        });
    }
    let patch = c * kh * kw;
    let cols_w = oh * ow;
    let wd = weight.data();
    let xd = x.data();
    let dyd = dy.data();
    let img_in = c * h * w;
    // Wᵀ ([patch, oc]) packed once, shared read-only by every band.
    let mut wt = vec![0.0f32; patch * oc];
    for o in 0..oc {
        for p in 0..patch {
            wt[p * oc + o] = wd[o * patch + p];
        }
    }
    let mut dweight = vec![0.0f32; oc * patch];
    let mut dx = vec![0.0f32; n * img_in];
    if n > 0 && img_in > 0 {
        // Two GEMMs per image; each band keeps one dW partial *per image* so
        // no synchronisation is needed, and the fold below runs in global
        // image order. Bands are contiguous image ranges, so the summation
        // grouping is identical for every thread count — dW is bitwise
        // deterministic, matching the executor's determinism contract.
        let threads = par::plan_threads(2 * n * oc * patch * cols_w, GEMM_WORK_PER_THREAD, n);
        let partials = par::parallel_bands(&mut dx, img_in, threads, |first, band| {
            let mut dws = Vec::with_capacity(band.len() / img_in);
            for (j, dximg) in band.chunks_mut(img_in).enumerate() {
                let img = first + j;
                let cols = im2col(&xd[img * img_in..(img + 1) * img_in], c, h, w, kh, kw, cfg);
                let dyi = &dyd[img * oc * cols_w..(img + 1) * oc * cols_w];
                // dW_img = dY · colsᵀ  ([oc, cols_w] x [cols_w, patch]), with
                // colsᵀ read straight from `cols` by the GEMM's packing.
                let mut dw_img = arena::take_zeroed(oc * patch);
                gemm_serial_nt_into(&mut dw_img, dyi, &cols, oc, cols_w, patch);
                arena::recycle(cols);
                dws.push(dw_img);
                // dcols = Wᵀ · dY  ([patch, oc] x [oc, cols_w]), then col2im.
                let mut dcols = arena::take_zeroed(patch * cols_w);
                gemm_serial_into(&mut dcols, &wt, dyi, patch, oc, cols_w);
                let dimg = col2im(&dcols, c, h, w, kh, kw, cfg);
                arena::recycle(dcols);
                dximg.copy_from_slice(&dimg);
                arena::recycle(dimg);
            }
            dws
        });
        for part in partials.into_iter().flatten() {
            for (d, v) in dweight.iter_mut().zip(&part) {
                *d += v;
            }
            arena::recycle(part);
        }
    }
    Ok((
        Tensor::from_vec(dx, x.shape().clone())?,
        Tensor::from_vec(dweight, weight.shape().clone())?,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn output_size_formula() {
        assert_eq!(conv2d_output_hw(224, 224, 7, 7, Conv2dConfig::new(2, 3)), Some((112, 112)));
        assert_eq!(conv2d_output_hw(5, 5, 3, 3, Conv2dConfig::default()), Some((3, 3)));
        assert_eq!(conv2d_output_hw(2, 2, 5, 5, Conv2dConfig::default()), None);
    }

    #[test]
    fn identity_kernel_preserves_input() {
        // 1x1 kernel with weight 1 is the identity.
        let x = Tensor::from_vec((0..16).map(|v| v as f32).collect(), [1, 1, 4, 4]).unwrap();
        let w = Tensor::ones([1, 1, 1, 1]);
        let y = conv2d_forward(&x, &w, Conv2dConfig::default()).unwrap();
        assert_eq!(y.data(), x.data());
    }

    #[test]
    fn known_3x3_convolution() {
        // All-ones 3x3 input, all-ones 3x3 kernel, padding 1:
        // centre sees 9 ones, edges 6, corners 4.
        let x = Tensor::ones([1, 1, 3, 3]);
        let w = Tensor::ones([1, 1, 3, 3]);
        let y = conv2d_forward(&x, &w, Conv2dConfig::new(1, 1)).unwrap();
        assert_eq!(y.shape().dims(), &[1, 1, 3, 3]);
        assert_eq!(y.data(), &[4.0, 6.0, 4.0, 6.0, 9.0, 6.0, 4.0, 6.0, 4.0]);
    }

    #[test]
    fn multi_channel_sums_channels() {
        let x = Tensor::ones([1, 3, 2, 2]);
        let w = Tensor::ones([2, 3, 1, 1]);
        let y = conv2d_forward(&x, &w, Conv2dConfig::default()).unwrap();
        assert_eq!(y.shape().dims(), &[1, 2, 2, 2]);
        assert!(y.data().iter().all(|&v| v == 3.0));
    }

    #[test]
    fn stride_downsamples() {
        let x = Tensor::ones([1, 1, 4, 4]);
        let w = Tensor::ones([1, 1, 2, 2]);
        let y = conv2d_forward(&x, &w, Conv2dConfig::new(2, 0)).unwrap();
        assert_eq!(y.shape().dims(), &[1, 1, 2, 2]);
        assert!(y.data().iter().all(|&v| v == 4.0));
    }

    #[test]
    fn rejects_channel_mismatch() {
        let x = Tensor::ones([1, 3, 4, 4]);
        let w = Tensor::ones([1, 2, 3, 3]);
        assert!(conv2d_forward(&x, &w, Conv2dConfig::default()).is_err());
    }

    #[test]
    fn im2col_col2im_adjointness() {
        // <im2col(x), y> == <x, col2im(y)> must hold for adjoint pairs.
        let (c, h, w, kh, kw) = (2, 4, 4, 3, 3);
        let cfg = Conv2dConfig::new(1, 1);
        let x: Vec<f32> = (0..c * h * w).map(|v| (v as f32 * 0.37).sin()).collect();
        let cols = im2col(&x, c, h, w, kh, kw, cfg);
        let y: Vec<f32> = (0..cols.len()).map(|v| (v as f32 * 0.11).cos()).collect();
        let lhs: f32 = cols.iter().zip(&y).map(|(a, b)| a * b).sum();
        let img = col2im(&y, c, h, w, kh, kw, cfg);
        let rhs: f32 = x.iter().zip(&img).map(|(a, b)| a * b).sum();
        assert!((lhs - rhs).abs() < 1e-3, "{lhs} vs {rhs}");
    }

    #[test]
    fn backward_matches_finite_differences() {
        let cfg = Conv2dConfig::new(1, 1);
        let x = Tensor::from_fn([1, 2, 3, 3], |i| ((i * 7 % 13) as f32 - 6.0) * 0.1);
        let w = Tensor::from_fn([2, 2, 3, 3], |i| ((i * 5 % 11) as f32 - 5.0) * 0.1);
        let y = conv2d_forward(&x, &w, cfg).unwrap();
        let dy = Tensor::ones(y.shape().clone());
        let (dx, dw) = conv2d_backward(&x, &w, &dy, cfg).unwrap();
        let eps = 1e-2;
        for i in (0..x.len()).step_by(3) {
            let mut xp = x.clone();
            xp.data_mut()[i] += eps;
            let mut xm = x.clone();
            xm.data_mut()[i] -= eps;
            let fd = (conv2d_forward(&xp, &w, cfg).unwrap().sum()
                - conv2d_forward(&xm, &w, cfg).unwrap().sum())
                / (2.0 * eps);
            assert!((fd - dx.data()[i]).abs() < 1e-2, "dx[{i}] fd {fd} vs {}", dx.data()[i]);
        }
        for i in (0..w.len()).step_by(5) {
            let mut wp = w.clone();
            wp.data_mut()[i] += eps;
            let mut wm = w.clone();
            wm.data_mut()[i] -= eps;
            let fd = (conv2d_forward(&x, &wp, cfg).unwrap().sum()
                - conv2d_forward(&x, &wm, cfg).unwrap().sum())
                / (2.0 * eps);
            assert!((fd - dw.data()[i]).abs() < 1e-2, "dw[{i}] fd {fd} vs {}", dw.data()[i]);
        }
    }

    #[test]
    fn backward_rejects_wrong_dy_shape() {
        let x = Tensor::ones([1, 1, 4, 4]);
        let w = Tensor::ones([1, 1, 3, 3]);
        let dy = Tensor::ones([1, 1, 4, 4]); // should be 2x2
        assert!(conv2d_backward(&x, &w, &dy, Conv2dConfig::default()).is_err());
    }
}
