//! Property-based tests over the tensor kernels: algebraic identities,
//! adjointness of forward/backward pairs, and numerical-stability bounds.

use proptest::prelude::*;
use tbd_tensor::ops::{self, Conv2dConfig, Pool2dConfig};
use tbd_tensor::{Shape, Tensor};

fn finite_vec(len: usize) -> impl Strategy<Value = Vec<f32>> {
    prop::collection::vec(-8.0f32..8.0, len)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// A 1×1 all-ones single-channel convolution is the identity map.
    #[test]
    fn identity_convolution(data in finite_vec(2 * 25)) {
        let x = Tensor::from_vec(data, [2, 1, 5, 5]).unwrap();
        let w = Tensor::ones([1, 1, 1, 1]);
        let y = ops::conv2d_forward(&x, &w, Conv2dConfig::default()).unwrap();
        prop_assert_eq!(y.data(), x.data());
    }

    /// Convolution is linear in its input: conv(a·x) == a·conv(x).
    #[test]
    fn convolution_is_linear(data in finite_vec(2 * 2 * 16), scale in -3.0f32..3.0) {
        let x = Tensor::from_vec(data, [2, 2, 4, 4]).unwrap();
        let w = Tensor::from_fn([3, 2, 3, 3], |i| ((i % 5) as f32 - 2.0) * 0.25);
        let cfg = Conv2dConfig::new(1, 1);
        let lhs = ops::conv2d_forward(&ops::scale(&x, scale), &w, cfg).unwrap();
        let rhs = ops::scale(&ops::conv2d_forward(&x, &w, cfg).unwrap(), scale);
        prop_assert!(lhs.max_abs_diff(&rhs).unwrap() < 1e-2);
    }

    /// <conv(x), dy> == <x, conv_backward_data(dy)>: the data gradient is
    /// the adjoint of the forward convolution.
    #[test]
    fn conv_backward_is_adjoint(
        xd in finite_vec(2 * 16),
        dyd in finite_vec(2 * 16),
    ) {
        let cfg = Conv2dConfig::new(1, 1);
        let x = Tensor::from_vec(xd, [1, 2, 4, 4]).unwrap();
        let w = Tensor::from_fn([2, 2, 3, 3], |i| ((i % 7) as f32 - 3.0) * 0.2);
        let y = ops::conv2d_forward(&x, &w, cfg).unwrap();
        let dy = Tensor::from_vec(dyd, y.shape().clone()).unwrap();
        let (dx, _) = ops::conv2d_backward(&x, &w, &dy, cfg).unwrap();
        let lhs: f32 = y.data().iter().zip(dy.data()).map(|(a, b)| a * b).sum();
        let rhs: f32 = x.data().iter().zip(dx.data()).map(|(a, b)| a * b).sum();
        prop_assert!((lhs - rhs).abs() < 1e-1 * (1.0 + lhs.abs()), "{lhs} vs {rhs}");
    }

    /// Max pooling never invents values: every output element is present in
    /// the input, and pooling an all-equal tensor is the identity value.
    #[test]
    fn max_pool_selects_existing_values(data in finite_vec(2 * 36)) {
        let x = Tensor::from_vec(data.clone(), [2, 1, 6, 6]).unwrap();
        let (y, arg) = ops::max_pool2d_forward(&x, Pool2dConfig::new(2, 2, 0)).unwrap();
        for (out, &src) in y.data().iter().zip(&arg) {
            prop_assert_eq!(*out, data[src]);
        }
    }

    /// Average pooling preserves the global mean for exact tilings.
    #[test]
    fn avg_pool_preserves_mean(data in finite_vec(16)) {
        let x = Tensor::from_vec(data, [1, 1, 4, 4]).unwrap();
        let y = ops::avg_pool2d_forward(&x, Pool2dConfig::new(2, 2, 0)).unwrap();
        prop_assert!((y.mean() - x.mean()).abs() < 1e-4);
    }

    /// Batch norm output is invariant to affine shifts of its input
    /// (x → a·x + b leaves x̂ unchanged for a > 0).
    #[test]
    fn batch_norm_is_shift_scale_invariant(
        data in finite_vec(2 * 2 * 4),
        a in 0.5f32..3.0,
        b in -5.0f32..5.0,
    ) {
        let x = Tensor::from_vec(data, [2, 2, 2, 2]).unwrap();
        let gamma = Tensor::ones([2]);
        let beta = Tensor::zeros([2]);
        let (y1, _) = ops::batch_norm_forward(&x, &gamma, &beta, 1e-5).unwrap();
        let shifted = x.map(|v| a * v + b);
        let (y2, _) = ops::batch_norm_forward(&shifted, &gamma, &beta, 1e-5).unwrap();
        prop_assert!(y1.max_abs_diff(&y2).unwrap() < 2e-2);
    }

    /// Cross-entropy is minimised exactly at the target class: raising the
    /// target logit never increases the loss.
    #[test]
    fn cross_entropy_decreases_when_target_logit_rises(
        logits in finite_vec(4),
        target in 0usize..4,
        boost in 0.1f32..5.0,
    ) {
        let l = Tensor::from_vec(logits.clone(), [1, 4]).unwrap();
        let t = Tensor::from_slice(&[target as f32]);
        let (before, _) = ops::cross_entropy_forward(&l, &t).unwrap();
        let mut boosted = logits;
        boosted[target] += boost;
        let l2 = Tensor::from_vec(boosted, [1, 4]).unwrap();
        let (after, _) = ops::cross_entropy_forward(&l2, &t).unwrap();
        prop_assert!(after <= before + 1e-6);
    }

    /// Embedding backward is the adjoint of embedding forward.
    #[test]
    fn embedding_adjointness(
        table_data in finite_vec(5 * 3),
        ids in prop::collection::vec(0usize..5, 1..7),
    ) {
        let table = Tensor::from_vec(table_data, [5, 3]).unwrap();
        let idt = Tensor::from_slice(&ids.iter().map(|&i| i as f32).collect::<Vec<_>>());
        let out = ops::embedding_forward(&table, &idt).unwrap();
        let dy = Tensor::from_fn(out.shape().clone(), |i| (i as f32 * 0.3).sin());
        let dt = ops::embedding_backward(table.shape(), &idt, &dy).unwrap();
        let lhs: f32 = out.data().iter().zip(dy.data()).map(|(a, b)| a * b).sum();
        let rhs: f32 = table.data().iter().zip(dt.data()).map(|(a, b)| a * b).sum();
        prop_assert!((lhs - rhs).abs() < 1e-2 * (1.0 + lhs.abs()));
    }

    /// Upsampling then summing 2×2 blocks recovers 4× the input.
    #[test]
    fn upsample_adjoint_identity(data in finite_vec(2 * 9)) {
        let x = Tensor::from_vec(data, [1, 2, 3, 3]).unwrap();
        let up = ops::upsample2x_forward(&x).unwrap();
        let back = ops::upsample2x_backward(x.shape(), &up).unwrap();
        let expected = ops::scale(&x, 4.0);
        prop_assert!(back.max_abs_diff(&expected).unwrap() < 1e-4);
    }

    /// Permute3 round-trips through its inverse for every permutation.
    #[test]
    fn permute3_round_trip(data in finite_vec(2 * 3 * 4), p0 in 0usize..6) {
        let perms = [[0, 1, 2], [0, 2, 1], [1, 0, 2], [1, 2, 0], [2, 0, 1], [2, 1, 0]];
        let perm = perms[p0];
        let x = Tensor::from_vec(data, [2, 3, 4]).unwrap();
        let y = ops::permute3(&x, perm).unwrap();
        let back = ops::permute3(&y, ops::invert_perm3(perm)).unwrap();
        prop_assert_eq!(back, x);
    }

    /// Shapes: strides always cover every element exactly once.
    #[test]
    fn strides_are_a_bijection(dims in prop::collection::vec(1usize..5, 1..4)) {
        let shape = Shape::new(&dims);
        let strides = shape.strides();
        let mut seen = vec![false; shape.len()];
        let mut coords = vec![0usize; dims.len()];
        loop {
            let flat: usize = coords.iter().zip(&strides).map(|(c, s)| c * s).sum();
            prop_assert!(!seen[flat], "duplicate flat index");
            seen[flat] = true;
            // Odometer increment.
            let mut axis = dims.len();
            loop {
                if axis == 0 { break; }
                axis -= 1;
                coords[axis] += 1;
                if coords[axis] < dims[axis] { break; }
                coords[axis] = 0;
                if axis == 0 { break; }
            }
            if coords.iter().all(|&c| c == 0) { break; }
        }
        prop_assert!(seen.into_iter().all(|s| s));
    }
}

// ---------------------------------------------------------------------------
// Bitwise oracles for the row-range spatial kernels.
//
// The references below are the per-element window loops the row-range
// im2col/col2im and pooling kernels replaced, kept verbatim as oracles: the
// fast kernels must reproduce them bit for bit (compared with `to_bits`, so
// NaN payloads and the sign of zero count), including NaN and `-0.0`
// inputs, strides larger than the window, padding at least as wide as the
// window, fully padded pooling windows and asymmetric padding.

fn im2col_reference(
    input: &[f32],
    c: usize,
    h: usize,
    w: usize,
    kh: usize,
    kw: usize,
    cfg: Conv2dConfig,
) -> Vec<f32> {
    let (oh, ow) = ops::conv2d_output_hw(h, w, kh, kw, cfg).expect("window must fit input");
    let cols_w = oh * ow;
    let mut cols = vec![0.0f32; c * kh * kw * cols_w];
    for ch in 0..c {
        for ky in 0..kh {
            for kx in 0..kw {
                let row = (ch * kh + ky) * kw + kx;
                for oy in 0..oh {
                    let iy = (oy * cfg.stride + ky) as isize - cfg.pad_h as isize;
                    if iy < 0 || iy >= h as isize {
                        continue;
                    }
                    for ox in 0..ow {
                        let ix = (ox * cfg.stride + kx) as isize - cfg.pad_w as isize;
                        if ix < 0 || ix >= w as isize {
                            continue;
                        }
                        cols[row * cols_w + oy * ow + ox] =
                            input[(ch * h + iy as usize) * w + ix as usize];
                    }
                }
            }
        }
    }
    cols
}

fn col2im_reference(
    cols: &[f32],
    c: usize,
    h: usize,
    w: usize,
    kh: usize,
    kw: usize,
    cfg: Conv2dConfig,
) -> Vec<f32> {
    let (oh, ow) = ops::conv2d_output_hw(h, w, kh, kw, cfg).expect("window must fit input");
    let cols_w = oh * ow;
    let mut img = vec![0.0f32; c * h * w];
    for ch in 0..c {
        for ky in 0..kh {
            for kx in 0..kw {
                let row = (ch * kh + ky) * kw + kx;
                for oy in 0..oh {
                    let iy = (oy * cfg.stride + ky) as isize - cfg.pad_h as isize;
                    if iy < 0 || iy >= h as isize {
                        continue;
                    }
                    for ox in 0..ow {
                        let ix = (ox * cfg.stride + kx) as isize - cfg.pad_w as isize;
                        if ix < 0 || ix >= w as isize {
                            continue;
                        }
                        img[(ch * h + iy as usize) * w + ix as usize] +=
                            cols[row * cols_w + oy * ow + ox];
                    }
                }
            }
        }
    }
    img
}

fn max_pool_reference(x: &Tensor, cfg: Pool2dConfig) -> (Vec<f32>, Vec<usize>) {
    let (n, c, h, w) = (x.shape().dim(0), x.shape().dim(1), x.shape().dim(2), x.shape().dim(3));
    let (oh, ow) = pool_out_hw(h, w, cfg);
    let mut out = vec![f32::NEG_INFINITY; n * c * oh * ow];
    let mut arg = vec![0usize; n * c * oh * ow];
    let xd = x.data();
    for img in 0..n {
        for ch in 0..c {
            let base = (img * c + ch) * h * w;
            for oy in 0..oh {
                for ox in 0..ow {
                    let oi = ((img * c + ch) * oh + oy) * ow + ox;
                    for ky in 0..cfg.kernel {
                        let iy = (oy * cfg.stride + ky) as isize - cfg.padding as isize;
                        if iy < 0 || iy >= h as isize {
                            continue;
                        }
                        for kx in 0..cfg.kernel {
                            let ix = (ox * cfg.stride + kx) as isize - cfg.padding as isize;
                            if ix < 0 || ix >= w as isize {
                                continue;
                            }
                            let ii = base + iy as usize * w + ix as usize;
                            if xd[ii] > out[oi] {
                                out[oi] = xd[ii];
                                arg[oi] = ii;
                            }
                        }
                    }
                    if out[oi] == f32::NEG_INFINITY {
                        out[oi] = 0.0;
                        arg[oi] = usize::MAX;
                    }
                }
            }
        }
    }
    (out, arg)
}

fn avg_pool_reference(x: &Tensor, cfg: Pool2dConfig) -> Vec<f32> {
    let (n, c, h, w) = (x.shape().dim(0), x.shape().dim(1), x.shape().dim(2), x.shape().dim(3));
    let (oh, ow) = pool_out_hw(h, w, cfg);
    let area = (cfg.kernel * cfg.kernel) as f32;
    let xd = x.data();
    let mut out = vec![0.0f32; n * c * oh * ow];
    for img in 0..n {
        for ch in 0..c {
            let base = (img * c + ch) * h * w;
            for oy in 0..oh {
                for ox in 0..ow {
                    let mut acc = 0.0;
                    for ky in 0..cfg.kernel {
                        let iy = (oy * cfg.stride + ky) as isize - cfg.padding as isize;
                        if iy < 0 || iy >= h as isize {
                            continue;
                        }
                        for kx in 0..cfg.kernel {
                            let ix = (ox * cfg.stride + kx) as isize - cfg.padding as isize;
                            if ix < 0 || ix >= w as isize {
                                continue;
                            }
                            acc += xd[base + iy as usize * w + ix as usize];
                        }
                    }
                    out[((img * c + ch) * oh + oy) * ow + ox] = acc / area;
                }
            }
        }
    }
    out
}

fn avg_pool_backward_reference(input_shape: &Shape, dy: &Tensor, cfg: Pool2dConfig) -> Vec<f32> {
    let (n, c, h, w) =
        (input_shape.dim(0), input_shape.dim(1), input_shape.dim(2), input_shape.dim(3));
    let (oh, ow) = (dy.shape().dim(2), dy.shape().dim(3));
    let area = (cfg.kernel * cfg.kernel) as f32;
    let mut dx = vec![0.0f32; input_shape.len()];
    for img in 0..n {
        for ch in 0..c {
            let base = (img * c + ch) * h * w;
            for oy in 0..oh {
                for ox in 0..ow {
                    let g = dy.data()[((img * c + ch) * oh + oy) * ow + ox] / area;
                    for ky in 0..cfg.kernel {
                        let iy = (oy * cfg.stride + ky) as isize - cfg.padding as isize;
                        if iy < 0 || iy >= h as isize {
                            continue;
                        }
                        for kx in 0..cfg.kernel {
                            let ix = (ox * cfg.stride + kx) as isize - cfg.padding as isize;
                            if ix < 0 || ix >= w as isize {
                                continue;
                            }
                            dx[base + iy as usize * w + ix as usize] += g;
                        }
                    }
                }
            }
        }
    }
    dx
}

/// `conv2d_backward`'s weight gradient as it was computed before the GEMM
/// read `cols` transposed: per image, materialise `colsᵀ`, multiply
/// `dY · colsᵀ`, then fold the per-image partials in image order.
fn conv_dweight_reference(x: &Tensor, w: &Tensor, dy: &Tensor, cfg: Conv2dConfig) -> Vec<f32> {
    let (n, c, h, wid) = (x.shape().dim(0), x.shape().dim(1), x.shape().dim(2), x.shape().dim(3));
    let (oc, kh, kw) = (w.shape().dim(0), w.shape().dim(2), w.shape().dim(3));
    let (oh, ow) = ops::conv2d_output_hw(h, wid, kh, kw, cfg).expect("window fits");
    let (patch, cols_w, img_in) = (c * kh * kw, oh * ow, c * h * wid);
    let mut dweight = vec![0.0f32; oc * patch];
    for img in 0..n {
        let cols = im2col_reference(&x.data()[img * img_in..][..img_in], c, h, wid, kh, kw, cfg);
        let colst = ops::transpose(&Tensor::from_vec(cols, [patch, cols_w]).unwrap()).unwrap();
        let dyi = dy.data()[img * oc * cols_w..][..oc * cols_w].to_vec();
        let dyi = Tensor::from_vec(dyi, [oc, cols_w]).unwrap();
        let part = ops::matmul(&dyi, &colst).unwrap();
        for (d, v) in dweight.iter_mut().zip(part.data()) {
            *d += v;
        }
    }
    dweight
}

/// Output size of a square pooling window (`None`-free: callers clamp the
/// window to the padded input first).
fn pool_out_hw(h: usize, w: usize, cfg: Pool2dConfig) -> (usize, usize) {
    let pad = Conv2dConfig::new(cfg.stride, cfg.padding);
    ops::conv2d_output_hw(h, w, cfg.kernel, cfg.kernel, pad).expect("window fits")
}

/// Deterministic test data from `seed`: mostly small values, with NaN,
/// `±0.0`, `±∞` and repeated values (max-pool ties) sprinkled in.
fn spiky(seed: u64, len: usize) -> Vec<f32> {
    let mut s = seed | 1;
    (0..len)
        .map(|_| {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            match s % 23 {
                0 => f32::NAN,
                1 => -0.0,
                2 => 0.0,
                3 => f32::NEG_INFINITY,
                4 => 1.5,
                5 => -1.5,
                _ => ((s >> 20) % 2001) as f32 / 250.0 - 4.0,
            }
        })
        .collect()
}

/// Finite data (for GEMM-backed paths, where NaN would make every product
/// NaN and hide ordering differences).
fn finite(seed: u64, len: usize) -> Vec<f32> {
    spiky(seed, len).into_iter().map(|v| if v.is_finite() { v } else { 0.75 }).collect()
}

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// Clamps a `kh × kw` window so it fits the padded input.
fn fit(h: usize, w: usize, kh: usize, kw: usize, cfg: Conv2dConfig) -> (usize, usize) {
    (kh.min(h + 2 * cfg.pad_h), kw.min(w + 2 * cfg.pad_w))
}

fn check_unfold(seed: u64, c: usize, h: usize, w: usize, kh: usize, kw: usize, cfg: Conv2dConfig) {
    let (kh, kw) = fit(h, w, kh, kw, cfg);
    let x = spiky(seed, c * h * w);
    let cols = ops::im2col(&x, c, h, w, kh, kw, cfg);
    assert_eq!(
        bits(&cols),
        bits(&im2col_reference(&x, c, h, w, kh, kw, cfg)),
        "im2col c{c} {h}x{w} k{kh}x{kw} {cfg:?}"
    );
    let dcols = spiky(seed ^ 0x5eed, cols.len());
    assert_eq!(
        bits(&ops::col2im(&dcols, c, h, w, kh, kw, cfg)),
        bits(&col2im_reference(&dcols, c, h, w, kh, kw, cfg)),
        "col2im c{c} {h}x{w} k{kh}x{kw} {cfg:?}"
    );
}

fn check_pool(seed: u64, n: usize, c: usize, h: usize, w: usize, cfg: Pool2dConfig) {
    let kernel = cfg.kernel.min(h.min(w) + 2 * cfg.padding);
    let cfg = Pool2dConfig::new(kernel, cfg.stride, cfg.padding);
    let x = Tensor::from_vec(spiky(seed, n * c * h * w), [n, c, h, w]).unwrap();
    let (y, arg) = ops::max_pool2d_forward(&x, cfg).unwrap();
    let (y_ref, arg_ref) = max_pool_reference(&x, cfg);
    assert_eq!(bits(y.data()), bits(&y_ref), "max pool {:?} {cfg:?}", x.shape());
    assert_eq!(arg, arg_ref, "max pool argmax {:?} {cfg:?}", x.shape());
    let avg = ops::avg_pool2d_forward(&x, cfg).unwrap();
    assert_eq!(bits(avg.data()), bits(&avg_pool_reference(&x, cfg)), "avg pool {cfg:?}");
    let dy = Tensor::from_vec(spiky(seed ^ 0xd1, avg.len()), avg.shape().clone()).unwrap();
    let dx = ops::avg_pool2d_backward(x.shape(), &dy, cfg).unwrap();
    assert_eq!(
        bits(dx.data()),
        bits(&avg_pool_backward_reference(x.shape(), &dy, cfg)),
        "avg pool backward {cfg:?}"
    );
}

fn check_conv_dweight(seed: u64, dims: [usize; 6], cfg: Conv2dConfig) {
    let [n, c, h, w, oc, k] = dims;
    let (kh, kw) = fit(h, w, k, k, cfg);
    let x = Tensor::from_vec(finite(seed, n * c * h * w), [n, c, h, w]).unwrap();
    let wt = Tensor::from_vec(finite(seed ^ 0x77, oc * c * kh * kw), [oc, c, kh, kw]).unwrap();
    let y = ops::conv2d_forward(&x, &wt, cfg).unwrap();
    let dy = Tensor::from_vec(finite(seed ^ 0x99, y.len()), y.shape().clone()).unwrap();
    let (_, dw) = ops::conv2d_backward(&x, &wt, &dy, cfg).unwrap();
    assert_eq!(
        bits(dw.data()),
        bits(&conv_dweight_reference(&x, &wt, &dy, cfg)),
        "dW {:?} x {:?} {cfg:?}",
        x.shape(),
        wt.shape()
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Row-range im2col/col2im are bitwise the per-element loops.
    #[test]
    fn unfold_fold_match_reference_bitwise(
        seed in 0u64..u64::MAX,
        c in 1usize..4,
        h in 1usize..12,
        w in 1usize..12,
        kh in 1usize..6,
        kw in 1usize..6,
        stride in 1usize..5,
        pad_h in 0usize..7,
        pad_w in 0usize..7,
    ) {
        check_unfold(seed, c, h, w, kh, kw, Conv2dConfig::with_pads(stride, pad_h, pad_w));
    }

    /// Row-range max/avg pooling (forward and avg backward) are bitwise the
    /// per-element window loops, argmax included.
    #[test]
    fn pooling_matches_reference_bitwise(
        seed in 0u64..u64::MAX,
        n in 1usize..3,
        c in 1usize..3,
        h in 1usize..11,
        w in 1usize..11,
        kernel in 1usize..6,
        stride in 1usize..5,
        padding in 0usize..6,
    ) {
        check_pool(seed, n, c, h, w, Pool2dConfig::new(kernel, stride, padding));
    }

    /// `conv2d_backward`'s dW (GEMM reading `cols` transposed) is bitwise
    /// the materialised-transpose product, on both sides of the packed
    /// GEMM's small-work cutoff.
    #[test]
    fn conv_dweight_matches_transpose_gemm_bitwise(
        seed in 0u64..u64::MAX,
        n in 1usize..3,
        c in 1usize..5,
        h in 1usize..18,
        w in 1usize..18,
        oc in 1usize..6,
        k in 1usize..6,
        stride in 1usize..4,
        pad_h in 0usize..4,
        pad_w in 0usize..4,
    ) {
        let cfg = Conv2dConfig::with_pads(stride, pad_h, pad_w);
        check_conv_dweight(seed, [n, c, h, w, oc, k], cfg);
    }
}

/// The edge cases named by the row-range contract, pinned rather than left
/// to sampling: stride larger than the window, padding at least the window
/// (empty tap ranges), fully padded max-pool windows, Inception's
/// asymmetric 1×7 / 7×1 pads and its stride-2 stem.
#[test]
fn row_range_edge_cases_match_reference_bitwise() {
    let unfold = [
        (3, 9, 9, 2, 2, Conv2dConfig::new(3, 0)),
        (2, 7, 5, 1, 1, Conv2dConfig::new(4, 0)),
        (2, 4, 4, 2, 2, Conv2dConfig::new(1, 3)),
        (1, 3, 5, 3, 3, Conv2dConfig::with_pads(2, 4, 5)),
        (4, 12, 12, 1, 7, Conv2dConfig::with_pads(1, 0, 3)),
        (4, 12, 12, 7, 1, Conv2dConfig::with_pads(1, 3, 0)),
        (3, 79, 79, 3, 3, Conv2dConfig::new(2, 0)),
        (2, 1, 1, 3, 3, Conv2dConfig::new(1, 2)),
    ];
    for (i, &(c, h, w, kh, kw, cfg)) in unfold.iter().enumerate() {
        check_unfold(i as u64 + 1, c, h, w, kh, kw, cfg);
    }
    let pools = [
        (2, 6, 6, Pool2dConfig::new(3, 2, 0)),
        (1, 5, 5, Pool2dConfig::new(2, 4, 0)),
        (2, 3, 3, Pool2dConfig::new(1, 1, 2)),
        (1, 2, 4, Pool2dConfig::new(2, 3, 3)),
        (3, 7, 7, Pool2dConfig::new(3, 1, 1)),
        (2, 19, 19, Pool2dConfig::new(3, 2, 0)),
    ];
    for (i, &(c, h, w, cfg)) in pools.iter().enumerate() {
        check_pool(i as u64 + 11, 2, c, h, w, cfg);
    }
    // A 1×1 window with padding 2 leaves whole rows and columns of fully
    // padded windows: 0.0 with no argmax, as before.
    let x = Tensor::from_vec(spiky(5, 9), [1, 1, 3, 3]).unwrap();
    let (y, arg) = ops::max_pool2d_forward(&x, Pool2dConfig::new(1, 1, 2)).unwrap();
    assert_eq!(y.data()[0].to_bits(), 0.0f32.to_bits());
    assert_eq!(arg[0], usize::MAX);
    check_conv_dweight(21, [2, 3, 79, 79, 2, 3], Conv2dConfig::new(2, 0));
    check_conv_dweight(22, [1, 12, 12, 12, 12, 7], Conv2dConfig::with_pads(1, 0, 3));
    check_conv_dweight(23, [2, 5, 9, 9, 7, 5], Conv2dConfig::new(1, 2));
}

// ---------------------------------------------------------------------------
// Bitwise oracles for the channel-interleaved batch-norm reductions.
//
// The references are the batch-norm loops that summed one channel at a
// time, kept verbatim as oracles (the elementwise passes run serially
// here). The kernels now advance blocks of channels together; each
// channel's add chain must be unchanged, so every output, statistic and
// gradient must match bit for bit at any channel count and thread count.
// Arithmetic on NaN leaves its sign and payload unspecified (the compiler
// may commute an add), so these compare every NaN as one canonical NaN.

fn arith_bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| if x.is_nan() { f32::NAN.to_bits() } else { x.to_bits() }).collect()
}

/// The one-channel-at-a-time forward: `(y, mean, inv_std, x̂)`.
fn batch_norm_forward_reference(
    x: &Tensor,
    gamma: &Tensor,
    beta: &Tensor,
    eps: f32,
) -> (Vec<f32>, Vec<f32>, Vec<f32>, Vec<f32>) {
    let (n, c, h, w) = (x.shape().dim(0), x.shape().dim(1), x.shape().dim(2), x.shape().dim(3));
    let count = (n * h * w) as f32;
    let xd = x.data();
    let mut mean = vec![0.0f32; c];
    let mut var = vec![0.0f32; c];
    for img in 0..n {
        for (ch, m) in mean.iter_mut().enumerate() {
            let base = (img * c + ch) * h * w;
            for &v in &xd[base..base + h * w] {
                *m += v;
            }
        }
    }
    for m in &mut mean {
        *m /= count;
    }
    for img in 0..n {
        for ch in 0..c {
            let base = (img * c + ch) * h * w;
            for &v in &xd[base..base + h * w] {
                let d = v - mean[ch];
                var[ch] += d * d;
            }
        }
    }
    let inv_std: Vec<f32> = var.iter().map(|&v| 1.0 / (v / count + eps).sqrt()).collect();
    let mut norm = vec![0.0f32; xd.len()];
    let mut out = vec![0.0f32; xd.len()];
    let hw = h * w;
    for (row, plane) in norm.chunks_mut(hw.max(1)).enumerate() {
        let ch = row % c;
        let base = row * hw;
        for (i, v) in plane.iter_mut().enumerate() {
            *v = (xd[base + i] - mean[ch]) * inv_std[ch];
        }
    }
    for (row, plane) in out.chunks_mut(hw.max(1)).enumerate() {
        let ch = row % c;
        let (g, bt) = (gamma.data()[ch], beta.data()[ch]);
        let base = row * hw;
        for (i, v) in plane.iter_mut().enumerate() {
            *v = g * norm[base + i] + bt;
        }
    }
    (out, mean, inv_std, norm)
}

/// The one-channel-at-a-time backward: `(dx, dgamma, dbeta)`.
fn batch_norm_backward_reference(
    state: &ops::BatchNormState,
    gamma: &Tensor,
    dy: &Tensor,
) -> (Vec<f32>, Vec<f32>, Vec<f32>) {
    let x_shape = state.normalized.shape().clone();
    let (n, c, h, w) = (x_shape.dim(0), x_shape.dim(1), x_shape.dim(2), x_shape.dim(3));
    let count = (n * h * w) as f32;
    let xh = state.normalized.data();
    let dyd = dy.data();
    let mut dgamma = vec![0.0f32; c];
    let mut dbeta = vec![0.0f32; c];
    for img in 0..n {
        for ch in 0..c {
            let base = (img * c + ch) * h * w;
            for i in base..base + h * w {
                dgamma[ch] += dyd[i] * xh[i];
                dbeta[ch] += dyd[i];
            }
        }
    }
    let mut dx = vec![0.0f32; dyd.len()];
    let hw = h * w;
    for (row, plane) in dx.chunks_mut(hw.max(1)).enumerate() {
        let ch = row % c;
        let g = gamma.data()[ch] * state.inv_std[ch] / count;
        let base = row * hw;
        for (i, v) in plane.iter_mut().enumerate() {
            *v = g * (count * dyd[base + i] - dbeta[ch] - xh[base + i] * dgamma[ch]);
        }
    }
    (dx, dgamma, dbeta)
}

/// Batch norm forward and backward over `[n, c, h, w]` against the
/// references, at 1 and 4 intra-op threads; `data` makes the inputs.
fn check_batch_norm(seed: u64, dims: [usize; 4], data: fn(u64, usize) -> Vec<f32>) {
    let [n, c, h, w] = dims;
    let x = Tensor::from_vec(data(seed, n * c * h * w), dims).unwrap();
    let gamma = Tensor::from_vec(data(seed ^ 0x6a, c), [c]).unwrap();
    let beta = Tensor::from_vec(data(seed ^ 0xbe, c), [c]).unwrap();
    let dy = Tensor::from_vec(data(seed ^ 0xd7, x.len()), dims).unwrap();
    let (y_ref, mean_ref, istd_ref, norm_ref) =
        batch_norm_forward_reference(&x, &gamma, &beta, 1e-3);
    for threads in [1, 4] {
        tbd_tensor::par::set_max_threads(threads);
        let (y, state) = ops::batch_norm_forward(&x, &gamma, &beta, 1e-3).unwrap();
        let (dx, dgamma, dbeta) = ops::batch_norm_backward(&state, &gamma, &dy).unwrap();
        tbd_tensor::par::set_max_threads(0);
        let what = format!("{dims:?} at {threads} threads");
        assert_eq!(arith_bits(y.data()), arith_bits(&y_ref), "bn y {what}");
        assert_eq!(arith_bits(&state.mean), arith_bits(&mean_ref), "bn mean {what}");
        assert_eq!(arith_bits(&state.inv_std), arith_bits(&istd_ref), "bn inv_std {what}");
        assert_eq!(arith_bits(state.normalized.data()), arith_bits(&norm_ref), "bn x̂ {what}");
        let (dx_ref, dgamma_ref, dbeta_ref) = batch_norm_backward_reference(&state, &gamma, &dy);
        assert_eq!(arith_bits(dx.data()), arith_bits(&dx_ref), "bn dx {what}");
        assert_eq!(arith_bits(dgamma.data()), arith_bits(&dgamma_ref), "bn dgamma {what}");
        assert_eq!(arith_bits(dbeta.data()), arith_bits(&dbeta_ref), "bn dbeta {what}");
    }
}

/// Every channel-block remainder (1, 2, 4 and 8-wide blocks and their
/// mixes) at 1–3 images, with single-pixel planes (`hw = 1`) and odd
/// plane sizes; NaN, `±0.0` and `-∞` inputs included.
#[test]
fn batch_norm_matches_reference_bitwise() {
    let mut seed = 31;
    for c in [1, 2, 3, 4, 5, 8, 9, 17] {
        for n in [1, 2, 3] {
            for (h, w) in [(1, 1), (1, 3), (5, 7)] {
                seed += 1;
                check_batch_norm(seed, [n, c, h, w], finite);
                check_batch_norm(seed, [n, c, h, w], spiky);
            }
        }
    }
    // Inception's `[2, 4, 37, 37]`, and a tensor large enough that the
    // elementwise passes band across all 4 threads.
    check_batch_norm(90, [2, 4, 37, 37], finite);
    check_batch_norm(91, [2, 17, 176, 176], finite);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Channel-interleaved batch norm is bitwise the per-channel loops.
    #[test]
    fn batch_norm_matches_reference_bitwise_sampled(
        seed in 0u64..u64::MAX,
        n in 1usize..4,
        c in 1usize..20,
        h in 1usize..6,
        w in 1usize..6,
    ) {
        check_batch_norm(seed, [n, c, h, w], finite);
    }
}
