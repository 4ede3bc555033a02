//! Property tests for the parallel kernel backend: the packed GEMM, the
//! banded im2col convolution and the batched GEMM must match scalar
//! references across randomized shapes (including non-multiples of the
//! blocking factors and degenerate m/k/n = 1), and results must not depend
//! on the intra-op thread cap.
//!
//! The thread cap is process-global, so these tests only ever compare
//! quantities that are *designed* to be bitwise identical across thread
//! counts (every output element is produced by exactly one band in a fixed
//! accumulation order) or use tolerances (the conv weight gradient, whose
//! per-band partials fold in band order).

use proptest::prelude::*;
use tbd_tensor::ops::{self, Conv2dConfig};
use tbd_tensor::{par, Tensor};

/// Direct seven-loop convolution, the independent ground truth for the
/// im2col + GEMM lowering.
fn conv_reference(x: &Tensor, w: &Tensor, cfg: Conv2dConfig) -> Tensor {
    let (n, c, h, wid) = (x.shape().dim(0), x.shape().dim(1), x.shape().dim(2), x.shape().dim(3));
    let (oc, _, kh, kw) = (w.shape().dim(0), w.shape().dim(1), w.shape().dim(2), w.shape().dim(3));
    let (oh, ow) = ops::conv2d_output_hw(h, wid, kh, kw, cfg).expect("window fits");
    let mut out = vec![0.0f32; n * oc * oh * ow];
    for img in 0..n {
        for o in 0..oc {
            for oy in 0..oh {
                for ox in 0..ow {
                    let mut acc = 0.0f32;
                    for ch in 0..c {
                        for ky in 0..kh {
                            let iy = (oy * cfg.stride + ky) as isize - cfg.pad_h as isize;
                            if iy < 0 || iy >= h as isize {
                                continue;
                            }
                            for kx in 0..kw {
                                let ix = (ox * cfg.stride + kx) as isize - cfg.pad_w as isize;
                                if ix < 0 || ix >= wid as isize {
                                    continue;
                                }
                                acc += x.data()
                                    [((img * c + ch) * h + iy as usize) * wid + ix as usize]
                                    * w.data()[((o * c + ch) * kh + ky) * kw + kx];
                            }
                        }
                    }
                    out[((img * oc + o) * oh + oy) * ow + ox] = acc;
                }
            }
        }
    }
    Tensor::from_vec(out, [n, oc, oh, ow]).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The packed GEMM agrees with the seed's scalar blocked loop on
    /// arbitrary shapes, including sizes far from multiples of MR/NR/KC.
    #[test]
    fn packed_gemm_matches_scalar_reference(
        m in 1usize..48,
        k in 1usize..256,
        n in 1usize..48,
        s in 0u32..1000,
    ) {
        let a = Tensor::from_fn([m, k], |i| ((i as f32 + s as f32) * 0.37).sin());
        let b = Tensor::from_fn([k, n], |i| ((i as f32 * 1.3 + s as f32) * 0.23).cos());
        let y = ops::matmul(&a, &b).unwrap();
        let r = ops::matmul_reference(&a, &b).unwrap();
        for (u, v) in y.data().iter().zip(r.data()) {
            prop_assert!(
                (u - v).abs() <= 1e-3 * v.abs().max(1.0),
                "m={m} k={k} n={n}: {u} vs {v}"
            );
        }
    }

    /// The GEMM is bitwise identical no matter how many row bands it is
    /// split across: each output element is accumulated in ascending-k
    /// order by exactly one band.
    #[test]
    fn gemm_is_bitwise_identical_across_thread_counts(
        m in 1usize..64,
        k in 1usize..192,
        n in 1usize..40,
    ) {
        let a = Tensor::from_fn([m, k], |i| ((i * 13 % 31) as f32 - 15.0) * 0.07);
        let b = Tensor::from_fn([k, n], |i| ((i * 7 % 29) as f32 - 14.0) * 0.06);
        par::set_max_threads(1);
        let serial = ops::matmul(&a, &b).unwrap();
        par::set_max_threads(4);
        let threaded = ops::matmul(&a, &b).unwrap();
        par::set_max_threads(0);
        prop_assert_eq!(serial.data(), threaded.data());
    }

    /// Batched GEMM equals a per-slice loop over the single-matrix kernel,
    /// exactly (the batch banding routes every slice through the same
    /// packed kernel).
    #[test]
    fn batch_matmul_matches_per_slice_matmul(
        bsz in 1usize..6,
        m in 1usize..20,
        k in 1usize..48,
        n in 1usize..20,
        s in 0u32..1000,
    ) {
        let a = Tensor::from_fn([bsz, m, k], |i| ((i as f32 * 0.61 + s as f32) * 0.17).sin());
        let b = Tensor::from_fn([bsz, k, n], |i| ((i as f32 * 0.43 + s as f32) * 0.29).cos());
        let c = ops::batch_matmul(&a, &b).unwrap();
        for i in 0..bsz {
            let ai = Tensor::from_vec(
                a.data()[i * m * k..(i + 1) * m * k].to_vec(), [m, k],
            ).unwrap();
            let bi = Tensor::from_vec(
                b.data()[i * k * n..(i + 1) * k * n].to_vec(), [k, n],
            ).unwrap();
            let ci = ops::matmul(&ai, &bi).unwrap();
            prop_assert_eq!(&c.data()[i * m * n..(i + 1) * m * n], ci.data());
        }
    }

    /// The im2col + packed-GEMM convolution agrees with a direct seven-loop
    /// convolution over randomized batch/channel/spatial shapes.
    #[test]
    fn conv_forward_matches_direct_reference(
        n in 1usize..4,
        c in 1usize..4,
        hw in 3usize..8,
        oc in 1usize..5,
        pad in 0usize..2,
        s in 0u32..100,
    ) {
        let cfg = Conv2dConfig::new(1, pad);
        let x = Tensor::from_fn([n, c, hw, hw], |i| ((i as f32 + s as f32) * 0.31).sin());
        let w = Tensor::from_fn([oc, c, 3, 3], |i| ((i as f32 * 0.7 + s as f32) * 0.19).cos());
        let y = ops::conv2d_forward(&x, &w, cfg).unwrap();
        let r = conv_reference(&x, &w, cfg);
        for (u, v) in y.data().iter().zip(r.data()) {
            prop_assert!((u - v).abs() <= 1e-4 * v.abs().max(1.0), "{u} vs {v}");
        }
    }

    /// Convolution forward output and data gradient are bitwise identical
    /// across thread caps (images are independent bands); the weight
    /// gradient folds per-band partials, so it matches to tolerance.
    #[test]
    fn conv_is_stable_across_thread_counts(
        n in 1usize..5,
        c in 1usize..3,
        hw in 4usize..8,
        oc in 1usize..4,
    ) {
        let cfg = Conv2dConfig::new(1, 1);
        let x = Tensor::from_fn([n, c, hw, hw], |i| ((i * 11 % 23) as f32 - 11.0) * 0.09);
        let w = Tensor::from_fn([oc, c, 3, 3], |i| ((i * 5 % 17) as f32 - 8.0) * 0.11);
        par::set_max_threads(1);
        let y1 = ops::conv2d_forward(&x, &w, cfg).unwrap();
        let dy = Tensor::from_fn(y1.shape().clone(), |i| ((i % 7) as f32 - 3.0) * 0.2);
        let (dx1, dw1) = ops::conv2d_backward(&x, &w, &dy, cfg).unwrap();
        par::set_max_threads(3);
        let y3 = ops::conv2d_forward(&x, &w, cfg).unwrap();
        let (dx3, dw3) = ops::conv2d_backward(&x, &w, &dy, cfg).unwrap();
        par::set_max_threads(0);
        prop_assert_eq!(y1.data(), y3.data());
        prop_assert_eq!(dx1.data(), dx3.data());
        for (u, v) in dw1.data().iter().zip(dw3.data()) {
            prop_assert!((u - v).abs() <= 1e-4 * v.abs().max(1.0), "{u} vs {v}");
        }
    }
}

/// Elementwise, softmax and norm kernels band their output across threads;
/// each element/row is produced wholly by one band, so results are bitwise
/// identical across thread caps even on tensors large enough to fan out.
#[test]
fn elementwise_and_row_kernels_are_thread_invariant() {
    let big = Tensor::from_fn([600_000], |i| ((i * 31 % 101) as f32 - 50.0) * 0.04);
    let big2 = Tensor::from_fn([600_000], |i| ((i * 17 % 97) as f32 - 48.0) * 0.05);
    let rows = Tensor::from_fn([160, 512], |i| ((i * 13 % 89) as f32 - 44.0) * 0.06);
    par::set_max_threads(1);
    let add1 = ops::add(&big, &big2).unwrap();
    let relu1 = ops::relu_forward(&big);
    let sig1 = ops::sigmoid_forward(&big);
    let sm1 = ops::softmax(&rows).unwrap();
    let (ln1, _) =
        ops::layer_norm_forward(&rows, &Tensor::ones([512]), &Tensor::zeros([512]), 1e-5).unwrap();
    par::set_max_threads(4);
    let add4 = ops::add(&big, &big2).unwrap();
    let relu4 = ops::relu_forward(&big);
    let sig4 = ops::sigmoid_forward(&big);
    let sm4 = ops::softmax(&rows).unwrap();
    let (ln4, _) =
        ops::layer_norm_forward(&rows, &Tensor::ones([512]), &Tensor::zeros([512]), 1e-5).unwrap();
    par::set_max_threads(0);
    assert_eq!(add1, add4);
    assert_eq!(relu1, relu4);
    assert_eq!(sig1, sig4);
    assert_eq!(sm1, sm4);
    assert_eq!(ln1, ln4);
}
