//! Batched linear algebra for attention layers.
//!
//! These correspond to cuBLAS `gemmStridedBatched`: one GEMM per batch
//! element, which is exactly how the frameworks execute the per-head
//! score/context products of the Transformer. The batch axis is the natural
//! intra-op parallelism unit: each batch element is an independent GEMM, so
//! large batched products band the batch across scoped threads and run the
//! packed serial GEMM inside each band (no nested thread scopes).

use super::linalg::{gemm_into, gemm_serial_into, GEMM_WORK_PER_THREAD};
use crate::par;
use crate::{Result, Tensor, TensorError};

fn check3(op: &'static str, t: &Tensor) -> Result<(usize, usize, usize)> {
    if t.shape().rank() != 3 {
        return Err(TensorError::RankMismatch { op, expected: 3, actual: t.shape().rank() });
    }
    Ok((t.shape().dim(0), t.shape().dim(1), t.shape().dim(2)))
}

/// Batched matrix product: `[b, m, k] · [b, k, n] → [b, m, n]`.
///
/// # Errors
///
/// Returns rank/shape errors when operands are not rank 3 or their batch or
/// inner dimensions disagree.
pub fn batch_matmul(a: &Tensor, b: &Tensor) -> Result<Tensor> {
    let (ba, m, k) = check3("batch_matmul", a)?;
    let (bb, k2, n) = check3("batch_matmul", b)?;
    if ba != bb || k != k2 {
        return Err(TensorError::ShapeMismatch {
            op: "batch_matmul",
            lhs: a.shape().dims().to_vec(),
            rhs: b.shape().dims().to_vec(),
        });
    }
    let mut out = vec![0.0f32; ba * m * n];
    let (ad, bd) = (a.data(), b.data());
    if ba == 1 {
        // A single batch entry: let the GEMM parallelise its own M dimension.
        gemm_into(&mut out, ad, bd, m, k, n);
    } else if m * n > 0 {
        let threads = par::plan_threads(ba * m * n * k, GEMM_WORK_PER_THREAD, ba);
        par::parallel_bands(&mut out, m * n, threads, |first, band| {
            for (j, cd) in band.chunks_mut(m * n).enumerate() {
                let i = first + j;
                gemm_serial_into(
                    cd,
                    &ad[i * m * k..(i + 1) * m * k],
                    &bd[i * k * n..(i + 1) * k * n],
                    m,
                    k,
                    n,
                );
            }
        });
    }
    Tensor::from_vec(out, [ba, m, n])
}

/// Gradients of [`batch_matmul`]: `(dA, dB) = (dC · Bᵀ, Aᵀ · dC)` per batch
/// element.
///
/// # Errors
///
/// Propagates shape errors from the underlying products.
pub fn batch_matmul_backward(a: &Tensor, b: &Tensor, dc: &Tensor) -> Result<(Tensor, Tensor)> {
    let da = batch_matmul(dc, &batch_transpose(b)?)?;
    let db = batch_matmul(&batch_transpose(a)?, dc)?;
    Ok((da, db))
}

/// Transposes the last two axes of a rank-3 tensor: `[b, m, n] → [b, n, m]`.
///
/// # Errors
///
/// Returns a rank error unless the input is rank 3.
pub fn batch_transpose(a: &Tensor) -> Result<Tensor> {
    let (b, m, n) = check3("batch_transpose", a)?;
    let mut out = vec![0.0f32; b * m * n];
    let ad = a.data();
    if m * n > 0 {
        let threads = par::plan_threads(b * m * n, par::ELEMENTWISE_GRAIN, b);
        par::parallel_bands(&mut out, m * n, threads, |first, band| {
            for (j, dst) in band.chunks_mut(m * n).enumerate() {
                let src = &ad[(first + j) * m * n..(first + j + 1) * m * n];
                for r in 0..m {
                    for c in 0..n {
                        dst[c * m + r] = src[r * n + c];
                    }
                }
            }
        });
    }
    Tensor::from_vec(out, [b, n, m])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::matmul;

    #[test]
    fn batched_matches_per_slice_matmul() {
        let a = Tensor::from_fn([2, 3, 4], |i| (i as f32 * 0.13).sin());
        let b = Tensor::from_fn([2, 4, 5], |i| (i as f32 * 0.29).cos());
        let c = batch_matmul(&a, &b).unwrap();
        for i in 0..2 {
            let ai = Tensor::from_vec(a.data()[i * 12..(i + 1) * 12].to_vec(), [3, 4]).unwrap();
            let bi = Tensor::from_vec(b.data()[i * 20..(i + 1) * 20].to_vec(), [4, 5]).unwrap();
            let ci = matmul(&ai, &bi).unwrap();
            assert_eq!(&c.data()[i * 15..(i + 1) * 15], ci.data());
        }
    }

    #[test]
    fn batch_transpose_round_trips() {
        let a = Tensor::from_fn([3, 2, 4], |i| i as f32);
        let t = batch_transpose(&a).unwrap();
        assert_eq!(t.shape().dims(), &[3, 4, 2]);
        assert_eq!(batch_transpose(&t).unwrap(), a);
    }

    #[test]
    fn rejects_mismatched_batches() {
        let a = Tensor::zeros([2, 3, 4]);
        let b = Tensor::zeros([3, 4, 5]);
        assert!(batch_matmul(&a, &b).is_err());
        assert!(batch_matmul(&a, &Tensor::zeros([2, 5, 6])).is_err());
        assert!(batch_transpose(&Tensor::zeros([2, 2])).is_err());
    }

    #[test]
    fn backward_matches_finite_differences() {
        let a = Tensor::from_fn([2, 2, 3], |i| ((i * 3 % 7) as f32 - 3.0) * 0.2);
        let b = Tensor::from_fn([2, 3, 2], |i| ((i * 5 % 9) as f32 - 4.0) * 0.2);
        let dc = Tensor::ones([2, 2, 2]);
        let (da, db) = batch_matmul_backward(&a, &b, &dc).unwrap();
        let eps = 1e-3;
        for i in 0..a.len() {
            let mut ap = a.clone();
            ap.data_mut()[i] += eps;
            let mut am = a.clone();
            am.data_mut()[i] -= eps;
            let fd = (batch_matmul(&ap, &b).unwrap().sum() - batch_matmul(&am, &b).unwrap().sum())
                / (2.0 * eps);
            assert!((fd - da.data()[i]).abs() < 1e-2);
        }
        for i in 0..b.len() {
            let mut bp = b.clone();
            bp.data_mut()[i] += eps;
            let mut bm = b.clone();
            bm.data_mut()[i] -= eps;
            let fd = (batch_matmul(&a, &bp).unwrap().sum() - batch_matmul(&a, &bm).unwrap().sum())
                / (2.0 * eps);
            assert!((fd - db.data()[i]).abs() < 1e-2);
        }
    }
}
