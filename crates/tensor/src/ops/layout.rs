//! Layout kernels: concatenation (Inception branch merges) and column
//! slicing (time-step extraction, attention head splits).

use crate::{Result, Shape, Tensor, TensorError};

/// Concatenates tensors along `axis`. All other axes must agree.
///
/// # Errors
///
/// Returns [`TensorError::InvalidArgument`] for an empty input list or an
/// out-of-range axis, and [`TensorError::ShapeMismatch`] when non-`axis`
/// extents differ.
pub fn concat(tensors: &[&Tensor], axis: usize) -> Result<Tensor> {
    let first = *tensors.first().ok_or(TensorError::InvalidArgument {
        op: "concat",
        reason: "at least one tensor required".to_string(),
    })?;
    let rank = first.shape().rank();
    if axis >= rank {
        return Err(TensorError::InvalidArgument {
            op: "concat",
            reason: format!("axis {axis} out of range for rank {rank}"),
        });
    }
    let mut axis_total = 0;
    for t in tensors {
        if t.shape().rank() != rank {
            return Err(TensorError::RankMismatch {
                op: "concat",
                expected: rank,
                actual: t.shape().rank(),
            });
        }
        for d in 0..rank {
            if d != axis && t.shape().dim(d) != first.shape().dim(d) {
                return Err(TensorError::ShapeMismatch {
                    op: "concat",
                    lhs: first.shape().dims().to_vec(),
                    rhs: t.shape().dims().to_vec(),
                });
            }
        }
        axis_total += t.shape().dim(axis);
    }
    let mut out_dims = first.shape().dims().to_vec();
    out_dims[axis] = axis_total;
    let out_shape = Shape::new(&out_dims);
    // Outer = product of axes before `axis`; inner = product after.
    let outer: usize = first.shape().dims()[..axis].iter().product();
    let inner: usize = first.shape().dims()[axis + 1..].iter().product();
    let mut out = vec![0.0f32; out_shape.len()];
    let row_out = axis_total * inner;
    for o in 0..outer {
        let mut offset = 0;
        for t in tensors {
            let ax = t.shape().dim(axis);
            let chunk = ax * inner;
            out[o * row_out + offset..o * row_out + offset + chunk]
                .copy_from_slice(&t.data()[o * chunk..(o + 1) * chunk]);
            offset += chunk;
        }
    }
    Tensor::from_vec(out, out_shape)
}

/// Splits `dy` back into the gradients of the [`concat()`](fn@concat) inputs.
///
/// # Errors
///
/// Returns [`TensorError::ShapeMismatch`] when `dy` does not cover the
/// concatenated extent.
pub fn concat_backward(input_shapes: &[Shape], axis: usize, dy: &Tensor) -> Result<Vec<Tensor>> {
    let total: usize = input_shapes.iter().map(|s| s.dim(axis)).sum();
    if dy.shape().dim(axis) != total {
        return Err(TensorError::ShapeMismatch {
            op: "concat_backward",
            lhs: dy.shape().dims().to_vec(),
            rhs: vec![total],
        });
    }
    let first = &input_shapes[0];
    let outer: usize = first.dims()[..axis].iter().product();
    let inner: usize = first.dims()[axis + 1..].iter().product();
    let row_out = total * inner;
    let mut grads = Vec::with_capacity(input_shapes.len());
    let mut offset = 0;
    for shape in input_shapes {
        let ax = shape.dim(axis);
        let chunk = ax * inner;
        let mut g = vec![0.0f32; shape.len()];
        for o in 0..outer {
            g[o * chunk..(o + 1) * chunk]
                .copy_from_slice(&dy.data()[o * row_out + offset..o * row_out + offset + chunk]);
        }
        grads.push(Tensor::from_vec(g, shape.clone())?);
        offset += chunk;
    }
    Ok(grads)
}

/// Extracts columns `[start, start+len)` from a rank-2 tensor.
///
/// # Errors
///
/// Returns rank/index errors for malformed arguments.
pub fn slice_cols(x: &Tensor, start: usize, len: usize) -> Result<Tensor> {
    if x.shape().rank() != 2 {
        return Err(TensorError::RankMismatch {
            op: "slice_cols",
            expected: 2,
            actual: x.shape().rank(),
        });
    }
    let (m, n) = (x.shape().dim(0), x.shape().dim(1));
    if start + len > n {
        return Err(TensorError::IndexOutOfRange {
            op: "slice_cols",
            index: start + len,
            bound: n + 1,
        });
    }
    let mut out = vec![0.0f32; m * len];
    for r in 0..m {
        out[r * len..(r + 1) * len].copy_from_slice(&x.data()[r * n + start..r * n + start + len]);
    }
    Tensor::from_vec(out, [m, len])
}

/// Backward of [`slice_cols`]: writes `dy` into a zero tensor of the input
/// shape.
///
/// # Errors
///
/// Returns rank/index errors mirroring the forward pass.
pub fn slice_cols_backward(input_shape: &Shape, start: usize, dy: &Tensor) -> Result<Tensor> {
    if input_shape.rank() != 2 {
        return Err(TensorError::RankMismatch {
            op: "slice_cols_backward",
            expected: 2,
            actual: input_shape.rank(),
        });
    }
    let (m, n) = (input_shape.dim(0), input_shape.dim(1));
    let len = dy.shape().dim(1);
    if start + len > n {
        return Err(TensorError::IndexOutOfRange {
            op: "slice_cols_backward",
            index: start + len,
            bound: n + 1,
        });
    }
    let mut dx = vec![0.0f32; m * n];
    for r in 0..m {
        dx[r * n + start..r * n + start + len].copy_from_slice(&dy.data()[r * len..(r + 1) * len]);
    }
    Tensor::from_vec(dx, input_shape.clone())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn concat_channels_nchw() {
        let a = Tensor::full([1, 2, 2, 2], 1.0);
        let b = Tensor::full([1, 1, 2, 2], 2.0);
        let c = concat(&[&a, &b], 1).unwrap();
        assert_eq!(c.shape().dims(), &[1, 3, 2, 2]);
        assert_eq!(&c.data()[..8], &[1.0; 8]);
        assert_eq!(&c.data()[8..], &[2.0; 4]);
    }

    #[test]
    fn concat_axis0_stacks_rows() {
        let a = Tensor::from_vec(vec![1.0, 2.0], [1, 2]).unwrap();
        let b = Tensor::from_vec(vec![3.0, 4.0], [1, 2]).unwrap();
        let c = concat(&[&a, &b], 0).unwrap();
        assert_eq!(c.data(), &[1.0, 2.0, 3.0, 4.0]);
    }

    #[test]
    fn concat_backward_splits() {
        let a = Tensor::full([2, 2], 0.0);
        let b = Tensor::full([2, 3], 0.0);
        let c = concat(&[&a, &b], 1).unwrap();
        let dy = Tensor::from_fn(c.shape().clone(), |i| i as f32);
        let grads = concat_backward(&[a.shape().clone(), b.shape().clone()], 1, &dy).unwrap();
        assert_eq!(grads[0].data(), &[0.0, 1.0, 5.0, 6.0]);
        assert_eq!(grads[1].data(), &[2.0, 3.0, 4.0, 7.0, 8.0, 9.0]);
    }

    #[test]
    fn concat_validates() {
        assert!(concat(&[], 0).is_err());
        let a = Tensor::zeros([2, 2]);
        let b = Tensor::zeros([3, 3]);
        assert!(concat(&[&a, &b], 0).is_err());
        assert!(concat(&[&a], 5).is_err());
    }

    #[test]
    fn slice_round_trip() {
        let x = Tensor::from_fn([2, 5], |i| i as f32);
        let s = slice_cols(&x, 1, 2).unwrap();
        assert_eq!(s.data(), &[1.0, 2.0, 6.0, 7.0]);
        let dx = slice_cols_backward(x.shape(), 1, &s).unwrap();
        assert_eq!(dx.data(), &[0.0, 1.0, 2.0, 0.0, 0.0, 0.0, 6.0, 7.0, 0.0, 0.0]);
    }

    #[test]
    fn slice_rejects_overrun() {
        let x = Tensor::zeros([2, 4]);
        assert!(slice_cols(&x, 3, 2).is_err());
    }
}

/// Extracts rows `[start, start+len)` from a rank-2 tensor (contiguous copy;
/// time-step extraction in recurrent networks).
///
/// # Errors
///
/// Returns rank/index errors for malformed arguments.
pub fn slice_rows(x: &Tensor, start: usize, len: usize) -> Result<Tensor> {
    if x.shape().rank() != 2 {
        return Err(TensorError::RankMismatch {
            op: "slice_rows",
            expected: 2,
            actual: x.shape().rank(),
        });
    }
    let (m, n) = (x.shape().dim(0), x.shape().dim(1));
    if start + len > m {
        return Err(TensorError::IndexOutOfRange {
            op: "slice_rows",
            index: start + len,
            bound: m + 1,
        });
    }
    Ok(Tensor::from_vec(x.data()[start * n..(start + len) * n].to_vec(), [len, n])
        .expect("length matches"))
}

/// Backward of [`slice_rows`]: writes `dy` into a zero tensor of the input
/// shape.
///
/// # Errors
///
/// Returns rank/index errors mirroring the forward pass.
pub fn slice_rows_backward(input_shape: &Shape, start: usize, dy: &Tensor) -> Result<Tensor> {
    if input_shape.rank() != 2 {
        return Err(TensorError::RankMismatch {
            op: "slice_rows_backward",
            expected: 2,
            actual: input_shape.rank(),
        });
    }
    let (m, n) = (input_shape.dim(0), input_shape.dim(1));
    let len = dy.shape().dim(0);
    if start + len > m {
        return Err(TensorError::IndexOutOfRange {
            op: "slice_rows_backward",
            index: start + len,
            bound: m + 1,
        });
    }
    let mut dx = vec![0.0f32; m * n];
    dx[start * n..(start + len) * n].copy_from_slice(dy.data());
    Tensor::from_vec(dx, input_shape.clone())
}

/// Permutes the axes of a rank-3 tensor: output axis `i` is input axis
/// `perm[i]` (e.g. `[1, 0, 2]` swaps time-major to batch-major).
///
/// # Errors
///
/// Returns rank errors for non-rank-3 input and
/// [`TensorError::InvalidArgument`] unless `perm` is a permutation of 0..3.
pub fn permute3(x: &Tensor, perm: [usize; 3]) -> Result<Tensor> {
    if x.shape().rank() != 3 {
        return Err(TensorError::RankMismatch {
            op: "permute3",
            expected: 3,
            actual: x.shape().rank(),
        });
    }
    let mut seen = [false; 3];
    for &p in &perm {
        if p > 2 || seen[p] {
            return Err(TensorError::InvalidArgument {
                op: "permute3",
                reason: format!("{perm:?} is not a permutation of [0, 1, 2]"),
            });
        }
        seen[p] = true;
    }
    let d = [x.shape().dim(0), x.shape().dim(1), x.shape().dim(2)];
    let od = [d[perm[0]], d[perm[1]], d[perm[2]]];
    let in_strides = [d[1] * d[2], d[2], 1];
    let mut out = vec![0.0f32; x.len()];
    let mut idx = 0;
    for o0 in 0..od[0] {
        for o1 in 0..od[1] {
            for o2 in 0..od[2] {
                let mut coords = [0usize; 3];
                coords[perm[0]] = o0;
                coords[perm[1]] = o1;
                coords[perm[2]] = o2;
                out[idx] =
                    x.data()[coords[0] * in_strides[0] + coords[1] * in_strides[1] + coords[2]];
                idx += 1;
            }
        }
    }
    Tensor::from_vec(out, [od[0], od[1], od[2]])
}

/// Inverse of a rank-3 permutation.
pub fn invert_perm3(perm: [usize; 3]) -> [usize; 3] {
    let mut inv = [0usize; 3];
    for (i, &p) in perm.iter().enumerate() {
        inv[p] = i;
    }
    inv
}

#[cfg(test)]
mod more_tests {
    use super::*;

    #[test]
    fn slice_rows_round_trip() {
        let x = Tensor::from_fn([4, 3], |i| i as f32);
        let s = slice_rows(&x, 1, 2).unwrap();
        assert_eq!(s.data(), &[3.0, 4.0, 5.0, 6.0, 7.0, 8.0]);
        let dx = slice_rows_backward(x.shape(), 1, &s).unwrap();
        assert_eq!(&dx.data()[3..9], s.data());
        assert_eq!(dx.data()[0], 0.0);
        assert!(slice_rows(&x, 3, 2).is_err());
    }

    #[test]
    fn permute3_swaps_axes() {
        let x = Tensor::from_fn([2, 3, 4], |i| i as f32);
        let y = permute3(&x, [1, 0, 2]).unwrap();
        assert_eq!(y.shape().dims(), &[3, 2, 4]);
        assert_eq!(y.at(&[2, 1, 3]), x.at(&[1, 2, 3]));
        // Round trip through the inverse permutation.
        let back = permute3(&y, invert_perm3([1, 0, 2])).unwrap();
        assert_eq!(back, x);
    }

    #[test]
    fn permute3_validates() {
        let x = Tensor::zeros([2, 2, 2]);
        assert!(permute3(&x, [0, 0, 1]).is_err());
        assert!(permute3(&Tensor::zeros([2, 2]), [0, 1, 2]).is_err());
    }

    #[test]
    fn permute3_identity() {
        let x = Tensor::from_fn([2, 2, 2], |i| i as f32);
        assert_eq!(permute3(&x, [0, 1, 2]).unwrap(), x);
    }
}
