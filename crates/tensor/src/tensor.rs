//! The dense `f32` tensor type.

use crate::{Result, Shape, TensorError};
use std::fmt;

/// A dense, row-major array of `f32` values with a dynamic [`Shape`].
///
/// `Tensor` is the value type flowing through the dataflow graphs of the TBD
/// reproduction. It is deliberately simple — contiguous storage, `f32` only —
/// because the paper's workloads train in single precision (FP32) and the
/// simulator's cost model is defined in terms of FP32 operations.
///
/// # Examples
///
/// ```
/// use tbd_tensor::Tensor;
///
/// # fn main() -> Result<(), tbd_tensor::TensorError> {
/// let t = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3])?;
/// assert_eq!(t.at(&[1, 2]), 6.0);
/// assert_eq!(t.shape().dims(), &[2, 3]);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Tensor {
    shape: Shape,
    data: Vec<f32>,
}

impl Tensor {
    /// Creates a tensor filled with zeros.
    pub fn zeros<S: Into<Shape>>(shape: S) -> Self {
        let shape = shape.into();
        let len = shape.len();
        Tensor { shape, data: vec![0.0; len] }
    }

    /// Creates a tensor filled with ones.
    pub fn ones<S: Into<Shape>>(shape: S) -> Self {
        let shape = shape.into();
        let len = shape.len();
        Tensor { shape, data: vec![1.0; len] }
    }

    /// Creates a tensor filled with `value`.
    pub fn full<S: Into<Shape>>(shape: S, value: f32) -> Self {
        let shape = shape.into();
        let len = shape.len();
        Tensor { shape, data: vec![value; len] }
    }

    /// Creates a rank-0 (scalar) tensor.
    pub fn scalar(value: f32) -> Self {
        Tensor { shape: Shape::scalar(), data: vec![value] }
    }

    /// Creates the `n`×`n` identity matrix.
    pub fn eye(n: usize) -> Self {
        let mut t = Tensor::zeros([n, n]);
        for i in 0..n {
            t.data[i * n + i] = 1.0;
        }
        t
    }

    /// Creates a tensor from an existing buffer.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::LengthMismatch`] when `data.len()` differs from
    /// the number of elements implied by `shape`.
    pub fn from_vec<S: Into<Shape>>(data: Vec<f32>, shape: S) -> Result<Self> {
        let shape = shape.into();
        if data.len() != shape.len() {
            return Err(TensorError::LengthMismatch { expected: shape.len(), actual: data.len() });
        }
        Ok(Tensor { shape, data })
    }

    /// Creates a 1-D tensor holding `data`.
    pub fn from_slice(data: &[f32]) -> Self {
        Tensor { shape: Shape::new(&[data.len()]), data: data.to_vec() }
    }

    /// Creates a tensor by evaluating `f` at every flat index.
    pub fn from_fn<S: Into<Shape>>(shape: S, f: impl FnMut(usize) -> f32) -> Self {
        let shape = shape.into();
        let data = (0..shape.len()).map(f).collect();
        Tensor { shape, data }
    }

    /// The tensor's shape.
    pub fn shape(&self) -> &Shape {
        &self.shape
    }

    /// Total number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Returns `true` when the tensor holds no elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Read-only view of the underlying buffer (row-major).
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Mutable view of the underlying buffer (row-major).
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Element at a multi-dimensional index.
    ///
    /// # Panics
    ///
    /// Panics if `index.len() != rank` or any coordinate is out of bounds.
    pub fn at(&self, index: &[usize]) -> f32 {
        self.data[self.flat_index(index)]
    }

    /// Sets the element at a multi-dimensional index.
    ///
    /// # Panics
    ///
    /// Panics if `index.len() != rank` or any coordinate is out of bounds.
    pub fn set(&mut self, index: &[usize], value: f32) {
        let i = self.flat_index(index);
        self.data[i] = value;
    }

    fn flat_index(&self, index: &[usize]) -> usize {
        assert_eq!(index.len(), self.shape.rank(), "index rank mismatch");
        let strides = self.shape.strides();
        index
            .iter()
            .zip(strides.iter())
            .zip(self.shape.dims())
            .map(|((&i, &s), &d)| {
                assert!(i < d, "index {i} out of bounds for axis of extent {d}");
                i * s
            })
            .sum()
    }

    /// Reinterprets the buffer under a new shape with the same element count.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::LengthMismatch`] when the element counts differ.
    pub fn reshape<S: Into<Shape>>(&self, shape: S) -> Result<Tensor> {
        let shape = shape.into();
        if shape.len() != self.len() {
            return Err(TensorError::LengthMismatch { expected: shape.len(), actual: self.len() });
        }
        Ok(Tensor { shape, data: self.data.clone() })
    }

    /// Sum of all elements.
    pub fn sum(&self) -> f32 {
        self.data.iter().sum()
    }

    /// Arithmetic mean of all elements (0.0 for an empty tensor).
    pub fn mean(&self) -> f32 {
        if self.data.is_empty() {
            0.0
        } else {
            self.sum() / self.data.len() as f32
        }
    }

    /// Largest element (negative infinity for an empty tensor).
    pub fn max(&self) -> f32 {
        self.data.iter().copied().fold(f32::NEG_INFINITY, f32::max)
    }

    /// Index of the largest element (`None` for an empty tensor).
    pub fn argmax(&self) -> Option<usize> {
        if self.data.is_empty() {
            return None;
        }
        let mut best = 0;
        for (i, &v) in self.data.iter().enumerate() {
            if v > self.data[best] {
                best = i;
            }
        }
        Some(best)
    }

    /// Euclidean (L2) norm of the flattened tensor.
    pub fn l2_norm(&self) -> f32 {
        self.data.iter().map(|v| v * v).sum::<f32>().sqrt()
    }

    /// Returns `true` when every element is finite (no NaN/∞).
    pub fn all_finite(&self) -> bool {
        self.data.iter().all(|v| v.is_finite())
    }

    /// Applies `f` to every element, returning a new tensor.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Tensor {
        Tensor { shape: self.shape.clone(), data: self.data.iter().map(|&v| f(v)).collect() }
    }

    /// Maximum absolute elementwise difference to `other`.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] when shapes differ.
    pub fn max_abs_diff(&self, other: &Tensor) -> Result<f32> {
        if self.shape != other.shape {
            return Err(TensorError::ShapeMismatch {
                op: "max_abs_diff",
                lhs: self.shape.dims().to_vec(),
                rhs: other.shape.dims().to_vec(),
            });
        }
        Ok(self.data.iter().zip(other.data.iter()).map(|(a, b)| (a - b).abs()).fold(0.0, f32::max))
    }
}

impl fmt::Display for Tensor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        const PREVIEW: usize = 8;
        write!(f, "Tensor{} [", self.shape)?;
        for (i, v) in self.data.iter().take(PREVIEW).enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{v:.4}")?;
        }
        if self.data.len() > PREVIEW {
            write!(f, ", ...")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_and_ones() {
        let z = Tensor::zeros([2, 3]);
        assert_eq!(z.sum(), 0.0);
        let o = Tensor::ones([2, 3]);
        assert_eq!(o.sum(), 6.0);
    }

    #[test]
    fn from_vec_rejects_bad_length() {
        let err = Tensor::from_vec(vec![1.0, 2.0], [3]).unwrap_err();
        assert_eq!(err, TensorError::LengthMismatch { expected: 3, actual: 2 });
    }

    #[test]
    fn indexing_round_trip() {
        let mut t = Tensor::zeros([2, 3, 4]);
        t.set(&[1, 2, 3], 42.0);
        assert_eq!(t.at(&[1, 2, 3]), 42.0);
        assert_eq!(t.data()[12 + 2 * 4 + 3], 42.0);
    }

    #[test]
    fn eye_is_identity() {
        let i = Tensor::eye(3);
        assert_eq!(i.at(&[0, 0]), 1.0);
        assert_eq!(i.at(&[1, 0]), 0.0);
        assert_eq!(i.sum(), 3.0);
    }

    #[test]
    fn reshape_preserves_data() {
        let t = Tensor::from_slice(&[1.0, 2.0, 3.0, 4.0]);
        let r = t.reshape([2, 2]).unwrap();
        assert_eq!(r.at(&[1, 1]), 4.0);
        assert!(t.reshape([3]).is_err());
    }

    #[test]
    fn argmax_picks_first_maximum() {
        let t = Tensor::from_slice(&[1.0, 5.0, 5.0, 2.0]);
        assert_eq!(t.argmax(), Some(1));
        assert_eq!(Tensor::from_slice(&[]).argmax(), None);
    }

    #[test]
    fn statistics() {
        let t = Tensor::from_slice(&[3.0, 4.0]);
        assert_eq!(t.mean(), 3.5);
        assert_eq!(t.max(), 4.0);
        assert!((t.l2_norm() - 5.0).abs() < 1e-6);
    }

    #[test]
    fn all_finite_detects_nan() {
        let t = Tensor::from_slice(&[1.0, f32::NAN]);
        assert!(!t.all_finite());
        assert!(Tensor::ones([4]).all_finite());
    }

    #[test]
    fn display_is_never_empty() {
        let t = Tensor::zeros([0]);
        assert!(!format!("{t}").is_empty());
        let big = Tensor::zeros([100]);
        assert!(format!("{big}").contains("..."));
    }

    #[test]
    fn max_abs_diff_checks_shapes() {
        let a = Tensor::ones([2]);
        let b = Tensor::zeros([3]);
        assert!(a.max_abs_diff(&b).is_err());
        let c = Tensor::from_slice(&[0.5, 2.0]);
        assert_eq!(a.max_abs_diff(&c).unwrap(), 1.0);
    }
}
