//! Dynamic tensor shapes.

use std::fmt;

/// The extent of a tensor along each axis, in row-major order.
///
/// Shapes are cheap to clone and compare; a scalar is represented by the
/// empty shape `[]` (one element).
///
/// # Examples
///
/// ```
/// use tbd_tensor::Shape;
///
/// let s = Shape::new(&[32, 3, 224, 224]);
/// assert_eq!(s.rank(), 4);
/// assert_eq!(s.len(), 32 * 3 * 224 * 224);
/// assert_eq!(s.dim(0), 32);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub struct Shape(Vec<usize>);

impl Shape {
    /// Creates a shape from a slice of axis extents.
    pub fn new(dims: &[usize]) -> Self {
        Shape(dims.to_vec())
    }

    /// Creates the scalar shape `[]`.
    pub fn scalar() -> Self {
        Shape(Vec::new())
    }

    /// Number of axes.
    pub fn rank(&self) -> usize {
        self.0.len()
    }

    /// Total number of elements (product of all extents; 1 for a scalar).
    pub fn len(&self) -> usize {
        self.0.iter().product()
    }

    /// Returns `true` when the shape holds zero elements.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Extent along axis `axis`.
    ///
    /// # Panics
    ///
    /// Panics if `axis >= rank()`.
    pub fn dim(&self, axis: usize) -> usize {
        self.0[axis]
    }

    /// All extents as a slice.
    pub fn dims(&self) -> &[usize] {
        &self.0
    }

    /// Row-major strides (elements, not bytes) for this shape.
    ///
    /// ```
    /// use tbd_tensor::Shape;
    /// assert_eq!(Shape::new(&[2, 3, 4]).strides(), vec![12, 4, 1]);
    /// ```
    pub fn strides(&self) -> Vec<usize> {
        let mut strides = vec![1; self.rank()];
        for i in (0..self.rank().saturating_sub(1)).rev() {
            strides[i] = strides[i + 1] * self.0[i + 1];
        }
        strides
    }

    /// Size in bytes assuming `f32` elements, or `None` when that count
    /// overflows `usize` (so [`Shape::len`] and [`Shape::byte_len`] would
    /// wrap).
    pub fn checked_byte_len(&self) -> Option<usize> {
        self.0.iter().try_fold(std::mem::size_of::<f32>(), |bytes, &d| bytes.checked_mul(d))
    }

    /// Size in bytes assuming `f32` elements.
    pub fn byte_len(&self) -> usize {
        self.len() * std::mem::size_of::<f32>()
    }

    /// Returns a new shape with `axis` removed.
    ///
    /// # Panics
    ///
    /// Panics if `axis >= rank()`.
    pub fn without_axis(&self, axis: usize) -> Shape {
        let mut dims = self.0.clone();
        dims.remove(axis);
        Shape(dims)
    }
}

impl From<Vec<usize>> for Shape {
    fn from(dims: Vec<usize>) -> Self {
        Shape(dims)
    }
}

impl From<&[usize]> for Shape {
    fn from(dims: &[usize]) -> Self {
        Shape::new(dims)
    }
}

impl<const N: usize> From<[usize; N]> for Shape {
    fn from(dims: [usize; N]) -> Self {
        Shape(dims.to_vec())
    }
}

impl<const N: usize> From<&[usize; N]> for Shape {
    fn from(dims: &[usize; N]) -> Self {
        Shape(dims.to_vec())
    }
}

impl From<&Shape> for Shape {
    fn from(shape: &Shape) -> Self {
        shape.clone()
    }
}

impl fmt::Display for Shape {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[")?;
        for (i, d) in self.0.iter().enumerate() {
            if i > 0 {
                write!(f, "x")?;
            }
            write!(f, "{d}")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_has_one_element() {
        let s = Shape::scalar();
        assert_eq!(s.rank(), 0);
        assert_eq!(s.len(), 1);
        assert!(!s.is_empty());
    }

    #[test]
    fn checked_byte_len_refuses_only_overflow() {
        assert_eq!(Shape::new(&[2, 3]).checked_byte_len(), Some(24));
        assert_eq!(Shape::scalar().checked_byte_len(), Some(4));
        assert_eq!(Shape::new(&[1 << 62, 1]).checked_byte_len(), None);
        assert_eq!(Shape::new(&[usize::MAX / 4, 1]).checked_byte_len(), Some(usize::MAX / 4 * 4));
        assert_eq!(Shape::new(&[0, usize::MAX]).checked_byte_len(), Some(0));
    }

    #[test]
    fn strides_are_row_major() {
        assert_eq!(Shape::new(&[4, 5]).strides(), vec![5, 1]);
        assert_eq!(Shape::new(&[2, 3, 4]).strides(), vec![12, 4, 1]);
        assert_eq!(Shape::new(&[7]).strides(), vec![1]);
    }

    #[test]
    fn zero_extent_axis_means_empty() {
        let s = Shape::new(&[3, 0, 2]);
        assert_eq!(s.len(), 0);
        assert!(s.is_empty());
    }

    #[test]
    fn without_axis_removes_extent() {
        let s = Shape::new(&[2, 3, 4]);
        assert_eq!(s.without_axis(1), Shape::new(&[2, 4]));
    }

    #[test]
    fn display_uses_x_separator() {
        assert_eq!(Shape::new(&[32, 3, 224, 224]).to_string(), "[32x3x224x224]");
        assert_eq!(Shape::scalar().to_string(), "[]");
    }

    #[test]
    fn byte_len_counts_f32() {
        assert_eq!(Shape::new(&[10]).byte_len(), 40);
    }

    #[test]
    fn from_array_and_vec() {
        let a: Shape = [1, 2].into();
        let b: Shape = vec![1, 2].into();
        assert_eq!(a, b);
    }
}
