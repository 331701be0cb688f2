//! Dense row-major `f32` tensors.

use std::fmt;
use std::ops::{Add, Div, Mul, Neg, Sub};

use crate::Shape;

/// A dense, row-major tensor of `f32` values.
///
/// This is the workhorse value type of the whole workspace: DNN weights and
/// activations, ADMM auxiliary/dual variables, and the digital reference
/// results that the analog crossbar simulation is checked against are all
/// `Tensor`s.
///
/// # Example
///
/// ```
/// use forms_tensor::Tensor;
///
/// let t = Tensor::from_vec(vec![1.0, -2.0, 3.0, -4.0], &[2, 2]);
/// assert_eq!(t.get(&[1, 0]), 3.0);
/// assert_eq!(t.map(f32::abs).sum(), 10.0);
/// ```
#[derive(Clone, PartialEq)]
pub struct Tensor {
    shape: Shape,
    data: Vec<f32>,
}

impl Tensor {
    /// Creates a tensor from raw row-major data.
    ///
    /// # Panics
    ///
    /// Panics if `data.len()` does not match the number of elements implied
    /// by `shape`.
    pub fn from_vec(data: Vec<f32>, shape: &[usize]) -> Self {
        let shape = Shape::new(shape);
        assert_eq!(
            data.len(),
            shape.len(),
            "data length {} does not match shape {} ({} elements)",
            data.len(),
            shape,
            shape.len()
        );
        Self { shape, data }
    }

    /// Creates a tensor filled with `value`.
    pub fn full(shape: &[usize], value: f32) -> Self {
        let shape = Shape::new(shape);
        let data = vec![value; shape.len()];
        Self { shape, data }
    }

    /// Creates a zero-filled tensor.
    pub fn zeros(shape: &[usize]) -> Self {
        Self::full(shape, 0.0)
    }

    /// Creates a one-filled tensor.
    pub fn ones(shape: &[usize]) -> Self {
        Self::full(shape, 1.0)
    }

    /// Creates the `n × n` identity matrix.
    pub fn eye(n: usize) -> Self {
        let mut t = Self::zeros(&[n, n]);
        for i in 0..n {
            t.data[i * n + i] = 1.0;
        }
        t
    }

    /// Builds a tensor by calling `f` for every linear offset.
    pub fn from_fn(shape: &[usize], mut f: impl FnMut(usize) -> f32) -> Self {
        let shape = Shape::new(shape);
        let data = (0..shape.len()).map(&mut f).collect();
        Self { shape, data }
    }

    /// The shape of this tensor.
    pub fn shape(&self) -> &Shape {
        &self.shape
    }

    /// The dimension extents, as a slice.
    pub fn dims(&self) -> &[usize] {
        self.shape.dims()
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the tensor has zero elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Read-only view of the underlying row-major data.
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Mutable view of the underlying row-major data.
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Consumes the tensor, returning the underlying data.
    pub fn into_vec(self) -> Vec<f32> {
        self.data
    }

    /// Value at a multi-dimensional index.
    ///
    /// # Panics
    ///
    /// Panics if the index is out of bounds or has the wrong rank.
    pub fn get(&self, index: &[usize]) -> f32 {
        self.data[self.shape.offset(index)]
    }

    /// Sets the value at a multi-dimensional index.
    ///
    /// # Panics
    ///
    /// Panics if the index is out of bounds or has the wrong rank.
    pub fn set(&mut self, index: &[usize], value: f32) {
        let off = self.shape.offset(index);
        self.data[off] = value;
    }

    /// Returns a tensor with the same data but a new shape.
    ///
    /// # Panics
    ///
    /// Panics if the new shape has a different number of elements.
    pub fn reshape(&self, shape: &[usize]) -> Tensor {
        let new_shape = Shape::new(shape);
        assert!(
            self.shape.same_len(&new_shape),
            "cannot reshape {} ({} elements) into {} ({} elements)",
            self.shape,
            self.shape.len(),
            new_shape,
            new_shape.len()
        );
        Tensor {
            shape: new_shape,
            data: self.data.clone(),
        }
    }

    /// Applies `f` elementwise, producing a new tensor.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Tensor {
        Tensor {
            shape: self.shape.clone(),
            data: self.data.iter().copied().map(f).collect(),
        }
    }

    /// Applies `f` elementwise in place.
    pub fn map_inplace(&mut self, f: impl Fn(f32) -> f32) {
        for v in &mut self.data {
            *v = f(*v);
        }
    }

    /// Combines two same-shaped tensors elementwise.
    ///
    /// # Panics
    ///
    /// Panics if the shapes differ.
    pub fn zip(&self, other: &Tensor, f: impl Fn(f32, f32) -> f32) -> Tensor {
        assert_eq!(
            self.shape, other.shape,
            "elementwise op requires equal shapes ({} vs {})",
            self.shape, other.shape
        );
        Tensor {
            shape: self.shape.clone(),
            data: self
                .data
                .iter()
                .zip(&other.data)
                .map(|(&a, &b)| f(a, b))
                .collect(),
        }
    }

    /// `self + alpha * other`, the BLAS `axpy` primitive used pervasively by
    /// the optimizer and ADMM dual updates.
    ///
    /// # Panics
    ///
    /// Panics if the shapes differ.
    pub fn axpy(&mut self, alpha: f32, other: &Tensor) {
        assert_eq!(
            self.shape, other.shape,
            "axpy requires equal shapes ({} vs {})",
            self.shape, other.shape
        );
        for (a, &b) in self.data.iter_mut().zip(&other.data) {
            *a += alpha * b;
        }
    }

    /// Multiplies every element by `alpha`.
    pub fn scale(&mut self, alpha: f32) {
        for v in &mut self.data {
            *v *= alpha;
        }
    }

    /// Sum of all elements.
    pub fn sum(&self) -> f32 {
        self.data.iter().sum()
    }

    /// Arithmetic mean of all elements (0 for an empty tensor).
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

    /// Smallest element (positive infinity for an empty tensor).
    pub fn min(&self) -> f32 {
        self.data.iter().copied().fold(f32::INFINITY, f32::min)
    }

    /// Largest absolute value (0 for an empty tensor).
    pub fn abs_max(&self) -> f32 {
        self.data.iter().fold(0.0f32, |m, &v| m.max(v.abs()))
    }

    /// Squared Frobenius norm (sum of squares).
    pub fn norm_sq(&self) -> f32 {
        self.data.iter().map(|v| v * v).sum()
    }

    /// Frobenius norm.
    pub fn norm(&self) -> f32 {
        self.norm_sq().sqrt()
    }

    /// Number of non-zero elements.
    pub fn count_nonzero(&self) -> usize {
        self.data.iter().filter(|&&v| v != 0.0).count()
    }

    /// Index of the largest element (first occurrence). `None` if empty.
    pub fn argmax(&self) -> Option<usize> {
        self.data
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).unwrap_or(std::cmp::Ordering::Equal))
            .map(|(i, _)| i)
    }

    /// Matrix product of two rank-2 tensors.
    ///
    /// # Panics
    ///
    /// Panics if either operand is not rank-2 or the inner dimensions
    /// disagree.
    pub fn matmul(&self, other: &Tensor) -> Tensor {
        assert_eq!(self.shape.rank(), 2, "matmul lhs must be rank-2");
        assert_eq!(other.shape.rank(), 2, "matmul rhs must be rank-2");
        let (m, k) = (self.shape.dim(0), self.shape.dim(1));
        let (k2, n) = (other.shape.dim(0), other.shape.dim(1));
        assert_eq!(k, k2, "matmul inner dimensions disagree ({} vs {})", k, k2);
        let mut out = vec![0.0f32; m * n];
        // i-k-j loop order keeps the inner loop streaming over contiguous
        // rows of both `other` and `out`.
        for i in 0..m {
            for p in 0..k {
                let a = self.data[i * k + p];
                if a == 0.0 {
                    continue;
                }
                let row = &other.data[p * n..(p + 1) * n];
                let dst = &mut out[i * n..(i + 1) * n];
                for (d, &b) in dst.iter_mut().zip(row) {
                    *d += a * b;
                }
            }
        }
        Tensor::from_vec(out, &[m, n])
    }

    /// Transpose of a rank-2 tensor.
    ///
    /// # Panics
    ///
    /// Panics if the tensor is not rank-2.
    pub fn transpose(&self) -> Tensor {
        assert_eq!(self.shape.rank(), 2, "transpose requires a rank-2 tensor");
        let (m, n) = (self.shape.dim(0), self.shape.dim(1));
        let mut out = vec![0.0f32; m * n];
        for i in 0..m {
            for j in 0..n {
                out[j * m + i] = self.data[i * n + j];
            }
        }
        Tensor::from_vec(out, &[n, m])
    }

    /// Matrix–vector product `self · v` for a rank-2 tensor.
    ///
    /// # Panics
    ///
    /// Panics if `self` is not rank-2 or the dimensions disagree.
    pub fn matvec(&self, v: &[f32]) -> Vec<f32> {
        assert_eq!(self.shape.rank(), 2, "matvec requires a rank-2 tensor");
        let (m, k) = (self.shape.dim(0), self.shape.dim(1));
        assert_eq!(
            k,
            v.len(),
            "matvec dimension mismatch ({} vs {})",
            k,
            v.len()
        );
        (0..m)
            .map(|i| {
                self.data[i * k..(i + 1) * k]
                    .iter()
                    .zip(v)
                    .map(|(&a, &b)| a * b)
                    .sum()
            })
            .collect()
    }

    /// Maximum absolute elementwise difference to another tensor.
    ///
    /// # Panics
    ///
    /// Panics if the shapes differ.
    pub fn max_abs_diff(&self, other: &Tensor) -> f32 {
        assert_eq!(
            self.shape, other.shape,
            "max_abs_diff requires equal shapes"
        );
        self.data
            .iter()
            .zip(&other.data)
            .fold(0.0f32, |m, (&a, &b)| m.max((a - b).abs()))
    }

    /// Whether every element is within `tol` of the corresponding element of
    /// `other`.
    pub fn allclose(&self, other: &Tensor, tol: f32) -> bool {
        self.shape == other.shape && self.max_abs_diff(other) <= tol
    }
}

impl fmt::Debug for Tensor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Tensor(shape={}, ", self.shape)?;
        if self.data.len() <= 8 {
            write!(f, "data={:?})", self.data)
        } else {
            write!(
                f,
                "data=[{}, {}, … {} more])",
                self.data[0],
                self.data[1],
                self.data.len() - 2
            )
        }
    }
}

impl Default for Tensor {
    fn default() -> Self {
        Tensor::zeros(&[0])
    }
}

macro_rules! elementwise_op {
    ($trait:ident, $method:ident, $op:tt) => {
        impl $trait for &Tensor {
            type Output = Tensor;
            fn $method(self, rhs: &Tensor) -> Tensor {
                self.zip(rhs, |a, b| a $op b)
            }
        }
        impl $trait<f32> for &Tensor {
            type Output = Tensor;
            fn $method(self, rhs: f32) -> Tensor {
                self.map(|a| a $op rhs)
            }
        }
    };
}

elementwise_op!(Add, add, +);
elementwise_op!(Sub, sub, -);
elementwise_op!(Mul, mul, *);
elementwise_op!(Div, div, /);

impl Neg for &Tensor {
    type Output = Tensor;
    fn neg(self) -> Tensor {
        self.map(|a| -a)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_vec_checks_length() {
        let t = Tensor::from_vec(vec![1.0, 2.0], &[2]);
        assert_eq!(t.len(), 2);
    }

    #[test]
    #[should_panic(expected = "does not match shape")]
    fn from_vec_rejects_bad_length() {
        Tensor::from_vec(vec![1.0], &[2]);
    }

    #[test]
    fn matmul_identity() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]);
        let i = Tensor::eye(3);
        assert_eq!(a.matmul(&i), a);
    }

    #[test]
    fn matmul_known_product() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]);
        let b = Tensor::from_vec(vec![5.0, 6.0, 7.0, 8.0], &[2, 2]);
        let c = a.matmul(&b);
        assert_eq!(c.data(), &[19.0, 22.0, 43.0, 50.0]);
    }

    #[test]
    fn transpose_involution() {
        let a = Tensor::from_vec((0..12).map(|v| v as f32).collect(), &[3, 4]);
        assert_eq!(a.transpose().transpose(), a);
    }

    #[test]
    fn matvec_matches_matmul() {
        let a = Tensor::from_vec(vec![1.0, -1.0, 2.0, 0.5, 0.0, 3.0], &[2, 3]);
        let v = [2.0, 3.0, 4.0];
        let got = a.matvec(&v);
        let want = a.matmul(&Tensor::from_vec(v.to_vec(), &[3, 1]));
        assert_eq!(got, want.data());
    }

    #[test]
    fn axpy_accumulates() {
        let mut a = Tensor::ones(&[4]);
        let b = Tensor::full(&[4], 2.0);
        a.axpy(0.5, &b);
        assert_eq!(a.data(), &[2.0, 2.0, 2.0, 2.0]);
    }

    #[test]
    fn reductions() {
        let t = Tensor::from_vec(vec![-3.0, 1.0, 2.0], &[3]);
        assert_eq!(t.sum(), 0.0);
        assert_eq!(t.max(), 2.0);
        assert_eq!(t.min(), -3.0);
        assert_eq!(t.abs_max(), 3.0);
        assert_eq!(t.argmax(), Some(2));
        assert_eq!(t.count_nonzero(), 3);
    }

    #[test]
    fn reshape_preserves_data() {
        let t = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]);
        let r = t.reshape(&[4]);
        assert_eq!(r.data(), t.data());
        assert_eq!(r.dims(), &[4]);
    }

    #[test]
    fn operator_overloads() {
        let a = Tensor::from_vec(vec![1.0, 2.0], &[2]);
        let b = Tensor::from_vec(vec![3.0, 4.0], &[2]);
        assert_eq!((&a + &b).data(), &[4.0, 6.0]);
        assert_eq!((&a - &b).data(), &[-2.0, -2.0]);
        assert_eq!((&a * &b).data(), &[3.0, 8.0]);
        assert_eq!((&b / 2.0).data(), &[1.5, 2.0]);
        assert_eq!((-&a).data(), &[-1.0, -2.0]);
    }

    #[test]
    fn allclose_tolerance() {
        let a = Tensor::from_vec(vec![1.0, 2.0], &[2]);
        let b = Tensor::from_vec(vec![1.01, 2.0], &[2]);
        assert!(a.allclose(&b, 0.02));
        assert!(!a.allclose(&b, 0.001));
    }
}
