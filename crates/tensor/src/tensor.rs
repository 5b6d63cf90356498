//! The dense `f32` tensor type.

use crate::shape::Shape;
use crate::Prng;
use std::fmt;
use std::ops::{Add, AddAssign, Mul, Sub};

/// A dense, row-major, `f32` n-dimensional array.
///
/// `Tensor` is deliberately simple: it owns a flat `Vec<f32>` plus a
/// [`Shape`]. All neural-network layers in `taco-nn` are written against
/// this type, and the federated-learning algorithms in `taco-core` work
/// on the flat data directly via [`Tensor::data`].
///
/// # Example
///
/// ```
/// use taco_tensor::Tensor;
///
/// let t = Tensor::zeros(&[2, 3]);
/// assert_eq!(t.len(), 6);
/// let u = t.map(|x| x + 1.0);
/// assert_eq!(u.sum(), 6.0);
/// ```
#[derive(Clone, PartialEq, Default)]
pub struct Tensor {
    data: Vec<f32>,
    shape: Shape,
}

impl Tensor {
    /// Creates a tensor of zeros with the given shape.
    pub fn zeros(shape: impl Into<Shape>) -> Self {
        let shape = shape.into();
        Tensor {
            data: vec![0.0; shape.len()],
            shape,
        }
    }

    /// Creates a tensor filled with `value`.
    pub fn full(shape: impl Into<Shape>, value: f32) -> Self {
        let shape = shape.into();
        Tensor {
            data: vec![value; shape.len()],
            shape,
        }
    }

    /// Creates an identity matrix of size `n × n`.
    pub fn eye(n: usize) -> Self {
        let mut t = Tensor::zeros(&[n, n][..]);
        for i in 0..n {
            t.data[i * n + i] = 1.0;
        }
        t
    }

    /// Creates a tensor from existing data.
    ///
    /// # Panics
    ///
    /// Panics if `data.len()` does not match the number of elements
    /// implied by `shape`.
    pub fn from_vec(data: Vec<f32>, shape: impl Into<Shape>) -> Self {
        let shape = shape.into();
        assert_eq!(
            data.len(),
            shape.len(),
            "data length {} does not match shape {} ({} elements)",
            data.len(),
            shape,
            shape.len()
        );
        Tensor { data, shape }
    }

    /// Creates a tensor with entries drawn i.i.d. from `N(0, std²)`.
    pub fn randn(shape: impl Into<Shape>, std: f32, rng: &mut Prng) -> Self {
        let shape = shape.into();
        let data = (0..shape.len()).map(|_| rng.normal_f32() * std).collect();
        Tensor { data, shape }
    }

    /// Creates a tensor with entries drawn i.i.d. from `U(-limit, limit)`.
    ///
    /// This is the classic fan-in uniform initialization used by the
    /// workspace layers.
    pub fn rand_uniform(shape: impl Into<Shape>, limit: f32, rng: &mut Prng) -> Self {
        let shape = shape.into();
        let data = (0..shape.len())
            .map(|_| (rng.uniform_f32() * 2.0 - 1.0) * limit)
            .collect();
        Tensor { data, shape }
    }

    /// Returns the shape.
    pub fn shape(&self) -> &Shape {
        &self.shape
    }

    /// Returns the dimension list.
    pub fn dims(&self) -> &[usize] {
        self.shape.dims()
    }

    /// Returns the number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Returns `true` if the tensor has no elements.
    ///
    /// Because [`Shape`] rejects zero-sized dimensions this is only true
    /// for a default-constructed tensor.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Returns the flat data slice (row-major).
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Returns the flat data slice mutably.
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Consumes the tensor and returns its flat data.
    pub fn into_vec(self) -> Vec<f32> {
        self.data
    }

    /// Returns the element at a multi-index.
    ///
    /// # Panics
    ///
    /// Panics if the index rank mismatches; coordinates are
    /// bounds-checked in debug builds.
    pub fn at(&self, index: &[usize]) -> f32 {
        self.data[self.shape.offset(index)]
    }

    /// Sets the element at a multi-index.
    ///
    /// # Panics
    ///
    /// Panics if the index rank mismatches.
    pub fn set(&mut self, index: &[usize], value: f32) {
        let off = self.shape.offset(index);
        self.data[off] = value;
    }

    /// Applies `f` element-wise, producing a new tensor.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Self {
        Tensor {
            data: self.data.iter().map(|&x| f(x)).collect(),
            shape: self.shape.clone(),
        }
    }

    /// Combines two tensors element-wise with `f`.
    ///
    /// # Panics
    ///
    /// Panics if the shapes differ.
    pub fn zip(&self, other: &Tensor, f: impl Fn(f32, f32) -> f32) -> Self {
        assert_eq!(self.shape, other.shape, "shape mismatch in zip");
        Tensor {
            data: self
                .data
                .iter()
                .zip(&other.data)
                .map(|(&a, &b)| f(a, b))
                .collect(),
            shape: self.shape.clone(),
        }
    }

    /// Multiplies every element by a scalar, in place.
    pub fn scale(&mut self, s: f32) {
        for x in &mut self.data {
            *x *= s;
        }
    }

    /// Returns the sum of all elements.
    pub fn sum(&self) -> f32 {
        self.data.iter().sum()
    }

    /// Returns the arithmetic mean of all elements.
    ///
    /// Returns `0.0` for an empty tensor.
    pub fn mean(&self) -> f32 {
        if self.data.is_empty() {
            0.0
        } else {
            self.sum() / self.data.len() as f32
        }
    }

    /// Returns the maximum element.
    ///
    /// # Panics
    ///
    /// Panics if the tensor is empty.
    pub fn max(&self) -> f32 {
        assert!(!self.data.is_empty(), "max of empty tensor");
        self.data.iter().copied().fold(f32::NEG_INFINITY, f32::max)
    }

    /// Returns the Euclidean (L2) norm of the flat data.
    pub fn norm(&self) -> f32 {
        crate::ops::norm(&self.data)
    }

    /// Interprets the tensor as a matrix and returns row `r` as a slice.
    ///
    /// # Panics
    ///
    /// Panics if the tensor is not 2-D or `r` is out of bounds.
    pub fn row(&self, r: usize) -> &[f32] {
        assert_eq!(self.shape.ndim(), 2, "row() requires a 2-D tensor");
        let cols = self.shape.dim(1);
        &self.data[r * cols..(r + 1) * cols]
    }

    /// Mutable variant of [`Tensor::row`].
    ///
    /// # Panics
    ///
    /// Panics if the tensor is not 2-D or `r` is out of bounds.
    pub fn row_mut(&mut self, r: usize) -> &mut [f32] {
        assert_eq!(self.shape.ndim(), 2, "row_mut() requires a 2-D tensor");
        let cols = self.shape.dim(1);
        &mut self.data[r * cols..(r + 1) * cols]
    }

    /// Returns the transpose of a 2-D tensor.
    ///
    /// # Panics
    ///
    /// Panics if the tensor is not 2-D.
    pub fn transpose(&self) -> Tensor {
        assert_eq!(self.shape.ndim(), 2, "transpose() requires a 2-D tensor");
        let (r, c) = (self.shape.dim(0), self.shape.dim(1));
        let mut out = Tensor::zeros(&[c, r][..]);
        for i in 0..r {
            for j in 0..c {
                out.data[j * r + i] = self.data[i * c + j];
            }
        }
        out
    }

    /// Adds `other * alpha` to `self` in place (flat AXPY).
    ///
    /// # Panics
    ///
    /// Panics if the shapes differ.
    pub fn axpy(&mut self, alpha: f32, other: &Tensor) {
        assert_eq!(self.shape, other.shape, "shape mismatch in axpy");
        crate::ops::axpy(&mut self.data, alpha, &other.data);
    }
}

impl fmt::Debug for Tensor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.data.len() <= 8 {
            write!(f, "Tensor({}, {:?})", self.shape, self.data)
        } else {
            write!(
                f,
                "Tensor({}, [{:.4}, {:.4}, .., {:.4}])",
                self.shape,
                self.data[0],
                self.data[1],
                self.data[self.data.len() - 1]
            )
        }
    }
}

impl Add<&Tensor> for &Tensor {
    type Output = Tensor;

    fn add(self, rhs: &Tensor) -> Tensor {
        self.zip(rhs, |a, b| a + b)
    }
}

impl Sub<&Tensor> for &Tensor {
    type Output = Tensor;

    fn sub(self, rhs: &Tensor) -> Tensor {
        self.zip(rhs, |a, b| a - b)
    }
}

impl Mul<f32> for &Tensor {
    type Output = Tensor;

    fn mul(self, rhs: f32) -> Tensor {
        self.map(|x| x * rhs)
    }
}

impl AddAssign<&Tensor> for Tensor {
    fn add_assign(&mut self, rhs: &Tensor) {
        assert_eq!(self.shape, rhs.shape, "shape mismatch in +=");
        for (a, b) in self.data.iter_mut().zip(&rhs.data) {
            *a += b;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_and_full() {
        let z = Tensor::zeros(&[2, 2][..]);
        assert_eq!(z.sum(), 0.0);
        let f = Tensor::full(&[3][..], 2.5);
        assert_eq!(f.sum(), 7.5);
    }

    #[test]
    fn eye_diagonal() {
        let e = Tensor::eye(3);
        assert_eq!(e.at(&[0, 0]), 1.0);
        assert_eq!(e.at(&[1, 2]), 0.0);
        assert_eq!(e.sum(), 3.0);
    }

    #[test]
    #[should_panic(expected = "does not match shape")]
    fn from_vec_length_mismatch_panics() {
        let _ = Tensor::from_vec(vec![1.0; 5], &[2, 2][..]);
    }

    #[test]
    fn map_and_zip() {
        let a = Tensor::from_vec(vec![1.0, 2.0], &[2][..]);
        let b = Tensor::from_vec(vec![3.0, 4.0], &[2][..]);
        assert_eq!(a.map(|x| 2.0 * x).data(), &[2.0, 4.0]);
        assert_eq!(a.zip(&b, |x, y| x * y).data(), &[3.0, 8.0]);
    }

    #[test]
    fn transpose_roundtrip() {
        let t = Tensor::from_vec((0..6).map(|x| x as f32).collect(), &[2, 3][..]);
        let tt = t.transpose().transpose();
        assert_eq!(tt, t);
    }

    #[test]
    fn row_access() {
        let t = Tensor::from_vec((0..6).map(|x| x as f32).collect(), &[2, 3][..]);
        assert_eq!(t.row(1), &[3.0, 4.0, 5.0]);
    }

    #[test]
    fn arithmetic_operators() {
        let a = Tensor::from_vec(vec![1.0, 2.0], &[2][..]);
        let b = Tensor::from_vec(vec![0.5, 0.5], &[2][..]);
        assert_eq!((&a + &b).data(), &[1.5, 2.5]);
        assert_eq!((&a - &b).data(), &[0.5, 1.5]);
        assert_eq!((&a * 2.0).data(), &[2.0, 4.0]);
        let mut c = a.clone();
        c += &b;
        assert_eq!(c.data(), &[1.5, 2.5]);
    }

    #[test]
    fn axpy_accumulates() {
        let mut a = Tensor::zeros(&[3][..]);
        let b = Tensor::full(&[3][..], 2.0);
        a.axpy(0.5, &b);
        assert_eq!(a.data(), &[1.0, 1.0, 1.0]);
    }

    #[test]
    fn randn_is_deterministic_per_seed() {
        let mut r1 = Prng::seed_from_u64(7);
        let mut r2 = Prng::seed_from_u64(7);
        let a = Tensor::randn(&[16][..], 1.0, &mut r1);
        let b = Tensor::randn(&[16][..], 1.0, &mut r2);
        assert_eq!(a, b);
    }

    #[test]
    fn debug_is_never_empty() {
        assert!(!format!("{:?}", Tensor::default()).is_empty());
        assert!(!format!("{:?}", Tensor::zeros(&[100][..])).is_empty());
    }
}
