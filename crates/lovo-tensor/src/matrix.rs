//! Row-major dense `f32` matrix used by every encoder in the workspace.
//!
//! The matrix is deliberately simple: a `Vec<f32>` plus `(rows, cols)`. All
//! binary operations validate shapes and return [`TensorError`] rather than
//! panicking, so encoder configuration mistakes surface as recoverable errors.

use crate::{Result, TensorError};
use serde::{Deserialize, Serialize};

/// A dense, row-major matrix of `f32` values. The default is the empty
/// `0 x 0` matrix.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl Matrix {
    /// Creates a matrix of the given shape filled with zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates a matrix of the given shape filled with `value`.
    pub fn full(rows: usize, cols: usize, value: f32) -> Self {
        Self {
            rows,
            cols,
            data: vec![value; rows * cols],
        }
    }

    /// Creates the identity matrix of size `n`.
    pub fn identity(n: usize) -> Self {
        let mut m = Self::zeros(n, n);
        for i in 0..n {
            m.data[i * n + i] = 1.0;
        }
        m
    }

    /// Builds a matrix from a flat row-major buffer.
    ///
    /// Returns an error if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Result<Self> {
        if data.len() != rows * cols {
            return Err(TensorError::ShapeMismatch(format!(
                "from_vec: buffer of {} elements cannot form a {rows}x{cols} matrix",
                data.len()
            )));
        }
        Ok(Self { rows, cols, data })
    }

    /// Builds a matrix from row slices. All rows must share the same length.
    pub fn from_rows(rows: &[Vec<f32>]) -> Result<Self> {
        if rows.is_empty() {
            return Ok(Self::zeros(0, 0));
        }
        let cols = rows[0].len();
        let mut data = Vec::with_capacity(rows.len() * cols);
        for (i, row) in rows.iter().enumerate() {
            if row.len() != cols {
                return Err(TensorError::ShapeMismatch(format!(
                    "from_rows: row {i} has {} columns, expected {cols}",
                    row.len()
                )));
            }
            data.extend_from_slice(row);
        }
        Ok(Self {
            rows: rows.len(),
            cols,
            data,
        })
    }

    /// Builds a single-row matrix from a slice (a row vector).
    pub fn row_vector(values: &[f32]) -> Self {
        Self {
            rows: 1,
            cols: values.len(),
            data: values.to_vec(),
        }
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)` pair.
    #[inline]
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Flat row-major view of the underlying data.
    #[inline]
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Mutable flat row-major view of the underlying data.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Consumes the matrix and returns the flat buffer.
    pub fn into_vec(self) -> Vec<f32> {
        self.data
    }

    /// Returns the element at `(row, col)`.
    #[inline]
    pub fn get(&self, row: usize, col: usize) -> f32 {
        debug_assert!(row < self.rows && col < self.cols);
        self.data[row * self.cols + col]
    }

    /// Sets the element at `(row, col)`.
    #[inline]
    pub fn set(&mut self, row: usize, col: usize, value: f32) {
        debug_assert!(row < self.rows && col < self.cols);
        self.data[row * self.cols + col] = value;
    }

    /// Borrow a row as a slice.
    #[inline]
    pub fn row(&self, row: usize) -> &[f32] {
        debug_assert!(row < self.rows);
        &self.data[row * self.cols..(row + 1) * self.cols]
    }

    /// Mutably borrow a row as a slice.
    #[inline]
    pub fn row_mut(&mut self, row: usize) -> &mut [f32] {
        debug_assert!(row < self.rows);
        &mut self.data[row * self.cols..(row + 1) * self.cols]
    }

    /// Iterator over rows as slices.
    pub fn iter_rows(&self) -> impl Iterator<Item = &[f32]> {
        self.data.chunks_exact(self.cols.max(1))
    }

    /// Matrix multiplication `self * other`.
    ///
    /// Uses an ikj loop order so the innermost loop walks both operand rows
    /// contiguously, which is the cache-friendly layout for row-major storage.
    pub fn matmul(&self, other: &Matrix) -> Result<Matrix> {
        if self.cols != other.rows {
            return Err(TensorError::ShapeMismatch(format!(
                "matmul: {}x{} * {}x{}",
                self.rows, self.cols, other.rows, other.cols
            )));
        }
        let mut out = Matrix::zeros(self.rows, other.cols);
        for i in 0..self.rows {
            let a_row = &self.data[i * self.cols..(i + 1) * self.cols];
            let out_row = &mut out.data[i * other.cols..(i + 1) * other.cols];
            for (k, &a_ik) in a_row.iter().enumerate() {
                if a_ik == 0.0 {
                    continue;
                }
                let b_row = &other.data[k * other.cols..(k + 1) * other.cols];
                for (o, &b) in out_row.iter_mut().zip(b_row.iter()) {
                    *o += a_ik * b;
                }
            }
        }
        Ok(out)
    }

    /// Matrix multiplication with the transpose of `other`: `self * other^T`.
    ///
    /// This is the common shape in attention (`Q * K^T`) and avoids
    /// materializing the transpose.
    pub fn matmul_transposed(&self, other: &Matrix) -> Result<Matrix> {
        if self.cols != other.cols {
            return Err(TensorError::ShapeMismatch(format!(
                "matmul_transposed: {}x{} * ({}x{})^T",
                self.rows, self.cols, other.rows, other.cols
            )));
        }
        let mut out = Matrix::zeros(self.rows, other.rows);
        for i in 0..self.rows {
            let a_row = self.row(i);
            for j in 0..other.rows {
                let b_row = other.row(j);
                let mut acc = 0.0f32;
                for (a, b) in a_row.iter().zip(b_row.iter()) {
                    acc += a * b;
                }
                out.data[i * other.rows + j] = acc;
            }
        }
        Ok(out)
    }

    /// Returns the transpose of the matrix.
    pub fn transpose(&self) -> Matrix {
        let mut out = Matrix::zeros(self.cols, self.rows);
        for i in 0..self.rows {
            for j in 0..self.cols {
                out.data[j * self.rows + i] = self.data[i * self.cols + j];
            }
        }
        out
    }

    /// Element-wise addition.
    pub fn add(&self, other: &Matrix) -> Result<Matrix> {
        self.zip_with(other, "add", |a, b| a + b)
    }

    /// Element-wise subtraction.
    pub fn sub(&self, other: &Matrix) -> Result<Matrix> {
        self.zip_with(other, "sub", |a, b| a - b)
    }

    /// Element-wise (Hadamard) product.
    pub fn hadamard(&self, other: &Matrix) -> Result<Matrix> {
        self.zip_with(other, "hadamard", |a, b| a * b)
    }

    fn zip_with(&self, other: &Matrix, op: &str, f: impl Fn(f32, f32) -> f32) -> Result<Matrix> {
        if self.shape() != other.shape() {
            return Err(TensorError::ShapeMismatch(format!(
                "{op}: {}x{} vs {}x{}",
                self.rows, self.cols, other.rows, other.cols
            )));
        }
        let data = self
            .data
            .iter()
            .zip(other.data.iter())
            .map(|(&a, &b)| f(a, b))
            .collect();
        Ok(Matrix {
            rows: self.rows,
            cols: self.cols,
            data,
        })
    }

    /// Adds `row` to every row of the matrix (broadcast add, used for biases).
    pub fn add_row_broadcast(&self, row: &[f32]) -> Result<Matrix> {
        if row.len() != self.cols {
            return Err(TensorError::ShapeMismatch(format!(
                "add_row_broadcast: row of {} vs {} columns",
                row.len(),
                self.cols
            )));
        }
        let mut out = self.clone();
        for r in 0..out.rows {
            for (v, b) in out.row_mut(r).iter_mut().zip(row.iter()) {
                *v += b;
            }
        }
        Ok(out)
    }

    /// Multiplies every element by `scalar`, in place, returning `self` for chaining.
    pub fn scale(mut self, scalar: f32) -> Matrix {
        for v in &mut self.data {
            *v *= scalar;
        }
        self
    }

    /// Applies `f` element-wise, in place, returning the mapped matrix.
    pub fn map(mut self, f: impl Fn(f32) -> f32) -> Matrix {
        for v in &mut self.data {
            *v = f(*v);
        }
        self
    }

    /// Frobenius norm of the matrix.
    pub fn frobenius_norm(&self) -> f32 {
        self.data.iter().map(|v| v * v).sum::<f32>().sqrt()
    }

    /// Mean of all elements (0.0 for an empty matrix).
    pub fn mean(&self) -> f32 {
        if self.data.is_empty() {
            return 0.0;
        }
        self.data.iter().sum::<f32>() / self.data.len() as f32
    }

    /// Stacks matrices vertically (all must share the column count).
    pub fn vstack(parts: &[&Matrix]) -> Result<Matrix> {
        if parts.is_empty() {
            return Ok(Matrix::zeros(0, 0));
        }
        let cols = parts[0].cols;
        let mut data = Vec::new();
        let mut rows = 0;
        for (i, p) in parts.iter().enumerate() {
            if p.cols != cols {
                return Err(TensorError::ShapeMismatch(format!(
                    "vstack: part {i} has {} columns, expected {cols}",
                    p.cols
                )));
            }
            rows += p.rows;
            data.extend_from_slice(&p.data);
        }
        Ok(Matrix { rows, cols, data })
    }

    /// Returns a new matrix whose row `i` is a copy of row `rows[i]` of this
    /// one; an index may repeat. Every index must be below [`Matrix::rows`].
    pub fn gather_rows(&self, rows: &[usize]) -> Matrix {
        let mut data = Vec::with_capacity(rows.len() * self.cols);
        for &r in rows {
            data.extend_from_slice(self.row(r));
        }
        Matrix {
            rows: rows.len(),
            cols: self.cols,
            data,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_and_shape() {
        let m = Matrix::zeros(3, 4);
        assert_eq!(m.shape(), (3, 4));
        assert!(m.as_slice().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn identity_matmul_is_noop() {
        let m = Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]).unwrap();
        let i = Matrix::identity(2);
        assert_eq!(m.matmul(&i).unwrap(), m);
        assert_eq!(i.matmul(&m).unwrap(), m);
    }

    #[test]
    fn matmul_known_values() {
        let a = Matrix::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]).unwrap();
        let b = Matrix::from_vec(3, 2, vec![7.0, 8.0, 9.0, 10.0, 11.0, 12.0]).unwrap();
        let c = a.matmul(&b).unwrap();
        assert_eq!(c.as_slice(), &[58.0, 64.0, 139.0, 154.0]);
    }

    #[test]
    fn matmul_shape_mismatch_errors() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 3);
        assert!(matches!(a.matmul(&b), Err(TensorError::ShapeMismatch(_))));
    }

    #[test]
    fn matmul_transposed_matches_explicit_transpose() {
        let a = Matrix::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]).unwrap();
        let b = Matrix::from_vec(4, 3, (0..12).map(|v| v as f32).collect()).unwrap();
        let direct = a.matmul_transposed(&b).unwrap();
        let explicit = a.matmul(&b.transpose()).unwrap();
        assert_eq!(direct, explicit);
    }

    #[test]
    fn transpose_round_trips() {
        let a = Matrix::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]).unwrap();
        assert_eq!(a.transpose().transpose(), a);
    }

    #[test]
    fn add_sub_hadamard() {
        let a = Matrix::from_vec(1, 3, vec![1.0, 2.0, 3.0]).unwrap();
        let b = Matrix::from_vec(1, 3, vec![4.0, 5.0, 6.0]).unwrap();
        assert_eq!(a.add(&b).unwrap().as_slice(), &[5.0, 7.0, 9.0]);
        assert_eq!(b.sub(&a).unwrap().as_slice(), &[3.0, 3.0, 3.0]);
        assert_eq!(a.hadamard(&b).unwrap().as_slice(), &[4.0, 10.0, 18.0]);
    }

    #[test]
    fn broadcast_bias_add() {
        let a = Matrix::zeros(2, 3);
        let out = a.add_row_broadcast(&[1.0, 2.0, 3.0]).unwrap();
        assert_eq!(out.row(0), &[1.0, 2.0, 3.0]);
        assert_eq!(out.row(1), &[1.0, 2.0, 3.0]);
    }

    #[test]
    fn from_rows_validates_lengths() {
        let err = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0]]);
        assert!(err.is_err());
    }

    #[test]
    fn vstack_concatenates_rows() {
        let a = Matrix::from_vec(1, 2, vec![1.0, 2.0]).unwrap();
        let b = Matrix::from_vec(2, 2, vec![3.0, 4.0, 5.0, 6.0]).unwrap();
        let s = Matrix::vstack(&[&a, &b]).unwrap();
        assert_eq!(s.shape(), (3, 2));
        assert_eq!(s.row(2), &[5.0, 6.0]);
    }

    #[test]
    fn gather_rows_copies_and_repeats() {
        let a = Matrix::from_vec(3, 2, (0..6).map(|v| v as f32).collect()).unwrap();
        let g = a.gather_rows(&[2, 0, 2]);
        assert_eq!(g.shape(), (3, 2));
        assert_eq!(g.as_slice(), &[4.0, 5.0, 0.0, 1.0, 4.0, 5.0]);
        assert_eq!(a.gather_rows(&[]).shape(), (0, 2));
    }

    #[test]
    fn frobenius_norm_and_mean() {
        let a = Matrix::from_vec(1, 2, vec![3.0, 4.0]).unwrap();
        assert!((a.frobenius_norm() - 5.0).abs() < 1e-6);
        assert!((a.mean() - 3.5).abs() < 1e-6);
    }
}
