//! Row-major dense matrix with shape-checked arithmetic.
//!
//! The GEMM kernels themselves live in [`crate::gemm`]; this module owns
//! the container type and the convenience methods the rest of the
//! workspace uses (row views, bias broadcast, outer-product accumulation,
//! matrix-vector products).

use std::fmt;

use serde::{Deserialize, Serialize};

use crate::gemm;
use crate::vector::Vector;

/// A dense row-major `rows x cols` matrix of `f64`.
#[derive(Clone, PartialEq, Serialize, Deserialize)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// Creates a zero matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates a matrix from a generating function of `(row, col)`.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f64) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for r in 0..rows {
            for c in 0..cols {
                data.push(f(r, c));
            }
        }
        Matrix { rows, cols, data }
    }

    /// Wraps an existing row-major buffer; `data.len()` must equal
    /// `rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Self {
        assert_eq!(
            data.len(),
            rows * cols,
            "Matrix::from_vec: buffer is {} elements, shape wants {}",
            data.len(),
            rows * cols
        );
        Matrix { rows, cols, data }
    }

    /// Builds a matrix whose rows are the given equal-length slices.
    pub fn from_rows(rows: &[&[f64]]) -> Self {
        assert!(!rows.is_empty(), "Matrix::from_rows: no rows");
        let cols = rows[0].len();
        let mut data = Vec::with_capacity(rows.len() * cols);
        for r in rows {
            assert_eq!(r.len(), cols, "Matrix::from_rows: ragged rows");
            data.extend_from_slice(r);
        }
        Matrix {
            rows: rows.len(),
            cols,
            data,
        }
    }

    /// The identity matrix of size `n`.
    pub fn identity(n: usize) -> Self {
        Matrix::from_fn(n, n, |r, c| if r == c { 1.0 } else { 0.0 })
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

    /// Borrow of the full row-major buffer.
    #[inline]
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Mutable borrow of the full row-major buffer.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Consumes the matrix, returning the row-major buffer.
    pub fn into_vec(self) -> Vec<f64> {
        self.data
    }

    /// Element accessor.
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> f64 {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c]
    }

    /// Element mutator.
    #[inline]
    pub fn set(&mut self, r: usize, c: usize, v: f64) {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c] = v;
    }

    /// Borrow of row `r` as a slice.
    #[inline]
    pub fn row(&self, r: usize) -> &[f64] {
        let start = r * self.cols;
        &self.data[start..start + self.cols]
    }

    /// Mutable borrow of row `r`.
    #[inline]
    pub fn row_mut(&mut self, r: usize) -> &mut [f64] {
        let start = r * self.cols;
        &mut self.data[start..start + self.cols]
    }

    /// Iterator over row slices (`rows` empty slices when `cols == 0`).
    pub fn rows_iter(&self) -> impl Iterator<Item = &[f64]> {
        (0..self.rows).map(move |r| self.row(r))
    }

    /// Column `c` copied into a new [`Vector`].
    pub fn col(&self, c: usize) -> Vector {
        assert!(c < self.cols);
        Vector::from_fn(self.rows, |r| self.get(r, c))
    }

    /// Reshapes in place to `rows x cols`, reusing the existing buffer
    /// when its capacity suffices (no allocation at steady state).
    /// Entries are **unspecified** afterwards; every `_into` kernel
    /// overwrites its output in full.
    pub fn resize(&mut self, rows: usize, cols: usize) {
        self.rows = rows;
        self.cols = cols;
        self.data.resize(rows * cols, 0.0);
    }

    /// Copies `other` into `self`, reshaping as needed (allocation-free
    /// once the buffer is warm).
    pub fn copy_from(&mut self, other: &Matrix) {
        self.resize(other.rows, other.cols);
        self.data.copy_from_slice(&other.data);
    }

    /// Transposed copy.
    pub fn transpose(&self) -> Matrix {
        let mut out = Matrix::zeros(self.cols, self.rows);
        self.transpose_into(&mut out);
        out
    }

    /// [`Matrix::transpose`] into a caller-owned matrix (reshaped in
    /// place).
    pub fn transpose_into(&self, out: &mut Matrix) {
        out.resize(self.cols, self.rows);
        for r in 0..self.rows {
            for c in 0..self.cols {
                out.set(c, r, self.get(r, c));
            }
        }
    }

    /// Matrix-vector product `A x`.
    pub fn matvec(&self, x: &Vector) -> Vector {
        let mut out = Vector::zeros(self.rows);
        self.matvec_into(x, &mut out);
        out
    }

    /// [`Matrix::matvec`] into a caller-owned vector (resized in place).
    pub fn matvec_into(&self, x: &Vector, out: &mut Vector) {
        assert_eq!(
            self.cols,
            x.len(),
            "matvec: A is {}x{}, x has length {}",
            self.rows,
            self.cols,
            x.len()
        );
        out.resize(self.rows);
        for r in 0..self.rows {
            out[r] = crate::vector::dot(self.row(r), x);
        }
    }

    /// Transposed matrix-vector product `A^T x`.
    pub fn matvec_t(&self, x: &Vector) -> Vector {
        let mut out = Vector::zeros(self.cols);
        self.matvec_t_into(x, &mut out);
        out
    }

    /// [`Matrix::matvec_t`] into a caller-owned vector (resized in
    /// place).
    pub fn matvec_t_into(&self, x: &Vector, out: &mut Vector) {
        assert_eq!(
            self.rows,
            x.len(),
            "matvec_t: A is {}x{}, x has length {}",
            self.rows,
            self.cols,
            x.len()
        );
        out.resize(self.cols);
        out.fill(0.0);
        for r in 0..self.rows {
            crate::vector::axpy(out, x[r], self.row(r));
        }
    }

    /// `C = A * B` where `self` is `m x k` and `b` is `k x n`.
    pub fn matmul_nn(&self, b: &Matrix) -> Matrix {
        gemm::gemm_nn(self, b)
    }

    /// [`Matrix::matmul_nn`] into a caller-owned output (reshaped in
    /// place).
    pub fn matmul_nn_into(&self, b: &Matrix, out: &mut Matrix) {
        gemm::gemm_nn_into(self, b, out);
    }

    /// `C = A * B^T` where `self` is `m x k` and `b` is `n x k`.
    ///
    /// This is the layout used by every fully-connected layer forward pass
    /// in `vqmc-nn` (`Y[bs,h] = X[bs,n] * W[h,n]^T`): both operands are
    /// traversed row-major, which is the cache-friendly direction.
    pub fn matmul_nt(&self, b: &Matrix) -> Matrix {
        gemm::gemm_nt(self, b)
    }

    /// [`Matrix::matmul_nt`] into a caller-owned output (reshaped in
    /// place).
    pub fn matmul_nt_into(&self, b: &Matrix, out: &mut Matrix) {
        gemm::gemm_nt_into(self, b, out);
    }

    /// `C = A^T * B` where `self` is `k x m` and `b` is `k x n`.
    ///
    /// Layout of the weight-gradient accumulation in backprop
    /// (`dW[h,n] = dY[bs,h]^T * X[bs,n]`).
    pub fn matmul_tn(&self, b: &Matrix) -> Matrix {
        gemm::gemm_tn(self, b)
    }

    /// [`Matrix::matmul_tn`] into a caller-owned output (reshaped in
    /// place).
    pub fn matmul_tn_into(&self, b: &Matrix, out: &mut Matrix) {
        gemm::gemm_tn_into(self, b, out);
    }

    /// Adds `bias` (length `cols`) to every row in place.
    pub fn add_row_bias(&mut self, bias: &Vector) {
        assert_eq!(bias.len(), self.cols, "add_row_bias: bias length mismatch");
        if self.cols == 0 {
            return;
        }
        for row in self.data.chunks_exact_mut(self.cols) {
            for (v, b) in row.iter_mut().zip(bias.iter()) {
                *v += b;
            }
        }
    }

    /// Accumulates the outer product `self += alpha * x * y^T`.
    pub fn add_outer(&mut self, alpha: f64, x: &[f64], y: &[f64]) {
        assert_eq!(x.len(), self.rows, "add_outer: x length mismatch");
        assert_eq!(y.len(), self.cols, "add_outer: y length mismatch");
        for (r, &xr) in x.iter().enumerate() {
            let coeff = alpha * xr;
            if coeff != 0.0 {
                crate::vector::axpy(self.row_mut(r), coeff, y);
            }
        }
    }

    /// Elementwise in-place scale.
    pub fn scale(&mut self, alpha: f64) {
        for v in &mut self.data {
            *v *= alpha;
        }
    }

    /// `self += alpha * other`, elementwise.
    pub fn axpy(&mut self, alpha: f64, other: &Matrix) {
        assert_eq!(self.shape(), other.shape(), "Matrix::axpy: shape mismatch");
        crate::vector::axpy(&mut self.data, alpha, &other.data);
    }

    /// Elementwise product in place (`self *= mask`), used to enforce
    /// MADE's autoregressive masks on weights and weight gradients.
    pub fn hadamard_inplace(&mut self, mask: &Matrix) {
        assert_eq!(
            self.shape(),
            mask.shape(),
            "hadamard_inplace: shape mismatch"
        );
        for (v, m) in self.data.iter_mut().zip(&mask.data) {
            *v *= m;
        }
    }

    /// Applies `f` elementwise in place (striped over the pool above
    /// the size threshold; bit-identical at any thread count).
    pub fn map_inplace(&mut self, f: impl Fn(f64) -> f64 + Sync) {
        crate::par::par_apply(&mut self.data, |s| {
            for v in s {
                *v = f(*v);
            }
        });
    }

    /// Returns a new matrix with `f` applied elementwise.
    pub fn map(&self, f: impl Fn(f64) -> f64 + Sync) -> Matrix {
        let mut out = self.clone();
        out.map_inplace(f);
        out
    }

    /// Frobenius norm.
    pub fn frobenius_norm(&self) -> f64 {
        crate::vector::dot(&self.data, &self.data).sqrt()
    }

    /// Sum of all entries.
    pub fn sum(&self) -> f64 {
        crate::reduce::sum(&self.data)
    }

    /// Fill with a constant.
    pub fn fill(&mut self, value: f64) {
        self.data.fill(value);
    }

    /// True when every entry is finite.
    pub fn all_finite(&self) -> bool {
        self.data.iter().all(|v| v.is_finite())
    }

    /// Maximum absolute deviation from `other` (test helper).
    pub fn max_abs_diff(&self, other: &Matrix) -> f64 {
        assert_eq!(self.shape(), other.shape());
        self.data
            .iter()
            .zip(&other.data)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0, f64::max)
    }
}

impl Default for Matrix {
    /// An empty `0 x 0` matrix — the natural initial state for scratch
    /// buffers that are `resize`d by the first `_into` call.
    fn default() -> Self {
        Matrix::zeros(0, 0)
    }
}

impl fmt::Debug for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Matrix {}x{} [", self.rows, self.cols)?;
        let show_rows = self.rows.min(6);
        for r in 0..show_rows {
            let row = self.row(r);
            if self.cols <= 8 {
                writeln!(f, "  {row:?}")?;
            } else {
                writeln!(f, "  [{:?}, ...]", &row[..4])?;
            }
        }
        if self.rows > show_rows {
            writeln!(f, "  ...")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Matrix {
        Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]])
    }

    #[test]
    fn shape_and_access() {
        let m = sample();
        assert_eq!(m.shape(), (2, 3));
        assert_eq!(m.get(1, 2), 6.0);
        assert_eq!(m.row(0), &[1.0, 2.0, 3.0]);
        assert_eq!(m.col(1).as_slice(), &[2.0, 5.0]);
    }

    #[test]
    fn zero_width_rows_and_bias() {
        let mut m = Matrix::zeros(3, 0);
        m.add_row_bias(&Vector::zeros(0));
        assert_eq!(m.shape(), (3, 0));
        let rows: Vec<&[f64]> = m.rows_iter().collect();
        assert_eq!(rows.len(), 3);
        assert!(rows.iter().all(|r| r.is_empty()));
        assert_eq!(Matrix::zeros(0, 0).rows_iter().count(), 0);
        assert_eq!(sample().rows_iter().nth(1), Some(&[4.0, 5.0, 6.0][..]));
    }

    #[test]
    fn transpose_involution() {
        let m = sample();
        assert_eq!(m.transpose().transpose(), m);
        assert_eq!(m.transpose().get(2, 1), 6.0);
    }

    #[test]
    fn matvec_matches_manual() {
        let m = sample();
        let x = Vector(vec![1.0, 0.0, -1.0]);
        assert_eq!(m.matvec(&x).as_slice(), &[-2.0, -2.0]);
        let y = Vector(vec![1.0, 1.0]);
        assert_eq!(m.matvec_t(&y).as_slice(), &[5.0, 7.0, 9.0]);
    }

    #[test]
    fn identity_is_neutral() {
        let m = sample();
        let i3 = Matrix::identity(3);
        assert_eq!(m.matmul_nn(&i3), m);
    }

    #[test]
    fn bias_broadcast() {
        let mut m = Matrix::zeros(2, 3);
        m.add_row_bias(&Vector(vec![1.0, 2.0, 3.0]));
        assert_eq!(m.row(0), &[1.0, 2.0, 3.0]);
        assert_eq!(m.row(1), &[1.0, 2.0, 3.0]);
    }

    #[test]
    fn outer_product_accumulation() {
        let mut m = Matrix::zeros(2, 2);
        m.add_outer(2.0, &[1.0, 3.0], &[4.0, 5.0]);
        assert_eq!(m.row(0), &[8.0, 10.0]);
        assert_eq!(m.row(1), &[24.0, 30.0]);
    }

    #[test]
    fn hadamard_masks_entries() {
        let mut m = sample();
        let mask = Matrix::from_rows(&[&[1.0, 0.0, 1.0], &[0.0, 1.0, 0.0]]);
        m.hadamard_inplace(&mask);
        assert_eq!(m.row(0), &[1.0, 0.0, 3.0]);
        assert_eq!(m.row(1), &[0.0, 5.0, 0.0]);
    }

    #[test]
    #[should_panic(expected = "shape")]
    fn axpy_shape_mismatch_panics() {
        let mut a = Matrix::zeros(2, 2);
        let b = Matrix::zeros(2, 3);
        a.axpy(1.0, &b);
    }

    #[test]
    fn frobenius() {
        let m = Matrix::from_rows(&[&[3.0, 0.0], &[0.0, 4.0]]);
        assert_eq!(m.frobenius_norm(), 5.0);
    }
}
