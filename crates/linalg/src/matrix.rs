//! Row-major dense matrix of `f64` values.
//!
//! [`Matrix`] is the shared currency between the statistics crates. It keeps
//! its storage in one contiguous `Vec<f64>` so row access is a cheap slice and
//! matrix products stream through memory in order.

use crate::{LinalgError, Result};
use serde::{Deserialize, Serialize};
use std::ops::{Index, IndexMut};

/// A dense, row-major matrix of `f64`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// Creates a matrix of the given shape filled with zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates a matrix of the given shape filled with `value`.
    pub fn filled(rows: usize, cols: usize, value: f64) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![value; rows * cols],
        }
    }

    /// Creates the `n`-by-`n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Matrix::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Builds a matrix from row-major data. Returns an error if the length of
    /// `data` does not equal `rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Result<Self> {
        if data.len() != rows * cols {
            return Err(LinalgError::ShapeMismatch {
                op: "from_vec",
                lhs: (rows, cols),
                rhs: (data.len(), 1),
            });
        }
        Ok(Matrix { rows, cols, data })
    }

    /// Builds a matrix from a slice of equally-long rows.
    pub fn from_rows(rows: &[Vec<f64>]) -> Result<Self> {
        if rows.is_empty() {
            return Err(LinalgError::Empty);
        }
        let cols = rows[0].len();
        if rows.iter().any(|r| r.len() != cols) {
            return Err(LinalgError::ShapeMismatch {
                op: "from_rows",
                lhs: (rows.len(), cols),
                rhs: (rows.len(), rows.iter().map(|r| r.len()).max().unwrap_or(0)),
            });
        }
        let mut data = Vec::with_capacity(rows.len() * cols);
        for r in rows {
            data.extend_from_slice(r);
        }
        Ok(Matrix {
            rows: rows.len(),
            cols,
            data,
        })
    }

    /// Builds a matrix from a slice of equally-long columns.
    pub fn from_cols(cols: &[Vec<f64>]) -> Result<Self> {
        if cols.is_empty() {
            return Err(LinalgError::Empty);
        }
        let rows = cols[0].len();
        if cols.iter().any(|c| c.len() != rows) {
            return Err(LinalgError::ShapeMismatch {
                op: "from_cols",
                lhs: (rows, cols.len()),
                rhs: (cols.iter().map(|c| c.len()).max().unwrap_or(0), cols.len()),
            });
        }
        let mut m = Matrix::zeros(rows, cols.len());
        for (j, col) in cols.iter().enumerate() {
            for (i, &v) in col.iter().enumerate() {
                m[(i, j)] = v;
            }
        }
        Ok(m)
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

    /// Whether the matrix is square.
    #[inline]
    pub fn is_square(&self) -> bool {
        self.rows == self.cols
    }

    /// Borrows row `i` as a slice.
    #[inline]
    pub fn row(&self, i: usize) -> &[f64] {
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Mutably borrows row `i` as a slice.
    #[inline]
    pub fn row_mut(&mut self, i: usize) -> &mut [f64] {
        &mut self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Copies column `j` into a new vector.
    pub fn col(&self, j: usize) -> Vec<f64> {
        (0..self.rows).map(|i| self[(i, j)]).collect()
    }

    /// Borrows the raw row-major storage.
    #[inline]
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Returns the transpose.
    pub fn transpose(&self) -> Matrix {
        let mut t = Matrix::zeros(self.cols, self.rows);
        for i in 0..self.rows {
            for j in 0..self.cols {
                t[(j, i)] = self[(i, j)];
            }
        }
        t
    }

    /// Matrix product `self * rhs`.
    pub fn matmul(&self, rhs: &Matrix) -> Result<Matrix> {
        if self.cols != rhs.rows {
            return Err(LinalgError::ShapeMismatch {
                op: "matmul",
                lhs: self.shape(),
                rhs: rhs.shape(),
            });
        }
        let mut out = Matrix::zeros(self.rows, rhs.cols);
        // i-k-j loop order keeps the inner loop streaming over contiguous rows.
        for i in 0..self.rows {
            for k in 0..self.cols {
                let a = self[(i, k)];
                if a == 0.0 {
                    continue;
                }
                let rhs_row = rhs.row(k);
                let out_row = out.row_mut(i);
                for (o, &b) in out_row.iter_mut().zip(rhs_row.iter()) {
                    *o += a * b;
                }
            }
        }
        Ok(out)
    }

    /// Matrix-vector product `self * v`.
    pub fn matvec(&self, v: &[f64]) -> Result<Vec<f64>> {
        if self.cols != v.len() {
            return Err(LinalgError::ShapeMismatch {
                op: "matvec",
                lhs: self.shape(),
                rhs: (v.len(), 1),
            });
        }
        Ok((0..self.rows)
            .map(|i| self.row(i).iter().zip(v.iter()).map(|(&a, &b)| a * b).sum())
            .collect())
    }

    /// Element-wise sum `self + rhs`.
    pub fn add(&self, rhs: &Matrix) -> Result<Matrix> {
        if self.shape() != rhs.shape() {
            return Err(LinalgError::ShapeMismatch {
                op: "add",
                lhs: self.shape(),
                rhs: rhs.shape(),
            });
        }
        let mut out = self.clone();
        for (o, &b) in out.data.iter_mut().zip(rhs.data.iter()) {
            *o += b;
        }
        Ok(out)
    }

    /// Element-wise difference `self - rhs`.
    pub fn sub(&self, rhs: &Matrix) -> Result<Matrix> {
        if self.shape() != rhs.shape() {
            return Err(LinalgError::ShapeMismatch {
                op: "sub",
                lhs: self.shape(),
                rhs: rhs.shape(),
            });
        }
        let mut out = self.clone();
        for (o, &b) in out.data.iter_mut().zip(rhs.data.iter()) {
            *o -= b;
        }
        Ok(out)
    }

    /// Multiplies every element by `s`, in place, returning `self` for chaining.
    pub fn scale(mut self, s: f64) -> Matrix {
        for v in &mut self.data {
            *v *= s;
        }
        self
    }

    /// `A^T * A`, the Gram matrix — the workhorse of normal-equation solvers.
    pub fn gram(&self) -> Matrix {
        let mut g = Matrix::zeros(self.cols, self.cols);
        for i in 0..self.rows {
            let row = self.row(i);
            for a in 0..self.cols {
                let ra = row[a];
                if ra == 0.0 {
                    continue;
                }
                for b in a..self.cols {
                    g[(a, b)] += ra * row[b];
                }
            }
        }
        // Mirror the upper triangle.
        for a in 0..self.cols {
            for b in 0..a {
                g[(a, b)] = g[(b, a)];
            }
        }
        g
    }

    /// `A^T * y` for a response vector `y` with `rows()` entries.
    pub fn t_matvec(&self, y: &[f64]) -> Result<Vec<f64>> {
        if y.len() != self.rows {
            return Err(LinalgError::ShapeMismatch {
                op: "t_matvec",
                lhs: self.shape(),
                rhs: (y.len(), 1),
            });
        }
        let mut out = vec![0.0; self.cols];
        for i in 0..self.rows {
            let row = self.row(i);
            let yi = y[i];
            for (o, &a) in out.iter_mut().zip(row.iter()) {
                *o += a * yi;
            }
        }
        Ok(out)
    }

    /// Frobenius norm.
    pub fn frobenius_norm(&self) -> f64 {
        self.data.iter().map(|v| v * v).sum::<f64>().sqrt()
    }

    /// Maximum absolute off-diagonal element (square matrices only); used as
    /// the Jacobi convergence measure.
    pub fn max_off_diagonal(&self) -> f64 {
        let mut best = 0.0f64;
        for i in 0..self.rows {
            for j in 0..self.cols {
                if i != j {
                    best = best.max(self[(i, j)].abs());
                }
            }
        }
        best
    }

    /// Whether `self` and `rhs` agree element-wise within `tol`.
    pub fn approx_eq(&self, rhs: &Matrix, tol: f64) -> bool {
        self.shape() == rhs.shape()
            && self
                .data
                .iter()
                .zip(rhs.data.iter())
                .all(|(a, b)| (a - b).abs() <= tol)
    }
}

impl Index<(usize, usize)> for Matrix {
    type Output = f64;

    #[inline]
    fn index(&self, (i, j): (usize, usize)) -> &f64 {
        debug_assert!(i < self.rows && j < self.cols);
        &self.data[i * self.cols + j]
    }
}

impl IndexMut<(usize, usize)> for Matrix {
    #[inline]
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut f64 {
        debug_assert!(i < self.rows && j < self.cols);
        &mut self.data[i * self.cols + j]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_has_requested_shape() {
        let m = Matrix::zeros(3, 4);
        assert_eq!(m.shape(), (3, 4));
        assert!(m.as_slice().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn identity_is_diagonal_ones() {
        let m = Matrix::identity(3);
        for i in 0..3 {
            for j in 0..3 {
                assert_eq!(m[(i, j)], if i == j { 1.0 } else { 0.0 });
            }
        }
    }

    #[test]
    fn from_vec_rejects_bad_length() {
        assert!(Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0]).is_err());
    }

    #[test]
    fn from_rows_round_trips() {
        let m = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]).unwrap();
        assert_eq!(m[(0, 1)], 2.0);
        assert_eq!(m[(1, 0)], 3.0);
    }

    #[test]
    fn from_rows_rejects_ragged() {
        assert!(Matrix::from_rows(&[vec![1.0], vec![1.0, 2.0]]).is_err());
    }

    #[test]
    fn from_cols_matches_from_rows_transposed() {
        let cols = [vec![1.0, 3.0], vec![2.0, 4.0]];
        let m = Matrix::from_cols(&cols).unwrap();
        let expect = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]).unwrap();
        assert_eq!(m, expect);
    }

    #[test]
    fn matmul_small_known_product() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]).unwrap();
        let b = Matrix::from_rows(&[vec![5.0, 6.0], vec![7.0, 8.0]]).unwrap();
        let c = a.matmul(&b).unwrap();
        let expect = Matrix::from_rows(&[vec![19.0, 22.0], vec![43.0, 50.0]]).unwrap();
        assert!(c.approx_eq(&expect, 1e-12));
    }

    #[test]
    fn matmul_rejects_shape_mismatch() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 3);
        assert!(a.matmul(&b).is_err());
    }

    #[test]
    fn matmul_identity_is_noop() {
        let a = Matrix::from_rows(&[vec![1.0, -2.5, 3.0], vec![0.0, 4.0, 9.0]]).unwrap();
        let c = a.matmul(&Matrix::identity(3)).unwrap();
        assert!(c.approx_eq(&a, 1e-12));
    }

    #[test]
    fn transpose_swaps_indices() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0, 3.0], vec![4.0, 5.0, 6.0]]).unwrap();
        let t = a.transpose();
        assert_eq!(t.shape(), (3, 2));
        assert_eq!(t[(2, 0)], 3.0);
        assert_eq!(t[(1, 1)], 5.0);
    }

    #[test]
    fn matvec_matches_manual() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]).unwrap();
        assert_eq!(a.matvec(&[1.0, 1.0]).unwrap(), vec![3.0, 7.0]);
    }

    #[test]
    fn gram_matches_explicit_transpose_product() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0], vec![5.0, 6.0]]).unwrap();
        let g = a.gram();
        let explicit = a.transpose().matmul(&a).unwrap();
        assert!(g.approx_eq(&explicit, 1e-12));
    }

    #[test]
    fn t_matvec_matches_explicit() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0], vec![5.0, 6.0]]).unwrap();
        let got = a.t_matvec(&[1.0, 0.5, 2.0]).unwrap();
        let expect = a.transpose().matvec(&[1.0, 0.5, 2.0]).unwrap();
        for (g, e) in got.iter().zip(expect.iter()) {
            assert!((g - e).abs() < 1e-12);
        }
    }

    #[test]
    fn add_sub_round_trip() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]).unwrap();
        let b = Matrix::from_rows(&[vec![0.5, -1.0], vec![2.0, 0.0]]).unwrap();
        let sum = a.add(&b).unwrap();
        let back = sum.sub(&b).unwrap();
        assert!(back.approx_eq(&a, 1e-12));
    }

    #[test]
    fn scale_multiplies_all_elements() {
        let a = Matrix::filled(2, 2, 2.0).scale(1.5);
        assert!(a.as_slice().iter().all(|&v| (v - 3.0).abs() < 1e-12));
    }

    #[test]
    fn max_off_diagonal_ignores_diagonal() {
        let mut a = Matrix::identity(3).scale(100.0);
        a[(0, 2)] = -7.0;
        assert_eq!(a.max_off_diagonal(), 7.0);
    }

    #[test]
    fn frobenius_norm_of_unit_vector_matrix() {
        let a = Matrix::from_rows(&[vec![3.0, 4.0]]).unwrap();
        assert!((a.frobenius_norm() - 5.0).abs() < 1e-12);
    }

    #[test]
    fn row_and_col_accessors_agree_with_indexing() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0, 3.0], vec![4.0, 5.0, 6.0]]).unwrap();
        assert_eq!(a.row(1), &[4.0, 5.0, 6.0]);
        assert_eq!(a.col(2), vec![3.0, 6.0]);
    }
}
