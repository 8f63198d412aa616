//! Dynamically sized dense row-major matrices.
//!
//! Used by the ANN baseline (layer weights, batched forward/backward passes)
//! and by generic track-fusion math. Provides Gauss–Jordan inversion with
//! partial pivoting and Cholesky factorization for SPD matrices.

use crate::{MathError, MathResult};
use serde::{Deserialize, Serialize};
use std::ops::{Add, Index, IndexMut, Mul, Sub};

/// A dense row-major `rows × cols` matrix of `f64`.
///
/// # Example
///
/// ```
/// use gradest_math::DMatrix;
/// let mut a = DMatrix::zeros(2, 2);
/// a.row_mut(0).copy_from_slice(&[1.0, 2.0]);
/// a.row_mut(1).copy_from_slice(&[3.0, 4.0]);
/// let inv = a.inverse()?;
/// let id = a.matmul(&inv)?;
/// assert!((id[(0, 0)] - 1.0).abs() < 1e-12);
/// assert!(id[(0, 1)].abs() < 1e-12);
/// # Ok::<(), gradest_math::MathError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DMatrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl DMatrix {
    /// Creates a `rows × cols` matrix filled with zeros.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        assert!(rows > 0 && cols > 0, "DMatrix dimensions must be nonzero");
        DMatrix { rows, cols, data: vec![0.0; rows * cols] }
    }

    /// Creates an `n × n` identity matrix.
    fn identity(n: usize) -> Self {
        let mut m = DMatrix::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
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

    /// Flat row-major view of the entries.
    #[inline]
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Borrow of row `r`.
    ///
    /// # Panics
    ///
    /// Panics if `r >= rows`.
    #[inline]
    pub fn row(&self, r: usize) -> &[f64] {
        assert!(r < self.rows, "row index out of bounds");
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutable borrow of row `r`.
    ///
    /// # Panics
    ///
    /// Panics if `r >= rows`.
    #[inline]
    pub fn row_mut(&mut self, r: usize) -> &mut [f64] {
        assert!(r < self.rows, "row index out of bounds");
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Transposed copy.
    pub fn transpose(&self) -> DMatrix {
        let mut out = DMatrix::zeros(self.cols, self.rows);
        for i in 0..self.rows {
            for j in 0..self.cols {
                out[(j, i)] = self[(i, j)];
            }
        }
        out
    }

    /// Matrix product `self · other`.
    ///
    /// # Errors
    ///
    /// Returns [`MathError::DimensionMismatch`] when inner dimensions differ.
    pub fn matmul(&self, other: &DMatrix) -> MathResult<DMatrix> {
        if self.cols != other.rows {
            return Err(MathError::DimensionMismatch { context: "matmul inner dimensions" });
        }
        let mut out = DMatrix::zeros(self.rows, other.cols);
        for i in 0..self.rows {
            for k in 0..self.cols {
                let a = self[(i, k)];
                if a == 0.0 {
                    continue;
                }
                let orow = other.row(k);
                let out_row = out.row_mut(i);
                for (j, &b) in orow.iter().enumerate() {
                    out_row[j] += a * b;
                }
            }
        }
        Ok(out)
    }

    /// Componentwise map.
    pub fn map(&self, f: impl Fn(f64) -> f64) -> DMatrix {
        DMatrix {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|&v| f(v)).collect(),
        }
    }

    /// Scales every entry by `s`.
    pub fn scaled(&self, s: f64) -> DMatrix {
        self.map(|v| v * s)
    }

    /// Inverse by Gauss–Jordan elimination with partial pivoting.
    ///
    /// # Errors
    ///
    /// Returns [`MathError::DimensionMismatch`] for non-square inputs and
    /// [`MathError::Singular`] when a pivot collapses below tolerance.
    pub fn inverse(&self) -> MathResult<DMatrix> {
        if self.rows != self.cols {
            return Err(MathError::DimensionMismatch { context: "inverse of non-square matrix" });
        }
        let n = self.rows;
        let mut a = self.clone();
        let mut inv = DMatrix::identity(n);
        for col in 0..n {
            // Partial pivot: pick the largest |entry| at or below the diagonal.
            let mut pivot_row = col;
            let mut pivot_val = a[(col, col)].abs();
            for r in (col + 1)..n {
                let v = a[(r, col)].abs();
                if v > pivot_val {
                    pivot_val = v;
                    pivot_row = r;
                }
            }
            if pivot_val < 1e-12 {
                return Err(MathError::Singular { pivot: pivot_val });
            }
            if pivot_row != col {
                a.swap_rows(col, pivot_row);
                inv.swap_rows(col, pivot_row);
            }
            let p = a[(col, col)];
            for j in 0..n {
                a[(col, j)] /= p;
                inv[(col, j)] /= p;
            }
            for r in 0..n {
                if r == col {
                    continue;
                }
                let factor = a[(r, col)];
                if factor == 0.0 {
                    continue;
                }
                for j in 0..n {
                    a[(r, j)] -= factor * a[(col, j)];
                    inv[(r, j)] -= factor * inv[(col, j)];
                }
            }
        }
        Ok(inv)
    }

    /// Cholesky factorization `A = L·Lᵀ` returning the lower-triangular `L`.
    ///
    /// # Errors
    ///
    /// Returns [`MathError::DimensionMismatch`] for non-square inputs and
    /// [`MathError::NotPositiveDefinite`] when a diagonal entry would be
    /// non-positive.
    pub fn cholesky(&self) -> MathResult<DMatrix> {
        if self.rows != self.cols {
            return Err(MathError::DimensionMismatch { context: "cholesky of non-square matrix" });
        }
        let n = self.rows;
        let mut l = DMatrix::zeros(n, n);
        for i in 0..n {
            for j in 0..=i {
                let mut sum = self[(i, j)];
                for k in 0..j {
                    sum -= l[(i, k)] * l[(j, k)];
                }
                if i == j {
                    if sum <= 0.0 {
                        return Err(MathError::NotPositiveDefinite { index: i });
                    }
                    l[(i, j)] = sum.sqrt();
                } else {
                    l[(i, j)] = sum / l[(j, j)];
                }
            }
        }
        Ok(l)
    }

    /// Swaps two rows in place.
    ///
    /// # Panics
    ///
    /// Panics if either index is out of bounds.
    fn swap_rows(&mut self, r1: usize, r2: usize) {
        assert!(r1 < self.rows && r2 < self.rows, "row index out of bounds");
        if r1 == r2 {
            return;
        }
        let (lo, hi) = if r1 < r2 { (r1, r2) } else { (r2, r1) };
        let (head, tail) = self.data.split_at_mut(hi * self.cols);
        head[lo * self.cols..(lo + 1) * self.cols].swap_with_slice(&mut tail[..self.cols]);
    }

    /// True if every entry is finite.
    pub fn is_finite(&self) -> bool {
        self.data.iter().all(|v| v.is_finite())
    }
}

impl Index<(usize, usize)> for DMatrix {
    type Output = f64;
    #[inline]
    fn index(&self, (r, c): (usize, usize)) -> &f64 {
        assert!(r < self.rows && c < self.cols, "DMatrix index out of bounds");
        &self.data[r * self.cols + c]
    }
}

impl IndexMut<(usize, usize)> for DMatrix {
    #[inline]
    fn index_mut(&mut self, (r, c): (usize, usize)) -> &mut f64 {
        assert!(r < self.rows && c < self.cols, "DMatrix index out of bounds");
        &mut self.data[r * self.cols + c]
    }
}

impl Add for &DMatrix {
    type Output = DMatrix;
    fn add(self, rhs: &DMatrix) -> DMatrix {
        assert_eq!((self.rows, self.cols), (rhs.rows, rhs.cols), "add shapes");
        DMatrix {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().zip(&rhs.data).map(|(a, b)| a + b).collect(),
        }
    }
}

impl Sub for &DMatrix {
    type Output = DMatrix;
    fn sub(self, rhs: &DMatrix) -> DMatrix {
        assert_eq!((self.rows, self.cols), (rhs.rows, rhs.cols), "sub shapes");
        DMatrix {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().zip(&rhs.data).map(|(a, b)| a - b).collect(),
        }
    }
}

impl Mul<f64> for &DMatrix {
    type Output = DMatrix;
    fn mul(self, s: f64) -> DMatrix {
        self.scaled(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn from_rows(rows: &[&[f64]]) -> DMatrix {
        DMatrix { rows: rows.len(), cols: rows[0].len(), data: rows.concat() }
    }

    fn close(a: &DMatrix, b: &DMatrix, tol: f64) -> bool {
        a.rows() == b.rows()
            && a.cols() == b.cols()
            && a.as_slice().iter().zip(b.as_slice()).all(|(x, y)| (x - y).abs() <= tol)
    }

    #[test]
    fn construction_and_indexing() {
        let m = from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
        assert_eq!(m.rows(), 2);
        assert_eq!(m.cols(), 3);
        assert_eq!(m[(1, 2)], 6.0);
        assert_eq!(m.row(0), &[1.0, 2.0, 3.0]);
    }

    #[test]
    fn matmul_known_product() {
        let a = from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let b = from_rows(&[&[5.0, 6.0], &[7.0, 8.0]]);
        let c = a.matmul(&b).unwrap();
        assert!(close(&c, &from_rows(&[&[19.0, 22.0], &[43.0, 50.0]]), 1e-12));
    }

    #[test]
    fn matmul_dimension_mismatch() {
        let a = DMatrix::zeros(2, 3);
        let b = DMatrix::zeros(2, 3);
        assert!(matches!(a.matmul(&b), Err(MathError::DimensionMismatch { .. })));
    }

    #[test]
    fn transpose_round_trip() {
        let a = from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
        assert_eq!(a.transpose().transpose(), a);
        assert_eq!(a.transpose()[(2, 1)], 6.0);
    }

    #[test]
    fn inverse_round_trip() {
        let a = from_rows(&[&[4.0, 2.0, 0.6], &[4.2, -14.0, 1.8], &[0.8, -1.0, 10.0]]);
        let inv = a.inverse().unwrap();
        assert!(close(&a.matmul(&inv).unwrap(), &DMatrix::identity(3), 1e-10));
        assert!(close(&inv.matmul(&a).unwrap(), &DMatrix::identity(3), 1e-10));
    }

    #[test]
    fn inverse_requires_pivoting() {
        // Zero on the leading diagonal forces a row swap.
        let a = from_rows(&[&[0.0, 1.0], &[1.0, 0.0]]);
        let inv = a.inverse().unwrap();
        assert!(close(&inv, &a, 1e-12));
    }

    #[test]
    fn inverse_singular_rejected() {
        let a = from_rows(&[&[1.0, 2.0], &[2.0, 4.0]]);
        assert!(matches!(a.inverse(), Err(MathError::Singular { .. })));
    }

    #[test]
    fn cholesky_known_factor() {
        let a = from_rows(&[&[4.0, 2.0], &[2.0, 3.0]]);
        let l = a.cholesky().unwrap();
        let recon = l.matmul(&l.transpose()).unwrap();
        assert!(close(&recon, &a, 1e-12));
        assert_eq!(l[(0, 1)], 0.0); // lower triangular
    }

    #[test]
    fn cholesky_rejects_indefinite() {
        let a = from_rows(&[&[1.0, 2.0], &[2.0, 1.0]]);
        assert!(matches!(a.cholesky(), Err(MathError::NotPositiveDefinite { .. })));
    }

    #[test]
    fn map_applies_per_entry() {
        let a = from_rows(&[&[1.0, -2.0]]);
        assert_eq!(a.map(f64::abs).as_slice(), &[1.0, 2.0]);
    }

    #[test]
    fn add_sub_scale() {
        let a = from_rows(&[&[3.0, 4.0]]);
        let b = &a + &a;
        assert_eq!(b.as_slice(), &[6.0, 8.0]);
        let z = &a - &a;
        assert_eq!(z.as_slice(), &[0.0, 0.0]);
        assert_eq!((&a * 2.0).as_slice(), &[6.0, 8.0]);
    }

    #[test]
    fn swap_rows_works() {
        let mut m = from_rows(&[&[1.0, 2.0], &[3.0, 4.0], &[5.0, 6.0]]);
        m.swap_rows(0, 2);
        assert_eq!(m.row(0), &[5.0, 6.0]);
        assert_eq!(m.row(2), &[1.0, 2.0]);
        m.swap_rows(1, 1); // no-op
        assert_eq!(m.row(1), &[3.0, 4.0]);
    }

    #[test]
    fn is_finite_detects_nan() {
        let mut m = DMatrix::identity(2);
        assert!(m.is_finite());
        m[(0, 1)] = f64::NAN;
        assert!(!m.is_finite());
    }
}
