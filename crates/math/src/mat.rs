//! Fixed-size 2×2 and 3×3 matrices over `f64`.
//!
//! [`Mat2`] carries the paper's EKF covariance (state `[v, θ]`, Eq 5);
//! [`Mat3`] carries the altitude-EKF baseline covariance (state
//! `[v, z, θ]`). Both are value types with closed-form inverses.

use crate::vec::{Vec2, Vec3};
use crate::{MathError, MathResult};
use serde::{Deserialize, Serialize};
use std::ops::{Add, AddAssign, Mul, Neg, Sub, SubAssign};

/// Pivot tolerance below which a matrix is reported singular: the
/// inverses fail when `|det|` is below it.
pub const SINGULAR_TOL: f64 = 1e-14;

/// A 2×2 matrix in row-major order.
///
/// # Example
///
/// ```
/// use gradest_math::mat::Mat2;
/// let m = Mat2::new(1.0, 2.0, 3.0, 4.0);
/// assert_eq!(m.det(), -2.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Mat2 {
    /// Row-major entries `[[m00, m01], [m10, m11]]`.
    pub m: [[f64; 2]; 2],
}

impl Mat2 {
    /// Creates a matrix from row-major entries.
    #[inline]
    pub const fn new(m00: f64, m01: f64, m10: f64, m11: f64) -> Self {
        Mat2 { m: [[m00, m01], [m10, m11]] }
    }

    /// The identity matrix.
    #[inline]
    pub const fn identity() -> Self {
        Mat2::new(1.0, 0.0, 0.0, 1.0)
    }

    /// A diagonal matrix with entries `d0`, `d1`.
    #[inline]
    pub const fn diag(d0: f64, d1: f64) -> Self {
        Mat2::new(d0, 0.0, 0.0, d1)
    }

    /// Determinant.
    #[inline]
    pub fn det(&self) -> f64 {
        self.m[0][0] * self.m[1][1] - self.m[0][1] * self.m[1][0]
    }

    /// Trace (sum of diagonal entries).
    #[inline]
    pub fn trace(&self) -> f64 {
        self.m[0][0] + self.m[1][1]
    }

    /// Transpose.
    #[inline]
    pub fn transpose(&self) -> Mat2 {
        Mat2::new(self.m[0][0], self.m[1][0], self.m[0][1], self.m[1][1])
    }

    /// Closed-form inverse.
    ///
    /// # Errors
    ///
    /// Returns [`MathError::Singular`] when `|det|` is below tolerance.
    pub fn inverse(&self) -> MathResult<Mat2> {
        let d = self.det();
        if d.abs() < SINGULAR_TOL {
            return Err(MathError::Singular { pivot: d });
        }
        Ok(Mat2::new(self.m[1][1] / d, -self.m[0][1] / d, -self.m[1][0] / d, self.m[0][0] / d))
    }

    /// Symmetrizes in place: `P ← (P + Pᵀ)/2`. Used to keep EKF covariances
    /// numerically symmetric.
    #[inline]
    pub fn symmetrize(&mut self) {
        let off = 0.5 * (self.m[0][1] + self.m[1][0]);
        self.m[0][1] = off;
        self.m[1][0] = off;
    }

    /// True if every entry is finite.
    #[inline]
    pub fn is_finite(&self) -> bool {
        self.m.iter().flatten().all(|v| v.is_finite())
    }

    /// True if the matrix is symmetric within `tol`.
    #[inline]
    fn is_symmetric(&self, tol: f64) -> bool {
        (self.m[0][1] - self.m[1][0]).abs() <= tol
    }

    /// True if symmetric (within `tol`) and positive semi-definite, checked
    /// via leading principal minors.
    pub fn is_positive_semidefinite(&self, tol: f64) -> bool {
        self.is_symmetric(tol) && self.m[0][0] >= -tol && self.det() >= -tol
    }
}

impl Default for Mat2 {
    fn default() -> Self {
        Mat2::identity()
    }
}

impl Add for Mat2 {
    type Output = Mat2;
    fn add(self, r: Mat2) -> Mat2 {
        Mat2::new(
            self.m[0][0] + r.m[0][0],
            self.m[0][1] + r.m[0][1],
            self.m[1][0] + r.m[1][0],
            self.m[1][1] + r.m[1][1],
        )
    }
}

impl AddAssign for Mat2 {
    fn add_assign(&mut self, r: Mat2) {
        *self = *self + r;
    }
}

impl Sub for Mat2 {
    type Output = Mat2;
    fn sub(self, r: Mat2) -> Mat2 {
        Mat2::new(
            self.m[0][0] - r.m[0][0],
            self.m[0][1] - r.m[0][1],
            self.m[1][0] - r.m[1][0],
            self.m[1][1] - r.m[1][1],
        )
    }
}

impl SubAssign for Mat2 {
    fn sub_assign(&mut self, r: Mat2) {
        *self = *self - r;
    }
}

impl Neg for Mat2 {
    type Output = Mat2;
    fn neg(self) -> Mat2 {
        self * -1.0
    }
}

impl Mul<f64> for Mat2 {
    type Output = Mat2;
    fn mul(self, s: f64) -> Mat2 {
        Mat2::new(self.m[0][0] * s, self.m[0][1] * s, self.m[1][0] * s, self.m[1][1] * s)
    }
}

impl Mul<Mat2> for f64 {
    type Output = Mat2;
    fn mul(self, m: Mat2) -> Mat2 {
        m * self
    }
}

impl Mul for Mat2 {
    type Output = Mat2;
    fn mul(self, r: Mat2) -> Mat2 {
        let a = &self.m;
        let b = &r.m;
        Mat2::new(
            a[0][0] * b[0][0] + a[0][1] * b[1][0],
            a[0][0] * b[0][1] + a[0][1] * b[1][1],
            a[1][0] * b[0][0] + a[1][1] * b[1][0],
            a[1][0] * b[0][1] + a[1][1] * b[1][1],
        )
    }
}

impl Mul<Vec2> for Mat2 {
    type Output = Vec2;
    fn mul(self, v: Vec2) -> Vec2 {
        Vec2::new(self.m[0][0] * v.x + self.m[0][1] * v.y, self.m[1][0] * v.x + self.m[1][1] * v.y)
    }
}

/// A 3×3 matrix in row-major order.
///
/// # Example
///
/// ```
/// use gradest_math::mat::Mat3;
/// let m = Mat3::from_rows([2.0, 0.0, 0.0], [0.0, 4.0, 0.0], [0.0, 0.0, 8.0]);
/// let inv = m.inverse().expect("diagonal, invertible");
/// assert!((inv.m[2][2] - 0.125).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Mat3 {
    /// Row-major entries.
    pub m: [[f64; 3]; 3],
}

impl Mat3 {
    /// The zero matrix.
    const ZERO: Mat3 = Mat3 { m: [[0.0; 3]; 3] };

    /// Creates a matrix from row-major rows.
    #[inline]
    pub const fn from_rows(r0: [f64; 3], r1: [f64; 3], r2: [f64; 3]) -> Self {
        Mat3 { m: [r0, r1, r2] }
    }

    /// The identity matrix.
    #[inline]
    const fn identity() -> Self {
        Mat3::from_rows([1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0])
    }

    /// Determinant via cofactor expansion.
    pub fn det(&self) -> f64 {
        let m = &self.m;
        m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
            - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
            + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0])
    }

    /// Trace (sum of diagonal entries).
    #[inline]
    pub fn trace(&self) -> f64 {
        self.m[0][0] + self.m[1][1] + self.m[2][2]
    }

    /// Transpose.
    pub fn transpose(&self) -> Mat3 {
        let m = &self.m;
        Mat3::from_rows(
            [m[0][0], m[1][0], m[2][0]],
            [m[0][1], m[1][1], m[2][1]],
            [m[0][2], m[1][2], m[2][2]],
        )
    }

    /// Closed-form inverse via the adjugate.
    ///
    /// # Errors
    ///
    /// Returns [`MathError::Singular`] when `|det|` is below tolerance.
    pub fn inverse(&self) -> MathResult<Mat3> {
        let d = self.det();
        if d.abs() < SINGULAR_TOL {
            return Err(MathError::Singular { pivot: d });
        }
        let m = &self.m;
        let c = |i0: usize, i1: usize, j0: usize, j1: usize| {
            m[i0][j0] * m[i1][j1] - m[i0][j1] * m[i1][j0]
        };
        // Adjugate (transpose of cofactor matrix) divided by determinant.
        Ok(Mat3::from_rows(
            [c(1, 2, 1, 2) / d, -c(0, 2, 1, 2) / d, c(0, 1, 1, 2) / d],
            [-c(1, 2, 0, 2) / d, c(0, 2, 0, 2) / d, -c(0, 1, 0, 2) / d],
            [c(1, 2, 0, 1) / d, -c(0, 2, 0, 1) / d, c(0, 1, 0, 1) / d],
        ))
    }

    /// Symmetrizes in place: `P ← (P + Pᵀ)/2`.
    pub fn symmetrize(&mut self) {
        for i in 0..3 {
            for j in (i + 1)..3 {
                let avg = 0.5 * (self.m[i][j] + self.m[j][i]);
                self.m[i][j] = avg;
                self.m[j][i] = avg;
            }
        }
    }

    /// True if every entry is finite.
    pub fn is_finite(&self) -> bool {
        self.m.iter().flatten().all(|v| v.is_finite())
    }
}

impl Default for Mat3 {
    fn default() -> Self {
        Mat3::identity()
    }
}

impl Add for Mat3 {
    type Output = Mat3;
    fn add(self, r: Mat3) -> Mat3 {
        let mut out = Mat3::ZERO;
        for i in 0..3 {
            for j in 0..3 {
                out.m[i][j] = self.m[i][j] + r.m[i][j];
            }
        }
        out
    }
}

impl AddAssign for Mat3 {
    fn add_assign(&mut self, r: Mat3) {
        *self = *self + r;
    }
}

impl Sub for Mat3 {
    type Output = Mat3;
    fn sub(self, r: Mat3) -> Mat3 {
        let mut out = Mat3::ZERO;
        for i in 0..3 {
            for j in 0..3 {
                out.m[i][j] = self.m[i][j] - r.m[i][j];
            }
        }
        out
    }
}

impl SubAssign for Mat3 {
    fn sub_assign(&mut self, r: Mat3) {
        *self = *self - r;
    }
}

impl Neg for Mat3 {
    type Output = Mat3;
    fn neg(self) -> Mat3 {
        self * -1.0
    }
}

impl Mul<f64> for Mat3 {
    type Output = Mat3;
    fn mul(self, s: f64) -> Mat3 {
        let mut out = self;
        for row in &mut out.m {
            for v in row {
                *v *= s;
            }
        }
        out
    }
}

impl Mul<Mat3> for f64 {
    type Output = Mat3;
    fn mul(self, m: Mat3) -> Mat3 {
        m * self
    }
}

impl Mul for Mat3 {
    type Output = Mat3;
    fn mul(self, r: Mat3) -> Mat3 {
        let mut out = Mat3::ZERO;
        for i in 0..3 {
            for j in 0..3 {
                let mut acc = 0.0;
                for (k, rk) in r.m.iter().enumerate() {
                    acc += self.m[i][k] * rk[j];
                }
                out.m[i][j] = acc;
            }
        }
        out
    }
}

impl Mul<Vec3> for Mat3 {
    type Output = Vec3;
    fn mul(self, v: Vec3) -> Vec3 {
        Vec3::new(
            self.m[0][0] * v.x + self.m[0][1] * v.y + self.m[0][2] * v.z,
            self.m[1][0] * v.x + self.m[1][1] * v.y + self.m[1][2] * v.z,
            self.m[2][0] * v.x + self.m[2][1] * v.y + self.m[2][2] * v.z,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const EPS: f64 = 1e-12;

    fn mat2_close(a: Mat2, b: Mat2, tol: f64) -> bool {
        (0..2).all(|i| (0..2).all(|j| (a.m[i][j] - b.m[i][j]).abs() <= tol))
    }

    fn mat3_close(a: Mat3, b: Mat3, tol: f64) -> bool {
        (0..3).all(|i| (0..3).all(|j| (a.m[i][j] - b.m[i][j]).abs() <= tol))
    }

    #[test]
    fn mat2_identity_is_multiplicative_neutral() {
        let a = Mat2::new(1.0, 2.0, 3.0, 4.0);
        assert_eq!(a * Mat2::identity(), a);
        assert_eq!(Mat2::identity() * a, a);
    }

    #[test]
    fn mat2_inverse_round_trip() {
        let a = Mat2::new(4.0, 7.0, 2.0, 6.0);
        let inv = a.inverse().unwrap();
        assert!(mat2_close(a * inv, Mat2::identity(), EPS));
        assert!(mat2_close(inv * a, Mat2::identity(), EPS));
    }

    #[test]
    fn mat2_singular_rejected() {
        let a = Mat2::new(1.0, 2.0, 2.0, 4.0);
        assert!(matches!(a.inverse(), Err(MathError::Singular { .. })));
    }

    #[test]
    fn mat2_vector_product() {
        let r = Mat2::new(0.0, -1.0, 1.0, 0.0); // quarter turn
        let v = r * Vec2::new(1.0, 0.0);
        assert!((v.x).abs() < EPS && (v.y - 1.0).abs() < EPS);
    }

    #[test]
    fn mat2_symmetrize_and_psd() {
        let mut p = Mat2::new(2.0, 0.5 + 1e-9, 0.5, 1.0);
        p.symmetrize();
        assert!(p.is_symmetric(0.0));
        assert!(p.is_positive_semidefinite(1e-12));
        let not_psd = Mat2::new(1.0, 2.0, 2.0, 1.0); // det = -3
        assert!(!not_psd.is_positive_semidefinite(1e-12));
    }

    #[test]
    fn mat2_trace_det_add_sub() {
        let a = Mat2::new(1.0, 2.0, 3.0, 4.0);
        assert_eq!(a.trace(), 5.0);
        assert_eq!((a + a).m[1][0], 6.0);
        assert_eq!((a - a), Mat2::diag(0.0, 0.0));
        assert_eq!((-a).m[0][0], -1.0);
    }

    #[test]
    fn mat3_identity_and_diag() {
        let d = Mat3::from_rows([1.0, 0.0, 0.0], [0.0, 2.0, 0.0], [0.0, 0.0, 3.0]);
        assert_eq!(d.det(), 6.0);
        assert_eq!(d.trace(), 6.0);
        assert_eq!(d * Mat3::identity(), d);
    }

    #[test]
    fn mat3_inverse_round_trip() {
        let a = Mat3::from_rows([2.0, 1.0, 1.0], [1.0, 3.0, 2.0], [1.0, 0.0, 0.0]);
        let inv = a.inverse().unwrap();
        assert!(mat3_close(a * inv, Mat3::identity(), 1e-10));
        assert!(mat3_close(inv * a, Mat3::identity(), 1e-10));
    }

    #[test]
    fn mat3_singular_rejected() {
        let a = Mat3::from_rows([1.0, 2.0, 3.0], [2.0, 4.0, 6.0], [0.0, 1.0, 1.0]);
        assert!(matches!(a.inverse(), Err(MathError::Singular { .. })));
    }

    #[test]
    fn mat3_transpose_involution() {
        let a = Mat3::from_rows([1.0, 2.0, 3.0], [4.0, 5.0, 6.0], [7.0, 8.0, 9.0]);
        assert_eq!(a.transpose().transpose(), a);
    }

    #[test]
    fn mat3_symmetrize() {
        let mut a = Mat3::from_rows([1.0, 2.0, 3.0], [0.0, 1.0, 5.0], [1.0, 1.0, 1.0]);
        a.symmetrize();
        assert_eq!(a.m[0][1], a.m[1][0]);
        assert_eq!(a.m[0][2], a.m[2][0]);
        assert_eq!(a.m[1][2], a.m[2][1]);
    }

    #[test]
    fn mat3_vector_product() {
        let a = Mat3::from_rows([2.0, 0.0, 0.0], [0.0, 3.0, 0.0], [0.0, 0.0, 4.0]);
        let v = a * Vec3::new(1.0, 1.0, 1.0);
        assert_eq!(v, Vec3::new(2.0, 3.0, 4.0));
    }

    #[test]
    fn finiteness() {
        assert!(Mat2::identity().is_finite());
        assert!(Mat3::identity().is_finite());
        let mut bad = Mat2::identity();
        bad.m[0][1] = f64::NAN;
        assert!(!bad.is_finite());
    }
}
