//! 3D rotations for phone-mount modelling.
//!
//! The paper's Section III-A assumes the phone is perfectly aligned with
//! the vehicle; the cited compensation method \[14\] handles arbitrary
//! mounts. [`Rot3`] represents the mount rotation (vehicle frame ↔ phone
//! frame) and backs the `gradest-sensors` calibration module.

use crate::mat::Mat3;
use crate::vec::Vec3;
use serde::{Deserialize, Serialize};

/// A proper rotation in 3D, stored as an orthonormal matrix
/// (vehicle-from-phone convention when used as a mount).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Rot3 {
    m: Mat3,
}

impl Default for Rot3 {
    fn default() -> Self {
        Rot3::IDENTITY
    }
}

impl Rot3 {
    /// The identity rotation.
    pub const IDENTITY: Rot3 =
        Rot3 { m: Mat3 { m: [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]] } };

    /// Rotation about the x-axis by `angle` radians (right-handed).
    fn about_x(angle: f64) -> Rot3 {
        let (s, c) = angle.sin_cos();
        Rot3 { m: Mat3::from_rows([1.0, 0.0, 0.0], [0.0, c, -s], [0.0, s, c]) }
    }

    /// Rotation about the y-axis by `angle` radians.
    pub fn about_y(angle: f64) -> Rot3 {
        let (s, c) = angle.sin_cos();
        Rot3 { m: Mat3::from_rows([c, 0.0, s], [0.0, 1.0, 0.0], [-s, 0.0, c]) }
    }

    /// Rotation about the z-axis by `angle` radians.
    fn about_z(angle: f64) -> Rot3 {
        let (s, c) = angle.sin_cos();
        Rot3 { m: Mat3::from_rows([c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]) }
    }

    /// Intrinsic z-y′-x″ (yaw → pitch → roll) Euler composition, the
    /// usual phone-mount parameterization.
    pub fn from_euler(yaw: f64, pitch: f64, roll: f64) -> Rot3 {
        Rot3::about_z(yaw) * Rot3::about_y(pitch) * Rot3::about_x(roll)
    }

    /// Builds a rotation from an orthonormal matrix.
    ///
    /// # Panics
    ///
    /// Panics (debug) if the matrix is not orthonormal within 1e-6.
    fn from_matrix(m: Mat3) -> Rot3 {
        debug_assert!(
            {
                let should_be_identity = m * m.transpose();
                let mut max_err = 0.0f64;
                for i in 0..3 {
                    for j in 0..3 {
                        let expect = if i == j { 1.0 } else { 0.0 };
                        max_err = max_err.max((should_be_identity.m[i][j] - expect).abs());
                    }
                }
                max_err < 1e-6 && m.det() > 0.0
            },
            "matrix is not a proper rotation"
        );
        Rot3 { m }
    }

    /// Builds the rotation whose columns are the given orthonormal basis
    /// vectors (maps `e_x → x_axis`, etc.).
    ///
    /// # Panics
    ///
    /// Panics (debug) if the basis is not orthonormal.
    pub fn from_basis(x_axis: Vec3, y_axis: Vec3, z_axis: Vec3) -> Rot3 {
        Rot3::from_matrix(Mat3::from_rows(
            [x_axis.x, y_axis.x, z_axis.x],
            [x_axis.y, y_axis.y, z_axis.y],
            [x_axis.z, y_axis.z, z_axis.z],
        ))
    }

    /// Rotates a vector.
    pub fn rotate(&self, v: Vec3) -> Vec3 {
        self.m * v
    }

    /// The inverse rotation (transpose).
    pub fn inverse(&self) -> Rot3 {
        Rot3 { m: self.m.transpose() }
    }

    /// Rotation angle (radians) of the axis-angle form — a metric for how
    /// far two frames are apart: `angle(R_a⁻¹·R_b)` is the misalignment
    /// between them.
    pub fn angle(&self) -> f64 {
        ((self.m.trace() - 1.0) / 2.0).clamp(-1.0, 1.0).acos()
    }
}

impl std::ops::Mul for Rot3 {
    type Output = Rot3;
    fn mul(self, rhs: Rot3) -> Rot3 {
        Rot3 { m: self.m * rhs.m }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::f64::consts::FRAC_PI_2;

    const EPS: f64 = 1e-12;

    fn close(a: Vec3, b: Vec3) -> bool {
        (a - b).norm() < 1e-9
    }

    #[test]
    fn axis_rotations_move_basis_vectors() {
        let x = Vec3::new(1.0, 0.0, 0.0);
        let y = Vec3::new(0.0, 1.0, 0.0);
        let z = Vec3::new(0.0, 0.0, 1.0);
        assert!(close(Rot3::about_z(FRAC_PI_2).rotate(x), y));
        assert!(close(Rot3::about_x(FRAC_PI_2).rotate(y), z));
        assert!(close(Rot3::about_y(FRAC_PI_2).rotate(z), x));
    }

    #[test]
    fn inverse_undoes_rotation() {
        let r = Rot3::from_euler(0.7, -0.3, 0.2);
        let v = Vec3::new(1.0, 2.0, 3.0);
        assert!(close(r.inverse().rotate(r.rotate(v)), v));
    }

    #[test]
    fn composition_associates_with_application() {
        let a = Rot3::from_euler(0.3, 0.1, -0.2);
        let b = Rot3::from_euler(-0.5, 0.4, 0.6);
        let v = Vec3::new(-1.0, 0.5, 2.0);
        assert!(close((a * b).rotate(v), a.rotate(b.rotate(v))));
    }

    #[test]
    fn rotation_preserves_norm_and_angles() {
        let r = Rot3::from_euler(1.1, 0.6, -0.9);
        let v = Vec3::new(3.0, -4.0, 12.0);
        assert!((r.rotate(v).norm() - 13.0).abs() < EPS);
        let w = Vec3::new(1.0, 1.0, 0.0);
        assert!((r.rotate(v).dot(r.rotate(w)) - v.dot(w)).abs() < 1e-9);
    }

    #[test]
    fn angle_of_known_rotations() {
        assert!(Rot3::IDENTITY.angle() < EPS);
        assert!((Rot3::about_z(0.5).angle() - 0.5).abs() < 1e-12);
        assert!((Rot3::about_x(-0.5).angle() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn from_basis_round_trips() {
        let r = Rot3::from_euler(0.4, -0.2, 0.1);
        let x = r.rotate(Vec3::new(1.0, 0.0, 0.0));
        let y = r.rotate(Vec3::new(0.0, 1.0, 0.0));
        let z = r.rotate(Vec3::new(0.0, 0.0, 1.0));
        let rebuilt = Rot3::from_basis(x, y, z);
        assert!((rebuilt.m.m[0][0] - r.m.m[0][0]).abs() < 1e-12);
        let v = Vec3::new(0.3, -0.7, 0.9);
        assert!(close(rebuilt.rotate(v), r.rotate(v)));
    }

    #[test]
    fn euler_identity() {
        let r = Rot3::from_euler(0.0, 0.0, 0.0);
        let v = Vec3::new(1.0, 2.0, 3.0);
        assert!(close(r.rotate(v), v));
    }
}
