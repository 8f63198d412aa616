//! Vehicle parameters and the longitudinal force model.
//!
//! The paper's Eq (3) relates road gradient to driving torque, aerodynamic
//! drag, acceleration, and rolling resistance:
//!
//! ```text
//! θ = arcsin( M/(r·m·g) − ρ·A_f·C_d·v²/(2·m·g) − a/g ) − β
//! ```
//!
//! with `β = arcsin(μ/√(1+μ²))` the rolling-resistance angle. This module
//! implements the underlying force balance in both directions: forward
//! (forces → acceleration, used by the simulator) and inverse
//! (states → gradient, the paper's Eq 3, used by estimators and tests).

use gradest_math::GRAVITY;
use serde::{Deserialize, Serialize};

/// Physical parameters of the simulated vehicle.
///
/// Defaults approximate the paper's test vehicle (a mid-size sedan with
/// the 1 479 kg gross weight of Table II).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct VehicleParams {
    /// Gross mass in kg (`m`).
    pub mass_kg: f64,
    /// Frontal area in m² (`A_f`).
    pub frontal_area_m2: f64,
    /// Aerodynamic drag coefficient (`C_d`).
    pub drag_coefficient: f64,
    /// Rolling resistance coefficient (`μ`).
    pub rolling_resistance: f64,
    /// Driven-wheel radius in metres (`r`).
    pub wheel_radius_m: f64,
    /// Ambient air density in kg/m³ (`ρ`).
    pub air_density: f64,
    /// Maximum tractive force at the wheels, N.
    pub max_drive_force_n: f64,
    /// Maximum braking force, N (positive number).
    pub max_brake_force_n: f64,
}

impl Default for VehicleParams {
    fn default() -> Self {
        VehicleParams {
            mass_kg: 1479.0,
            frontal_area_m2: 2.3,
            drag_coefficient: 0.31,
            rolling_resistance: 0.012,
            wheel_radius_m: 0.31,
            air_density: 1.225,
            max_drive_force_n: 4500.0,
            max_brake_force_n: 9000.0,
        }
    }
}

impl VehicleParams {
    /// The rolling-resistance angle `β = arcsin(μ/√(1+μ²))` of Eq (3).
    fn beta(&self) -> f64 {
        let mu = self.rolling_resistance;
        (mu / (1.0 + mu * mu).sqrt()).asin()
    }

    /// Aerodynamic drag force at speed `v`, N (always ≥ 0 for forward
    /// motion): `½·ρ·A_f·C_d·v²`.
    pub fn aero_force(&self, v: f64) -> f64 {
        0.5 * self.air_density * self.frontal_area_m2 * self.drag_coefficient * v * v
    }

    /// Rolling resistance force on a gradient θ, N: `μ·m·g·cosθ`.
    pub fn rolling_force(&self, theta: f64) -> f64 {
        self.rolling_resistance * self.mass_kg * GRAVITY * theta.cos()
    }

    /// Gravitational resistance on a gradient θ, N: `m·g·sinθ`
    /// (negative on a downhill — it then pushes the vehicle forward).
    pub fn grade_force(&self, theta: f64) -> f64 {
        self.mass_kg * GRAVITY * theta.sin()
    }

    /// Forward model: longitudinal acceleration given tractive force
    /// `drive_force_n` (negative = braking), speed, and gradient.
    pub fn acceleration(&self, drive_force_n: f64, v: f64, theta: f64) -> f64 {
        (drive_force_n - self.aero_force(v) - self.rolling_force(theta) - self.grade_force(theta))
            / self.mass_kg
    }

    /// Tractive force needed to hold acceleration `a` at speed `v` on
    /// gradient θ (inverse of [`VehicleParams::acceleration`]).
    pub fn required_force(&self, a: f64, v: f64, theta: f64) -> f64 {
        self.mass_kg * a + self.aero_force(v) + self.rolling_force(theta) + self.grade_force(theta)
    }

    /// Driving torque at the wheels for a given tractive force, N·m
    /// (`M = F·r`).
    pub fn torque_from_force(&self, force_n: f64) -> f64 {
        force_n * self.wheel_radius_m
    }

    /// The paper's Eq (3): road gradient from driving torque `m_torque`,
    /// speed `v`, and measured acceleration `a`.
    ///
    /// Returns `None` when the arcsin argument leaves `[-1, 1]` (states
    /// inconsistent with any physical gradient).
    pub fn gradient_from_states(&self, m_torque: f64, v: f64, a: f64) -> Option<f64> {
        let mg = self.mass_kg * GRAVITY;
        let arg = m_torque / (self.wheel_radius_m * mg)
            - self.air_density * self.frontal_area_m2 * self.drag_coefficient * v * v / (2.0 * mg)
            - a / GRAVITY;
        if !(-1.0..=1.0).contains(&arg) {
            return None;
        }
        Some(arg.asin() - self.beta())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn beta_is_small_and_positive() {
        let p = VehicleParams::default();
        let b = p.beta();
        assert!(b > 0.0 && b < 0.02, "β = {b}");
        // For small μ, β ≈ μ.
        assert!((b - p.rolling_resistance).abs() < 1e-4);
    }

    #[test]
    fn aero_force_is_quadratic() {
        let p = VehicleParams::default();
        assert_eq!(p.aero_force(0.0), 0.0);
        let f10 = p.aero_force(10.0);
        let f20 = p.aero_force(20.0);
        assert!((f20 / f10 - 4.0).abs() < 1e-12);
        // Sanity: ~44 N at 10 m/s for these parameters.
        assert!((f10 - 43.66).abs() < 0.5, "{f10}");
    }

    #[test]
    fn grade_force_signs() {
        let p = VehicleParams::default();
        assert!(p.grade_force(0.05) > 0.0);
        assert!(p.grade_force(-0.05) < 0.0);
        assert_eq!(p.grade_force(0.0), 0.0);
    }

    #[test]
    fn acceleration_and_required_force_are_inverse() {
        let p = VehicleParams::default();
        for &(v, theta, a) in &[(10.0, 0.02, 0.5), (25.0, -0.04, -1.0), (0.0, 0.0, 2.0)] {
            let f = p.required_force(a, v, theta);
            let back = p.acceleration(f, v, theta);
            assert!((back - a).abs() < 1e-12, "v={v} θ={theta}");
        }
    }

    #[test]
    fn coasting_downhill_accelerates() {
        let p = VehicleParams::default();
        // 5% downhill at modest speed, no drive force: net acceleration > 0.
        let a = p.acceleration(0.0, 5.0, -0.05);
        assert!(a > 0.0, "a = {a}");
        // Uphill coasting decelerates.
        assert!(p.acceleration(0.0, 5.0, 0.05) < 0.0);
    }

    #[test]
    fn eq3_recovers_gradient_from_consistent_states() {
        let p = VehicleParams::default();
        for &theta_true in &[-0.06, -0.02, 0.0, 0.03, 0.07] {
            let v = 15.0;
            let a = 0.3;
            let f = p.required_force(a, v, theta_true);
            let m = p.torque_from_force(f);
            let est = p.gradient_from_states(m, v, a).expect("in range");
            // Eq (3) approximates sinθ·cosβ + cosθ·sinβ ≈ sin(θ+β); for
            // small angles the recovery error is < 0.1°.
            assert!((est - theta_true).abs() < 2e-3, "θ={theta_true} est={est}");
        }
    }

    #[test]
    fn eq3_rejects_unphysical_states() {
        let p = VehicleParams::default();
        // Torque way beyond anything a gradient could absorb.
        assert!(p.gradient_from_states(1e9, 10.0, 0.0).is_none());
    }

    #[test]
    fn torque_is_force_times_radius() {
        let p = VehicleParams::default();
        assert!((p.torque_from_force(1000.0) - 310.0).abs() < 1e-9);
    }

    #[test]
    fn default_parameters_match_table_ii_mass() {
        assert_eq!(VehicleParams::default().mass_kg, 1479.0);
    }
}
