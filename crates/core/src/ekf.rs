//! The Extended Kalman Filter over the vehicle state-space equation
//! (paper Eq 5).
//!
//! State `x = [v, θ]` (longitudinal velocity, road gradient). The predict
//! step is driven by the measured longitudinal acceleration `â`; the
//! update step corrects with a measured velocity `v̂` from any source
//! (`H = [1, 0]`), "the deviation between the measured value and estimated
//! value is used to adjust the estimated value".
//!
//! ## The gravity term
//!
//! A phone aligned with the road surface measures specific force
//! `â = v̇ + g·sinθ`. The paper's Eq (5) writes the velocity prediction as
//! `v(t+1) = v(t) + â(t)` without unpicking that gravity component — but
//! its own correction mechanism only carries gradient information because
//! integrating `â` over-predicts velocity by `g·sinθ·Δt` on a climb. We
//! therefore implement the predict step as
//!
//! ```text
//! v(t+1) = v(t) + (â − g·sinθ)·Δt
//! θ(t+1) = θ(t) + ρ·A_f·C_d·v·â·Δt / (m·g·cosθ)      (paper Eq 5)
//! ```
//!
//! whose Jacobian term `∂v'/∂θ = −g·cosθ·Δt` makes θ observable from
//! velocity innovations. Setting [`EkfConfig::literal_eq5`] reverts to the
//! paper's literal equation (the `ablation_gravity_term` bench quantifies
//! the difference).
//!
//! The filter itself is [`EkfLanes`](crate::ekf_lanes::EkfLanes): one
//! such EKF per lane, up to four velocity sources advanced in lockstep.
//! It serves the batch pipeline and the online estimator alike.

use gradest_sim::VehicleParams;
use serde::{Deserialize, Serialize};

/// EKF tuning and model options. They stay settable: `q_theta` is the
/// bandwidth a per-upload crowd setting (ROADMAP item 2) is to choose.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct EkfConfig {
    /// Vehicle parameters (for the Eq 5 θ-dynamics term).
    pub vehicle: VehicleParams,
    /// Velocity process noise density, (m/s)²/s.
    pub q_velocity: f64,
    /// Gradient process noise density, rad²/s — how fast θ is allowed to
    /// wander as the road unrolls.
    pub q_theta: f64,
    /// Initial velocity variance, (m/s)².
    pub p0_velocity: f64,
    /// Initial gradient variance, rad².
    pub p0_theta: f64,
    /// Use the paper's literal Eq (5) predict (no gravity compensation).
    pub literal_eq5: bool,
}

impl Default for EkfConfig {
    fn default() -> Self {
        EkfConfig {
            vehicle: VehicleParams::default(),
            q_velocity: 0.05,
            q_theta: 1.5e-3,
            p0_velocity: 4.0,
            p0_theta: 2e-3,
            literal_eq5: false,
        }
    }
}

/// The scalar form of the filter, kept as the oracle that every
/// [`EkfLanes`](crate::ekf_lanes::EkfLanes) lane is pinned to bit for
/// bit (`ekf_lanes` tests) and that the pipeline's scalar track loop
/// runs (`pipeline` tests).
#[cfg(test)]
pub(crate) mod oracle {
    use super::EkfConfig;
    use gradest_math::{Mat2, Vec2, GRAVITY};

    /// The scalar gradient EKF. Create one per velocity source, feed
    /// it interleaved [`GradientEkf::predict`] (IMU rate) and
    /// [`GradientEkf::update`] (measurement rate) calls.
    #[derive(Debug, Clone, PartialEq)]
    pub struct GradientEkf {
        config: EkfConfig,
        /// State `[v, θ]`.
        x: Vec2,
        /// Covariance.
        p: Mat2,
    }

    impl GradientEkf {
        /// Creates a filter with initial speed `v0` and zero initial gradient.
        pub fn new(config: EkfConfig, v0: f64) -> Self {
            GradientEkf {
                config,
                x: Vec2::new(v0, 0.0),
                p: Mat2::diag(config.p0_velocity, config.p0_theta),
            }
        }

        /// Current velocity estimate, m/s.
        pub fn velocity(&self) -> f64 {
            self.x.x
        }

        /// Current gradient estimate θ, radians.
        pub fn theta(&self) -> f64 {
            self.x.y
        }

        /// Current covariance matrix.
        pub fn covariance(&self) -> Mat2 {
            self.p
        }

        /// Current gradient variance `P_θθ`, rad² — the weight used by track
        /// fusion (Eq 6).
        pub fn theta_variance(&self) -> f64 {
            self.p.m[1][1]
        }

        /// Predicted innovation variance `S = P_vv + r` for a velocity
        /// measurement of variance `r` — the same `S` [`Self::update`] uses
        /// for its Kalman gain, exposed so consistency monitors
        /// (`diagnostics::InnovationMonitor`) can normalize innovations
        /// without duplicating filter internals.
        pub fn innovation_variance(&self, r: f64) -> f64 {
            self.p.m[0][0] + r
        }

        /// Predict step: propagate the state through Eq (5) with the measured
        /// longitudinal acceleration `a_meas` over `dt` seconds.
        ///
        /// # Panics
        ///
        /// Panics (debug) if `dt <= 0`.
        pub fn predict(&mut self, a_meas: f64, dt: f64) {
            let _ = self.predict_returning_jacobian(a_meas, dt);
        }

        /// Predict step that also returns the process Jacobian `F` — what the
        /// RTS smoother ([`crate::smoother`]) records per step.
        pub fn predict_returning_jacobian(&mut self, a_meas: f64, dt: f64) -> Mat2 {
            debug_assert!(dt > 0.0, "dt must be positive");
            let p = &self.config.vehicle;
            let (v, theta) = (self.x.x, self.x.y);
            let cos_th = theta.cos().max(0.2); // θ never approaches ±90° on a road
                                               // Paper Eq (5) θ dynamics: θ̇ = ρ·A_f·C_d·v·â/(m·g·cosθ).
            let c = p.air_density * p.frontal_area_m2 * p.drag_coefficient / (p.mass_kg * GRAVITY);
            let theta_dot = c * v * a_meas / cos_th;

            let (v_next, dv_dtheta) = if self.config.literal_eq5 {
                (v + a_meas * dt, 0.0)
            } else {
                (v + (a_meas - GRAVITY * theta.sin()) * dt, -GRAVITY * theta.cos() * dt)
            };
            let theta_next = theta + theta_dot * dt;

            // Jacobian F = ∂f/∂x.
            let df_theta_dv = c * a_meas / cos_th * dt;
            let df_theta_dtheta = 1.0 + c * v * a_meas * theta.sin() / (cos_th * cos_th) * dt;
            let f = Mat2::new(1.0, dv_dtheta, df_theta_dv, df_theta_dtheta);

            self.x = Vec2::new(v_next.max(0.0), theta_next.clamp(-0.5, 0.5));
            let q = Mat2::diag(self.config.q_velocity * dt, self.config.q_theta * dt);
            self.p = f * self.p * f.transpose() + q;
            self.p.symmetrize();
            f
        }

        /// Update step: correct with a measured velocity `v_meas` of variance
        /// `r` (m/s)². `H = [1, 0]`; the Kalman gain routes the innovation
        /// `Δ = v̂ − v` into both states through the cross covariance.
        pub fn update(&mut self, v_meas: f64, r: f64) {
            debug_assert!(r > 0.0, "measurement variance must be positive");
            let innovation = v_meas - self.x.x;
            let s = self.p.m[0][0] + r;
            let k = Vec2::new(self.p.m[0][0] / s, self.p.m[1][0] / s);
            self.x += k * innovation;
            self.x.x = self.x.x.max(0.0);
            self.x.y = self.x.y.clamp(-0.5, 0.5);
            // Joseph-free form P = (I − K·H)·P; re-symmetrized.
            let kh = Mat2::new(k.x, 0.0, k.y, 0.0);
            self.p = (Mat2::identity() - kh) * self.p;
            self.p.symmetrize();
            // Floor the variances to keep the filter responsive to gradient
            // changes over long drives.
            self.p.m[0][0] = self.p.m[0][0].max(1e-6);
            self.p.m[1][1] = self.p.m[1][1].max(1e-9);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ekf_lanes::{EkfLanes, MAX_LANES};
    use gradest_math::GRAVITY;

    const DT: f64 = 0.02;

    /// A filter whose lanes all start at `v0`; the tests drive lane 0.
    fn filter(cfg: EkfConfig, v0: f64) -> EkfLanes {
        EkfLanes::new(cfg, [v0; MAX_LANES])
    }

    /// Drives the filter over a synthetic constant-gradient stretch with
    /// exact measurements and returns it.
    fn run_constant_gradient(theta_true: f64, v0: f64, seconds: f64, cfg: EkfConfig) -> EkfLanes {
        let mut ekf = filter(cfg, v0);
        let steps = (seconds / DT) as usize;
        let mut update_phase = 0usize;
        for _ in 0..steps {
            // Constant speed: accelerometer = g·sinθ (specific force).
            let a_meas = GRAVITY * theta_true.sin();
            ekf.predict(a_meas, DT);
            // 10 Hz velocity measurements.
            update_phase += 1;
            if update_phase.is_multiple_of(5) {
                ekf.update(0, v0, 0.05);
            }
        }
        ekf
    }

    #[test]
    fn converges_to_positive_gradient() {
        let theta = 3.0f64.to_radians();
        let ekf = run_constant_gradient(theta, 15.0, 60.0, EkfConfig::default());
        assert!((ekf.theta(0) - theta).abs() < 2e-3, "θ̂ = {}°", ekf.theta(0).to_degrees());
        assert!((ekf.velocity(0) - 15.0).abs() < 0.05);
    }

    #[test]
    fn converges_to_negative_gradient() {
        let theta = -4.0f64.to_radians();
        let ekf = run_constant_gradient(theta, 12.0, 60.0, EkfConfig::default());
        assert!((ekf.theta(0) - theta).abs() < 2e-3, "θ̂ = {}", ekf.theta(0));
    }

    #[test]
    fn flat_road_stays_flat() {
        let ekf = run_constant_gradient(0.0, 10.0, 30.0, EkfConfig::default());
        assert!(ekf.theta(0).abs() < 1e-3);
    }

    #[test]
    fn tracks_changing_gradient() {
        let mut ekf = filter(EkfConfig::default(), 15.0);
        // 60 s at +2°, then 60 s at −2°.
        let mut errs_late = Vec::new();
        for i in 0..(120.0 / DT) as usize {
            let t = i as f64 * DT;
            let theta_true: f64 = if t < 60.0 { 0.035 } else { -0.035 };
            let a_meas = GRAVITY * theta_true.sin();
            ekf.predict(a_meas, DT);
            if i % 5 == 0 {
                ekf.update(0, 15.0, 0.05);
            }
            if t > 90.0 {
                errs_late.push((ekf.theta(0) - theta_true).abs());
            }
        }
        let mean_err = errs_late.iter().sum::<f64>() / errs_late.len() as f64;
        assert!(mean_err < 4e-3, "late tracking error {mean_err}");
    }

    #[test]
    fn literal_eq5_does_not_converge_to_gradient() {
        // Ablation sanity: the literal Eq 5 predict has (almost) no
        // gradient observability from velocity — θ̂ stays near zero while
        // the gravity-compensated filter locks on.
        let theta = 3.0f64.to_radians();
        let literal = run_constant_gradient(
            theta,
            15.0,
            60.0,
            EkfConfig { literal_eq5: true, ..Default::default() },
        );
        let compensated = run_constant_gradient(theta, 15.0, 60.0, EkfConfig::default());
        assert!(
            (compensated.theta(0) - theta).abs() < (literal.theta(0) - theta).abs() / 3.0,
            "literal θ̂ = {}, compensated θ̂ = {}",
            literal.theta(0),
            compensated.theta(0)
        );
    }

    #[test]
    fn covariance_stays_positive_and_bounded() {
        let mut ekf = filter(EkfConfig::default(), 10.0);
        for i in 0..10_000 {
            ekf.predict(0.3, DT);
            if i % 5 == 0 {
                ekf.update(0, 10.0 + (i as f64 * 0.01).sin(), 0.1);
            }
            let p = ekf.covariance(0);
            assert!(p.is_finite());
            assert!(p.is_positive_semidefinite(1e-9), "P lost PSD at step {i}: {p:?}");
        }
        assert!(ekf.theta_variance(0) > 0.0);
        assert!(ekf.theta_variance(0) < 0.1);
    }

    #[test]
    fn update_pulls_velocity_toward_measurement() {
        let mut ekf = filter(EkfConfig::default(), 10.0);
        ekf.predict(0.0, DT);
        let before = ekf.velocity(0);
        ekf.update(0, 12.0, 0.01);
        assert!(ekf.velocity(0) > before);
        assert!(ekf.velocity(0) < 12.0 + 1e-9);
    }

    #[test]
    fn noisy_measurements_average_out() {
        let theta = 2.0f64.to_radians();
        let mut ekf = filter(EkfConfig::default(), 15.0);
        // Deterministic pseudo-noise ±0.3 m/s.
        for i in 0..(120.0 / DT) as usize {
            let a = GRAVITY * theta.sin();
            ekf.predict(a, DT);
            if i % 5 == 0 {
                let noise = if (i / 5) % 2 == 0 { 0.3 } else { -0.3 };
                ekf.update(0, 15.0 + noise, 0.1);
            }
        }
        assert!((ekf.theta(0) - theta).abs() < 8e-3, "θ̂ = {}°", ekf.theta(0).to_degrees());
    }

    #[test]
    fn states_are_clamped_to_physical_ranges() {
        let mut ekf = filter(EkfConfig::default(), 1.0);
        // Hard braking to below zero.
        for _ in 0..100 {
            ekf.predict(-10.0, DT);
        }
        assert!(ekf.velocity(0) >= 0.0);
        assert!(ekf.theta(0).abs() <= 0.5);
    }
}
