//! Direct Eq (3) gradient estimation from driving torque.
//!
//! The paper's Eq (3) computes the gradient in closed form from driving
//! torque, speed, and acceleration:
//!
//! ```text
//! θ = arcsin( M/(r·m·g) − ρ·A_f·C_d·v²/(2·m·g) − a/g ) − β
//! ```
//!
//! and notes that, lacking gearbox access, "we directly calculate the
//! driving torque with vehicle velocity, acceleration and vehicle mass
//! through the driving torque estimation method in \[7\]". This module is
//! that method, unfiltered: estimate `M` from the force balance the
//! states imply, plug into Eq (3), no Kalman smoothing. It exposes why
//! the paper wraps Eq (3) in an EKF — the raw inversion amplifies every
//! accelerometer wiggle.
//!
//! The information routing matters: the gradient signal lives in the
//! *difference* between the accelerometer's specific force (which carries
//! `g·sinθ`) and the wheel-speed derivative (which does not). So the
//! driving-torque reconstruction uses the accelerometer —
//! `M = r·(m·â + F_aero + F_roll)`, the force the engine genuinely
//! delivers, gravity load included — while Eq (3)'s `a` is the kinematic
//! `v̇` from the smoothed wheel speed. Swapping the two flips the sign of
//! the estimate (see the unit tests).

use gradest_core::track::GradientTrack;
use gradest_math::interp::interp1_or;
use gradest_math::signal::{differentiate, moving_average};
use gradest_sensors::suite::SensorLog;
use gradest_sim::VehicleParams;
use serde::{Deserialize, Serialize};

/// Configuration of the direct Eq (3) estimator.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
struct Eq3DirectConfig {
    /// Vehicle parameters (Eq 3's constants).
    vehicle: VehicleParams,
    /// Half-window (samples at 10 Hz) for smoothing the speed series
    /// before differentiation.
    speed_smooth_half: usize,
    /// Half-window (samples at 10 Hz) for smoothing the resulting θ
    /// series.
    theta_smooth_half: usize,
}

impl Default for Eq3DirectConfig {
    fn default() -> Self {
        Eq3DirectConfig {
            vehicle: VehicleParams::default(),
            speed_smooth_half: 8,
            theta_smooth_half: 12,
        }
    }
}

/// The direct Eq (3) estimator.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct Eq3Direct {
    config: Eq3DirectConfig,
}

impl Eq3Direct {
    /// Estimates a gradient track from speedometer + IMU data via Eq (3).
    ///
    /// # Panics
    ///
    /// Panics if the log lacks speedometer or IMU data.
    pub fn estimate(&self, log: &SensorLog) -> GradientTrack {
        assert!(
            log.speedometer.len() >= 8 && log.imu.len() >= 2,
            "Eq3 direct needs speedometer and IMU data"
        );
        let p = &self.config.vehicle;
        // Smooth wheel speed and differentiate → kinematic acceleration
        // v̇ (gravity-free).
        let (ts, vs_raw): (Vec<f64>, Vec<f64>) =
            log.speedometer.iter().map(|s| (s.t, s.speed_mps)).unzip();
        let dt = (ts[ts.len() - 1] - ts[0]) / (ts.len() - 1) as f64;
        let vs =
            moving_average(&vs_raw, self.config.speed_smooth_half).expect("nonempty speed series");
        let vdot = differentiate(&vs, dt).expect("speed series long enough");

        // Accelerometer specific force interpolated onto the speed clock.
        let (at, av): (Vec<f64>, Vec<f64>) = log.imu.iter().map(|s| (s.t, s.accel_long)).unzip();
        let a_at = interp1_or(&at, &av, 0.0);

        // Per-sample Eq (3).
        let mut theta_raw = Vec::with_capacity(ts.len());
        let mut s_acc = 0.0;
        let mut s_pos = Vec::with_capacity(ts.len());
        for i in 0..ts.len() {
            let v = vs[i];
            s_acc += v * dt;
            s_pos.push(s_acc);
            // Driving torque from the accelerometer-based force balance:
            // the specific force â = v̇ + g·sinθ means
            // m·â + F_aero + F_roll is the tractive force the engine
            // delivers including the gradient load — without needing θ.
            let a_meas = a_at(ts[i]);
            let force = p.mass_kg * a_meas + p.aero_force(v) + p.rolling_force(0.0);
            let m_torque = p.torque_from_force(force);
            // Eq (3)'s `a` is the kinematic acceleration from wheel speed.
            let theta =
                p.gradient_from_states(m_torque, v, vdot[i]).unwrap_or(0.0).clamp(-0.5, 0.5);
            theta_raw.push(theta);
        }
        let theta = moving_average(&theta_raw, self.config.theta_smooth_half)
            .expect("nonempty theta series");

        // Constant variance from the accelerometer noise through the
        // arcsin (≈ 1/g scaling), inflated by the torque-model error.
        let var = (0.1f64 / gradest_math::GRAVITY).powi(2);
        let mut track = GradientTrack::new("eq3-direct");
        for (s, th) in s_pos.into_iter().zip(theta) {
            if track.s.last().is_none_or(|&last| s >= last) {
                track.push(s, th, var);
            }
        }
        track
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gradest_geo::generate::{red_road, straight_road};
    use gradest_geo::Route;
    use gradest_sensors::suite::{SensorConfig, SensorSuite};
    use gradest_sim::driver::DriverProfile;
    use gradest_sim::trip::{simulate_trip, TripConfig};

    fn log_for(route: &Route, seed: u64) -> SensorLog {
        let cfg = TripConfig {
            driver: DriverProfile { lane_change_rate_per_km: 0.0, ..Default::default() },
            ..Default::default()
        };
        let traj = simulate_trip(route, &cfg, seed);
        SensorSuite::new(SensorConfig::default()).run(&traj, seed)
    }

    #[test]
    fn recovers_constant_gradient() {
        let route = Route::new(vec![straight_road(2000.0, 3.0)]).unwrap();
        let log = log_for(&route, 1);
        let track = Eq3Direct::default().estimate(&log);
        let mid: Vec<f64> = track
            .s
            .iter()
            .zip(&track.theta)
            .filter(|(s, _)| **s > 600.0 && **s < 1800.0)
            .map(|(_, th)| th.to_degrees())
            .collect();
        let mean = mid.iter().sum::<f64>() / mid.len() as f64;
        assert!((mean - 3.0).abs() < 0.6, "mean {mean}°");
    }

    #[test]
    fn jitters_far_more_than_the_ekf_pipeline() {
        // With a generous acausal smoothing window the direct inversion's
        // *mean* error can rival the causal EKF pipeline — but its
        // sample-to-sample jitter (the accelerometer wiggle amplified
        // through the arcsin) is an order of magnitude worse, which is
        // what makes it unusable as a live signal and why the paper wraps
        // Eq (3) in a filter.
        use gradest_core::pipeline::{EstimatorConfig, GradientEstimator};
        let route = Route::new(vec![red_road()]).unwrap();
        let log = log_for(&route, 2);
        let direct = Eq3Direct {
            config: Eq3DirectConfig {
                theta_smooth_half: 0, // the raw per-sample inversion
                ..Default::default()
            },
        }
        .estimate(&log);
        let ops = GradientEstimator::new(EstimatorConfig::default()).estimate(&log, Some(&route));
        let jitter = |t: &GradientTrack| {
            let diffs: Vec<f64> =
                t.theta.windows(2).map(|w| (w[1] - w[0]).abs().to_degrees()).collect();
            diffs.iter().sum::<f64>() / diffs.len() as f64
        };
        // Compare per ~metre of travel: OPS samples at 5 m grid, direct at
        // ~1.2 m (10 Hz); normalize by the mean step.
        let step = |t: &GradientTrack| (t.s.last().unwrap() - t.s[0]) / (t.s.len() - 1) as f64;
        let direct_rate = jitter(&direct) / step(&direct);
        let ops_rate = jitter(&ops.fused) / step(&ops.fused);
        assert!(
            direct_rate > 3.0 * ops_rate,
            "direct jitter {direct_rate}°/m should dwarf OPS {ops_rate}°/m"
        );
    }

    #[test]
    fn downhill_sign_is_right() {
        let route = Route::new(vec![straight_road(1500.0, -2.5)]).unwrap();
        let log = log_for(&route, 3);
        let track = Eq3Direct::default().estimate(&log);
        let late: Vec<f64> = track
            .s
            .iter()
            .zip(&track.theta)
            .filter(|(s, _)| **s > 700.0)
            .map(|(_, th)| *th)
            .collect();
        let mean = late.iter().sum::<f64>() / late.len() as f64;
        assert!(mean < -0.02, "mean {mean}");
    }

    #[test]
    #[should_panic(expected = "needs speedometer")]
    fn missing_data_panics() {
        let route = Route::new(vec![straight_road(500.0, 0.0)]).unwrap();
        let mut log = log_for(&route, 4);
        log.speedometer.clear();
        let _ = Eq3Direct::default().estimate(&log);
    }
}
