//! The altitude-based EKF baseline ("EKF" in the paper's Section IV,
//! after Sahlholm & Johansson 2010).
//!
//! State `x = [z, θ]` (altitude, gradient). Measured vehicle velocity
//! drives the altitude propagation `z' = z + v·sinθ·Δt`; barometric
//! altitude measurements correct the state, making θ observable through
//! the z–θ cross covariance. The method's accuracy is fundamentally capped
//! by the smartphone barometer's metre-level noise and drift — the
//! limitation the paper's Section III-C1 cites as motivation for its own
//! velocity-deviation formulation.

use gradest_core::smoother::{rts_smooth, RtsStep};
use gradest_core::track::GradientTrack;
use gradest_math::interp::Interpolant;
use gradest_math::{Mat2, Vec2};
use gradest_sensors::suite::SensorLog;
use serde::{Deserialize, Serialize};

/// Altitude process noise density, m²/s.
const Q_ALTITUDE: f64 = 0.02;
/// Gradient process noise density, rad²/s.
const Q_THETA: f64 = 2e-4;
/// Barometer measurement variance, m²: (1.2 m)².
const R_BARO: f64 = 1.44;
/// Initial altitude variance, m².
const P0_ALTITUDE: f64 = 9.0;
/// Initial gradient variance, rad².
const P0_THETA: f64 = 2e-3;

/// Configuration of the altitude EKF. Its noise and initial values are
/// constants of this module (altitude and gradient process noise 0.02
/// m²/s and 2e-4 rad²/s, barometer variance (1.2 m)², initial variances
/// 9 m² and 2e-3 rad²).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AltitudeEkfConfig {
    /// Apply a backward RTS pass over the filter history (batch mode).
    /// Like the main pipeline, the baseline scores completed trips, so
    /// acausal smoothing is the like-for-like configuration.
    pub rts_smoothing: bool,
}

impl Default for AltitudeEkfConfig {
    fn default() -> Self {
        AltitudeEkfConfig { rts_smoothing: true }
    }
}

/// The altitude-EKF baseline estimator.
///
/// # Example
///
/// ```no_run
/// use gradest_baselines::altitude_ekf::AltitudeEkf;
/// # let log = unimplemented!();
/// let track = AltitudeEkf::default().estimate(&log);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct AltitudeEkf {
    config: AltitudeEkfConfig,
}

impl AltitudeEkf {
    /// Creates a baseline with the given configuration.
    pub fn new(config: AltitudeEkfConfig) -> Self {
        AltitudeEkf { config }
    }

    /// Runs the baseline over one trip's sensor log, producing an
    /// arc-indexed gradient track (arc position from integrating the
    /// speedometer).
    ///
    /// # Panics
    ///
    /// Panics if the log has fewer than two IMU samples (the IMU clock
    /// paces the filter) or no barometer samples.
    pub fn estimate(&self, log: &SensorLog) -> GradientTrack {
        assert!(log.imu.len() >= 2, "need at least two IMU samples");
        assert!(!log.barometer.is_empty(), "altitude EKF needs barometer data");
        let rts_smoothing = self.config.rts_smoothing;
        let dt = log.imu_dt();

        // Velocity input: speedometer interpolated to the IMU clock
        // through two or more samples, else a constant 10 m/s. Validate
        // the series once; `at` is then just a binary search.
        let (vt, vv): (Vec<f64>, Vec<f64>) =
            log.speedometer.iter().map(|s| (s.t, s.speed_mps)).unzip();
        let speed = Interpolant::new(&vt, &vv).ok().filter(|_| vt.len() >= 2);
        let v_at = |t: f64| -> f64 { speed.as_ref().map_or(10.0, |f| f.at(t)) };

        let mut x = Vec2::new(log.barometer[0].altitude_m, 0.0);
        let mut p = Mat2::diag(P0_ALTITUDE, P0_THETA);
        let mut track = GradientTrack::new("altitude-ekf");
        let mut arc = Vec::with_capacity(log.imu.len());
        let mut history: Vec<RtsStep> = Vec::new();
        if rts_smoothing {
            history.reserve(log.imu.len());
        }
        let mut s = 0.0;
        let mut baro_idx = 0usize;
        for imu in &log.imu {
            let v = v_at(imu.t).max(0.0);
            // Predict: z' = z + v·sinθ·dt, θ' = θ.
            let (z, theta) = (x.x, x.y);
            x = Vec2::new(z + v * theta.sin() * dt, theta);
            let f = Mat2::new(1.0, v * theta.cos() * dt, 0.0, 1.0);
            p = f * p * f.transpose() + Mat2::diag(Q_ALTITUDE * dt, Q_THETA * dt);
            p.symmetrize();
            let (x_pred, p_pred) = (x, p);

            // Update with every barometer sample that has arrived.
            while baro_idx < log.barometer.len() && log.barometer[baro_idx].t <= imu.t {
                let meas = log.barometer[baro_idx].altitude_m;
                let innovation = meas - x.x;
                let sv = p.m[0][0] + R_BARO;
                let k = Vec2::new(p.m[0][0] / sv, p.m[1][0] / sv);
                x += k * innovation;
                x.y = x.y.clamp(-0.5, 0.5);
                let kh = Mat2::new(k.x, 0.0, k.y, 0.0);
                p = (Mat2::identity() - kh) * p;
                p.symmetrize();
                baro_idx += 1;
            }

            s += v * dt;
            arc.push(s);
            if rts_smoothing {
                history.push(RtsStep { x_pred, p_pred, x_filt: x, p_filt: p, f });
            } else {
                track.push(s, x.y, p.m[1][1].max(1e-12));
            }
        }
        if rts_smoothing {
            for (s, (x_s, p_s)) in arc.into_iter().zip(rts_smooth(&history)) {
                track.push(s, x_s.y, p_s.m[1][1].max(1e-12));
            }
        }
        track
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gradest_geo::generate::straight_road;
    use gradest_geo::Route;
    use gradest_sensors::suite::{SensorConfig, SensorSuite};
    use gradest_sim::driver::DriverProfile;
    use gradest_sim::trip::{simulate_trip, TripConfig};

    fn log_for(gradient_deg: f64, seed: u64) -> (Route, SensorLog) {
        let route = Route::new(vec![straight_road(2000.0, gradient_deg)]).unwrap();
        let cfg = TripConfig {
            driver: DriverProfile { lane_change_rate_per_km: 0.0, ..Default::default() },
            ..Default::default()
        };
        let traj = simulate_trip(&route, &cfg, seed);
        let log = SensorSuite::new(SensorConfig::default()).run(&traj, seed);
        (route, log)
    }

    #[test]
    fn recovers_constant_gradient_roughly() {
        let (_, log) = log_for(3.0, 1);
        let track = AltitudeEkf::default().estimate(&log);
        // Mean over the second half.
        let late: Vec<f64> = track
            .s
            .iter()
            .zip(&track.theta)
            .filter(|(s, _)| **s > 1000.0)
            .map(|(_, th)| th.to_degrees())
            .collect();
        let mean = late.iter().sum::<f64>() / late.len() as f64;
        // Barometer-grade accuracy: within ~1° of truth.
        assert!((mean - 3.0).abs() < 1.0, "mean {mean}°");
    }

    #[test]
    fn downhill_sign_is_correct() {
        let (_, log) = log_for(-2.5, 2);
        let track = AltitudeEkf::default().estimate(&log);
        let late: Vec<f64> = track
            .s
            .iter()
            .zip(&track.theta)
            .filter(|(s, _)| **s > 1000.0)
            .map(|(_, th)| *th)
            .collect();
        let mean = late.iter().sum::<f64>() / late.len() as f64;
        assert!(mean < -0.02, "mean {mean}");
    }

    #[test]
    fn track_is_monotone_in_s_with_positive_variance() {
        let (_, log) = log_for(1.0, 3);
        let track = AltitudeEkf::default().estimate(&log);
        assert!(!track.is_empty());
        for w in track.s.windows(2) {
            assert!(w[1] >= w[0]);
        }
        assert!(track.variance.iter().all(|v| *v > 0.0));
    }

    #[test]
    #[should_panic(expected = "barometer")]
    fn missing_barometer_panics() {
        let (_, mut log) = log_for(1.0, 4);
        log.barometer.clear();
        let _ = AltitudeEkf::default().estimate(&log);
    }
}
