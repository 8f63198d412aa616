//! Naive barometer-slope baseline.
//!
//! The simplest conceivable gradient estimator: smooth the barometric
//! altitude, differentiate it against distance travelled,
//! `θ = atan(Δz/Δs)`. No filter, no model. It exists to quantify what the
//! altitude-EKF baseline's Kalman machinery buys — and to illustrate
//! Section III-C1's point that the phone barometer alone is a poor
//! gradient sensor.

use gradest_core::track::GradientTrack;
use gradest_math::interp::interp1_or;
use gradest_math::signal::moving_average;
use gradest_sensors::suite::SensorLog;
use serde::{Deserialize, Serialize};

/// Half-width of the altitude moving-average window, in samples (at the
/// barometer rate).
const SMOOTH_HALF_WINDOW: usize = 25;

/// Differentiation baseline, metres of travel.
const BASELINE_M: f64 = 60.0;

/// The naive estimator, built with `BaroSlope::default()`. Its tuning is
/// constant: a 25-sample half-window for the altitude moving average and
/// a 60 m differentiation baseline.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
#[non_exhaustive]
pub struct BaroSlope;

impl BaroSlope {
    /// Estimates a gradient track from barometer + speedometer data.
    ///
    /// The (constant) per-sample variance reported on the track is the
    /// propagated barometer noise over the differentiation baseline —
    /// honest, and appropriately enormous compared to the EKF methods.
    ///
    /// # Panics
    ///
    /// Panics if the log lacks barometer or speedometer data.
    pub fn estimate(&self, log: &SensorLog) -> GradientTrack {
        assert!(
            log.barometer.len() >= 4 && log.speedometer.len() >= 2,
            "baro-slope needs barometer and speedometer data"
        );
        // Distance travelled at each barometer sample, from the
        // speedometer.
        let (vt, vv): (Vec<f64>, Vec<f64>) =
            log.speedometer.iter().map(|s| (s.t, s.speed_mps)).unzip();
        let v_at = interp1_or(&vt, &vv, 10.0);
        let mut s_at = Vec::with_capacity(log.barometer.len());
        let mut s_acc = 0.0;
        let mut prev_t = log.barometer[0].t;
        for b in &log.barometer {
            let v = v_at(b.t);
            s_acc += v * (b.t - prev_t).max(0.0);
            prev_t = b.t;
            s_at.push(s_acc);
        }
        let z_raw: Vec<f64> = log.barometer.iter().map(|b| b.altitude_m).collect();
        let z = moving_average(&z_raw, SMOOTH_HALF_WINDOW).expect("nonempty barometer stream");

        // Central difference over ~BASELINE_M of travel.
        let mut track = GradientTrack::new("baro-slope");
        let var = track_variance();
        for i in 0..z.len() {
            // Find j ahead of i by at least BASELINE_M.
            let target = s_at[i] + BASELINE_M;
            let j = s_at.partition_point(|&sv| sv < target);
            if j >= z.len() {
                break;
            }
            let ds = (s_at[j] - s_at[i]).max(1e-6);
            let theta = ((z[j] - z[i]) / ds).atan();
            let mid = 0.5 * (s_at[i] + s_at[j]);
            // partition_point guarantees forward progress in s.
            if track.s.last().is_none_or(|&last| mid >= last) {
                track.push(mid, theta.clamp(-0.5, 0.5), var);
            }
        }
        track
    }
}

/// Propagated variance of the differentiated, smoothed barometer noise
/// (rad², small-angle).
fn track_variance() -> f64 {
    // Smoothing divides the white variance by the window size; the
    // difference of two smoothed values doubles it.
    let baro_sd = 1.2;
    let window = (2 * SMOOTH_HALF_WINDOW + 1) as f64;
    let z_var = 2.0 * baro_sd * baro_sd / window;
    (z_var / (BASELINE_M * BASELINE_M)).max(1e-9)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gradest_baselines_test_util::*;

    // Minimal local test scaffolding (kept in-file: this crate has no
    // shared test-util module).
    mod gradest_baselines_test_util {
        pub use gradest_geo::generate::straight_road;
        pub use gradest_geo::Route;
        pub use gradest_sensors::suite::{SensorConfig, SensorSuite};
        pub use gradest_sim::driver::DriverProfile;
        pub use gradest_sim::trip::{simulate_trip, TripConfig};
    }

    fn log_for(gradient_deg: f64, seed: u64) -> SensorLog {
        let route = Route::new(vec![straight_road(2500.0, gradient_deg)]).unwrap();
        let cfg = TripConfig {
            driver: DriverProfile { lane_change_rate_per_km: 0.0, ..Default::default() },
            ..Default::default()
        };
        let traj = simulate_trip(&route, &cfg, seed);
        SensorSuite::new(SensorConfig::default()).run(&traj, seed)
    }

    #[test]
    fn recovers_sign_and_rough_magnitude() {
        let log = log_for(3.0, 1);
        let track = BaroSlope::default().estimate(&log);
        assert!(!track.is_empty());
        let mid: Vec<f64> = track
            .s
            .iter()
            .zip(&track.theta)
            .filter(|(s, _)| **s > 500.0 && **s < 2000.0)
            .map(|(_, th)| th.to_degrees())
            .collect();
        let mean = mid.iter().sum::<f64>() / mid.len() as f64;
        assert!((mean - 3.0).abs() < 1.5, "mean {mean}°");
    }

    #[test]
    fn loses_to_the_full_pipeline_on_varying_gradients() {
        // Being an *acausal* central difference, this baseline can rival
        // the causal altitude EKF in offline scoring — but it cannot touch
        // the velocity-deviation pipeline, whose information source (the
        // accelerometer's gravity leak) is orders of magnitude cleaner
        // than the barometer.
        use gradest_core::pipeline::{EstimatorConfig, GradientEstimator};
        use gradest_geo::generate::red_road;
        let route = Route::new(vec![red_road()]).unwrap();
        let cfg = TripConfig {
            driver: DriverProfile { lane_change_rate_per_km: 0.0, ..Default::default() },
            ..Default::default()
        };
        let traj = simulate_trip(&route, &cfg, 2);
        let log = SensorSuite::new(SensorConfig::default()).run(&traj, 2);
        let naive = BaroSlope::default().estimate(&log);
        let ops = GradientEstimator::new(EstimatorConfig::default()).estimate(&log, Some(&route));
        let err = |t: &GradientTrack| {
            let vals: Vec<f64> =
                t.s.iter()
                    .zip(&t.theta)
                    .filter(|(s, _)| **s > 200.0 && **s < 2000.0)
                    .map(|(s, th)| (th - route.gradient_at(*s)).abs().to_degrees())
                    .collect();
            vals.iter().sum::<f64>() / vals.len() as f64
        };
        assert!(
            err(&naive) > err(&ops.fused),
            "naive {} should trail OPS {}",
            err(&naive),
            err(&ops.fused)
        );
    }

    #[test]
    fn track_positions_are_monotone() {
        let log = log_for(-2.0, 3);
        let track = BaroSlope::default().estimate(&log);
        for w in track.s.windows(2) {
            assert!(w[1] >= w[0]);
        }
        assert!(track.variance.iter().all(|v| *v > 0.0));
    }

    #[test]
    #[should_panic(expected = "needs barometer")]
    fn missing_data_panics() {
        let mut log = log_for(1.0, 4);
        log.barometer.clear();
        let _ = BaroSlope::default().estimate(&log);
    }
}
