//! The sensor suite: runs every modelled sensor over a ground-truth
//! trajectory and produces a timestamped [`SensorLog`].

use crate::alignment::PhoneMount;
use crate::noise::{gaussian, NoiseChannel, NoiseSpec};
use crate::samples::{BaroSample, GpsSample, ImuSample, SpeedSample};
use gradest_math::{Vec2, GRAVITY};
use gradest_sim::Trajectory;
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

/// Sampling rates, noise levels, and failure windows for the whole suite.
///
/// Defaults model a mid-2010s flagship phone (the paper's Galaxy S5) plus
/// a Bluetooth OBD dongle: 50 Hz IMU, 1 Hz GPS with ~3 m position noise,
/// metre-level barometer, and a lightly biased speedometer.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SensorConfig {
    /// IMU (accelerometer + gyro) rate, Hz.
    pub imu_rate_hz: f64,
    /// GPS fix rate, Hz.
    pub gps_rate_hz: f64,
    /// Speedometer-app rate, Hz.
    pub speedo_rate_hz: f64,
    /// CAN-bus wheel-speed rate, Hz.
    pub can_rate_hz: f64,
    /// Barometer rate, Hz.
    pub baro_rate_hz: f64,
    /// Longitudinal accelerometer noise.
    pub accel_noise: NoiseSpec,
    /// Gyro z-axis noise.
    pub gyro_noise: NoiseSpec,
    /// GPS horizontal position noise (per axis), metres.
    pub gps_pos_sd_m: f64,
    /// GPS Doppler speed noise.
    pub gps_speed_noise: NoiseSpec,
    /// Speedometer noise (includes a scale error from tire-radius
    /// uncertainty).
    pub speedo_noise: NoiseSpec,
    /// CAN wheel-speed noise (quantized).
    pub can_noise: NoiseSpec,
    /// Barometer altitude noise (white + drift, per Section III-C1).
    pub baro_noise: NoiseSpec,
    /// GPS outage windows `(start_s, end_s)` in trip time.
    pub gps_outages: Vec<(f64, f64)>,
    /// Residual phone-mount misalignment.
    pub mount: PhoneMount,
}

impl Default for SensorConfig {
    fn default() -> Self {
        SensorConfig {
            imu_rate_hz: 50.0,
            gps_rate_hz: 1.0,
            speedo_rate_hz: 10.0,
            can_rate_hz: 20.0,
            baro_rate_hz: 10.0,
            accel_noise: NoiseSpec {
                white_sd: 0.06,
                bias_walk_sd: 0.004,
                bias_init_sd: 0.03,
                quantization: 0.0,
                scale: 1.0,
            },
            gyro_noise: NoiseSpec {
                white_sd: 0.004,
                bias_walk_sd: 2e-4,
                bias_init_sd: 0.002,
                quantization: 0.0,
                scale: 1.0,
            },
            gps_pos_sd_m: 3.0,
            gps_speed_noise: NoiseSpec::white(0.35),
            speedo_noise: NoiseSpec {
                white_sd: 0.12,
                bias_walk_sd: 0.0,
                bias_init_sd: 0.0,
                quantization: 0.0,
                scale: 1.01,
            },
            can_noise: NoiseSpec {
                white_sd: 0.04,
                bias_walk_sd: 0.0,
                bias_init_sd: 0.0,
                quantization: 0.0278, // 0.1 km/h wheel-speed resolution
                scale: 1.0,
            },
            baro_noise: NoiseSpec {
                // The paper calls phone barometric altitude "notoriously
                // poor (e.g., several meters)": metre-level white noise
                // plus environmental pressure drift of metres over
                // minutes (0.2 m/√s ≈ 1.5 m drift per minute).
                white_sd: 1.5,
                bias_walk_sd: 0.2,
                bias_init_sd: 3.0,
                quantization: 0.0,
                scale: 1.0,
            },
            gps_outages: Vec::new(),
            mount: PhoneMount::default(),
        }
    }
}

/// Everything the phone + CAN recorded over one trip.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct SensorLog {
    /// IMU stream (aligned phone frame).
    pub imu: Vec<ImuSample>,
    /// GPS fixes (including invalid outage placeholders).
    pub gps: Vec<GpsSample>,
    /// Speedometer stream.
    pub speedometer: Vec<SpeedSample>,
    /// CAN wheel-speed stream.
    pub can: Vec<SpeedSample>,
    /// Barometer stream.
    pub barometer: Vec<BaroSample>,
}

impl SensorLog {
    /// IMU sampling interval, seconds.
    ///
    /// # Panics
    ///
    /// Panics if fewer than two IMU samples were recorded.
    pub fn imu_dt(&self) -> f64 {
        assert!(self.imu.len() >= 2, "need at least two IMU samples");
        self.imu[1].t - self.imu[0].t
    }

    /// Duration covered by the log, seconds.
    pub fn duration_s(&self) -> f64 {
        self.imu.last().map(|s| s.t).unwrap_or(0.0)
    }

    /// Checks the log against the estimator's accepted domain: at least
    /// two IMU samples with finite, strictly increasing times, every
    /// sample in domain by its own predicate ([`ImuSample::is_in_domain`],
    /// [`GpsSample::is_in_domain`], [`SpeedSample::is_in_domain`]), and
    /// strictly increasing times within each of the GPS, speedometer and
    /// CAN streams. The barometer is not checked: the estimator never
    /// reads it.
    ///
    /// # Errors
    ///
    /// The first rule the log breaks, in [`InputError`]'s variant order.
    pub fn validate(&self) -> Result<(), InputError> {
        let imu = &self.imu;
        if imu.len() < 2 {
            return Err(InputError::TooFewImuSamples);
        }
        // Strictly increasing times hold no NaN, and only the ends can be
        // infinite.
        let ends_finite =
            imu.first().zip(imu.last()).is_some_and(|(a, b)| a.t.is_finite() && b.t.is_finite());
        if !ends_finite || !strictly_increasing(imu, |s| s.t) {
            return Err(InputError::ImuTimes);
        }
        if !imu.iter().all(ImuSample::is_in_domain) {
            return Err(InputError::ImuReading);
        }
        if !self.gps.iter().all(GpsSample::is_in_domain) {
            return Err(InputError::GpsFix);
        }
        if !self.speedometer.iter().chain(&self.can).all(SpeedSample::is_in_domain) {
            return Err(InputError::SpeedSample);
        }
        if !strictly_increasing(&self.gps, |g| g.t)
            || !strictly_increasing(&self.speedometer, |s| s.t)
            || !strictly_increasing(&self.can, |s| s.t)
        {
            return Err(InputError::StreamTimes);
        }
        Ok(())
    }
}

/// Whether each sample's time `t` is below the next sample's.
fn strictly_increasing<T>(stream: &[T], t: fn(&T) -> f64) -> bool {
    stream.iter().zip(stream.iter().skip(1)).all(|(a, b)| t(a) < t(b))
}

/// The rule a [`SensorLog`] breaks ([`SensorLog::validate`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InputError {
    /// Fewer than two IMU samples.
    TooFewImuSamples,
    /// IMU times that are not finite and strictly increasing.
    ImuTimes,
    /// An IMU `accel_long` or `gyro_z` that is not finite.
    ImuReading,
    /// A GPS fix with a non-finite time, or a valid fix with a non-finite
    /// position or speed.
    GpsFix,
    /// A speedometer or CAN sample with a non-finite time or speed.
    SpeedSample,
    /// GPS, speedometer or CAN times that are not strictly increasing
    /// within their own stream.
    StreamTimes,
}

impl InputError {
    /// A fixed one-line description of the rule.
    pub fn reason(self) -> &'static str {
        match self {
            InputError::TooFewImuSamples => "fewer than two imu samples",
            InputError::ImuTimes => "imu times not finite and strictly increasing",
            InputError::ImuReading => "imu accel_long or gyro_z not finite",
            InputError::GpsFix => "gps time, or a valid fix's position or speed, not finite",
            InputError::SpeedSample => "speedometer or can time or speed not finite",
            InputError::StreamTimes => "gps, speedometer or can times not strictly increasing",
        }
    }
}

impl std::fmt::Display for InputError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.reason())
    }
}

impl std::error::Error for InputError {}

/// Runs the modelled sensors over ground truth.
#[derive(Debug, Clone)]
pub struct SensorSuite {
    config: SensorConfig,
}

impl SensorSuite {
    /// Creates a suite from a configuration.
    pub fn new(config: SensorConfig) -> Self {
        SensorSuite { config }
    }

    /// The active configuration.
    pub fn config(&self) -> &SensorConfig {
        &self.config
    }

    /// Simulates every sensor over `traj`, deterministic in `seed`.
    pub fn run(&self, traj: &Trajectory, seed: u64) -> SensorLog {
        let cfg = &self.config;
        let mut rng = StdRng::seed_from_u64(seed ^ 0xC0FFEE);
        let mut accel_ch = NoiseChannel::new(cfg.accel_noise, &mut rng);
        let mut accel_lat_ch =
            NoiseChannel::new(NoiseSpec::white(cfg.accel_noise.white_sd), &mut rng);
        let mut gyro_ch = NoiseChannel::new(cfg.gyro_noise, &mut rng);
        let mut gps_speed_ch = NoiseChannel::new(cfg.gps_speed_noise, &mut rng);
        let mut speedo_ch = NoiseChannel::new(cfg.speedo_noise, &mut rng);
        let mut can_ch = NoiseChannel::new(cfg.can_noise, &mut rng);
        let mut baro_ch = NoiseChannel::new(cfg.baro_noise, &mut rng);

        let mut log = SensorLog::default();
        let mut next_imu = 0.0;
        let mut next_gps = 0.0;
        let mut next_speedo = 0.0;
        let mut next_can = 0.0;
        let mut next_baro = 0.0;
        let imu_dt = 1.0 / cfg.imu_rate_hz;
        let gps_dt = 1.0 / cfg.gps_rate_hz;
        let speedo_dt = 1.0 / cfg.speedo_rate_hz;
        let can_dt = 1.0 / cfg.can_rate_hz;
        let baro_dt = 1.0 / cfg.baro_rate_hz;

        let mut last_valid_gps: Option<GpsSample> = None;

        for s in traj.samples() {
            if s.t >= next_imu {
                // Specific force in the aligned phone frame: gravity leaks
                // into Y_B on gradients, and residual mount pitch adds
                // ~g·ε of constant offset (Section III-A notes the
                // relative-movement compensation of [14]; we model its
                // residual).
                let truth_long =
                    s.accel_mps2 + GRAVITY * (s.theta + cfg.mount.pitch_error_rad).sin();
                let truth_lat = s.speed_mps * s.yaw_rate + GRAVITY * cfg.mount.roll_error_rad.sin();
                log.imu.push(ImuSample {
                    t: s.t,
                    accel_long: accel_ch.corrupt(truth_long, imu_dt, &mut rng),
                    accel_lat: accel_lat_ch.corrupt(truth_lat, imu_dt, &mut rng),
                    gyro_z: gyro_ch.corrupt(s.yaw_rate, imu_dt, &mut rng),
                });
                next_imu += imu_dt;
            }
            if s.t >= next_gps {
                let in_outage = cfg.gps_outages.iter().any(|&(a, b)| s.t >= a && s.t <= b);
                if in_outage {
                    // Hold last-known fix, flagged invalid.
                    let held = last_valid_gps.unwrap_or(GpsSample {
                        t: s.t,
                        position: s.position,
                        speed_mps: s.speed_mps,
                        heading: s.heading,
                        valid: false,
                    });
                    log.gps.push(GpsSample { t: s.t, valid: false, ..held });
                } else {
                    let noise =
                        Vec2::new(gaussian(&mut rng), gaussian(&mut rng)) * cfg.gps_pos_sd_m;
                    // Course noise shrinks with speed (heading comes from
                    // displacement over the fix interval).
                    let heading_sd =
                        (cfg.gps_pos_sd_m / (s.speed_mps.max(1.0) * gps_dt)).clamp(0.005, 0.5);
                    let fix = GpsSample {
                        t: s.t,
                        position: s.position + noise,
                        speed_mps: gps_speed_ch.corrupt(s.speed_mps, gps_dt, &mut rng).max(0.0),
                        heading: s.heading + heading_sd * gaussian(&mut rng),
                        valid: true,
                    };
                    last_valid_gps = Some(fix);
                    log.gps.push(fix);
                }
                next_gps += gps_dt;
            }
            if s.t >= next_speedo {
                log.speedometer.push(SpeedSample {
                    t: s.t,
                    speed_mps: speedo_ch.corrupt(s.speed_mps, speedo_dt, &mut rng).max(0.0),
                });
                next_speedo += speedo_dt;
            }
            if s.t >= next_can {
                log.can.push(SpeedSample {
                    t: s.t,
                    speed_mps: can_ch.corrupt(s.speed_mps, can_dt, &mut rng).max(0.0),
                });
                next_can += can_dt;
            }
            if s.t >= next_baro {
                log.barometer.push(BaroSample {
                    t: s.t,
                    altitude_m: baro_ch.corrupt(s.altitude, baro_dt, &mut rng),
                });
                next_baro += baro_dt;
            }
        }
        log
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gradest_geo::generate::{red_road, straight_road};
    use gradest_geo::Route;
    use gradest_sim::trip::{simulate_trip, TripConfig};

    fn quiet_trip() -> Trajectory {
        let route = Route::new(vec![straight_road(1500.0, 3.0)]).unwrap();
        simulate_trip(&route, &TripConfig::default(), 21)
    }

    #[test]
    fn rates_are_respected() {
        let traj = quiet_trip();
        let log = SensorSuite::new(SensorConfig::default()).run(&traj, 1);
        let dur = traj.duration_s();
        let imu_rate = log.imu.len() as f64 / dur;
        let gps_rate = log.gps.len() as f64 / dur;
        assert!((imu_rate - 50.0).abs() < 1.0, "IMU {imu_rate} Hz");
        assert!((gps_rate - 1.0).abs() < 0.1, "GPS {gps_rate} Hz");
        assert!((log.barometer.len() as f64 / dur - 10.0).abs() < 0.5);
        assert!((log.can.len() as f64 / dur - 20.0).abs() < 0.5);
    }

    #[test]
    fn accelerometer_contains_gravity_component() {
        // On a constant 3° climb at steady speed, mean accel_long ≈ g·sin 3°.
        let traj = quiet_trip();
        let log = SensorSuite::new(SensorConfig::default()).run(&traj, 2);
        // Use the middle of the trip (speed settled).
        let n = log.imu.len();
        let mid = &log.imu[n / 3..2 * n / 3];
        let mean = mid.iter().map(|s| s.accel_long).sum::<f64>() / mid.len() as f64;
        let expect = GRAVITY * (3.0f64.to_radians()).sin();
        assert!((mean - expect).abs() < 0.15, "mean specific force {mean}, expected ≈{expect}");
    }

    #[test]
    fn gps_noise_magnitude() {
        let traj = quiet_trip();
        let log = SensorSuite::new(SensorConfig::default()).run(&traj, 3);
        // Compare each fix against the nearest truth sample.
        let mut errs = Vec::new();
        for fix in &log.gps {
            let truth = traj
                .samples()
                .iter()
                .min_by(|a, b| (a.t - fix.t).abs().partial_cmp(&(b.t - fix.t).abs()).unwrap())
                .unwrap();
            errs.push((fix.position - truth.position).norm());
        }
        let mean_err = errs.iter().sum::<f64>() / errs.len() as f64;
        // Rayleigh mean for σ=3 per axis is σ·√(π/2) ≈ 3.76.
        assert!((2.5..5.5).contains(&mean_err), "mean GPS error {mean_err}");
    }

    #[test]
    fn outage_marks_fixes_invalid() {
        let traj = quiet_trip();
        let cfg = SensorConfig { gps_outages: vec![(10.0, 20.0)], ..Default::default() };
        let log = SensorSuite::new(cfg).run(&traj, 4);
        let invalid: Vec<&GpsSample> = log.gps.iter().filter(|g| !g.valid).collect();
        assert!((9..=12).contains(&invalid.len()), "{} invalid fixes", invalid.len());
        assert!(invalid.iter().all(|g| g.t >= 10.0 && g.t <= 20.0));
        // Fixes outside the window are valid.
        assert!(log.gps.iter().filter(|g| g.t > 21.0).all(|g| g.valid));
    }

    #[test]
    fn speedometer_scale_bias_visible() {
        let traj = quiet_trip();
        let log = SensorSuite::new(SensorConfig::default()).run(&traj, 5);
        // Speedometer reads ~1% high relative to CAN on average.
        let mean_speedo =
            log.speedometer.iter().map(|s| s.speed_mps).sum::<f64>() / log.speedometer.len() as f64;
        let mean_can = log.can.iter().map(|s| s.speed_mps).sum::<f64>() / log.can.len() as f64;
        let ratio = mean_speedo / mean_can;
        assert!((ratio - 1.01).abs() < 0.005, "ratio {ratio}");
    }

    #[test]
    fn barometer_is_noisy_but_unbiased_only_slowly() {
        let traj = quiet_trip();
        let log = SensorSuite::new(SensorConfig::default()).run(&traj, 6);
        let mut errs = Vec::new();
        for b in &log.barometer {
            let truth = traj
                .samples()
                .iter()
                .min_by(|x, y| (x.t - b.t).abs().partial_cmp(&(y.t - b.t).abs()).unwrap())
                .unwrap();
            errs.push(b.altitude_m - truth.altitude);
        }
        let sd = {
            let m = errs.iter().sum::<f64>() / errs.len() as f64;
            (errs.iter().map(|e| (e - m) * (e - m)).sum::<f64>() / errs.len() as f64).sqrt()
        };
        // Metre-level, per the paper's complaint about phone barometers.
        assert!(sd > 0.5, "baro sd {sd}");
    }

    #[test]
    fn deterministic_in_seed() {
        let traj = quiet_trip();
        let suite = SensorSuite::new(SensorConfig::default());
        let a = suite.run(&traj, 7);
        let b = suite.run(&traj, 7);
        assert_eq!(a.imu.len(), b.imu.len());
        assert_eq!(a.imu[100], b.imu[100]);
        let c = suite.run(&traj, 8);
        assert_ne!(a.imu[100], c.imu[100]);
    }

    #[test]
    fn gyro_tracks_yaw_rate_on_red_road() {
        let route = Route::new(vec![red_road()]).unwrap();
        let traj = simulate_trip(&route, &TripConfig::default(), 30);
        let log = SensorSuite::new(SensorConfig::default()).run(&traj, 9);
        // Gyro mean error vs truth yaw rate is small.
        let mut errs = Vec::new();
        for g in log.imu.iter().step_by(10) {
            let truth = traj
                .samples()
                .iter()
                .min_by(|x, y| (x.t - g.t).abs().partial_cmp(&(y.t - g.t).abs()).unwrap())
                .unwrap();
            errs.push(g.gyro_z - truth.yaw_rate);
        }
        let mean = errs.iter().sum::<f64>() / errs.len() as f64;
        assert!(mean.abs() < 0.01, "gyro mean error {mean}");
    }
}
