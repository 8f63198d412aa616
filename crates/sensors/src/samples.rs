//! Timestamped sensor sample types.

use gradest_math::Vec2;
use serde::{Deserialize, Serialize};

/// One IMU sample in the aligned phone frame (Section III-A: `Y_B` along
/// the driving direction, `Z_B` normal to the road plane).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ImuSample {
    /// Time since trip start, seconds.
    pub t: f64,
    /// Specific force along `Y_B` (longitudinal), m/s².
    /// On a gradient this contains the gravity component:
    /// `a_y = v̇ + g·sinθ + noise`.
    pub accel_long: f64,
    /// Specific force along `X_B` (lateral), m/s² — dominated by the
    /// centripetal term `v·ω_z` while turning.
    pub accel_lat: f64,
    /// Angular rate about `Z_B` (yaw rate `ŵ_vehicle`), rad/s.
    pub gyro_z: f64,
}

impl ImuSample {
    /// Whether every reading the estimator uses is finite: the time,
    /// `accel_long` (every EKF predict) and `gyro_z` (the steering
    /// profile). `accel_lat` is never read.
    pub fn is_in_domain(&self) -> bool {
        self.t.is_finite() && self.accel_long.is_finite() && self.gyro_z.is_finite()
    }
}

/// One GPS fix.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct GpsSample {
    /// Time since trip start, seconds.
    pub t: f64,
    /// Planar position in the local frame, metres.
    pub position: Vec2,
    /// Doppler speed, m/s.
    pub speed_mps: f64,
    /// Course over ground, radians CCW from East.
    pub heading: f64,
    /// False during outages (urban canyon, tunnel): the fix carries the
    /// last-known values and must not be trusted.
    pub valid: bool,
}

impl GpsSample {
    /// Whether the fix has a finite time and, if valid, a finite position
    /// and speed. An invalid fix's position and speed are placeholders the
    /// estimator never reads, and neither is the heading.
    pub fn is_in_domain(&self) -> bool {
        self.t.is_finite()
            && (!self.valid || (self.position.is_finite() && self.speed_mps.is_finite()))
    }
}

/// One scalar speed sample (speedometer or CAN-bus).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SpeedSample {
    /// Time since trip start, seconds.
    pub t: f64,
    /// Measured vehicle speed, m/s.
    pub speed_mps: f64,
}

impl SpeedSample {
    /// Whether the sample's time and speed are both finite.
    pub fn is_in_domain(&self) -> bool {
        self.t.is_finite() && self.speed_mps.is_finite()
    }
}

/// One barometric altitude sample.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct BaroSample {
    /// Time since trip start, seconds.
    pub t: f64,
    /// Pressure altitude, metres.
    pub altitude_m: f64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn samples_round_trip_serde() {
        let imu = ImuSample { t: 1.0, accel_long: 0.2, accel_lat: -0.1, gyro_z: 0.01 };
        let s = serde_json::to_string(&imu).unwrap();
        let back: ImuSample = serde_json::from_str(&s).unwrap();
        assert_eq!(imu, back);

        let gps = GpsSample {
            t: 2.0,
            position: Vec2::new(10.0, 20.0),
            speed_mps: 12.0,
            heading: 0.5,
            valid: true,
        };
        let s = serde_json::to_string(&gps).unwrap();
        let back: GpsSample = serde_json::from_str(&s).unwrap();
        assert_eq!(gps, back);
    }
}
