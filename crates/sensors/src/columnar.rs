//! Columnar (structure-of-arrays) views over sensor logs.
//!
//! The hot per-trip loops — steering-profile construction, LOWESS
//! smoothing, and the EKF predict sweep — touch one field of every
//! [`ImuSample`] per pass. Iterating the array-of-structs layout drags
//! the other three fields through cache on every access; these columns
//! transpose the log once so each loop reads a contiguous `&[f64]`.
//!
//! The buffers are reusable: [`ImuColumns::fill_from`] clears and
//! refills without reallocating once grown, so a warm estimator
//! columnarizes every trip allocation-free.

use crate::samples::ImuSample;
use serde::{Deserialize, Serialize};

/// Columnar copy of an IMU stream: one contiguous slice per field.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct ImuColumns {
    /// Sample times, seconds.
    pub t: Vec<f64>,
    /// Longitudinal specific force, m/s².
    pub accel_long: Vec<f64>,
    /// Lateral specific force, m/s².
    pub accel_lat: Vec<f64>,
    /// Yaw rate, rad/s.
    pub gyro_z: Vec<f64>,
}

impl ImuColumns {
    /// Transposes `samples` into the columns, reusing the buffers.
    pub fn fill_from(&mut self, samples: &[ImuSample]) {
        self.t.clear();
        self.accel_long.clear();
        self.accel_lat.clear();
        self.gyro_z.clear();
        self.t.extend(samples.iter().map(|s| s.t));
        self.accel_long.extend(samples.iter().map(|s| s.accel_long));
        self.accel_lat.extend(samples.iter().map(|s| s.accel_lat));
        self.gyro_z.extend(samples.iter().map(|s| s.gyro_z));
    }

    /// Builds columns from a sample slice (allocating convenience).
    pub fn from_samples(samples: &[ImuSample]) -> Self {
        let mut c = ImuColumns::default();
        c.fill_from(samples);
        c
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.t.len()
    }

    /// True when no samples are held.
    pub fn is_empty(&self) -> bool {
        self.t.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn samples() -> Vec<ImuSample> {
        (0..5)
            .map(|i| ImuSample {
                t: i as f64 * 0.02,
                accel_long: i as f64,
                accel_lat: -(i as f64),
                gyro_z: i as f64 * 0.1,
            })
            .collect()
    }

    #[test]
    fn fill_transposes_every_field() {
        let s = samples();
        let c = ImuColumns::from_samples(&s);
        assert_eq!(c.len(), s.len());
        assert!(!c.is_empty());
        for (i, sample) in s.iter().enumerate() {
            assert_eq!(c.t[i], sample.t);
            assert_eq!(c.accel_long[i], sample.accel_long);
            assert_eq!(c.accel_lat[i], sample.accel_lat);
            assert_eq!(c.gyro_z[i], sample.gyro_z);
        }
    }

    #[test]
    fn refill_reuses_buffers() {
        let mut c = ImuColumns::from_samples(&samples());
        let cap = c.t.capacity();
        c.fill_from(&samples()[..3]);
        assert_eq!(c.len(), 3);
        assert_eq!(c.t.capacity(), cap);
        c.fill_from(&[]);
        assert!(c.is_empty());
    }
}
