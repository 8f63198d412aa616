//! # gradest-sensors
//!
//! Smartphone (and CAN-bus) sensor models plus the paper's Section III-A
//! smartphone coordinate alignment system.
//!
//! The paper's pipeline consumes, from a phone riding in the vehicle:
//!
//! * accelerometer — longitudinal specific force. On a gradient the phone
//!   (pitched with the vehicle) measures `a_meas = v̇ + g·sinθ`, which is
//!   precisely what makes θ observable from velocity deviations;
//! * angular-velocity sensor (gyroscope z) — vehicle yaw rate
//!   `ŵ_vehicle`;
//! * GPS — 1 Hz position/speed/heading, with urban outages;
//! * "speedometer" — an app-level vehicle speed source;
//! * CAN-bus — wheel speed over Bluetooth OBD;
//! * barometer — altitude, notoriously poor (metre-level noise + drift,
//!   Section III-C1), used by the altitude-EKF baseline.
//!
//! [`suite::SensorSuite`] runs all of them over a ground-truth
//! [`gradest_sim::Trajectory`] and produces a timestamped [`suite::SensorLog`].
//! [`alignment`] converts gyro yaw rate into steering rate
//! (`w_steer = ŵ_vehicle − w_road`) via map-matched road geometry.
//!
//! # Example
//!
//! ```
//! use gradest_geo::generate::red_road;
//! use gradest_geo::Route;
//! use gradest_sim::trip::{simulate_trip, TripConfig};
//! use gradest_sensors::suite::{SensorConfig, SensorSuite};
//!
//! let route = Route::new(vec![red_road()]).unwrap();
//! let traj = simulate_trip(&route, &TripConfig::default(), 1);
//! let log = SensorSuite::new(SensorConfig::default()).run(&traj, 1);
//! assert!(!log.imu.is_empty());
//! assert!(!log.gps.is_empty());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod alignment;
pub mod calibration;
pub mod columnar;
pub mod noise;
pub mod raw;
pub mod samples;
pub mod suite;

pub use alignment::{
    steering_rate_profile, steering_rate_profile_into, MapMatcher, NetworkMatcher, PhoneMount,
    TripMatch, WRoadScratch,
};
pub use calibration::{apply_mount, estimate_mount, CalibrationError};
pub use columnar::ImuColumns;
pub use raw::{simulate_raw_imu, RawImuConfig, RawImuSample};
pub use samples::{BaroSample, GpsSample, ImuSample, SpeedSample};
pub use suite::{InputError, SensorConfig, SensorLog, SensorSuite};
