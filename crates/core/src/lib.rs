//! # gradest-core
//!
//! The paper's primary contribution: road gradient estimation from
//! smartphone measurements.
//!
//! The pipeline (paper Figure 1):
//!
//! 1. **Steering profile** ([`steering`]) — LOWESS-smoothed
//!    `w_steer = ŵ_vehicle − w_road` series.
//! 2. **Lane change detection** ([`lane_change`], Algorithm 1) — find
//!    opposite-sign bumps (δ/T features, Table I), discriminate from
//!    S-curves by horizontal displacement (Eq 1, `W ≤ 3·W_lane`), and
//!    correct longitudinal velocity (Eq 2).
//! 3. **EKF gradient estimation** ([`ekf`], Eq 5) — state `[v, θ]` driven
//!    by the measured longitudinal acceleration, corrected by measured
//!    velocity from each source (GPS / speedometer / CAN / accelerometer).
//! 4. **Track fusion** ([`fusion`], Eq 6) — convex combination of
//!    per-source gradient tracks weighted by inverse EKF covariance; also
//!    multi-vehicle (cloud) fusion.
//!
//! [`pipeline::GradientEstimator`] wires the stages together; it is the
//! type a downstream user instantiates.
//!
//! # Example
//!
//! ```
//! use gradest_geo::generate::red_road;
//! use gradest_geo::Route;
//! use gradest_sim::trip::{simulate_trip, TripConfig};
//! use gradest_sensors::suite::{SensorConfig, SensorSuite};
//! use gradest_core::pipeline::{EstimatorConfig, GradientEstimator};
//!
//! let route = Route::new(vec![red_road()]).unwrap();
//! let traj = simulate_trip(&route, &TripConfig::default(), 7);
//! let log = SensorSuite::new(SensorConfig::default()).run(&traj, 7);
//!
//! let estimator = GradientEstimator::new(EstimatorConfig::default());
//! let estimate = estimator.estimate(&log, Some(&route));
//! assert!(!estimate.fused.is_empty());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cloud;
pub mod diagnostics;
pub mod ekf;
pub mod ekf_lanes;
pub mod eval;
pub mod fleet;
pub mod fusion;
pub mod lane_change;
pub mod online;
pub mod pipeline;
pub mod smoother;
pub mod steering;
pub mod sync;
pub mod track;

pub use cloud::{CloudAggregator, CloudSnapshot};
pub use diagnostics::{FilterHealth, InnovationMonitor};
pub use ekf::EkfConfig;
pub use ekf_lanes::{EkfLanes, MAX_LANES};
pub use fleet::FleetEngine;
pub use fusion::{fuse_tracks, fuse_tracks_into, fuse_values};
pub use lane_change::{LaneChangeConfig, LaneChangeDetection, LaneChangeDetector};
pub use online::{OnlineEstimate, OnlineEstimator, OnlineSource};
pub use pipeline::{
    EstimatorConfig, EstimatorScratch, GradientEstimate, GradientEstimator, StageNanos,
    VelocitySource,
};
pub use smoother::{rts_smooth, rts_smooth_into, RtsStep};
pub use track::GradientTrack;
