//! # gradest-baselines
//!
//! The two road-gradient estimators the paper compares against (Section
//! IV, "Compared Methods"):
//!
//! * [`altitude_ekf`] — "EKF" \[Sahlholm & Johansson 2010\]: a Kalman
//!   filter over `[altitude, θ]` driven by measured velocity and corrected
//!   by the smartphone barometer. Its accuracy is capped by the
//!   barometer's metre-level noise and drift (exactly the limitation
//!   Section III-C1 calls out).
//! * [`ann`] — "ANN" \[Ngwangwa et al. 2010\]: a multi-layer perceptron
//!   mapping `(velocity, acceleration, altitude)` to road gradient,
//!   trained on 4 320 labelled samples like the paper. Built on the
//!   from-scratch [`mlp`] module (dense layers, tanh activations, Adam).
//!
//! Both consume the same [`gradest_sensors::suite::SensorLog`] as the main
//! pipeline and emit [`gradest_core::track::GradientTrack`]s so every
//! experiment scores all three systems identically.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod altitude_ekf;
pub mod ann;
pub mod baro_slope;
pub mod eq3_direct;
pub mod mlp;

pub use altitude_ekf::{AltitudeEkf, AltitudeEkfConfig};
pub use ann::{AnnConfig, AnnGradientEstimator, TrainingSet};
pub use baro_slope::BaroSlope;
pub use eq3_direct::Eq3Direct;
pub use mlp::{Activation, Mlp, TrainConfig};
