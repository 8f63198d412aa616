//! # gradest-emissions
//!
//! Fuel consumption and air-pollution emission modelling (paper Section
//! III-E and the Section IV-C application):
//!
//! * [`vsp`] — the Vehicle Specific Power fuel model, Eq (7), with the
//!   Table II parameters.
//! * [`factors`] — pollutant emission factors (CO₂ 8 908 g/gal, PM2.5
//!   0.084 g/gal) and the `m_emission = F·V_fuel` relation.
//! * [`traffic`] — synthetic Annual Average Daily Traffic volumes per road
//!   (the paper uses VDOT counts).
//! * [`map`] — road-level fuel and emission maps over a network
//!   (Figures 10(a) and 10(b)) and per-route fuel integration for
//!   eco-routing.
//!
//! # Example
//!
//! ```
//! use gradest_emissions::vsp::FuelModel;
//!
//! let model = FuelModel::default(); // Table II parameters
//! let flat = model.fuel_rate_gph(40.0 / 3.6, 0.0, 0.0);
//! let climb = model.fuel_rate_gph(40.0 / 3.6, 0.0, 3.0f64.to_radians());
//! assert!(climb > flat); // gradient costs fuel
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod factors;
pub mod map;
pub mod traffic;
pub mod velocity_opt;
pub mod vsp;

pub use factors::Species;
pub use map::{EmissionMap, FuelMap, RoadEmission, RoadFuel};
pub use traffic::TrafficModel;
pub use velocity_opt::{VelocityOptConfig, VelocityProfile};
pub use vsp::FuelModel;
