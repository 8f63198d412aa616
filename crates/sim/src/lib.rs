//! # gradest-sim
//!
//! Longitudinal vehicle dynamics, a driver model, and a trip simulator.
//!
//! The paper's data comes from a Nissan Altima driven around
//! Charlottesville; this crate is the synthetic equivalent. It produces
//! ground-truth vehicle trajectories over [`gradest_geo`] routes:
//!
//! * [`vehicle`] — vehicle parameters and force model
//!   (`m·v̇ = F_drive − F_aero − F_roll − F_grade`, the force balance
//!   behind the paper's Eq 3).
//! * [`dynamics`] — longitudinal integrator and drive-force controller.
//! * [`maneuver`] — lane-change steering-rate profiles: a full sine period
//!   whose amplitude/duration reproduce the bump shapes of the paper's
//!   Figures 3–4 and a ~3.65 m lateral displacement.
//! * [`driver`] — target-speed selection (speed limits, curve slowdown,
//!   human speed wander) and stochastic lane-change planning (the paper
//!   cites ~0.36 lane changes per mile).
//! * [`trip`] — the simulator: integrates vehicle state along a route at a
//!   fixed rate and emits ground-truth samples plus labelled lane-change
//!   events.
//!
//! # Example
//!
//! ```
//! use gradest_geo::generate::red_road;
//! use gradest_geo::Route;
//! use gradest_sim::trip::{TripConfig, simulate_trip};
//!
//! let route = Route::new(vec![red_road()]).unwrap();
//! let traj = simulate_trip(&route, &TripConfig::default(), 42);
//! assert!(traj.duration_s() > 60.0); // 2.16 km takes a few minutes
//! assert!(traj.samples().iter().all(|s| s.speed_mps >= 0.0));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod driver;
pub mod dynamics;
pub mod maneuver;
pub mod traffic;
pub mod trip;
pub mod vehicle;

pub use maneuver::LaneChangeDirection;
pub use traffic::{IdmFollower, IdmParams, LeadVehicle};
pub use trip::{simulate_trip, LaneChangeEvent, Trajectory, TripConfig, TruthSample};
pub use vehicle::VehicleParams;
