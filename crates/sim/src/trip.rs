//! The trip simulator: ground-truth vehicle trajectories over a route.
//!
//! [`simulate_trip`] integrates longitudinal dynamics, driver behaviour,
//! and lane-change maneuvers along a [`Route`] at a fixed rate, producing
//! the [`Trajectory`] that sensor models consume and against which
//! estimates are scored.

use crate::driver::{DriverProfile, LaneChangePlanner};
use crate::dynamics::{step, LongState, SpeedController};
use crate::maneuver::{LaneChangeDirection, LaneChangeManeuver};
use crate::traffic::{IdmFollower, IdmParams, LeadVehicle};
use crate::vehicle::VehicleParams;
use gradest_geo::Route;
use gradest_math::Vec2;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// One ground-truth sample of the vehicle state.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TruthSample {
    /// Time since trip start, seconds.
    pub t: f64,
    /// Arc position along the route centerline, metres.
    pub s: f64,
    /// Planar position (centerline point + lateral offset), metres.
    pub position: Vec2,
    /// Altitude, metres.
    pub altitude: f64,
    /// Ground-truth road gradient θ at `s`, radians.
    pub theta: f64,
    /// Vehicle speed along its own axis, m/s.
    pub speed_mps: f64,
    /// Longitudinal acceleration dv/dt, m/s².
    pub accel_mps2: f64,
    /// Velocity component along the road direction, m/s
    /// (`v·cos α`; equals `speed_mps` outside maneuvers).
    pub v_long_mps: f64,
    /// Vehicle heading, radians CCW from East.
    pub heading: f64,
    /// Vehicle yaw rate (`ŵ_vehicle = w_road + w_steer`), rad/s.
    pub yaw_rate: f64,
    /// Steering angle α relative to the road direction, radians.
    pub steering_angle: f64,
    /// Steering rate `w_steer = dα/dt`, rad/s.
    pub steering_rate: f64,
    /// Road-direction change rate `w_road` at the current speed, rad/s.
    pub w_road: f64,
    /// Lateral offset from the trip's starting lane center, metres
    /// (positive left).
    pub lateral_offset_m: f64,
    /// Current lane index (0 = rightmost).
    pub lane: u32,
    /// Lanes available at `s`.
    pub lanes_available: u32,
}

/// A labelled lane-change event (ground truth for detector evaluation).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LaneChangeEvent {
    /// Direction of the change.
    pub direction: LaneChangeDirection,
    /// Maneuver start time, seconds.
    pub start_t: f64,
    /// Maneuver end time, seconds.
    pub end_t: f64,
    /// Arc position at maneuver start, metres.
    pub start_s: f64,
}

/// Configuration of a simulated trip.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TripConfig {
    /// Simulation step, seconds (default 0.02 = 50 Hz).
    pub dt: f64,
    /// Speed at trip start, m/s.
    pub initial_speed_mps: f64,
    /// Vehicle parameters.
    pub vehicle: VehicleParams,
    /// Driver habits.
    pub driver: DriverProfile,
    /// Speed controller gains.
    pub controller: SpeedController,
    /// Hard cap on simulated duration, seconds.
    pub max_duration_s: f64,
    /// Optional traffic: a lead vehicle the ego must follow (IDM).
    pub traffic: Option<TrafficConfig>,
}

/// Traffic configuration: one scripted lead vehicle plus the IDM
/// parameters the ego driver follows it with.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TrafficConfig {
    /// The lead vehicle's schedule.
    pub lead: LeadVehicle,
    /// IDM car-following parameters.
    pub idm: IdmParams,
    /// Ego vehicle length used for bumper-to-bumper gaps, metres.
    pub vehicle_length_m: f64,
}

impl Default for TrafficConfig {
    fn default() -> Self {
        TrafficConfig {
            lead: LeadVehicle::default(),
            idm: IdmParams::default(),
            vehicle_length_m: 4.5,
        }
    }
}

impl Default for TripConfig {
    fn default() -> Self {
        TripConfig {
            dt: 0.02,
            initial_speed_mps: 10.0,
            vehicle: VehicleParams::default(),
            driver: DriverProfile::default(),
            controller: SpeedController::default(),
            max_duration_s: 3600.0,
            traffic: None,
        }
    }
}

/// A completed trip: uniformly sampled truth plus labelled events.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Trajectory {
    dt: f64,
    samples: Vec<TruthSample>,
    events: Vec<LaneChangeEvent>,
}

impl Trajectory {
    /// Sampling interval, seconds.
    pub fn dt(&self) -> f64 {
        self.dt
    }

    /// The ground-truth samples, uniformly spaced in time.
    pub fn samples(&self) -> &[TruthSample] {
        &self.samples
    }

    /// Labelled lane-change events.
    pub fn events(&self) -> &[LaneChangeEvent] {
        &self.events
    }

    /// Trip duration, seconds.
    pub fn duration_s(&self) -> f64 {
        self.samples.last().map(|s| s.t).unwrap_or(0.0)
    }

    /// Distance covered along the route, metres.
    pub fn distance_m(&self) -> f64 {
        self.samples.last().map(|s| s.s).unwrap_or(0.0)
    }
}

/// Simulates a trip along `route`, deterministic in `seed`.
///
/// The vehicle starts at the route origin in the rightmost lane at
/// `config.initial_speed_mps` and drives until the route ends (or
/// `max_duration_s` elapses).
///
/// # Panics
///
/// Panics if `config.dt <= 0`.
pub fn simulate_trip(route: &Route, config: &TripConfig, seed: u64) -> Trajectory {
    assert!(config.dt > 0.0, "dt must be positive");
    let dt = config.dt;
    let mut rng = StdRng::seed_from_u64(seed);
    let wander_phase = rng.gen_range(0.0..std::f64::consts::TAU);

    let mut long = LongState { speed_mps: config.initial_speed_mps.max(0.0), ..Default::default() };
    let mut force = 0.0;
    let mut s = 0.0;
    let mut t = 0.0;
    let mut alpha = 0.0; // steering angle relative to road
    let mut lateral = 0.0;
    let mut planner = LaneChangePlanner::new(config.driver);
    let mut active: Option<(LaneChangeManeuver, f64)> = None;

    let mut samples = Vec::new();
    let mut events = Vec::new();

    while s < route.length() && t <= config.max_duration_s {
        let theta = route.gradient_at(s);
        let lanes = route.lanes_at(s);
        planner.clamp_to(lanes);

        // Driver: speed target and throttle/brake. With traffic enabled,
        // the IDM car-following law caps the commanded force whenever the
        // lead vehicle constrains the ego.
        let target = config.driver.target_speed(route, s, t, wander_phase);
        force = config.controller.force(&config.vehicle, &long, target, theta, force, dt);
        if let Some(traffic) = &config.traffic {
            let lead_s = traffic.lead.position_at(t);
            let gap = lead_s - s - traffic.vehicle_length_m;
            let idm = IdmFollower::new(IdmParams { desired_speed: target, ..traffic.idm });
            let a_idm =
                idm.acceleration(long.speed_mps, gap, long.speed_mps - traffic.lead.speed_at(t));
            let f_idm = config
                .vehicle
                .required_force(a_idm, long.speed_mps, theta)
                .clamp(-config.vehicle.max_brake_force_n, config.vehicle.max_drive_force_n);
            force = force.min(f_idm);
        }
        long = step(&config.vehicle, &long, force, theta, dt);
        let v = long.speed_mps;

        // Steering: active maneuver or chance to start one.
        let w_steer = if let Some((m, t0)) = active {
            let rel = t - t0;
            if rel >= m.duration_s {
                // Maneuver complete: snap residual angle (integration
                // residue is < 1e-3 rad) and seal the event record.
                events.push(LaneChangeEvent {
                    direction: m.direction,
                    start_t: t0,
                    end_t: t0 + m.duration_s,
                    start_s: events_start_s(&samples, t0),
                });
                alpha = 0.0;
                active = None;
                0.0
            } else {
                m.steering_rate(rel)
            }
        } else {
            // Only start when the multi-lane stretch lasts long enough to
            // finish the maneuver.
            // Nominal maneuver length at the driver's mean lateral accel.
            let nominal_duration = (2.0 * std::f64::consts::PI * config.driver.lane_width_m
                / config.driver.lane_change_lat_accel_mean)
                .sqrt();
            let lookahead = v * nominal_duration;
            let room = route.lanes_at((s + lookahead).min(route.length())) >= 2;
            if room {
                if let Some(m) = planner.maybe_start(&mut rng, t, v * dt, lanes, v) {
                    active = Some((m, t));
                    m.steering_rate(0.0)
                } else {
                    0.0
                }
            } else {
                0.0
            }
        };
        alpha += w_steer * dt;

        // Kinematics: arc progress is the road-direction component.
        let v_long = v * alpha.cos();
        let kappa = route.heading_rate_at(s, 12.0);
        let w_road = kappa * v_long;
        s += v_long * dt;
        lateral += v * alpha.sin() * dt;
        t += dt;

        let s_clamped = s.min(route.length());
        let road_heading = route.heading_at(s_clamped);
        let tangent = Vec2::from_angle(road_heading);
        let left_normal = tangent.rotated(std::f64::consts::FRAC_PI_2);
        samples.push(TruthSample {
            t,
            s: s_clamped,
            position: route.point_at(s_clamped) + left_normal * lateral,
            altitude: route.altitude_at(s_clamped),
            theta: route.gradient_at(s_clamped),
            speed_mps: v,
            accel_mps2: long.accel_mps2,
            v_long_mps: v_long,
            heading: road_heading + alpha,
            yaw_rate: w_road + w_steer,
            steering_angle: alpha,
            steering_rate: w_steer,
            w_road,
            lateral_offset_m: lateral,
            lane: planner.lane(),
            lanes_available: lanes,
        });
    }

    // If a maneuver was still active at route end, record it truncated.
    if let Some((m, t0)) = active {
        events.push(LaneChangeEvent {
            direction: m.direction,
            start_t: t0,
            end_t: t,
            start_s: events_start_s(&samples, t0),
        });
    }

    Trajectory { dt, samples, events }
}

/// Arc position of the sample nearest to time `t0` (for event labelling).
fn events_start_s(samples: &[TruthSample], t0: f64) -> f64 {
    samples.iter().rev().find(|s| s.t <= t0).map(|s| s.s).unwrap_or(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gradest_geo::generate::{red_road, straight_road, two_lane_straight};

    fn no_lane_change_config() -> TripConfig {
        TripConfig {
            driver: DriverProfile { lane_change_rate_per_km: 0.0, ..Default::default() },
            ..Default::default()
        }
    }

    #[test]
    fn trip_covers_route() {
        let route = Route::new(vec![straight_road(1000.0, 2.0)]).unwrap();
        let traj = simulate_trip(&route, &no_lane_change_config(), 1);
        assert!((traj.distance_m() - 1000.0).abs() < 5.0);
        assert!(traj.duration_s() > 1000.0 / 20.0); // can't be faster than 20 m/s here
        assert!(!traj.samples().is_empty());
    }

    #[test]
    fn trip_is_deterministic_in_seed() {
        let route = Route::new(vec![two_lane_straight(2000.0)]).unwrap();
        let cfg = TripConfig::default();
        let a = simulate_trip(&route, &cfg, 9);
        let b = simulate_trip(&route, &cfg, 9);
        assert_eq!(a.samples().len(), b.samples().len());
        assert_eq!(a.events().len(), b.events().len());
        assert_eq!(a.samples().last().unwrap().s, b.samples().last().unwrap().s);
    }

    #[test]
    fn speeds_and_samples_are_physical() {
        let route = Route::new(vec![red_road()]).unwrap();
        let traj = simulate_trip(&route, &TripConfig::default(), 3);
        for w in traj.samples().windows(2) {
            assert!(w[1].t > w[0].t);
            assert!(w[1].s >= w[0].s, "vehicle never reverses");
            assert!(w[1].speed_mps >= 0.0);
            assert!(w[1].speed_mps < 40.0, "urban speeds stay sane");
            assert!(w[1].accel_mps2.abs() < 8.0);
        }
    }

    #[test]
    fn acceleration_is_consistent_with_speed() {
        let route = Route::new(vec![straight_road(800.0, 0.0)]).unwrap();
        let traj = simulate_trip(&route, &no_lane_change_config(), 5);
        let dt = traj.dt();
        // a(t) ≈ (v(t+dt) − v(t))/dt within integration error.
        for w in traj.samples().windows(2).take(1000) {
            let numeric = (w[1].speed_mps - w[0].speed_mps) / dt;
            assert!(
                (numeric - w[1].accel_mps2).abs() < 0.3,
                "numeric {numeric} vs recorded {}",
                w[1].accel_mps2
            );
        }
    }

    #[test]
    fn lane_changes_happen_on_two_lane_roads() {
        let route = Route::new(vec![two_lane_straight(8000.0)]).unwrap();
        let cfg = TripConfig {
            driver: DriverProfile {
                lane_change_rate_per_km: 2.0, // force plenty of events
                ..Default::default()
            },
            ..Default::default()
        };
        let traj = simulate_trip(&route, &cfg, 7);
        assert!(
            traj.events().len() >= 4,
            "expected several lane changes, got {}",
            traj.events().len()
        );
        // Events alternate L/R starting from the right lane.
        assert_eq!(traj.events()[0].direction, LaneChangeDirection::Left);
        assert_eq!(traj.events()[1].direction, LaneChangeDirection::Right);
    }

    #[test]
    fn no_lane_changes_on_single_lane_road() {
        let route = Route::new(vec![straight_road(5000.0, 1.0)]).unwrap();
        let cfg = TripConfig {
            driver: DriverProfile { lane_change_rate_per_km: 10.0, ..Default::default() },
            ..Default::default()
        };
        let traj = simulate_trip(&route, &cfg, 11);
        assert!(traj.events().is_empty());
        assert!(traj.samples().iter().all(|s| s.steering_rate == 0.0));
    }

    #[test]
    fn lateral_offset_moves_one_lane_width() {
        let route = Route::new(vec![two_lane_straight(6000.0)]).unwrap();
        let cfg = TripConfig {
            driver: DriverProfile { lane_change_rate_per_km: 0.5, ..Default::default() },
            ..Default::default()
        };
        let traj = simulate_trip(&route, &cfg, 13);
        assert!(!traj.events().is_empty());
        let ev = traj.events()[0];
        // Lateral offset just after the first (left) change ≈ +3.65 m.
        let after = traj
            .samples()
            .iter()
            .find(|s| s.t >= ev.end_t + 0.1)
            .expect("samples continue after event");
        assert!((after.lateral_offset_m - 3.65).abs() < 0.4, "offset {}", after.lateral_offset_m);
    }

    #[test]
    fn v_long_drops_during_maneuver() {
        let route = Route::new(vec![two_lane_straight(6000.0)]).unwrap();
        let cfg = TripConfig {
            driver: DriverProfile { lane_change_rate_per_km: 0.5, ..Default::default() },
            ..Default::default()
        };
        let traj = simulate_trip(&route, &cfg, 13);
        let ev = traj.events()[0];
        let mid_t = 0.5 * (ev.start_t + ev.end_t);
        let mid = traj
            .samples()
            .iter()
            .min_by(|a, b| (a.t - mid_t).abs().partial_cmp(&(b.t - mid_t).abs()).unwrap())
            .unwrap();
        assert!(mid.v_long_mps < mid.speed_mps, "v_long strictly smaller mid-maneuver");
        assert!(mid.steering_angle.abs() > 0.02);
    }

    #[test]
    fn theta_matches_route_truth() {
        let route = Route::new(vec![red_road()]).unwrap();
        let traj = simulate_trip(&route, &no_lane_change_config(), 17);
        for s in traj.samples().iter().step_by(500) {
            assert!((s.theta - route.gradient_at(s.s)).abs() < 1e-12);
        }
    }

    #[test]
    fn traffic_slows_the_trip_and_adds_accel_activity() {
        use crate::trip::TrafficConfig;
        let route = Route::new(vec![straight_road(3000.0, 1.0)]).unwrap();
        let free = simulate_trip(&route, &no_lane_change_config(), 23);
        let cfg = TripConfig { traffic: Some(TrafficConfig::default()), ..no_lane_change_config() };
        let jammed = simulate_trip(&route, &cfg, 23);
        assert!(
            jammed.duration_s() > 1.15 * free.duration_s(),
            "traffic should slow the trip: {} vs {}",
            jammed.duration_s(),
            free.duration_s()
        );
        // Stop-and-go produces materially more acceleration variance.
        let accel_var = |t: &Trajectory| {
            let a: Vec<f64> = t.samples().iter().map(|s| s.accel_mps2).collect();
            let m = a.iter().sum::<f64>() / a.len() as f64;
            a.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / a.len() as f64
        };
        assert!(accel_var(&jammed) > 1.5 * accel_var(&free));
        // And the ego never hits the leader.
        let traffic = TrafficConfig::default();
        for smp in jammed.samples() {
            let gap = traffic.lead.position_at(smp.t) - smp.s - traffic.vehicle_length_m;
            assert!(gap > 0.0, "collision at t = {}", smp.t);
        }
    }

    #[test]
    fn yaw_rate_decomposition_holds() {
        let route = Route::new(vec![two_lane_straight(6000.0)]).unwrap();
        let cfg = TripConfig {
            driver: DriverProfile { lane_change_rate_per_km: 0.5, ..Default::default() },
            ..Default::default()
        };
        let traj = simulate_trip(&route, &cfg, 13);
        for s in traj.samples() {
            assert!((s.yaw_rate - (s.w_road + s.steering_rate)).abs() < 1e-12);
        }
    }
}
