//! Driver behaviour: target-speed selection and lane-change planning.
//!
//! The driver tracks the speed limit (with human wander), slows for
//! curves, and — on multi-lane stretches — initiates lane changes at the
//! paper's cited naturalistic rate of ~0.36 per mile (≈0.224 per km).

use crate::maneuver::{LaneChangeDirection, LaneChangeManeuver};
use gradest_geo::Route;
use rand::rngs::StdRng;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// Static description of a driver's habits.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DriverProfile {
    /// Lane changes per kilometre on eligible (multi-lane) road.
    pub lane_change_rate_per_km: f64,
    /// Lane width the maneuver traverses, metres (paper: 3.65 m).
    pub lane_width_m: f64,
    /// Fraction of the speed limit the driver targets (e.g. 1.05 = +5 %).
    pub speed_compliance: f64,
    /// Amplitude of sinusoidal speed wander, m/s.
    pub wander_amp_mps: f64,
    /// Period of speed wander, seconds.
    pub wander_period_s: f64,
    /// Maximum comfortable lateral acceleration in curves, m/s².
    pub max_lateral_accel: f64,
    /// Mean peak lateral acceleration the driver accepts during a lane
    /// change, m/s². Fixing this (rather than the duration) matches human
    /// behaviour: the maneuver takes `D = √(2π·W/a_lat)` seconds
    /// regardless of speed, and the steering-rate amplitude is
    /// `a_lat/v` — which is why the paper's Table I minima come from the
    /// highest test speeds.
    pub lane_change_lat_accel_mean: f64,
    /// Std-dev of the peak lateral acceleration, m/s².
    pub lane_change_lat_accel_sd: f64,
}

impl Default for DriverProfile {
    fn default() -> Self {
        DriverProfile {
            lane_change_rate_per_km: 0.224, // 0.36 per mile
            lane_width_m: 3.65,
            speed_compliance: 1.0,
            wander_amp_mps: 1.2,
            wander_period_s: 45.0,
            max_lateral_accel: 2.0,
            lane_change_lat_accel_mean: 1.8,
            lane_change_lat_accel_sd: 0.25,
        }
    }
}

impl DriverProfile {
    /// Target speed at route position `s` and time `t`: speed limit ×
    /// compliance, capped by curve comfort, plus sinusoidal wander (phase
    /// from `wander_phase`), floored at 2 m/s.
    pub fn target_speed(&self, route: &Route, s: f64, t: f64, wander_phase: f64) -> f64 {
        let base = route.speed_limit_at(s) * self.speed_compliance;
        let kappa = route.heading_rate_at(s, 15.0).abs();
        let curve_cap =
            if kappa > 1e-6 { (self.max_lateral_accel / kappa).sqrt() } else { f64::INFINITY };
        let wander = self.wander_amp_mps
            * (2.0 * std::f64::consts::PI * t / self.wander_period_s + wander_phase).sin();
        (base.min(curve_cap) + wander).max(2.0)
    }

    /// Samples a lane-change duration: draws a peak lateral acceleration,
    /// converts via `D = √(2π·W/a_lat)`, and clamps to `[2.5, 7.0]` s.
    fn sample_duration(&self, rng: &mut StdRng) -> f64 {
        // Box–Muller from two uniforms; clamping keeps it humanly plausible.
        let u1: f64 = rng.gen_range(1e-9..1.0);
        let u2: f64 = rng.gen_range(0.0..1.0);
        let z = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
        let a_lat =
            (self.lane_change_lat_accel_mean + z * self.lane_change_lat_accel_sd).clamp(1.0, 2.8);
        (2.0 * std::f64::consts::PI * self.lane_width_m / a_lat).sqrt().clamp(2.5, 7.0)
    }
}

/// Stochastic lane-change planner. Tracks the current lane (0 = rightmost)
/// and decides, per simulation step, whether to start a maneuver.
#[derive(Debug, Clone)]
pub struct LaneChangePlanner {
    profile: DriverProfile,
    lane: u32,
    /// Cool-down: no new maneuver within this many seconds of the last.
    cooldown_until_s: f64,
}

impl LaneChangePlanner {
    /// Creates a planner starting in the rightmost lane.
    pub fn new(profile: DriverProfile) -> Self {
        LaneChangePlanner { profile, lane: 0, cooldown_until_s: 0.0 }
    }

    /// Current lane index (0 = rightmost).
    pub fn lane(&self) -> u32 {
        self.lane
    }

    /// Decides whether to begin a lane change during a step that advances
    /// `ds` metres at time `t` with `lanes` available and current speed
    /// `v`. On a hit, returns the maneuver and updates the target lane.
    pub fn maybe_start(
        &mut self,
        rng: &mut StdRng,
        t: f64,
        ds: f64,
        lanes: u32,
        v: f64,
    ) -> Option<LaneChangeManeuver> {
        if lanes < 2 || t < self.cooldown_until_s || v < 3.0 {
            return None;
        }
        // Clamp the lane index if the road narrowed under us.
        if self.lane >= lanes {
            self.lane = lanes - 1;
        }
        let p = self.profile.lane_change_rate_per_km * ds / 1000.0;
        if rng.gen_range(0.0..1.0) >= p {
            return None;
        }
        let direction = if self.lane == 0 {
            LaneChangeDirection::Left
        } else if self.lane == lanes - 1 {
            LaneChangeDirection::Right
        } else if rng.gen_range(0.0..1.0) < 0.5 {
            LaneChangeDirection::Left
        } else {
            LaneChangeDirection::Right
        };
        let duration = self.profile.sample_duration(rng);
        let m =
            LaneChangeManeuver::for_displacement(direction, self.profile.lane_width_m, v, duration);
        match direction {
            LaneChangeDirection::Left => self.lane += 1,
            LaneChangeDirection::Right => self.lane -= 1,
        }
        self.cooldown_until_s = t + duration + 4.0;
        Some(m)
    }

    /// Forces the lane index back into range after a road narrows
    /// (e.g. a two-lane section ends while in the left lane).
    pub fn clamp_to(&mut self, lanes: u32) {
        if self.lane >= lanes {
            self.lane = lanes.saturating_sub(1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gradest_geo::generate::{red_road, s_curve_road};
    use rand::SeedableRng;

    #[test]
    fn target_speed_respects_limit_and_wander() {
        let route = Route::new(vec![red_road()]).unwrap();
        let p = DriverProfile::default();
        let limit = route.speed_limit_at(100.0);
        for t in [0.0, 10.0, 22.5, 40.0] {
            let v = p.target_speed(&route, 100.0, t, 0.0);
            assert!(v >= 2.0);
            assert!(v <= limit + p.wander_amp_mps + 1e-9);
        }
    }

    #[test]
    fn curves_cap_speed() {
        let route = Route::new(vec![s_curve_road(60.0, 45.0)]).unwrap();
        let p = DriverProfile { wander_amp_mps: 0.0, ..Default::default() };
        // Mid-curve position.
        let s_mid = 150.0 + 60.0 * 45.0f64.to_radians() / 2.0;
        let v_curve = p.target_speed(&route, s_mid, 0.0, 0.0);
        let v_straight = p.target_speed(&route, 10.0, 0.0, 0.0);
        assert!(v_curve < v_straight, "{v_curve} !< {v_straight}");
        // sqrt(a_lat/κ) = sqrt(2·60) ≈ 11.0
        assert!((v_curve - (2.0f64 * 60.0).sqrt()).abs() < 1.0, "{v_curve}");
    }

    #[test]
    fn planner_needs_multilane_and_speed() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut planner = LaneChangePlanner::new(DriverProfile {
            lane_change_rate_per_km: 1e9, // always trigger when eligible
            ..Default::default()
        });
        assert!(planner.maybe_start(&mut rng, 0.0, 1.0, 1, 15.0).is_none());
        assert!(planner.maybe_start(&mut rng, 0.0, 1.0, 2, 1.0).is_none());
        let m = planner.maybe_start(&mut rng, 0.0, 1.0, 2, 15.0);
        assert!(m.is_some());
        assert_eq!(m.unwrap().direction, LaneChangeDirection::Left);
        assert_eq!(planner.lane(), 1);
    }

    #[test]
    fn planner_alternates_directions_at_lane_edges() {
        let mut rng = StdRng::seed_from_u64(2);
        let profile = DriverProfile { lane_change_rate_per_km: 1e9, ..Default::default() };
        let mut planner = LaneChangePlanner::new(profile);
        let m1 = planner.maybe_start(&mut rng, 0.0, 1.0, 2, 15.0).unwrap();
        assert_eq!(m1.direction, LaneChangeDirection::Left);
        // Cooldown blocks immediate re-trigger.
        assert!(planner.maybe_start(&mut rng, 1.0, 1.0, 2, 15.0).is_none());
        // After cooldown, from the left lane the only move is Right.
        let t2 = m1.duration_s + 10.0;
        let m2 = planner.maybe_start(&mut rng, t2, 1.0, 2, 15.0).unwrap();
        assert_eq!(m2.direction, LaneChangeDirection::Right);
        assert_eq!(planner.lane(), 0);
    }

    #[test]
    fn planner_rate_is_approximately_poisson() {
        let mut rng = StdRng::seed_from_u64(3);
        let profile = DriverProfile::default(); // 0.224 / km
        let mut planner = LaneChangePlanner::new(profile);
        let mut count = 0;
        let mut t = 0.0;
        let ds = 0.3; // metres per step
        let total_km = 400.0;
        let steps = (total_km * 1000.0 / ds) as usize;
        for _ in 0..steps {
            if let Some(m) = planner.maybe_start(&mut rng, t, ds, 2, 15.0) {
                count += 1;
                t += m.duration_s; // skip through the maneuver
            }
            t += ds / 15.0;
        }
        let rate = count as f64 / total_km;
        assert!((rate - 0.224).abs() < 0.05, "observed {rate} changes/km over {count} events");
    }

    #[test]
    fn duration_sampling_is_clamped() {
        let mut rng = StdRng::seed_from_u64(4);
        let p = DriverProfile::default();
        for _ in 0..500 {
            let d = p.sample_duration(&mut rng);
            assert!((2.5..=7.0).contains(&d), "duration {d}");
        }
    }

    #[test]
    fn clamp_to_narrowed_road() {
        let mut planner = LaneChangePlanner::new(DriverProfile::default());
        planner.lane = 1;
        planner.clamp_to(1);
        assert_eq!(planner.lane(), 0);
    }
}
