//! The smartphone coordinate alignment system (paper Section III-A).
//!
//! The phone frame `X_B Y_B Z_B` is aligned with the road frame
//! `X_E Y_E Z_E`: face-up, `Y_B` along the driving direction. The
//! angular-velocity sensor then measures the vehicle direction change rate
//! `ŵ_vehicle`, and the **steering rate** — the signal the lane-change
//! detector needs — is
//!
//! ```text
//! w_steer = ŵ_vehicle − w_road
//! ```
//!
//! where `w_road` is the road-direction change rate obtained from road
//! geography (map geometry at the map-matched GPS position). When no map
//! is available (or GPS is out), `w_road` is unknown and road curvature
//! leaks into the steering profile — which is exactly why the paper needs
//! the Figure 5 displacement test to tell S-curves from lane changes.

use crate::samples::{GpsSample, ImuSample};
use gradest_geo::index::{project_point_segment, NetworkIndex, QueryScratch, SegmentHit};
use gradest_geo::network::RoadNetwork;
use gradest_geo::road::Road;
use gradest_geo::Route;
use gradest_math::Vec2;
use serde::{Deserialize, Serialize};

/// Residual misalignment between the phone and the vehicle after the
/// calibration of \[14\] (Section III-A); radians.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PhoneMount {
    /// Pitch residual (rotation about `X_B`): leaks `g·sin(ε)` into the
    /// longitudinal accelerometer.
    pub pitch_error_rad: f64,
    /// Roll residual (rotation about `Y_B`): leaks gravity into the
    /// lateral axis.
    pub roll_error_rad: f64,
}

impl Default for PhoneMount {
    fn default() -> Self {
        // ~0.1° residuals — what the compensation method of [14] leaves.
        PhoneMount { pitch_error_rad: 0.0017, roll_error_rad: 0.0026 }
    }
}

/// Projects GPS fixes onto a known route (map matching) to recover arc
/// position and road-direction change rate.
#[derive(Debug, Clone)]
pub struct MapMatcher<'a> {
    route: &'a Route,
    last_s: f64,
}

/// The best candidate of an exact-projection window walk.
#[derive(Debug, Clone, Copy)]
struct BestMatch {
    /// Squared distance from the query to the candidate point.
    d2: f64,
    /// Route arc length of the candidate.
    s: f64,
    /// Road index the candidate lies on.
    road: usize,
    /// Arc length on that road.
    sr: f64,
}

impl<'a> MapMatcher<'a> {
    /// Creates a matcher starting at the route origin.
    pub fn new(route: &'a Route) -> Self {
        MapMatcher { route, last_s: 0.0 }
    }

    /// Creates a matcher whose search window is already centred at arc
    /// position `s` (clamped to the route), as if the previous fix had
    /// matched there. Lets a caller that persists matcher state across
    /// calls (the online estimator) restore continuity without paying a
    /// throwaway `match_s`.
    pub fn resume(route: &'a Route, s: f64) -> Self {
        MapMatcher { route, last_s: s.clamp(0.0, route.length()) }
    }

    /// Matches a planar position to an arc position on the route.
    ///
    /// Searches a forward window around the previous match (vehicles drive
    /// forward; GPS arrives at ≥1 Hz) using exact closed-form
    /// point-to-segment projection over the centerline segments in the
    /// window — no sampling grid. Agrees with the 5 m/1 m sampled scan it
    /// replaced to within the scan's 1 m quantisation (pinned by
    /// `exact_projection_agrees_with_sampled_scan`).
    pub fn match_s(&mut self, position: Vec2) -> f64 {
        self.match_located(position).0
    }

    /// [`MapMatcher::match_s`] that also reports which road of the route
    /// the match landed on: `(route arc s, road index, arc on that road)`,
    /// following the [`Route::locate`] convention (a boundary hit belongs
    /// to the later road). The caller can then query road attributes
    /// without `locate`'s repeat binary search.
    pub fn match_located(&mut self, position: Vec2) -> (f64, usize, f64) {
        let len = self.route.length();
        let lo = (self.last_s - 30.0).max(0.0);
        let hi = (self.last_s + 120.0).min(len);
        let (start, _) = self.route.locate(lo);
        let mut best = BestMatch {
            d2: f64::INFINITY,
            s: lo,
            road: start,
            sr: lo - self.route.offsets()[start],
        };
        self.project_window(position, lo, hi, &mut best);
        // The sampled scan this replaced refined in a ±5 m window around
        // its coarse best, which can spill up to 5 m past the main
        // window's edges; keep that reach so the contract (and the end-
        // of-route behaviour) is unchanged.
        let lo2 = (best.s - 5.0).max(0.0);
        let hi2 = (best.s + 5.0).min(len);
        if lo2 < lo || hi2 > hi {
            self.project_window(position, lo2, hi2, &mut best);
        }
        self.last_s = best.s;
        let BestMatch { mut road, mut sr, .. } = best;
        // Route::locate assigns an exact boundary hit to the second road.
        let roads = self.route.roads();
        if road + 1 < roads.len() && sr >= roads[road].length() {
            road += 1;
            sr = 0.0;
        }
        (best.s, road, sr)
    }

    /// Exact constrained projection of `position` onto the route span
    /// `[lo, hi]`: walks the roads and centerline segments overlapping
    /// the span (one `locate` binary search to seed the walk), projects
    /// onto each segment in closed form, clamps into the span, and keeps
    /// the closest candidate in `best`.
    fn project_window(&self, position: Vec2, lo: f64, hi: f64, best: &mut BestMatch) {
        let roads = self.route.roads();
        let offsets = self.route.offsets();
        let (start, _) = self.route.locate(lo);
        let mut i = start;
        while i < roads.len() && offsets[i] < hi {
            let base = offsets[i];
            let road = &roads[i];
            let rlo = (lo - base).max(0.0);
            let rhi = (hi - base).min(road.length());
            if rhi >= rlo {
                let line = road.centerline();
                let pts = line.points();
                let cum = line.cumulative_lengths();
                // First segment whose span reaches rlo.
                let mut j = cum.partition_point(|&c| c < rlo);
                j = j.saturating_sub(1);
                while j + 1 < pts.len() && cum[j] <= rhi {
                    let a = pts[j];
                    let b = pts[j + 1]; // lint:allow(hot-index) j + 1 < pts.len() by the loop bound
                    let (t, _) = project_point_segment(position, a, b);
                    let seg_len = cum[j + 1] - cum[j]; // lint:allow(hot-index) cum.len() == pts.len()
                                                       // Clamp the projection into the window (constrained
                                                       // minimisation: the best point may sit on the window
                                                       // edge) and score the clamped point.
                    let s_seg = (cum[j] + t * seg_len).clamp(rlo, rhi);
                    let u = if seg_len > 0.0 {
                        ((s_seg - cum[j]) / seg_len).clamp(0.0, 1.0)
                    } else {
                        0.0
                    };
                    let p = a.lerp(b, u);
                    let d2 = (p - position).norm_squared();
                    if d2 < best.d2 {
                        *best = BestMatch { d2, s: base + s_seg, road: i, sr: s_seg };
                    }
                    j += 1;
                }
            }
            i += 1;
        }
    }
}

/// Result of free-space map matching one trip against a road network:
/// the matched edge sequence and the recovered drivable [`Route`].
#[derive(Debug, Clone)]
pub struct TripMatch {
    /// Distinct network edge indices in visit order.
    pub edges: Vec<usize>,
    /// The recovered route (Dijkstra-stitched through the matched
    /// edges), or `None` when no valid fix matched or the matched edges
    /// cannot be connected.
    pub route: Option<Route>,
    /// Mean snap distance of the matched fixes, metres.
    pub mean_snap_m: f64,
    /// Number of valid fixes that produced a match.
    pub matched_fixes: usize,
}

/// Free-space map matcher: snaps GPS fixes to the nearest edge of a
/// whole [`RoadNetwork`] through its [`NetworkIndex`] (no known route
/// required) and reconstructs a drivable [`Route`] for the trip.
///
/// Per fix this is one exact nearest-segment query (allocation-free on
/// the warm scratch the matcher owns); per trip the matched edge
/// sequence is stitched with Dijkstra legs between the shared nodes of
/// consecutive matched edges.
#[derive(Debug)]
pub struct NetworkMatcher<'a> {
    net: &'a RoadNetwork,
    index: &'a NetworkIndex,
    scratch: QueryScratch,
}

impl<'a> NetworkMatcher<'a> {
    /// Creates a matcher over `net` and its prebuilt index.
    pub fn new(net: &'a RoadNetwork, index: &'a NetworkIndex) -> Self {
        NetworkMatcher { net, index, scratch: QueryScratch::new() }
    }

    /// Matches a whole trip: snaps every valid fix, records the edge
    /// visit sequence, and recovers a drivable route through it.
    pub fn match_trip(&mut self, gps: &[GpsSample]) -> TripMatch {
        let mut edges: Vec<usize> = Vec::new();
        let mut first_hit: Option<SegmentHit> = None;
        let mut last_hit: Option<SegmentHit> = None;
        let mut snap_sum = 0.0;
        let mut matched = 0usize;
        for fix in gps.iter().filter(|f| f.valid) {
            let Some(hit) = self.index.nearest_s_on_network(fix.position, &mut self.scratch) else {
                continue;
            };
            snap_sum += hit.dist_m;
            matched += 1;
            if edges.last() != Some(&hit.edge) {
                edges.push(hit.edge);
            }
            if first_hit.is_none() {
                first_hit = Some(hit);
            }
            last_hit = Some(hit);
        }
        let mean_snap_m = if matched > 0 { snap_sum / matched as f64 } else { 0.0 };
        let route = self.recover_route(&edges, first_hit, last_hit);
        TripMatch { edges, route, mean_snap_m, matched_fixes: matched }
    }

    /// Stitches the matched edge sequence into a drivable route: anchor
    /// nodes at the trip ends (the endpoint of the first/last matched
    /// edge nearer the fix), via-nodes wherever consecutive matched
    /// edges share one, Dijkstra legs in between.
    fn recover_route(
        &self,
        edges: &[usize],
        first: Option<SegmentHit>,
        last: Option<SegmentHit>,
    ) -> Option<Route> {
        let (first, last) = (first?, last?);
        let net_edges = self.net.edges();
        let e0 = net_edges.get(first.edge)?;
        let ek = net_edges.get(last.edge)?;
        let n_start = if first.s < e0.road.length() * 0.5 { e0.a } else { e0.b };
        let n_end = if last.s < ek.road.length() * 0.5 { ek.a } else { ek.b };
        let mut waypoints = vec![n_start];
        for w in edges.windows(2) {
            let (ea, eb) = (net_edges.get(w[0])?, net_edges.get(w[1])?);
            let shared = if ea.a == eb.a || ea.a == eb.b {
                Some(ea.a)
            } else if ea.b == eb.a || ea.b == eb.b {
                Some(ea.b)
            } else {
                None
            };
            if let Some(nid) = shared {
                if waypoints.last() != Some(&nid) {
                    waypoints.push(nid);
                }
            }
        }
        if waypoints.last() != Some(&n_end) {
            waypoints.push(n_end);
        }
        let mut roads: Vec<Road> = Vec::new();
        for w in waypoints.windows(2) {
            let hops = self.net.shortest_path(w[0], w[1], |r| r.length())?;
            for (ei, forward) in hops {
                let r = &net_edges.get(ei)?.road;
                roads.push(if forward { r.clone() } else { r.reversed() });
            }
        }
        if roads.is_empty() {
            return None;
        }
        Route::new(roads).ok()
    }
}

/// Arc window of the map heading rate behind `w_road`, metres, for the
/// batch steering profile and the online estimator alike.
pub const HEADING_RATE_WINDOW_M: f64 = 12.0;

/// A steering-rate profile at IMU rate: `(t, w_steer)` pairs.
pub type SteeringProfile = Vec<(f64, f64)>;

/// Reusable buffers for [`steering_rate_profile_into`]: per-fix `w_road`
/// staging that survives across trips on a warm estimator, and the arc
/// each fix matched to.
#[derive(Debug, Clone, Default)]
pub struct WRoadScratch {
    fix_times: Vec<f64>,
    fix_wroad: Vec<f64>,
    fix_s: Vec<f64>,
}

impl WRoadScratch {
    /// The route arc position of every GPS fix of the last
    /// [`steering_rate_profile_into`] call, in fix order: the map match
    /// of a valid fix, NaN for an invalid fix or one whose time is not
    /// finite. Empty when that call had no map.
    pub fn matched_s(&self) -> &[f64] {
        &self.fix_s
    }
}

/// Computes the steering rate `w_steer = ŵ_vehicle − w_road` per IMU
/// sample into `out_w`, reading timestamps and yaw rates from columnar
/// slices (see [`crate::columnar::ImuColumns`]).
///
/// Identical arithmetic to [`steering_rate_profile`], but writes into the
/// caller's buffer and stages per-fix state in `scratch`, so a warm caller
/// pays no allocation. `out_w[i]` pairs with `t[i]`. With a map, each
/// valid fix is matched once, and its arc is kept for the caller
/// ([`WRoadScratch::matched_s`]).
///
/// # Panics
///
/// Panics if `t` and `gyro_z` differ in length.
pub fn steering_rate_profile_into(
    t: &[f64],
    gyro_z: &[f64],
    gps: &[GpsSample],
    route: Option<&Route>,
    scratch: &mut WRoadScratch,
    out_w: &mut Vec<f64>,
) {
    assert_eq!(t.len(), gyro_z.len(), "column length mismatch");
    // Precompute w_road at each fix time.
    let WRoadScratch { fix_times, fix_wroad, fix_s } = scratch;
    fix_times.clear();
    fix_wroad.clear();
    fix_s.clear();
    if let Some(route) = route {
        let mut matcher = MapMatcher::new(route);
        let mut last_valid_t = f64::NEG_INFINITY;
        let mut last_w = 0.0;
        for fix in gps {
            // A fix whose time is not finite has no place on the IMU
            // clock: it counts as absent, valid or not (one NaN time
            // would stop the interior cursor scan below).
            if !fix.t.is_finite() {
                fix_s.push(f64::NAN);
                continue;
            }
            let w = if fix.valid {
                // w_road is the matched curvature × speed; the match
                // resolves the road, so the curvature lookup skips
                // `Route::locate`'s second binary search.
                let (s, road, sr) = matcher.match_located(fix.position);
                fix_s.push(s);
                last_valid_t = fix.t;
                last_w =
                    route.heading_rate_located(road, sr, HEADING_RATE_WINDOW_M) * fix.speed_mps;
                last_w
            } else {
                fix_s.push(f64::NAN);
                if fix.t - last_valid_t <= 3.0 {
                    last_w
                } else {
                    0.0
                }
            };
            fix_times.push(fix.t);
            fix_wroad.push(w);
        }
    }
    out_w.clear();
    out_w.reserve(t.len());
    // Hoist the end-clamp values so the per-sample loop needs no
    // `last()` unwrapping: `fix_times`/`fix_wroad` grow in lockstep
    // above, so a nonempty `fix_times` guarantees both ends exist.
    let ends = match (fix_times.last(), fix_wroad.last()) {
        (Some(&lt), Some(&lw)) => Some((fix_times[0], fix_wroad[0], lt, lw)),
        _ => None,
    };
    // Segment sweep over the non-decreasing IMU timestamps: instead of
    // re-deciding clamp-vs-interpolate and re-loading the bracketing fix
    // per sample, emit each region in its own tight loop with the
    // segment endpoints hoisted. Per sample the arithmetic is exactly
    // the cursor-scan form this replaces (same clamp, same per-sample
    // division), so the output is bit-identical — asserted by
    // `segment_sweep_matches_reference`.
    let n = t.len();
    let mut idx = 0usize;
    let Some((first_t, first_w, last_t, last_w)) = ends else {
        // No fixes (or no map): w_road is 0 everywhere.
        out_w.extend(gyro_z.iter().map(|&gz| gz - 0.0));
        return;
    };
    // Head clamp: everything at or before the first fix.
    while idx < n && t[idx] <= first_t {
        out_w.push(gyro_z[idx] - first_w);
        idx += 1;
    }
    // Interior: linearly interpolate w_road between fixes; a zero-order
    // hold would inject sign-flip transients at curve transitions that
    // look like steering bumps.
    let mut cursor = 0usize;
    while idx < n && t[idx] < last_t {
        // `cursor + 1` stays in bounds: the while condition checks it,
        // and `t[idx] < last_t` means the scan stops before the final
        // fix.
        // lint:allow(hot-index) left operand of && proves cursor + 1 < len
        while cursor + 1 < fix_times.len() && fix_times[cursor + 1] <= t[idx] {
            cursor += 1;
        }
        let t0 = fix_times[cursor];
        let t1 = fix_times[cursor + 1]; // lint:allow(hot-index) the scan above leaves cursor + 1 <= len - 1
        let w0 = fix_wroad[cursor];
        let w1 = fix_wroad[cursor + 1]; // lint:allow(hot-index) fix_wroad grows in lockstep with fix_times
                                        // After the scan, t1 > t[idx] (the final fix time is last_t),
                                        // so this inner loop always advances — no livelock.
        while idx < n && t[idx] < last_t && t[idx] < t1 {
            // Not `Interpolant`: `w0·(1−u) + w1·u` rounds differently
            // from its `w0 + (w1 − w0)·u`; sharing it would move every
            // steering profile.
            let u = ((t[idx] - t0) / (t1 - t0)).clamp(0.0, 1.0);
            out_w.push(gyro_z[idx] - (w0 * (1.0 - u) + w1 * u));
            idx += 1;
        }
    }
    // Tail clamp: everything at or after the last fix.
    while idx < n {
        out_w.push(gyro_z[idx] - last_w);
        idx += 1;
    }
}

/// Computes the steering-rate profile `w_steer = ŵ_vehicle − w_road`.
///
/// `route` is the map used to derive `w_road`: between valid GPS fixes the
/// last map-matched `w_road` is held; while GPS is invalid it is held for
/// up to 3 s and then decays to 0 (the road geometry is unknown). Pass
/// `None` to model an unmapped road — `w_road` is then 0 everywhere and
/// road curvature appears in the steering profile (the paper's S-curve
/// confusion case).
///
/// Allocating convenience wrapper over [`steering_rate_profile_into`].
pub fn steering_rate_profile(
    imu: &[ImuSample],
    gps: &[GpsSample],
    route: Option<&Route>,
) -> SteeringProfile {
    let t: Vec<f64> = imu.iter().map(|s| s.t).collect();
    let gyro_z: Vec<f64> = imu.iter().map(|s| s.gyro_z).collect();
    let mut scratch = WRoadScratch::default();
    let mut w = Vec::new();
    steering_rate_profile_into(&t, &gyro_z, gps, route, &mut scratch, &mut w);
    t.into_iter().zip(w).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::suite::{SensorConfig, SensorSuite};
    use gradest_geo::generate::{s_curve_road, straight_road, two_lane_straight};
    use gradest_sim::driver::DriverProfile;
    use gradest_sim::trip::{simulate_trip, TripConfig};

    fn quiet_cfg() -> TripConfig {
        TripConfig {
            driver: DriverProfile { lane_change_rate_per_km: 0.0, ..Default::default() },
            ..Default::default()
        }
    }

    #[test]
    fn map_matcher_tracks_progress() {
        let route = Route::new(vec![straight_road(2000.0, 1.0)]).unwrap();
        let mut m = MapMatcher::new(&route);
        for s_true in [0.0, 25.0, 60.0, 110.0, 180.0] {
            let pos = route.point_at(s_true) + Vec2::new(2.0, -1.5); // GPS-ish error
            let s_hat = m.match_s(pos);
            assert!((s_hat - s_true).abs() < 5.0, "{s_hat} vs {s_true}");
        }
    }

    #[test]
    fn map_matcher_handles_curves() {
        let route = Route::new(vec![s_curve_road(100.0, 60.0)]).unwrap();
        let mut m = MapMatcher::new(&route);
        let mut s_true = 0.0;
        while s_true < route.length() {
            let s_hat = m.match_s(route.point_at(s_true));
            assert!((s_hat - s_true).abs() < 3.0, "{s_hat} vs {s_true}");
            s_true += 20.0;
        }
    }

    #[test]
    fn steering_profile_is_flat_on_straight_road() {
        let route = Route::new(vec![straight_road(1500.0, 2.0)]).unwrap();
        let traj = simulate_trip(&route, &quiet_cfg(), 31);
        let log = SensorSuite::new(SensorConfig::default()).run(&traj, 31);
        let prof = steering_rate_profile(&log.imu, &log.gps, Some(&route));
        let max = prof.iter().map(|(_, w)| w.abs()).fold(0.0f64, f64::max);
        // Only gyro noise remains: well below the paper's δ = 0.1167.
        assert!(max < 0.08, "max |w_steer| = {max}");
    }

    #[test]
    fn steering_profile_cancels_road_curvature_with_map() {
        let route = Route::new(vec![s_curve_road(150.0, 50.0)]).unwrap();
        let traj = simulate_trip(&route, &quiet_cfg(), 32);
        let log = SensorSuite::new(SensorConfig::default()).run(&traj, 32);
        let with_map = steering_rate_profile(&log.imu, &log.gps, Some(&route));
        let without_map = steering_rate_profile(&log.imu, &log.gps, None);
        let rms = |p: &SteeringProfile| {
            (p.iter().map(|(_, w)| w * w).sum::<f64>() / p.len() as f64).sqrt()
        };
        // Without the map, the S-curve yaw shows up at full strength; with
        // it, most is cancelled (narrow residual transients remain at the
        // curve transitions because w_road updates at GPS rate).
        assert!(
            rms(&without_map) > 1.8 * rms(&with_map),
            "with={} without={}",
            rms(&with_map),
            rms(&without_map)
        );
    }

    #[test]
    fn lane_change_bumps_survive_map_subtraction() {
        let route = Route::new(vec![two_lane_straight(4000.0)]).unwrap();
        let cfg = TripConfig {
            driver: DriverProfile { lane_change_rate_per_km: 1.0, ..Default::default() },
            ..Default::default()
        };
        let traj = simulate_trip(&route, &cfg, 33);
        assert!(!traj.events().is_empty());
        let log = SensorSuite::new(SensorConfig::default()).run(&traj, 33);
        let prof = steering_rate_profile(&log.imu, &log.gps, Some(&route));
        let ev = traj.events()[0];
        // Peak |w_steer| inside the first maneuver approximates its
        // commanded amplitude.
        let peak_in_event = prof
            .iter()
            .filter(|(t, _)| *t >= ev.start_t && *t <= ev.end_t)
            .map(|(_, w)| w.abs())
            .fold(0.0f64, f64::max);
        assert!(peak_in_event > 0.05, "peak {peak_in_event}");
    }

    #[test]
    fn profile_without_gps_uses_raw_gyro() {
        let route = Route::new(vec![straight_road(800.0, 0.0)]).unwrap();
        let traj = simulate_trip(&route, &quiet_cfg(), 34);
        let log = SensorSuite::new(SensorConfig::default()).run(&traj, 34);
        let prof = steering_rate_profile(&log.imu, &[], Some(&route));
        for ((t, w), imu) in prof.iter().zip(&log.imu) {
            assert_eq!(*t, imu.t);
            assert_eq!(*w, imu.gyro_z);
        }
    }

    #[test]
    fn columnar_into_matches_wrapper() {
        let route = Route::new(vec![s_curve_road(150.0, 50.0)]).unwrap();
        let traj = simulate_trip(&route, &quiet_cfg(), 35);
        let log = SensorSuite::new(SensorConfig::default()).run(&traj, 35);
        let prof = steering_rate_profile(&log.imu, &log.gps, Some(&route));
        let cols = crate::columnar::ImuColumns::from_samples(&log.imu);
        let mut scratch = WRoadScratch::default();
        let mut w = Vec::new();
        steering_rate_profile_into(
            &cols.t,
            &cols.gyro_z,
            &log.gps,
            Some(&route),
            &mut scratch,
            &mut w,
        );
        assert_eq!(prof.len(), w.len());
        for ((t, pw), (ct, cw)) in prof.iter().zip(cols.t.iter().zip(&w)) {
            assert_eq!(t, ct);
            assert_eq!(pw, cw);
        }
    }

    /// The per-sample cursor scan the segment sweep replaced, kept as
    /// the test oracle: one clamp-vs-interpolate decision per sample.
    fn reference_profile(t: &[f64], gyro_z: &[f64], gps: &[GpsSample], route: &Route) -> Vec<f64> {
        let mut scratch = WRoadScratch::default();
        let mut sink = Vec::new();
        // Reuse the production fix staging (identical by construction),
        // then replay the original per-sample lookup.
        steering_rate_profile_into(t, gyro_z, gps, Some(route), &mut scratch, &mut sink);
        let (fix_times, fix_wroad) = (&scratch.fix_times, &scratch.fix_wroad);
        let ends = match (fix_times.last(), fix_wroad.last()) {
            (Some(&lt), Some(&lw)) => Some((fix_times[0], fix_wroad[0], lt, lw)),
            _ => None,
        };
        let mut cursor = 0usize;
        let mut out = Vec::with_capacity(t.len());
        for (&ti, &gz) in t.iter().zip(gyro_z) {
            let w_road = match ends {
                None => 0.0,
                Some((first_t, first_w, _, _)) if ti <= first_t => first_w,
                Some((_, _, last_t, last_w)) if ti >= last_t => last_w,
                Some(_) => {
                    while cursor + 1 < fix_times.len() && fix_times[cursor + 1] <= ti {
                        cursor += 1;
                    }
                    let t0 = fix_times[cursor];
                    let t1 = fix_times[cursor + 1];
                    let u = ((ti - t0) / (t1 - t0)).clamp(0.0, 1.0);
                    fix_wroad[cursor] * (1.0 - u) + fix_wroad[cursor + 1] * u
                }
            };
            out.push(gz - w_road);
        }
        out
    }

    #[test]
    fn segment_sweep_matches_reference() {
        // The hoisted three-phase sweep must reproduce the per-sample
        // cursor scan bit for bit, including samples clamped before the
        // first fix and after the last one.
        let route = Route::new(vec![s_curve_road(150.0, 50.0)]).unwrap();
        let traj = simulate_trip(&route, &quiet_cfg(), 36);
        let log = SensorSuite::new(SensorConfig::default()).run(&traj, 36);
        let cols = crate::columnar::ImuColumns::from_samples(&log.imu);

        let mut scratch = WRoadScratch::default();
        let mut fused = Vec::new();
        let mut check = |gps: &[GpsSample]| {
            steering_rate_profile_into(
                &cols.t,
                &cols.gyro_z,
                gps,
                Some(&route),
                &mut scratch,
                &mut fused,
            );
            let expected = reference_profile(&cols.t, &cols.gyro_z, gps, &route);
            assert_eq!(fused, expected);
        };
        // Full fix sequence.
        check(&log.gps);
        // A truncated fix window forces head and tail clamp regions to
        // cover real samples on both sides.
        let inner: Vec<GpsSample> =
            log.gps.iter().filter(|g| g.t > 30.0 && g.t < 90.0).cloned().collect();
        assert!(!inner.is_empty());
        check(&inner);
        // A single fix degenerates to pure clamping (no interior).
        check(&inner[..1]);
        // No fixes at all: the raw gyro passes through.
        check(&[]);
    }

    #[test]
    fn match_s_reaches_window_far_edge() {
        // A position near the route end must match there even though the
        // search window span is not a multiple of the scan steps.
        let route = Route::new(vec![straight_road(123.7, 0.0)]).unwrap();
        let mut m = MapMatcher::new(&route);
        let end = route.length();
        let s_hat = m.match_s(route.point_at(end));
        assert!((s_hat - end).abs() <= 1.0, "{s_hat} vs {end}");
    }

    #[test]
    fn mount_default_is_small() {
        let m = PhoneMount::default();
        assert!(m.pitch_error_rad.abs() < 0.01);
        assert!(m.roll_error_rad.abs() < 0.01);
    }

    /// The sampled 5 m/1 m window scan `match_s` used before the exact
    /// projection rewrite, kept verbatim as the A/B oracle.
    struct SampledMatcher<'a> {
        route: &'a Route,
        last_s: f64,
    }

    impl<'a> SampledMatcher<'a> {
        fn new(route: &'a Route) -> Self {
            SampledMatcher { route, last_s: 0.0 }
        }

        fn match_s(&mut self, position: Vec2) -> f64 {
            let lo = (self.last_s - 30.0).max(0.0);
            let hi = (self.last_s + 120.0).min(self.route.length());
            let mut best_s = lo;
            let mut best_d = f64::INFINITY;
            self.scan_window(position, lo, hi, 5.0, &mut best_s, &mut best_d);
            let lo2 = (best_s - 5.0).max(0.0);
            let hi2 = (best_s + 5.0).min(self.route.length());
            self.scan_window(position, lo2, hi2, 1.0, &mut best_s, &mut best_d);
            self.last_s = best_s;
            best_s
        }

        fn scan_window(
            &self,
            position: Vec2,
            lo: f64,
            hi: f64,
            step: f64,
            best_s: &mut f64,
            best_d: &mut f64,
        ) {
            let steps = (((hi - lo) / step).floor()).max(0.0) as usize;
            let mut consider = |s: f64| {
                let d = (self.route.point_at(s) - position).norm_squared();
                if d < *best_d {
                    *best_d = d;
                    *best_s = s;
                }
            };
            for k in 0..=steps {
                consider(lo + k as f64 * step);
            }
            if lo + steps as f64 * step < hi {
                consider(hi);
            }
        }
    }

    /// Tolerance policy (documented in DESIGN.md §12): the old scan
    /// quantises its answer to a 1 m refinement grid, so the exact
    /// projection may differ from it by up to half a grid step plus the
    /// coarse-scan's basin error on curved geometry. 1.0 m bounds both
    /// on every route class the pipeline drives.
    #[test]
    fn exact_projection_agrees_with_sampled_scan() {
        let routes = [
            Route::new(vec![straight_road(2000.0, 1.5)]).unwrap(),
            Route::new(vec![s_curve_road(120.0, 60.0)]).unwrap(),
            Route::new(vec![two_lane_straight(1500.0)]).unwrap(),
        ];
        for route in &routes {
            let traj = simulate_trip(route, &quiet_cfg(), 44);
            let log = SensorSuite::new(SensorConfig::default()).run(&traj, 44);
            let mut exact = MapMatcher::new(route);
            let mut sampled = SampledMatcher::new(route);
            for fix in log.gps.iter().filter(|f| f.valid) {
                let se = exact.match_s(fix.position);
                let ss = sampled.match_s(fix.position);
                assert!((se - ss).abs() <= 1.0, "exact {se} vs sampled {ss} at t={}", fix.t);
            }
        }
    }

    #[test]
    fn exact_projection_beats_sampled_scan_on_truth() {
        // Noise-free positions on a curve: exact projection recovers the
        // true arc position to numerical precision, the sampled scan
        // only to its grid.
        let route = Route::new(vec![s_curve_road(100.0, 60.0)]).unwrap();
        let mut m = MapMatcher::new(&route);
        let mut s_true = 0.0;
        while s_true < route.length() {
            let s_hat = m.match_s(route.point_at(s_true));
            assert!((s_hat - s_true).abs() < 0.51, "{s_hat} vs {s_true}");
            s_true += 20.0;
        }
    }

    #[test]
    fn resume_seeds_the_search_window() {
        let route = Route::new(vec![straight_road(5000.0, 0.0)]).unwrap();
        // A fresh matcher cannot reach s=3000 (window tops out at 120).
        let mut fresh = MapMatcher::new(&route);
        let far = route.point_at(3000.0);
        assert!((fresh.match_s(far) - 3000.0).abs() > 100.0);
        // A resumed matcher starts its window there.
        let mut resumed = MapMatcher::resume(&route, 2990.0);
        assert!((resumed.match_s(far) - 3000.0).abs() < 1e-6);
    }

    #[test]
    fn match_located_agrees_with_route_locate() {
        use gradest_geo::generate::city_network;
        let net = city_network(9);
        let route = net.route_between(0, 35, |r| r.length()).unwrap();
        let mut m = MapMatcher::new(&route);
        let mut s_true = 0.0;
        while s_true < route.length() {
            let (s_hat, road, sr) = m.match_located(route.point_at(s_true));
            let (road_ref, sr_ref) = route.locate(s_hat);
            assert_eq!(road, road_ref, "at s={s_true}");
            assert!((sr - sr_ref).abs() < 1e-9, "at s={s_true}: {sr} vs {sr_ref}");
            s_true += 37.0;
        }
    }

    #[test]
    fn steering_pass_records_one_match_per_fix() {
        // A curved route with a GPS outage and one fix whose time is not
        // finite: the steering pass keeps one arc per fix, which an
        // independent matcher pass over the fixes on the IMU clock must
        // reproduce bit for bit.
        let route = Route::new(vec![s_curve_road(150.0, 50.0)]).unwrap();
        let traj = simulate_trip(&route, &quiet_cfg(), 37);
        let cfg = SensorConfig { gps_outages: vec![(20.0, 35.0)], ..Default::default() };
        let mut log = SensorSuite::new(cfg).run(&traj, 37);
        log.gps[50].t = f64::NAN;
        assert!(log.gps[50].valid && log.gps.iter().any(|f| !f.valid));
        let cols = crate::columnar::ImuColumns::from_samples(&log.imu);
        let mut scratch = WRoadScratch::default();
        let mut w = Vec::new();
        steering_rate_profile_into(
            &cols.t,
            &cols.gyro_z,
            &log.gps,
            Some(&route),
            &mut scratch,
            &mut w,
        );
        let mut matcher = MapMatcher::new(&route);
        let want: Vec<f64> =
            log.gps
                .iter()
                .map(|f| {
                    if f.valid && f.t.is_finite() {
                        matcher.match_s(f.position)
                    } else {
                        f64::NAN
                    }
                })
                .collect();
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(scratch.matched_s()), bits(&want));
        // Each valid fix's w_road is the curvature at its arc × speed;
        // the located lookup agrees with `Route::locate`'s.
        let on_clock = log.gps.iter().zip(&want).filter(|(f, _)| f.t.is_finite());
        for ((fix, &s), &w_fix) in on_clock.zip(&scratch.fix_wroad) {
            if fix.valid {
                let w_ref = route.heading_rate_at(s, 12.0) * fix.speed_mps;
                assert!((w_fix - w_ref).abs() < 1e-12, "at s={s}: {w_fix} vs {w_ref}");
            }
        }
        // Without a map no fix is matched.
        steering_rate_profile_into(&cols.t, &cols.gyro_z, &log.gps, None, &mut scratch, &mut w);
        assert!(scratch.matched_s().is_empty());
    }

    #[test]
    fn network_matcher_recovers_trip_route() {
        use gradest_geo::generate::city_network;
        use gradest_geo::index::NetworkIndex;
        let net = city_network(21);
        let index = NetworkIndex::build(&net);
        let original = net.route_between(3, 77, |r| r.length()).unwrap();
        // Fixes every ~20 m along the route with a small lateral error.
        let mut gps = Vec::new();
        let mut s = 0.0;
        let mut k = 0u32;
        while s <= original.length() {
            let off = if k.is_multiple_of(2) { 2.0 } else { -1.5 };
            gps.push(GpsSample {
                t: k as f64,
                position: original.point_at(s) + Vec2::new(off, off * 0.5),
                speed_mps: 20.0,
                heading: 0.0,
                valid: true,
            });
            s += 20.0;
            k += 1;
        }
        let mut matcher = NetworkMatcher::new(&net, &index);
        let m = matcher.match_trip(&gps);
        assert!(m.matched_fixes > 0);
        assert!(m.mean_snap_m < 10.0, "mean snap {}", m.mean_snap_m);
        assert!(!m.edges.is_empty());
        let recovered = m.route.expect("route recovered");
        let ratio = recovered.length() / original.length();
        assert!(
            (0.8..1.25).contains(&ratio),
            "recovered {} m vs original {} m",
            recovered.length(),
            original.length()
        );
    }

    #[test]
    fn network_matcher_handles_empty_and_invalid_input() {
        use gradest_geo::generate::city_network;
        use gradest_geo::index::NetworkIndex;
        let net = city_network(21);
        let index = NetworkIndex::build(&net);
        let mut matcher = NetworkMatcher::new(&net, &index);
        let m = matcher.match_trip(&[]);
        assert_eq!(m.matched_fixes, 0);
        assert!(m.route.is_none());
        let invalid =
            GpsSample { t: 0.0, position: Vec2::ZERO, speed_mps: 0.0, heading: 0.0, valid: false };
        let m = matcher.match_trip(&[invalid]);
        assert_eq!(m.matched_fixes, 0);
        assert!(m.route.is_none());
    }
}
