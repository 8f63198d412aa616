//! Figures 3 and 4 — steering-rate profiles during left/right lane
//! changes, raw (Figure 3) and after local-regression smoothing
//! (Figure 4).

use crate::report::{print_table, save_json};
use crate::scenarios::Drive;
use gradest_core::lane_change::SMOOTHING_WINDOW_S;
use gradest_core::steering::smooth_profile;
use gradest_geo::generate::two_lane_straight;
use gradest_geo::Route;
use gradest_sensors::alignment::steering_rate_profile;
use gradest_sim::LaneChangeDirection;
use serde::{Deserialize, Serialize};

/// A sampled profile around one maneuver.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ManeuverProfile {
    /// Direction of the maneuver.
    pub direction: String,
    /// `(t_rel, raw w_steer, smoothed w_steer)` series at 5 Hz.
    pub series: Vec<(f64, f64, f64)>,
    /// Peak |raw| value, rad/s.
    pub peak_raw: f64,
    /// Peak |smoothed| value, rad/s.
    pub peak_smoothed: f64,
}

/// Figure 3/4 result: one profile per direction.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Fig34 {
    /// Left lane change profile.
    pub left: ManeuverProfile,
    /// Right lane change profile.
    pub right: ManeuverProfile,
}

/// Simulates until one left and one right lane change are captured, then
/// extracts their profiles.
///
/// # Panics
///
/// Panics if the simulation fails to produce both maneuver directions
/// (cannot happen with the fixed seed range used).
pub fn run(seed: u64) -> Fig34 {
    let mut left = None;
    let mut right = None;
    for attempt in 0..20u64 {
        let drive = Drive::simulate(
            Route::new(vec![two_lane_straight(10_000.0)]).expect("valid route"),
            seed + attempt,
            1.0,
            Vec::new(),
        );
        let raw = steering_rate_profile(&drive.log.imu, &drive.log.gps, Some(&drive.route));
        let smoothed = smooth_profile(&raw, SMOOTHING_WINDOW_S);
        for event in drive.traj.events() {
            let (t0, t1) = (event.start_t - 1.0, event.end_t + 1.0);
            let mut series = Vec::new();
            let mut peak_raw: f64 = 0.0;
            let mut peak_smooth: f64 = 0.0;
            for (i, ((t, w_raw), w_s)) in raw.iter().zip(&smoothed.w).enumerate() {
                if *t < t0 || *t > t1 {
                    continue;
                }
                peak_raw = peak_raw.max(w_raw.abs());
                peak_smooth = peak_smooth.max(w_s.abs());
                if i % 10 == 0 {
                    series.push((*t - event.start_t, *w_raw, *w_s));
                }
            }
            let profile = ManeuverProfile {
                direction: format!("{:?}", event.direction),
                series,
                peak_raw,
                peak_smoothed: peak_smooth,
            };
            match event.direction {
                LaneChangeDirection::Left if left.is_none() => left = Some(profile),
                LaneChangeDirection::Right if right.is_none() => right = Some(profile),
                _ => {}
            }
        }
        if left.is_some() && right.is_some() {
            break;
        }
    }
    Fig34 {
        left: left.expect("a left lane change occurred"),
        right: right.expect("a right lane change occurred"),
    }
}

/// Prints both profiles as t/raw/smoothed series.
pub fn print_report(r: &Fig34) {
    for p in [&r.left, &r.right] {
        let rows: Vec<Vec<String>> = p
            .series
            .iter()
            .map(|(t, raw, s)| vec![format!("{t:.2}"), format!("{raw:.4}"), format!("{s:.4}")])
            .collect();
        print_table(
            &format!(
                "Fig 3/4 — {} lane change steering rate (peak raw {:.3}, smoothed {:.3} rad/s)",
                p.direction, p.peak_raw, p.peak_smoothed
            ),
            &["t (s)", "raw (rad/s)", "smoothed"],
            &rows,
        );
    }
    save_json("fig3_4_steering_profiles", r);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn profiles_show_opposite_first_bumps() {
        let r = run(40);
        assert!(!r.left.series.is_empty());
        assert!(!r.right.series.is_empty());
        // First significant smoothed excursion: positive for left,
        // negative for right (the paper's Figure 3 sign convention).
        let first_sig = |p: &ManeuverProfile| {
            p.series
                .iter()
                .find(|(_, _, s)| s.abs() > 0.5 * p.peak_smoothed)
                .map(|(_, _, s)| *s)
                .expect("profile has a bump")
        };
        assert!(first_sig(&r.left) > 0.0);
        assert!(first_sig(&r.right) < 0.0);
        // Smoothing attenuates noise: smoothed peak below raw peak.
        assert!(r.left.peak_smoothed <= r.left.peak_raw);
    }
}
