//! Figure 5 — distinguishing lane changes from S-curves.
//!
//! Both produce opposite-sign steering-rate bumps (when the road geometry
//! is unknown), but the horizontal displacement W of Eq (1) separates
//! them: a lane change moves ~one lane width (≤ 3·W_lane = 10.95 m), an
//! S-curve moves far more.

use crate::report::{print_table, save_json};
use crate::scenarios::Drive;
use gradest_core::lane_change::{
    LaneChangeConfig, LaneChangeDetector, MAX_DISPLACEMENT_M, SMOOTHING_WINDOW_S,
};
use gradest_core::steering::smooth_profile;
use gradest_geo::generate::{s_curve_road, two_lane_straight};
use gradest_geo::Route;
use gradest_math::interp::interp1_or;
use gradest_sensors::alignment::steering_rate_profile;
use serde::{Deserialize, Serialize};

/// One scenario's outcome.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScenarioOutcome {
    /// Scenario name.
    pub name: String,
    /// Bumps found in the (map-free) steering profile.
    pub bumps: usize,
    /// Horizontal displacement across the paired bumps, metres
    /// (`None` when no opposite-sign pair exists).
    pub displacement_m: Option<f64>,
    /// Lane changes the detector reported.
    pub detections: usize,
}

/// Figure 5 result.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Fig5 {
    /// Right lane change on a straight two-lane road.
    pub lane_change: ScenarioOutcome,
    /// S-curve traversal (no maneuvers).
    pub s_curve: ScenarioOutcome,
    /// The `3·W_lane` decision threshold, metres.
    pub threshold_m: f64,
}

/// Runs both scenarios with the road geometry withheld from the steering
/// profile (the confusion case the paper's Figure 5 addresses).
pub fn run(seed: u64) -> Fig5 {
    // Wider pairing gap so the Eq-1 test, not the gap test, does the
    // discriminating — mirroring the paper's framing.
    let detector = LaneChangeDetector::new(LaneChangeConfig { max_pair_gap_s: 60.0 });

    let outcome = |name: &str, drive: &Drive| -> ScenarioOutcome {
        let raw = steering_rate_profile(&drive.log.imu, &drive.log.gps, None);
        let profile = smooth_profile(&raw, SMOOTHING_WINDOW_S);
        let bumps = detector.find_bumps(&profile);
        let (vt, vv): (Vec<f64>, Vec<f64>) =
            drive.log.speedometer.iter().map(|s| (s.t, s.speed_mps)).unzip();
        let v_at = interp1_or(&vt, &vv, 10.0);
        let displacement = bumps
            .windows(2)
            .find(|w| w[0].sign != w[1].sign)
            .map(|w| detector.displacement(&profile, &v_at, w[0].t_start, w[1].t_end));
        let detections = detector.detect(&profile, &v_at).len();
        ScenarioOutcome {
            name: name.into(),
            bumps: bumps.len(),
            displacement_m: displacement,
            detections,
        }
    };

    // A drive guaranteed to contain a lane change.
    let mut lane_drive = None;
    for attempt in 0..20u64 {
        let d = Drive::simulate(
            Route::new(vec![two_lane_straight(6000.0)]).expect("valid route"),
            seed + attempt,
            1.0,
            Vec::new(),
        );
        if !d.traj.events().is_empty() {
            lane_drive = Some(d);
            break;
        }
    }
    let lane_drive = lane_drive.expect("a lane change occurred within 20 attempts");
    // An S-curve sized so its steering-rate peaks resemble a lane
    // change's.
    let s_drive = Drive::simulate(
        Route::new(vec![s_curve_road(120.0, 40.0)]).expect("valid route"),
        seed,
        0.0,
        Vec::new(),
    );

    Fig5 {
        lane_change: outcome("right lane change", &lane_drive),
        s_curve: outcome("S-curve road", &s_drive),
        threshold_m: MAX_DISPLACEMENT_M,
    }
}

/// Prints the Figure 5 comparison.
pub fn print_report(r: &Fig5) {
    let fmt = |o: &ScenarioOutcome| {
        vec![
            o.name.clone(),
            o.bumps.to_string(),
            o.displacement_m.map(|w| format!("{:.1}", w.abs())).unwrap_or_else(|| "-".into()),
            format!("{:.1}", r.threshold_m),
            o.detections.to_string(),
        ]
    };
    print_table(
        "Fig 5 — lane change vs S-curve (displacement test W ≤ 3·W_lane)",
        &["scenario", "bumps", "|W| (m)", "threshold (m)", "lane changes detected"],
        &[fmt(&r.lane_change), fmt(&r.s_curve)],
    );
    save_json("fig5_lane_vs_scurve", r);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displacement_separates_the_two() {
        let r = run(50);
        // Both scenarios produce bump pairs…
        assert!(r.lane_change.bumps >= 2, "lane-change bumps {}", r.lane_change.bumps);
        assert!(r.s_curve.bumps >= 2, "s-curve bumps {}", r.s_curve.bumps);
        // …but only the lane change passes the displacement test.
        let w_lane = r.lane_change.displacement_m.expect("pair found").abs();
        let w_s = r.s_curve.displacement_m.expect("pair found").abs();
        assert!(w_lane <= r.threshold_m, "lane change W {w_lane}");
        assert!(w_s > r.threshold_m, "s-curve W {w_s}");
        assert!(r.lane_change.detections >= 1);
        assert_eq!(r.s_curve.detections, 0);
    }
}
