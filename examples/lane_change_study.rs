//! Lane-change study: visualize the steering-rate signature of lane
//! changes, run Algorithm 1 on a full drive, and show the S-curve
//! discrimination at work (the paper's Section III-B and Figure 5).
//!
//! ```text
//! cargo run --release --example lane_change_study
//! ```

use gradest::core::lane_change::{LaneChangeConfig, LaneChangeDetector, SMOOTHING_WINDOW_S};
use gradest::core::steering::smooth_profile;
use gradest::math::interp::interp1_or;
use gradest::prelude::*;
use gradest::sensors::alignment::steering_rate_profile;

fn main() {
    // A long two-lane road with frequent lane changes.
    let route = Route::new(vec![two_lane_straight(8000.0)]).expect("valid route");
    let trip_cfg = TripConfig::default();
    let mut traj = simulate_trip(&route, &trip_cfg, 3);
    // Raise the rate until we have a few maneuvers to study.
    let mut seed = 3;
    while traj.events().len() < 3 {
        seed += 1;
        let cfg = TripConfig {
            driver: gradest::sim::driver::DriverProfile {
                lane_change_rate_per_km: 1.0,
                ..Default::default()
            },
            ..trip_cfg
        };
        traj = simulate_trip(&route, &cfg, seed);
    }
    println!("ground truth: {} lane change(s)", traj.events().len());
    for e in traj.events() {
        println!(
            "  {:?} at t = {:.1}–{:.1} s (s = {:.0} m)",
            e.direction, e.start_t, e.end_t, e.start_s
        );
    }

    let log = SensorSuite::new(SensorConfig::default()).run(&traj, seed);
    let raw = steering_rate_profile(&log.imu, &log.gps, Some(&route));
    let profile = smooth_profile(&raw, SMOOTHING_WINDOW_S);

    // ASCII render of the steering profile around the first maneuver.
    let ev = traj.events()[0];
    println!("\nsteering rate around the first maneuver ('+' raw, '*' smoothed):");
    let peak = profile
        .w
        .iter()
        .zip(&profile.t)
        .filter(|(_, t)| **t >= ev.start_t - 1.0 && **t <= ev.end_t + 1.0)
        .map(|(w, _)| w.abs())
        .fold(1e-9, f64::max);
    for (i, (t, w)) in profile.t.iter().zip(&profile.w).enumerate() {
        if *t < ev.start_t - 1.0 || *t > ev.end_t + 1.0 || i % 25 != 0 {
            continue;
        }
        let col = ((w / peak) * 24.0).round() as i32 + 25;
        let mut line = vec![b' '; 52];
        line[25] = b'|';
        line[col.clamp(0, 51) as usize] = b'*';
        println!("  t={t:6.1}s {}", String::from_utf8_lossy(&line));
    }

    // Algorithm 1 over the whole drive.
    let detector = LaneChangeDetector::new(LaneChangeConfig::default());
    let (ts, vs): (Vec<f64>, Vec<f64>) = log.speedometer.iter().map(|s| (s.t, s.speed_mps)).unzip();
    let v_at = interp1_or(&ts, &vs, 10.0);
    let detections = detector.detect(&profile, &v_at);
    println!("\nAlgorithm 1 detections: {}", detections.len());
    for d in &detections {
        println!(
            "  {:?} at t = {:.1}–{:.1} s, displacement {:.1} m",
            d.direction, d.t_start, d.t_end, d.displacement_m
        );
    }

    // S-curve discrimination: same detector, unmapped S-curve road.
    let s_route = Route::new(vec![s_curve_road(120.0, 40.0)]).expect("valid route");
    let s_traj = simulate_trip(&s_route, &TripConfig::default(), 9);
    let s_log = SensorSuite::new(SensorConfig::default()).run(&s_traj, 9);
    let s_raw = steering_rate_profile(&s_log.imu, &s_log.gps, None); // no map!
    let s_profile = smooth_profile(&s_raw, SMOOTHING_WINDOW_S);
    let bumps = detector.find_bumps(&s_profile);
    let (ts2, vs2): (Vec<f64>, Vec<f64>) =
        s_log.speedometer.iter().map(|s| (s.t, s.speed_mps)).unzip();
    let v_at2 = interp1_or(&ts2, &vs2, 10.0);
    let s_detections = detector.detect(&s_profile, &v_at2);
    println!(
        "\nS-curve road (no map): {} bump(s) in the profile, {} lane change(s) detected \
         (the Eq-1 displacement test rejects the pairing)",
        bumps.len(),
        s_detections.len()
    );
}
