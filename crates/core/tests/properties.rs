//! Property-based tests for the estimation kernels.

use gradest_core::ekf::EkfConfig;
use gradest_core::ekf_lanes::{EkfLanes, MAX_LANES};
use gradest_core::fusion::{fuse_tracks, fuse_values};
use gradest_core::lane_change::{LaneChangeConfig, LaneChangeDetector};
use gradest_core::steering::{smooth_profile, SmoothedProfile};
use gradest_core::track::GradientTrack;
use gradest_math::GRAVITY;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn ekf_converges_to_any_road_gradient(theta_deg in -8.0..8.0f64, v in 5.0..25.0f64) {
        let theta = theta_deg.to_radians();
        let mut ekf = EkfLanes::new(EkfConfig::default(), [v; MAX_LANES]);
        for i in 0..4000 {
            ekf.predict(GRAVITY * theta.sin(), 0.02);
            if i % 5 == 0 {
                ekf.update(0, v, 0.05);
            }
        }
        prop_assert!((ekf.theta(0) - theta).abs() < 4e-3,
            "θ {theta} est {}", ekf.theta(0));
        prop_assert!((ekf.velocity(0) - v).abs() < 0.1);
    }

    #[test]
    fn ekf_covariance_stays_psd_under_random_inputs(seed in 0u64..500) {
        let mut ekf = EkfLanes::new(EkfConfig::default(), [10.0; MAX_LANES]);
        let mut s = seed;
        let mut next = move || {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((s >> 33) as f64 / u32::MAX as f64) - 0.5
        };
        for i in 0..2000 {
            ekf.predict(4.0 * next(), 0.02);
            if i % 3 == 0 {
                ekf.update(0, (10.0 + 8.0 * next()).max(0.0), 0.01 + next().abs());
            }
            let p = ekf.covariance(0);
            prop_assert!(p.is_finite());
            prop_assert!(p.is_positive_semidefinite(1e-9), "step {i}: {p:?}");
        }
    }

    #[test]
    fn fusion_is_convex_and_tightens(
        estimates in prop::collection::vec((-0.2..0.2f64, 1e-6..1e-2f64), 1..8)
    ) {
        let (theta, var) = fuse_values(&estimates);
        let lo = estimates.iter().map(|e| e.0).fold(f64::MAX, f64::min);
        let hi = estimates.iter().map(|e| e.0).fold(f64::MIN, f64::max);
        let best = estimates.iter().map(|e| e.1).fold(f64::MAX, f64::min);
        prop_assert!(theta >= lo - 1e-12 && theta <= hi + 1e-12);
        prop_assert!(var <= best + 1e-18);
        prop_assert!(var > 0.0);
    }

    #[test]
    fn fusion_is_permutation_invariant(
        estimates in prop::collection::vec((-0.2..0.2f64, 1e-6..1e-2f64), 2..6)
    ) {
        let (a, va) = fuse_values(&estimates);
        let mut rev = estimates.clone();
        rev.reverse();
        let (b, vb) = fuse_values(&rev);
        prop_assert!((a - b).abs() < 1e-12);
        prop_assert!((va - vb).abs() < 1e-18);
    }

    #[test]
    fn track_fusion_matches_scalar_fusion(
        thetas in prop::collection::vec(-0.1..0.1f64, 2..5),
        n in 3usize..10,
    ) {
        let tracks: Vec<GradientTrack> = thetas
            .iter()
            .enumerate()
            .map(|(k, &th)| {
                let mut t = GradientTrack::new(format!("t{k}"));
                for i in 0..n {
                    t.push(i as f64, th, 1e-4 * (k + 1) as f64);
                }
                t
            })
            .collect();
        let fused = fuse_tracks(&tracks).unwrap();
        let scalar: Vec<(f64, f64)> = thetas
            .iter()
            .enumerate()
            .map(|(k, &th)| (th, 1e-4 * (k + 1) as f64))
            .collect();
        let (expect, _) = fuse_values(&scalar);
        for th in &fused.theta {
            prop_assert!((th - expect).abs() < 1e-12);
        }
    }

    #[test]
    fn detector_never_fires_on_smooth_noise(seed in 0u64..200, amp in 0.0..0.04f64) {
        // Steering noise below half the δ threshold: no bumps, no
        // detections, for any seed.
        let mut s = seed;
        let mut next = move || {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((s >> 33) as f64 / u32::MAX as f64) - 0.5
        };
        let raw: Vec<(f64, f64)> = (0..3000)
            .map(|i| (i as f64 * 0.02, amp * 2.0 * next()))
            .collect();
        let profile = smooth_profile(&raw, 0.8);
        let det = LaneChangeDetector::new(LaneChangeConfig::default());
        prop_assert!(det.detect(&profile, &|_| 12.0).is_empty());
    }

    #[test]
    fn displacement_is_linear_in_speed(scale in 0.5..3.0f64) {
        // Eq 1 displacement scales linearly with a uniform speed scale.
        let dt = 0.02;
        let profile = SmoothedProfile {
            t: (0..500).map(|i| i as f64 * dt).collect(),
            w: (0..500)
                .map(|i| 0.15 * (std::f64::consts::TAU * i as f64 * dt / 5.0).sin())
                .collect(),
        };
        let det = LaneChangeDetector::new(LaneChangeConfig::default());
        let base = det.displacement(&profile, &|_| 10.0, 0.0, 5.0);
        let scaled = det.displacement(&profile, &move |_| 10.0 * scale, 0.0, 5.0);
        prop_assert!((scaled - base * scale).abs() < 1e-9);
    }

    #[test]
    fn velocity_correction_only_shrinks_speed(
        amp in 0.05..0.3f64,
        v in 5.0..25.0f64,
    ) {
        // Within a detection window, v_L = v·cos α ≤ v.
        let dt = 0.02;
        let n = 500;
        let profile = SmoothedProfile {
            t: (0..n).map(|i| i as f64 * dt).collect(),
            w: (0..n)
                .map(|i| amp * (std::f64::consts::TAU * i as f64 * dt / 5.0).sin())
                .collect(),
        };
        let det = LaneChangeDetector::new(LaneChangeConfig::default());
        let detections = det.detect(&profile, &move |_| v);
        let vs = vec![v; n];
        let corrected = det.correct_velocity(&profile, &detections, &vs);
        for (c, orig) in corrected.iter().zip(&vs) {
            prop_assert!(*c <= *orig + 1e-12);
            prop_assert!(*c >= 0.85 * orig); // α stays modest for lane changes
        }
    }
}
