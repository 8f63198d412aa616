//! Golden snapshot of the observability surface.
//!
//! One canonical simulated trip through the recorded pipeline must
//! always emit the same span tree, counter set, and histogram set —
//! with the same integer counts. [`RunRecorder::snapshot_string`]
//! renders exactly that surface (no wall-clock quantities), so the
//! expected value can be pinned byte for byte.
//!
//! If this test fails after an intentional change (new span, different
//! sensor rates, detector tuning), regenerate the expectation by
//! running the test and copying the printed `actual` block.

use gradest_core::pipeline::{
    EstimatorConfig, EstimatorScratch, GradientEstimate, GradientEstimator,
};
use gradest_geo::generate::red_road;
use gradest_geo::Route;
use gradest_obs::RunRecorder;
use gradest_sensors::suite::{SensorConfig, SensorSuite};
use gradest_sim::driver::DriverProfile;
use gradest_sim::trip::{simulate_trip, TripConfig};

/// The canonical trip: the paper's red road, a driver who changes
/// lanes often enough to exercise the detector, fixed seeds, serial
/// tracks (parallelism cannot change counts, but the canon should not
/// depend on that).
fn canonical_snapshot() -> String {
    let route = Route::new(vec![red_road()]).expect("red road is a valid route");
    let cfg = TripConfig {
        driver: DriverProfile { lane_change_rate_per_km: 2.0, ..Default::default() },
        ..Default::default()
    };
    let traj = simulate_trip(&route, &cfg, 7);
    let log = SensorSuite::new(SensorConfig::default()).run(&traj, 7);

    let estimator = GradientEstimator::new(EstimatorConfig::default());
    let rec = RunRecorder::new();
    let mut scratch = EstimatorScratch::new();
    let mut est = GradientEstimate::default();
    estimator.estimate_into_recorded(&log, Some(&route), &mut scratch, &mut est, &rec);
    assert!(!est.fused.is_empty(), "canonical trip produced an empty estimate");
    rec.snapshot_string()
}

#[test]
fn canonical_trip_snapshot_is_pinned() {
    let actual = canonical_snapshot();
    let expected = "\
span trip count=1
span steering count=1
span detection count=1
span tracks count=1
span track:gps count=1
span track:speedometer count=1
span track:can-bus count=1
span track:accelerometer count=1
span fusion count=1
counter trips-processed = 1
counter lane-changes-detected = 1
counter ekf-predicts = 27832
counter ekf-updates:gps = 140
counter ekf-updates:speedometer = 1392
counter ekf-updates:can-bus = 2784
counter ekf-updates:accelerometer = 1392
counter tracks-healthy = 4
hist ekf-innovation count=5708
hist fusion-weight:gps count=1
hist fusion-weight:speedometer count=1
hist fusion-weight:can-bus count=1
hist fusion-weight:accelerometer count=1
hist lane-change-displacement count=1
hist ekf-mean-nis count=4
";
    assert_eq!(
        actual, expected,
        "observability snapshot drifted.\n--- actual ---\n{actual}--- end ---"
    );
}

#[test]
fn snapshot_is_reproducible() {
    // Same seeds, same workload: the surface must be byte-identical
    // across runs before pinning it means anything.
    assert_eq!(canonical_snapshot(), canonical_snapshot());
}
