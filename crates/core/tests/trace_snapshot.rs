//! Golden snapshot of the flight-recorder event sequence.
//!
//! The canonical simulated trip (the same one `obs_snapshot.rs` pins
//! the metrics surface with) must always push the same typed events in
//! the same order into a [`TraceRing`]. [`TraceSnapshot::sequence_string`]
//! renders exactly the deterministic surface — event kinds and payload
//! values, never timestamps or durations — so it can be pinned byte
//! for byte.
//!
//! If this test fails after an intentional change (new event, detector
//! tuning, sensor rates), regenerate the expectation by running the
//! test and copying the printed `actual` block.

use gradest_core::pipeline::{
    EstimatorConfig, EstimatorScratch, GradientEstimate, GradientEstimator,
};
use gradest_geo::generate::red_road;
use gradest_geo::Route;
use gradest_obs::{
    chrome_trace_json, prometheus_text, validate_prometheus_text, RunRecorder, Tee, TraceRing,
    TraceSnapshot,
};
use gradest_sensors::suite::{SensorConfig, SensorSuite};
use gradest_sim::driver::DriverProfile;
use gradest_sim::trip::{simulate_trip, TripConfig};

/// Runs the canonical trip against a metrics recorder and a trace ring,
/// returning the trace snapshot and the metrics recorder.
fn canonical_trip() -> (TraceSnapshot, RunRecorder) {
    let route = Route::new(vec![red_road()]).expect("red road is a valid route");
    let cfg = TripConfig {
        driver: DriverProfile { lane_change_rate_per_km: 2.0, ..Default::default() },
        ..Default::default()
    };
    let traj = simulate_trip(&route, &cfg, 7);
    let log = SensorSuite::new(SensorConfig::default()).run(&traj, 7);

    let estimator = GradientEstimator::new(EstimatorConfig::default());
    let run = RunRecorder::new();
    let ring = TraceRing::with_capacity(1024);
    let rec = Tee::new(&run, &ring);
    let mut scratch = EstimatorScratch::new();
    let mut est = GradientEstimate::default();
    estimator.estimate_into_recorded(&log, Some(&route), &mut scratch, &mut est, &rec);
    assert!(!est.fused.is_empty(), "canonical trip produced an empty estimate");
    (ring.snapshot(), run)
}

#[test]
fn canonical_trip_event_sequence_is_pinned() {
    let (snapshot, _) = canonical_trip();
    let actual = snapshot.sequence_string();
    let expected = "\
trip-start
lane-change-accepted t=109.75s w=3.239m
span-end track:gps
span-end track:speedometer
span-end track:can-bus
span-end track:accelerometer
span-end steering
span-end detection
span-end tracks
span-end fusion
span-end trip
fusion-weights gps=0.203 speedometer=0.290 can-bus=0.304 accelerometer=0.203
trip-end detections=1
dropped=0
";
    assert_eq!(
        actual, expected,
        "trace event sequence drifted.\n--- actual ---\n{actual}--- end ---"
    );
}

#[test]
fn canonical_trip_exports_are_well_formed() {
    let (snapshot, run) = canonical_trip();

    // The Chrome trace parses as JSON and carries one record per event.
    let trace = chrome_trace_json(&snapshot);
    let value =
        serde_json::from_str::<serde_json::Value>(&trace).expect("chrome trace must be valid JSON");
    let events = value.get("traceEvents").and_then(|v| v.as_array()).expect("traceEvents array");
    assert_eq!(events.len(), snapshot.events.len(), "one trace record per ring event");

    // The Prometheus exposition passes the text-format grammar
    // line by line and carries the track verdicts.
    let report = run.report();
    assert_eq!(report.counter("trips-processed"), Some(1));
    assert_eq!(report.counter("tracks-healthy"), Some(4));
    let prom = prometheus_text(&report, &[]);
    validate_prometheus_text(&prom).expect("exposition must satisfy the text-format grammar");
    assert!(prom.contains("\ngradest_tracks_healthy_total 4\n"), "{prom}");
}
