//! Flight-recorder demo: a canonical simulated fleet run with the
//! trace ring teed into the metrics recorder, rendered as a per-trip
//! timeline plus the run's report, and exported in standard telemetry
//! formats.
//!
//! Usage: `cargo run -p gradest-bench --release --bin gradest-trace`
//!
//! Writes to `target/experiment-results/`:
//!
//! * `TRACE_fleet.json` — Chrome/Perfetto `trace_event` JSON; open it
//!   in `ui.perfetto.dev` or `chrome://tracing`.
//! * `gradest-metrics.prom` — Prometheus text exposition of the run's
//!   counters, spans and histograms.

use gradest_bench::report::results_dir;
use gradest_bench::scenarios::red_road_drive;
use gradest_core::cloud::CloudAggregator;
use gradest_core::fleet::FleetEngine;
use gradest_core::pipeline::{EstimatorConfig, GradientEstimator};
use gradest_obs::{
    chrome_trace_json, prometheus_text, validate_prometheus_text, RunRecorder, Tee, TraceRing,
};

/// Trips in the canonical fleet batch.
const TRIPS: usize = 4;
/// Flight-recorder capacity: ample for the canonical batch, so the
/// exported trace is complete (`dropped=0`).
const RING_CAPACITY: usize = 65_536;

fn main() {
    // The canonical fleet: red-road trips with distinct seeds, two
    // workers, cloud fan-in — the same shape `fleet_scaling` times,
    // sized for a readable timeline rather than for throughput.
    let logs: Vec<_> = (0..TRIPS as u64).map(|i| red_road_drive(700 + i).log).collect();
    let road_ids: Vec<u64> = (0..TRIPS as u64).map(|i| i % 2).collect();
    let estimator = GradientEstimator::new(EstimatorConfig::default());
    let engine = FleetEngine::new(estimator, 2);
    let cloud = CloudAggregator::new(5.0);

    let run = RunRecorder::new();
    let ring = TraceRing::with_capacity(RING_CAPACITY);
    let rec = Tee::new(&run, &ring);
    let estimates = engine.process_batch_to_cloud_recorded(&logs, &road_ids, None, &cloud, &rec);
    assert_eq!(estimates.len(), TRIPS, "fleet run lost a trip");

    let snapshot = ring.snapshot();
    println!("{}", snapshot.render());
    let report = run.report();
    println!("{}", report.render());

    let dir = results_dir();
    if let Err(e) = std::fs::create_dir_all(&dir) {
        eprintln!("error: cannot create {}: {e}", dir.display());
        std::process::exit(1);
    }

    let trace_path = dir.join("TRACE_fleet.json");
    if let Err(e) = std::fs::write(&trace_path, chrome_trace_json(&snapshot)) {
        eprintln!("error: cannot write {}: {e}", trace_path.display());
        std::process::exit(1);
    }
    println!(
        "[saved {}] ({} events, {} dropped)",
        trace_path.display(),
        snapshot.events.len(),
        snapshot.dropped
    );

    let prom = prometheus_text(&report, &[]);
    if let Err(e) = validate_prometheus_text(&prom) {
        eprintln!("error: generated exposition failed validation: {e}");
        std::process::exit(1);
    }
    let prom_path = dir.join("gradest-metrics.prom");
    if let Err(e) = std::fs::write(&prom_path, prom) {
        eprintln!("error: cannot write {}: {e}", prom_path.display());
        std::process::exit(1);
    }
    println!("[saved {}]", prom_path.display());
}
