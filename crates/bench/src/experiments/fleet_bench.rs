//! Fleet-scale throughput: the [`FleetEngine`] worker pool and the
//! concurrent cloud aggregator under contention.
//!
//! Not a paper artifact — an engineering benchmark for the batch
//! machinery the cloud experiments (Figure 9) run on. Emits
//! `BENCH_fleet.json` with machine-readable timings so regressions in
//! the parallel path are diffable across commits.

use crate::perfbench::{run_bench, BenchReport};
use crate::report::{print_table, save_json};
use crate::scenarios::red_road_drive;
use gradest_core::cloud::{CloudAggregator, CloudSnapshot};
use gradest_core::fleet::FleetEngine;
use gradest_core::pipeline::{EstimatorConfig, GradientEstimator};
use gradest_core::track::GradientTrack;
use gradest_obs::{RunRecorder, RunReport};
use gradest_sensors::suite::SensorLog;
use serde::{Deserialize, Serialize};

/// Fleet benchmark result (`BENCH_fleet.json`).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FleetBench {
    /// Trips per batch.
    pub trips: usize,
    /// Worker count of the parallel configuration.
    pub workers: usize,
    /// CPUs visible to this process (speedup is bounded by it).
    pub available_parallelism: usize,
    /// Single-trip pipeline latency.
    pub single_trip: BenchReport,
    /// Batch throughput with one worker.
    pub batch_1_worker: BenchReport,
    /// Batch throughput with `workers` workers.
    pub batch_n_workers: BenchReport,
    /// Concurrent uploads into one lock-striped aggregator.
    pub cloud_upload_contention: BenchReport,
    /// Wall-clock speedup of `workers` workers over one.
    pub speedup: f64,
    /// Whether the 1-worker and N-worker outputs were bit-identical.
    pub outputs_identical: bool,
    /// Aggregator state after one parallel batch fanned into the cloud:
    /// the upload counter must equal the trip count, making lost
    /// uploads diffable across commits.
    pub cloud: CloudSnapshot,
    /// Observability report from the recorded cloud fan-in batch:
    /// fleet-batch / worker-trip / cloud-upload spans, job counters,
    /// and the worker-utilization histogram.
    pub obs: RunReport,
}

/// Simulates `n` red-road trips with distinct seeds.
fn simulate_batch(seed: u64, n: usize) -> Vec<SensorLog> {
    (0..n as u64).map(|i| red_road_drive(seed + i).log).collect()
}

/// Uploads used by the contention benchmark: dense per-trip tracks
/// spread over a handful of roads so stripes genuinely contend.
fn contention_tracks() -> Vec<(u64, GradientTrack)> {
    (0..64u64)
        .map(|i| {
            let mut t = GradientTrack::new(format!("v{i}"));
            for j in 0..400 {
                t.push(j as f64 * 5.0, 0.02 + (i as f64) * 1e-4, 1e-4);
            }
            (i % 8, t)
        })
        .collect()
}

/// Runs the fleet scaling benchmark on a `trips`-trip batch.
pub fn run(seed: u64, trips: usize, workers: usize) -> FleetBench {
    let logs = simulate_batch(seed, trips);
    let estimator = GradientEstimator::new(EstimatorConfig::default());

    let single_trip = run_bench("pipeline_estimate_single_trip", 3, 1, || {
        let est = estimator.estimate(&logs[0], None);
        assert!(!est.fused.is_empty());
    });

    let serial_engine = FleetEngine::new(estimator.clone(), 1);
    let parallel_engine = FleetEngine::new(estimator.clone(), workers);
    let serial_out = serial_engine.process_batch(&logs, None);
    let parallel_out = parallel_engine.process_batch(&logs, None);
    let outputs_identical = serial_out == parallel_out;

    let batch_1_worker =
        run_bench(&format!("fleet_batch_{trips}_trips_1_workers"), 3, trips as u64, || {
            let out = serial_engine.process_batch(&logs, None);
            assert_eq!(out.len(), logs.len());
        });
    let batch_n_workers =
        run_bench(&format!("fleet_batch_{trips}_trips_{workers}_workers"), 3, trips as u64, || {
            let out = parallel_engine.process_batch(&logs, None);
            assert_eq!(out.len(), logs.len());
        });

    let uploads = contention_tracks();
    let cloud_upload_contention =
        run_bench("cloud_upload_contention", 5, uploads.len() as u64, || {
            let cloud = CloudAggregator::new(5.0);
            std::thread::scope(|scope| {
                for chunk in uploads.chunks(uploads.len().div_ceil(workers.max(1))) {
                    let cloud = &cloud;
                    scope.spawn(move || {
                        for (road, track) in chunk {
                            cloud.upload(*road, track);
                        }
                    });
                }
            });
            assert_eq!(cloud.uploads(), uploads.len() as u64);
        });

    // One parallel batch fanned into a fresh aggregator: the snapshot's
    // upload counter is the per-run receipt that no worker's upload was
    // lost (the loom model checks the same protocol under noise). The
    // run is recorded, so the obs counters double-check the receipt and
    // the report lands in `BENCH_fleet.json` for bench-gate diffs.
    let rec = RunRecorder::new();
    let cloud_sink = CloudAggregator::new(5.0);
    let road_ids: Vec<u64> = (0..logs.len() as u64).map(|i| i % 8).collect();
    parallel_engine.process_batch_to_cloud_recorded(&logs, &road_ids, None, &cloud_sink, &rec);
    let cloud = cloud_sink.snapshot();
    assert_eq!(cloud.uploads, logs.len() as u64, "cloud fan-in lost an upload");
    let obs = rec.report();
    assert_eq!(obs.counter("fleet-jobs-completed"), Some(trips as u64), "worker lost a job");
    assert_eq!(obs.counter("cloud-uploads"), Some(trips as u64), "recorded uploads diverged");

    let speedup = batch_1_worker.median_ns_per_op / batch_n_workers.median_ns_per_op.max(1.0);
    FleetBench {
        trips,
        workers,
        available_parallelism: std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1),
        single_trip,
        batch_1_worker,
        batch_n_workers,
        cloud_upload_contention,
        speedup,
        outputs_identical,
        cloud,
        obs,
    }
}

/// Prints the timing table and writes `BENCH_fleet.json`.
pub fn print_report(r: &FleetBench) {
    let rows: Vec<Vec<String>> =
        [&r.single_trip, &r.batch_1_worker, &r.batch_n_workers, &r.cloud_upload_contention]
            .iter()
            .map(|b| {
                vec![
                    b.name.clone(),
                    format!("{:.2}", b.median_ns_per_op / 1e6),
                    format!("{:.2}", b.ops_per_sec),
                ]
            })
            .collect();
    print_table(
        &format!(
            "Fleet scaling — {} trips, {} workers ({} CPU(s) visible): {:.2}x, identical={}, \
             cloud uploads={} over {} road(s)",
            r.trips,
            r.workers,
            r.available_parallelism,
            r.speedup,
            r.outputs_identical,
            r.cloud.uploads,
            r.cloud.roads
        ),
        &["bench", "ms/op", "op/s"],
        &rows,
    );
    println!("\n== Recorded cloud fan-in batch ==\n{}", r.obs.render());
    save_json("BENCH_fleet", r);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_fleet_bench_runs_and_is_deterministic() {
        // Tiny batch: the point is plumbing, not timing fidelity.
        let r = run(400, 2, 2);
        assert_eq!(r.trips, 2);
        assert!(r.outputs_identical, "1-worker vs N-worker outputs differ");
        assert!(r.speedup > 0.0);
        assert!(r.single_trip.median_ns_per_op > 0.0);
        assert_eq!(r.cloud.uploads, 2, "one upload per trip");
        assert_eq!(r.cloud.roads, 2, "distinct road ids per trip in a 2-trip batch");
        assert_eq!(r.obs.counter("fleet-jobs-submitted"), Some(2));
        assert_eq!(r.obs.counter("trips-processed"), Some(2));
        assert!(r.obs.span("fleet-batch").is_some(), "missing fleet-batch span");
        assert_eq!(r.obs.span("fleet-worker-trip").map(|s| s.count), Some(2));
    }
}
