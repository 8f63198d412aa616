//! Micro-benchmarks of the estimation kernels and the parallel batch
//! machinery: EKF step throughput, LOWESS smoothing, the lane-change
//! detector, track fusion, the single-trip pipeline, the fleet worker
//! pool at 1 and N workers, and concurrent cloud uploads.
//!
//! ```text
//! cargo bench -p gradest-bench --bench perf
//! ```

use gradest_bench::perfbench::{run_bench, BenchReport};
use gradest_core::cloud::CloudAggregator;
use gradest_core::ekf::EkfConfig;
use gradest_core::ekf_lanes::{EkfLanes, MAX_LANES};
use gradest_core::fleet::FleetEngine;
use gradest_core::fusion::fuse_tracks;
use gradest_core::lane_change::LaneChangeDetector;
use gradest_core::pipeline::{EstimatorConfig, GradientEstimator};
use gradest_core::steering::{smooth_profile, SmoothedProfile};
use gradest_core::track::GradientTrack;
use gradest_emissions::FuelModel;
use gradest_geo::generate::red_road;
use gradest_geo::Route;
use gradest_sensors::suite::{SensorConfig, SensorLog, SensorSuite};
use gradest_sim::trip::{simulate_trip, TripConfig};
use std::hint::black_box;

fn ekf_step() -> BenchReport {
    let mut ekf = EkfLanes::new(EkfConfig::default(), [15.0; MAX_LANES]);
    run_bench("ekf_predict_update", 7, 100_000, || {
        for _ in 0..100_000 {
            ekf.predict(black_box(0.5), 0.02);
            ekf.update(0, black_box(15.0), 0.05);
            black_box(ekf.theta(0));
        }
    })
}

fn lowess_smoothing() -> BenchReport {
    // 60 s of 50 Hz steering data.
    let raw: Vec<(f64, f64)> = (0..3000)
        .map(|i| {
            let t = i as f64 * 0.02;
            (t, 0.02 * (t * 7.3).sin() + 0.1 * (t / 8.0).sin())
        })
        .collect();
    run_bench("lowess_smooth_3000", 7, 10, || {
        for _ in 0..10 {
            black_box(smooth_profile(black_box(&raw), 0.8));
        }
    })
}

fn lane_change_detection() -> BenchReport {
    let dt = 0.02;
    let profile = SmoothedProfile {
        t: (0..6000).map(|i| i as f64 * dt).collect(),
        w: (0..6000)
            .map(|i| {
                let t = i as f64 * dt;
                if (30.0..34.0).contains(&t) {
                    0.15 * (std::f64::consts::TAU * (t - 30.0) / 4.0).sin()
                } else {
                    0.003 * (t * 9.1).sin()
                }
            })
            .collect(),
    };
    let det = LaneChangeDetector::default();
    run_bench("lane_change_detect_6000", 7, 20, || {
        for _ in 0..20 {
            black_box(det.detect(black_box(&profile), &|_| 12.0));
        }
    })
}

fn track_fusion() -> BenchReport {
    let mk = |offset: f64| {
        let mut t = GradientTrack::new("t");
        for i in 0..10_000 {
            t.push(i as f64, 0.03 + offset, 1e-4 + offset.abs());
        }
        t
    };
    let tracks = vec![mk(0.0), mk(0.002), mk(-0.001), mk(0.004)];
    run_bench("fuse_4_tracks_10000", 7, 10, || {
        for _ in 0..10 {
            black_box(fuse_tracks(black_box(&tracks)).expect("aligned"));
        }
    })
}

fn red_road_batch(n: u64) -> (Route, Vec<SensorLog>) {
    let route = Route::new(vec![red_road()]).expect("valid route");
    let logs = (0..n)
        .map(|seed| {
            let traj = simulate_trip(&route, &TripConfig::default(), 7 + seed);
            SensorSuite::new(SensorConfig::default()).run(&traj, 7 + seed)
        })
        .collect();
    (route, logs)
}

fn pipeline_single_trip(route: &Route, log: &SensorLog) -> BenchReport {
    let estimator = GradientEstimator::new(EstimatorConfig::default());
    run_bench("pipeline_estimate_single_trip", 5, 1, || {
        black_box(estimator.estimate(black_box(log), Some(route)));
    })
}

fn fleet_batch(route: &Route, logs: &[SensorLog], workers: usize) -> BenchReport {
    let estimator = GradientEstimator::new(EstimatorConfig::default());
    let engine = FleetEngine::new(estimator, workers);
    run_bench(
        &format!("fleet_batch_{}_trips_{workers}_workers", logs.len()),
        3,
        logs.len() as u64,
        || {
            let out = engine.process_batch(black_box(logs), Some(route));
            assert_eq!(out.len(), logs.len());
        },
    )
}

fn cloud_upload_contention(threads: usize) -> BenchReport {
    let uploads: Vec<(u64, GradientTrack)> = (0..64u64)
        .map(|i| {
            let mut t = GradientTrack::new(format!("v{i}"));
            for j in 0..400 {
                t.push(j as f64 * 5.0, 0.02, 1e-4);
            }
            (i % 8, t)
        })
        .collect();
    run_bench("cloud_upload_contention", 7, uploads.len() as u64, || {
        let cloud = CloudAggregator::new(5.0);
        std::thread::scope(|scope| {
            for chunk in uploads.chunks(uploads.len().div_ceil(threads)) {
                let cloud = &cloud;
                scope.spawn(move || {
                    for (road, track) in chunk {
                        cloud.upload(*road, track);
                    }
                });
            }
        });
        assert_eq!(cloud.uploads(), uploads.len() as u64);
    })
}

fn vsp_eval() -> BenchReport {
    let model = FuelModel::default();
    run_bench("vsp_fuel_rate", 7, 1_000_000, || {
        for _ in 0..1_000_000 {
            black_box(model.fuel_rate_gph(black_box(11.1), black_box(0.3), black_box(0.04)));
        }
    })
}

fn main() {
    let workers = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1).clamp(1, 4);
    let (route, logs) = red_road_batch(16);
    let reports = [
        ekf_step(),
        lowess_smoothing(),
        lane_change_detection(),
        track_fusion(),
        pipeline_single_trip(&route, &logs[0]),
        fleet_batch(&route, &logs, 1),
        fleet_batch(&route, &logs, workers),
        cloud_upload_contention(workers),
        vsp_eval(),
    ];
    println!("perf micro-benchmarks ({workers} worker(s) for parallel targets):");
    for r in &reports {
        println!("  {}", r.line());
    }
}
