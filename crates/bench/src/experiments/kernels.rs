//! Kernel-level microbenches: the three inner loops the per-trip hot
//! path spends its time in, each isolated from the pipeline around it.
//!
//! Not a paper artifact — an engineering tier below `BENCH_pipeline`:
//! when the trip-level numbers move, these localize the change to a
//! kernel. Emits `BENCH_kernels.json` with:
//!
//! * `ekf_lanes_x4` — one predict/update step of four sensor tracks as
//!   one SoA [`EkfLanes`] sweep;
//! * `lowess_uniform_window` — a full uniform-grid LOWESS smoothing
//!   pass over a red-road-sized steering series (the blocked
//!   first-pass convolution dominates);
//! * `steering_profile` — the `w_steer = ŵ_vehicle − w_road` segment
//!   sweep over the same trip's columnar IMU.

use crate::perfbench::{run_bench, BenchReport};
use crate::report::{print_table, save_json};
use crate::scenarios::red_road_drive;
use gradest_core::{EkfConfig, EkfLanes, MAX_LANES};
use gradest_math::lowess::{lowess_into, LowessScratch};
use gradest_sensors::alignment::{steering_rate_profile_into, WRoadScratch};
use gradest_sensors::columnar::ImuColumns;
use serde::{Deserialize, Serialize};
use std::hint::black_box;

/// Kernel microbench result (`BENCH_kernels.json`).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct KernelBench {
    /// EKF steps per timed sample (one step = predict + periodic
    /// updates for all four tracks).
    pub ekf_steps: u64,
    /// One four-lane SoA sweep per step.
    pub ekf_lanes_x4: BenchReport,
    /// Samples in the LOWESS input series.
    pub lowess_samples: usize,
    /// One full uniform-grid smoothing pass per op.
    pub lowess_uniform_window: BenchReport,
    /// IMU samples in the steering-profile input.
    pub steering_samples: usize,
    /// One full steering-rate profile per op (map-matched `w_road`
    /// staging plus the per-sample segment sweep).
    pub steering_profile: BenchReport,
}

/// Runs the kernel microbenches. `samples` is the timed repetitions per
/// bench (each containing many kernel operations).
pub fn run(seed: u64, samples: usize) -> KernelBench {
    let drive = red_road_drive(seed);
    let cols = ImuColumns::from_samples(&drive.log.imu);
    let dt = drive.log.imu_dt();

    // EKF step kernel. A synthetic but trip-shaped excitation (the
    // exact values don't matter for timing; they must only keep the
    // state finite), with one velocity update per lane every fifth
    // step — the 10 Hz speedometer/CAN cadence against a 50 Hz IMU.
    let ekf_steps: u64 = 4096;
    let accel = |k: u64| ((k as f64) * 0.013).sin() * 0.8;
    let ekf_lanes_x4 = run_bench("ekf_lanes_x4_step", samples, ekf_steps, || {
        let mut lanes = EkfLanes::new(EkfConfig::default(), [12.0, 13.0, 14.0, 15.0]);
        for k in 0..ekf_steps {
            lanes.predict(accel(k), dt);
            for l in 0..MAX_LANES {
                if k % 5 == l as u64 % 5 {
                    lanes.update(l, 12.0 + l as f64, 0.25);
                }
            }
        }
        for l in 0..MAX_LANES {
            black_box(lanes.theta(l));
        }
    });

    // LOWESS kernel: the trip's raw yaw-rate series on its uniform
    // 50 Hz grid, with the pipeline-sized ~1.5 s window.
    let lowess_samples = cols.len();
    let window = 75.0f64;
    let fraction = (window / lowess_samples as f64).clamp(1e-3, 1.0);
    let mut lowess_scratch = LowessScratch::new();
    let mut fitted = Vec::new();
    lowess_into(&cols.t, &cols.gyro_z, fraction, &mut lowess_scratch, &mut fitted)
        .expect("uniform-grid lowess over trip gyro");
    let lowess_uniform_window = run_bench("lowess_uniform_window", samples, 1, || {
        lowess_into(&cols.t, &cols.gyro_z, fraction, &mut lowess_scratch, &mut fitted)
            .expect("uniform-grid lowess over trip gyro");
        black_box(fitted.last().copied());
    });

    // Steering-profile kernel: warm scratch, full map-matched profile.
    let mut wroad_scratch = WRoadScratch::default();
    let mut w = Vec::new();
    let steering_profile = run_bench("steering_profile", samples, 1, || {
        steering_rate_profile_into(
            &cols.t,
            &cols.gyro_z,
            &drive.log.gps,
            Some(&drive.route),
            &mut wroad_scratch,
            &mut w,
        );
        black_box(w.last().copied());
    });

    KernelBench {
        ekf_steps,
        ekf_lanes_x4,
        lowess_samples,
        lowess_uniform_window,
        steering_samples: cols.len(),
        steering_profile,
    }
}

/// Prints the kernel table and writes `BENCH_kernels.json`.
pub fn print_report(r: &KernelBench) {
    let rows: Vec<Vec<String>> = [&r.ekf_lanes_x4, &r.lowess_uniform_window, &r.steering_profile]
        .iter()
        .map(|b| {
            vec![
                b.name.clone(),
                format!("{:.1}", b.median_ns_per_op),
                format!("{:.0}", b.ops_per_sec),
            ]
        })
        .collect();
    print_table(
        &format!(
            "Kernel microbenches ({} EKF steps/sample, {} LOWESS samples)",
            r.ekf_steps, r.lowess_samples
        ),
        &["kernel", "ns/op", "op/s"],
        &rows,
    );
    save_json("BENCH_kernels", r);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_bench_runs_and_reports() {
        let r = run(402, 1);
        assert_eq!(r.ekf_lanes_x4.ops_per_sample, r.ekf_steps);
        assert!(r.lowess_samples > 1000);
        assert_eq!(r.steering_samples, r.lowess_samples);
        for b in [&r.ekf_lanes_x4, &r.lowess_uniform_window, &r.steering_profile] {
            assert!(b.median_ns_per_op > 0.0, "{} measured nothing", b.name);
        }
    }

    #[test]
    fn kernel_json_round_trips() {
        let r = run(403, 1);
        let json = serde_json::to_string_pretty(&r).expect("serialize");
        let back: KernelBench = serde_json::from_str(&json).expect("deserialize");
        assert_eq!(back, r, "BENCH_kernels.json does not round-trip");
    }
}
