//! Bit-level pins of every baseline's output on one red-road drive.

use gradest_baselines::altitude_ekf::{AltitudeEkf, AltitudeEkfConfig};
use gradest_baselines::ann::{AnnConfig, AnnGradientEstimator, TrainingSet};
use gradest_baselines::baro_slope::BaroSlope;
use gradest_baselines::eq3_direct::Eq3Direct;
use gradest_baselines::mlp::TrainConfig;
use gradest_core::track::GradientTrack;
use gradest_geo::generate::red_road;
use gradest_geo::Route;
use gradest_sensors::suite::{SensorConfig, SensorSuite};
use gradest_sim::driver::DriverProfile;
use gradest_sim::trip::{simulate_trip, TripConfig};

/// Word-wise FNV-1a over the bits of a track: its length, then `s`, θ
/// and `P` of every sample.
fn track_digest(track: &GradientTrack) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut mix = |x: u64| h = (h ^ x).wrapping_mul(0x0100_0000_01b3);
    mix(track.len() as u64);
    for ((s, theta), var) in track.s.iter().zip(&track.theta).zip(&track.variance) {
        for x in [s, theta, var] {
            mix(x.to_bits());
        }
    }
    h
}

/// The altitude EKF, smoothed or forward-only, with every other setting
/// at its default whatever settings the config carries (hence the
/// allowance: the update is needless when `rts_smoothing` is the only
/// one).
#[allow(clippy::needless_update)]
fn altitude_ekf(rts_smoothing: bool) -> AltitudeEkf {
    AltitudeEkf::new(AltitudeEkfConfig { rts_smoothing, ..AltitudeEkfConfig::default() })
}

#[test]
fn baseline_outputs_are_pinned() {
    // Any change to a digest is a change to that baseline's output.
    // The red-road drive `pipeline_hotpath` times (seed 77).
    let route = Route::new(vec![red_road()]).unwrap();
    let trip = TripConfig {
        driver: DriverProfile { lane_change_rate_per_km: 0.224, ..Default::default() },
        ..Default::default()
    };
    let traj = simulate_trip(&route, &trip, 77);
    let log = SensorSuite::new(SensorConfig::default()).run(&traj, 77 * 31 + 7);

    let ekf_rts = track_digest(&altitude_ekf(true).estimate(&log));
    let ekf_forward = track_digest(&altitude_ekf(false).estimate(&log));
    let baro_slope = track_digest(&BaroSlope::default().estimate(&log));
    let eq3 = track_digest(&Eq3Direct::default().estimate(&log));
    // The ANN trains on this drive's own truth, at the unit tests'
    // reduced epoch count.
    let truth = |t: f64| {
        let samples = traj.samples();
        let idx = samples
            .binary_search_by(|s| s.t.total_cmp(&t))
            .unwrap_or_else(|i| i.min(samples.len() - 1));
        samples[idx].theta
    };
    let set = TrainingSet::from_log(&log, truth, 4320);
    let small =
        AnnConfig { train: TrainConfig { epochs: 20, ..Default::default() }, ..Default::default() };
    let ann = track_digest(&AnnGradientEstimator::train(&set, &small).estimate(&log));

    assert_eq!(
        [ekf_rts, ekf_forward, baro_slope, eq3, ann],
        [
            0xb978_4dbf_5cf9_0232,
            0xb74a_fb30_2237_bca7,
            0xbcb4_a9b2_e0c8_e07c,
            0x80a6_dd47_affc_e9b7,
            0xbd21_d715_78b3_e837,
        ],
        "{ekf_rts:#018x} {ekf_forward:#018x} {baro_slope:#018x} {eq3:#018x} {ann:#018x}"
    );
}
