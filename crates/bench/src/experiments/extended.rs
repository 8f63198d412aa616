//! Extended comparison beyond the paper: all six estimators in this
//! repository on the same red-road drive — OPS batch (RTS-smoothed), OPS
//! streaming (causal), altitude EKF (also RTS-smoothed by default), naive
//! barometer-slope, direct Eq 3, and the ANN.
//!
//! Reproduction finding worth stating plainly: with a clean offline
//! scoring protocol, the *acausal* Eq-3 direct inversion (the same
//! physics, symmetric smoothing, no filter) is statistically tied with
//! the full pipeline — the gradient information in the
//! accelerometer/wheel-speed pair is strong enough that any unbiased
//! smoother approaches the same noise floor. What the pipeline adds is
//! everything around that number: causal operation (streaming variant),
//! multi-source fusion with calibrated variances (enabling Eq-6 cloud
//! aggregation), GPS-outage tolerance, and lane-change/S-curve handling.

use crate::report::{pct, print_table, save_json};
use crate::scenarios::{red_road_drive, train_ann, Drive};
use gradest_baselines::altitude_ekf::AltitudeEkf;
use gradest_baselines::baro_slope::BaroSlope;
use gradest_baselines::eq3_direct::Eq3Direct;
use gradest_core::eval::track_mre;
use gradest_core::online::{OnlineEstimator, OnlineSource};
use gradest_core::pipeline::EstimatorConfig;
use gradest_core::track::GradientTrack;
use gradest_geo::refgrade::reference_profile;
use serde::{Deserialize, Serialize};

/// One estimator's score.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MethodScore {
    /// Estimator name.
    pub name: String,
    /// Mean Relative Error.
    pub mre: f64,
    /// Mean absolute error, degrees.
    pub mae_deg: f64,
}

/// Extended comparison result.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Extended {
    /// All methods, best first.
    pub methods: Vec<MethodScore>,
}

fn stream_online(drive: &Drive) -> GradientTrack {
    let mut online = OnlineEstimator::new(EstimatorConfig::default(), Some(drive.route.clone()));
    let (mut gi, mut si, mut ci) = (0usize, 0usize, 0usize);
    let log = &drive.log;
    for imu in &log.imu {
        while gi < log.gps.len() && log.gps[gi].t <= imu.t {
            online.push_gps(log.gps[gi]);
            gi += 1;
        }
        while si < log.speedometer.len() && log.speedometer[si].t <= imu.t {
            online.push_speed(OnlineSource::Speedometer, log.speedometer[si]);
            si += 1;
        }
        while ci < log.can.len() && log.can[ci].t <= imu.t {
            online.push_speed(OnlineSource::CanBus, log.can[ci]);
            ci += 1;
        }
        online.push_imu(*imu);
    }
    online.into_track()
}

/// Runs the six-way comparison on one red-road drive.
pub fn run(seed: u64) -> Extended {
    let drive = red_road_drive(seed);
    let road = drive.route.roads()[0].clone();
    let truth = reference_profile(&road, 1.0, |_| 0.0);
    let ann = train_ann(&drive.route, seed ^ 0x5EED);

    let tracks: Vec<(String, GradientTrack)> = vec![
        ("OPS (batch)".into(), drive.ops().fused),
        ("OPS (streaming)".into(), stream_online(&drive)),
        ("altitude EKF [7]".into(), AltitudeEkf::default().estimate(&drive.log)),
        ("baro slope (naive)".into(), BaroSlope::default().estimate(&drive.log)),
        ("Eq 3 direct [7]".into(), Eq3Direct::default().estimate(&drive.log)),
        ("ANN [8]".into(), ann.estimate(&drive.log)),
    ];

    let mut methods: Vec<MethodScore> = tracks
        .into_iter()
        .map(|(name, track)| {
            let mre = track_mre(&track, &truth, 100.0).unwrap_or(f64::NAN);
            let errs: Vec<f64> = track
                .s
                .iter()
                .zip(&track.theta)
                .filter(|(s, _)| **s > 100.0 && **s < 2100.0)
                .map(|(s, th)| (th - truth.theta_at(*s)).abs().to_degrees())
                .collect();
            let mae = errs.iter().sum::<f64>() / errs.len().max(1) as f64;
            MethodScore { name, mre, mae_deg: mae }
        })
        .collect();
    methods.sort_by(|a, b| a.mre.total_cmp(&b.mre));
    Extended { methods }
}

/// Prints the comparison table.
pub fn print_report(r: &Extended) {
    let rows: Vec<Vec<String>> = r
        .methods
        .iter()
        .map(|m| vec![m.name.clone(), pct(m.mre), format!("{:.3}", m.mae_deg)])
        .collect();
    print_table(
        "Extended comparison — six estimators on the red road",
        &["method", "MRE", "MAE (°)"],
        &rows,
    );
    save_json("extended_baselines", r);
}

#[cfg(test)]
mod tests {
    use super::*;
    use gradest_baselines::altitude_ekf::AltitudeEkfConfig;

    #[test]
    fn orderings_hold() {
        let r = run(11);
        assert_eq!(r.methods.len(), 6);
        let mre = |name: &str| {
            r.methods
                .iter()
                .find(|m| m.name.starts_with(name))
                .map(|m| m.mre)
                .expect("method present")
        };
        // The paper's comparisons: OPS beats both of its baselines in
        // batch form. (The table's altitude EKF runs its RTS pass, so it
        // is acausal, like batch OPS.)
        assert!(mre("OPS (batch)") < mre("altitude EKF"));
        assert!(mre("OPS (batch)") < mre("ANN"));
        // Causal-vs-causal: streaming OPS against the altitude EKF as
        // published (no backward smoothing pass).
        let drive = red_road_drive(11);
        let road = drive.route.roads()[0].clone();
        let truth = reference_profile(&road, 1.0, |_| 0.0);
        let causal_alt =
            AltitudeEkf::new(AltitudeEkfConfig { rts_smoothing: false }).estimate(&drive.log);
        let causal_alt_mre = track_mre(&causal_alt, &truth, 100.0).expect("overlap");
        assert!(mre("OPS (streaming)") < causal_alt_mre);
        assert!(mre("OPS (streaming)") < mre("ANN"));
        // With the RTS pass, batch OPS sits in the top two: the only
        // possible rival is the acausal Eq-3 direct inversion, which uses
        // the same information with symmetric smoothing (see the module
        // docs — that statistical tie is itself a finding).
        let rank = r.methods.iter().position(|m| m.name == "OPS (batch)").unwrap();
        assert!(
            rank <= 1,
            "OPS (batch) rank {rank}: {:?}",
            r.methods.iter().map(|m| (&m.name, m.mre)).collect::<Vec<_>>()
        );
        // The ANN trails the field, as in the paper.
        let ann_rank = r.methods.iter().position(|m| m.name.starts_with("ANN")).unwrap();
        assert!(ann_rank >= 4, "ANN rank {ann_rank}");
        assert!(r.methods.iter().all(|m| m.mre.is_finite()));
    }
}
