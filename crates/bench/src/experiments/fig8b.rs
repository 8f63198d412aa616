//! Figure 8(b) — error CDFs for different numbers of fused tracks.
//!
//! The paper fuses 1–4 velocity-source tracks and reads the error at
//! CDF = 0.5: ~0.23° unfused vs ~0.09° fused, with 3+ tracks enough.

use crate::report::{print_table, save_json};
use crate::scenarios::red_road_drive;
use gradest_core::eval::absolute_errors;
use gradest_core::pipeline::{EstimatorConfig, VelocitySource};
use gradest_geo::refgrade::reference_profile;
use gradest_math::stats::EmpiricalCdf;
use serde::{Deserialize, Serialize};

/// Result for one fusion arity.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FusionLevel {
    /// Number of fused tracks.
    pub k: usize,
    /// Sources fused.
    pub sources: Vec<String>,
    /// Median absolute error (CDF = 0.5), degrees.
    pub median_err_deg: f64,
    /// 25-point CDF curve `(err_deg, F)`.
    pub cdf: Vec<(f64, f64)>,
}

/// Figure 8(b) result.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Fig8b {
    /// One entry per fusion arity 1..=4.
    pub levels: Vec<FusionLevel>,
}

/// The fusion order used (weakest first, as the paper's "no fuse"
/// baseline is a single phone-derived track).
const FUSION_ORDER: [VelocitySource; 4] = [
    VelocitySource::Gps,
    VelocitySource::Accelerometer,
    VelocitySource::Speedometer,
    VelocitySource::CanBus,
];

/// Runs the red-road drive once per fusion arity.
pub fn run(seed: u64) -> Fig8b {
    let drive = red_road_drive(seed);
    let road = drive.route.roads()[0].clone();
    let truth = reference_profile(&road, 1.0, |_| 0.0);
    let mut levels = Vec::new();
    for k in 1..=FUSION_ORDER.len() {
        let sources = FUSION_ORDER[..k].to_vec();
        let est =
            drive.ops_with(EstimatorConfig { sources: sources.clone(), ..Default::default() });
        let errs_deg: Vec<f64> = absolute_errors(&est.fused, &truth, 100.0)
            .into_iter()
            .map(|e| e.to_degrees())
            .collect();
        let cdf = EmpiricalCdf::new(&errs_deg).expect("nonempty errors");
        levels.push(FusionLevel {
            k,
            sources: sources.iter().map(|s| s.label().to_string()).collect(),
            median_err_deg: cdf.value_at(0.5),
            cdf: cdf.curve(25),
        });
    }
    Fig8b { levels }
}

/// Prints the medians and CDF curves.
pub fn print_report(r: &Fig8b) {
    let rows: Vec<Vec<String>> = r
        .levels
        .iter()
        .map(|l| vec![l.k.to_string(), l.sources.join("+"), format!("{:.3}", l.median_err_deg)])
        .collect();
    print_table(
        "Fig 8(b) — median |error| vs fused tracks (paper: 0.23 unfused → ~0.09 fused)",
        &["k", "sources", "median err (°)"],
        &rows,
    );
    for l in &r.levels {
        let rows: Vec<Vec<String>> =
            l.cdf.iter().map(|(x, f)| vec![format!("{x:.3}"), format!("{f:.3}")]).collect();
        print_table(&format!("CDF, k = {}", l.k), &["err (°)", "F"], &rows);
    }
    save_json("fig8b_track_fusion_cdf", r);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fusion_reduces_median_error() {
        // Mean over three drives: a single drive's 1-track/4-track
        // ratio swings widely with sensor-noise luck.
        let runs: Vec<Fig8b> = [20, 21, 22].iter().map(|&s| run(s)).collect();
        let mut m1_sum = 0.0;
        let mut m4_sum = 0.0;
        for r in &runs {
            assert_eq!(r.levels.len(), 4);
            m1_sum += r.levels[0].median_err_deg;
            m4_sum += r.levels[3].median_err_deg;
            // CDFs are monotone.
            for l in &r.levels {
                for w in l.cdf.windows(2) {
                    assert!(w[1].1 >= w[0].1);
                }
            }
        }
        assert!(
            m4_sum < 0.75 * m1_sum,
            "fusing 4 tracks ({m4_sum}) should beat the single track ({m1_sum})"
        );
    }
}
