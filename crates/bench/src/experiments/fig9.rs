//! Figure 9 — large-scale road-network evaluation.
//!
//! Figure 9(a): the estimated gradient map of the whole network (the
//! paper reports MRE 12.4 %, close to the small-scale result, under lane
//! changes and GPS outages). Figure 9(b): error CDFs of OPS vs the two
//! baselines (paper medians 0.09 / 0.13 / 0.36), plus the headline 22 %
//! error reduction.

use crate::report::{pct, print_table, save_json};
use crate::scenarios::{network_routes, train_ann, Drive};
use gradest_baselines::altitude_ekf::{AltitudeEkf, AltitudeEkfConfig};
use gradest_core::track::GradientTrack;
use gradest_geo::generate::city_network;
use gradest_math::stats::EmpiricalCdf;
use serde::{Deserialize, Serialize};

/// Burn-in skipped at the start of each drive, metres.
const SKIP_M: f64 = 100.0;

/// Pooled statistics for one estimator.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MethodStats {
    /// Estimator name.
    pub name: String,
    /// Median absolute error (CDF = 0.5), degrees.
    pub median_err_deg: f64,
    /// Mean Relative Error over all pooled samples.
    pub mre: f64,
    /// 25-point CDF curve `(err_deg, F)`.
    pub cdf: Vec<(f64, f64)>,
}

/// One road of the Figure 9(a) gradient map.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MapRow {
    /// Road id.
    pub road_id: u64,
    /// Mean estimated |gradient| over traversals, degrees.
    pub est_deg: f64,
    /// Mean true |gradient|, degrees.
    pub true_deg: f64,
}

/// Figure 9 result (drives both 9(a) and 9(b) reports).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Fig9 {
    /// Kilometres driven.
    pub km_driven: f64,
    /// OPS statistics.
    pub ops: MethodStats,
    /// Altitude-EKF baseline statistics.
    pub ekf: MethodStats,
    /// ANN baseline statistics.
    pub ann: MethodStats,
    /// Error reduction of OPS vs the stronger baseline (paper: 22 %).
    pub error_reduction_vs_ekf: f64,
    /// Gradient-map rows (steepest roads first).
    pub map_rows: Vec<MapRow>,
}

/// Experiment scale knobs.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Fig9Config {
    /// Network generator seed.
    pub network_seed: u64,
    /// Number of routes driven.
    pub routes: usize,
    /// Minimum route length, metres.
    pub min_route_m: f64,
}

impl Default for Fig9Config {
    fn default() -> Self {
        Fig9Config { network_seed: 42, routes: 6, min_route_m: 4000.0 }
    }
}

/// Runs the network evaluation.
pub fn run(cfg: &Fig9Config) -> Fig9 {
    let network = city_network(cfg.network_seed);
    let routes = network_routes(&network, cfg.routes, cfg.min_route_m, cfg.network_seed ^ 0xF19);
    assert!(!routes.is_empty(), "no routes found");

    // ANN trained once on a survey drive over the first route, applied to
    // every evaluation drive (the realistic generalization setting).
    let ann = train_ann(&routes[0], cfg.network_seed ^ 0xA22);

    let mut km = 0.0;
    let mut errs: [Vec<f64>; 3] = [Vec::new(), Vec::new(), Vec::new()];
    let mut abs_truth = Vec::new();
    let mut road_est: std::collections::HashMap<u64, (f64, f64, usize)> =
        std::collections::HashMap::new();

    for (i, route) in routes.iter().enumerate() {
        // Every drive has lane changes and a mid-trip GPS outage.
        let drive = Drive::simulate(route.clone(), 5000 + i as u64, 0.224, vec![(90.0, 120.0)]);
        km += drive.traj.distance_m() / 1000.0;

        let ops_est = drive.ops();
        // The paper's [7] baseline is a forward-only online filter, so the
        // headline comparison runs it without the RTS enhancement this
        // repository adds (that variant is scored in extended_baselines).
        let ekf_track =
            AltitudeEkf::new(AltitudeEkfConfig { rts_smoothing: false }).estimate(&drive.log);
        let ann_track = ann.estimate(&drive.log);

        let mut collect = |track: &GradientTrack, bucket: usize, map: bool| {
            let mut s = SKIP_M;
            while s < route.length().min(drive.traj.distance_m()) {
                if let Some(th) = track.theta_at(s) {
                    let truth = route.gradient_at(s);
                    errs[bucket].push((th - truth).abs().to_degrees());
                    if bucket == 0 {
                        abs_truth.push(truth.abs().to_degrees());
                    }
                    if map {
                        let (road_idx, _) = route.locate(s);
                        let id = route.roads()[road_idx].id();
                        let e = road_est.entry(id).or_insert((0.0, 0.0, 0));
                        e.0 += th.abs().to_degrees();
                        e.1 += truth.abs().to_degrees();
                        e.2 += 1;
                    }
                }
                s += 25.0;
            }
        };
        collect(&ops_est.fused, 0, true);
        collect(&ekf_track, 1, false);
        collect(&ann_track, 2, false);
    }

    let mean_truth = abs_truth.iter().sum::<f64>() / abs_truth.len().max(1) as f64;
    let stats = |name: &str, errs: &[f64]| -> MethodStats {
        let cdf = EmpiricalCdf::new(errs).expect("nonempty pooled errors");
        MethodStats {
            name: name.into(),
            median_err_deg: cdf.value_at(0.5),
            mre: errs.iter().sum::<f64>() / errs.len() as f64 / mean_truth,
            cdf: cdf.curve(25),
        }
    };
    let ops = stats("OPS", &errs[0]);
    let ekf = stats("EKF", &errs[1]);
    let ann = stats("ANN", &errs[2]);
    let reduction = (ekf.median_err_deg - ops.median_err_deg) / ekf.median_err_deg;

    let mut map_rows: Vec<MapRow> = road_est
        .into_iter()
        .map(|(id, (est, truth, n))| MapRow {
            road_id: id,
            est_deg: est / n as f64,
            true_deg: truth / n as f64,
        })
        .collect();
    map_rows.sort_by(|a, b| b.true_deg.total_cmp(&a.true_deg));

    Fig9 { km_driven: km, ops, ekf, ann, error_reduction_vs_ekf: reduction, map_rows }
}

/// Prints the Figure 9(a) gradient map summary.
pub fn print_report_map(r: &Fig9) {
    let rows: Vec<Vec<String>> = r
        .map_rows
        .iter()
        .take(15)
        .map(|m| {
            vec![m.road_id.to_string(), format!("{:.2}", m.est_deg), format!("{:.2}", m.true_deg)]
        })
        .collect();
    print_table(
        &format!(
            "Fig 9(a) — network gradient map, steepest roads ({:.1} km driven; paper MRE 12.4%)",
            r.km_driven
        ),
        &["road", "est |θ| (°)", "true |θ| (°)"],
        &rows,
    );
    println!("network MRE (OPS): {}", pct(r.ops.mre));
    save_json("fig9a_network_map", r);
}

/// Prints the Figure 9(b) CDF comparison and the 22 % headline.
pub fn print_report_cdf(r: &Fig9) {
    let rows: Vec<Vec<String>> = [&r.ops, &r.ekf, &r.ann]
        .iter()
        .map(|m| vec![m.name.clone(), format!("{:.3}", m.median_err_deg), pct(m.mre)])
        .collect();
    print_table(
        "Fig 9(b) — pooled error statistics (paper medians: OPS 0.09, EKF 0.13, ANN 0.36)",
        &["method", "median err (°)", "MRE"],
        &rows,
    );
    for m in [&r.ops, &r.ekf, &r.ann] {
        let rows: Vec<Vec<String>> =
            m.cdf.iter().map(|(x, f)| vec![format!("{x:.3}"), format!("{f:.3}")]).collect();
        print_table(&format!("CDF — {}", m.name), &["err (°)", "F"], &rows);
    }
    println!(
        "headline: OPS reduces the median error vs the EKF baseline by {} (paper: 22%)",
        pct(r.error_reduction_vs_ekf)
    );
    save_json("fig9b_network_cdf", r);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_network_run_preserves_ordering() {
        // Two short routes keep the test affordable.
        let cfg = Fig9Config { network_seed: 42, routes: 2, min_route_m: 2500.0 };
        let r = run(&cfg);
        assert!(r.km_driven > 4.0);
        assert!(
            r.ops.median_err_deg < r.ekf.median_err_deg,
            "OPS {} !< EKF {}",
            r.ops.median_err_deg,
            r.ekf.median_err_deg
        );
        assert!(
            r.ops.median_err_deg < r.ann.median_err_deg,
            "OPS {} !< ANN {}",
            r.ops.median_err_deg,
            r.ann.median_err_deg
        );
        assert!(r.error_reduction_vs_ekf > 0.0);
        assert!(!r.map_rows.is_empty());
    }
}
