//! Figure 10 — city-scale fuel-consumption and CO₂-emission maps.
//!
//! Figure 10(a): per-road average fuel consumption per hour at a 40 km/h
//! city cruise, gradient-aware. Figure 10(b): CO₂ intensity
//! (tons/km/hour) after weighting by AADT traffic volumes — whose spatial
//! pattern differs from the fuel map exactly as the paper observes,
//! because volume and gradient are independent.

use crate::report::{print_table, save_json};
use gradest_emissions::map::{EmissionMap, FuelMap};
use gradest_emissions::{FuelModel, Species, TrafficModel};
use gradest_geo::generate::city_network;
use serde::{Deserialize, Serialize};

/// Cruise speed of the paper's Figure 10(a), m/s (40 km/h).
const CRUISE_MPS: f64 = 40.0 / 3.6;

/// Figure 10 result.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Fig10 {
    /// `(road id, signed mean θ°, fuel gal/h)` for the top fuel burners.
    pub top_fuel: Vec<(u64, f64, f64)>,
    /// `(road id, AADT/24, CO₂ t/km/h)` for the top emitters.
    pub top_co2: Vec<(u64, f64, f64)>,
    /// Mean per-road fuel rate, gal/h.
    pub mean_fuel_gph: f64,
    /// Network-total CO₂, tons/hour.
    pub total_co2_tons_per_hour: f64,
    /// Rank correlation between per-road signed mean gradient and fuel
    /// rate (signed, because a mostly-downhill road idles at the floor —
    /// |gradient| alone does not predict fuel).
    pub fuel_gradient_correlation: f64,
    /// Rank correlation between fuel rate and CO₂ intensity (the paper
    /// notes the distributions differ because traffic reshuffles them).
    pub fuel_co2_correlation: f64,
}

/// Spearman-style rank correlation.
fn rank_correlation(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len());
    let rank = |v: &[f64]| -> Vec<f64> {
        let mut idx: Vec<usize> = (0..v.len()).collect();
        idx.sort_by(|&i, &j| v[i].total_cmp(&v[j]));
        let mut r = vec![0.0; v.len()];
        for (pos, &i) in idx.iter().enumerate() {
            r[i] = pos as f64;
        }
        r
    };
    let (ra, rb) = (rank(a), rank(b));
    let n = a.len() as f64;
    let ma = ra.iter().sum::<f64>() / n;
    let mb = rb.iter().sum::<f64>() / n;
    let cov: f64 = ra.iter().zip(&rb).map(|(x, y)| (x - ma) * (y - mb)).sum();
    let va: f64 = ra.iter().map(|x| (x - ma) * (x - ma)).sum();
    let vb: f64 = rb.iter().map(|y| (y - mb) * (y - mb)).sum();
    cov / (va.sqrt() * vb.sqrt()).max(1e-12)
}

/// Computes both maps over the synthetic city.
pub fn run(network_seed: u64) -> Fig10 {
    let network = city_network(network_seed);
    let model = FuelModel::default();
    let fuel = FuelMap::compute(&network, &model, CRUISE_MPS, |r, s| r.gradient_at(s));
    let traffic = TrafficModel::default();
    let co2 = EmissionMap::compute(&network, &fuel, &traffic, Species::Co2, CRUISE_MPS);

    // Per-road signed mean gradient, for ranking and correlation.
    let grads: Vec<f64> = network
        .edges()
        .iter()
        .map(|e| {
            let mut s = 5.0;
            let (mut acc, mut n) = (0.0, 0usize);
            while s < e.road.length() {
                acc += e.road.gradient_at(s);
                n += 1;
                s += 25.0;
            }
            (acc / n.max(1) as f64).to_degrees()
        })
        .collect();

    let fuel_rates: Vec<f64> = fuel.roads.iter().map(|r| r.mean_fuel_gph).collect();
    let co2_rates: Vec<f64> = co2.roads.iter().map(|r| r.tons_per_km_per_hour).collect();

    let mut fuel_rank: Vec<usize> = (0..fuel_rates.len()).collect();
    fuel_rank.sort_by(|&i, &j| fuel_rates[j].total_cmp(&fuel_rates[i]));
    let top_fuel = fuel_rank
        .iter()
        .take(10)
        .map(|&i| (fuel.roads[i].road_id, grads[i], fuel_rates[i]))
        .collect();

    let mut co2_rank: Vec<usize> = (0..co2_rates.len()).collect();
    co2_rank.sort_by(|&i, &j| co2_rates[j].total_cmp(&co2_rates[i]));
    let top_co2 = co2_rank
        .iter()
        .take(10)
        .map(|&i| (co2.roads[i].road_id, co2.roads[i].hourly_volume, co2_rates[i]))
        .collect();

    Fig10 {
        top_fuel,
        top_co2,
        mean_fuel_gph: fuel.mean_rate_gph(),
        total_co2_tons_per_hour: co2.total_tons_per_hour(&network),
        fuel_gradient_correlation: rank_correlation(&grads, &fuel_rates),
        fuel_co2_correlation: rank_correlation(&fuel_rates, &co2_rates),
    }
}

/// Prints the Figure 10(a) fuel map summary.
pub fn print_report_fuel(r: &Fig10) {
    let rows: Vec<Vec<String>> = r
        .top_fuel
        .iter()
        .map(|(id, g, f)| vec![id.to_string(), format!("{g:.2}"), format!("{f:.3}")])
        .collect();
    print_table(
        "Fig 10(a) — top fuel-consuming roads at 40 km/h (gradient-aware)",
        &["road", "mean θ (°)", "fuel (gal/h)"],
        &rows,
    );
    println!(
        "mean per-road fuel rate: {:.3} gal/h; fuel↔gradient rank correlation: {:.2}",
        r.mean_fuel_gph, r.fuel_gradient_correlation
    );
    save_json("fig10a_fuel_map", r);
}

/// Prints the Figure 10(b) CO₂ map summary.
pub fn print_report_co2(r: &Fig10) {
    let rows: Vec<Vec<String>> = r
        .top_co2
        .iter()
        .map(|(id, v, e)| vec![id.to_string(), format!("{v:.0}"), format!("{e:.4}")])
        .collect();
    print_table(
        "Fig 10(b) — top CO₂-emitting roads (traffic-weighted)",
        &["road", "veh/h", "CO₂ (t/km/h)"],
        &rows,
    );
    println!(
        "network total: {:.2} t CO₂/h; fuel↔CO₂ rank correlation: {:.2} (traffic reshuffles the map)",
        r.total_co2_tons_per_hour, r.fuel_co2_correlation
    );
    save_json("fig10b_emission_map", r);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn maps_have_expected_structure() {
        let r = run(42);
        assert_eq!(r.top_fuel.len(), 10);
        assert_eq!(r.top_co2.len(), 10);
        assert!(r.mean_fuel_gph > 0.0);
        assert!(r.total_co2_tons_per_hour > 0.0);
        // Fuel map tracks gradient strongly (Fig 10(a)'s observation that
        // high fuel sits on steep roads)…
        assert!(
            r.fuel_gradient_correlation > 0.6,
            "fuel↔gradient correlation {}",
            r.fuel_gradient_correlation
        );
        // …while the CO₂ map is reshuffled by traffic (Fig 10(b)).
        assert!(
            r.fuel_co2_correlation < r.fuel_gradient_correlation,
            "CO₂ should correlate less with fuel than fuel does with gradient"
        );
    }

    #[test]
    fn rank_correlation_basics() {
        assert!((rank_correlation(&[1.0, 2.0, 3.0], &[10.0, 20.0, 30.0]) - 1.0).abs() < 1e-9);
        assert!((rank_correlation(&[1.0, 2.0, 3.0], &[30.0, 20.0, 10.0]) + 1.0).abs() < 1e-9);
    }
}
