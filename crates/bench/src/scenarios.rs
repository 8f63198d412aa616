//! Shared scenario builders used by the experiments.

use gradest_baselines::ann::{AnnConfig, AnnGradientEstimator, TrainingSet};
use gradest_core::pipeline::{EstimatorConfig, GradientEstimate, GradientEstimator};
use gradest_geo::generate::red_road;
use gradest_geo::{RoadNetwork, Route};
use gradest_sensors::suite::{SensorConfig, SensorLog, SensorSuite};
use gradest_sim::driver::DriverProfile;
use gradest_sim::trip::{simulate_trip, Trajectory, TripConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// One fully simulated drive: ground truth, sensor log, and the route it
/// ran on.
#[derive(Debug, Clone)]
pub struct Drive {
    /// The route driven.
    pub route: Route,
    /// Ground-truth trajectory.
    pub traj: Trajectory,
    /// Recorded sensor streams.
    pub log: SensorLog,
}

impl Drive {
    /// Simulates a drive over `route` with the given lane-change rate and
    /// GPS outage windows, deterministic in `seed`.
    pub fn simulate(
        route: Route,
        seed: u64,
        lane_change_rate: f64,
        outages: Vec<(f64, f64)>,
    ) -> Drive {
        let trip_cfg = TripConfig {
            driver: DriverProfile {
                lane_change_rate_per_km: lane_change_rate,
                ..Default::default()
            },
            ..Default::default()
        };
        let traj = simulate_trip(&route, &trip_cfg, seed);
        let sensor_cfg = SensorConfig { gps_outages: outages, ..Default::default() };
        let log = SensorSuite::new(sensor_cfg).run(&traj, seed.wrapping_mul(31).wrapping_add(7));
        Drive { route, traj, log }
    }

    /// Runs the proposed system (OPS) over this drive with a given
    /// configuration.
    pub fn ops_with(&self, config: EstimatorConfig) -> GradientEstimate {
        GradientEstimator::new(config).estimate(&self.log, Some(&self.route))
    }

    /// Runs OPS with the default configuration.
    pub fn ops(&self) -> GradientEstimate {
        self.ops_with(EstimatorConfig::default())
    }

    /// Ground-truth gradient lookup by trip time (for ANN training).
    fn truth_theta_at(&self, t: f64) -> f64 {
        let samples = self.traj.samples();
        let idx = samples
            .binary_search_by(|s| s.t.total_cmp(&t))
            .unwrap_or_else(|i| i.min(samples.len() - 1));
        samples[idx].theta
    }
}

/// The standard red-road drive (Figure 7(b) evaluation scenario).
pub fn red_road_drive(seed: u64) -> Drive {
    Drive::simulate(
        Route::new(vec![red_road()]).expect("red road is a valid route"),
        seed,
        0.224,
        Vec::new(),
    )
}

/// Trains the ANN baseline the way the paper does: 4 320 labelled samples
/// gathered on a survey drive over `route` (a *different* drive than the
/// evaluation one).
pub fn train_ann(route: &Route, seed: u64) -> AnnGradientEstimator {
    let survey = Drive::simulate(route.clone(), seed, 0.0, Vec::new());
    let set = TrainingSet::from_log(&survey.log, |t| survey.truth_theta_at(t), 4320);
    AnnGradientEstimator::train(&set, &AnnConfig::default())
}

/// Picks `n` source/destination routes across a network, each at least
/// `min_len_m` long, deterministic in `seed`.
pub fn network_routes(network: &RoadNetwork, n: usize, min_len_m: f64, seed: u64) -> Vec<Route> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut routes = Vec::new();
    let mut attempts = 0;
    while routes.len() < n && attempts < n * 50 {
        attempts += 1;
        let a = rng.gen_range(0..network.node_count());
        let b = rng.gen_range(0..network.node_count());
        if a == b {
            continue;
        }
        if let Some(route) = network.route_between(a, b, |r| r.length()) {
            if route.length() >= min_len_m {
                routes.push(route);
            }
        }
    }
    routes
}

#[cfg(test)]
mod tests {
    use super::*;
    use gradest_geo::generate::city_network;

    #[test]
    fn red_road_drive_is_complete() {
        let d = red_road_drive(1);
        assert!((d.traj.distance_m() - 2160.0).abs() < 20.0);
        assert!(!d.log.imu.is_empty());
        let est = d.ops();
        assert!(!est.fused.is_empty());
    }

    #[test]
    fn truth_lookup_matches_samples() {
        let d = red_road_drive(2);
        let s = &d.traj.samples()[500];
        assert_eq!(d.truth_theta_at(s.t), s.theta);
    }

    #[test]
    fn network_routes_meet_length_floor() {
        let net = city_network(3);
        let routes = network_routes(&net, 5, 3000.0, 3);
        assert_eq!(routes.len(), 5);
        assert!(routes.iter().all(|r| r.length() >= 3000.0));
    }

    #[test]
    fn network_routes_deterministic() {
        let net = city_network(3);
        let a = network_routes(&net, 3, 2000.0, 9);
        let b = network_routes(&net, 3, 2000.0, 9);
        assert_eq!(
            a.iter().map(|r| r.length()).collect::<Vec<_>>(),
            b.iter().map(|r| r.length()).collect::<Vec<_>>()
        );
    }
}
