//! The ANN baseline ("ANN" in the paper's Section IV, after Ngwangwa et
//! al. 2010).
//!
//! A multi-layer perceptron maps instantaneous `(velocity, acceleration,
//! altitude)` — all smartphone-measured — to the road gradient. As in the
//! paper it is trained on 4 320 labelled samples; the paper attributes the
//! method's weak accuracy ("these training samples are not enough") to
//! exactly this training regime, which we reproduce rather than repair.

use crate::mlp::{Activation, Mlp, TrainConfig};
use gradest_core::track::GradientTrack;
use gradest_math::interp::interp1_or;
use gradest_sensors::suite::SensorLog;
use serde::{Deserialize, Serialize};

/// ANN baseline configuration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AnnConfig {
    /// Hidden-layer sizes (the input is always 3, output always 1).
    pub hidden: Vec<usize>,
    /// Number of training samples drawn (the paper's 4 320).
    pub training_samples: usize,
    /// Training hyperparameters.
    pub train: TrainConfig,
    /// RNG seed for weight init.
    pub seed: u64,
}

impl Default for AnnConfig {
    fn default() -> Self {
        AnnConfig {
            hidden: vec![16, 16],
            training_samples: 4320,
            train: TrainConfig::default(),
            seed: 0xA11,
        }
    }
}

/// A labelled training set: smartphone features plus ground-truth
/// gradient, gathered on a survey drive.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct TrainingSet {
    /// Feature rows `[v, a, z]`.
    pub features: Vec<[f64; 3]>,
    /// Ground-truth gradient per row, radians.
    pub labels: Vec<f64>,
}

impl TrainingSet {
    /// Builds a training set from a sensor log and a ground-truth gradient
    /// lookup by time, sampling `n` rows uniformly across the trip.
    ///
    /// Features: speedometer velocity, IMU longitudinal specific force,
    /// barometric altitude — all interpolated to the sample times.
    ///
    /// # Panics
    ///
    /// Panics if the log misses any required stream.
    pub fn from_log(log: &SensorLog, truth_theta_at: impl Fn(f64) -> f64, n: usize) -> Self {
        assert!(
            !log.speedometer.is_empty() && !log.imu.is_empty() && !log.barometer.is_empty(),
            "training needs speedometer, IMU, and barometer data"
        );
        let (vt, vv): (Vec<f64>, Vec<f64>) =
            log.speedometer.iter().map(|s| (s.t, s.speed_mps)).unzip();
        let (at, av): (Vec<f64>, Vec<f64>) = log.imu.iter().map(|s| (s.t, s.accel_long)).unzip();
        let (zt, zv): (Vec<f64>, Vec<f64>) =
            log.barometer.iter().map(|s| (s.t, s.altitude_m)).unzip();
        let (v_at, a_at, z_at) =
            (interp1_or(&vt, &vv, 10.0), interp1_or(&at, &av, 0.0), interp1_or(&zt, &zv, 0.0));
        let t0 = log.imu.first().expect("nonempty").t;
        let t1 = log.imu.last().expect("nonempty").t;
        let mut features = Vec::with_capacity(n);
        let mut labels = Vec::with_capacity(n);
        for i in 0..n {
            let t = t0 + (t1 - t0) * i as f64 / n.max(1) as f64;
            features.push([v_at(t), a_at(t), z_at(t)]);
            labels.push(truth_theta_at(t));
        }
        TrainingSet { features, labels }
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.features.len()
    }

    /// True when no rows are present.
    pub fn is_empty(&self) -> bool {
        self.features.is_empty()
    }
}

/// The trained ANN gradient estimator.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AnnGradientEstimator {
    net: Mlp,
    /// Per-feature normalization: (mean, sd).
    norm: [(f64, f64); 3],
    /// Residual variance on the training set (used as the track
    /// variance).
    residual_var: f64,
}

impl AnnGradientEstimator {
    /// Trains the network on a labelled set.
    ///
    /// # Panics
    ///
    /// Panics if the training set is empty.
    pub fn train(set: &TrainingSet, config: &AnnConfig) -> Self {
        assert!(!set.is_empty(), "empty training set");
        // Normalize features to zero mean, unit variance.
        let mut norm = [(0.0, 1.0); 3];
        for (k, nk) in norm.iter_mut().enumerate() {
            let vals: Vec<f64> = set.features.iter().map(|f| f[k]).collect();
            let mean = vals.iter().sum::<f64>() / vals.len() as f64;
            let var = vals.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / vals.len() as f64;
            *nk = (mean, var.sqrt().max(1e-9));
        }
        let xs: Vec<Vec<f64>> = set
            .features
            .iter()
            .map(|f| (0..3).map(|k| (f[k] - norm[k].0) / norm[k].1).collect::<Vec<f64>>())
            .collect();
        let ys: Vec<Vec<f64>> = set.labels.iter().map(|&l| vec![l]).collect();

        let mut sizes = vec![3usize];
        sizes.extend_from_slice(&config.hidden);
        sizes.push(1);
        let mut net = Mlp::new(&sizes, Activation::Tanh, config.seed);
        net.train(&xs, &ys, &config.train);

        let mse = net.mse(&xs, &ys);
        AnnGradientEstimator { net, norm, residual_var: mse.max(1e-8) }
    }

    /// Predicts the gradient (radians) for one feature row `[v, a, z]`.
    pub fn predict(&self, feature: [f64; 3]) -> f64 {
        let x: Vec<f64> = (0..3).map(|k| (feature[k] - self.norm[k].0) / self.norm[k].1).collect();
        self.net.forward(&x)[0].clamp(-0.5, 0.5)
    }

    /// Runs the trained network over a trip, producing an arc-indexed
    /// gradient track (arc position from the speedometer, emitted at
    /// 10 Hz).
    ///
    /// # Panics
    ///
    /// Panics if the log misses any required stream.
    pub fn estimate(&self, log: &SensorLog) -> GradientTrack {
        assert!(
            !log.speedometer.is_empty() && log.imu.len() >= 2 && !log.barometer.is_empty(),
            "estimation needs speedometer, IMU, and barometer data"
        );
        let (zt, zv): (Vec<f64>, Vec<f64>) =
            log.barometer.iter().map(|s| (s.t, s.altitude_m)).unzip();
        let (at, av): (Vec<f64>, Vec<f64>) = log.imu.iter().map(|s| (s.t, s.accel_long)).unzip();
        let (a_at, z_at) = (interp1_or(&at, &av, 0.0), interp1_or(&zt, &zv, 0.0));
        let mut track = GradientTrack::new("ann");
        let mut s = 0.0;
        let mut last_t = log.speedometer[0].t;
        for sp in &log.speedometer {
            let dt = (sp.t - last_t).max(0.0);
            last_t = sp.t;
            s += sp.speed_mps * dt;
            let theta = self.predict([sp.speed_mps, a_at(sp.t), z_at(sp.t)]);
            track.push(s, theta, self.residual_var);
        }
        track
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gradest_geo::generate::red_road;
    use gradest_geo::Route;
    use gradest_sensors::suite::{SensorConfig, SensorSuite};
    use gradest_sim::driver::DriverProfile;
    use gradest_sim::trip::{simulate_trip, Trajectory, TripConfig};

    fn trip(seed: u64) -> (Route, Trajectory, SensorLog) {
        let route = Route::new(vec![red_road()]).unwrap();
        let cfg = TripConfig {
            driver: DriverProfile { lane_change_rate_per_km: 0.0, ..Default::default() },
            ..Default::default()
        };
        let traj = simulate_trip(&route, &cfg, seed);
        let log = SensorSuite::new(SensorConfig::default()).run(&traj, seed);
        (route, traj, log)
    }

    fn truth_lookup(traj: &Trajectory) -> impl Fn(f64) -> f64 + '_ {
        move |t: f64| {
            let idx = traj
                .samples()
                .binary_search_by(|s| s.t.partial_cmp(&t).expect("finite"))
                .unwrap_or_else(|i| i.min(traj.samples().len() - 1));
            traj.samples()[idx].theta
        }
    }

    #[test]
    fn training_set_has_requested_size() {
        let (_, traj, log) = trip(1);
        let set = TrainingSet::from_log(&log, truth_lookup(&traj), 4320);
        assert_eq!(set.len(), 4320);
        assert!(!set.is_empty());
        // Labels look like road gradients.
        assert!(set.labels.iter().all(|l| l.abs() < 0.2));
    }

    #[test]
    fn ann_learns_something_on_its_training_route() {
        let (route, traj, log) = trip(2);
        let set = TrainingSet::from_log(&log, truth_lookup(&traj), 4320);
        let small = AnnConfig {
            train: TrainConfig { epochs: 20, ..Default::default() },
            ..Default::default()
        };
        let ann = AnnGradientEstimator::train(&set, &small);
        // Same-route prediction error should be materially below a
        // predict-zero baseline.
        let track = ann.estimate(&log);
        let mut err = 0.0;
        let mut base = 0.0;
        let mut n = 0.0;
        for (s, th) in track.s.iter().zip(&track.theta) {
            if *s < 100.0 || *s > route.length() {
                continue;
            }
            let truth = route.gradient_at(*s);
            err += (th - truth).abs();
            base += truth.abs();
            n += 1.0;
        }
        assert!(n > 0.0);
        assert!(err / n < 0.8 * base / n, "ANN err {} vs zero-baseline {}", err / n, base / n);
    }

    #[test]
    fn predictions_are_clamped_and_finite() {
        let (_, traj, log) = trip(3);
        let set = TrainingSet::from_log(&log, truth_lookup(&traj), 500);
        let cfg = AnnConfig {
            train: TrainConfig { epochs: 5, ..Default::default() },
            ..Default::default()
        };
        let ann = AnnGradientEstimator::train(&set, &cfg);
        for f in [[0.0, 0.0, 0.0], [100.0, 50.0, 1e5], [-10.0, -50.0, -1e4]] {
            let p = ann.predict(f);
            assert!(p.is_finite());
            assert!(p.abs() <= 0.5);
        }
        assert!(ann.residual_var > 0.0);
    }

    #[test]
    #[should_panic(expected = "empty training set")]
    fn empty_training_set_panics() {
        let _ = AnnGradientEstimator::train(&TrainingSet::default(), &AnnConfig::default());
    }
}
