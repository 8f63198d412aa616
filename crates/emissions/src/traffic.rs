//! Synthetic traffic volumes (Annual Average Daily Traffic).
//!
//! The paper weights per-vehicle fuel burn by VDOT AADT counts to map
//! total emissions (Figure 10(b)). Without access to those counts we
//! synthesize per-road volumes from the road class with a heavy-tailed
//! deterministic jitter seeded by the road id — realistic spread,
//! perfectly reproducible.

use gradest_geo::{Road, RoadClass};
use serde::{Deserialize, Serialize};

/// Deterministic AADT model.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TrafficModel {
    /// Global scale on all volumes (1.0 = defaults).
    pub scale: f64,
    /// Mixing seed: different seeds produce different per-road jitter.
    pub seed: u64,
}

impl Default for TrafficModel {
    fn default() -> Self {
        TrafficModel { scale: 1.0, seed: 0 }
    }
}

impl TrafficModel {
    /// Class-typical AADT (vehicles/day).
    fn class_aadt(class: RoadClass) -> f64 {
        match class {
            RoadClass::Highway => 28_000.0,
            RoadClass::Arterial => 12_000.0,
            RoadClass::Collector => 4_500.0,
            RoadClass::Local => 1_200.0,
        }
    }

    /// AADT for a specific road: class-typical volume × log-uniform jitter
    /// in [0.5, 2.0], deterministic in `(road id, seed)`.
    fn aadt(&self, road: &Road) -> f64 {
        let mut h = road.id() ^ self.seed.wrapping_mul(0x9E3779B97F4A7C15);
        h ^= h >> 33;
        h = h.wrapping_mul(0xFF51AFD7ED558CCD);
        h ^= h >> 33;
        let u = (h >> 11) as f64 / (1u64 << 53) as f64; // [0, 1)
        let jitter = 2.0f64.powf(2.0 * u - 1.0); // log-uniform in [0.5, 2)
        Self::class_aadt(road.class()) * jitter * self.scale
    }

    /// Average hourly volume (vehicles/hour): AADT spread over the day
    /// with a standard 10 % peak-hour factor is beyond scope; we use the
    /// uniform AADT/24.
    pub fn hourly_volume(&self, road: &Road) -> f64 {
        self.aadt(road) / 24.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gradest_geo::generate::city_network;

    #[test]
    fn class_ordering() {
        assert!(
            TrafficModel::class_aadt(RoadClass::Highway)
                > TrafficModel::class_aadt(RoadClass::Arterial)
        );
        assert!(
            TrafficModel::class_aadt(RoadClass::Arterial)
                > TrafficModel::class_aadt(RoadClass::Local)
        );
    }

    #[test]
    fn deterministic_and_bounded_jitter() {
        let net = city_network(1);
        let tm = TrafficModel::default();
        for e in net.edges() {
            let a = tm.aadt(&e.road);
            let b = tm.aadt(&e.road);
            assert_eq!(a, b);
            let base = TrafficModel::class_aadt(e.road.class());
            assert!(a >= base * 0.5 - 1e-9 && a <= base * 2.0 + 1e-9, "{a} vs base {base}");
        }
    }

    #[test]
    fn different_seeds_differ() {
        let net = city_network(1);
        let a = TrafficModel { scale: 1.0, seed: 1 };
        let b = TrafficModel { scale: 1.0, seed: 2 };
        let road = &net.edges()[0].road;
        assert_ne!(a.aadt(road), b.aadt(road));
    }

    #[test]
    fn scale_multiplies() {
        let net = city_network(1);
        let road = &net.edges()[0].road;
        let one = TrafficModel { scale: 1.0, seed: 0 };
        let two = TrafficModel { scale: 2.0, seed: 0 };
        assert!((two.aadt(road) - 2.0 * one.aadt(road)).abs() < 1e-9);
    }

    #[test]
    fn hourly_is_daily_over_24() {
        let net = city_network(1);
        let road = &net.edges()[0].road;
        let tm = TrafficModel::default();
        assert!((tm.hourly_volume(road) * 24.0 - tm.aadt(road)).abs() < 1e-9);
    }
}
