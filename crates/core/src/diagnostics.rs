//! Filter health diagnostics: innovation monitoring and divergence
//! detection.
//!
//! A deployed estimator must know when to distrust itself — a remounted
//! phone, a failed sensor, or a model mismatch all show up first in the
//! innovation stream. This module implements the standard Normalized
//! Innovation Squared (NIS) consistency test over a sliding window, plus
//! a divergence latch.

use gradest_obs::quality::INCONSISTENT_NIS;
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;

/// Health verdict of a monitored filter.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub enum FilterHealth {
    /// Innovations are consistent with the filter's covariance.
    #[default]
    Healthy,
    /// Innovations run persistently hot (underestimated noise or model
    /// mismatch) — estimates remain usable but variances are optimistic.
    Inconsistent,
    /// Innovations are far outside bounds; estimates should be discarded
    /// and the filter re-initialized.
    Diverged,
}

/// Sliding window length, in updates.
const WINDOW: usize = 50;
/// Mean-NIS threshold for [`FilterHealth::Diverged`].
const DIVERGED_NIS: f64 = 10.0;
/// Consecutive windows over [`DIVERGED_NIS`] that latch divergence.
const DIVERGE_PATIENCE: usize = 3;

/// Sliding-window NIS monitor for a scalar-measurement filter.
///
/// Feed every update's innovation and innovation variance
/// (`S = H·P·Hᵀ + R`); read the verdict any time. Over a full window
/// of 50 updates, a mean NIS above [`INCONSISTENT_NIS`] flags
/// [`FilterHealth::Inconsistent`], and a mean above 10 for three
/// windows' worth of consecutive updates latches
/// [`FilterHealth::Diverged`].
///
/// # Example
///
/// ```
/// use gradest_core::diagnostics::{InnovationMonitor, FilterHealth};
///
/// let mut mon = InnovationMonitor::default();
/// for _ in 0..100 {
///     mon.record(0.1, 0.04); // innovations ≈ consistent with S = 0.04
/// }
/// assert_eq!(mon.health(), FilterHealth::Healthy);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct InnovationMonitor {
    nis: VecDeque<f64>,
    hot_windows: usize,
    /// The verdict as of the last [`InnovationMonitor::record`].
    health: FilterHealth,
}

impl InnovationMonitor {
    /// Records one measurement update's innovation and innovation
    /// variance `S`, and re-evaluates the verdict.
    ///
    /// # Panics
    ///
    /// Panics (debug) if `s <= 0`.
    pub fn record(&mut self, innovation: f64, s: f64) {
        debug_assert!(s > 0.0, "innovation variance must be positive");
        let nis = innovation * innovation / s;
        self.nis.push_back(nis);
        if self.nis.len() > WINDOW {
            self.nis.pop_front();
        }
        // Before a full window the verdict stays optimistic, and a
        // divergence latches until `reset`.
        if self.nis.len() < WINDOW || self.health == FilterHealth::Diverged {
            return;
        }
        let mean = self.mean_nis();
        self.hot_windows = if mean > DIVERGED_NIS { self.hot_windows + 1 } else { 0 };
        self.health = if self.hot_windows >= DIVERGE_PATIENCE * WINDOW {
            FilterHealth::Diverged
        } else if mean > INCONSISTENT_NIS {
            FilterHealth::Inconsistent
        } else {
            FilterHealth::Healthy
        };
    }

    /// Mean NIS over the current window (0 before any updates).
    pub fn mean_nis(&self) -> f64 {
        if self.nis.is_empty() {
            return 0.0;
        }
        self.nis.iter().sum::<f64>() / self.nis.len() as f64
    }

    /// Current verdict. Divergence latches until [`InnovationMonitor::reset`].
    pub fn health(&self) -> FilterHealth {
        self.health
    }

    /// Clears all state (e.g. after re-initializing the filter). The
    /// window keeps its capacity, so a reused monitor does not allocate.
    pub fn reset(&mut self) {
        self.nis.clear();
        self.hot_windows = 0;
        self.health = FilterHealth::Healthy;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mon() -> InnovationMonitor {
        InnovationMonitor::default()
    }

    #[test]
    fn consistent_innovations_are_healthy() {
        let mut m = mon();
        // Innovations with variance exactly S: deterministic ±1σ.
        for i in 0..500 {
            let inn = if i % 2 == 0 { 0.2 } else { -0.2 };
            m.record(inn, 0.04);
        }
        assert_eq!(m.health(), FilterHealth::Healthy);
        assert!((m.mean_nis() - 1.0).abs() < 0.05);
    }

    #[test]
    fn hot_innovations_flag_inconsistency() {
        let mut m = mon();
        for _ in 0..100 {
            m.record(0.4, 0.04); // 2σ every time → NIS = 4
        }
        assert_eq!(m.health(), FilterHealth::Inconsistent);
    }

    #[test]
    fn wild_innovations_latch_divergence() {
        let mut m = mon();
        for _ in 0..(3 * 50 + 50) {
            m.record(2.0, 0.04); // NIS = 100
        }
        assert_eq!(m.health(), FilterHealth::Diverged);
        // Latched even after things calm down.
        for _ in 0..500 {
            m.record(0.01, 0.04);
        }
        assert_eq!(m.health(), FilterHealth::Diverged);
        m.reset();
        assert_eq!(m.health(), FilterHealth::Healthy);
    }

    #[test]
    fn brief_transients_do_not_diverge() {
        let mut m = mon();
        // Healthy baseline…
        for i in 0..200 {
            let inn = if i % 2 == 0 { 0.2 } else { -0.2 };
            m.record(inn, 0.04);
        }
        // …a short shock (a pothole)…
        for _ in 0..20 {
            m.record(1.5, 0.04);
        }
        // …healthy again.
        for i in 0..200 {
            let inn = if i % 2 == 0 { 0.2 } else { -0.2 };
            m.record(inn, 0.04);
        }
        assert_ne!(m.health(), FilterHealth::Diverged);
        assert_eq!(m.health(), FilterHealth::Healthy);
    }

    #[test]
    fn health_is_optimistic_before_evidence() {
        let mut m = mon();
        m.record(10.0, 0.01); // single huge innovation
        assert_eq!(m.health(), FilterHealth::Healthy);
    }

    #[test]
    fn detects_a_broken_sensor_through_the_ekf() {
        use crate::ekf::EkfConfig;
        use crate::ekf_lanes::{EkfLanes, MAX_LANES};
        use gradest_math::GRAVITY;
        // EKF (lane 0) on a 2° road; the speed sensor develops a 5 m/s
        // fault.
        let theta = 2.0f64.to_radians();
        let mut ekf = EkfLanes::new(EkfConfig::default(), [15.0; MAX_LANES]);
        let mut m = mon();
        let r: f64 = 0.05;
        let mut worst = FilterHealth::Healthy;
        for i in 0..6000 {
            ekf.predict(GRAVITY * theta.sin(), 0.02);
            if i % 5 == 0 {
                let fault = if i > 3000 { 5.0 } else { 0.0 };
                let meas = 15.0 + fault;
                m.record(meas - ekf.velocity(0), ekf.innovation_variance(0, r));
                ekf.update(0, meas, r);
                if m.health() != FilterHealth::Healthy {
                    worst = m.health();
                }
            }
        }
        // The fault transient drags the windowed NIS far out of bounds —
        // the monitor must flag it while it lasts (the EKF then swallows
        // the step, so the flag is transient unless divergence latched).
        assert_ne!(worst, FilterHealth::Healthy);
    }
}
