//! Filter health diagnostics: innovation monitoring and divergence
//! detection.
//!
//! A deployed estimator must know when to distrust itself — a remounted
//! phone, a failed sensor, or a model mismatch all show up first in the
//! innovation stream. This module implements the standard Normalized
//! Innovation Squared (NIS) consistency test over a sliding window, plus
//! a divergence latch.

use gradest_obs::quality::INCONSISTENT_NIS;

/// Health verdict of a monitored filter, ordered by severity. The type
/// lives in `gradest-obs` (re-exported here), beside the counters each
/// verdict names.
pub use gradest_obs::FilterHealth;

/// Sliding window length, in updates.
const WINDOW: usize = 50;
/// Mean-NIS threshold for [`FilterHealth::Diverged`].
const DIVERGED_NIS: f64 = 10.0;
/// Consecutive windows over [`DIVERGED_NIS`] that latch divergence.
const DIVERGE_PATIENCE: usize = 3;
/// A window whose `Σ|NIS|` bound stays below this is healthy: it sits
/// 1e-12 (relative) under `WINDOW × INCONSISTENT_NIS`, far more than the
/// ~51 unit roundoffs (≈ 6e-15) between that bound and the in-order
/// mean.
const HEALTHY_SUM: f64 = WINDOW as f64 * INCONSISTENT_NIS * (1.0 - 1e-12);
/// Relative error bound of an in-order sum of `WINDOW` non-negative
/// terms: `γ₄₉ / (1 − γ₄₉) < 2⁻⁴⁷`, doubled so the bound's own rounding
/// cannot undercut it.
const RESUM_ERROR: f64 = 1.0 / (1u64 << 46) as f64;

/// Sliding-window NIS monitor for a scalar-measurement filter.
///
/// Feed every update's innovation and innovation variance
/// (`S = H·P·Hᵀ + R`); read the verdict any time. Over a full window
/// of 50 updates, a mean NIS above [`INCONSISTENT_NIS`] flags
/// [`FilterHealth::Inconsistent`], and a mean above 10 for three
/// windows' worth of consecutive updates latches
/// [`FilterHealth::Diverged`].
///
/// The verdict costs O(1) per update and equals the one the window's
/// in-order mean gives. The monitor keeps the window in a fixed ring
/// and a running sum of `|NIS|` beside it (NIS is never negative for
/// `S > 0`; the absolute value keeps the bound sound if a broken filter
/// passes `S ≤ 0`). Every 50 updates it re-sums the ring in window
/// order; in between it carries a bound on the running sum's rounding
/// error, one unit roundoff per addition. While
/// that sum plus its bound stays 1e-12 under `50 × INCONSISTENT_NIS`,
/// the in-order mean is provably at most [`INCONSISTENT_NIS`] (and so
/// below 10), and the verdict is `Healthy` without reading the window.
/// Otherwise — a hot window, a non-finite term — it takes the in-order
/// mean and decides from it. [`InnovationMonitor::mean_nis`] is always
/// that in-order mean.
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
#[derive(Debug, Clone)]
pub struct InnovationMonitor {
    /// The last `len` NIS values. Slot `next` takes the next one, and
    /// holds the oldest once the window is full.
    nis: [f64; WINDOW],
    len: usize,
    next: usize,
    /// `Σ|NIS|` over the full window, re-summed in window order when
    /// `next` wraps to 0 and updated by the arriving and leaving terms
    /// in between.
    abs_sum: f64,
    /// Bound on `abs_sum`'s rounding error since that re-sum.
    abs_sum_err: f64,
    hot_windows: usize,
    /// The verdict as of the last [`InnovationMonitor::record`].
    health: FilterHealth,
}

impl Default for InnovationMonitor {
    fn default() -> Self {
        InnovationMonitor {
            nis: [0.0; WINDOW],
            len: 0,
            next: 0,
            abs_sum: 0.0,
            abs_sum_err: 0.0,
            hot_windows: 0,
            health: FilterHealth::Healthy,
        }
    }
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
        let old = std::mem::replace(&mut self.nis[self.next], nis);
        self.next = if self.next + 1 == WINDOW { 0 } else { self.next + 1 };
        self.len = (self.len + 1).min(WINDOW);
        // Before a full window the verdict stays optimistic, and a
        // divergence latches until `reset`.
        if self.len < WINDOW || self.health == FilterHealth::Diverged {
            return;
        }
        if self.next == 0 {
            // The window is `nis[0..]` in order; this also starts the
            // running sum when the first window fills.
            self.abs_sum = self.nis.iter().map(|x| x.abs()).sum();
            self.abs_sum_err = self.abs_sum * RESUM_ERROR;
        } else {
            // Two roundings, each at most one unit roundoff (ε/2) of
            // its result; the bound adds ε per result.
            let delta = nis.abs() - old.abs();
            self.abs_sum += delta;
            self.abs_sum_err += (delta.abs() + self.abs_sum.abs()) * f64::EPSILON;
        }
        // `mean ≤ Σ|NIS| / 50` up to the in-order sum's own rounding,
        // which `HEALTHY_SUM`'s margin covers. A NaN sum fails the test.
        if self.abs_sum + self.abs_sum_err < HEALTHY_SUM {
            self.hot_windows = 0;
            self.health = FilterHealth::Healthy;
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

    /// Mean NIS over the current window, summed oldest first (0 before
    /// any updates).
    pub fn mean_nis(&self) -> f64 {
        if self.len == 0 {
            return 0.0;
        }
        // Until the window fills, `next == len` and the first slice is
        // empty.
        let window = self.nis[self.next..self.len].iter().chain(&self.nis[..self.next]);
        window.sum::<f64>() / self.len as f64
    }

    /// Current verdict. Divergence latches until [`InnovationMonitor::reset`].
    pub fn health(&self) -> FilterHealth {
        self.health
    }

    /// Clears all state (e.g. after re-initializing the filter). The
    /// ring is kept; its stale slots are overwritten before they are
    /// read again.
    pub fn reset(&mut self) {
        self.len = 0;
        self.next = 0;
        self.hot_windows = 0;
        self.health = FilterHealth::Healthy;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::VecDeque;

    fn mon() -> InnovationMonitor {
        InnovationMonitor::default()
    }

    /// The monitor as it was before the O(1) window: a `VecDeque` of
    /// the last 50 NIS values, re-summed in order on every update. The
    /// oracle the ring is pinned to.
    #[derive(Default)]
    struct DequeMonitor {
        nis: VecDeque<f64>,
        hot_windows: usize,
        health: FilterHealth,
    }

    impl DequeMonitor {
        fn record(&mut self, innovation: f64, s: f64) {
            let nis = innovation * innovation / s;
            self.nis.push_back(nis);
            if self.nis.len() > WINDOW {
                self.nis.pop_front();
            }
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

        fn health(&self) -> FilterHealth {
            self.health
        }

        fn mean_nis(&self) -> f64 {
            if self.nis.is_empty() {
                return 0.0;
            }
            self.nis.iter().sum::<f64>() / self.nis.len() as f64
        }

        fn reset(&mut self) {
            self.nis.clear();
            self.hot_windows = 0;
            self.health = FilterHealth::Healthy;
        }
    }

    /// One stretch of an NIS stream: `len` values around `level`, each
    /// `level × (1 + δ)` with `|δ| ≤ spread`, or a reset.
    #[derive(Debug, Clone)]
    enum Stretch {
        Values { level: f64, spread: f64, len: usize },
        Reset,
    }

    fn stretch() -> impl Strategy<Value = Stretch> {
        // Levels: parked at 0.25, at the two thresholds, hot enough to
        // latch divergence, a spike that leaves rounding error in the
        // running sum, and zeros. One stretch in eleven is a reset.
        const LEVELS: [f64; 6] = [0.25, INCONSISTENT_NIS, DIVERGED_NIS, 100.0, 1.0e9, 0.0];
        const SPREADS: [f64; 5] = [0.0, 1e-15, 1e-12, 1e-7, 0.5];
        (0..LEVELS.len(), 0..SPREADS.len(), 1..400usize, 0..11usize).prop_map(
            |(level, spread, len, kind)| {
                if kind == 0 {
                    Stretch::Reset
                } else {
                    Stretch::Values { level: LEVELS[level], spread: SPREADS[spread], len }
                }
            },
        )
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// After every update the O(1) monitor gives the deque oracle's
        /// verdict and a bit-equal mean NIS, on streams whose window
        /// means sit at 0.25, within 1e-7 (relative) of 2.5 and of 10,
        /// run hot long enough to latch `Diverged`, and reset mid-way.
        #[test]
        fn the_ring_gives_the_deque_monitors_verdicts(
            stretches in prop::collection::vec(stretch(), 1..16),
            seed in 0..u64::MAX,
        ) {
            let (mut fast, mut oracle) = (InnovationMonitor::default(), DequeMonitor::default());
            let mut state = seed | 1;
            let mut uniform = move || {
                // xorshift64*: a uniform draw in [−1, 1).
                state ^= state >> 12;
                state ^= state << 25;
                state ^= state >> 27;
                let bits = state.wrapping_mul(0x2545_f491_4f6c_dd1d) >> 11;
                bits as f64 / (1u64 << 52) as f64 - 1.0
            };
            for stretch in &stretches {
                let Stretch::Values { level, spread, len } = *stretch else {
                    fast.reset();
                    oracle.reset();
                    continue;
                };
                for _ in 0..len {
                    let target = level * (1.0 + spread * uniform());
                    // Spread S over four decades; the sign of the
                    // innovation does not matter.
                    let s = 10f64.powf(2.0 * uniform());
                    let innovation = (target * s).sqrt() * uniform().signum();
                    fast.record(innovation, s);
                    oracle.record(innovation, s);
                    prop_assert_eq!(fast.health(), oracle.health());
                    prop_assert_eq!(fast.mean_nis().to_bits(), oracle.mean_nis().to_bits());
                }
            }
        }
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
