//! Steering-profile processing: smoothing and bump feature extraction.
//!
//! The raw `w_steer` series (from the coordinate alignment system) is
//! smoothed with local regression (paper Section III-B, Figure 4) before
//! bump detection; this module also extracts the paper's Table I features
//! (δ = peak magnitude, T = dwell time above 0.7·δ) from a maneuver's
//! profile.

use crate::lane_change::dwells;
use gradest_math::lowess::{lowess_into, LowessScratch};
use serde::{Deserialize, Serialize};

/// A uniformly sampled, smoothed steering-rate profile.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct SmoothedProfile {
    /// Sample times, seconds.
    pub t: Vec<f64>,
    /// Smoothed steering rate, rad/s.
    pub w: Vec<f64>,
}

impl SmoothedProfile {
    /// Sampling interval (assumes uniform sampling).
    ///
    /// # Panics
    ///
    /// Panics if the profile has fewer than two samples.
    pub fn dt(&self) -> f64 {
        assert!(self.t.len() >= 2, "profile needs two samples");
        self.t[1] - self.t[0]
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.t.len()
    }

    /// True if the profile has no samples.
    pub fn is_empty(&self) -> bool {
        self.t.is_empty()
    }
}

/// Smooths a raw steering-rate series into a caller-owned profile.
///
/// Columnar core of [`smooth_profile`]: `t`/`w_raw` are parallel slices
/// (see [`gradest_sensors::ImuColumns`]), the LOWESS working buffers come
/// from `scratch`, and the result overwrites `out` — a warm caller pays no
/// allocation. LOWESS takes its uniform-grid fast path whenever `t` is a
/// uniform grid (see [`gradest_math::lowess::lowess_into`]).
///
/// Inputs shorter than 3 samples pass through unsmoothed.
///
/// # Panics
///
/// Panics if `t` and `w_raw` differ in length, or if `t` (3 or more
/// samples) is not strictly increasing.
pub fn smooth_profile_into(
    t: &[f64],
    w_raw: &[f64],
    window_s: f64,
    scratch: &mut LowessScratch,
    out: &mut SmoothedProfile,
) {
    assert_eq!(t.len(), w_raw.len(), "column length mismatch");
    out.t.clear();
    out.t.extend_from_slice(t);
    if t.len() < 3 {
        out.w.clear();
        out.w.extend_from_slice(w_raw);
        return;
    }
    let span = t[t.len() - 1] - t[0]; // lint:allow(hot-index) t.len() >= 3 after the early return above
    let fraction = (window_s / span.max(1e-9)).clamp(1e-4, 1.0);
    // lint:allow(no-panic) equal lengths, >= 3 samples and a clamped fraction checked above; increasing times are the documented precondition
    lowess_into(t, w_raw, fraction, scratch, &mut out.w).expect("strictly increasing times");
}

/// Smooths a raw `(t, w_steer)` series with LOWESS.
///
/// `window_s` is the smoothing window in seconds (converted internally to
/// a LOWESS fraction); the pipeline uses
/// [`SMOOTHING_WINDOW_S`](crate::lane_change::SMOOTHING_WINDOW_S).
///
/// Inputs shorter than 3 samples pass through unsmoothed. Allocating
/// wrapper over [`smooth_profile_into`] for experiments and tests; a warm
/// caller (the pipeline's `EstimatorScratch`) calls that directly.
pub fn smooth_profile(raw: &[(f64, f64)], window_s: f64) -> SmoothedProfile {
    let t: Vec<f64> = raw.iter().map(|p| p.0).collect();
    let w: Vec<f64> = raw.iter().map(|p| p.1).collect();
    let mut out = SmoothedProfile { t: Vec::new(), w: Vec::new() };
    smooth_profile_into(&t, &w, window_s, &mut LowessScratch::new(), &mut out);
    out
}

/// Bump features of one maneuver profile (Table I): per polarity, the peak
/// magnitude δ and the dwell time T above `0.7·δ`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct BumpFeatures {
    /// Peak of the positive bump, rad/s (`δ⁺`).
    pub delta_pos: f64,
    /// Dwell time of the positive bump above 0.7·δ⁺, seconds (`T⁺`).
    pub t_pos: f64,
    /// Peak magnitude of the negative bump, rad/s (`δ⁻`, reported
    /// positive).
    pub delta_neg: f64,
    /// Dwell time of the negative bump above 0.7·δ⁻, seconds (`T⁻`).
    pub t_neg: f64,
}

/// Extracts Table I bump features from a smoothed profile covering exactly
/// one lane-change maneuver.
///
/// Returns `None` if either polarity is absent (not a two-bump profile).
pub fn extract_bump_features(profile: &SmoothedProfile) -> Option<BumpFeatures> {
    if profile.len() < 4 {
        return None;
    }
    let dt = profile.dt();
    let pos_peak = profile.w.iter().cloned().fold(f64::MIN, f64::max);
    let neg_peak = profile.w.iter().cloned().fold(f64::MAX, f64::min);
    if pos_peak <= 0.0 || neg_peak >= 0.0 {
        return None;
    }
    let t_pos = profile.w.iter().filter(|&&w| dwells(w, pos_peak)).count() as f64 * dt;
    let t_neg = profile.w.iter().filter(|&&w| dwells(-w, -neg_peak)).count() as f64 * dt;
    Some(BumpFeatures { delta_pos: pos_peak, t_pos, delta_neg: -neg_peak, t_neg })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::f64::consts::PI;

    /// A clean lane-change-like profile: full sine period, amplitude A,
    /// duration d, embedded in a longer flat span.
    fn sine_profile(amp: f64, duration: f64, rate_hz: f64) -> Vec<(f64, f64)> {
        let dt = 1.0 / rate_hz;
        let total = duration + 10.0;
        (0..(total / dt) as usize)
            .map(|i| {
                let t = i as f64 * dt;
                let w = if (5.0..5.0 + duration).contains(&t) {
                    amp * (2.0 * PI * (t - 5.0) / duration).sin()
                } else {
                    0.0
                };
                (t, w)
            })
            .collect()
    }

    #[test]
    fn smoothing_preserves_bump_peak() {
        let mut raw = sine_profile(0.12, 5.0, 50.0);
        // Add alternating noise.
        for (i, p) in raw.iter_mut().enumerate() {
            p.1 += if i % 2 == 0 { 0.02 } else { -0.02 };
        }
        let smoothed = smooth_profile(&raw, 0.8);
        let peak = smoothed.w.iter().cloned().fold(f64::MIN, f64::max);
        assert!((peak - 0.12).abs() < 0.015, "peak {peak}");
        // Noise on flat spans is gone.
        let early: f64 = smoothed.w[..100].iter().map(|w| w.abs()).fold(0.0, f64::max);
        assert!(early < 0.01, "flat-span residual {early}");
    }

    #[test]
    fn features_of_clean_sine() {
        let raw = sine_profile(0.15, 5.0, 50.0);
        let prof = smooth_profile(&raw, 0.4);
        let f = extract_bump_features(&prof).expect("two bumps");
        assert!((f.delta_pos - 0.15).abs() < 0.01);
        assert!((f.delta_neg - 0.15).abs() < 0.01);
        // Dwell time above 0.7·peak per bump ≈ 0.2532·D.
        assert!((f.t_pos - 0.2532 * 5.0).abs() < 0.1, "T+ = {}", f.t_pos);
        assert!((f.t_neg - 0.2532 * 5.0).abs() < 0.1, "T- = {}", f.t_neg);
    }

    #[test]
    fn features_reject_single_polarity() {
        let raw: Vec<(f64, f64)> =
            (0..100).map(|i| (i as f64 * 0.02, (i as f64 * 0.02).sin().abs() * 0.1)).collect();
        let prof = SmoothedProfile {
            t: raw.iter().map(|p| p.0).collect(),
            w: raw.iter().map(|p| p.1).collect(),
        };
        assert!(extract_bump_features(&prof).is_none());
    }

    #[test]
    fn smooth_short_input_passthrough() {
        let raw = vec![(0.0, 0.1), (0.02, 0.2)];
        let p = smooth_profile(&raw, 0.8);
        assert_eq!(p.w, vec![0.1, 0.2]);
    }

    #[test]
    fn profile_dt_and_len() {
        let raw = sine_profile(0.1, 4.0, 50.0);
        let p = smooth_profile(&raw, 0.5);
        assert!((p.dt() - 0.02).abs() < 1e-12);
        assert_eq!(p.len(), raw.len());
        assert!(!p.is_empty());
    }
}
