//! Gradient tracks: per-source estimate series indexed by arc position.

use serde::{Deserialize, Serialize};

/// One road-gradient estimation track: θ estimates (with EKF variances)
/// along travelled distance. One track per velocity source per trip; the
/// inputs to track fusion (Eq 6).
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct GradientTrack {
    /// Source label (e.g. "gps", "speedometer").
    pub label: String,
    /// Travelled distance of each estimate, metres.
    pub s: Vec<f64>,
    /// Gradient estimates θ, radians.
    pub theta: Vec<f64>,
    /// EKF gradient variance `P_θθ` per estimate, rad².
    pub variance: Vec<f64>,
}

impl GradientTrack {
    /// Creates an empty track with a label.
    pub fn new(label: impl Into<String>) -> Self {
        GradientTrack { label: label.into(), ..Default::default() }
    }

    /// Appends one estimate.
    ///
    /// # Panics
    ///
    /// Panics (debug) if `s` does not advance monotonically or the
    /// variance is not positive.
    pub fn push(&mut self, s: f64, theta: f64, variance: f64) {
        debug_assert!(
            self.s.last().is_none_or(|&last| s >= last),
            "track arc positions must be non-decreasing"
        );
        debug_assert!(variance > 0.0, "variance must be positive");
        self.s.push(s);
        self.theta.push(theta);
        self.variance.push(variance);
    }

    /// Number of estimates.
    pub fn len(&self) -> usize {
        self.s.len()
    }

    /// True if the track holds no estimates.
    pub fn is_empty(&self) -> bool {
        self.s.is_empty()
    }

    /// Gradient estimate at arc position `s` by nearest-sample lookup
    /// (clamped). Returns `None` for an empty track.
    pub fn theta_at(&self, s: f64) -> Option<f64> {
        self.nearest_index(s).map(|i| self.theta[i])
    }

    fn nearest_index(&self, s: f64) -> Option<usize> {
        if self.s.is_empty() {
            return None;
        }
        let idx = self.s.partition_point(|&v| v < s);
        if idx == 0 {
            return Some(0);
        }
        if idx >= self.s.len() {
            return Some(self.s.len() - 1);
        }
        // Pick the closer neighbour.
        // lint:allow(hot-index) 1 <= idx < len: both edge cases returned above
        if (self.s[idx] - s).abs() < (s - self.s[idx - 1]).abs() {
            Some(idx)
        } else {
            Some(idx - 1)
        }
    }

    /// Resamples the track onto a uniform arc grid `[0, length]` with
    /// spacing `ds` (nearest-sample), producing aligned tracks for fusion.
    ///
    /// # Panics
    ///
    /// Panics if `ds <= 0` or the track is empty.
    pub fn resample(&self, length: f64, ds: f64) -> GradientTrack {
        let mut out = GradientTrack::default();
        self.resample_into(length, ds, &mut out);
        out
    }

    /// [`Self::resample`] into a caller-owned track (overwritten,
    /// including the label), so a warm caller pays no allocation.
    ///
    /// # Panics
    ///
    /// Panics if `ds <= 0` or the track is empty.
    pub fn resample_into(&self, length: f64, ds: f64, out: &mut GradientTrack) {
        assert!(ds > 0.0, "resample spacing must be positive");
        assert!(!self.is_empty(), "cannot resample an empty track");
        out.label.clone_from(&self.label);
        out.s.clear();
        out.theta.clear();
        out.variance.clear();
        let n = (length / ds).floor() as usize;
        out.s.reserve(n + 1);
        out.theta.reserve(n + 1);
        out.variance.reserve(n + 1);
        // The grid positions are non-decreasing, so a forward cursor
        // replaces `nearest_index`'s per-point binary search: `cursor`
        // maintains `partition_point(|v| v < s)` across queries, with
        // the same closer-neighbour tie-break.
        let mut cursor = 0usize;
        for i in 0..=n {
            let s = i as f64 * ds;
            while cursor < self.s.len() && self.s[cursor] < s {
                cursor += 1;
            }
            let idx = if cursor == 0 {
                0
            } else if cursor >= self.s.len() {
                self.s.len() - 1
            // lint:allow(hot-index) 1 <= cursor < len: both edge cases handled above
            } else if (self.s[cursor] - s).abs() < (s - self.s[cursor - 1]).abs() {
                cursor
            } else {
                cursor - 1
            };
            out.push(s, self.theta[idx], self.variance[idx]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn track() -> GradientTrack {
        let mut t = GradientTrack::new("test");
        t.push(0.0, 0.01, 1e-4);
        t.push(10.0, 0.02, 2e-4);
        t.push(20.0, 0.03, 1e-4);
        t
    }

    #[test]
    fn push_and_len() {
        let t = track();
        assert_eq!(t.len(), 3);
        assert!(!t.is_empty());
        assert_eq!(t.label, "test");
    }

    #[test]
    fn nearest_lookup() {
        let t = track();
        assert_eq!(t.theta_at(0.0), Some(0.01));
        assert_eq!(t.theta_at(4.0), Some(0.01));
        assert_eq!(t.theta_at(6.0), Some(0.02));
        assert_eq!(t.theta_at(14.0), Some(0.02));
        assert_eq!(t.theta_at(100.0), Some(0.03));
        assert_eq!(t.theta_at(-5.0), Some(0.01));
    }

    #[test]
    fn empty_track_lookup_is_none() {
        let t = GradientTrack::new("empty");
        assert!(t.theta_at(0.0).is_none());
        assert!(t.is_empty());
    }

    #[test]
    fn resample_produces_uniform_grid() {
        let t = track();
        let r = t.resample(20.0, 5.0);
        assert_eq!(r.len(), 5);
        assert_eq!(r.s, vec![0.0, 5.0, 10.0, 15.0, 20.0]);
        assert_eq!(r.theta, vec![0.01, 0.01, 0.02, 0.02, 0.03]);
    }

    #[test]
    fn resample_cursor_matches_per_point_nearest_lookup() {
        // Irregular spacing exercises the forward cursor against the
        // binary-search path it replaced.
        let mut t = GradientTrack::new("irr");
        let mut s = 0.0;
        for i in 0..40 {
            s += 0.3 + (i % 7) as f64 * 0.9;
            t.push(s, (i as f64 * 0.37).sin() * 0.05, 1e-4 + (i % 3) as f64 * 1e-5);
        }
        let r = t.resample(s, 1.7);
        for (i, g) in r.s.iter().enumerate() {
            let idx = t.nearest_index(*g).unwrap();
            assert_eq!(r.theta[i], t.theta[idx], "grid point {g}");
            assert_eq!(r.variance[i], t.variance[idx]);
        }
    }

    #[test]
    #[should_panic(expected = "empty track")]
    fn resample_empty_panics() {
        let t = GradientTrack::new("empty");
        let _ = t.resample(10.0, 1.0);
    }
}
