//! Lane-change steering maneuvers.
//!
//! Section III-B of the paper characterizes a lane change as a pair of
//! opposite-sign "bumps" in the steering-rate profile: counter-clockwise
//! then clockwise for a left change (positive then negative in the phone
//! frame), the mirror image for a right change. A single full sine period
//! of steering rate reproduces exactly that shape and yields a closed-form
//! lateral displacement, which we pin to the paper's 3.65 m average lane
//! width.

use serde::{Deserialize, Serialize};
use std::f64::consts::PI;

/// Direction of a lane change.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum LaneChangeDirection {
    /// Move one lane to the left (positive steering-rate bump first).
    Left,
    /// Move one lane to the right (negative steering-rate bump first).
    Right,
}

impl LaneChangeDirection {
    /// +1 for left, −1 for right.
    fn sign(self) -> f64 {
        match self {
            LaneChangeDirection::Left => 1.0,
            LaneChangeDirection::Right => -1.0,
        }
    }
}

/// A lane-change maneuver: steering rate `w(t) = ±A·sin(2π·t/D)` over
/// `t ∈ [0, D]`.
///
/// Integrating twice (steering angle, then lateral rate `v·sin α ≈ v·α`)
/// gives the small-angle lateral displacement `W ≈ v·A·D²/(2π)`, so the
/// amplitude for a target displacement is `A = 2π·W/(v·D²)`.
///
/// # Example
///
/// ```
/// use gradest_sim::maneuver::{LaneChangeDirection, LaneChangeManeuver};
/// let m = LaneChangeManeuver::for_displacement(
///     LaneChangeDirection::Left, 3.65, 13.0, 5.0);
/// // Positive bump in the first half, negative in the second.
/// assert!(m.steering_rate(1.25) > 0.0);
/// assert!(m.steering_rate(3.75) < 0.0);
/// assert_eq!(m.steering_rate(6.0), 0.0); // maneuver over
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LaneChangeManeuver {
    /// Which way the vehicle moves.
    pub direction: LaneChangeDirection,
    /// Total maneuver duration, seconds.
    pub duration_s: f64,
    /// Peak steering rate, rad/s (positive; sign comes from direction).
    pub amplitude_rad_per_s: f64,
}

impl LaneChangeManeuver {
    /// Builds a maneuver that displaces the vehicle laterally by
    /// `lateral_m` at speed `speed_mps` over `duration_s` seconds.
    ///
    /// # Panics
    ///
    /// Panics if any argument is non-positive.
    pub fn for_displacement(
        direction: LaneChangeDirection,
        lateral_m: f64,
        speed_mps: f64,
        duration_s: f64,
    ) -> Self {
        assert!(
            lateral_m > 0.0 && speed_mps > 0.0 && duration_s > 0.0,
            "maneuver parameters must be positive"
        );
        let amplitude = 2.0 * PI * lateral_m / (speed_mps * duration_s * duration_s);
        LaneChangeManeuver { direction, duration_s, amplitude_rad_per_s: amplitude }
    }

    /// Steering rate at `t` seconds into the maneuver (0 outside `[0, D]`).
    pub fn steering_rate(&self, t: f64) -> f64 {
        if !(0.0..=self.duration_s).contains(&t) {
            return 0.0;
        }
        self.direction.sign() * self.amplitude_rad_per_s * (2.0 * PI * t / self.duration_s).sin()
    }

    /// Small-angle prediction of the final lateral displacement at
    /// constant speed `v` (signed: positive = left).
    pub fn predicted_displacement(&self, v: f64) -> f64 {
        self.direction.sign() * v * self.amplitude_rad_per_s * self.duration_s * self.duration_s
            / (2.0 * PI)
    }

    /// Duration the |steering rate| stays at or above `fraction` of its
    /// peak, per bump — the paper's `T` feature (with `fraction = 0.7`).
    pub fn time_above(&self, fraction: f64) -> f64 {
        assert!((0.0..1.0).contains(&fraction), "fraction must be in [0, 1)");
        // |sin x| ≥ f on [asin f, π − asin f] within each half period.
        let half = self.duration_s / 2.0;
        (PI - 2.0 * fraction.asin()) / PI * half
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn left(v: f64, d: f64) -> LaneChangeManeuver {
        LaneChangeManeuver::for_displacement(LaneChangeDirection::Left, 3.65, v, d)
    }

    #[test]
    fn bump_signs_match_paper_convention() {
        let m = left(13.0, 5.0);
        // Left: positive bump then negative bump.
        assert!(m.steering_rate(1.25) > 0.0);
        assert!(m.steering_rate(3.75) < 0.0);
        let r = LaneChangeManeuver::for_displacement(LaneChangeDirection::Right, 3.65, 13.0, 5.0);
        assert!(r.steering_rate(1.25) < 0.0);
        assert!(r.steering_rate(3.75) > 0.0);
    }

    #[test]
    fn numeric_displacement_matches_target() {
        // Integrate dl = v·sin(α) dt and check we land ~3.65 m left.
        for &(v, d) in &[(4.17, 5.0), (8.33, 5.0), (13.0, 4.0), (18.0, 6.0)] {
            let m = left(v, d);
            let dt = 1e-3;
            let mut alpha = 0.0;
            let mut l = 0.0;
            let steps = (d / dt) as usize;
            for i in 0..steps {
                let t = i as f64 * dt;
                alpha += m.steering_rate(t) * dt;
                l += v * alpha.sin() * dt;
            }
            assert!((l - 3.65).abs() < 0.10, "v={v} d={d}: displacement {l}");
        }
    }

    #[test]
    fn amplitude_scales_inverse_with_speed() {
        let slow = left(4.17, 5.0); // 15 km/h
        let fast = left(18.06, 5.0); // 65 km/h
        assert!(slow.amplitude_rad_per_s > fast.amplitude_rad_per_s);
        // Paper's Table I magnitudes are ~0.1–0.2 rad/s at urban speeds.
        let urban = left(8.33, 5.0); // 30 km/h
        assert!(
            (0.05..0.4).contains(&urban.amplitude_rad_per_s),
            "A = {}",
            urban.amplitude_rad_per_s
        );
    }

    #[test]
    fn time_above_070_matches_analytics() {
        let m = left(13.0, 5.5);
        let t = m.time_above(0.7);
        // Closed form: (π − 2·asin 0.7)/π · D/2 ≈ 0.2532·D.
        assert!((t - 0.2532 * 5.5).abs() < 0.01, "T = {t}");
        // Numeric check: count samples above 0.7·A in the first bump.
        let dt = 1e-4;
        let mut count = 0usize;
        let mut n = 0usize;
        let steps = (m.duration_s / 2.0 / dt) as usize;
        for i in 0..steps {
            let w = m.steering_rate(i as f64 * dt);
            if w >= 0.7 * m.amplitude_rad_per_s {
                count += 1;
            }
            n += 1;
        }
        let numeric = count as f64 / n as f64 * m.duration_s / 2.0;
        assert!((numeric - t).abs() < 0.01, "numeric {numeric} vs {t}");
    }

    #[test]
    fn rate_zero_outside_span() {
        let m = left(13.0, 5.0);
        assert_eq!(m.steering_rate(-0.1), 0.0);
        assert_eq!(m.steering_rate(5.1), 0.0);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn rejects_nonpositive_speed() {
        let _ = LaneChangeManeuver::for_displacement(LaneChangeDirection::Left, 3.65, 0.0, 5.0);
    }
}
