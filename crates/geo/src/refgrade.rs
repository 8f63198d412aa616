//! Reference road-gradient profiling (the paper's Section III-D).
//!
//! The paper obtains ground truth by driving a high-accuracy altimeter
//! (±0.01 m) over the road, dividing it into 1 m segments, and computing
//! each segment's gradient as `arcsin(Δz/d)`. [`reference_profile`]
//! implements that method verbatim over a [`Road`]'s altitude profile, and
//! [`GradientProfile`] is the resulting queryable profile used as ground
//! truth by every experiment.

use crate::road::Road;
use gradest_math::interp::interp1;
use serde::{Deserialize, Serialize};

/// A gradient profile: θ(s) sampled along arc length.
///
/// # Example
///
/// ```
/// use gradest_geo::refgrade::GradientProfile;
/// let p = GradientProfile::new(vec![0.0, 100.0], vec![0.02, 0.04])?;
/// assert!((p.theta_at(50.0) - 0.03).abs() < 1e-12);
/// # Ok::<(), gradest_geo::refgrade::ProfileError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GradientProfile {
    s: Vec<f64>,
    theta: Vec<f64>,
}

/// Error building a [`GradientProfile`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProfileError {
    /// Input was empty or lengths mismatched.
    BadShape,
    /// Arc lengths must be strictly increasing and finite.
    NotIncreasing,
}

impl std::fmt::Display for ProfileError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProfileError::BadShape => write!(f, "profile arrays empty or mismatched"),
            ProfileError::NotIncreasing => {
                write!(f, "profile arc lengths must be strictly increasing")
            }
        }
    }
}

impl std::error::Error for ProfileError {}

impl GradientProfile {
    /// Builds a profile from parallel `(s, θ)` arrays.
    ///
    /// # Errors
    ///
    /// Returns [`ProfileError`] for empty/mismatched arrays or
    /// non-increasing arc lengths.
    pub fn new(s: Vec<f64>, theta: Vec<f64>) -> Result<Self, ProfileError> {
        if s.is_empty() || s.len() != theta.len() {
            return Err(ProfileError::BadShape);
        }
        if s.windows(2).any(|w| w[0].is_nan() || w[1].is_nan() || w[1] <= w[0])
            || s.iter().any(|v| !v.is_finite())
        {
            return Err(ProfileError::NotIncreasing);
        }
        Ok(GradientProfile { s, theta })
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.s.len()
    }

    /// Always false (construction rejects empty profiles).
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Gradient at arc length `s` by linear interpolation (clamped).
    // `interp1`, not a kept table: its NaN error is this method's panic.
    pub fn theta_at(&self, s: f64) -> f64 {
        interp1(&self.s, &self.theta, s).expect("validated at construction")
    }

    /// Integrates the profile back to an altitude gain over `[0, s]`,
    /// trapezoidal in `sin θ` per metre — the inverse of the Section III-D
    /// construction, useful for round-trip validation.
    pub fn altitude_gain(&self, s: f64) -> f64 {
        let s = s.clamp(self.s[0], *self.s.last().expect("nonempty"));
        let mut gain = 0.0;
        for i in 1..self.s.len() {
            let s0 = self.s[i - 1];
            let s1 = self.s[i].min(s);
            if s1 <= s0 {
                break;
            }
            let th0 = self.theta[i - 1];
            let th1 = self.theta_at(s1);
            gain += 0.5 * (th0.sin() + th1.sin()) * (s1 - s0);
            if self.s[i] >= s {
                break;
            }
        }
        gain
    }
}

/// Computes a reference gradient profile from altitude samples along a
/// road, the paper's Section III-D method: divide into `segment_len`-metre
/// segments, gradient = `arcsin(Δz/d)` per segment.
///
/// `altitude_noise` simulates the altimeter's accuracy (the paper's device
/// is ±0.01 m); pass a closure returning per-sample noise (e.g. from a
/// seeded RNG), or `|_| 0.0` for exact truth.
///
/// The returned profile places each segment's gradient at the segment
/// midpoint.
///
/// # Panics
///
/// Panics if `segment_len <= 0` or the road is shorter than one segment.
pub fn reference_profile(
    road: &Road,
    segment_len: f64,
    mut altitude_noise: impl FnMut(usize) -> f64,
) -> GradientProfile {
    assert!(segment_len > 0.0, "segment length must be positive");
    let n = (road.length() / segment_len).floor() as usize;
    assert!(n >= 1, "road shorter than one segment");
    let mut s = Vec::with_capacity(n);
    let mut theta = Vec::with_capacity(n);
    let mut z_prev = road.altitude_at(0.0) + altitude_noise(0);
    for i in 0..n {
        let s1 = (i + 1) as f64 * segment_len;
        let z1 = road.altitude_at(s1) + altitude_noise(i + 1);
        let ratio = ((z1 - z_prev) / segment_len).clamp(-1.0, 1.0);
        theta.push(ratio.asin());
        s.push((i as f64 + 0.5) * segment_len);
        z_prev = z1;
    }
    GradientProfile::new(s, theta).expect("constructed increasing")
}

/// Summary statistics of a gradient profile — the "route difficulty"
/// numbers an eco-routing or fleet UI reports.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ProfileStats {
    /// Maximum gradient, radians.
    pub max_theta: f64,
    /// Minimum (most negative) gradient, radians.
    pub min_theta: f64,
    /// Mean |gradient|, radians.
    pub mean_abs_theta: f64,
    /// Total climb (sum of positive altitude deltas), metres.
    pub total_climb_m: f64,
    /// Total descent (sum of negative altitude deltas, positive number),
    /// metres.
    pub total_descent_m: f64,
    /// Fraction of the profile steeper than 2° (either sign).
    pub steep_fraction: f64,
}

impl GradientProfile {
    /// Computes summary statistics over the profile.
    pub fn stats(&self) -> ProfileStats {
        let mut max_theta = f64::MIN;
        let mut min_theta = f64::MAX;
        let mut abs_sum = 0.0;
        let mut climb = 0.0;
        let mut descent = 0.0;
        let mut steep = 0usize;
        let steep_thresh = 2.0f64.to_radians();
        for i in 0..self.theta.len() {
            let th = self.theta[i];
            max_theta = max_theta.max(th);
            min_theta = min_theta.min(th);
            abs_sum += th.abs();
            if th.abs() > steep_thresh {
                steep += 1;
            }
            if i + 1 < self.s.len() {
                let ds = self.s[i + 1] - self.s[i];
                let dz = th.sin() * ds;
                if dz > 0.0 {
                    climb += dz;
                } else {
                    descent -= dz;
                }
            }
        }
        ProfileStats {
            max_theta,
            min_theta,
            mean_abs_theta: abs_sum / self.theta.len() as f64,
            total_climb_m: climb,
            total_descent_m: descent,
            steep_fraction: steep as f64 / self.theta.len() as f64,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::road::{build_from_sections, RoadClass, SectionSpec};
    use gradest_math::Vec2;

    fn hill_road() -> Road {
        build_from_sections(
            1,
            "hill",
            Vec2::ZERO,
            0.0,
            &[
                SectionSpec { length_m: 500.0, gradient_deg: 3.0, lanes: 1, curvature: 0.0 },
                SectionSpec { length_m: 500.0, gradient_deg: -2.0, lanes: 1, curvature: 0.0 },
            ],
            5.0,
            100.0,
            13.0,
            RoadClass::Collector,
        )
        .unwrap()
    }

    #[test]
    fn profile_construction_and_query() {
        let p = GradientProfile::new(vec![0.0, 10.0, 20.0], vec![0.0, 0.1, 0.0]).unwrap();
        assert_eq!(p.len(), 3);
        assert!((p.theta_at(5.0) - 0.05).abs() < 1e-12);
        assert_eq!(p.theta_at(-1.0), 0.0);
        assert_eq!(p.theta_at(100.0), 0.0);
        assert_eq!((p.theta_at(0.0), p.theta_at(10.0)), (0.0, 0.1));
    }

    #[test]
    fn profile_validation() {
        assert_eq!(GradientProfile::new(vec![], vec![]).unwrap_err(), ProfileError::BadShape);
        assert_eq!(
            GradientProfile::new(vec![0.0], vec![0.0, 1.0]).unwrap_err(),
            ProfileError::BadShape
        );
        assert_eq!(
            GradientProfile::new(vec![0.0, 0.0], vec![0.0, 1.0]).unwrap_err(),
            ProfileError::NotIncreasing
        );
    }

    #[test]
    fn reference_profile_recovers_section_gradients() {
        let road = hill_road();
        let p = reference_profile(&road, 1.0, |_| 0.0);
        // Midpoint of the uphill section.
        let th_up = p.theta_at(250.0);
        assert!((th_up.to_degrees() - 3.0).abs() < 0.1, "{}", th_up.to_degrees());
        let th_down = p.theta_at(750.0);
        assert!((th_down.to_degrees() + 2.0).abs() < 0.1, "{}", th_down.to_degrees());
        // ~1000 one-metre segments.
        assert_eq!(p.len(), 1000);
    }

    #[test]
    fn reference_profile_with_altimeter_noise_stays_close() {
        let road = hill_road();
        // ±0.01 m deterministic pseudo-noise.
        let p = reference_profile(&road, 1.0, |i| if i % 2 == 0 { 0.01 } else { -0.01 });
        // Per-segment error bounded by asin(0.02/1) ≈ 1.15°; the mean over
        // the section is far smaller.
        let mid: Vec<f64> = (200..300).map(|i| p.theta_at(i as f64)).collect();
        let mean = mid.iter().sum::<f64>() / mid.len() as f64;
        assert!((mean.to_degrees() - 3.0).abs() < 0.2, "{}", mean.to_degrees());
    }

    #[test]
    fn altitude_gain_round_trip() {
        let road = hill_road();
        let p = reference_profile(&road, 1.0, |_| 0.0);
        let gain = p.altitude_gain(1000.0);
        let truth = road.altitude_at(1000.0) - road.altitude_at(0.0);
        assert!((gain - truth).abs() < 0.5, "gain {gain} vs {truth}");
    }

    #[test]
    fn stats_of_the_red_road() {
        use crate::generate::red_road;
        let road = red_road();
        let p = reference_profile(&road, 1.0, |_| 0.0);
        let st = p.stats();
        // Steepest section is +3.4°, most negative −2.6°.
        assert!((st.max_theta.to_degrees() - 3.4).abs() < 0.2, "{}", st.max_theta.to_degrees());
        assert!((st.min_theta.to_degrees() + 2.6).abs() < 0.2);
        // Climb = sum of uphill section gains.
        let expect_climb: f64 = [320.0 * 2.8f64, 340.0 * 3.4, 330.0 * 2.4, 300.0 * 1.9]
            .iter()
            .zip([320.0, 340.0, 330.0, 300.0])
            .map(|(lg, len): (&f64, f64)| (lg / len).to_radians().tan() * len)
            .sum();
        assert!(
            (st.total_climb_m - expect_climb).abs() < 2.0,
            "climb {} vs {}",
            st.total_climb_m,
            expect_climb
        );
        assert!(st.total_descent_m > 10.0);
        // Most of the road is steeper than 2°.
        assert!(st.steep_fraction > 0.5, "{}", st.steep_fraction);
        assert!(st.mean_abs_theta > 0.02);
    }

    #[test]
    fn stats_of_a_flat_profile() {
        let p = GradientProfile::new(vec![0.0, 100.0, 200.0], vec![0.0, 0.0, 0.0]).unwrap();
        let st = p.stats();
        assert_eq!(st.total_climb_m, 0.0);
        assert_eq!(st.total_descent_m, 0.0);
        assert_eq!(st.steep_fraction, 0.0);
        assert_eq!(st.mean_abs_theta, 0.0);
    }

    #[test]
    #[should_panic(expected = "segment length")]
    fn reference_profile_rejects_bad_segment() {
        let road = hill_road();
        let _ = reference_profile(&road, 0.0, |_| 0.0);
    }
}
