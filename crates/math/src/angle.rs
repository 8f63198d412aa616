//! Angle arithmetic helpers.
//!
//! Headings, steering angles, and road directions constantly wrap around
//! ±π; these helpers centralize the wrapping rules so every crate agrees.

use std::f64::consts::PI;

/// Wraps an angle to the half-open interval `(-π, π]`.
///
/// # Example
///
/// ```
/// use gradest_math::angle::wrap_pi;
/// use std::f64::consts::PI;
/// assert!((wrap_pi(3.0 * PI) - PI).abs() < 1e-12);
/// assert!((wrap_pi(-3.0 * PI / 2.0) - PI / 2.0).abs() < 1e-12);
/// ```
#[inline]
pub fn wrap_pi(angle: f64) -> f64 {
    let mut a = angle % (2.0 * PI);
    if a <= -PI {
        a += 2.0 * PI;
    } else if a > PI {
        a -= 2.0 * PI;
    }
    a
}

/// Wraps an angle to `[0, 2π)`.
#[inline]
pub fn wrap_two_pi(angle: f64) -> f64 {
    let mut a = angle % (2.0 * PI);
    if a < 0.0 {
        a += 2.0 * PI;
    }
    a
}

/// Signed smallest difference `a - b`, wrapped to `(-π, π]`.
///
/// This is the correct way to subtract two headings: the result is the
/// rotation that takes `b` to `a`.
#[inline]
pub fn angle_diff(a: f64, b: f64) -> f64 {
    wrap_pi(a - b)
}

/// Converts degrees to radians.
#[inline]
pub fn deg_to_rad(deg: f64) -> f64 {
    deg * PI / 180.0
}

/// Converts radians to degrees.
#[inline]
pub fn rad_to_deg(rad: f64) -> f64 {
    rad * 180.0 / PI
}

#[cfg(test)]
mod tests {
    use super::*;

    const EPS: f64 = 1e-12;

    #[test]
    fn wrap_pi_basics() {
        assert!((wrap_pi(0.0)).abs() < EPS);
        assert!((wrap_pi(PI) - PI).abs() < EPS);
        assert!((wrap_pi(-PI) - PI).abs() < EPS); // -π maps to π in (-π, π]
        assert!((wrap_pi(2.0 * PI)).abs() < EPS);
        assert!((wrap_pi(5.0 * PI / 2.0) - PI / 2.0).abs() < EPS);
        assert!((wrap_pi(-5.0 * PI / 2.0) + PI / 2.0).abs() < EPS);
    }

    #[test]
    fn wrap_pi_stays_in_range() {
        for i in -100..=100 {
            let a = wrap_pi(i as f64 * 0.37);
            assert!(a > -PI - EPS && a <= PI + EPS, "{a} out of range");
        }
    }

    #[test]
    fn wrap_two_pi_basics() {
        assert!((wrap_two_pi(-0.1) - (2.0 * PI - 0.1)).abs() < EPS);
        assert!((wrap_two_pi(2.0 * PI)).abs() < EPS);
        for i in -100..=100 {
            let a = wrap_two_pi(i as f64 * 0.53);
            assert!((0.0..2.0 * PI + EPS).contains(&a));
        }
    }

    #[test]
    fn angle_diff_crossing_wrap() {
        // 10° heading minus 350° heading should be +20°, not -340°.
        let a = deg_to_rad(10.0);
        let b = deg_to_rad(350.0);
        assert!((angle_diff(a, b) - deg_to_rad(20.0)).abs() < EPS);
        assert!((angle_diff(b, a) + deg_to_rad(20.0)).abs() < EPS);
    }

    #[test]
    fn deg_rad_round_trip() {
        for d in [-720.0, -90.0, 0.0, 45.0, 360.5] {
            assert!((rad_to_deg(deg_to_rad(d)) - d).abs() < 1e-9);
        }
    }
}
