//! Linear interpolation and time-series resampling.
//!
//! Sensor streams arrive at different rates (IMU 50 Hz, GPS 1 Hz, CAN
//! 10 Hz); the estimation pipeline resamples them onto a common clock with
//! these routines.

use crate::{MathError, MathResult};

/// Scalar linear interpolation: `a` at `t = 0`, `b` at `t = 1`.
#[inline]
pub fn lerp(a: f64, b: f64, t: f64) -> f64 {
    a + (b - a) * t
}

/// Interpolates `ys` sampled at strictly increasing `xs` at query point `x`.
///
/// Values outside the domain are clamped to the boundary samples
/// (constant extrapolation), which is the conservative choice for sensor
/// streams.
///
/// # Errors
///
/// Returns [`MathError::EmptyInput`] for empty inputs,
/// [`MathError::DimensionMismatch`] when `xs` and `ys` lengths differ, and
/// [`MathError::InvalidArgument`] when `xs` is not strictly increasing or
/// `x` is NaN.
pub fn interp1(xs: &[f64], ys: &[f64], x: f64) -> MathResult<f64> {
    validate_series(xs, ys)?;
    if x.is_nan() {
        return Err(MathError::InvalidArgument { context: "query point is NaN" });
    }
    if x <= xs[0] {
        return Ok(ys[0]);
    }
    // lint:allow(hot-index) validate_series rejects empty xs
    if x >= xs[xs.len() - 1] {
        return Ok(ys[ys.len() - 1]); // lint:allow(hot-index) ys.len() == xs.len() >= 1 after validation
    }
    // Binary search for the bracketing interval.
    let idx = match xs.binary_search_by(|v| v.total_cmp(&x)) {
        Ok(i) => return Ok(ys[i]),
        Err(i) => i,
    };
    // lint:allow(hot-index) xs[0] < x < xs[last], so the insertion point satisfies 1 <= idx <= len - 1
    let (x0, x1) = (xs[idx - 1], xs[idx]);
    let t = (x - x0) / (x1 - x0);
    Ok(lerp(ys[idx - 1], ys[idx], t)) // lint:allow(hot-index) same idx bounds as x0/x1 above
}

/// A validated interpolation table: checks the series once at
/// construction, then answers queries with just a binary search.
///
/// [`interp1`] re-validates the whole series on every call — an O(n)
/// scan that dominates when the same series is queried thousands of
/// times (speed lookups at the IMU rate, per-metre road profiles). Use
/// this type for repeated queries; semantics are identical.
///
/// # Example
///
/// ```
/// use gradest_math::interp::Interpolant;
///
/// let f = Interpolant::new(vec![0.0, 1.0, 3.0], vec![0.0, 10.0, 30.0])?;
/// assert_eq!(f.at(2.0), 20.0);
/// assert_eq!(f.at(-1.0), 0.0); // clamped
/// # Ok::<(), gradest_math::MathError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Interpolant {
    xs: Vec<f64>,
    ys: Vec<f64>,
}

impl Interpolant {
    /// Builds a table over `ys` sampled at strictly increasing `xs`.
    ///
    /// # Errors
    ///
    /// Same validation as [`interp1`]: non-empty, equal lengths,
    /// strictly increasing finite abscissae.
    pub fn new(xs: Vec<f64>, ys: Vec<f64>) -> MathResult<Self> {
        validate_series(&xs, &ys)?;
        Ok(Interpolant { xs, ys })
    }

    /// Number of knots.
    pub fn len(&self) -> usize {
        self.xs.len()
    }

    /// Always false (construction rejects empty series).
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Interpolates at `x`, clamping outside the domain. NaN queries
    /// return the first sample (callers needing strictness should use
    /// [`interp1`]).
    pub fn at(&self, x: f64) -> f64 {
        let xs = &self.xs;
        let ys = &self.ys;
        if x.is_nan() || x <= xs[0] {
            return ys[0];
        }
        // lint:allow(hot-index) construction rejects empty series
        if x >= xs[xs.len() - 1] {
            return ys[ys.len() - 1]; // lint:allow(hot-index) ys.len() == xs.len() >= 1 by construction
        }
        let idx = xs.partition_point(|&v| v < x);
        if xs[idx] == x {
            return ys[idx];
        }
        // lint:allow(hot-index) xs[0] < x < xs[last], so 1 <= idx <= len - 1
        let (x0, x1) = (xs[idx - 1], xs[idx]);
        let t = (x - x0) / (x1 - x0);
        lerp(ys[idx - 1], ys[idx], t) // lint:allow(hot-index) same idx bounds as x0/x1 above
    }
}

fn validate_series(xs: &[f64], ys: &[f64]) -> MathResult<()> {
    if xs.is_empty() {
        return Err(MathError::EmptyInput { context: "interpolation abscissae" });
    }
    if xs.len() != ys.len() {
        return Err(MathError::DimensionMismatch { context: "interp xs/ys lengths" });
    }
    for w in xs.windows(2) {
        if w[0].is_nan() || w[1].is_nan() || w[1] <= w[0] {
            return Err(MathError::InvalidArgument {
                context: "abscissae must be strictly increasing and finite",
            });
        }
    }
    if xs.iter().any(|v| !v.is_finite()) {
        return Err(MathError::InvalidArgument { context: "non-finite abscissa" });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lerp_endpoints() {
        assert_eq!(lerp(2.0, 4.0, 0.0), 2.0);
        assert_eq!(lerp(2.0, 4.0, 1.0), 4.0);
        assert_eq!(lerp(2.0, 4.0, 0.5), 3.0);
    }

    #[test]
    fn interp1_midpoints_and_knots() {
        let xs = [0.0, 1.0, 3.0];
        let ys = [0.0, 10.0, 30.0];
        assert_eq!(interp1(&xs, &ys, 0.5).unwrap(), 5.0);
        assert_eq!(interp1(&xs, &ys, 1.0).unwrap(), 10.0);
        assert_eq!(interp1(&xs, &ys, 2.0).unwrap(), 20.0);
    }

    #[test]
    fn interp1_clamps_out_of_range() {
        let xs = [0.0, 1.0];
        let ys = [5.0, 7.0];
        assert_eq!(interp1(&xs, &ys, -1.0).unwrap(), 5.0);
        assert_eq!(interp1(&xs, &ys, 2.0).unwrap(), 7.0);
    }

    #[test]
    fn interp1_single_point() {
        assert_eq!(interp1(&[1.0], &[9.0], 0.0).unwrap(), 9.0);
        assert_eq!(interp1(&[1.0], &[9.0], 5.0).unwrap(), 9.0);
    }

    #[test]
    fn interp1_rejects_bad_input() {
        assert!(interp1(&[], &[], 0.0).is_err());
        assert!(interp1(&[0.0, 1.0], &[0.0], 0.5).is_err());
        assert!(interp1(&[0.0, 0.0], &[1.0, 2.0], 0.0).is_err());
        assert!(interp1(&[1.0, 0.0], &[1.0, 2.0], 0.5).is_err());
        assert!(interp1(&[0.0, 1.0], &[1.0, 2.0], f64::NAN).is_err());
    }
}
