//! Linear interpolation and time-series resampling.
//!
//! Sensor streams arrive at different rates (IMU 50 Hz, GPS 1 Hz, CAN
//! 10 Hz); the estimation pipeline resamples them onto a common clock with
//! these routines.

use crate::{MathError, MathResult};

/// Interpolates `ys` sampled at strictly increasing `xs` at query point `x`.
///
/// Values outside the domain are clamped to the boundary samples
/// (constant extrapolation), which is the conservative choice for sensor
/// streams. Validates the series, then answers through [`Interpolant`];
/// a caller querying one series many times builds the table once (or
/// uses [`interp1_or`]).
///
/// # Errors
///
/// Returns [`MathError::EmptyInput`] for empty inputs,
/// [`MathError::DimensionMismatch`] when `xs` and `ys` lengths differ, and
/// [`MathError::InvalidArgument`] when `xs` is not strictly increasing or
/// `x` is NaN.
pub fn interp1(xs: &[f64], ys: &[f64], x: f64) -> MathResult<f64> {
    let table = Interpolant::new(xs, ys)?;
    if x.is_nan() {
        return Err(MathError::InvalidArgument { context: "query point is NaN" });
    }
    Ok(table.at(x))
}

/// `interp1(xs, ys, x).unwrap_or(fallback)` as a lookup over one series:
/// the series is validated once, so each query is a binary search. An
/// invalid series answers `fallback` everywhere, and so does a NaN query.
pub fn interp1_or<'a>(xs: &'a [f64], ys: &'a [f64], fallback: f64) -> impl Fn(f64) -> f64 + 'a {
    let table = Interpolant::new(xs, ys).ok();
    move |x| match &table {
        Some(table) if !x.is_nan() => table.at(x),
        _ => fallback,
    }
}

/// A validated interpolation table over borrowed knots: checks the
/// series once at construction, then answers queries with just a binary
/// search. It holds the workspace's one clamped linear interpolation;
/// [`interp1`] and [`interp1_or`] answer through it.
///
/// Borrowing the knots lets a warm caller interpolate its own staged
/// columns without allocating.
///
/// # Example
///
/// ```
/// use gradest_math::interp::Interpolant;
///
/// let (xs, ys) = ([0.0, 1.0, 3.0], [0.0, 10.0, 30.0]);
/// let f = Interpolant::new(&xs, &ys)?;
/// assert_eq!(f.at(2.0), 20.0);
/// assert_eq!(f.at(-1.0), 0.0); // clamped
/// # Ok::<(), gradest_math::MathError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Interpolant<'a> {
    xs: &'a [f64],
    ys: &'a [f64],
}

impl<'a> Interpolant<'a> {
    /// Builds a table over `ys` sampled at strictly increasing `xs`.
    ///
    /// # Errors
    ///
    /// Same validation as [`interp1`]: non-empty, equal lengths,
    /// strictly increasing finite abscissae.
    pub fn new(xs: &'a [f64], ys: &'a [f64]) -> MathResult<Self> {
        validate_series(xs, ys)?;
        Ok(Interpolant { xs, ys })
    }

    /// Interpolates at `x`, clamping outside the domain. A knot answers
    /// its own sample, so a signed zero finds a knot at the other zero.
    /// NaN queries return the first sample (callers needing strictness
    /// should use [`interp1`]).
    pub fn at(&self, x: f64) -> f64 {
        let (xs, ys) = (self.xs, self.ys);
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
        ys[idx - 1] + (ys[idx] - ys[idx - 1]) * t // lint:allow(hot-index) same idx bounds as x0/x1 above
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
    use proptest::prelude::*;

    /// `interp1` as it stood before it answered through [`Interpolant`]
    /// (a total-order binary search of its own), the reference the shared
    /// arithmetic is pinned to.
    fn reference_interp1(xs: &[f64], ys: &[f64], x: f64) -> MathResult<f64> {
        validate_series(xs, ys)?;
        if x.is_nan() {
            return Err(MathError::InvalidArgument { context: "query point is NaN" });
        }
        if x <= xs[0] {
            return Ok(ys[0]);
        }
        if x >= xs[xs.len() - 1] {
            return Ok(ys[ys.len() - 1]);
        }
        let idx = match xs.binary_search_by(|v| v.total_cmp(&x)) {
            Ok(i) => return Ok(ys[i]),
            Err(i) => i,
        };
        let (x0, x1) = (xs[idx - 1], xs[idx]);
        let t = (x - x0) / (x1 - x0);
        Ok(ys[idx - 1] + (ys[idx] - ys[idx - 1]) * t)
    }

    /// A finite series of 0–6 strictly increasing knots, some samples at
    /// ±0.0. Half the time the series is moved so that one knot sits
    /// exactly at +0.0 or -0.0; a third of the time it is broken for the
    /// fallback cases (a repeated knot, decreasing knots, a NaN knot, one
    /// sample short).
    fn series() -> impl Strategy<Value = (Vec<f64>, Vec<f64>)> {
        let knot = (0.001..20.0f64, -1e3..1e3f64, 0u8..8);
        let zero = (0usize..12, any::<bool>());
        (0usize..7, -50.0..50.0f64, prop::collection::vec(knot, 6), zero, 0u8..12).prop_map(
            |(n, x0, knots, (zero_at, negative), corrupt)| {
                let (mut xs, mut ys) = (Vec::new(), Vec::new());
                let mut x = x0;
                for &(dx, y, pick) in &knots[..n] {
                    xs.push(x);
                    ys.push(match pick {
                        0 => 0.0,
                        1 => -0.0,
                        _ => y,
                    });
                    x += dx;
                }
                if zero_at < xs.len() {
                    let origin = xs[zero_at];
                    for v in xs.iter_mut() {
                        *v -= origin;
                    }
                    if negative {
                        xs[zero_at] = -0.0;
                    }
                }
                match (corrupt, xs.len()) {
                    (8, 2..) => xs[1] = xs[0],
                    (9, 2..) => xs.reverse(),
                    (10, 1..) => xs[0] = f64::NAN,
                    (11, 1..) => {
                        ys.pop();
                    }
                    _ => {}
                }
                (xs, ys)
            },
        )
    }

    /// Every knot, the midpoint and a random point of every interval,
    /// points beyond both ends, both infinities, both zeros and NaN.
    fn queries(xs: &[f64], u: f64) -> Vec<f64> {
        let mut q = vec![f64::NAN, f64::INFINITY, f64::NEG_INFINITY, 0.0, -0.0, 300.0 * u - 150.0];
        q.extend_from_slice(xs);
        for w in xs.windows(2) {
            q.push(0.5 * (w[0] + w[1]));
            q.push(w[0] + u * (w[1] - w[0]));
        }
        if let (Some(first), Some(last)) = (xs.first(), xs.last()) {
            q.extend([first - 1.0, last + 1.0]);
        }
        q
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        #[test]
        fn the_shared_arithmetic_equals_the_reference(series in series(), u in 0.0..1.0f64) {
            let (xs, ys) = series;
            let or_fallback = interp1_or(&xs, &ys, 7.5);
            let table = Interpolant::new(&xs, &ys);
            let interior = xs.get(1..xs.len().saturating_sub(1)).unwrap_or(&[]);
            for x in queries(&xs, u) {
                let got = interp1(&xs, &ys, x);
                let want = reference_interp1(&xs, &ys, x);
                match interior.iter().position(|&k| k == 0.0 && k.to_bits() != x.to_bits()) {
                    // A zero query at an interior knot of the other
                    // zero: the reference's total-order search stepped
                    // past the knot and interpolated toward its
                    // neighbour, while the table answers the knot's own
                    // sample, as the pipeline's speed lookup always did.
                    Some(k) if x == 0.0 && want.is_ok() => {
                        prop_assert_eq!(got.clone().map(f64::to_bits), Ok(ys[k + 1].to_bits()));
                    }
                    _ => prop_assert_eq!(got.clone().map(f64::to_bits), want.map(f64::to_bits)),
                }
                prop_assert_eq!(or_fallback(x).to_bits(), got.clone().unwrap_or(7.5).to_bits());
                if let Ok(table) = &table {
                    let want = if x.is_nan() { ys[0] } else { got.clone().unwrap() };
                    prop_assert_eq!(table.at(x).to_bits(), want.to_bits());
                }
            }
        }
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
