//! Summary statistics, error metrics, and empirical distributions.
//!
//! The paper's evaluation reports Mean Relative Error (MRE), absolute
//! estimation errors, and CDF curves (Figures 8(b), 9(b)); this module
//! provides those plus the usual supporting statistics.

use crate::{MathError, MathResult};
use serde::{Deserialize, Serialize};

/// Arithmetic mean.
///
/// # Errors
///
/// Returns [`MathError::EmptyInput`] for empty input.
pub fn mean(xs: &[f64]) -> MathResult<f64> {
    if xs.is_empty() {
        return Err(MathError::EmptyInput { context: "mean" });
    }
    Ok(xs.iter().sum::<f64>() / xs.len() as f64)
}

/// Median (average of the two central order statistics for even length).
///
/// # Errors
///
/// Returns [`MathError::EmptyInput`] for empty input.
pub fn median(xs: &[f64]) -> MathResult<f64> {
    percentile(xs, 50.0)
}

/// Linear-interpolated percentile, `p` in `[0, 100]`.
///
/// # Errors
///
/// Returns [`MathError::EmptyInput`] for empty input and
/// [`MathError::InvalidArgument`] for `p` outside `[0, 100]`.
pub fn percentile(xs: &[f64], p: f64) -> MathResult<f64> {
    if xs.is_empty() {
        return Err(MathError::EmptyInput { context: "percentile" });
    }
    if !(0.0..=100.0).contains(&p) {
        return Err(MathError::InvalidArgument { context: "percentile p outside [0, 100]" });
    }
    let mut sorted: Vec<f64> = xs.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = p / 100.0 * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    if lo == hi {
        Ok(sorted[lo])
    } else {
        let t = rank - lo as f64;
        Ok(sorted[lo] * (1.0 - t) + sorted[hi] * t)
    }
}

/// Mean absolute error between estimates and ground truth.
fn mae(estimates: &[f64], truth: &[f64]) -> MathResult<f64> {
    check_pair(estimates, truth)?;
    mean(&estimates.iter().zip(truth).map(|(e, t)| (e - t).abs()).collect::<Vec<_>>())
}

/// Mean Relative Error, the paper's headline accuracy metric:
/// `mean(|est − truth|) / mean(|truth|)`.
///
/// This normalized form (rather than a per-sample ratio) is standard for
/// gradient profiles, where individual ground-truth samples cross zero and
/// a per-sample ratio would blow up.
///
/// # Errors
///
/// Returns [`MathError::DimensionMismatch`] when lengths differ,
/// [`MathError::EmptyInput`] for empty input, and
/// [`MathError::InvalidArgument`] if the truth signal is identically zero.
pub fn mre(estimates: &[f64], truth: &[f64]) -> MathResult<f64> {
    check_pair(estimates, truth)?;
    let denom = mean(&truth.iter().map(|t| t.abs()).collect::<Vec<_>>())?;
    if denom <= f64::EPSILON {
        return Err(MathError::InvalidArgument { context: "MRE of identically-zero truth" });
    }
    Ok(mae(estimates, truth)? / denom)
}

fn check_pair(a: &[f64], b: &[f64]) -> MathResult<()> {
    if a.len() != b.len() {
        return Err(MathError::DimensionMismatch { context: "metric input lengths" });
    }
    if a.is_empty() {
        return Err(MathError::EmptyInput { context: "metric input" });
    }
    Ok(())
}

/// An empirical cumulative distribution function over a sample.
///
/// Mirrors the CDF curves in Figures 8(b) and 9(b): build one from a set of
/// absolute estimation errors, then query `value_at(0.5)` for the median
/// error the paper reads off the `y = 0.5` line.
///
/// # Example
///
/// ```
/// use gradest_math::stats::EmpiricalCdf;
/// let cdf = EmpiricalCdf::new(&[0.1, 0.2, 0.3, 0.4])?;
/// assert!((cdf.value_at(0.5) - 0.2).abs() < 1e-12);
/// assert!((cdf.probability_below(0.35) - 0.75).abs() < 1e-12);
/// # Ok::<(), gradest_math::MathError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EmpiricalCdf {
    sorted: Vec<f64>,
}

impl EmpiricalCdf {
    /// Builds a CDF from samples.
    ///
    /// # Errors
    ///
    /// Returns [`MathError::EmptyInput`] for empty input and
    /// [`MathError::InvalidArgument`] when any sample is not finite.
    pub fn new(samples: &[f64]) -> MathResult<Self> {
        if samples.is_empty() {
            return Err(MathError::EmptyInput { context: "CDF samples" });
        }
        if samples.iter().any(|s| !s.is_finite()) {
            return Err(MathError::InvalidArgument { context: "non-finite CDF sample" });
        }
        let mut sorted = samples.to_vec();
        sorted.sort_by(f64::total_cmp);
        Ok(EmpiricalCdf { sorted })
    }

    /// Number of underlying samples.
    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// Always false: construction rejects empty samples.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Fraction of samples `<= x` (the CDF evaluated at `x`).
    pub fn probability_below(&self, x: f64) -> f64 {
        let idx = self.sorted.partition_point(|&s| s <= x);
        idx as f64 / self.sorted.len() as f64
    }

    /// Quantile: smallest sample value with CDF ≥ `p`, `p` clamped to
    /// `[0, 1]`. `value_at(0.5)` is the median error used in the paper's
    /// Figure 8(b)/9(b) reading.
    pub fn value_at(&self, p: f64) -> f64 {
        let p = p.clamp(0.0, 1.0);
        if p == 0.0 {
            return self.sorted[0];
        }
        let rank = (p * self.sorted.len() as f64).ceil() as usize;
        self.sorted[rank.clamp(1, self.sorted.len()) - 1]
    }

    /// Evaluates the CDF on a uniform grid of `n` points across the sample
    /// range, returning `(x, F(x))` pairs — exactly the series plotted in
    /// the paper's CDF figures.
    pub fn curve(&self, n: usize) -> Vec<(f64, f64)> {
        let n = n.max(2);
        let lo = self.sorted[0];
        let hi = self.sorted[self.sorted.len() - 1];
        let span = (hi - lo).max(f64::EPSILON);
        (0..n)
            .map(|i| {
                let x = lo + span * i as f64 / (n - 1) as f64;
                (x, self.probability_below(x))
            })
            .collect()
    }

    /// Underlying sorted samples.
    pub fn samples(&self) -> &[f64] {
        &self.sorted
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_of_known_values() {
        let xs = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        assert_eq!(mean(&xs).unwrap(), 5.0);
    }

    #[test]
    fn empty_inputs_rejected() {
        assert!(mean(&[]).is_err());
        assert!(median(&[]).is_err());
        assert!(mae(&[], &[]).is_err());
    }

    #[test]
    fn median_odd_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]).unwrap(), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]).unwrap(), 2.5);
    }

    #[test]
    fn percentile_interpolates() {
        let xs = [0.0, 10.0];
        assert_eq!(percentile(&xs, 0.0).unwrap(), 0.0);
        assert_eq!(percentile(&xs, 100.0).unwrap(), 10.0);
        assert_eq!(percentile(&xs, 25.0).unwrap(), 2.5);
        assert!(percentile(&xs, -1.0).is_err());
        assert!(percentile(&xs, 101.0).is_err());
    }

    #[test]
    fn error_metrics_known_values() {
        let est = [1.0, 2.0, 3.0];
        let truth = [1.0, 1.0, 1.0];
        assert_eq!(mae(&est, &truth).unwrap(), 1.0);
        assert_eq!(mre(&est, &truth).unwrap(), 1.0);
    }

    #[test]
    fn mre_handles_signed_truth() {
        // Truth crosses zero: per-sample relative error would explode, the
        // normalized MRE does not.
        let truth = [-1.0, 0.0, 1.0];
        let est = [-0.9, 0.1, 1.1];
        let e = mre(&est, &truth).unwrap();
        assert!((e - 0.15).abs() < 1e-12);
    }

    #[test]
    fn mre_zero_truth_rejected() {
        assert!(mre(&[1.0], &[0.0]).is_err());
    }

    #[test]
    fn metrics_length_mismatch() {
        assert!(mae(&[1.0], &[1.0, 2.0]).is_err());
    }

    #[test]
    fn cdf_probability_and_quantiles() {
        let cdf = EmpiricalCdf::new(&[3.0, 1.0, 2.0, 4.0]).unwrap();
        assert_eq!(cdf.len(), 4);
        assert_eq!(cdf.probability_below(0.5), 0.0);
        assert_eq!(cdf.probability_below(2.0), 0.5);
        assert_eq!(cdf.probability_below(10.0), 1.0);
        assert_eq!(cdf.value_at(0.0), 1.0);
        assert_eq!(cdf.value_at(0.5), 2.0);
        assert_eq!(cdf.value_at(1.0), 4.0);
    }

    #[test]
    fn cdf_curve_is_monotone() {
        let cdf = EmpiricalCdf::new(&[0.4, 0.1, 0.9, 0.2, 0.6]).unwrap();
        let curve = cdf.curve(50);
        assert_eq!(curve.len(), 50);
        for w in curve.windows(2) {
            assert!(w[1].1 >= w[0].1, "CDF must be non-decreasing");
            assert!(w[1].0 >= w[0].0);
        }
        assert_eq!(curve.last().unwrap().1, 1.0);
    }

    #[test]
    fn cdf_rejects_bad_samples() {
        assert!(EmpiricalCdf::new(&[]).is_err());
        assert!(EmpiricalCdf::new(&[1.0, f64::NAN]).is_err());
    }
}
