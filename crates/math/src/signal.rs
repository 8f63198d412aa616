//! Discrete signal utilities: finite differences, cumulative integration,
//! and moving averages.
//!
//! Used to derive acceleration from velocity streams, accumulate steering
//! angle from steering rate (Eq 1/2 of the paper), and pre-filter noisy
//! series.

use crate::{MathError, MathResult};

/// Central finite difference of `ys` sampled at uniform spacing `dt`.
///
/// Endpoints use one-sided differences, interior points
/// `(y[i+1] − y[i−1]) / (2·dt)`.
///
/// # Errors
///
/// Returns [`MathError::EmptyInput`] for inputs shorter than 2 samples and
/// [`MathError::InvalidArgument`] for non-positive `dt`.
pub fn differentiate(ys: &[f64], dt: f64) -> MathResult<Vec<f64>> {
    if ys.len() < 2 {
        return Err(MathError::EmptyInput { context: "differentiate needs >= 2 samples" });
    }
    if dt.is_nan() || dt <= 0.0 {
        return Err(MathError::InvalidArgument { context: "differentiate dt must be > 0" });
    }
    let n = ys.len();
    let mut out = Vec::with_capacity(n);
    out.push((ys[1] - ys[0]) / dt);
    for i in 1..n - 1 {
        out.push((ys[i + 1] - ys[i - 1]) / (2.0 * dt)); // lint:allow(hot-index) 1 <= i <= n - 2 from the loop range
    }
    out.push((ys[n - 1] - ys[n - 2]) / dt); // lint:allow(hot-index) n >= 2 checked at entry
    Ok(out)
}

/// Cumulative trapezoidal integral of `ys` at uniform spacing `dt`,
/// starting from `initial`.
///
/// Output has the same length as input; `out[0] == initial`.
///
/// # Errors
///
/// Returns [`MathError::EmptyInput`] for empty input and
/// [`MathError::InvalidArgument`] for non-positive `dt`.
pub fn integrate_cumulative(ys: &[f64], dt: f64, initial: f64) -> MathResult<Vec<f64>> {
    if ys.is_empty() {
        return Err(MathError::EmptyInput { context: "integrate input" });
    }
    if dt.is_nan() || dt <= 0.0 {
        return Err(MathError::InvalidArgument { context: "integrate dt must be > 0" });
    }
    let mut out = Vec::with_capacity(ys.len());
    let mut acc = initial;
    out.push(acc);
    for w in ys.windows(2) {
        acc += 0.5 * (w[0] + w[1]) * dt;
        out.push(acc);
    }
    Ok(out)
}

/// Left-Riemann cumulative sum `out[i] = initial + Σ_{j<i} ys[j]·dt` —
/// the discrete accumulation used by the paper's Eq (1)/(2)
/// (`α_i = Σ_{j=0..i} w_steer^j · Ω`).
///
/// # Errors
///
/// Same as [`integrate_cumulative`].
pub fn cumsum_scaled(ys: &[f64], dt: f64, initial: f64) -> MathResult<Vec<f64>> {
    if ys.is_empty() {
        return Err(MathError::EmptyInput { context: "cumsum input" });
    }
    if dt.is_nan() || dt <= 0.0 {
        return Err(MathError::InvalidArgument { context: "cumsum dt must be > 0" });
    }
    let mut out = Vec::with_capacity(ys.len());
    let mut acc = initial;
    for &y in ys {
        acc += y * dt;
        out.push(acc);
    }
    Ok(out)
}

/// Centered moving average with window `2·half + 1`, truncated at the
/// boundaries.
///
/// # Errors
///
/// Returns [`MathError::EmptyInput`] for empty input.
pub fn moving_average(ys: &[f64], half: usize) -> MathResult<Vec<f64>> {
    if ys.is_empty() {
        return Err(MathError::EmptyInput { context: "moving_average input" });
    }
    let n = ys.len();
    let mut out = Vec::with_capacity(n);
    for i in 0..n {
        let lo = i.saturating_sub(half);
        let hi = (i + half + 1).min(n);
        let sum: f64 = ys[lo..hi].iter().sum();
        out.push(sum / (hi - lo) as f64);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn differentiate_linear_is_constant() {
        let ys: Vec<f64> = (0..10).map(|i| 3.0 * i as f64).collect();
        let d = differentiate(&ys, 1.0).unwrap();
        for v in d {
            assert!((v - 3.0).abs() < 1e-12);
        }
    }

    #[test]
    fn differentiate_quadratic_center() {
        // y = t², dy/dt = 2t; central differences are exact for quadratics.
        let dt = 0.1;
        let ys: Vec<f64> = (0..50).map(|i| (i as f64 * dt).powi(2)).collect();
        let d = differentiate(&ys, dt).unwrap();
        for (i, di) in d.iter().enumerate().take(49).skip(1) {
            let t = i as f64 * dt;
            assert!((di - 2.0 * t).abs() < 1e-10, "i={i}");
        }
    }

    #[test]
    fn integrate_then_differentiate_round_trip() {
        let dt = 0.05;
        let ys: Vec<f64> = (0..200).map(|i| (i as f64 * dt).sin()).collect();
        let integral = integrate_cumulative(&ys, dt, 0.0).unwrap();
        let back = differentiate(&integral, dt).unwrap();
        for i in 1..199 {
            assert!((back[i] - ys[i]).abs() < 2e-3, "i={i}");
        }
    }

    #[test]
    fn integrate_constant() {
        let ys = vec![2.0; 11];
        let out = integrate_cumulative(&ys, 0.5, 1.0).unwrap();
        assert_eq!(out[0], 1.0);
        assert!((out[10] - (1.0 + 2.0 * 5.0)).abs() < 1e-12);
    }

    #[test]
    fn cumsum_matches_hand_computation() {
        let out = cumsum_scaled(&[1.0, 2.0, 3.0], 0.5, 0.0).unwrap();
        assert_eq!(out, vec![0.5, 1.5, 3.0]);
        let out2 = cumsum_scaled(&[1.0], 2.0, 10.0).unwrap();
        assert_eq!(out2, vec![12.0]);
    }

    #[test]
    fn moving_average_flattens_noise() {
        let ys: Vec<f64> = (0..100).map(|i| 1.0 + if i % 2 == 0 { 0.5 } else { -0.5 }).collect();
        let out = moving_average(&ys, 2).unwrap();
        for (i, v) in out.iter().enumerate().take(95).skip(5) {
            assert!((v - 1.0).abs() < 0.11, "i={i} v={v}");
        }
    }

    #[test]
    fn moving_average_boundary_truncation() {
        let out = moving_average(&[1.0, 2.0, 3.0], 1).unwrap();
        assert!((out[0] - 1.5).abs() < 1e-12);
        assert!((out[1] - 2.0).abs() < 1e-12);
        assert!((out[2] - 2.5).abs() < 1e-12);
    }

    #[test]
    fn invalid_inputs_rejected() {
        assert!(differentiate(&[1.0], 1.0).is_err());
        assert!(differentiate(&[1.0, 2.0], 0.0).is_err());
        assert!(integrate_cumulative(&[], 1.0, 0.0).is_err());
        assert!(integrate_cumulative(&[1.0], -1.0, 0.0).is_err());
        assert!(cumsum_scaled(&[], 1.0, 0.0).is_err());
        assert!(moving_average(&[], 1).is_err());
    }
}
