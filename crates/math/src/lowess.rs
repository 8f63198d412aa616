//! LOWESS — locally weighted scatterplot smoothing (local regression).
//!
//! Section III-B of the paper smooths the measured steering-rate profile
//! with "the local regression method \[Loader 2006\]" before extracting lane
//! change bumps. This module implements the classic Cleveland LOWESS
//! estimator: for every abscissa, fit a weighted degree-1 polynomial over
//! the nearest-neighbour window using tricube weights. The window holds
//! `fraction` of the data, in `(0, 1]`; larger fractions smooth more.

use crate::{MathError, MathResult};

/// Detects a uniform abscissa grid, returning the common step.
///
/// The tolerance admits timestamps accumulated by repeated `t += dt`
/// (whose per-step rounding drift is a few ulps) while rejecting
/// genuinely jittered grids. Requires at least two samples and a
/// positive mean step.
pub fn detect_uniform_step(xs: &[f64]) -> Option<f64> {
    let n = xs.len();
    if n < 2 {
        return None;
    }
    let step = (xs[n - 1] - xs[0]) / (n - 1) as f64; // lint:allow(hot-index) n >= 2 checked above
    if !step.is_finite() || step <= 0.0 {
        return None;
    }
    // Relative term covers accumulation drift in the step itself;
    // the absolute term covers per-element rounding at large |x|.
    // lint:allow(hot-index) n >= 2 checked above
    let tol = 1e-9 * step + 8.0 * f64::EPSILON * xs[0].abs().max(xs[n - 1].abs());
    for w in xs.windows(2) {
        if ((w[1] - w[0]) - step).abs() > tol {
            return None;
        }
    }
    Some(step)
}

/// Smooths `ys` sampled at strictly increasing `xs` with LOWESS.
///
/// Returns the smoothed value at every input abscissa.
///
/// # Errors
///
/// Returns [`MathError::EmptyInput`] for empty input,
/// [`MathError::DimensionMismatch`] when lengths differ, and
/// [`MathError::InvalidArgument`] when `xs` is not strictly increasing or
/// `fraction` is out of `(0, 1]`.
///
/// # Example
///
/// ```
/// use gradest_math::lowess::lowess;
///
/// // Noisy ramp: LOWESS recovers the trend.
/// let xs: Vec<f64> = (0..100).map(|i| i as f64).collect();
/// let ys: Vec<f64> = xs.iter().map(|x| x + if (*x as usize) % 2 == 0 { 0.5 } else { -0.5 }).collect();
/// let smooth = lowess(&xs, &ys, 0.2)?;
/// // Interior points are close to the noise-free ramp.
/// assert!((smooth[50] - 50.0).abs() < 0.2);
/// # Ok::<(), gradest_math::MathError>(())
/// ```
pub fn lowess(xs: &[f64], ys: &[f64], fraction: f64) -> MathResult<Vec<f64>> {
    let mut fitted = Vec::new();
    lowess_into(xs, ys, fraction, &mut LowessScratch::new(), &mut fitted)?;
    Ok(fitted)
}

/// Reusable working buffers for [`lowess_into`].
///
/// A 50 Hz steering profile is smoothed once per trip, but a fleet
/// engine smooths thousands of trips; reusing the scratch removes every
/// intermediate allocation from that loop. The buffers grow to the
/// largest series seen and stay allocated.
#[derive(Debug, Clone, Default)]
pub struct LowessScratch {
    /// Uniform-grid fast path: tricube weight per absolute offset
    /// `0..=h` (shared by every interior window).
    tri: Vec<f64>,
    /// Interior-fit coefficients for window variant A (offsets
    /// `-h..=h-1` for even windows, `-h..=h` for odd).
    coeff_a: Vec<f64>,
    /// Variant B (offsets `-h+1..=h`) — the window an even-width slide
    /// selects when its final tie comparison resolves the other way.
    coeff_b: Vec<f64>,
}

impl LowessScratch {
    /// Creates an empty scratch (buffers grow on first use).
    pub fn new() -> Self {
        LowessScratch::default()
    }
}

/// [`lowess`] with caller-owned buffers: writes the smoothed series
/// into `fitted` (cleared and resized) and keeps every intermediate in
/// `scratch`, so repeated calls allocate nothing once the buffers have
/// grown to the series length.
///
/// The grid picks the path: on a uniform grid (see
/// [`detect_uniform_step`]) interior windows share one precomputed
/// weight table and agree with [`lowess_reference`] within ~1e-12;
/// any other grid runs the reference fit itself, bit for bit.
///
/// # Errors
///
/// Same as [`lowess`].
pub fn lowess_into(
    xs: &[f64],
    ys: &[f64],
    fraction: f64,
    scratch: &mut LowessScratch,
    fitted: &mut Vec<f64>,
) -> MathResult<()> {
    lowess_core(xs, ys, fraction, detect_uniform_step(xs), scratch, fitted)
}

/// The generic per-point LOWESS fit on any grid — the reference the
/// uniform-grid fast path of [`lowess_into`] is tested against. Same
/// validation, no shared weight tables.
///
/// # Errors
///
/// Same as [`lowess`].
pub fn lowess_reference(xs: &[f64], ys: &[f64], fraction: f64) -> MathResult<Vec<f64>> {
    let mut fitted = Vec::new();
    lowess_core(xs, ys, fraction, None, &mut LowessScratch::new(), &mut fitted)?;
    Ok(fitted)
}

/// Validation plus the fit shared by [`lowess_into`] and
/// [`lowess_reference`]. `uniform_step` is the grid step of `xs` when
/// the fast path may run, `None` for the generic fit everywhere.
fn lowess_core(
    xs: &[f64],
    ys: &[f64],
    fraction: f64,
    uniform_step: Option<f64>,
    scratch: &mut LowessScratch,
    fitted: &mut Vec<f64>,
) -> MathResult<()> {
    if xs.is_empty() {
        return Err(MathError::EmptyInput { context: "lowess input" });
    }
    if xs.len() != ys.len() {
        return Err(MathError::DimensionMismatch { context: "lowess xs/ys lengths" });
    }
    if !(fraction > 0.0 && fraction <= 1.0) {
        return Err(MathError::InvalidArgument { context: "lowess fraction not in (0, 1]" });
    }
    for w in xs.windows(2) {
        if w[0].is_nan() || w[1].is_nan() || w[1] <= w[0] {
            return Err(MathError::InvalidArgument {
                context: "lowess abscissae must be strictly increasing",
            });
        }
    }
    let n = xs.len();
    fitted.clear();
    if n == 1 {
        fitted.push(ys[0]);
        return Ok(());
    }
    let window = ((fraction * n as f64).ceil() as usize).clamp(2, n);
    fitted.resize(n, 0.0);

    // Uniform-grid fast path: interior windows all share one tricube
    // weight vector, precomputed once, and each interior fit is a dot
    // product. Edge points (and every point on non-uniform grids) keep
    // the generic per-point fit.
    match uniform_step {
        Some(step) if n > window => {
            let h = window / 2;
            precompute_uniform_tables(step, window, h, scratch);
            for (i, f) in fitted.iter_mut().enumerate().take(h) {
                *f = fit_local(xs, ys, i, window);
            }
            for (i, f) in fitted.iter_mut().enumerate().skip(n - h) {
                *f = fit_local(xs, ys, i, window);
            }
            let even = window.is_multiple_of(2);
            fit_interior(xs, ys, window, h, even, &scratch.coeff_a, &scratch.coeff_b, fitted);
        }
        _ => {
            for (i, f) in fitted.iter_mut().enumerate() {
                *f = fit_local(xs, ys, i, window);
            }
        }
    }
    Ok(())
}

/// Weighted degree-1 local fit evaluated at `xs[i]`, using the `window`
/// nearest neighbours (by abscissa distance) and tricube weights.
fn fit_local(xs: &[f64], ys: &[f64], i: usize, window: usize) -> f64 {
    let n = xs.len();
    let x0 = xs[i];

    // Nearest-neighbour window [lo, hi) of size `window` around i.
    let mut lo = i.saturating_sub(window - 1);
    let mut hi = (lo + window).min(n);
    lo = hi.saturating_sub(window);
    // Slide the window towards the side with closer points.
    while hi < n && (xs[hi] - x0) < (x0 - xs[lo]) {
        lo += 1;
        hi += 1;
    }

    // lint:allow(hot-index) hi > lo >= 0: the window holds at least one point
    let max_dist = (x0 - xs[lo]).abs().max((xs[hi - 1] - x0).abs()).max(f64::EPSILON);

    // Weighted least squares for y = a + b (x - x0); fitted value is `a`.
    let (mut sw, mut swx, mut swy, mut swxx, mut swxy) = (0.0, 0.0, 0.0, 0.0, 0.0);
    for k in lo..hi {
        let d = ((xs[k] - x0) / max_dist).abs();
        let w = if d >= 1.0 { 0.0 } else { (1.0 - d * d * d).powi(3) };
        if w == 0.0 {
            continue;
        }
        let dx = xs[k] - x0;
        sw += w;
        swx += w * dx;
        swy += w * ys[k];
        swxx += w * dx * dx;
        swxy += w * dx * ys[k];
    }
    if sw == 0.0 {
        return ys[i]; // all weights vanished; fall back to the raw sample
    }
    let denom = sw * swxx - swx * swx;
    if denom.abs() < 1e-12 * sw.max(1.0) {
        // Degenerate (e.g. window of two identical abscissae): weighted mean.
        swy / sw
    } else {
        (swxx * swy - swx * swxy) / denom
    }
}

/// Fills the shared tricube table and per-variant interior-fit
/// coefficients for a uniform grid with the given `step` and half-width
/// `h = window / 2`.
///
/// On a uniform grid every interior fit uses the same offsets, so the
/// weighted-least-squares solution `a = (swxx·swy − swx·swxy)/denom`
/// collapses to a fixed coefficient vector over the window's `ys`:
/// `a = Σ_j (swxx − swx·dx_j)·w_j/denom · y_j`. Even windows are
/// asymmetric by one sample; the slide's tie comparison picks between
/// the two variants per point, so both coefficient vectors are built.
fn precompute_uniform_tables(step: f64, window: usize, h: usize, scratch: &mut LowessScratch) {
    // Interior `max_dist` is the far edge at offset ±h.
    let max_dist = (h as f64 * step).max(f64::EPSILON);
    scratch.tri.clear();
    scratch.tri.extend((0..=h).map(|j| {
        let d = ((j as f64 * step) / max_dist).abs();
        if d >= 1.0 {
            0.0
        } else {
            (1.0 - d * d * d).powi(3)
        }
    }));
    let even = window.is_multiple_of(2);
    let start_a = -(h as isize);
    build_interior_coeffs(step, window, &scratch.tri, start_a, &mut scratch.coeff_a);
    if even {
        build_interior_coeffs(step, window, &scratch.tri, start_a + 1, &mut scratch.coeff_b);
    } else {
        scratch.coeff_b.clear();
    }
}

/// Builds the interior-fit coefficient vector for the window covering
/// offsets `start_off..start_off + window`.
fn build_interior_coeffs(
    step: f64,
    window: usize,
    tri: &[f64],
    start_off: isize,
    out: &mut Vec<f64>,
) {
    let (mut sw, mut swx, mut swxx) = (0.0, 0.0, 0.0);
    for j in 0..window {
        let off = start_off + j as isize;
        let w = tri[off.unsigned_abs()];
        if w == 0.0 {
            continue;
        }
        let dx = off as f64 * step;
        sw += w;
        swx += w * dx;
        swxx += w * dx * dx;
    }
    out.clear();
    let denom = sw * swxx - swx * swx;
    if denom.abs() < 1e-12 * sw.max(1.0) {
        // Degenerate: the fit is a weighted mean (matches `fit_local`).
        out.extend((0..window).map(|j| tri[(start_off + j as isize).unsigned_abs()] / sw));
    } else {
        out.extend((0..window).map(|j| {
            let off = start_off + j as isize;
            let w = tri[off.unsigned_abs()];
            (swxx - swx * off as f64 * step) * w / denom
        }));
    }
}

/// Interior fits on a uniform grid. Each output is a fixed dot
/// product, and consecutive outputs slide the same coefficient
/// vector one sample along `ys`, so the blocked loop computes four
/// outputs per traversal of `coeff`: every loaded `ys` band serves four
/// accumulators instead of one, and the fused form vectorizes across
/// the outputs. The per-output accumulation order differs from
/// [`dot_window`] (sequential over the window instead of four-way
/// chunks), which stays inside the fast path's ~1e-12 agreement
/// contract with the generic reference.
#[allow(clippy::too_many_arguments)]
fn fit_interior(
    xs: &[f64],
    ys: &[f64],
    window: usize,
    h: usize,
    even: bool,
    coeff_a: &[f64],
    coeff_b: &[f64],
    fitted: &mut [f64],
) {
    let n = xs.len();
    // Replicate the generic nearest-neighbour slide (see `fit_local`):
    // odd windows always take the symmetric variant, winning by a full
    // step; even windows end on an exact-tie comparison that rounding
    // drift decides, so evaluate the same comparison on the same values.
    // lint:allow(hot-index) callers keep i in h..n - h, so i - h >= 0 and i + h < n
    let slide_b = |i: usize| even && (xs[i + h] - xs[i]) < (xs[i] - xs[i - h]);
    let fit_one = |i: usize, fitted: &mut [f64]| {
        let (lo, coeff) = if slide_b(i) { (i - h + 1, coeff_b) } else { (i - h, coeff_a) };
        fitted[i] = dot_window(coeff, &ys[lo..lo + window]); // lint:allow(hot-index) lo + window <= i + h + 1 <= n
    };
    let mut i = h;
    while i + 3 < n - h {
        let b0 = slide_b(i);
        if slide_b(i + 1) != b0 || slide_b(i + 2) != b0 || slide_b(i + 3) != b0 {
            // Mixed tie outcomes (at most a handful of points per grid):
            // take the one-output path until the block realigns.
            fit_one(i, fitted);
            i += 1;
            continue;
        }
        let lo = if b0 { i - h + 1 } else { i - h };
        let coeff = if b0 { coeff_b } else { coeff_a };
        let hi = lo + window + 3;
        if hi > n {
            // Unreachable given i + 3 < n - h; keeps the kernel
            // panic-free if the slide bounds ever change.
            fit_one(i, fitted);
            i += 1;
            continue;
        }
        let win = &ys[lo..hi];
        let i4 = i + 4;
        let out = &mut fitted[i..i4];
        let (mut acc0, mut acc1, mut acc2, mut acc3) = (0.0f64, 0.0, 0.0, 0.0);
        for (c, y) in coeff.iter().zip(win.windows(4)) {
            acc0 += c * y[0];
            acc1 += c * y[1];
            acc2 += c * y[2];
            acc3 += c * y[3];
        }
        out[0] = acc0;
        out[1] = acc1;
        out[2] = acc2;
        out[3] = acc3;
        i = i4;
    }
    while i < n - h {
        fit_one(i, fitted);
        i += 1;
    }
}

/// Dot product with four independent accumulators (the fast path's
/// permission to reassociate: agreement is promised to ~1e-12, not
/// bit-exactness, and the unrolled form vectorizes).
#[inline]
fn dot_window(coeff: &[f64], ys: &[f64]) -> f64 {
    debug_assert_eq!(coeff.len(), ys.len());
    let mut acc = [0.0f64; 4];
    let mut cc = coeff.chunks_exact(4);
    let mut yc = ys.chunks_exact(4);
    for (c, y) in (&mut cc).zip(&mut yc) {
        acc[0] += c[0] * y[0];
        acc[1] += c[1] * y[1];
        acc[2] += c[2] * y[2];
        acc[3] += c[3] * y[3];
    }
    let mut rest = 0.0;
    for (c, y) in cc.remainder().iter().zip(yc.remainder()) {
        rest += c * y;
    }
    (acc[0] + acc[1]) + (acc[2] + acc[3]) + rest
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> (Vec<f64>, Vec<f64>) {
        let xs: Vec<f64> = (0..n).map(|i| i as f64).collect();
        let ys: Vec<f64> = xs.iter().map(|x| 2.0 * x - 3.0).collect();
        (xs, ys)
    }

    #[test]
    fn linear_data_is_reproduced_exactly() {
        let (xs, ys) = ramp(50);
        let out = lowess(&xs, &ys, 0.3).unwrap();
        for (o, y) in out.iter().zip(&ys) {
            assert!((o - y).abs() < 1e-9, "{o} vs {y}");
        }
    }

    #[test]
    fn constant_data_is_reproduced() {
        let xs: Vec<f64> = (0..20).map(|i| i as f64).collect();
        let ys = vec![4.2; 20];
        let out = lowess(&xs, &ys, 0.1).unwrap();
        for o in out {
            assert!((o - 4.2).abs() < 1e-9);
        }
    }

    #[test]
    fn alternating_noise_is_removed() {
        let xs: Vec<f64> = (0..200).map(|i| i as f64).collect();
        let ys: Vec<f64> = xs
            .iter()
            .map(|x| x + if (*x as usize).is_multiple_of(2) { 1.0 } else { -1.0 })
            .collect();
        let out = lowess(&xs, &ys, 0.1).unwrap();
        // Interior points: noise mostly gone.
        for i in 20..180 {
            assert!((out[i] - xs[i]).abs() < 0.3, "i={i} out={}", out[i]);
        }
    }

    #[test]
    fn preserves_sine_shape() {
        // A lane-change-like bump must survive smoothing.
        let n = 500;
        let xs: Vec<f64> = (0..n).map(|i| i as f64 * 0.02).collect(); // 10 s at 50 Hz
        let bump = |t: f64| {
            if (2.0..6.0).contains(&t) {
                0.12 * (std::f64::consts::PI * (t - 2.0) / 2.0).sin()
            } else {
                0.0
            }
        };
        let ys: Vec<f64> = xs.iter().map(|&t| bump(t)).collect();
        let out = lowess(&xs, &ys, 0.05).unwrap();
        // Peak magnitude preserved within 10%.
        let peak = out.iter().cloned().fold(f64::MIN, f64::max);
        assert!((peak - 0.12).abs() < 0.012, "peak {peak}");
    }

    #[test]
    fn single_and_two_points() {
        assert_eq!(lowess(&[1.0], &[2.0], 0.1).unwrap(), vec![2.0]);
        let out = lowess(&[0.0, 1.0], &[0.0, 2.0], 1.0).unwrap();
        for (o, y) in out.iter().zip(&[0.0, 2.0]) {
            assert!((o - y).abs() < 1e-9);
        }
    }

    #[test]
    fn rejects_invalid_input() {
        assert!(lowess(&[], &[], 0.1).is_err());
        assert!(lowess(&[0.0, 1.0], &[0.0], 0.1).is_err());
        assert!(lowess(&[1.0, 0.0], &[0.0, 1.0], 0.1).is_err());
        assert!(lowess(&[0.0, 1.0], &[0.0, 1.0], 0.0).is_err());
        assert!(lowess(&[0.0, 1.0], &[0.0, 1.0], 1.5).is_err());
    }

    /// Pseudo-random but deterministic sample values (no RNG dependency).
    fn wavy(n: usize, dt: f64) -> (Vec<f64>, Vec<f64>) {
        let xs: Vec<f64> = (0..n).map(|i| 3.0 + i as f64 * dt).collect();
        let ys: Vec<f64> =
            (0..n).map(|i| (i as f64 * 0.7).sin() * 2.0 + (i as f64 * 2.3).cos()).collect();
        (xs, ys)
    }

    fn max_abs_diff(a: &[f64], b: &[f64]) -> f64 {
        a.iter().zip(b).map(|(x, y)| (x - y).abs()).fold(0.0, f64::max)
    }

    #[test]
    fn fast_path_matches_generic_on_uniform_grid() {
        // Odd and even windows.
        for &(n, frac) in &[(300usize, 0.11), (300, 0.12), (257, 0.2), (300, 0.0667)] {
            let (xs, ys) = wavy(n, 0.0625);
            let fast = lowess(&xs, &ys, frac).unwrap();
            let generic = lowess_reference(&xs, &ys, frac).unwrap();
            let diff = max_abs_diff(&fast, &generic);
            assert!(diff < 1e-12, "n={n} frac={frac}: diff {diff}");
        }
    }

    #[test]
    fn blocked_interior_matches_generic_on_accumulated_grid() {
        // Accumulated `t += dt` timestamps (how real sensor logs are
        // built) let the even-window tie comparison flip between
        // variants mid-grid, exercising the blocked kernel's mixed-tie
        // one-output fallback as well as its aligned four-output path.
        let mut t = 0.0f64;
        let xs: Vec<f64> = (0..4000)
            .map(|_| {
                let v = t;
                t += 0.02;
                v
            })
            .collect();
        let ys: Vec<f64> =
            (0..4000).map(|i| (i as f64 * 0.37).sin() + 0.5 * (i as f64 * 1.7).cos()).collect();
        // Odd and even windows.
        for frac in [0.01125, 0.0125] {
            let fast = lowess(&xs, &ys, frac).unwrap();
            let generic = lowess_reference(&xs, &ys, frac).unwrap();
            let diff = max_abs_diff(&fast, &generic);
            assert!(diff < 1e-12, "frac={frac}: diff {diff}");
        }
    }

    #[test]
    fn accumulated_timestamps_detected_as_uniform() {
        // The simulator builds timestamps by repeated `t += dt`; the
        // accumulated rounding drift must stay inside the detector's
        // tolerance so real sensor logs take the fast path.
        let mut t = 0.0f64;
        let xs: Vec<f64> = (0..10_000)
            .map(|_| {
                let v = t;
                t += 0.02;
                v
            })
            .collect();
        let step = detect_uniform_step(&xs).expect("accumulated grid is uniform");
        assert!((step - 0.02).abs() < 1e-9);
    }

    #[test]
    fn jittered_grid_falls_back_to_generic() {
        let n = 200;
        let xs: Vec<f64> =
            (0..n).map(|i| i as f64 * 0.02 + 0.004 * ((i * 7919 % 13) as f64 / 13.0)).collect();
        assert!(detect_uniform_step(&xs).is_none());
        let ys: Vec<f64> = (0..n).map(|i| (i as f64 * 0.3).sin()).collect();
        // Fast path not taken: the fit equals the reference bit for bit.
        assert_eq!(lowess(&xs, &ys, 0.15).unwrap(), lowess_reference(&xs, &ys, 0.15).unwrap());
    }
}
