//! LOWESS — locally weighted scatterplot smoothing (local regression).
//!
//! Section III-B of the paper smooths the measured steering-rate profile
//! with "the local regression method \[Loader 2006\]" before extracting lane
//! change bumps. This module implements the classic Cleveland LOWESS
//! estimator: for every abscissa, fit a weighted degree-1 polynomial over
//! the nearest-neighbour window using tricube weights, with optional
//! robustifying iterations that downweight outliers via bisquare weights.

use crate::{MathError, MathResult};

/// Configuration for [`lowess`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LowessConfig {
    /// Fraction of the data used in each local window, in `(0, 1]`.
    /// Larger values smooth more.
    pub fraction: f64,
    /// Number of robustifying iterations (0 = plain LOWESS).
    pub robust_iterations: usize,
}

impl Default for LowessConfig {
    fn default() -> Self {
        // fraction 0.1 keeps lane-change bumps (~seconds wide at 50 Hz)
        // intact while killing sample-level sensor noise.
        LowessConfig { fraction: 0.1, robust_iterations: 0 }
    }
}

impl LowessConfig {
    /// Creates a config with the given window fraction and no robustness
    /// iterations.
    ///
    /// # Panics
    ///
    /// Panics if `fraction` is not in `(0, 1]`.
    pub fn with_fraction(fraction: f64) -> Self {
        assert!(
            fraction > 0.0 && fraction <= 1.0,
            "LOWESS fraction must be in (0, 1], got {fraction}"
        );
        LowessConfig { fraction, robust_iterations: 0 }
    }

    /// Sets the number of robustifying iterations.
    pub fn robust(mut self, iterations: usize) -> Self {
        self.robust_iterations = iterations;
        self
    }
}

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
/// use gradest_math::lowess::{lowess, LowessConfig};
///
/// // Noisy ramp: LOWESS recovers the trend.
/// let xs: Vec<f64> = (0..100).map(|i| i as f64).collect();
/// let ys: Vec<f64> = xs.iter().map(|x| x + if (*x as usize) % 2 == 0 { 0.5 } else { -0.5 }).collect();
/// let smooth = lowess(&xs, &ys, LowessConfig::with_fraction(0.2))?;
/// // Interior points are close to the noise-free ramp.
/// assert!((smooth[50] - 50.0).abs() < 0.2);
/// # Ok::<(), gradest_math::MathError>(())
/// ```
pub fn lowess(xs: &[f64], ys: &[f64], config: LowessConfig) -> MathResult<Vec<f64>> {
    let mut fitted = Vec::new();
    lowess_into(xs, ys, config, &mut LowessScratch::new(), &mut fitted)?;
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
    robust_weights: Vec<f64>,
    abs_res: Vec<f64>,
    sorted: Vec<f64>,
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
    config: LowessConfig,
    scratch: &mut LowessScratch,
    fitted: &mut Vec<f64>,
) -> MathResult<()> {
    lowess_core(xs, ys, config, detect_uniform_step(xs), scratch, fitted)
}

/// The generic per-point LOWESS fit on any grid — the reference the
/// uniform-grid fast path of [`lowess_into`] is tested against. Same
/// robust-iteration loop, no shared weight tables.
///
/// # Errors
///
/// Same as [`lowess`].
pub fn lowess_reference(xs: &[f64], ys: &[f64], config: LowessConfig) -> MathResult<Vec<f64>> {
    let mut fitted = Vec::new();
    lowess_core(xs, ys, config, None, &mut LowessScratch::new(), &mut fitted)?;
    Ok(fitted)
}

/// Validation plus the robust-iteration loop shared by [`lowess_into`]
/// and [`lowess_reference`]. `uniform_step` is the grid step of `xs`
/// when the fast path may run, `None` for the generic fit everywhere.
fn lowess_core(
    xs: &[f64],
    ys: &[f64],
    config: LowessConfig,
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
    if !(config.fraction > 0.0 && config.fraction <= 1.0) {
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
    let window = ((config.fraction * n as f64).ceil() as usize).clamp(2, n);

    scratch.robust_weights.clear();
    scratch.robust_weights.resize(n, 1.0);
    fitted.resize(n, 0.0);

    // Uniform-grid fast path: interior windows all share one tricube
    // weight vector, precomputed once. Edge points (and every point on
    // non-uniform grids) keep the generic per-point fit.
    let fast_h = match uniform_step {
        Some(step) if n > window => {
            let h = window / 2;
            precompute_uniform_tables(step, window, h, scratch);
            Some(h)
        }
        _ => None,
    };

    for iteration in 0..=config.robust_iterations {
        if let Some(h) = fast_h {
            fit_pass_uniform(
                xs,
                ys,
                &scratch.robust_weights,
                window,
                h,
                &scratch.tri,
                &scratch.coeff_a,
                &scratch.coeff_b,
                iteration == 0,
                fitted,
            );
        } else {
            for (i, f) in fitted.iter_mut().enumerate() {
                *f = fit_local(xs, ys, &scratch.robust_weights, i, window);
            }
        }
        if iteration == config.robust_iterations {
            break;
        }
        // Bisquare robustness weights from the residuals. The scale is the
        // median absolute residual floored by a fraction of the mean: with a
        // mostly-perfect fit the median collapses to ~0 and an unfloored
        // scale would zero out every point near an outlier, preventing the
        // iteration from ever recovering.
        scratch.abs_res.clear();
        scratch.abs_res.extend(ys.iter().zip(fitted.iter()).map(|(y, f)| (y - f).abs()));
        scratch.sorted.clear();
        scratch.sorted.extend_from_slice(&scratch.abs_res);
        scratch.sorted.sort_by(f64::total_cmp);
        // For even n the true median is the mean of the two central
        // residuals; `sorted[n / 2]` alone would take the upper one and
        // bias the bisquare scale.
        let median = if n.is_multiple_of(2) {
            // lint:allow(hot-index) n even and nonzero here, so n / 2 - 1 >= 0 and n / 2 < n
            0.5 * (scratch.sorted[n / 2 - 1] + scratch.sorted[n / 2])
        } else {
            scratch.sorted[n / 2] // lint:allow(hot-index) n / 2 < n for n > 0
        };
        let mean = scratch.abs_res.iter().sum::<f64>() / n as f64;
        let scale = median.max(0.25 * mean);
        if scale <= f64::EPSILON {
            break; // perfect fit; further iterations change nothing
        }
        for (w, r) in scratch.robust_weights.iter_mut().zip(&scratch.abs_res) {
            let u = r / (6.0 * scale);
            *w = if u >= 1.0 { 0.0 } else { (1.0 - u * u).powi(2) };
        }
    }
    Ok(())
}

/// Weighted degree-1 local fit evaluated at `xs[i]`, using the `window`
/// nearest neighbours (by abscissa distance) and tricube × robustness
/// weights.
fn fit_local(xs: &[f64], ys: &[f64], robust: &[f64], i: usize, window: usize) -> f64 {
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
        let tricube = if d >= 1.0 { 0.0 } else { (1.0 - d * d * d).powi(3) };
        let w = tricube * robust[k];
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

/// One LOWESS fitting pass over a uniform grid.
///
/// Edge points (the first and last `h`) run the generic [`fit_local`]
/// unchanged. Interior points share the precomputed tables: with unit
/// robustness weights (`first_pass`) each fit is a single dot product;
/// during robust iterations the tricube lookups replace the per-pair
/// distance/`powi` evaluation but the five-sum accumulation is kept.
#[allow(clippy::too_many_arguments)]
fn fit_pass_uniform(
    xs: &[f64],
    ys: &[f64],
    robust: &[f64],
    window: usize,
    h: usize,
    tri: &[f64],
    coeff_a: &[f64],
    coeff_b: &[f64],
    first_pass: bool,
    fitted: &mut [f64],
) {
    let n = xs.len();
    let even = window.is_multiple_of(2);
    for (i, f) in fitted.iter_mut().enumerate().take(h) {
        *f = fit_local(xs, ys, robust, i, window);
    }
    for (i, f) in fitted.iter_mut().enumerate().take(n).skip(n - h) {
        *f = fit_local(xs, ys, robust, i, window);
    }
    if first_pass {
        fit_interior_first_pass(xs, ys, window, h, even, coeff_a, coeff_b, fitted);
        return;
    }
    for i in h..(n - h) {
        let x0 = xs[i];
        // Replicate the generic nearest-neighbour slide. For odd windows
        // the symmetric window always wins by a full step; for even
        // windows the slide ends on an exact-tie comparison that rounding
        // drift decides, so evaluate the same comparison on the same
        // values.
        // lint:allow(hot-index) i ranges over h..n - h, so i - h >= 0 and i + h < n
        let lo = if even && (xs[i + h] - x0) < (x0 - xs[i - h]) { i - h + 1 } else { i - h };
        {
            let (mut sw, mut swx, mut swy, mut swxx, mut swxy) = (0.0, 0.0, 0.0, 0.0, 0.0);
            for k in lo..lo + window {
                let w = tri[k.abs_diff(i)] * robust[k];
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
            fitted[i] = if sw == 0.0 {
                ys[i]
            } else {
                let denom = sw * swxx - swx * swx;
                if denom.abs() < 1e-12 * sw.max(1.0) {
                    swy / sw
                } else {
                    (swxx * swy - swx * swxy) / denom
                }
            };
        }
    }
}

/// Interior fits of the unit-robustness pass. Each output is a fixed
/// dot product, and consecutive outputs slide the same coefficient
/// vector one sample along `ys`, so the blocked loop computes four
/// outputs per traversal of `coeff`: every loaded `ys` band serves four
/// accumulators instead of one, and the fused form vectorizes across
/// the outputs. The per-output accumulation order differs from
/// [`dot_window`] (sequential over the window instead of four-way
/// chunks), which stays inside the fast path's ~1e-12 agreement
/// contract with the generic reference.
#[allow(clippy::too_many_arguments)]
fn fit_interior_first_pass(
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
    // The generic nearest-neighbour slide (see `fit_pass_uniform`): odd
    // windows always take the symmetric variant; even windows end on an
    // exact-tie comparison that rounding drift decides.
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
        let out = lowess(&xs, &ys, LowessConfig::with_fraction(0.3)).unwrap();
        for (o, y) in out.iter().zip(&ys) {
            assert!((o - y).abs() < 1e-9, "{o} vs {y}");
        }
    }

    #[test]
    fn constant_data_is_reproduced() {
        let xs: Vec<f64> = (0..20).map(|i| i as f64).collect();
        let ys = vec![4.2; 20];
        let out = lowess(&xs, &ys, LowessConfig::default()).unwrap();
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
        let out = lowess(&xs, &ys, LowessConfig::with_fraction(0.1)).unwrap();
        // Interior points: noise mostly gone.
        for i in 20..180 {
            assert!((out[i] - xs[i]).abs() < 0.3, "i={i} out={}", out[i]);
        }
    }

    #[test]
    fn robust_iterations_suppress_outlier() {
        let xs: Vec<f64> = (0..60).map(|i| i as f64).collect();
        let mut ys: Vec<f64> = xs.clone();
        ys[30] = 500.0; // gross outlier
        let plain = lowess(&xs, &ys, LowessConfig::with_fraction(0.3)).unwrap();
        let robust = lowess(&xs, &ys, LowessConfig::with_fraction(0.3).robust(3)).unwrap();
        let plain_err = (plain[29] - 29.0).abs();
        let robust_err = (robust[29] - 29.0).abs();
        assert!(robust_err < plain_err, "robust {robust_err} should beat plain {plain_err}");
        assert!(robust_err < 1.0);
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
        let out = lowess(&xs, &ys, LowessConfig::with_fraction(0.05)).unwrap();
        // Peak magnitude preserved within 10%.
        let peak = out.iter().cloned().fold(f64::MIN, f64::max);
        assert!((peak - 0.12).abs() < 0.012, "peak {peak}");
    }

    #[test]
    fn single_and_two_points() {
        assert_eq!(lowess(&[1.0], &[2.0], LowessConfig::default()).unwrap(), vec![2.0]);
        let out = lowess(&[0.0, 1.0], &[0.0, 2.0], LowessConfig::with_fraction(1.0)).unwrap();
        for (o, y) in out.iter().zip(&[0.0, 2.0]) {
            assert!((o - y).abs() < 1e-9);
        }
    }

    #[test]
    fn rejects_invalid_input() {
        assert!(lowess(&[], &[], LowessConfig::default()).is_err());
        assert!(lowess(&[0.0, 1.0], &[0.0], LowessConfig::default()).is_err());
        assert!(lowess(&[1.0, 0.0], &[0.0, 1.0], LowessConfig::default()).is_err());
        let bad = LowessConfig { fraction: 0.0, ..Default::default() };
        assert!(lowess(&[0.0, 1.0], &[0.0, 1.0], bad).is_err());
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
        // Odd and even windows, with and without robustness iterations.
        for &(n, frac, iters) in
            &[(300usize, 0.11, 0usize), (300, 0.12, 0), (257, 0.2, 2), (300, 0.0667, 3)]
        {
            let (xs, ys) = wavy(n, 0.0625);
            let cfg = LowessConfig { fraction: frac, robust_iterations: iters };
            let fast = lowess(&xs, &ys, cfg).unwrap();
            let generic = lowess_reference(&xs, &ys, cfg).unwrap();
            let diff = max_abs_diff(&fast, &generic);
            assert!(diff < 1e-12, "n={n} frac={frac} iters={iters}: diff {diff}");
        }
    }

    #[test]
    fn blocked_first_pass_matches_generic_on_accumulated_grid() {
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
            let cfg = LowessConfig { fraction: frac, robust_iterations: 0 };
            let fast = lowess(&xs, &ys, cfg).unwrap();
            let generic = lowess_reference(&xs, &ys, cfg).unwrap();
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
        // Fast path not taken: plain and robust fits equal the reference
        // bit for bit.
        for cfg in [LowessConfig::with_fraction(0.15), LowessConfig::with_fraction(0.15).robust(2)]
        {
            let auto = lowess(&xs, &ys, cfg).unwrap();
            let reference = lowess_reference(&xs, &ys, cfg).unwrap();
            assert_eq!(auto, reference);
        }
    }

    #[test]
    #[should_panic(expected = "fraction must be in")]
    fn with_fraction_panics_on_invalid() {
        let _ = LowessConfig::with_fraction(1.5);
    }
}
