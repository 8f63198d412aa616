//! Rauch–Tung–Striebel (RTS) fixed-interval smoothing for the gradient
//! EKF.
//!
//! The paper's filter runs forward only, so its gradient estimate lags
//! every gradient change by the filter's time constant — a penalty that
//! simple *acausal* baselines (central differences over the same data) do
//! not pay. Since the batch pipeline scores a completed trip anyway, the
//! standard fix is a backward RTS pass over the stored filter history:
//!
//! ```text
//! C_k  = P_f(k) · F_kᵀ · P_p(k+1)⁻¹
//! x_s(k) = x_f(k) + C_k · (x_s(k+1) − x_p(k+1))
//! P_s(k) = P_f(k) + C_k · (P_s(k+1) − P_p(k+1)) · C_kᵀ
//! ```
//!
//! The streaming estimator ([`crate::online`]) cannot use this — that is
//! precisely the causal/batch trade the `extended_baselines` experiment
//! quantifies.
//!
//! The batch pipeline runs this recursion on all four lanes at once over
//! the lane sweep's own history (`ekf_lanes::rts_smooth_lanes`). The
//! per-step [`RtsStep`] form here serves the altitude-EKF baseline and is
//! the oracle that lane pass is pinned to, bit for bit.

use gradest_math::{Mat2, Vec2};
use serde::{Deserialize, Serialize};

/// One forward-pass step recorded for smoothing.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RtsStep {
    /// Predicted state at this step (before measurement updates).
    pub x_pred: Vec2,
    /// Predicted covariance.
    pub p_pred: Mat2,
    /// Filtered state (after this step's measurement updates).
    pub x_filt: Vec2,
    /// Filtered covariance.
    pub p_filt: Mat2,
    /// Process Jacobian of the *previous* filtered state into this step's
    /// prediction.
    pub f: Mat2,
}

/// One backward RTS step: the smoothed `(x, P)` at step `k` from its
/// own record `cur`, step `k + 1`'s record `next`, and step `k + 1`'s
/// smoothed `(x_next, p_next)`. `None` when `next`'s predicted
/// covariance is singular: the caller keeps the filtered estimate at
/// this step (no smoothing gain).
fn rts_step(cur: &RtsStep, next: &RtsStep, x_next: Vec2, p_next: Mat2) -> Option<(Vec2, Mat2)> {
    let p_pred_inv = next.p_pred.inverse().ok()?;
    let c = cur.p_filt * next.f.transpose() * p_pred_inv;
    let x = cur.x_filt + c * (x_next - next.x_pred);
    let mut p = cur.p_filt + c * (p_next - next.p_pred) * c.transpose();
    p.symmetrize();
    // Guard the diagonal against numerically negative variances.
    p.m[0][0] = p.m[0][0].max(1e-12);
    p.m[1][1] = p.m[1][1].max(1e-12);
    Some((x, p))
}

/// Runs the backward RTS recursion into a caller-owned buffer
/// (overwritten), so a warm caller pays no allocation. See
/// [`rts_smooth`] for semantics.
pub fn rts_smooth_into(history: &[RtsStep], out: &mut Vec<(Vec2, Mat2)>) {
    out.clear();
    out.extend(history.iter().map(|s| (s.x_filt, s.p_filt)));
    // Backward pass: smooth step k using step k+1's prediction.
    for (k, pair) in history.windows(2).enumerate().rev() {
        let (Some(&(x_next, p_next)), [cur, next]) = (out.get(k + 1), pair) else {
            continue;
        };
        if let Some(smoothed) = rts_step(cur, next, x_next, p_next) {
            out[k] = smoothed;
        }
    }
}

/// Runs the backward RTS recursion over a forward history, returning the
/// smoothed `(state, covariance)` per step.
///
/// Near-singular predicted covariances fall back to the filtered estimate
/// for that step (no smoothing gain), so the pass never fails.
pub fn rts_smooth(history: &[RtsStep]) -> Vec<(Vec2, Mat2)> {
    let mut out = Vec::new();
    rts_smooth_into(history, &mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ekf::EkfConfig;
    use crate::ekf_lanes::{EkfLanes, MAX_LANES};
    use gradest_math::GRAVITY;

    /// Runs the EKF (lane 0) over a gradient step change, recording RTS
    /// history.
    fn run_with_history(theta_of_t: impl Fn(f64) -> f64, seconds: f64) -> (Vec<RtsStep>, Vec<f64>) {
        let dt = 0.02;
        let mut ekf = EkfLanes::new(EkfConfig::default(), [15.0; MAX_LANES]);
        let mut history = Vec::new();
        let mut truth = Vec::new();
        let steps = (seconds / dt) as usize;
        for i in 0..steps {
            let t = i as f64 * dt;
            let theta = theta_of_t(t);
            truth.push(theta);
            let a = GRAVITY * theta.sin();
            ekf.predict(a, dt);
            let x_pred = ekf.state(0);
            let p_pred = ekf.covariance(0);
            if i % 5 == 0 {
                ekf.update(0, 15.0, 0.05);
            }
            history.push(RtsStep {
                x_pred,
                p_pred,
                x_filt: ekf.state(0),
                p_filt: ekf.covariance(0),
                f: ekf.jacobian(0),
            });
        }
        (history, truth)
    }

    #[test]
    fn smoothing_reduces_step_response_lag() {
        // Gradient steps from +2° to −2° mid-run: the smoothed estimate
        // must track the transition much more tightly than the filter.
        let theta_of_t = |t: f64| if t < 30.0 { 0.035 } else { -0.035 };
        let (history, truth) = run_with_history(theta_of_t, 60.0);
        let smoothed = rts_smooth(&history);
        let err = |estimates: &dyn Fn(usize) -> f64| {
            let mut total = 0.0;
            for (i, th) in truth.iter().enumerate() {
                total += (estimates(i) - th).abs();
            }
            total / truth.len() as f64
        };
        let filt_err = err(&|i| history[i].x_filt.y);
        let smooth_err = err(&|i| smoothed[i].0.y);
        assert!(smooth_err < 0.6 * filt_err, "smoothed {smooth_err} vs filtered {filt_err}");
    }

    #[test]
    fn smoothed_covariance_never_exceeds_filtered() {
        let (history, _) = run_with_history(|_| 0.02, 30.0);
        let smoothed = rts_smooth(&history);
        for (step, (_, p_s)) in history.iter().zip(&smoothed) {
            assert!(p_s.m[1][1] <= step.p_filt.m[1][1] + 1e-12);
            assert!(p_s.m[1][1] > 0.0);
            assert!(p_s.is_finite());
        }
    }

    #[test]
    fn constant_gradient_is_unchanged_in_the_interior() {
        let (history, truth) = run_with_history(|_| 0.03, 40.0);
        let smoothed = rts_smooth(&history);
        // Once converged, filter and smoother agree on a constant road.
        let n = history.len();
        for i in (n / 2)..(n - 100) {
            assert!(
                (smoothed[i].0.y - truth[i]).abs() < 3e-3,
                "i={i}: {} vs {}",
                smoothed[i].0.y,
                truth[i]
            );
        }
    }

    #[test]
    fn empty_and_single_step_histories() {
        assert!(rts_smooth(&[]).is_empty());
        let (history, _) = run_with_history(|_| 0.01, 0.04);
        let out = rts_smooth(&history[..1]);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].0, history[0].x_filt);
    }
}
