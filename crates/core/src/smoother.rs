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

/// Runs the backward RTS recursion into a caller-owned buffer
/// (overwritten), so a warm caller pays no allocation. See
/// [`rts_smooth`] for semantics.
pub fn rts_smooth_into(history: &[RtsStep], out: &mut Vec<(Vec2, Mat2)>) {
    let n = history.len();
    out.clear();
    if n == 0 {
        return;
    }
    out.extend(history.iter().map(|s| (s.x_filt, s.p_filt)));
    // Backward pass: smooth step k using step k+1's prediction.
    for k in (0..n - 1).rev() {
        let next = &history[k + 1]; // lint:allow(hot-index) k < n - 1 from the loop range
        let Ok(p_pred_inv) = next.p_pred.inverse() else {
            continue; // keep the filtered estimate at this step
        };
        let c = history[k].p_filt * next.f.transpose() * p_pred_inv;
        let (x_s_next, p_s_next) = out[k + 1]; // lint:allow(hot-index) out holds n entries; k + 1 <= n - 1
        let x = history[k].x_filt + c * (x_s_next - next.x_pred);
        let mut p = history[k].p_filt + c * (p_s_next - next.p_pred) * c.transpose();
        p.symmetrize();
        // Guard the diagonal against numerically negative variances.
        p.m[0][0] = p.m[0][0].max(1e-12);
        p.m[1][1] = p.m[1][1].max(1e-12);
        out[k] = (x, p);
    }
}

/// Four [`rts_smooth_into`] passes with their backward recursions
/// interleaved: step `k` of every lane is computed before stepping to
/// `k − 1`, so the four independent dependency chains (each serialized
/// on a `Mat2` inverse and three small matrix products) overlap instead
/// of running back to back. Per lane the operation sequence is exactly
/// [`rts_smooth_into`]'s, so results are bit-identical.
///
/// The interleave requires equal history lengths (the fused pipeline
/// records one step per IMU sample per lane, so they always match
/// there); unequal lengths fall back to four sequential passes.
pub fn rts_smooth_lanes_into(histories: [&[RtsStep]; 4], outs: [&mut Vec<(Vec2, Mat2)>; 4]) {
    let n = histories[0].len();
    if histories.iter().any(|h| h.len() != n) {
        for (history, out) in histories.into_iter().zip(outs) {
            rts_smooth_into(history, out);
        }
        return;
    }
    let mut lane_outs = outs;
    for (history, out) in histories.iter().zip(lane_outs.iter_mut()) {
        out.clear();
        out.extend(history.iter().map(|s| (s.x_filt, s.p_filt)));
    }
    if n == 0 {
        return;
    }
    for k in (0..n - 1).rev() {
        for (history, out) in histories.iter().zip(lane_outs.iter_mut()) {
            let next = &history[k + 1]; // lint:allow(hot-index) k < n - 1 from the loop range
            let Ok(p_pred_inv) = next.p_pred.inverse() else {
                continue; // keep the filtered estimate at this step
            };
            let c = history[k].p_filt * next.f.transpose() * p_pred_inv;
            let (x_s_next, p_s_next) = out[k + 1]; // lint:allow(hot-index) out holds n entries; k + 1 <= n - 1
            let x = history[k].x_filt + c * (x_s_next - next.x_pred);
            let mut p = history[k].p_filt + c * (p_s_next - next.p_pred) * c.transpose();
            p.symmetrize();
            p.m[0][0] = p.m[0][0].max(1e-12);
            p.m[1][1] = p.m[1][1].max(1e-12);
            out[k] = (x, p);
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
    fn interleaved_lanes_match_sequential_passes() {
        // Four different drives, equal history lengths: the interleaved
        // backward pass must reproduce each sequential pass bit for bit.
        let hists: Vec<Vec<RtsStep>> = [0.02f64, -0.035, 0.0, 0.05]
            .iter()
            .map(|&th| run_with_history(|t| if t < 15.0 { th } else { -th }, 30.0).0)
            .collect();
        let mut expected: Vec<Vec<(gradest_math::Vec2, gradest_math::Mat2)>> =
            hists.iter().map(|h| rts_smooth(h)).collect();
        let mut outs: Vec<Vec<(gradest_math::Vec2, gradest_math::Mat2)>> = vec![Vec::new(); 4];
        let [o0, o1, o2, o3] = &mut outs[..] else { unreachable!() };
        rts_smooth_lanes_into([&hists[0], &hists[1], &hists[2], &hists[3]], [o0, o1, o2, o3]);
        assert_eq!(outs, expected);

        // Unequal lengths take the sequential fallback — same results.
        let short: Vec<RtsStep> = hists[3][..hists[3].len() / 2].to_vec();
        expected[3] = rts_smooth(&short);
        let [o0, o1, o2, o3] = &mut outs[..] else { unreachable!() };
        rts_smooth_lanes_into([&hists[0], &hists[1], &hists[2], &short], [o0, o1, o2, o3]);
        assert_eq!(outs, expected);

        // All-empty histories clear the outputs and return.
        let empty: [&[RtsStep]; 4] = [&[], &[], &[], &[]];
        let [o0, o1, o2, o3] = &mut outs[..] else { unreachable!() };
        rts_smooth_lanes_into(empty, [o0, o1, o2, o3]);
        assert!(outs.iter().all(|o| o.is_empty()));
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
