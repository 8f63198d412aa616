//! Four-lane structure-of-arrays (SoA) gradient EKF — the one
//! implementation of the [`ekf`](crate::ekf) model.
//!
//! The pipeline runs one independent filter per velocity source over
//! the *same* IMU stream. Iterating four filters separately would walk
//! the IMU columns four times and re-evaluate `sinθ`/`cosθ` twice per
//! filter step (once for the state propagation, once for the Jacobian).
//! This module keeps the four filters' state, covariance, and Jacobian
//! terms as `[f64; 4]` lanes so one pass over
//! [`ImuColumns`](gradest_sensors::columnar::ImuColumns) advances every
//! track, with the transcendentals evaluated exactly once per lane-step.
//! The online estimator runs its three sources on lanes 0–2.
//!
//! ## Bit-identity contract
//!
//! Every lane reproduces the scalar `Mat2`/`Vec2` form of the filter
//! **bit for bit**: the per-lane arithmetic is a literal transcription
//! of the scalar operation sequence (down to the `1.0 * x` factors and
//! `+ 0.0` terms from the identity/zero matrix entries, whose removal
//! would flip signed zeros). The unit and property tests below pin this
//! equivalence at 0 ULP against that scalar form, kept as a test oracle.
//!
//! # Example
//!
//! ```
//! use gradest_core::ekf::EkfConfig;
//! use gradest_core::ekf_lanes::{EkfLanes, MAX_LANES};
//!
//! let mut ekf = EkfLanes::new(EkfConfig::default(), [15.0; MAX_LANES]);
//! // Constant speed on a 3° climb: accelerometer reads g·sin(3°).
//! let a_meas = 9.80665 * 3.0f64.to_radians().sin();
//! for _ in 0..1500 {
//!     ekf.predict(a_meas, 0.02);
//!     ekf.update(0, 15.0, 0.1); // lane 0: true speed from e.g. CAN
//! }
//! assert!((ekf.theta(0).to_degrees() - 3.0).abs() < 0.3);
//! ```

use crate::ekf::EkfConfig;
use gradest_math::mat::SINGULAR_TOL;
use gradest_math::{Mat2, Vec2, GRAVITY};

/// Number of SoA lanes — one per paper velocity source.
pub const MAX_LANES: usize = 4;

/// Four gradient EKFs advanced in lockstep, stored lane-wise.
///
/// All four lanes share the predict input (`a_meas`, `dt`) — the IMU
/// stream is common to every source track — while updates address a
/// single lane (each source has its own measurement times and variance).
/// Inactive lanes (when fewer than four sources run) simply idle on
/// their initial state; their results are never read.
#[derive(Debug, Clone)]
pub struct EkfLanes {
    config: EkfConfig,
    /// Velocity state per lane, m/s.
    v: [f64; MAX_LANES],
    /// Gradient state per lane, radians.
    th: [f64; MAX_LANES],
    /// Covariance P[0][0] per lane.
    p00: [f64; MAX_LANES],
    /// Covariance off-diagonal per lane (kept symmetric, so one slot).
    p01: [f64; MAX_LANES],
    /// Covariance P[1][1] per lane.
    p11: [f64; MAX_LANES],
    /// Last predict Jacobian ∂v'/∂θ per lane (F[0][0] is always 1).
    f01: [f64; MAX_LANES],
    /// Last predict Jacobian ∂θ'/∂v per lane.
    f10: [f64; MAX_LANES],
    /// Last predict Jacobian ∂θ'/∂θ per lane.
    f11: [f64; MAX_LANES],
}

impl EkfLanes {
    /// Creates four filters with per-lane initial speeds and zero initial
    /// gradient: lane `l` starts at state `(v0[l], 0)` with covariance
    /// `diag(p0_velocity, p0_theta)` and an identity Jacobian.
    pub fn new(config: EkfConfig, v0: [f64; MAX_LANES]) -> Self {
        EkfLanes {
            config,
            v: v0,
            th: [0.0; MAX_LANES],
            p00: [config.p0_velocity; MAX_LANES],
            p01: [0.0; MAX_LANES],
            p11: [config.p0_theta; MAX_LANES],
            f01: [0.0; MAX_LANES],
            f10: [0.0; MAX_LANES],
            f11: [1.0; MAX_LANES],
        }
    }

    /// Restarts one lane from speed `v0`, leaving it exactly as
    /// [`Self::new`] leaves a lane; the other lanes are untouched.
    pub(crate) fn reset_lane(&mut self, lane: usize, v0: f64) {
        self.v[lane] = v0;
        self.th[lane] = 0.0;
        self.p00[lane] = self.config.p0_velocity;
        self.p01[lane] = 0.0;
        self.p11[lane] = self.config.p0_theta;
        self.f01[lane] = 0.0;
        self.f10[lane] = 0.0;
        self.f11[lane] = 1.0;
    }

    /// Lane `l`'s velocity estimate, m/s.
    #[inline]
    pub fn velocity(&self, lane: usize) -> f64 {
        self.v[lane]
    }

    /// Lane `l`'s gradient estimate θ, radians.
    #[inline]
    pub fn theta(&self, lane: usize) -> f64 {
        self.th[lane]
    }

    /// Lane `l`'s gradient variance `P_θθ`, rad².
    #[inline]
    pub fn theta_variance(&self, lane: usize) -> f64 {
        self.p11[lane]
    }

    /// Lane `l`'s predicted innovation variance `S = P_vv + r` for a
    /// velocity measurement of variance `r` — the same `S`
    /// [`Self::update`] uses for its Kalman gain, exposed so consistency
    /// monitors (`diagnostics::InnovationMonitor`) can normalize
    /// innovations without duplicating filter internals.
    #[inline]
    pub fn innovation_variance(&self, lane: usize, r: f64) -> f64 {
        self.p00[lane] + r
    }

    /// Lane `l`'s state as the scalar filter's `[v, θ]` vector.
    #[inline]
    pub fn state(&self, lane: usize) -> Vec2 {
        Vec2::new(self.v[lane], self.th[lane])
    }

    /// Lane `l`'s covariance matrix (symmetric by construction).
    #[inline]
    pub fn covariance(&self, lane: usize) -> Mat2 {
        Mat2::new(self.p00[lane], self.p01[lane], self.p01[lane], self.p11[lane])
    }

    /// Lane `l`'s most recent predict Jacobian `F`. The batch sweep
    /// records every lane's `F` per IMU sample, and the backward RTS pass
    /// carries step `k + 1`'s smoothed state back to step `k` through it.
    /// Identity before the first predict.
    #[inline]
    pub fn jacobian(&self, lane: usize) -> Mat2 {
        Mat2::new(1.0, self.f01[lane], self.f10[lane], self.f11[lane])
    }

    /// Starts the history record of the step [`Self::predict`] just ran:
    /// every lane's predicted state and Jacobian.
    /// [`Self::record_filtered`] completes it after the step's updates.
    #[inline]
    pub(crate) fn record_predicted(&self) -> LaneStep {
        LaneStep {
            v_pred: self.v,
            th_pred: self.th,
            f01: self.f01,
            f10: self.f10,
            f11: self.f11,
            filt: LaneEstimate::default(),
        }
    }

    /// Completes a record with every lane's filtered state and
    /// covariance, read after the step's updates.
    #[inline]
    pub(crate) fn record_filtered(&self, step: &mut LaneStep) {
        step.filt =
            LaneEstimate { v: self.v, th: self.th, p00: self.p00, p01: self.p01, p11: self.p11 };
    }

    /// Predict step for all four lanes: propagate each state through
    /// Eq (5) with one measured longitudinal acceleration `a_meas` over
    /// `dt` seconds, transcendentals evaluated once per lane, then
    /// propagate the covariances (`P ← F·P·Fᵀ + Q`).
    ///
    /// # Panics
    ///
    /// Panics (debug) if `dt <= 0`.
    pub fn predict(&mut self, a_meas: f64, dt: f64) {
        debug_assert!(dt > 0.0, "dt must be positive");
        let p = &self.config.vehicle;
        // Same association order as the scalar filter's `c`.
        let c = p.air_density * p.frontal_area_m2 * p.drag_coefficient / (p.mass_kg * GRAVITY);
        let literal_eq5 = self.config.literal_eq5;
        for l in 0..MAX_LANES {
            let (v, theta) = (self.v[l], self.th[l]);
            // One sin/cos pair per lane-step: the scalar filter calls
            // `theta.cos()` twice (clamped for Eq 5, raw for the
            // Jacobian) and `theta.sin()` twice — identical values.
            let sin_th = theta.sin();
            let cos_raw = theta.cos();
            let cos_th = cos_raw.max(0.2); // θ never approaches ±90° on a road
            let theta_dot = c * v * a_meas / cos_th;
            let (v_next, dv_dtheta) = if literal_eq5 {
                (v + a_meas * dt, 0.0)
            } else {
                (v + (a_meas - GRAVITY * sin_th) * dt, -GRAVITY * cos_raw * dt)
            };
            let theta_next = theta + theta_dot * dt;
            self.f01[l] = dv_dtheta;
            self.f10[l] = c * a_meas / cos_th * dt;
            self.f11[l] = 1.0 + c * v * a_meas * sin_th / (cos_th * cos_th) * dt;
            self.v[l] = v_next.max(0.0);
            self.th[l] = theta_next.clamp(-0.5, 0.5);
        }
        propagate_cov(
            &mut self.p00,
            &mut self.p01,
            &mut self.p11,
            &self.f01,
            &self.f10,
            &self.f11,
            self.config.q_velocity * dt,
            self.config.q_theta * dt,
        );
    }

    /// Update step for one lane: correct with a measured velocity
    /// `v_meas` of variance `r` (m/s)². `H = [1, 0]`; the Kalman gain
    /// routes the innovation `Δ = v̂ − v` into both states through the
    /// cross covariance, and the variances are floored to keep the
    /// filter responsive to gradient changes over long drives.
    // The `0.0 - 0.0` operands below are deliberate (clippy's eq_op):
    // they are the identity-matrix entries the scalar path subtracts,
    // transcribed literally so signed zeros round identically.
    #[allow(clippy::eq_op)]
    pub fn update(&mut self, lane: usize, v_meas: f64, r: f64) {
        debug_assert!(r > 0.0, "measurement variance must be positive");
        let (a00, a01, a11) = (self.p00[lane], self.p01[lane], self.p11[lane]);
        let innovation = v_meas - self.v[lane];
        let s = a00 + r;
        let k0 = a00 / s;
        let k1 = a01 / s; // P[1][0] == P[0][1]: kept symmetric
        self.v[lane] = (self.v[lane] + k0 * innovation).max(0.0);
        self.th[lane] = (self.th[lane] + k1 * innovation).clamp(-0.5, 0.5);
        // Literal (I − K·H)·P expansion; the `0.0 - ...` and `1.0 - 0.0`
        // terms are the identity-matrix entries the scalar path
        // subtracts, kept so signed zeros round identically.
        let t00 = (1.0 - k0) * a00 + (0.0 - 0.0) * a01;
        let t01 = (1.0 - k0) * a01 + (0.0 - 0.0) * a11;
        let t10 = (0.0 - k1) * a00 + (1.0 - 0.0) * a01;
        let t11 = (0.0 - k1) * a01 + (1.0 - 0.0) * a11;
        let off = 0.5 * (t01 + t10);
        self.p00[lane] = t00.max(1e-6);
        self.p01[lane] = off;
        self.p11[lane] = t11.max(1e-9);
    }
}

/// Covariance propagation: `P ← F·P·Fᵀ + Q`, re-symmetrized — the
/// literal expansion of the scalar filter's two `Mat2` multiplications
/// with `F = [[1, f01], [f10, f11]]`.
#[allow(clippy::too_many_arguments)]
fn propagate_cov(
    p00: &mut [f64; MAX_LANES],
    p01: &mut [f64; MAX_LANES],
    p11: &mut [f64; MAX_LANES],
    f01: &[f64; MAX_LANES],
    f10: &[f64; MAX_LANES],
    f11: &[f64; MAX_LANES],
    qv_dt: f64,
    qt_dt: f64,
) {
    for l in 0..MAX_LANES {
        let (a00, a01, a11) = (p00[l], p01[l], p11[l]);
        let (b, g10, g11) = (f01[l], f10[l], f11[l]);
        // M = F·P (P symmetric: P[1][0] == a01).
        let m00 = 1.0 * a00 + b * a01;
        let m01 = 1.0 * a01 + b * a11;
        let m10 = g10 * a00 + g11 * a01;
        let m11 = g10 * a01 + g11 * a11;
        // R = M·Fᵀ, then + diag(qv·dt, qt·dt) with the zero
        // off-diagonals added literally (signed-zero parity).
        let r00 = m00 * 1.0 + m01 * b;
        let r01 = m00 * g10 + m01 * g11;
        let r10 = m10 * 1.0 + m11 * b;
        let r11 = m10 * g10 + m11 * g11;
        let n00 = r00 + qv_dt;
        let n01 = r01 + 0.0;
        let n10 = r10 + 0.0;
        let n11 = r11 + qt_dt;
        p00[l] = n00;
        p01[l] = 0.5 * (n01 + n10);
        p11[l] = n11;
    }
}

/// Every lane's state `[v, θ]` and covariance (symmetric, so one
/// off-diagonal slot): a history record's filtered half, or the
/// backward RTS pass's smoothed estimate.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub(crate) struct LaneEstimate {
    pub(crate) v: [f64; MAX_LANES],
    pub(crate) th: [f64; MAX_LANES],
    pub(crate) p00: [f64; MAX_LANES],
    pub(crate) p01: [f64; MAX_LANES],
    pub(crate) p11: [f64; MAX_LANES],
}

/// One IMU sample of the lane sweep, every lane at once, as the
/// backward RTS pass reads it: the predicted state and the Jacobian
/// after [`EkfLanes::predict`], then the filtered state and covariance
/// after the sample's updates. Ten `[f64; 4]` fields, 320 bytes per
/// sample. The predicted covariance is not stored: [`rts_smooth_lanes`]
/// recomputes it bit for bit from the previous record's filtered one.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub(crate) struct LaneStep {
    v_pred: [f64; MAX_LANES],
    th_pred: [f64; MAX_LANES],
    f01: [f64; MAX_LANES],
    f10: [f64; MAX_LANES],
    f11: [f64; MAX_LANES],
    filt: LaneEstimate,
}

/// The backward RTS pass over a lane sweep's history, newest step
/// first: hands `visit` each step's index and smoothed estimate, the
/// last step's being its filtered one. `config` and `dt` must be the
/// sweep's. Per lane this is
/// [`rts_smooth_into`](crate::smoother::rts_smooth_into) over the
/// lane's [`RtsStep`](crate::smoother::RtsStep)s, bit for bit.
pub(crate) fn rts_smooth_lanes(
    config: &EkfConfig,
    dt: f64,
    history: &[LaneStep],
    mut visit: impl FnMut(usize, &LaneEstimate),
) {
    let Some(last) = history.last() else {
        return;
    };
    let (qv_dt, qt_dt) = (config.q_velocity * dt, config.q_theta * dt);
    let mut smoothed = last.filt;
    visit(history.len() - 1, &smoothed);
    for (k, pair) in history.windows(2).enumerate().rev() {
        if let [cur, next] = pair {
            smoothed = rts_step_lanes(cur, next, &smoothed, qv_dt, qt_dt);
            visit(k, &smoothed);
        }
    }
}

/// One backward RTS step for every lane: the smoothed estimate at step
/// `k` from its record `cur`, step `k + 1`'s record `next` and smoothed
/// estimate `smoothed`. Per lane this is
/// [`rts_step`](crate::smoother::rts_step)'s operation sequence over
/// `Mat2`/`Vec2`, with step `k + 1`'s predicted covariance recomputed
/// by the [`propagate_cov`] the sweep ran. That covariance, `P_filt` and
/// `smoothed`'s are symmetric bit for bit, so each keeps one
/// off-diagonal and one `−p01/det` serves both off-diagonals of the
/// inverse. A lane whose predicted covariance is singular
/// (`Mat2::inverse` fails) keeps its filtered estimate.
fn rts_step_lanes(
    cur: &LaneStep,
    next: &LaneStep,
    smoothed: &LaneEstimate,
    qv_dt: f64,
    qt_dt: f64,
) -> LaneEstimate {
    let (f, s) = (&cur.filt, smoothed);
    let (a00, a01, a11) = (&f.p00, &f.p01, &f.p11);
    let (b, g10, g11) = (&next.f01, &next.f10, &next.f11);
    let (mut q00, mut q01, mut q11) = (f.p00, f.p01, f.p11);
    propagate_cov(&mut q00, &mut q01, &mut q11, b, g10, g11, qv_dt, qt_dt);
    // P_pred⁻¹, as `Mat2::inverse` forms it.
    let det = lanes(|l| q00[l] * q11[l] - q01[l] * q01[l]);
    let (i00, i01, i11) =
        (lanes(|l| q11[l] / det[l]), lanes(|l| -q01[l] / det[l]), lanes(|l| q00[l] / det[l]));
    // C = (P_filt·Fᵀ)·P_pred⁻¹ with Fᵀ = [[1, f10], [f01, f11]].
    let m00 = lanes(|l| a00[l] * 1.0 + a01[l] * b[l]);
    let m01 = lanes(|l| a00[l] * g10[l] + a01[l] * g11[l]);
    let m10 = lanes(|l| a01[l] * 1.0 + a11[l] * b[l]);
    let m11 = lanes(|l| a01[l] * g10[l] + a11[l] * g11[l]);
    let c00 = lanes(|l| m00[l] * i00[l] + m01[l] * i01[l]);
    let c01 = lanes(|l| m00[l] * i01[l] + m01[l] * i11[l]);
    let c10 = lanes(|l| m10[l] * i00[l] + m11[l] * i01[l]);
    let c11 = lanes(|l| m10[l] * i01[l] + m11[l] * i11[l]);
    // x = x_filt + C·(x_s(k+1) − x_pred(k+1)).
    let dv = lanes(|l| s.v[l] - next.v_pred[l]);
    let dth = lanes(|l| s.th[l] - next.th_pred[l]);
    let v = lanes(|l| f.v[l] + (c00[l] * dv[l] + c01[l] * dth[l]));
    let th = lanes(|l| f.th[l] + (c10[l] * dv[l] + c11[l] * dth[l]));
    // P = P_filt + (C·(P_s(k+1) − P_pred(k+1)))·Cᵀ, re-symmetrized,
    // with the diagonal guarded against negative variances.
    let d00 = lanes(|l| s.p00[l] - q00[l]);
    let d01 = lanes(|l| s.p01[l] - q01[l]);
    let d11 = lanes(|l| s.p11[l] - q11[l]);
    let e00 = lanes(|l| c00[l] * d00[l] + c01[l] * d01[l]);
    let e01 = lanes(|l| c00[l] * d01[l] + c01[l] * d11[l]);
    let e10 = lanes(|l| c10[l] * d00[l] + c11[l] * d01[l]);
    let e11 = lanes(|l| c10[l] * d01[l] + c11[l] * d11[l]);
    let n00 = lanes(|l| a00[l] + (e00[l] * c00[l] + e01[l] * c01[l]));
    let n01 = lanes(|l| a01[l] + (e00[l] * c10[l] + e01[l] * c11[l]));
    let n10 = lanes(|l| a01[l] + (e10[l] * c00[l] + e11[l] * c01[l]));
    let n11 = lanes(|l| a11[l] + (e10[l] * c10[l] + e11[l] * c11[l]));
    // The singular-`P_pred` fallback, per lane.
    let singular = det.map(|d| d.abs() < SINGULAR_TOL);
    let pick = |filtered: &[f64; MAX_LANES], smoothed: [f64; MAX_LANES]| {
        lanes(|l| if singular[l] { filtered[l] } else { smoothed[l] })
    };
    LaneEstimate {
        v: pick(&f.v, v),
        th: pick(&f.th, th),
        p00: pick(a00, n00.map(|x| x.max(1e-12))),
        p01: pick(a01, lanes(|l| 0.5 * (n01[l] + n10[l]))),
        p11: pick(a11, n11.map(|x| x.max(1e-12))),
    }
}

/// `[f(0), f(1), f(2), f(3)]`: one operation over every lane.
#[inline(always)]
fn lanes(f: impl FnMut(usize) -> f64) -> [f64; MAX_LANES] {
    std::array::from_fn(f)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ekf::oracle::GradientEkf;

    /// Drives lane `l` of an [`EkfLanes`] and a scalar [`GradientEkf`]
    /// through the same deterministic predict/update schedule and
    /// asserts bit-identity after every step.
    fn assert_lane_matches_scalar(lane: usize, v0: f64, r: f64, a_scale: f64) {
        let cfg = EkfConfig::default();
        let mut v0s = [10.0; MAX_LANES];
        v0s[lane] = v0;
        let mut lanes = EkfLanes::new(cfg, v0s);
        let mut scalar = GradientEkf::new(cfg, v0);
        let dt = 0.02;
        let mut state = 0x2545f4914f6cdd1du64 ^ lane as u64;
        for step in 0..600 {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let a = a_scale * (((state >> 33) as f64 / (1u64 << 31) as f64) - 1.0);
            let f_scalar = scalar.predict_returning_jacobian(a, dt);
            lanes.predict(a, dt);
            if step % 5 == 0 {
                let v_meas = v0 + ((state >> 20) & 0xff) as f64 / 256.0 - 0.5;
                scalar.update(v_meas, r);
                lanes.update(lane, v_meas, r);
            }
            assert_eq!(lanes.velocity(lane).to_bits(), scalar.velocity().to_bits(), "v@{step}");
            assert_eq!(lanes.theta(lane).to_bits(), scalar.theta().to_bits(), "θ@{step}");
            let sp = scalar.covariance();
            let lp = lanes.covariance(lane);
            for (i, (a, b)) in
                [(lp.m[0][0], sp.m[0][0]), (lp.m[0][1], sp.m[0][1]), (lp.m[1][1], sp.m[1][1])]
                    .iter()
                    .enumerate()
            {
                assert_eq!(a.to_bits(), b.to_bits(), "P[{i}]@{step}");
            }
            assert_eq!(lanes.jacobian(lane).m, f_scalar.m, "F@{step}");
            assert_eq!(
                lanes.innovation_variance(lane, r).to_bits(),
                scalar.innovation_variance(r).to_bits(),
                "S@{step}"
            );
        }
    }

    #[test]
    fn every_lane_is_bit_identical_to_scalar() {
        assert_lane_matches_scalar(0, 15.0, 0.15, 1.5);
        assert_lane_matches_scalar(1, 12.0, 0.04, 0.8);
        assert_lane_matches_scalar(2, 18.0, 0.01, 2.5);
        assert_lane_matches_scalar(3, 9.0, 1.5, 0.4);
    }

    #[test]
    fn four_lanes_track_four_scalars_simultaneously() {
        let cfg = EkfConfig::default();
        let v0s = [15.0, 12.0, 18.0, 9.0];
        let rs = [0.15, 0.04, 0.01, 1.5];
        let mut lanes = EkfLanes::new(cfg, v0s);
        let mut scalars: Vec<GradientEkf> =
            v0s.iter().map(|&v0| GradientEkf::new(cfg, v0)).collect();
        let dt = 0.02;
        for step in 0..400 {
            let a = 0.9 * ((step as f64) * 0.05).sin();
            lanes.predict(a, dt);
            for s in scalars.iter_mut() {
                s.predict(a, dt);
            }
            // Staggered updates: each lane on its own cadence.
            for (l, s) in scalars.iter_mut().enumerate() {
                if step % (l + 2) == 0 {
                    let v_meas = v0s[l] + 0.2 * ((step as f64) * 0.11).cos();
                    lanes.update(l, v_meas, rs[l]);
                    s.update(v_meas, rs[l]);
                }
            }
            for (l, s) in scalars.iter().enumerate() {
                assert_eq!(lanes.velocity(l).to_bits(), s.velocity().to_bits());
                assert_eq!(lanes.theta(l).to_bits(), s.theta().to_bits());
                assert_eq!(
                    lanes.theta_variance(l).to_bits(),
                    s.theta_variance().to_bits(),
                    "lane {l} step {step}"
                );
            }
        }
    }

    #[test]
    fn a_history_record_is_320_bytes() {
        assert_eq!(std::mem::size_of::<LaneStep>(), 10 * 8 * MAX_LANES);
    }

    fn bits(m: Mat2) -> [[u64; 2]; 2] {
        m.m.map(|row| row.map(f64::to_bits))
    }

    #[test]
    fn initial_state_matches_scalar_constructor() {
        let cfg = EkfConfig::default();
        let v0s = [5.0, 6.0, 7.0, 8.0];
        let fresh = EkfLanes::new(cfg, v0s);
        // Lanes restarted after some steps must look freshly built too,
        // and a restart leaves the other lanes alone.
        let mut reset = EkfLanes::new(cfg, [10.0; MAX_LANES]);
        for step in 0..50 {
            reset.predict(0.4 * (step as f64 * 0.3).sin(), 0.02);
            reset.update(step % MAX_LANES, 11.0, 0.1);
        }
        let before = reset.clone();
        reset.reset_lane(1, v0s[1]);
        for l in [0, 2, 3] {
            assert_eq!(reset.state(l), before.state(l));
            assert_eq!(bits(reset.covariance(l)), bits(before.covariance(l)));
            assert_eq!(bits(reset.jacobian(l)), bits(before.jacobian(l)));
        }
        for (l, &v0) in v0s.iter().enumerate() {
            reset.reset_lane(l, v0);
        }
        for lanes in [&fresh, &reset] {
            for (l, &v0) in v0s.iter().enumerate() {
                let s = GradientEkf::new(cfg, v0);
                assert_eq!(lanes.velocity(l).to_bits(), s.velocity().to_bits());
                assert_eq!(lanes.theta(l).to_bits(), s.theta().to_bits());
                assert_eq!(bits(lanes.covariance(l)), bits(s.covariance()));
                assert_eq!(bits(lanes.jacobian(l)), bits(Mat2::identity()));
            }
        }
    }

    #[test]
    fn covariance_stays_symmetric_and_finite() {
        let mut lanes = EkfLanes::new(EkfConfig::default(), [10.0; MAX_LANES]);
        for i in 0..5000 {
            lanes.predict(0.3, 0.02);
            if i % 5 == 0 {
                lanes.update(i % MAX_LANES, 10.0 + (i as f64 * 0.01).sin(), 0.1);
            }
        }
        for l in 0..MAX_LANES {
            let p = lanes.covariance(l);
            assert!(p.is_finite());
            assert_eq!(p.m[0][1].to_bits(), p.m[1][0].to_bits());
            assert!(lanes.theta_variance(l) > 0.0);
        }
    }
}

/// Property suite pinning the lanes to four scalar filters: randomized
/// trips (mixed accelerations, per-lane update cadences and noise),
/// every state and covariance entry compared at 0 ULP. The backward RTS
/// pass over the lane history is pinned the same way, per lane, to the
/// scalar smoother.
#[cfg(test)]
mod proptests {
    use super::*;
    use crate::ekf::oracle::GradientEkf;
    use crate::smoother::{rts_smooth_into, RtsStep};
    use proptest::prelude::*;

    /// Maps a float to an order-preserving integer so ULP distance is a
    /// plain absolute difference (the classic sign-magnitude flip).
    fn ordered_bits(x: f64) -> u64 {
        let u = x.to_bits();
        if u >> 63 == 1 {
            !u
        } else {
            u | 0x8000_0000_0000_0000
        }
    }

    /// ULP distance; `-0.0` and `0.0` compare equal, NaN never matches.
    fn ulps(a: f64, b: f64) -> u64 {
        if a == b {
            0
        } else if a.is_nan() || b.is_nan() {
            u64::MAX
        } else {
            ordered_bits(a).abs_diff(ordered_bits(b))
        }
    }

    /// Splitmix-style LCG matching the workspace's other property tests.
    fn lcg(s: &mut u64) -> f64 {
        *s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        ((*s >> 33) as f64 / u32::MAX as f64) - 0.5
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Randomized trip: shared acceleration stream, per-lane update
        /// cadence/noise, full-state comparison after every step.
        #[test]
        fn lanes_match_four_scalar_filters_stepwise(
            seed in 0u64..10_000,
            v0s in prop::collection::vec(0.0..30.0f64, MAX_LANES),
            steps in 100usize..600,
        ) {
            let v0 = [v0s[0], v0s[1], v0s[2], v0s[3]];
            let mut lanes = EkfLanes::new(EkfConfig::default(), v0);
            let mut scalars: Vec<GradientEkf> =
                v0.iter().map(|&v| GradientEkf::new(EkfConfig::default(), v)).collect();
            let mut s = seed;
            let dt = 0.02;
            for k in 0..steps {
                let a = 4.0 * lcg(&mut s);
                lanes.predict(a, dt);
                for ekf in scalars.iter_mut() {
                    ekf.predict(a, dt);
                }
                for (l, ekf) in scalars.iter_mut().enumerate() {
                    // Staggered cadences so the lanes desynchronize: lane l
                    // updates every l+3 steps with its own draw of noise.
                    if k % (l + 3) == 0 {
                        let v_meas = (10.0 + 8.0 * lcg(&mut s)).max(0.0);
                        let r = 0.01 + lcg(&mut s).abs();
                        lanes.update(l, v_meas, r);
                        ekf.update(v_meas, r);
                    }
                    let p_lane = lanes.covariance(l);
                    let p_ref = ekf.covariance();
                    let pairs = [
                        ("v", lanes.velocity(l), ekf.velocity()),
                        ("theta", lanes.theta(l), ekf.theta()),
                        ("p00", p_lane.m[0][0], p_ref.m[0][0]),
                        ("p01", p_lane.m[0][1], p_ref.m[0][1]),
                        ("p10", p_lane.m[1][0], p_ref.m[1][0]),
                        ("p11", p_lane.m[1][1], p_ref.m[1][1]),
                    ];
                    for (what, got, want) in pairs {
                        prop_assert_eq!(
                            ulps(got, want),
                            0,
                            "step {} lane {} {}: lanes {:?} vs scalar {:?}",
                            k, l, what, got, want
                        );
                    }
                }
            }
        }

        /// The derived read-outs the pipeline consumes (θ variance and the
        /// innovation variance used for NIS gating) agree at trip end.
        #[test]
        fn derived_readouts_match_after_a_trip(
            seed in 0u64..10_000,
            r_gate in 0.01..0.5f64,
        ) {
            let v0 = [8.0, 12.0, 16.0, 20.0];
            let mut lanes = EkfLanes::new(EkfConfig::default(), v0);
            let mut scalars: Vec<GradientEkf> =
                v0.iter().map(|&v| GradientEkf::new(EkfConfig::default(), v)).collect();
            let mut s = seed;
            let dt = 0.02;
            for k in 0u64..800 {
                let a = 3.0 * lcg(&mut s);
                lanes.predict(a, dt);
                for ekf in scalars.iter_mut() {
                    ekf.predict(a, dt);
                }
                for (l, ekf) in scalars.iter_mut().enumerate() {
                    if k % 5 == l as u64 % 5 {
                        let v_meas = (12.0 + 6.0 * lcg(&mut s)).max(0.0);
                        lanes.update(l, v_meas, 0.25);
                        ekf.update(v_meas, 0.25);
                    }
                }
            }
            for (l, ekf) in scalars.iter().enumerate() {
                prop_assert_eq!(
                    ulps(lanes.theta_variance(l), ekf.theta_variance()),
                    0,
                    "lane {} theta_variance diverged",
                    l
                );
                prop_assert_eq!(
                    ulps(lanes.innovation_variance(l, r_gate), ekf.innovation_variance(r_gate)),
                    0,
                    "lane {} innovation_variance diverged",
                    l
                );
                let x = lanes.state(l);
                prop_assert_eq!(ulps(x.x, ekf.velocity()), 0);
                prop_assert_eq!(ulps(x.y, ekf.theta()), 0);
            }
        }
    }

    /// Runs four lanes over a randomized trip of `steps` IMU samples and
    /// returns the lane history the sweep records, plus each lane's
    /// [`RtsStep`]s for the scalar smoother, with the predicted
    /// covariance read straight after `predict`. Lane `l` updates every
    /// `cadence[l]` steps, never when it is 0.
    fn lane_history(
        config: EkfConfig,
        seed: u64,
        steps: usize,
        cadence: [usize; MAX_LANES],
    ) -> (Vec<LaneStep>, [Vec<RtsStep>; MAX_LANES]) {
        let dt = 0.02;
        let mut lanes = EkfLanes::new(config, [12.0, 8.0, 20.0, 15.0]);
        let mut history = Vec::new();
        let mut oracle: [Vec<RtsStep>; MAX_LANES] = Default::default();
        let mut s = seed;
        for k in 0..steps {
            lanes.predict(3.0 * lcg(&mut s), dt);
            let mut step = lanes.record_predicted();
            let predicted: [(Vec2, Mat2, Mat2); MAX_LANES] =
                std::array::from_fn(|l| (lanes.state(l), lanes.covariance(l), lanes.jacobian(l)));
            for (l, &every) in cadence.iter().enumerate() {
                if every > 0 && k % every == 0 {
                    let v_meas = (12.0 + 6.0 * lcg(&mut s)).max(0.0);
                    lanes.update(l, v_meas, 0.01 + lcg(&mut s).abs());
                }
            }
            lanes.record_filtered(&mut step);
            history.push(step);
            for (l, (x_pred, p_pred, f)) in predicted.into_iter().enumerate() {
                oracle[l].push(RtsStep {
                    x_pred,
                    p_pred,
                    x_filt: lanes.state(l),
                    p_filt: lanes.covariance(l),
                    f,
                });
            }
        }
        (history, oracle)
    }

    /// Runs [`rts_smooth_lanes`] over `history` and returns each lane's
    /// first mismatch against [`rts_smooth_into`] over its `RtsStep`s:
    /// `(lane, step, entry, ulps)`, or `None` when every lane matches at
    /// 0 ULP. Every step must be visited exactly once.
    fn first_mismatch(
        config: &EkfConfig,
        history: &[LaneStep],
        oracle: &[Vec<RtsStep>; MAX_LANES],
    ) -> Option<(usize, usize, &'static str, u64)> {
        let mut got = vec![None; history.len()];
        rts_smooth_lanes(config, 0.02, history, |k, est| {
            assert!(got[k].replace(*est).is_none(), "step {k} visited twice");
        });
        let mut want = Vec::new();
        for (l, steps) in oracle.iter().enumerate() {
            rts_smooth_into(steps, &mut want);
            for (k, (x, p)) in want.iter().enumerate() {
                let g = got[k].expect("every step visited");
                let pairs = [
                    ("v", g.v[l], x.x),
                    ("theta", g.th[l], x.y),
                    ("p00", g.p00[l], p.m[0][0]),
                    ("p01", g.p01[l], p.m[0][1]),
                    ("p10", g.p01[l], p.m[1][0]),
                    ("p11", g.p11[l], p.m[1][1]),
                ];
                for (what, a, b) in pairs {
                    if a.to_bits() != b.to_bits() {
                        return Some((l, k, what, ulps(a, b)));
                    }
                }
            }
        }
        None
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// The 4-lane backward pass equals the scalar smoother per lane
        /// at 0 ULP on randomized trips and cadences.
        #[test]
        fn rts_lane_pass_matches_the_scalar_smoother(
            seed in 0u64..10_000,
            steps in 0usize..400,
            cadence in prop::collection::vec(1usize..9, MAX_LANES),
        ) {
            let config = EkfConfig::default();
            let cadence = [cadence[0], cadence[1], cadence[2], cadence[3]];
            let (history, oracle) = lane_history(config, seed, steps, cadence);
            prop_assert_eq!(first_mismatch(&config, &history, &oracle), None);
        }
    }

    /// Without process noise, a lane that starts with a rank-deficient
    /// covariance and is never updated keeps a singular predicted
    /// covariance, so the pass falls back to its filtered estimate while
    /// the updated lanes smooth: the per-lane select, pinned at 0 ULP.
    #[test]
    fn a_singular_predicted_covariance_keeps_the_filtered_estimate() {
        let config =
            EkfConfig { q_velocity: 0.0, q_theta: 0.0, p0_theta: 0.0, ..Default::default() };
        let (history, oracle) = lane_history(config, 7, 300, [3, 7, 0, 0]);
        let singular =
            |steps: &[RtsStep]| steps[1..].iter().filter(|s| s.p_pred.inverse().is_err()).count();
        let counts: Vec<usize> = oracle.iter().map(|steps| singular(steps)).collect();
        assert_eq!(counts[2..], [299, 299], "never-updated lanes stay singular");
        assert!(counts[0] < 299 && counts[1] < 299, "updated lanes smooth: {counts:?}");
        assert_eq!(first_mismatch(&config, &history, &oracle), None);
        // The fallback leaves those lanes at their filtered estimate.
        rts_smooth_lanes(&config, 0.02, &history, |k, est| {
            let filt = history[k].filt;
            for l in 2..MAX_LANES {
                assert_eq!(est.th[l].to_bits(), filt.th[l].to_bits(), "θ, lane {l} step {k}");
                assert_eq!(est.p11[l].to_bits(), filt.p11[l].to_bits(), "P11, lane {l} step {k}");
            }
        });
    }
}
