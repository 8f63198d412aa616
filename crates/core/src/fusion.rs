//! Track fusion (paper Section III-C3, Eq 6).
//!
//! Gradient tracks from different velocity sources (and different
//! vehicles) are fused by the **basic convex combination** algorithm —
//! appropriate because each track comes from an independent sensor and
//! carries no cross covariance:
//!
//! ```text
//! θ̄ = U · Σ_k P_k⁻¹ · θ_k        U = (Σ_k P_k⁻¹)⁻¹
//! ```
//!
//! The same operator serves the in-phone fusion of the four sensor tracks
//! and the cloud-side fusion of tracks uploaded by different vehicles.

use crate::track::GradientTrack;
use serde::{Deserialize, Serialize};

/// Error fusing tracks.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum FusionError {
    /// No tracks were supplied.
    NoTracks,
    /// Supplied tracks are not aligned on a common arc grid.
    MisalignedTracks,
}

impl std::fmt::Display for FusionError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FusionError::NoTracks => write!(f, "fusion needs at least one track"),
            FusionError::MisalignedTracks => {
                write!(f, "tracks must share a common arc-position grid")
            }
        }
    }
}

impl std::error::Error for FusionError {}

/// The Eq-6 sum over `(θ_k, P_k)` estimates, in iteration order: returns
/// `(θ̄, U)` with `U = 1/Σ(1/P_k)`. The one place the convex combination
/// is written: [`fuse_values`], [`fuse_tracks_into`] and the online
/// estimator's fused θ each feed it their estimates, after their own
/// variance checks (positive variances here, a variance floor online),
/// so the sum is positive.
pub(crate) fn convex_combination(estimates: impl IntoIterator<Item = (f64, f64)>) -> (f64, f64) {
    let mut inv_sum = 0.0;
    let mut weighted = 0.0;
    for (theta, var) in estimates {
        // lint:allow(float-div) each caller checks its variances first: positive in `fuse_values` and `fuse_tracks_into`, floored online
        inv_sum += 1.0 / var;
        weighted += theta / var;
    }
    // Positive: one reciprocal of a positive variance per estimate.
    debug_assert!(inv_sum > 0.0);
    let u = 1.0 / inv_sum;
    (u * weighted, u)
}

/// Fuses scalar estimates by convex combination (Eq 6): returns
/// `(θ̄, U)` where `U = 1/Σ(1/P_k)` is the fused variance.
///
/// # Panics
///
/// Panics if `values` is empty or any variance is not positive.
pub fn fuse_values(values: &[(f64, f64)]) -> (f64, f64) {
    assert!(!values.is_empty(), "fuse_values needs at least one estimate");
    convex_combination(values.iter().map(|&(theta, var)| {
        assert!(var > 0.0, "variances must be positive");
        (theta, var)
    }))
}

/// Fuses aligned gradient tracks pointwise with Eq 6.
///
/// All tracks must share the same arc grid (use
/// [`GradientTrack::resample`] first).
///
/// # Errors
///
/// Returns [`FusionError::NoTracks`] for an empty slice and
/// [`FusionError::MisalignedTracks`] when grids differ.
pub fn fuse_tracks(tracks: &[GradientTrack]) -> Result<GradientTrack, FusionError> {
    let mut out = GradientTrack::default();
    fuse_tracks_into(tracks, &mut out)?;
    Ok(out)
}

/// [`fuse_tracks`] into a caller-owned track (overwritten, labelled
/// `"fused"`), summing Eq 6 per grid point over the tracks in slice
/// order — the order [`fuse_values`] sums a staged slice in, with no
/// per-point staging buffer, so a warm caller pays no allocation.
///
/// # Errors
///
/// Same as [`fuse_tracks`]; on error `out` is left untouched.
///
/// # Panics
///
/// Panics if any variance is not positive.
pub fn fuse_tracks_into(
    tracks: &[GradientTrack],
    out: &mut GradientTrack,
) -> Result<(), FusionError> {
    let first = tracks.first().ok_or(FusionError::NoTracks)?;
    for t in &tracks[1..] {
        if t.s.len() != first.s.len() || t.s.iter().zip(&first.s).any(|(a, b)| (a - b).abs() > 1e-9)
        {
            return Err(FusionError::MisalignedTracks);
        }
    }
    out.label.clear();
    out.label.push_str("fused");
    out.s.clear();
    out.theta.clear();
    out.variance.clear();
    for i in 0..first.s.len() {
        let (theta, u) = convex_combination(tracks.iter().map(|t| {
            let (theta, var) = (t.theta[i], t.variance[i]);
            assert!(var > 0.0, "variances must be positive");
            (theta, var)
        }));
        out.push(first.s[i], theta, u);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fuse_values_weights_by_inverse_variance() {
        // Precise estimate dominates.
        let (theta, var) = fuse_values(&[(0.10, 1e-6), (0.50, 1e-2)]);
        assert!((theta - 0.10).abs() < 1e-3, "θ̄ = {theta}");
        assert!(var < 1e-6);
    }

    #[test]
    fn fuse_values_equal_weights_is_mean() {
        let (theta, var) = fuse_values(&[(0.1, 1e-4), (0.3, 1e-4)]);
        assert!((theta - 0.2).abs() < 1e-12);
        assert!((var - 5e-5).abs() < 1e-12);
    }

    #[test]
    fn fused_variance_never_exceeds_best_track() {
        let inputs = [(0.1, 3e-4), (0.12, 1e-4), (0.08, 7e-4)];
        let (_, var) = fuse_values(&inputs);
        let best = inputs.iter().map(|p| p.1).fold(f64::MAX, f64::min);
        assert!(var <= best);
    }

    #[test]
    fn fused_value_within_input_envelope() {
        let inputs = [(0.05, 2e-4), (0.09, 1e-4), (0.11, 5e-4)];
        let (theta, _) = fuse_values(&inputs);
        assert!((0.05..=0.11).contains(&theta));
    }

    #[test]
    fn single_track_is_identity() {
        let mut t = GradientTrack::new("only");
        t.push(0.0, 0.02, 1e-4);
        t.push(1.0, 0.03, 2e-4);
        let fused = fuse_tracks(std::slice::from_ref(&t)).unwrap();
        for (a, b) in fused.theta.iter().zip(&t.theta) {
            assert!((a - b).abs() < 1e-15);
        }
        for (a, b) in fused.variance.iter().zip(&t.variance) {
            assert!((a - b).abs() < 1e-15);
        }
    }

    #[test]
    fn fuse_tracks_pointwise() {
        let mut a = GradientTrack::new("a");
        let mut b = GradientTrack::new("b");
        for i in 0..5 {
            let s = i as f64;
            a.push(s, 0.10, 1e-4);
            b.push(s, 0.20, 1e-4);
        }
        let fused = fuse_tracks(&[a, b]).unwrap();
        for th in &fused.theta {
            assert!((th - 0.15).abs() < 1e-12);
        }
        for v in &fused.variance {
            assert!((v - 5e-5).abs() < 1e-12);
        }
    }

    #[test]
    fn misaligned_tracks_rejected() {
        let mut a = GradientTrack::new("a");
        let mut b = GradientTrack::new("b");
        a.push(0.0, 0.1, 1e-4);
        a.push(1.0, 0.1, 1e-4);
        b.push(0.0, 0.1, 1e-4);
        b.push(2.0, 0.1, 1e-4);
        assert_eq!(fuse_tracks(&[a, b]).unwrap_err(), FusionError::MisalignedTracks);
        assert_eq!(fuse_tracks(&[]).unwrap_err(), FusionError::NoTracks);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_variance_panics() {
        let _ = fuse_values(&[(0.1, 0.0)]);
    }
}
