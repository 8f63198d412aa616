//! Analytic terrain (elevation) models.
//!
//! Procedurally generated road networks are draped over a terrain model:
//! the altitude profile of every road is the terrain sampled along its
//! centerline. A sum-of-sinusoids terrain produces the rolling-hills
//! elevation structure of a Virginia piedmont city, with full analytic
//! control over gradient magnitudes.

use gradest_math::Vec2;
use serde::{Deserialize, Serialize};

/// An elevation field over the local planar frame.
pub trait Terrain {
    /// Altitude in metres at planar position `p`.
    fn altitude(&self, p: Vec2) -> f64;

    /// Altitude gradient vector `(∂z/∂x, ∂z/∂y)` at `p`, by default from
    /// central differences with a 0.5 m step.
    fn gradient(&self, p: Vec2) -> Vec2 {
        let h = 0.5;
        let dzdx = (self.altitude(p + Vec2::new(h, 0.0)) - self.altitude(p - Vec2::new(h, 0.0)))
            / (2.0 * h);
        let dzdy = (self.altitude(p + Vec2::new(0.0, h)) - self.altitude(p - Vec2::new(0.0, h)))
            / (2.0 * h);
        Vec2::new(dzdx, dzdy)
    }

    /// Road gradient angle (radians) experienced travelling through `p`
    /// along unit direction `dir`: `atan(∇z · dir)`.
    fn slope_along(&self, p: Vec2, dir: Vec2) -> f64 {
        self.gradient(p).dot(dir).atan()
    }
}

/// A constant-slope plane: `z = z0 + g · p`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PlaneTerrain {
    /// Altitude at the origin.
    pub base_altitude_m: f64,
    /// Constant gradient vector (rise per metre east, per metre north).
    pub slope: Vec2,
}

impl Terrain for PlaneTerrain {
    fn altitude(&self, p: Vec2) -> f64 {
        self.base_altitude_m + self.slope.dot(p)
    }

    fn gradient(&self, _p: Vec2) -> Vec2 {
        self.slope
    }
}

/// One sinusoidal component of a [`SineTerrain`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SineComponent {
    /// Peak amplitude in metres.
    pub amplitude_m: f64,
    /// Spatial wave vector in rad/m (direction = ridge normal).
    pub wave_vector: Vec2,
    /// Phase offset in radians.
    pub phase: f64,
}

/// Rolling-hills terrain as a sum of sinusoids:
/// `z(p) = z0 + Σ A_i · sin(k_i · p + φ_i)`.
///
/// Analytic gradients make ground truth exact, and amplitude/wavelength
/// pairs directly control the maximum road gradient
/// (`max slope = Σ A_i·|k_i|`).
///
/// # Example
///
/// ```
/// use gradest_geo::terrain::{hilly_terrain, Terrain};
/// use gradest_math::Vec2;
///
/// let t = hilly_terrain(7);
/// // Maximum slope anywhere is bounded by the component budget (< 10%).
/// let g = t.gradient(Vec2::new(123.0, -456.0));
/// assert!(g.norm() < 0.10);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SineTerrain {
    /// Altitude offset in metres.
    pub base_altitude_m: f64,
    /// The sinusoidal components.
    pub components: Vec<SineComponent>,
}

impl Terrain for SineTerrain {
    fn altitude(&self, p: Vec2) -> f64 {
        self.base_altitude_m
            + self
                .components
                .iter()
                .map(|c| c.amplitude_m * (c.wave_vector.dot(p) + c.phase).sin())
                .sum::<f64>()
    }

    fn gradient(&self, p: Vec2) -> Vec2 {
        let mut g = Vec2::ZERO;
        for c in &self.components {
            let arg = c.wave_vector.dot(p) + c.phase;
            g += c.wave_vector * (c.amplitude_m * arg.cos());
        }
        g
    }
}

/// A Charlottesville-like rolling-hills terrain, deterministic in `seed`.
///
/// Components span wavelengths from ~600 m to ~3 km with amplitudes that
/// keep the total slope budget under ~9.5 % (≈ 5.4°), matching the road
/// gradients the paper's motivating studies discuss (0°–5°).
pub fn hilly_terrain(seed: u64) -> SineTerrain {
    // Small deterministic LCG so the terrain is reproducible without
    // dragging `rand` into this crate's public behaviour.
    let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(1);
    let mut next = move || {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        (state >> 33) as f64 / (u32::MAX as f64) // in [0, 1)
    };
    let wavelengths = [3000.0, 1700.0, 900.0, 600.0];
    // Per-component slope budget (dimensionless rise/run); sums to 0.095.
    let slope_budget = [0.040, 0.028, 0.017, 0.010];
    let components = wavelengths
        .iter()
        .zip(slope_budget)
        .map(|(&wl, budget)| {
            let k = 2.0 * std::f64::consts::PI / wl;
            let dir = 2.0 * std::f64::consts::PI * next();
            SineComponent {
                amplitude_m: budget / k,
                wave_vector: Vec2::from_angle(dir) * k,
                phase: 2.0 * std::f64::consts::PI * next(),
            }
        })
        .collect();
    SineTerrain { base_altitude_m: 180.0, components }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plane_terrain_gradient_and_slope() {
        let t = PlaneTerrain { base_altitude_m: 0.0, slope: Vec2::new(0.05, 0.0) };
        assert_eq!(t.altitude(Vec2::new(100.0, 0.0)), 5.0);
        // Slope along +x is atan(0.05).
        let th = t.slope_along(Vec2::ZERO, Vec2::new(1.0, 0.0));
        assert!((th - 0.05f64.atan()).abs() < 1e-12);
        // Slope along y (perpendicular) is zero.
        assert_eq!(t.slope_along(Vec2::ZERO, Vec2::new(0.0, 1.0)), 0.0);
        // Downhill direction is negative.
        assert!(t.slope_along(Vec2::ZERO, Vec2::new(-1.0, 0.0)) < 0.0);
    }

    #[test]
    fn sine_terrain_analytic_gradient_matches_numeric() {
        let t = hilly_terrain(42);
        for &(x, y) in &[(0.0, 0.0), (312.0, -881.0), (5000.0, 7000.0)] {
            let p = Vec2::new(x, y);
            let analytic = t.gradient(p);
            // Default-trait numeric gradient.
            let h = 0.5;
            let numeric = Vec2::new(
                (t.altitude(p + Vec2::new(h, 0.0)) - t.altitude(p - Vec2::new(h, 0.0))) / (2.0 * h),
                (t.altitude(p + Vec2::new(0.0, h)) - t.altitude(p - Vec2::new(0.0, h))) / (2.0 * h),
            );
            assert!((analytic - numeric).norm() < 1e-6, "at {p:?}");
        }
    }

    /// Upper bound on `|∇z|` anywhere: `Σ A_i · |k_i|`.
    fn max_slope(t: &SineTerrain) -> f64 {
        t.components.iter().map(|c| c.amplitude_m.abs() * c.wave_vector.norm()).sum()
    }

    #[test]
    fn hilly_terrain_slope_budget() {
        let t = hilly_terrain(7);
        assert!((max_slope(&t) - 0.095).abs() < 1e-9);
        // Sample a grid and confirm the bound holds empirically.
        for i in -10..10 {
            for j in -10..10 {
                let p = Vec2::new(i as f64 * 487.0, j as f64 * 533.0);
                assert!(t.gradient(p).norm() <= max_slope(&t) + 1e-9);
            }
        }
    }

    #[test]
    fn hilly_terrain_deterministic_in_seed() {
        let a = hilly_terrain(3);
        let b = hilly_terrain(3);
        let c = hilly_terrain(4);
        let p = Vec2::new(100.0, 200.0);
        assert_eq!(a.altitude(p), b.altitude(p));
        assert_ne!(a.altitude(p), c.altitude(p));
    }

    #[test]
    fn hilly_terrain_varies_in_space() {
        let t = hilly_terrain(1);
        let z0 = t.altitude(Vec2::ZERO);
        let z1 = t.altitude(Vec2::new(1500.0, 0.0));
        assert!((z0 - z1).abs() > 0.1, "terrain should undulate: {z0} vs {z1}");
    }
}
