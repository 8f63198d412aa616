//! Raster digital-elevation-model (DEM) terrain.
//!
//! Real deployments drape roads over published elevation rasters (USGS
//! 1/3-arc-second DEMs and the like). [`DemTerrain`] is that workflow's
//! terrain type: a regular grid of elevations with bilinear interpolation,
//! implementing the same [`Terrain`] trait as the
//! analytic models so the two are interchangeable everywhere. Grids are
//! built by sampling a terrain ([`DemTerrain::sample_from`]).

use crate::terrain::Terrain;
use gradest_math::Vec2;
use serde::{Deserialize, Serialize};

/// A regular elevation grid with bilinear interpolation.
///
/// # Example
///
/// ```
/// use gradest_geo::dem::DemTerrain;
/// use gradest_geo::terrain::{hilly_terrain, Terrain};
/// use gradest_math::Vec2;
///
/// // A 40×40 grid of 25 m cells over procedural hills.
/// let hills = hilly_terrain(5);
/// let dem = DemTerrain::sample_from(&hills, Vec2::ZERO, 25.0, 40, 40);
/// let p = Vec2::new(500.0, 500.0);
/// assert!((dem.altitude(p) - hills.altitude(p)).abs() < 0.3);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DemTerrain {
    origin: Vec2,
    cell_m: f64,
    cols: usize,
    rows: usize,
    /// Row-major, row 0 = southernmost (lowest y).
    data: Vec<f64>,
}

impl DemTerrain {
    /// Samples any [`Terrain`] onto a DEM grid — e.g. to test raster
    /// fidelity against an analytic model, or to "bake" procedural
    /// terrain into the raster workflow.
    ///
    /// # Panics
    ///
    /// Panics if `rows`/`cols` < 2 or `cell_m <= 0`.
    pub fn sample_from(
        terrain: &impl Terrain,
        origin: Vec2,
        cell_m: f64,
        rows: usize,
        cols: usize,
    ) -> DemTerrain {
        assert!(rows >= 2 && cols >= 2, "grid must be at least 2x2");
        assert!(cell_m > 0.0, "cell size must be positive");
        let mut data = Vec::with_capacity(rows * cols);
        for r in 0..rows {
            for c in 0..cols {
                let p = origin + Vec2::new(c as f64 * cell_m, r as f64 * cell_m);
                data.push(terrain.altitude(p));
            }
        }
        DemTerrain { origin, cell_m, cols, rows, data }
    }

    fn at(&self, r: usize, c: usize) -> f64 {
        self.data[r * self.cols + c]
    }
}

impl Terrain for DemTerrain {
    fn altitude(&self, p: Vec2) -> f64 {
        // Clamp to the grid interior (constant extrapolation at edges).
        let fx = ((p.x - self.origin.x) / self.cell_m).clamp(0.0, (self.cols - 1) as f64 - 1e-9);
        let fy = ((p.y - self.origin.y) / self.cell_m).clamp(0.0, (self.rows - 1) as f64 - 1e-9);
        let c0 = fx.floor() as usize;
        let r0 = fy.floor() as usize;
        let tx = fx - c0 as f64;
        let ty = fy - r0 as f64;
        let z00 = self.at(r0, c0);
        let z01 = self.at(r0, c0 + 1);
        let z10 = self.at(r0 + 1, c0);
        let z11 = self.at(r0 + 1, c0 + 1);
        let z0 = z00 * (1.0 - tx) + z01 * tx;
        let z1 = z10 * (1.0 - tx) + z11 * tx;
        z0 * (1.0 - ty) + z1 * ty
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::terrain::{hilly_terrain, Terrain};

    /// A grid from elevation rows, south to north.
    fn from_rows(cell_m: f64, rows: &[&[f64]]) -> DemTerrain {
        let (cols, data) = (rows[0].len(), rows.concat());
        DemTerrain { origin: Vec2::ZERO, cell_m, cols, rows: rows.len(), data }
    }

    #[test]
    fn bilinear_interpolation_exact_on_planes() {
        // z = 0.1·x + 0.2·y is reproduced exactly by bilinear interp.
        let rows: Vec<Vec<f64>> = (0..4)
            .map(|r| (0..4).map(|c| 0.1 * (c as f64 * 10.0) + 0.2 * (r as f64 * 10.0)).collect())
            .collect();
        let refs: Vec<&[f64]> = rows.iter().map(|r| r.as_slice()).collect();
        let dem = from_rows(10.0, &refs);
        for &(x, y) in &[(5.0, 5.0), (12.3, 7.7), (29.0, 29.0), (0.0, 0.0)] {
            let expect = 0.1 * x + 0.2 * y;
            assert!((dem.altitude(Vec2::new(x, y)) - expect).abs() < 1e-9, "at ({x},{y})");
        }
    }

    #[test]
    fn edges_clamp_instead_of_panicking() {
        let dem = from_rows(10.0, &[&[1.0, 2.0], &[3.0, 4.0]]);
        // Far outside the grid: clamped to the nearest cell values.
        assert!((dem.altitude(Vec2::new(-100.0, -100.0)) - 1.0).abs() < 1e-9);
        let far = dem.altitude(Vec2::new(1e6, 1e6));
        assert!((far - 4.0).abs() < 1e-6);
    }

    #[test]
    fn sampled_dem_approximates_analytic_terrain() {
        let analytic = hilly_terrain(5);
        let dem = DemTerrain::sample_from(&analytic, Vec2::ZERO, 25.0, 80, 80);
        // Mid-grid agreement to well under a metre (terrain wavelengths
        // are ≥ 600 m, cells are 25 m).
        for &(x, y) in &[(500.0, 500.0), (1234.0, 777.0), (1500.0, 1500.0)] {
            let p = Vec2::new(x, y);
            let err = (dem.altitude(p) - analytic.altitude(p)).abs();
            assert!(err < 0.3, "DEM error {err} at ({x},{y})");
        }
        // Gradients agree too (the quantity the whole system cares about).
        let p = Vec2::new(900.0, 900.0);
        let g_err = (dem.gradient(p) - analytic.gradient(p)).norm();
        assert!(g_err < 0.01, "gradient error {g_err}");
    }

    #[test]
    fn roads_can_be_draped_over_a_dem() {
        use crate::road::{Road, RoadClass};
        use crate::Polyline;
        let analytic = hilly_terrain(6);
        let dem = DemTerrain::sample_from(&analytic, Vec2::ZERO, 20.0, 120, 120);
        let line = Polyline::new(vec![Vec2::new(100.0, 100.0), Vec2::new(2000.0, 1800.0)]).unwrap();
        let via_dem = Road::over_terrain(1, "dem", &line, &dem, 10.0, 1, RoadClass::Local).unwrap();
        let via_analytic =
            Road::over_terrain(2, "ana", &line, &analytic, 10.0, 1, RoadClass::Local).unwrap();
        for s in [200.0, 900.0, 1700.0] {
            let d = (via_dem.gradient_at(s) - via_analytic.gradient_at(s)).abs();
            assert!(d.to_degrees() < 0.25, "gradient diff {}°", d.to_degrees());
        }
    }
}
