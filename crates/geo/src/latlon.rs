//! WGS-84 positions, great-circle helpers, and a local planar projection.
//!
//! GPS reports latitude/longitude; the estimation pipeline works in a local
//! metric frame. [`LocalFrame`] provides the (sub-centimetre at city scale)
//! equirectangular round trip between the two.

use gradest_math::angle::{deg_to_rad, rad_to_deg};
use gradest_math::Vec2;
use serde::{Deserialize, Serialize};

/// Mean Earth radius in metres (IUGG).
const EARTH_RADIUS_M: f64 = 6_371_008.8;

/// A WGS-84 latitude/longitude pair in degrees.
///
/// # Example
///
/// ```
/// use gradest_geo::LatLon;
/// let charlottesville = LatLon::new(38.0293, -78.4767);
/// let richmond = LatLon::new(37.5407, -77.4360);
/// let d = charlottesville.haversine_distance(richmond);
/// assert!((d / 1000.0 - 105.0).abs() < 5.0); // ~105 km
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LatLon {
    /// Latitude in degrees, positive north.
    pub lat_deg: f64,
    /// Longitude in degrees, positive east.
    pub lon_deg: f64,
}

impl LatLon {
    /// Creates a position from degrees.
    ///
    /// # Panics
    ///
    /// Panics if latitude is outside `[-90, 90]` or either coordinate is
    /// not finite.
    pub fn new(lat_deg: f64, lon_deg: f64) -> Self {
        assert!(
            lat_deg.is_finite() && lon_deg.is_finite() && (-90.0..=90.0).contains(&lat_deg),
            "invalid latitude/longitude: ({lat_deg}, {lon_deg})"
        );
        LatLon { lat_deg, lon_deg }
    }

    /// Great-circle (haversine) distance to `other` in metres.
    pub fn haversine_distance(self, other: LatLon) -> f64 {
        let phi1 = deg_to_rad(self.lat_deg);
        let phi2 = deg_to_rad(other.lat_deg);
        let dphi = phi2 - phi1;
        let dlambda = deg_to_rad(other.lon_deg - self.lon_deg);
        let a =
            (dphi / 2.0).sin().powi(2) + phi1.cos() * phi2.cos() * (dlambda / 2.0).sin().powi(2);
        2.0 * EARTH_RADIUS_M * a.sqrt().asin()
    }
}

/// A local tangent-plane frame anchored at a reference position.
///
/// Positions are projected with the equirectangular approximation, accurate
/// to well under a metre across a city-sized (tens of km) extent — far
/// below GPS noise. `x` points East, `y` points North.
///
/// # Example
///
/// ```
/// use gradest_geo::latlon::{LatLon, LocalFrame};
/// let frame = LocalFrame::new(LatLon::new(38.03, -78.48));
/// let p = frame.to_local(LatLon::new(38.04, -78.48));
/// assert!(p.x.abs() < 1e-6);          // due north => no east displacement
/// assert!((p.y - 1111.9).abs() < 2.0); // ~1.112 km per 0.01° latitude
/// let back = frame.to_latlon(p);
/// assert!((back.lat_deg - 38.04).abs() < 1e-9);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LocalFrame {
    origin: LatLon,
    cos_lat: f64,
}

impl LocalFrame {
    /// Creates a frame anchored at `origin`.
    pub fn new(origin: LatLon) -> Self {
        LocalFrame { origin, cos_lat: deg_to_rad(origin.lat_deg).cos() }
    }

    /// Projects a position into local metres (x East, y North).
    pub fn to_local(&self, p: LatLon) -> Vec2 {
        let dlat = deg_to_rad(p.lat_deg - self.origin.lat_deg);
        let dlon = deg_to_rad(p.lon_deg - self.origin.lon_deg);
        Vec2::new(EARTH_RADIUS_M * dlon * self.cos_lat, EARTH_RADIUS_M * dlat)
    }

    /// Unprojects local metres back to latitude/longitude.
    pub fn to_latlon(&self, p: Vec2) -> LatLon {
        let dlat = p.y / EARTH_RADIUS_M;
        let dlon = p.x / (EARTH_RADIUS_M * self.cos_lat);
        LatLon::new(self.origin.lat_deg + rad_to_deg(dlat), self.origin.lon_deg + rad_to_deg(dlon))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn haversine_zero_for_same_point() {
        let p = LatLon::new(38.0, -78.0);
        assert_eq!(p.haversine_distance(p), 0.0);
    }

    #[test]
    fn haversine_symmetry() {
        let a = LatLon::new(38.0, -78.0);
        let b = LatLon::new(38.1, -78.2);
        assert!((a.haversine_distance(b) - b.haversine_distance(a)).abs() < 1e-9);
    }

    #[test]
    fn haversine_one_degree_latitude() {
        let a = LatLon::new(0.0, 0.0);
        let b = LatLon::new(1.0, 0.0);
        let d = a.haversine_distance(b);
        assert!((d - 111_195.0).abs() < 100.0, "got {d}");
    }

    #[test]
    fn local_frame_round_trip() {
        let frame = LocalFrame::new(LatLon::new(38.0293, -78.4767));
        for (dx, dy) in [(0.0, 0.0), (1000.0, -2000.0), (-500.0, 750.0), (20_000.0, 15_000.0)] {
            let p = Vec2::new(dx, dy);
            let ll = frame.to_latlon(p);
            let back = frame.to_local(ll);
            assert!((back - p).norm() < 1e-6, "round trip failed for {p:?}");
        }
    }

    #[test]
    fn local_frame_distance_matches_haversine() {
        let frame = LocalFrame::new(LatLon::new(38.0293, -78.4767));
        let a = frame.to_latlon(Vec2::new(0.0, 0.0));
        let b = frame.to_latlon(Vec2::new(3000.0, 4000.0));
        let planar = 5000.0;
        let sphere = a.haversine_distance(b);
        // Equirectangular error at 5 km scale should be < 5 m.
        assert!((sphere - planar).abs() < 5.0, "sphere {sphere}");
    }

    #[test]
    #[should_panic(expected = "invalid latitude")]
    fn invalid_latitude_panics() {
        let _ = LatLon::new(120.0, 0.0);
    }
}
