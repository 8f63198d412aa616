//! Routes: drivable concatenations of roads.
//!
//! A [`Route`] maps trip arc length (metres from departure) onto road
//! geometry, altitude, gradient, and lane count — everything the vehicle
//! simulator and the ground-truth profiler need.

use crate::road::Road;
use gradest_math::Vec2;
use serde::{Deserialize, Serialize};

/// Error building a route.
#[derive(Debug, Clone, PartialEq)]
pub enum RouteError {
    /// No roads were supplied.
    Empty,
    /// Consecutive roads do not share an endpoint (gap in metres).
    Discontinuity {
        /// Index of the first road of the mismatched pair.
        index: usize,
        /// Gap size in metres.
        gap_m: f64,
    },
}

impl std::fmt::Display for RouteError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RouteError::Empty => write!(f, "route needs at least one road"),
            RouteError::Discontinuity { index, gap_m } => {
                write!(f, "roads {index} and {} do not connect (gap {gap_m:.2} m)", index + 1)
            }
        }
    }
}

impl std::error::Error for RouteError {}

/// A connected sequence of roads, addressed by trip arc length.
///
/// # Example
///
/// ```
/// use gradest_geo::generate::red_road;
/// use gradest_geo::Route;
///
/// let route = Route::new(vec![red_road()])?;
/// assert!((route.length() - 2160.0).abs() < 1.0);
/// let (road_idx, s_on_road) = route.locate(1000.0);
/// assert_eq!(road_idx, 0);
/// assert!((s_on_road - 1000.0).abs() < 1e-9);
/// # Ok::<(), gradest_geo::route::RouteError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Route {
    roads: Vec<Road>,
    /// Trip arc length at the start of each road; one extra entry with the
    /// total length.
    offsets: Vec<f64>,
}

/// Maximum endpoint gap tolerated between consecutive roads, metres.
const CONNECT_TOL_M: f64 = 0.5;

impl Route {
    /// Builds a route from roads that connect end-to-start.
    ///
    /// # Errors
    ///
    /// Returns [`RouteError::Empty`] for no roads and
    /// [`RouteError::Discontinuity`] when consecutive roads do not share an
    /// endpoint within 0.5 m.
    pub fn new(roads: Vec<Road>) -> Result<Self, RouteError> {
        if roads.is_empty() {
            return Err(RouteError::Empty);
        }
        for (i, pair) in roads.windows(2).enumerate() {
            let end = pair[0].point_at(pair[0].length());
            let start = pair[1].point_at(0.0);
            let gap = (end - start).norm();
            if gap > CONNECT_TOL_M {
                return Err(RouteError::Discontinuity { index: i, gap_m: gap });
            }
        }
        let mut offsets = Vec::with_capacity(roads.len() + 1);
        let mut acc = 0.0;
        for r in &roads {
            offsets.push(acc);
            acc += r.length();
        }
        offsets.push(acc);
        Ok(Route { roads, offsets })
    }

    /// The constituent roads, in travel order.
    pub fn roads(&self) -> &[Road] {
        &self.roads
    }

    /// Trip arc length at the start of each road, plus one trailing
    /// entry with the total length (`offsets().len() == roads().len() + 1`).
    ///
    /// Exposed so callers that already walk the road sequence (the
    /// exact-projection map matcher) can resolve road spans without a
    /// [`Route::locate`] binary search per query.
    pub fn offsets(&self) -> &[f64] {
        &self.offsets
    }

    /// Total trip length in metres.
    pub fn length(&self) -> f64 {
        // offsets always holds roads+1 entries; 0.0 for the impossible
        // empty case keeps this panic-free on the matcher hot path.
        self.offsets.last().copied().unwrap_or(0.0)
    }

    /// Maps trip arc length to `(road index, arc length on that road)`.
    /// Input is clamped to `[0, length]`.
    pub fn locate(&self, s: f64) -> (usize, f64) {
        let s = s.clamp(0.0, self.length());
        // offsets = [0, l0, l0+l1, ..., total]; find the road whose span
        // contains s.
        let idx = match self.offsets.binary_search_by(|v| v.total_cmp(&s)) {
            Ok(i) => i.min(self.roads.len() - 1),
            Err(i) => i - 1,
        };
        (idx, s - self.offsets[idx])
    }

    /// Planar position at trip arc length `s`.
    pub fn point_at(&self, s: f64) -> Vec2 {
        let (i, sr) = self.locate(s);
        self.roads[i].point_at(sr)
    }

    /// Heading at trip arc length `s` (radians CCW from East).
    pub fn heading_at(&self, s: f64) -> f64 {
        let (i, sr) = self.locate(s);
        self.roads[i].heading_at(sr)
    }

    /// Heading change per metre at `s`, over a `window`-metre baseline.
    pub fn heading_rate_at(&self, s: f64, window: f64) -> f64 {
        let (i, sr) = self.locate(s);
        self.roads[i].heading_rate_at(sr, window)
    }

    /// [`Route::heading_rate_at`] for a position already resolved to
    /// `(road index, arc length on that road)` — skips the offset
    /// binary search that `locate` would repeat. Out-of-range road
    /// indices yield 0 (straight).
    pub fn heading_rate_located(&self, road: usize, s_on_road: f64, window: f64) -> f64 {
        self.roads.get(road).map(|r| r.heading_rate_at(s_on_road, window)).unwrap_or(0.0)
    }

    /// Altitude at trip arc length `s`.
    pub fn altitude_at(&self, s: f64) -> f64 {
        let (i, sr) = self.locate(s);
        self.roads[i].altitude_at(sr)
    }

    /// Ground-truth road gradient angle θ (radians) at trip arc length `s`.
    pub fn gradient_at(&self, s: f64) -> f64 {
        let (i, sr) = self.locate(s);
        self.roads[i].gradient_at(sr)
    }

    /// Lane count at trip arc length `s`.
    pub fn lanes_at(&self, s: f64) -> u32 {
        let (i, sr) = self.locate(s);
        self.roads[i].lanes_at(sr)
    }

    /// Speed limit at trip arc length `s`, m/s.
    pub fn speed_limit_at(&self, s: f64) -> f64 {
        let (i, _) = self.locate(s);
        self.roads[i].speed_limit()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::road::{build_from_sections, RoadClass, SectionSpec};
    use gradest_math::Vec2;

    fn seg(id: u64, origin: Vec2, heading: f64, grade: f64, lanes: u32) -> Road {
        build_from_sections(
            id,
            format!("r{id}"),
            origin,
            heading,
            &[SectionSpec { length_m: 500.0, gradient_deg: grade, lanes, curvature: 0.0 }],
            10.0,
            100.0,
            13.0,
            RoadClass::Collector,
        )
        .unwrap()
    }

    #[test]
    fn two_road_route() {
        let a = seg(1, Vec2::ZERO, 0.0, 2.0, 1);
        let end = a.point_at(a.length());
        let b = seg(2, end, 0.0, -3.0, 2);
        let route = Route::new(vec![a, b]).unwrap();
        assert!((route.length() - 1000.0).abs() < 1e-6);
        assert_eq!(route.locate(250.0).0, 0);
        assert_eq!(route.locate(750.0).0, 1);
        assert!(route.gradient_at(250.0) > 0.0);
        assert!(route.gradient_at(750.0) < 0.0);
        assert_eq!(route.lanes_at(250.0), 1);
        assert_eq!(route.lanes_at(750.0), 2);
    }

    #[test]
    fn locate_clamps_and_handles_boundaries() {
        let a = seg(1, Vec2::ZERO, 0.0, 0.0, 1);
        let route = Route::new(vec![a]).unwrap();
        assert_eq!(route.locate(-5.0), (0, 0.0));
        let (i, s) = route.locate(1e9);
        assert_eq!(i, 0);
        assert!((s - 500.0).abs() < 1e-6);
        // Exactly at the boundary of the only road.
        let (i, s) = route.locate(500.0);
        assert_eq!(i, 0);
        assert!((s - 500.0).abs() < 1e-6);
    }

    #[test]
    fn boundary_between_roads_belongs_to_second() {
        let a = seg(1, Vec2::ZERO, 0.0, 1.0, 1);
        let end = a.point_at(a.length());
        let b = seg(2, end, 0.0, -1.0, 1);
        let route = Route::new(vec![a, b]).unwrap();
        let (i, s) = route.locate(500.0);
        assert_eq!(i, 1);
        assert!(s.abs() < 1e-6);
    }

    #[test]
    fn discontinuous_roads_rejected() {
        let a = seg(1, Vec2::ZERO, 0.0, 0.0, 1);
        let b = seg(2, Vec2::new(10_000.0, 0.0), 0.0, 0.0, 1);
        let err = Route::new(vec![a, b]).unwrap_err();
        assert!(matches!(err, RouteError::Discontinuity { index: 0, .. }));
        assert!(Route::new(vec![]).is_err());
    }

    #[test]
    fn altitude_is_continuous_across_roads() {
        let a = seg(1, Vec2::ZERO, 0.0, 2.0, 1);
        let end = a.point_at(a.length());
        let end_alt = a.altitude_at(a.length());
        // Build b starting from a's end altitude.
        let b = build_from_sections(
            2,
            "b",
            end,
            0.0,
            &[SectionSpec { length_m: 500.0, gradient_deg: -2.0, lanes: 1, curvature: 0.0 }],
            10.0,
            end_alt,
            13.0,
            RoadClass::Collector,
        )
        .unwrap();
        let route = Route::new(vec![a, b]).unwrap();
        let before = route.altitude_at(499.9);
        let after = route.altitude_at(500.1);
        assert!((before - after).abs() < 0.1);
    }
}
