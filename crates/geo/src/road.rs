//! Roads: centerline geometry + altitude profile + lanes + class.
//!
//! A [`Road`] is the unit the estimation system ultimately annotates with a
//! gradient profile. Geometry lives in the local planar frame (metres);
//! altitude is carried per centerline vertex and interpolated by arc
//! length.

use crate::polyline::{Polyline, PolylineError};
use crate::terrain::Terrain;
use gradest_math::angle::deg_to_rad;
use gradest_math::interp::interp1;
use gradest_math::Vec2;
use serde::{Deserialize, Serialize};

/// Functional class of a road, used for speed limits and traffic volumes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum RoadClass {
    /// Grade-separated high-speed road.
    Highway,
    /// Major through road.
    Arterial,
    /// Feeder road between arterials and locals.
    Collector,
    /// Neighbourhood street.
    Local,
}

impl RoadClass {
    /// Typical speed limit for the class, m/s.
    pub fn default_speed_limit(self) -> f64 {
        match self {
            RoadClass::Highway => 29.0,   // ~65 mph
            RoadClass::Arterial => 15.6,  // ~35 mph
            RoadClass::Collector => 11.2, // ~25 mph
            RoadClass::Local => 8.9,      // ~20 mph
        }
    }

    /// Typical lane count per direction for the class.
    pub fn default_lanes(self) -> u32 {
        match self {
            RoadClass::Highway => 2,
            RoadClass::Arterial => 2,
            RoadClass::Collector => 1,
            RoadClass::Local => 1,
        }
    }
}

/// A step in the lane-count profile: `lanes` from `start_s` (metres from
/// road start) until the next section.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
struct LaneSection {
    /// Arc length where this section begins.
    start_s: f64,
    /// Lane count in the travel direction.
    lanes: u32,
}

/// Errors constructing a [`Road`].
#[derive(Debug, Clone, PartialEq)]
pub enum RoadError {
    /// The centerline polyline was invalid.
    Geometry(PolylineError),
    /// `altitudes.len()` does not match the number of centerline vertices.
    AltitudeLength {
        /// Number of vertices.
        points: usize,
        /// Number of altitude samples supplied.
        altitudes: usize,
    },
    /// Lane sections must be non-empty, sorted, start at 0, and have ≥1
    /// lane.
    InvalidLaneSections,
}

impl std::fmt::Display for RoadError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RoadError::Geometry(e) => write!(f, "invalid centerline: {e}"),
            RoadError::AltitudeLength { points, altitudes } => {
                write!(f, "altitude profile length {altitudes} does not match {points} vertices")
            }
            RoadError::InvalidLaneSections => write!(f, "invalid lane sections"),
        }
    }
}

impl std::error::Error for RoadError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            RoadError::Geometry(e) => Some(e),
            _ => None,
        }
    }
}

impl From<PolylineError> for RoadError {
    fn from(e: PolylineError) -> Self {
        RoadError::Geometry(e)
    }
}

/// A road: planar centerline, per-vertex altitude, lane profile, and class.
///
/// Gradient convention: `gradient_at` returns the slope **angle** θ in
/// radians, `atan(dz/ds)` with `s` the horizontal arc length — positive
/// uphill in the travel direction, matching the paper's Section III-D
/// reference (`arcsin(Δz/d)` agrees to < 0.5 % below 6°).
///
/// # Example
///
/// ```
/// use gradest_geo::generate::straight_road;
/// let road = straight_road(1000.0, 3.0); // 1 km at +3°
/// assert!((road.gradient_at(500.0).to_degrees() - 3.0).abs() < 0.05);
/// assert!((road.altitude_at(1000.0) - road.altitude_at(0.0)
///     - 1000.0 * 3.0f64.to_radians().tan()).abs() < 0.5);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Road {
    id: u64,
    name: String,
    line: Polyline,
    altitudes: Vec<f64>,
    lane_sections: Vec<LaneSection>,
    speed_limit_mps: f64,
    class: RoadClass,
}

impl Road {
    /// Creates a road from explicit geometry and altitude profile.
    ///
    /// # Errors
    ///
    /// Returns [`RoadError`] if the centerline is invalid, the altitude
    /// profile length mismatches, or lane sections are malformed.
    fn new(
        id: u64,
        name: impl Into<String>,
        centerline: Vec<Vec2>,
        altitudes: Vec<f64>,
        lane_sections: Vec<LaneSection>,
        speed_limit_mps: f64,
        class: RoadClass,
    ) -> Result<Self, RoadError> {
        let line = Polyline::new(centerline)?;
        if altitudes.len() != line.points().len() {
            return Err(RoadError::AltitudeLength {
                points: line.points().len(),
                altitudes: altitudes.len(),
            });
        }
        if lane_sections.is_empty()
            || lane_sections[0].start_s != 0.0
            || lane_sections.iter().any(|l| l.lanes == 0)
            || lane_sections.windows(2).any(|w| w[1].start_s <= w[0].start_s)
        {
            return Err(RoadError::InvalidLaneSections);
        }
        Ok(Road { id, name: name.into(), line, altitudes, lane_sections, speed_limit_mps, class })
    }

    /// Creates a road by draping a centerline over a terrain model,
    /// resampling at `ds` metres.
    ///
    /// # Errors
    ///
    /// Returns [`RoadError`] if the geometry is invalid.
    ///
    /// # Panics
    ///
    /// Panics if `ds <= 0`.
    pub fn over_terrain(
        id: u64,
        name: impl Into<String>,
        centerline: &Polyline,
        terrain: &impl Terrain,
        ds: f64,
        lanes: u32,
        class: RoadClass,
    ) -> Result<Self, RoadError> {
        let pts = centerline.resample(ds);
        let alts = pts.iter().map(|&p| terrain.altitude(p)).collect();
        Road::new(
            id,
            name,
            pts,
            alts,
            vec![LaneSection { start_s: 0.0, lanes: lanes.max(1) }],
            class.default_speed_limit(),
            class,
        )
    }

    /// Stable identifier.
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Human-readable name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Centerline polyline.
    pub fn centerline(&self) -> &Polyline {
        &self.line
    }

    /// Road functional class.
    pub fn class(&self) -> RoadClass {
        self.class
    }

    /// Speed limit in m/s.
    pub fn speed_limit(&self) -> f64 {
        self.speed_limit_mps
    }

    /// Total arc length in metres.
    pub fn length(&self) -> f64 {
        self.line.length()
    }

    /// Planar position at arc length `s`.
    pub fn point_at(&self, s: f64) -> Vec2 {
        self.line.point_at(s)
    }

    /// Heading at arc length `s` (radians CCW from East).
    pub fn heading_at(&self, s: f64) -> f64 {
        self.line.heading_at(s)
    }

    /// Heading change per metre at `s` (see
    /// [`Polyline::heading_rate_at`]).
    pub fn heading_rate_at(&self, s: f64, window: f64) -> f64 {
        self.line.heading_rate_at(s, window)
    }

    /// Altitude at arc length `s` (linear interpolation between vertices).
    // `interp1`, not a kept table: its NaN error is this method's panic.
    pub fn altitude_at(&self, s: f64) -> f64 {
        interp1(self.line.cumulative_lengths(), &self.altitudes, s)
            .expect("profile validated at construction")
    }

    /// Road gradient angle θ (radians) at arc length `s`, positive uphill.
    ///
    /// Computed as `atan(Δz/Δs)` over a ±2 m window (clamped at the
    /// ends).
    pub fn gradient_at(&self, s: f64) -> f64 {
        let h = 2.0;
        let s0 = (s - h).max(0.0);
        let s1 = (s + h).min(self.length());
        if s1 - s0 < 1e-9 {
            return 0.0;
        }
        ((self.altitude_at(s1) - self.altitude_at(s0)) / (s1 - s0)).atan()
    }

    /// Lane count at arc length `s`.
    pub fn lanes_at(&self, s: f64) -> u32 {
        let mut lanes = self.lane_sections[0].lanes;
        for sec in &self.lane_sections {
            if sec.start_s <= s {
                lanes = sec.lanes;
            } else {
                break;
            }
        }
        lanes
    }

    /// Returns the same road traversed in the opposite direction: geometry
    /// and altitude reversed, lane sections mirrored.
    pub fn reversed(&self) -> Road {
        let len = self.length();
        let mut pts: Vec<Vec2> = self.line.points().to_vec();
        pts.reverse();
        let mut alts = self.altitudes.clone();
        alts.reverse();
        // Mirror the lane step function: each section [a, b) with `lanes`
        // becomes [len - b, len - a).
        let mut rev_sections = Vec::with_capacity(self.lane_sections.len());
        for (i, sec) in self.lane_sections.iter().enumerate().rev() {
            let end = self.lane_sections.get(i + 1).map_or(len, |next| next.start_s);
            rev_sections.push(LaneSection { start_s: (len - end).max(0.0), lanes: sec.lanes });
        }
        rev_sections[0].start_s = 0.0;
        Road::new(
            self.id,
            format!("{} (rev)", self.name),
            pts,
            alts,
            rev_sections,
            self.speed_limit_mps,
            self.class,
        )
        // lint:allow(transitive-panic) reversal preserves every Road::new invariant (point/altitude counts, section monotonicity), so this expect is unreachable; a Result return would force every route-stitching caller to handle an impossible error
        .expect("reversal of a valid road is valid")
    }
}

/// Specification of one road section for [`build_from_sections`]: a length,
/// a signed gradient, a lane count, and an optional constant curvature.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SectionSpec {
    /// Section length in metres.
    pub length_m: f64,
    /// Signed gradient in degrees (positive uphill).
    pub gradient_deg: f64,
    /// Lane count in the travel direction.
    pub lanes: u32,
    /// Constant curvature in 1/m (positive = bends left); 0 = straight.
    pub curvature: f64,
}

/// Builds a road from consecutive [`SectionSpec`]s, starting at `origin`
/// with initial `heading` (radians CCW from East). Vertices are placed
/// every `ds` metres; gradients transition linearly across one `ds` step.
///
/// # Errors
///
/// Returns [`RoadError`] if the resulting geometry is invalid (e.g. empty
/// sections).
///
/// # Panics
///
/// Panics if `ds <= 0`.
#[allow(clippy::too_many_arguments)]
pub fn build_from_sections(
    id: u64,
    name: impl Into<String>,
    origin: Vec2,
    heading: f64,
    sections: &[SectionSpec],
    ds: f64,
    base_altitude: f64,
    speed_limit_mps: f64,
    class: RoadClass,
) -> Result<Road, RoadError> {
    assert!(ds > 0.0, "vertex spacing must be positive");
    if sections.is_empty() {
        return Err(RoadError::Geometry(PolylineError::TooFewPoints));
    }
    let mut pts = vec![origin];
    let mut alts = vec![base_altitude];
    let mut lane_sections: Vec<LaneSection> = Vec::new();
    let mut pos = origin;
    let mut psi = heading;
    let mut z = base_altitude;
    let mut s_total = 0.0;
    for sec in sections {
        if lane_sections.last().map(|l| l.lanes) != Some(sec.lanes) {
            lane_sections.push(LaneSection { start_s: s_total, lanes: sec.lanes });
        }
        let slope = deg_to_rad(sec.gradient_deg).tan();
        let steps = (sec.length_m / ds).ceil().max(1.0) as usize;
        let step = sec.length_m / steps as f64;
        for _ in 0..steps {
            psi += sec.curvature * step;
            pos += Vec2::from_angle(psi) * step;
            z += slope * step;
            s_total += step;
            pts.push(pos);
            alts.push(z);
        }
    }
    if lane_sections.first().map(|l| l.start_s) != Some(0.0) {
        return Err(RoadError::InvalidLaneSections);
    }
    Road::new(id, name, pts, alts, lane_sections, speed_limit_mps, class)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn flat_two_lane(length: f64) -> Road {
        build_from_sections(
            1,
            "test",
            Vec2::ZERO,
            0.0,
            &[SectionSpec { length_m: length, gradient_deg: 0.0, lanes: 2, curvature: 0.0 }],
            10.0,
            100.0,
            13.0,
            RoadClass::Collector,
        )
        .unwrap()
    }

    #[test]
    fn build_straight_flat() {
        let r = flat_two_lane(500.0);
        assert!((r.length() - 500.0).abs() < 1e-6);
        assert_eq!(r.lanes_at(250.0), 2);
        assert!((r.altitude_at(400.0) - 100.0).abs() < 1e-9);
        assert_eq!(r.gradient_at(250.0), 0.0);
        assert_eq!(r.heading_at(250.0), 0.0);
    }

    #[test]
    fn build_constant_gradient() {
        let spec = SectionSpec { length_m: 1000.0, gradient_deg: 4.0, lanes: 1, curvature: 0.0 };
        let r = build_from_sections(
            2,
            "hill",
            Vec2::ZERO,
            0.0,
            &[spec],
            5.0,
            0.0,
            13.0,
            RoadClass::Local,
        )
        .unwrap();
        let th = r.gradient_at(500.0);
        assert!((th.to_degrees() - 4.0).abs() < 0.05, "θ = {}°", th.to_degrees());
        // Altitude gain = length · tan(4°).
        let gain = r.altitude_at(r.length()) - r.altitude_at(0.0);
        assert!((gain - 1000.0 * deg_to_rad(4.0).tan()).abs() < 1e-6);
    }

    #[test]
    fn build_multi_section_lane_profile() {
        let secs = [
            SectionSpec { length_m: 300.0, gradient_deg: 2.0, lanes: 1, curvature: 0.0 },
            SectionSpec { length_m: 300.0, gradient_deg: -2.0, lanes: 2, curvature: 0.0 },
            SectionSpec { length_m: 300.0, gradient_deg: 1.0, lanes: 1, curvature: 0.0 },
        ];
        let r = build_from_sections(
            3,
            "multi",
            Vec2::ZERO,
            0.0,
            &secs,
            10.0,
            50.0,
            13.0,
            RoadClass::Arterial,
        )
        .unwrap();
        assert_eq!(r.lanes_at(150.0), 1);
        assert_eq!(r.lanes_at(450.0), 2);
        assert_eq!(r.lanes_at(750.0), 1);
        assert!(r.gradient_at(150.0) > 0.0);
        assert!(r.gradient_at(450.0) < 0.0);
        assert!(r.gradient_at(750.0) > 0.0);
        assert_eq!(r.lane_sections.len(), 3);
    }

    #[test]
    fn curved_section_changes_heading() {
        // Quarter circle of radius 100 m: length = π/2·100, curvature 0.01.
        let len = std::f64::consts::FRAC_PI_2 * 100.0;
        let spec = SectionSpec { length_m: len, gradient_deg: 0.0, lanes: 1, curvature: 0.01 };
        let r = build_from_sections(
            4,
            "curve",
            Vec2::ZERO,
            0.0,
            &[spec],
            2.0,
            0.0,
            13.0,
            RoadClass::Local,
        )
        .unwrap();
        let final_heading = r.heading_at(r.length() - 1.0);
        assert!(
            (final_heading - std::f64::consts::FRAC_PI_2).abs() < 0.05,
            "heading {final_heading}"
        );
        let rate = r.heading_rate_at(len / 2.0, 10.0);
        assert!((rate - 0.01).abs() < 1e-3, "rate {rate}");
    }

    #[test]
    fn reversed_road_mirrors_everything() {
        let secs = [
            SectionSpec { length_m: 400.0, gradient_deg: 3.0, lanes: 1, curvature: 0.0 },
            SectionSpec { length_m: 600.0, gradient_deg: -1.0, lanes: 2, curvature: 0.0 },
        ];
        let r = build_from_sections(
            5,
            "fwd",
            Vec2::ZERO,
            0.0,
            &secs,
            10.0,
            0.0,
            13.0,
            RoadClass::Local,
        )
        .unwrap();
        let rev = r.reversed();
        assert!((rev.length() - r.length()).abs() < 1e-9);
        // Gradient at s (reversed) = -gradient at L - s (forward).
        for s in [100.0, 500.0, 900.0] {
            let fwd = r.gradient_at(r.length() - s);
            let back = rev.gradient_at(s);
            assert!((fwd + back).abs() < 1e-3, "s={s}: {fwd} vs {back}");
        }
        // Lane counts mirror: forward [0,400)=1, [400,1000)=2.
        assert_eq!(rev.lanes_at(100.0), 2);
        assert_eq!(rev.lanes_at(800.0), 1);
        // Altitude endpoints swap.
        assert!((rev.altitude_at(0.0) - r.altitude_at(r.length())).abs() < 1e-9);
    }

    #[test]
    fn over_terrain_matches_terrain_altitude() {
        use crate::terrain::{PlaneTerrain, Terrain};
        let t = PlaneTerrain { base_altitude_m: 10.0, slope: Vec2::new(0.02, 0.0) };
        let line = Polyline::new(vec![Vec2::ZERO, Vec2::new(1000.0, 0.0)]).unwrap();
        let r = Road::over_terrain(6, "draped", &line, &t, 10.0, 1, RoadClass::Local).unwrap();
        for s in [0.0, 333.0, 777.0, 1000.0] {
            let expect = t.altitude(r.point_at(s));
            assert!((r.altitude_at(s) - expect).abs() < 1e-6, "s={s}");
        }
        // Gradient along +x is atan(0.02).
        assert!((r.gradient_at(500.0) - 0.02f64.atan()).abs() < 1e-6);
    }

    #[test]
    fn construction_validation() {
        // Altitude length mismatch.
        let e = Road::new(
            1,
            "bad",
            vec![Vec2::ZERO, Vec2::new(1.0, 0.0)],
            vec![0.0],
            vec![LaneSection { start_s: 0.0, lanes: 1 }],
            10.0,
            RoadClass::Local,
        )
        .unwrap_err();
        assert!(matches!(e, RoadError::AltitudeLength { .. }));
        // Lane sections must start at zero.
        let e = Road::new(
            1,
            "bad",
            vec![Vec2::ZERO, Vec2::new(1.0, 0.0)],
            vec![0.0, 0.0],
            vec![LaneSection { start_s: 5.0, lanes: 1 }],
            10.0,
            RoadClass::Local,
        )
        .unwrap_err();
        assert_eq!(e, RoadError::InvalidLaneSections);
        // Zero lanes rejected.
        let e = Road::new(
            1,
            "bad",
            vec![Vec2::ZERO, Vec2::new(1.0, 0.0)],
            vec![0.0, 0.0],
            vec![LaneSection { start_s: 0.0, lanes: 0 }],
            10.0,
            RoadClass::Local,
        )
        .unwrap_err();
        assert_eq!(e, RoadError::InvalidLaneSections);
    }

    #[test]
    fn class_defaults_are_ordered() {
        assert!(RoadClass::Highway.default_speed_limit() > RoadClass::Local.default_speed_limit());
        assert!(RoadClass::Highway.default_lanes() >= RoadClass::Local.default_lanes());
    }
}
