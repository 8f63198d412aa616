//! Arc-length-parameterized planar polylines.
//!
//! Road centerlines are polylines in the local metric frame. All queries
//! are by arc length `s` (metres from the start), which is also how the
//! vehicle simulator tracks progress along a route.

use gradest_math::angle::wrap_pi;
use gradest_math::Vec2;
use serde::{Deserialize, Serialize};

/// A planar polyline with cached cumulative arc length.
///
/// # Example
///
/// ```
/// use gradest_geo::Polyline;
/// use gradest_math::Vec2;
///
/// let line = Polyline::new(vec![
///     Vec2::new(0.0, 0.0),
///     Vec2::new(100.0, 0.0),
///     Vec2::new(100.0, 50.0),
/// ]).unwrap();
/// assert_eq!(line.length(), 150.0);
/// let p = line.point_at(125.0);
/// assert!((p - Vec2::new(100.0, 25.0)).norm() < 1e-9);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Polyline {
    points: Vec<Vec2>,
    /// Cumulative arc length at each vertex; `cum[0] == 0`.
    cum: Vec<f64>,
}

/// Error building a polyline.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PolylineError {
    /// Fewer than two vertices were supplied.
    TooFewPoints,
    /// Two consecutive vertices coincide (zero-length segment).
    DegenerateSegment {
        /// Index of the first vertex of the degenerate segment.
        index: usize,
    },
    /// A vertex had a non-finite coordinate.
    NonFinitePoint {
        /// Index of the offending vertex.
        index: usize,
    },
}

impl std::fmt::Display for PolylineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PolylineError::TooFewPoints => write!(f, "polyline needs at least 2 points"),
            PolylineError::DegenerateSegment { index } => {
                write!(f, "zero-length segment at vertex {index}")
            }
            PolylineError::NonFinitePoint { index } => {
                write!(f, "non-finite coordinate at vertex {index}")
            }
        }
    }
}

impl std::error::Error for PolylineError {}

impl Polyline {
    /// Builds a polyline from vertices.
    ///
    /// # Errors
    ///
    /// Returns [`PolylineError`] for fewer than two points, coincident
    /// consecutive points, or non-finite coordinates.
    pub fn new(points: Vec<Vec2>) -> Result<Self, PolylineError> {
        if points.len() < 2 {
            return Err(PolylineError::TooFewPoints);
        }
        for (i, p) in points.iter().enumerate() {
            if !p.is_finite() {
                return Err(PolylineError::NonFinitePoint { index: i });
            }
        }
        let mut cum = Vec::with_capacity(points.len());
        cum.push(0.0);
        for (i, w) in points.windows(2).enumerate() {
            let d = (w[1] - w[0]).norm();
            if d <= 1e-9 {
                return Err(PolylineError::DegenerateSegment { index: i });
            }
            cum.push(cum[i] + d);
        }
        Ok(Polyline { points, cum })
    }

    /// Total arc length in metres.
    #[inline]
    pub fn length(&self) -> f64 {
        *self.cum.last().expect("polyline has >= 2 points")
    }

    /// The vertices.
    #[inline]
    pub fn points(&self) -> &[Vec2] {
        &self.points
    }

    /// Cumulative arc length at each vertex.
    #[inline]
    pub fn cumulative_lengths(&self) -> &[f64] {
        &self.cum
    }

    /// Index of the segment containing arc length `s` (clamped).
    fn segment_index(&self, s: f64) -> usize {
        if s <= 0.0 {
            return 0;
        }
        if s >= self.length() {
            return self.points.len() - 2;
        }
        match self.cum.binary_search_by(|v| v.total_cmp(&s)) {
            Ok(i) => i.min(self.points.len() - 2),
            Err(i) => i - 1,
        }
    }

    /// Position at arc length `s` (clamped to `[0, length]`).
    pub fn point_at(&self, s: f64) -> Vec2 {
        let i = self.segment_index(s);
        let seg_len = self.cum[i + 1] - self.cum[i];
        let t = ((s - self.cum[i]) / seg_len).clamp(0.0, 1.0);
        self.points[i].lerp(self.points[i + 1], t)
    }

    /// Heading (radians CCW from +x/East) of the segment at arc length `s`.
    pub fn heading_at(&self, s: f64) -> f64 {
        let i = self.segment_index(s);
        (self.points[i + 1] - self.points[i]).angle()
    }

    /// Signed curvature (1/m) at arc length `s`, estimated from the heading
    /// change between adjacent segments. Positive = turning left.
    ///
    /// Dividing the heading change at a vertex by the mean of the two
    /// adjacent segment lengths gives a consistent discrete estimate; the
    /// value is attributed to the whole following segment.
    fn curvature_at(&self, s: f64) -> f64 {
        let i = self.segment_index(s);
        if self.points.len() < 3 {
            return 0.0;
        }
        // Use the vertex at the start of segment i when available,
        // otherwise the end vertex.
        let v = if i > 0 { i } else { 1 };
        let h_prev = (self.points[v] - self.points[v - 1]).angle();
        let h_next = (self.points[v + 1] - self.points[v]).angle();
        let dh = wrap_pi(h_next - h_prev);
        let ds = 0.5 * ((self.cum[v] - self.cum[v - 1]) + (self.cum[v + 1] - self.cum[v]));
        dh / ds
    }

    /// Heading change rate with respect to arc length around `s`, computed
    /// over a symmetric window of `window` metres. This is `dψ/ds`; the
    /// road-direction change rate experienced by a vehicle at speed `v` is
    /// `w_road = v · dψ/ds`.
    pub fn heading_rate_at(&self, s: f64, window: f64) -> f64 {
        let w = window.max(1e-3);
        let s0 = (s - 0.5 * w).max(0.0);
        let s1 = (s + 0.5 * w).min(self.length());
        if s1 - s0 < 1e-9 {
            return 0.0;
        }
        // Headings are piecewise constant per segment, so attribute each to
        // its segment midpoint; dividing by the midpoint separation avoids
        // quantization bias when `window` is comparable to segment length.
        let i0 = self.segment_index(s0);
        let i1 = self.segment_index(s1);
        if i0 == i1 {
            return self.curvature_at(s);
        }
        let m0 = 0.5 * (self.cum[i0] + self.cum[i0 + 1]);
        let m1 = 0.5 * (self.cum[i1] + self.cum[i1 + 1]);
        let h0 = (self.points[i0 + 1] - self.points[i0]).angle();
        let h1 = (self.points[i1 + 1] - self.points[i1]).angle();
        wrap_pi(h1 - h0) / (m1 - m0)
    }

    /// Resamples the polyline at uniform arc-length spacing `ds`,
    /// always including the final point.
    ///
    /// # Panics
    ///
    /// Panics if `ds <= 0`.
    pub fn resample(&self, ds: f64) -> Vec<Vec2> {
        assert!(ds > 0.0, "resample spacing must be positive");
        let n = (self.length() / ds).floor() as usize;
        let mut out: Vec<Vec2> = (0..=n).map(|i| self.point_at(i as f64 * ds)).collect();
        let last = self.point_at(self.length());
        if (out.last().copied().expect("nonempty") - last).norm() > 1e-9 {
            out.push(last);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::f64::consts::FRAC_PI_2;

    fn l_shape() -> Polyline {
        Polyline::new(vec![Vec2::new(0.0, 0.0), Vec2::new(100.0, 0.0), Vec2::new(100.0, 100.0)])
            .unwrap()
    }

    #[test]
    fn length_and_points() {
        let p = l_shape();
        assert_eq!(p.length(), 200.0);
        assert_eq!(p.points().len(), 3);
        assert_eq!(p.cumulative_lengths(), &[0.0, 100.0, 200.0]);
    }

    #[test]
    fn point_at_interpolates_and_clamps() {
        let p = l_shape();
        assert_eq!(p.point_at(50.0), Vec2::new(50.0, 0.0));
        assert_eq!(p.point_at(150.0), Vec2::new(100.0, 50.0));
        assert_eq!(p.point_at(-10.0), Vec2::new(0.0, 0.0));
        assert_eq!(p.point_at(500.0), Vec2::new(100.0, 100.0));
        // Exactly at a vertex.
        assert_eq!(p.point_at(100.0), Vec2::new(100.0, 0.0));
    }

    #[test]
    fn heading_per_segment() {
        let p = l_shape();
        assert!((p.heading_at(50.0)).abs() < 1e-12);
        assert!((p.heading_at(150.0) - FRAC_PI_2).abs() < 1e-12);
    }

    #[test]
    fn curvature_straight_is_zero() {
        let p =
            Polyline::new(vec![Vec2::new(0.0, 0.0), Vec2::new(10.0, 0.0), Vec2::new(20.0, 0.0)])
                .unwrap();
        assert_eq!(p.curvature_at(5.0), 0.0);
        assert_eq!(p.curvature_at(15.0), 0.0);
    }

    #[test]
    fn curvature_of_discretized_circle() {
        // Radius-50 circle discretized at 1°: curvature ≈ 1/50.
        let r = 50.0;
        let pts: Vec<Vec2> = (0..=90)
            .map(|i| {
                let a = (i as f64).to_radians();
                Vec2::new(r * a.cos(), r * a.sin())
            })
            .collect();
        let p = Polyline::new(pts).unwrap();
        let k = p.curvature_at(p.length() / 2.0);
        assert!((k - 1.0 / r).abs() < 1e-3, "curvature {k}");
    }

    #[test]
    fn heading_rate_on_circle() {
        let r = 50.0;
        let pts: Vec<Vec2> = (0..=180)
            .map(|i| {
                let a = (i as f64 * 0.5).to_radians();
                Vec2::new(r * a.cos(), r * a.sin())
            })
            .collect();
        let p = Polyline::new(pts).unwrap();
        let rate = p.heading_rate_at(p.length() / 2.0, 5.0);
        assert!((rate - 1.0 / r).abs() < 1e-3, "rate {rate}");
    }

    #[test]
    fn resample_spacing_and_endpoint() {
        let p = l_shape();
        let pts = p.resample(30.0);
        // 0,30,...,180 plus final point.
        assert_eq!(pts.len(), 8);
        assert_eq!(*pts.last().unwrap(), Vec2::new(100.0, 100.0));
        // Resampling is by arc length: chords across the corner are
        // shorter than the 30 m arc spacing, never longer.
        for w in pts.windows(2).take(6) {
            let chord = (w[1] - w[0]).norm();
            assert!(chord <= 30.0 + 1e-9, "chord {chord}");
        }
        // Straight stretches give exact spacing.
        assert!(((pts[1] - pts[0]).norm() - 30.0).abs() < 1e-9);
    }

    #[test]
    fn construction_errors() {
        assert_eq!(
            Polyline::new(vec![Vec2::new(0.0, 0.0)]).unwrap_err(),
            PolylineError::TooFewPoints
        );
        assert!(matches!(
            Polyline::new(vec![Vec2::new(0.0, 0.0), Vec2::new(0.0, 0.0)]).unwrap_err(),
            PolylineError::DegenerateSegment { index: 0 }
        ));
        assert!(matches!(
            Polyline::new(vec![Vec2::new(0.0, 0.0), Vec2::new(f64::NAN, 0.0)]).unwrap_err(),
            PolylineError::NonFinitePoint { index: 1 }
        ));
    }
}
