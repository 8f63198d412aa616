//! # gradest-geo
//!
//! Geographic and road-geometry substrate for the `gradest` workspace.
//!
//! The paper evaluates on real Charlottesville, VA roads: a 2.16 km
//! "red road" with seven alternating uphill/downhill sections (Table III)
//! and a 164.8 km city network (Figure 7). This crate provides everything
//! needed to stand in for those roads:
//!
//! * [`latlon`] — WGS-84 positions, haversine distances, bearings, and a
//!   local planar projection.
//! * [`polyline`] — arc-length-parameterized planar polylines with heading
//!   and curvature queries.
//! * [`terrain`] — analytic terrain (elevation) models used to drape
//!   procedurally generated roads.
//! * [`road`] — roads: centerline + altitude profile + lane counts + class.
//! * [`route`] — a drivable concatenation of roads with ground-truth
//!   gradient along trip arc length.
//! * [`network`] — a road-network graph with Dijkstra routing.
//! * [`index`] — packed static R-tree spatial index over network edges
//!   and centerline segments (nearest-edge / bbox queries, no per-query
//!   allocation).
//! * [`tile`] — bbox tile bounds wire codec + deterministic (sorted)
//!   edge-set assembly for the ingestion service.
//! * [`generate`] — procedural presets: the Table III red road, S-curve
//!   roads, and a Charlottesville-scale synthetic city network.
//! * [`refgrade`] — the paper's Section III-D reference gradient profiler
//!   (1 m segmentation of altimeter data).
//!
//! # Example
//!
//! ```
//! use gradest_geo::generate::red_road;
//!
//! let road = red_road();
//! assert!((road.length() - 2160.0).abs() < 1.0);
//! // Section 0-1 is uphill per Table III.
//! assert!(road.gradient_at(100.0) > 0.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod dem;
pub mod generate;
pub mod geojson;
pub mod index;
pub mod latlon;
pub mod network;
pub mod polyline;
pub mod refgrade;
pub mod road;
pub mod route;
pub mod terrain;
pub mod tile;

pub use index::{Aabb, EdgeIndex, NetworkIndex, QueryScratch, SegmentHit, SegmentIndex};
pub use latlon::LatLon;
pub use network::RoadNetwork;
pub use polyline::Polyline;
pub use refgrade::GradientProfile;
pub use road::{Road, RoadClass};
pub use route::Route;
