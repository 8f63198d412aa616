//! Property-based tests pinning the packed R-tree against brute-force
//! oracles: nearest queries (`SegmentIndex::nearest`,
//! `NetworkIndex::nearest_edge`) and bbox queries (`edges_in_bbox`,
//! `SegmentIndex::query_bbox`) must agree with a linear scan on
//! randomized segment sets — including degenerate zero-length and
//! collinear segments the Hilbert sort and projection must not choke
//! on — and on generated road networks. A warm scratch, whose last hit
//! bounds the next nearest search, must return exactly the hit of a
//! fresh scratch. An `EdgeIndex` built alone must answer every bbox
//! query as the edge half of a `NetworkIndex` does.

use gradest_geo::generate::{city_network, country_network};
use gradest_geo::index::{
    network_segments, project_point_segment, Aabb, EdgeIndex, NetworkIndex, QueryScratch, Segment,
    SegmentHit, SegmentIndex,
};
use gradest_geo::tile::edges_in_tile_into;
use gradest_geo::RoadNetwork;
use gradest_math::Vec2;
use proptest::prelude::*;

/// One raw segment: endpoints plus a shape selector that forces the
/// degenerate cases (0 = general, 1 = zero-length, 2 = collinear on
/// the x-axis).
fn segment_strategy() -> impl Strategy<Value = Segment> {
    (-500.0..500.0f64, -500.0..500.0f64, -500.0..500.0f64, -500.0..500.0f64, 0u8..3).prop_map(
        |(ax, ay, bx, by, kind)| {
            let (a, b) = match kind {
                1 => (Vec2::new(ax, ay), Vec2::new(ax, ay)),
                2 => (Vec2::new(ax, 0.0), Vec2::new(bx, 0.0)),
                _ => (Vec2::new(ax, ay), Vec2::new(bx, by)),
            };
            Segment { a, b, edge: 0, s0: 0.0 }
        },
    )
}

/// Brute-force nearest: exact projection against every segment.
fn oracle_nearest_d2(segments: &[Segment], p: Vec2) -> f64 {
    segments.iter().map(|s| project_point_segment(p, s.a, s.b).1).fold(f64::INFINITY, f64::min)
}

/// A hit as bits: segment, edge, and the bits of `s`, `point` and
/// `dist_m`.
type HitBits = (usize, usize, u64, u64, u64, u64);

fn hit_bits(hit: Option<SegmentHit>) -> Option<HitBits> {
    hit.map(|h| {
        let (s, x, y, d) = (h.s.to_bits(), h.point.x.to_bits(), h.point.y.to_bits(), h.dist_m);
        (h.segment, h.edge, s, x, y, d.to_bits())
    })
}

/// Queries `p` through the warm `scratch` and through a fresh one: the
/// two hits must agree bit for bit, and a finite point's hit must be at
/// the brute-force distance.
fn check_warm_query(
    index: &SegmentIndex,
    segments: &[Segment],
    scratch: &mut QueryScratch,
    p: Vec2,
) {
    let warm = index.nearest(p, scratch);
    let fresh = index.nearest(p, &mut QueryScratch::new());
    assert_eq!(hit_bits(warm), hit_bits(fresh), "query {p:?}");
    if p.x.is_finite() && p.y.is_finite() {
        let hit = warm.expect("non-empty index");
        let oracle = oracle_nearest_d2(segments, p).sqrt();
        assert!((hit.dist_m - oracle).abs() < 1e-9, "index {} vs oracle {oracle}", hit.dist_m);
    } else {
        assert!(warm.is_none(), "non-finite query {p:?} hit {warm:?}");
    }
}

/// Horizontal and vertical 5 m segments between the vertices of an
/// `n × n` lattice: every inner vertex is shared by four segments, and
/// lattice points, cell centres and edge midpoints sit at exactly equal
/// distances from several segments.
fn lattice_segments(n: usize) -> Vec<Segment> {
    let v = |i: usize, j: usize| Vec2::new(5.0 * i as f64, 5.0 * j as f64);
    let mut out = Vec::new();
    for i in 0..n {
        for j in 0..n {
            if i + 1 < n {
                out.push((v(i, j), v(i + 1, j)));
            }
            if j + 1 < n {
                out.push((v(i, j), v(i, j + 1)));
            }
        }
    }
    let segment =
        |k: usize, (a, b): (Vec2, Vec2)| Segment { a, b, edge: k as u32 / 3, s0: k as f64 };
    out.into_iter().enumerate().map(|(k, ab)| segment(k, ab)).collect()
}

/// Ids of the edges whose centerline AABB intersects `query`, by a
/// linear scan, ascending.
fn oracle_edges_in_bbox(net: &RoadNetwork, query: &Aabb) -> Vec<u32> {
    let edge_box = |points: &[Vec2]| Aabb {
        min_x: points.iter().map(|p| p.x).fold(f64::INFINITY, f64::min),
        min_y: points.iter().map(|p| p.y).fold(f64::INFINITY, f64::min),
        max_x: points.iter().map(|p| p.x).fold(f64::NEG_INFINITY, f64::max),
        max_y: points.iter().map(|p| p.y).fold(f64::NEG_INFINITY, f64::max),
    };
    (0u32..)
        .zip(net.edges())
        .filter(|(_, e)| edge_box(e.road.centerline().points()).intersects(query))
        .map(|(id, _)| id)
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn nearest_matches_brute_force_on_random_segments(
        segments in prop::collection::vec(segment_strategy(), 1..80),
        qx in -600.0..600.0f64,
        qy in -600.0..600.0f64,
    ) {
        let mut segments = segments;
        for (i, s) in segments.iter_mut().enumerate() {
            s.edge = i as u32;
        }
        let index = SegmentIndex::build(&segments);
        let mut scratch = QueryScratch::new();
        let p = Vec2::new(qx, qy);
        let hit = index.nearest(p, &mut scratch).expect("non-empty index");
        let oracle = oracle_nearest_d2(&segments, p).sqrt();
        // Ties may resolve to a different segment; the distance is unique.
        prop_assert!(
            (hit.dist_m - oracle).abs() < 1e-9,
            "index {} vs oracle {}", hit.dist_m, oracle
        );
        // The reported snap point really is on the reported segment at
        // the reported distance.
        let seg = &segments[hit.segment];
        let (t, d2) = project_point_segment(p, seg.a, seg.b);
        prop_assert!((d2.sqrt() - hit.dist_m).abs() < 1e-9);
        prop_assert!((0.0..=1.0).contains(&t));
    }

    #[test]
    fn a_warm_scratch_returns_the_fresh_hit(
        segments in prop::collection::vec(segment_strategy(), 1..80),
        start in (-550.0..550.0f64, -550.0..550.0f64),
        steps in prop::collection::vec((-6.0..6.0f64, -6.0..6.0f64, 0u8..8), 1..60),
        lattice_n in 2usize..10,
        lattice_probes in prop::collection::vec((0u32..44, 0u32..44, any::<bool>()), 1..40),
    ) {
        let mut segments = segments;
        for (i, s) in segments.iter_mut().enumerate() {
            s.edge = i as u32;
            s.s0 = 0.5 * i as f64;
        }
        let random = SegmentIndex::build(&segments);
        let lattice = lattice_segments(lattice_n);
        let grid = SegmentIndex::build(&lattice);
        // One scratch across both indexes: each switch leaves it a hint
        // from the other index, stale or out of range.
        let mut scratch = QueryScratch::new();
        // A walk of steps a few metres long, with jumps across the set.
        let mut p = Vec2::new(start.0, start.1);
        for &(dx, dy, kind) in &steps {
            p = if kind == 0 { Vec2::new(90.0 * dx, 90.0 * dy) } else { p + Vec2::new(dx, dy) };
            check_warm_query(&random, &segments, &mut scratch, p);
        }
        // Lattice probes on a 2.5 m grid hit exact ties; half of them are
        // taken at the same spot off the lattice's random set, so the
        // hint alternates between the two indexes.
        for &(i, j, switch) in &lattice_probes {
            let q = Vec2::new(2.5 * f64::from(i) - 5.0, 2.5 * f64::from(j) - 5.0);
            check_warm_query(&grid, &lattice, &mut scratch, q);
            if switch {
                check_warm_query(&random, &segments, &mut scratch, q);
            }
        }
        // A one-segment index after the lattice: any lattice hint but
        // segment 0 is out of its range.
        let single = SegmentIndex::build(&segments[..1]);
        check_warm_query(&grid, &lattice, &mut scratch, Vec2::new(12.5, 7.5));
        check_warm_query(&single, &segments[..1], &mut scratch, p);
        // Non-finite points return nothing, warm or fresh, and leave the
        // next query exact.
        for bad in [
            Vec2::new(f64::INFINITY, 0.0),
            Vec2::new(0.0, f64::NEG_INFINITY),
            Vec2::new(f64::NEG_INFINITY, f64::INFINITY),
            Vec2::new(f64::NAN, 1.0),
            Vec2::new(f64::NAN, f64::NAN),
        ] {
            check_warm_query(&grid, &lattice, &mut scratch, Vec2::new(2.5, 5.0));
            check_warm_query(&grid, &lattice, &mut scratch, bad);
            check_warm_query(&random, &segments, &mut scratch, p);
            check_warm_query(&random, &segments, &mut scratch, bad);
        }
    }

    #[test]
    fn bbox_query_matches_linear_filter(
        segments in prop::collection::vec(segment_strategy(), 1..80),
        cx in -500.0..500.0f64,
        cy in -500.0..500.0f64,
        w in 1.0..400.0f64,
        h in 1.0..400.0f64,
    ) {
        let index = SegmentIndex::build(&segments);
        let mut scratch = QueryScratch::new();
        let query = Aabb::of_corners(
            Vec2::new(cx - w / 2.0, cy - h / 2.0),
            Vec2::new(cx + w / 2.0, cy + h / 2.0),
        );
        let mut got: Vec<u32> = index.query_bbox(query, &mut scratch).collect();
        got.sort_unstable();
        let mut want: Vec<u32> = segments
            .iter()
            .enumerate()
            .filter(|(_, s)| Aabb::of_corners(s.a, s.b).intersects(&query))
            .map(|(i, _)| i as u32)
            .collect();
        want.sort_unstable();
        prop_assert_eq!(got, want);
    }

    #[test]
    fn network_index_matches_brute_force(seed in 0u64..200, qi in 0usize..16) {
        let net = city_network(seed);
        let index = NetworkIndex::build(&net);
        let segments = network_segments(&net);
        let mut scratch = QueryScratch::new();
        // Probe a deterministic grid point derived from the case inputs.
        let b = index.bounds();
        let fx = (qi % 4) as f64 / 3.0;
        let fy = (qi / 4) as f64 / 3.0;
        let p = Vec2::new(
            b.min_x + fx * (b.max_x - b.min_x),
            b.min_y + fy * (b.max_y - b.min_y),
        );
        let hit = index.nearest_s_on_network(p, &mut scratch).expect("non-empty network");
        let oracle = oracle_nearest_d2(&segments, p).sqrt();
        prop_assert!((hit.dist_m - oracle).abs() < 1e-9);
        // nearest_edge agrees with the full hit.
        prop_assert_eq!(index.nearest_edge(p, &mut scratch), Some(hit.edge));
        // The winning edge's AABB turns up in a bbox query around the
        // snap point.
        let pad = hit.dist_m + 1.0;
        let query = Aabb::of_corners(
            Vec2::new(p.x - pad, p.y - pad),
            Vec2::new(p.x + pad, p.y + pad),
        );
        let edges: Vec<u32> = index.edges_in_bbox(query, &mut scratch).collect();
        prop_assert!(edges.contains(&(hit.edge as u32)));
        // An `EdgeIndex` built alone answers the snap box, the box from
        // the probe to the north-west corner and the whole map with the
        // network index's ids in its traversal order, the linear scan's
        // set, and one tile list for either argument type.
        let edge_index = EdgeIndex::build(&net);
        let bits = |b: Aabb| [b.min_x, b.min_y, b.max_x, b.max_y].map(f64::to_bits);
        prop_assert_eq!(bits(edge_index.bounds()), bits(b));
        let corner = Aabb::of_corners(p, Vec2::new(b.min_x, b.max_y));
        let (mut alone_tile, mut network_tile) = (Vec::new(), Vec::new());
        for query in [query, corner, b] {
            let alone: Vec<u32> = edge_index.edges_in_bbox(query, &mut scratch).collect();
            let network: Vec<u32> = index.edges_in_bbox(query, &mut scratch).collect();
            prop_assert_eq!(&alone, &network);
            let oracle = oracle_edges_in_bbox(&net, &query);
            let mut sorted = alone;
            sorted.sort_unstable();
            prop_assert_eq!(&sorted, &oracle);
            edges_in_tile_into(&edge_index, query, &mut scratch, &mut alone_tile);
            edges_in_tile_into(&index, query, &mut scratch, &mut network_tile);
            prop_assert_eq!(&alone_tile, &oracle);
            prop_assert_eq!(&network_tile, &oracle);
        }
    }

    #[test]
    fn country_network_is_deterministic_across_rebuilds(seed in 0u64..20) {
        let a = country_network(seed, 40.0);
        let b = country_network(seed, 40.0);
        prop_assert_eq!(a.nodes().len(), b.nodes().len());
        prop_assert_eq!(a.edges().len(), b.edges().len());
        let ia = NetworkIndex::build(&a);
        let ib = NetworkIndex::build(&b);
        prop_assert_eq!(ia.segment_count(), ib.segment_count());
        let ba = ia.bounds();
        let bb = ib.bounds();
        prop_assert!((ba.min_x - bb.min_x).abs() < 1e-12);
        prop_assert!((ba.max_y - bb.max_y).abs() < 1e-12);
    }
}
