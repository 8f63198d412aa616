//! Spatial-index benchmark tier: packed R-tree build and query costs
//! on a country-scale deterministic network, plus free-space network
//! matching through the fleet engine.
//!
//! Not a paper artifact — an engineering benchmark for the
//! `gradest-geo` index layer. Emits `BENCH_geo.json` so regressions in
//! `nearest_s_on_network` / `edges_in_bbox` / `NetworkMatcher` are
//! diffable across commits, and carries the measured warm-query
//! allocation count so the zero-allocation contract is a gated number,
//! not a comment.

use crate::perfbench::{alloc_counter, run_bench, BenchReport};
use crate::report::{print_table, save_json};
use crate::scenarios::{network_routes, Drive};
use gradest_core::fleet::FleetEngine;
use gradest_core::pipeline::{EstimatorConfig, GradientEstimator};
use gradest_geo::generate::country_network;
use gradest_geo::index::{
    network_segments, project_point_segment, Aabb, NetworkIndex, QueryScratch,
};
use gradest_math::Vec2;
use gradest_obs::{saturating_ns, Recorder, RunRecorder, RunReport, Span};
use gradest_sensors::suite::SensorLog;
use gradest_sensors::NetworkMatcher;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use std::time::Instant;

/// Query points probed per benchmark sample.
const QUERY_POINTS: usize = 256;

/// Spatial-index benchmark result (`BENCH_geo.json`).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GeoIndexBench {
    /// Network generator seed.
    pub seed: u64,
    /// Requested network size, kilometres of road.
    pub target_km: f64,
    /// Generated network size, kilometres of road.
    pub network_km: f64,
    /// Polyline segments in the index.
    pub segments: usize,
    /// Network edges in the index.
    pub edges: usize,
    /// Full `NetworkIndex` build (segment + edge trees, Hilbert sort).
    pub index_build: BenchReport,
    /// `nearest_s_on_network` over warm scratch, 256 probe points.
    pub nearest_query_hot: BenchReport,
    /// Brute-force linear-scan nearest over the same probe points.
    pub oracle_nearest: BenchReport,
    /// `edges_in_bbox` drain over 256 ~1 km query windows.
    pub bbox_query: BenchReport,
    /// Free-space `NetworkMatcher::match_trip` per simulated trip.
    pub network_match_trip: BenchReport,
    /// Median speedup of the indexed nearest query over the oracle.
    pub nearest_speedup_vs_oracle: f64,
    /// Whether every indexed nearest distance matched the oracle.
    pub nearest_matches_oracle: bool,
    /// Heap allocations per warm nearest query (`None` when the
    /// counting allocator is not installed in this binary).
    pub allocs_per_query_warm: Option<u64>,
    /// Observability report: the `geo-index-build` span plus the
    /// recorded network-matching fleet batch (`network-match-trip`
    /// under each worker trip).
    pub obs: RunReport,
}

/// Deterministic probe points spread over the index bounds.
fn probe_points(bounds: Aabb, seed: u64) -> Vec<Vec2> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..QUERY_POINTS)
        .map(|_| {
            Vec2::new(
                rng.gen_range(bounds.min_x..bounds.max_x),
                rng.gen_range(bounds.min_y..bounds.max_y),
            )
        })
        .collect()
}

/// Runs the spatial-index tier on a `country_network(seed, target_km)`.
pub fn run(seed: u64, target_km: f64, samples: usize) -> GeoIndexBench {
    let net = country_network(seed, target_km);
    let rec = RunRecorder::new();

    let build_start = Instant::now();
    let index = NetworkIndex::build(&net);
    rec.record_span(Span::GeoIndexBuild, saturating_ns(build_start));

    let index_build = run_bench("geo_index_build", samples, 1, || {
        let idx = NetworkIndex::build(&net);
        assert_eq!(idx.segment_count(), index.segment_count());
    });

    let points = probe_points(index.bounds(), seed + 1);
    let mut scratch = QueryScratch::new();

    let nearest_query_hot = run_bench("nearest_query_hot", samples, QUERY_POINTS as u64, || {
        let mut acc = 0.0;
        for &p in &points {
            if let Some(hit) = index.nearest_s_on_network(p, &mut scratch) {
                acc += hit.dist_m;
            }
        }
        assert!(acc.is_finite());
    });

    // Warm-query allocation audit: the scratch is hot after the bench
    // above, so any allocation here is a contract violation the
    // committed baseline will carry as a non-zero number.
    let allocs_per_query_warm = if alloc_counter::is_installed() {
        let before = alloc_counter::allocations();
        for &p in &points {
            index.nearest_s_on_network(p, &mut scratch);
        }
        Some((alloc_counter::allocations() - before) / QUERY_POINTS as u64)
    } else {
        None
    };

    let segments = network_segments(&net);
    let oracle_nearest = run_bench("oracle_nearest_scan", samples, QUERY_POINTS as u64, || {
        let mut acc = 0.0;
        for &p in &points {
            let d2 = segments
                .iter()
                .map(|s| project_point_segment(p, s.a, s.b).1)
                .fold(f64::INFINITY, f64::min);
            acc += d2;
        }
        assert!(acc.is_finite());
    });

    let nearest_matches_oracle = points.iter().all(|&p| {
        let hit = index.nearest_s_on_network(p, &mut scratch).expect("non-empty network");
        let oracle = segments
            .iter()
            .map(|s| project_point_segment(p, s.a, s.b).1)
            .fold(f64::INFINITY, f64::min)
            .sqrt();
        (hit.dist_m - oracle).abs() < 1e-9
    });

    let bbox_query = run_bench("bbox_query", samples, QUERY_POINTS as u64, || {
        let mut hits = 0usize;
        for &p in &points {
            let query = Aabb::of_corners(
                Vec2::new(p.x - 500.0, p.y - 500.0),
                Vec2::new(p.x + 500.0, p.y + 500.0),
            );
            hits += index.edges_in_bbox(query, &mut scratch).count();
        }
        assert!(hits > 0, "1 km windows over the network found no edges");
    });

    // Free-space matching: simulate a few drives on the network, then
    // time `match_trip` (nearest per fix + Dijkstra route recovery).
    let routes = network_routes(&net, 3, 800.0, seed + 2);
    assert!(!routes.is_empty(), "no routes found on generated network");
    let logs: Vec<SensorLog> = routes
        .iter()
        .enumerate()
        .map(|(i, r)| Drive::simulate(r.clone(), seed + 3 + i as u64, 0.0, Vec::new()).log)
        .collect();

    let network_match_trip = run_bench("network_match_trip", samples, logs.len() as u64, || {
        let mut matcher = NetworkMatcher::new(&net, &index);
        for log in &logs {
            let matched = matcher.match_trip(&log.gps);
            assert!(matched.matched_fixes > 0, "trip matched no fixes");
        }
    });

    // One recorded network-matching fleet batch so the obs report pins
    // the `network-match-trip` span count alongside `geo-index-build`.
    let estimator = GradientEstimator::new(EstimatorConfig::default());
    let engine = FleetEngine::new(estimator, 2);
    let out = engine.process_batch_network_recorded(&logs, &net, &index, &rec);
    assert_eq!(out.len(), logs.len());
    let obs = rec.report();

    let nearest_speedup_vs_oracle =
        oracle_nearest.median_ns_per_op / nearest_query_hot.median_ns_per_op.max(1.0);

    GeoIndexBench {
        seed,
        target_km,
        network_km: net.total_length_km(),
        segments: index.segment_count(),
        edges: index.edge_count(),
        index_build,
        nearest_query_hot,
        oracle_nearest,
        bbox_query,
        network_match_trip,
        nearest_speedup_vs_oracle,
        nearest_matches_oracle,
        allocs_per_query_warm,
        obs,
    }
}

/// Prints the timing table and writes `BENCH_geo.json`.
pub fn print_report(r: &GeoIndexBench) {
    let rows: Vec<Vec<String>> = [
        &r.index_build,
        &r.nearest_query_hot,
        &r.oracle_nearest,
        &r.bbox_query,
        &r.network_match_trip,
    ]
    .iter()
    .map(|b| {
        vec![b.name.clone(), format!("{:.1}", b.median_ns_per_op), format!("{:.0}", b.ops_per_sec)]
    })
    .collect();
    print_table(
        &format!(
            "Geo index — {:.0} km / {} segments / {} edges: nearest {:.1}x vs oracle, \
             exact={}, warm allocs/query={}",
            r.network_km,
            r.segments,
            r.edges,
            r.nearest_speedup_vs_oracle,
            r.nearest_matches_oracle,
            r.allocs_per_query_warm.map_or_else(|| "uncounted".into(), |a| a.to_string()),
        ),
        &["bench", "ns/op", "op/s"],
        &rows,
    );
    println!("\n== Recorded index build + network-matching batch ==\n{}", r.obs.render());
    save_json("BENCH_geo", r);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_geo_index_bench_runs() {
        // Tiny network: the point is plumbing, not timing fidelity.
        let r = run(400, 40.0, 2);
        assert!(r.segments > 1_000, "40 km network should exceed 1k segments");
        assert!(r.nearest_matches_oracle, "index disagreed with brute force");
        assert!(r.nearest_speedup_vs_oracle > 1.0, "index slower than linear scan");
        assert!(r.index_build.median_ns_per_op > 0.0);
        assert!(r.obs.span("geo-index-build").is_some(), "missing geo-index-build span");
        assert_eq!(r.obs.span("network-match-trip").map(|s| s.count), Some(3));
    }
}
