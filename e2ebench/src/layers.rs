//! Contention-free layer costs: a single-threaded replay of each
//! layer's public function on the workload's own inputs.

use crate::stats::{mean, median};
use gradest_core::cloud::CloudAggregator;
use gradest_core::pipeline::{EstimatorScratch, GradientEstimate, GradientEstimator};
use gradest_core::track::GradientTrack;
use gradest_geo::tile::edges_in_tile_into;
use gradest_geo::{Aabb, NetworkIndex, QueryScratch, RoadNetwork, Route};
use gradest_obs::TimeSeriesRecorder;
use gradest_sensors::suite::SensorLog;
use gradest_sensors::NetworkMatcher;
use gradest_serve::protocol::{
    decode_upload_into, encode_upload_frame, TileWriter, UploadScratch, HEADER_BYTES,
};
use std::hint::black_box;
use std::time::Instant;

/// Replays of each measured call; the per-trip cost is their median.
pub const REPS: usize = 3;

fn since_ns(t: Instant) -> f64 {
    t.elapsed().as_nanos() as f64
}

/// Contention-free costs of one trip, medians over [`REPS`] replays.
#[derive(Debug, Clone, Copy, Default)]
pub struct TripCost {
    /// `encode_upload_frame`, ns.
    pub encode_ns: f64,
    /// `decode_upload_into`, ns.
    pub decode_ns: f64,
    /// Encoded UPLOAD frame size, bytes.
    pub frame_bytes: f64,
    /// `estimate_into`, measured around the call, ns.
    pub estimate_ns: f64,
    /// The estimator's own stage times (steering, detection, tracks,
    /// fusion), ns.
    pub stages_ns: [f64; 4],
    /// `estimate_into` time outside the four stages, ns.
    pub outside_stages_ns: f64,
    /// `estimate_into_recorded` into a `TimeSeriesRecorder`, ns.
    pub recorded_ns: f64,
    /// The four stages of that recorded call (what the program's own
    /// `trip` span reports), ns.
    pub recorded_trip_ns: f64,
    /// `CloudAggregator::upload` of the fused track, ns.
    pub upload_ns: f64,
    /// Fused cells the upload touched.
    pub cells: f64,
    /// `NetworkMatcher::match_trip`, ns (batch trips only).
    pub match_ns: f64,
    /// Edges the matcher recovered (batch trips only).
    pub match_edges: f64,
    /// IMU samples of the trip.
    pub imu: f64,
}

/// Replays `logs` through the protocol, the estimator (plain and into
/// a telemetry ring) and the cloud. With `net`, each trip is first
/// matched to the network and estimated along the recovered route, as
/// the batch does; without it, trips are estimated map-free, as the
/// service does.
pub fn replay_trips(
    logs: &[&SensorLog],
    net: Option<(&RoadNetwork, &NetworkIndex)>,
    estimator: &GradientEstimator,
) -> Vec<TripCost> {
    let mut frame = Vec::new();
    let mut upload = UploadScratch::new();
    let mut scratch = EstimatorScratch::new();
    let mut out = GradientEstimate::default();
    let ring = TimeSeriesRecorder::default();
    let cloud = CloudAggregator::new(5.0);
    let mut matcher = net.map(|(n, i)| NetworkMatcher::new(n, i));
    logs.iter()
        .enumerate()
        .map(|(i, log)| {
            let mut samples: Vec<[f64; 11]> = Vec::with_capacity(REPS);
            let mut route: Option<Route> = None;
            let mut match_edges = 0.0;
            for _ in 0..REPS {
                let t = Instant::now();
                let matched = matcher.as_mut().map(|m| m.match_trip(&log.gps));
                let match_ns = since_ns(t);
                if let Some(m) = matched {
                    match_edges = m.edges.len() as f64;
                    route = m.route;
                }
                let t = Instant::now();
                encode_upload_frame(i as u64, log, &mut frame);
                let encode_ns = since_ns(t);
                let t = Instant::now();
                let decoded = decode_upload_into(&frame[HEADER_BYTES..], &mut upload);
                let decode_ns = since_ns(t);
                black_box(decoded.is_ok());
                let t = Instant::now();
                estimator.estimate_into(log, route.as_ref(), &mut scratch, &mut out);
                let estimate_ns = since_ns(t);
                let st = scratch.stages();
                let t = Instant::now();
                estimator.estimate_into_recorded(
                    log,
                    route.as_ref(),
                    &mut scratch,
                    &mut out,
                    &ring,
                );
                let recorded_ns = since_ns(t);
                let recorded_trip_ns = scratch.stages().total() as f64;
                let t = Instant::now();
                cloud.upload(i as u64, &out.fused);
                let upload_ns = since_ns(t);
                samples.push([
                    encode_ns,
                    decode_ns,
                    estimate_ns,
                    recorded_ns,
                    upload_ns,
                    match_ns,
                    st.steering as f64,
                    st.detection as f64,
                    st.tracks as f64,
                    st.fusion as f64,
                    recorded_trip_ns,
                ]);
            }
            let med = |f: &dyn Fn(&[f64; 11]) -> f64| {
                median(&mut samples.iter().map(f).collect::<Vec<_>>())
            };
            TripCost {
                encode_ns: med(&|s| s[0]),
                decode_ns: med(&|s| s[1]),
                frame_bytes: frame.len() as f64,
                estimate_ns: med(&|s| s[2]),
                stages_ns: [med(&|s| s[6]), med(&|s| s[7]), med(&|s| s[8]), med(&|s| s[9])],
                outside_stages_ns: med(&|s| s[2] - s[6] - s[7] - s[8] - s[9]),
                recorded_ns: med(&|s| s[3]),
                recorded_trip_ns: med(&|s| s[10]),
                upload_ns: med(&|s| s[4]),
                cells: out.fused.len() as f64,
                match_ns: if net.is_some() { med(&|s| s[5]) } else { 0.0 },
                match_edges,
                imu: log.imu.len() as f64,
            }
        })
        .collect()
}

/// Means of the replayed trip costs, in the units reported.
#[derive(Debug, Clone, Copy, Default)]
pub struct TripMeans {
    /// Mean encode, µs.
    pub encode_us: f64,
    /// Mean decode, µs.
    pub decode_us: f64,
    /// Mean frame size, KB.
    pub upload_kb: f64,
    /// Mean estimate, µs.
    pub estimate_us: f64,
    /// Mean stage times, µs: steering, detection, tracks, fusion.
    pub stages_us: [f64; 4],
    /// Estimate time per IMU sample, ns.
    pub ns_per_sample: f64,
    /// Mean (recorded − plain) estimate, µs.
    pub ring_us: f64,
    /// Mean cloud upload, µs.
    pub upload_us: f64,
    /// Mean cells per upload.
    pub cells: f64,
    /// Mean (estimate − Σ stages), µs.
    pub trip_resid_us: f64,
    /// Mean match, µs.
    pub match_us: f64,
    /// Mean matched edges per trip.
    pub match_edges: f64,
}

impl TripMeans {
    /// Averages `costs` across trips.
    pub fn of(costs: &[TripCost]) -> TripMeans {
        let m = |f: &dyn Fn(&TripCost) -> f64| mean(&costs.iter().map(f).collect::<Vec<_>>());
        let imu: f64 = costs.iter().map(|c| c.imu).sum();
        let est: f64 = costs.iter().map(|c| c.estimate_ns).sum();
        TripMeans {
            encode_us: m(&|c| c.encode_ns) / 1e3,
            decode_us: m(&|c| c.decode_ns) / 1e3,
            upload_kb: m(&|c| c.frame_bytes) / 1024.0,
            estimate_us: m(&|c| c.estimate_ns) / 1e3,
            stages_us: [
                m(&|c| c.stages_ns[0]) / 1e3,
                m(&|c| c.stages_ns[1]) / 1e3,
                m(&|c| c.stages_ns[2]) / 1e3,
                m(&|c| c.stages_ns[3]) / 1e3,
            ],
            ns_per_sample: if imu > 0.0 { est / imu } else { 0.0 },
            ring_us: m(&|c| c.recorded_ns - c.estimate_ns) / 1e3,
            upload_us: m(&|c| c.upload_ns) / 1e3,
            cells: m(&|c| c.cells),
            trip_resid_us: m(&|c| c.outside_stages_ns) / 1e3,
            match_us: m(&|c| c.match_ns) / 1e3,
            match_edges: m(&|c| c.match_edges),
        }
    }
}

/// Contention-free costs of the service's tile path.
#[derive(Debug, Clone, Copy, Default)]
pub struct TileCost {
    /// `edges_in_tile_into` per query, µs.
    pub edges_us: f64,
    /// Edges per query.
    pub edges_per_query: f64,
    /// `road_profile_into` per edge, µs.
    pub profile_us: f64,
    /// `TileWriter` per tile, µs.
    pub write_us: f64,
    /// Tile payload, KB.
    pub tile_kb: f64,
}

/// Replays the server's tile path (edge query, per-edge profile read,
/// tile write) over `boxes` against `cloud`, [`REPS`] passes.
pub fn replay_tiles(index: &NetworkIndex, cloud: &CloudAggregator, boxes: &[Aabb]) -> TileCost {
    let mut scratch = QueryScratch::new();
    let mut edges: Vec<u32> = Vec::new();
    let mut track = GradientTrack::new("");
    let mut payload = Vec::new();
    let (mut edges_ns, mut profile_ns, mut write_ns) = (0.0, 0.0, 0.0);
    let (mut n_edges, mut bytes) = (0usize, 0usize);
    for _ in 0..REPS {
        for b in boxes {
            let t = Instant::now();
            edges_in_tile_into(index, *b, &mut scratch, &mut edges);
            edges_ns += since_ns(t);
            n_edges += edges.len();
            let mut writer = TileWriter::begin(&mut payload);
            for edge in &edges {
                let t = Instant::now();
                let found = cloud.road_profile_into(u64::from(*edge), &mut track);
                profile_ns += since_ns(t);
                if found {
                    let t = Instant::now();
                    writer.push_edge(*edge, &track);
                    write_ns += since_ns(t);
                }
            }
            let t = Instant::now();
            writer.finish();
            write_ns += since_ns(t);
            bytes += payload.len();
        }
    }
    let queries = (REPS * boxes.len()).max(1) as f64;
    TileCost {
        edges_us: edges_ns / queries / 1e3,
        edges_per_query: n_edges as f64 / queries,
        profile_us: profile_ns / n_edges.max(1) as f64 / 1e3,
        write_us: write_ns / queries / 1e3,
        tile_kb: bytes as f64 / queries / 1024.0,
    }
}

/// `NetworkIndex::build` over `net`, median of [`REPS`] builds, ms.
pub fn index_build_ms(net: &RoadNetwork) -> f64 {
    let mut v: Vec<f64> = (0..REPS)
        .map(|_| {
            let t = Instant::now();
            black_box(NetworkIndex::build(net));
            since_ns(t) / 1e6
        })
        .collect();
    median(&mut v)
}

/// Mean `nearest_s_on_network` over every valid GPS fix of `logs`, ns.
pub fn nearest_ns(index: &NetworkIndex, logs: &[&SensorLog]) -> f64 {
    let mut scratch = QueryScratch::new();
    let fixes: Vec<_> = logs.iter().flat_map(|l| l.gps.iter().filter(|f| f.valid)).collect();
    let t = Instant::now();
    for f in &fixes {
        black_box(index.nearest_s_on_network(f.position, &mut scratch));
    }
    since_ns(t) / fixes.len().max(1) as f64
}
