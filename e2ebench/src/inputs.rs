//! Seeded workload inputs: the city network, the bounded trip pool and
//! the tile boxes, all built before any timed set-up starts.
//!
//! Everything here is a pure function of the seed. Trips are simulated
//! on two threads, each trip from its own derived seed, so the result
//! does not depend on which thread built it.

use crate::Workload;
use gradest_geo::generate::city_network;
use gradest_geo::{Aabb, NetworkIndex, QueryScratch, RoadNetwork, Route};
use gradest_math::Vec2;
use gradest_sensors::suite::{SensorConfig, SensorLog, SensorSuite};
use gradest_sim::trip::{simulate_trip, TripConfig};
use std::time::Instant;

/// Caller (generator) threads of the service workloads.
pub const CALLERS: usize = 2;
/// Route trips per caller in `ingest`.
pub const INGEST_TRIPS_PER_CALLER: usize = 24;
/// Driving-time range of `ingest` trips, seconds: 2–6 km at the
/// simulated vehicles' mean city speed of about 11.5 m/s.
pub const INGEST_DRIVE_S: (f64, f64) = (175.0, 520.0);
/// Free-space trips in the `city_batch` pool.
pub const BATCH_TRIPS: usize = 48;
/// Driving-time range of `city_batch` trips, seconds: 2–5 km.
pub const BATCH_DRIVE_S: (f64, f64) = (175.0, 435.0);
/// Driving time of the `city_batch` set-up trips, one per fleet worker,
/// seconds: short, so that `setup_s` times the set-up, not a trip.
pub const WARMUP_DRIVE_S: f64 = 30.0;
/// Tile boxes per caller in `app_sessions`, cycled by its sessions.
pub const BOXES_PER_CALLER: usize = 64;
/// Side-length range of an `app_sessions` tile box, metres.
pub const BOX_SIDE_M: (f64, f64) = (1000.0, 4000.0);

/// SplitMix64: a tiny seeded generator, so inputs depend only on the
/// seed and this file.
#[derive(Debug, Clone)]
pub struct SplitMix(u64);

impl SplitMix {
    /// A generator for one stream of `seed`.
    pub fn new(seed: u64, stream: u64) -> Self {
        SplitMix(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F))
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[lo, hi)`.
    pub fn uniform(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * ((self.next_u64() >> 11) as f64 / (1u64 << 53) as f64)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// One simulated trip: the route driven (ground truth) and what the
/// phone recorded.
#[derive(Debug, Clone)]
pub struct Trip {
    /// The route driven, starting at arc position 0.
    pub route: Route,
    /// The recorded sensor streams.
    pub log: SensorLog,
    /// Distance actually driven, kilometres.
    pub km: f64,
}

/// All inputs of one workload run.
#[derive(Debug)]
pub struct Inputs {
    /// The workload these inputs are for.
    pub workload: Workload,
    /// The city network the service or batch runs over.
    pub net: RoadNetwork,
    /// The bounded trip pool. In `app_sessions` trip `e` drives edge `e`.
    pub trips: Vec<Trip>,
    /// Set-up trips, one per fleet worker (`city_batch` only).
    pub warmup: Vec<Trip>,
    /// Tile boxes per caller (`app_sessions` only).
    pub boxes: Vec<Vec<Aabb>>,
    /// Edges intersecting each box, as the service must serve them.
    pub box_edges: Vec<Vec<u32>>,
    /// Wall time spent building these inputs, seconds.
    pub gen_s: f64,
    /// FNV-1a digest over the network, trips and boxes.
    pub digest: u64,
}

impl Inputs {
    /// Builds the inputs of `workload` for `seed`.
    pub fn build(workload: Workload, seed: u64) -> Inputs {
        let t0 = Instant::now();
        let net = city_network(seed);
        let (mut warmup, mut boxes) = (Vec::new(), Vec::new());
        let trips = match workload {
            Workload::Ingest => {
                let n = CALLERS * INGEST_TRIPS_PER_CALLER;
                route_trips(&net, seed, 1, n, INGEST_DRIVE_S)
            }
            Workload::CityBatch => {
                let warm = (WARMUP_DRIVE_S, WARMUP_DRIVE_S);
                warmup = route_trips(&net, seed, 5, crate::batch::WORKERS, warm);
                route_trips(&net, seed, 2, BATCH_TRIPS, BATCH_DRIVE_S)
            }
            Workload::AppSessions => {
                boxes = session_boxes(&net, seed);
                edge_trips(&net, seed)
            }
        };
        let box_edges = box_edge_sets(&net, &boxes);
        let digest = digest(&net, trips.iter().chain(&warmup), &boxes);
        Inputs {
            workload,
            net,
            trips,
            warmup,
            boxes,
            box_edges,
            gen_s: t0.elapsed().as_secs_f64(),
            digest,
        }
    }

    /// Total IMU samples across the pool.
    pub fn imu_samples(&self) -> usize {
        self.trips.iter().map(|t| t.log.imu.len()).sum()
    }
}

/// Simulates one trip over `route` from a trip seed, driving for at
/// most `max_s` seconds.
fn simulate(route: Route, trip_seed: u64, max_s: f64) -> Trip {
    let config = TripConfig { max_duration_s: max_s, ..TripConfig::default() };
    let traj = simulate_trip(&route, &config, trip_seed);
    let log = SensorSuite::new(SensorConfig::default())
        .run(&traj, trip_seed.wrapping_mul(31).wrapping_add(7));
    Trip { route, log, km: traj.distance_m() / 1000.0 }
}

/// Runs `make(i)` for `i in 0..n` on two threads, keeping index order.
fn par_build<T: Send>(n: usize, make: impl Fn(usize) -> T + Sync) -> Vec<T> {
    let make = &make;
    let mut halves: Vec<Vec<T>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..2)
            .map(|half| scope.spawn(move || (half..n).step_by(2).map(make).collect::<Vec<T>>()))
            .collect();
        handles.into_iter().map(|h| h.join().expect("input generation thread panicked")).collect()
    });
    let odd = halves.pop().unwrap_or_default();
    let even = halves.pop().unwrap_or_default();
    let mut out = Vec::with_capacity(n);
    let (mut even, mut odd) = (even.into_iter(), odd.into_iter());
    for i in 0..n {
        let item = if i % 2 == 0 { even.next() } else { odd.next() };
        out.push(item.expect("each index built once"));
    }
    out
}

/// Driving time of `route` at its speed limits, seconds. A simulated
/// vehicle seldom goes faster, so this screens routes before one is
/// simulated.
fn drive_s(route: &Route) -> f64 {
    let mut t = 0.0;
    let mut s = 0.0;
    while s < route.length() {
        t += 25.0 / route.speed_limit_at(s).max(1.0);
        s += 25.0;
    }
    t
}

/// `n` multi-edge city trips whose driving times are the centres of `n`
/// equal strata of `drive_s`, the same for every seed. Per-trip work
/// grows with driving time (the IMU is sampled at a fixed rate), so the
/// pool's work, and the trip at each rank of it, do not depend on the
/// seed; the seed picks the routes, the terrain and the sensor noise.
/// Trip `i` drives the first seeded shortest-path route still running
/// when its time is up.
///
/// # Panics
///
/// Panics if none of 1000 seeded routes is long enough.
fn route_trips(
    net: &RoadNetwork,
    seed: u64,
    stream: u64,
    n: usize,
    drive: (f64, f64),
) -> Vec<Trip> {
    par_build(n, |i| {
        let target = drive.0 + (drive.1 - drive.0) * (i as f64 + 0.5) / n as f64;
        let mut rng = SplitMix::new(seed, stream << 32 | i as u64);
        for _ in 0..1000 {
            let (a, b) = (rng.below(net.node_count()), rng.below(net.node_count()));
            let trip_seed = rng.next_u64();
            let Some(route) = net
                .route_between(a, b, |r| r.length())
                .filter(|r| a != b && drive_s(r) > target * 1.1)
            else {
                continue;
            };
            let trip = simulate(route, trip_seed, target);
            if trip.log.imu.last().is_some_and(|s| s.t >= target - 0.5) {
                return trip;
            }
        }
        panic!("no route of the network takes {target:.0} s to drive")
    })
}

/// One single-edge trip per network edge; trip `e` drives edge `e`.
fn edge_trips(net: &RoadNetwork, seed: u64) -> Vec<Trip> {
    par_build(net.edge_count(), |e| {
        let route =
            Route::new(vec![net.edges()[e].road.clone()]).expect("a single road is a valid route");
        simulate(route, SplitMix::new(seed, 3 << 32 | e as u64).next_u64(), f64::INFINITY)
    })
}

/// Seeded square boxes, `BOXES_PER_CALLER` per caller. Sides are
/// stratified over `BOX_SIDE_M` in seeded order, and each box lies
/// inside the network's bounds, so the mean tile size barely depends
/// on the seed.
fn session_boxes(net: &RoadNetwork, seed: u64) -> Vec<Vec<Aabb>> {
    let bounds = NetworkIndex::build(net).bounds();
    (0..CALLERS)
        .map(|c| {
            let mut rng = SplitMix::new(seed, 4 << 32 | c as u64);
            let n = BOXES_PER_CALLER;
            let mut sides: Vec<f64> = (0..n)
                .map(|k| BOX_SIDE_M.0 + (BOX_SIDE_M.1 - BOX_SIDE_M.0) * (k as f64 + 0.5) / n as f64)
                .collect();
            for k in (1..n).rev() {
                sides.swap(k, rng.below(k + 1));
            }
            sides
                .into_iter()
                .map(|side| {
                    let half = side / 2.0;
                    let x = rng.uniform(bounds.min_x + half, bounds.max_x - half);
                    let y = rng.uniform(bounds.min_y + half, bounds.max_y - half);
                    Aabb::of_corners(Vec2::new(x - half, y - half), Vec2::new(x + half, y + half))
                })
                .collect()
        })
        .collect()
}

/// Edges intersecting each box of each caller, flattened caller-major.
fn box_edge_sets(net: &RoadNetwork, boxes: &[Vec<Aabb>]) -> Vec<Vec<u32>> {
    if boxes.is_empty() {
        return Vec::new();
    }
    let index = NetworkIndex::build(net);
    let mut scratch = QueryScratch::new();
    boxes
        .iter()
        .flatten()
        .map(|b| {
            let mut edges = Vec::new();
            gradest_geo::tile::edges_in_tile_into(&index, *b, &mut scratch, &mut edges);
            edges
        })
        .collect()
}

/// FNV-1a over 64-bit words.
struct Fnv(u64);

impl Fnv {
    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x100_0000_01B3);
        }
    }

    fn f(&mut self, v: f64) {
        self.word(v.to_bits());
    }
}

fn digest<'a>(
    net: &RoadNetwork,
    trips: impl Iterator<Item = &'a Trip>,
    boxes: &[Vec<Aabb>],
) -> u64 {
    let mut h = Fnv(0xCBF2_9CE4_8422_2325);
    for p in net.nodes() {
        h.f(p.x);
        h.f(p.y);
    }
    for t in trips {
        let log = &t.log;
        h.word(log.imu.len() as u64);
        for s in &log.imu {
            h.f(s.t);
            h.f(s.accel_long);
            h.f(s.accel_lat);
            h.f(s.gyro_z);
        }
        h.word(log.gps.len() as u64);
        for s in &log.gps {
            h.f(s.t);
            h.f(s.position.x);
            h.f(s.position.y);
            h.f(s.speed_mps);
            h.word(u64::from(s.valid));
        }
        for s in log.speedometer.iter().chain(&log.can) {
            h.f(s.t);
            h.f(s.speed_mps);
        }
        for s in &log.barometer {
            h.f(s.altitude_m);
        }
    }
    for b in boxes.iter().flatten() {
        h.f(b.min_x);
        h.f(b.min_y);
        h.f(b.max_x);
        h.f(b.max_y);
    }
    h.0
}
