//! Ingestion-service soak: `gradest-serve` under a simulated phone
//! fleet on a loopback socket.
//!
//! Not a paper artifact — the engineering benchmark for the crowd
//! ingestion path (DESIGN.md §14). Emits `BENCH_service.json` with
//! the server's start cost, sustained upload throughput,
//! client-observed frame latency percentiles, and the tile-query cost,
//! so regressions in set-up and in the decode → estimate → fuse service
//! path are diffable across commits.
//! Alongside the timings it carries the correctness bar as booleans:
//! tiles served over the wire bit-identical to direct `FleetEngine` +
//! `CloudAggregator` aggregation, typed BUSY rejects under overload
//! with every client terminating, a clean drain-on-shutdown while
//! uploads are in flight, and (when the counting allocator is
//! installed) zero allocations in the warm decode → estimate window —
//! measured with the live time-series recorder wired in, since
//! `start` always fans recording into the telemetry ring.
//!
//! A final telemetry phase exercises DESIGN.md §15's judgment loop
//! end to end: a healthy stretch must stay drift-free at every STATUS
//! poll and serve latency quantiles inside the sketch's error bound
//! of the exact span extremes, then degraded sensor logs (starved
//! noisy IMU, long GPS outages) must trip a quality drift alert
//! within `ALERT_DEADLINE_WINDOWS` windows; the detection latency is
//! gated as `alert_latency_ns` and the final STATUS snapshot is saved
//! as `service_soak_status.json`.

use crate::perfbench::{alloc_counter, run_bench, BenchReport};
use crate::report::{print_table, results_dir, save_json};
use gradest_core::cloud::CloudAggregator;
use gradest_core::fleet::FleetEngine;
use gradest_core::pipeline::GradientEstimator;
use gradest_core::track::GradientTrack;
use gradest_geo::generate::city_network;
use gradest_geo::road::{build_from_sections, RoadClass, SectionSpec};
use gradest_geo::tile::edges_in_tile_into;
use gradest_geo::{NetworkIndex, QueryScratch, RoadNetwork, Route};
use gradest_math::Vec2;
use gradest_obs::{
    validate_prometheus_text, NoopRecorder, RunRecorder, RunReport, Tee, TimeSeriesConfig,
    TraceRing, SKETCH_RELATIVE_ERROR,
};
use gradest_sensors::suite::{SensorConfig, SensorLog, SensorSuite};
use gradest_serve::client::{Client, ServerReply};
use gradest_serve::protocol::TileWriter;
use gradest_serve::server::{install_alloc_probe, start, ServeConfig};
use gradest_sim::trip::{simulate_trip, TripConfig};
use serde::{Deserialize, Serialize};
use serde_json::Value;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Roads in the soak network (and edges served per tile).
const ROADS: usize = 8;
/// Distinct simulated trips in the upload pool; phones cycle through
/// it so trip simulation does not dominate the benchmark setup.
const POOL: usize = 16;
/// Client-side socket timeout. Generous: on one core, 64 phone
/// threads plus the server share the CPU.
const CLIENT_TIMEOUT: Duration = Duration::from_secs(10);
/// Window width of the telemetry phase's time-series ring: short, so
/// dozens of windows elapse inside the phase.
const TELEMETRY_WINDOW_NS: u64 = 25_000_000;
/// Ring length of the telemetry phase (25 ms × 120 = a 3 s horizon).
const TELEMETRY_WINDOWS: usize = 120;
/// Complete windows of healthy traffic before degradation starts.
const HEALTHY_WINDOWS: u64 = 14;
/// Degraded windows after which an unfired drift alert is a failure.
const ALERT_DEADLINE_WINDOWS: u64 = 40;
/// Timed `start` calls behind the `start` row; the row is their median.
const START_SAMPLES: usize = 11;
/// Floor (in windows) applied to the *gated* alert latency: the alarm
/// lands on a window boundary ±1 window of alignment jitter, so
/// latencies under the floor are quantization noise, not signal. The
/// gate then only fails on real detector regressions (past
/// `floor × (1 + tolerance)`), while the raw latency stays reported.
const GATE_LATENCY_FLOOR_WINDOWS: u64 = 8;

/// Ingestion-service soak result (`BENCH_service.json`).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ServiceSoakBench {
    /// Simulation seed.
    pub seed: u64,
    /// Concurrent phone (client) threads in the throughput phase.
    pub phones: usize,
    /// Uploads per phone.
    pub trips_per_phone: usize,
    /// Total uploads of the throughput phase.
    pub trips_total: usize,
    /// Roads in the network / edges in the served tile.
    pub roads: usize,
    /// Service worker threads.
    pub workers: usize,
    /// Bounded accept-queue depth of the throughput server.
    pub queue_depth: usize,
    /// `start` with `ServeConfig::default()` on `city_network(3)` (the
    /// e2ebench `ingest` and `app_sessions` network, 161 edges, so the
    /// index build is priced at a city's size): index build, telemetry
    /// ring, worker and accept threads. Each call is timed alone; the
    /// shutdown after it is not timed.
    pub start: BenchReport,
    /// Wall clock of the upload phase, first send to last ack.
    pub upload_elapsed_ns: u64,
    /// Sustained upload throughput over loopback.
    pub sustained_trips_per_sec: f64,
    /// Inverse throughput (gate metric; lower is better).
    pub sustained_ns_per_trip: f64,
    /// Client-observed median upload frame latency.
    pub frame_p50_ns: f64,
    /// Client-observed p99 upload frame latency.
    pub frame_p99_ns: f64,
    /// Warm bbox tile query, client-observed round trip.
    pub tile_query: BenchReport,
    /// Whether the served tile bytes equalled direct `FleetEngine` +
    /// `CloudAggregator` aggregation over the same trips.
    pub tiles_bit_identical: bool,
    /// Edges carried by the compared tile.
    pub tile_edges: usize,
    /// Uploads acknowledged by the throughput server (must equal
    /// `trips_total`).
    pub uploads_acked: u64,
    /// Frames rejected by the throughput server (must be zero — the
    /// fleet is well-behaved).
    pub frames_rejected: u64,
    /// Upload attempts of the overload phase.
    pub overload_attempts: u64,
    /// Typed BUSY rejects the overload server answered.
    pub overload_busy_rejects: u64,
    /// BUSY rejects per attempt under ~2x overload.
    pub overload_reject_rate: f64,
    /// Whether every overload client terminated (no wedged phone).
    pub overload_clients_finished: bool,
    /// Worst-case heap allocations in one warm decode → estimate
    /// window (`None` when no counting allocator is installed;
    /// the smoke gate asserts `Some(0)`).
    pub allocs_per_frame_warm: Option<u64>,
    /// Whether every shutdown drained cleanly (in-flight reached zero
    /// after the joins), including the drain raced by a live uploader.
    pub drain_clean: bool,
    /// Whether the METRICS frame's exposition passed the Prometheus
    /// grammar check.
    pub prometheus_valid: bool,
    /// Whether the healthy stretch of the telemetry phase stayed
    /// drift-free at every STATUS poll (no false positives).
    pub status_healthy_drift_free: bool,
    /// Whether the STATUS frame latency quantiles were monotone and
    /// inside the sketch's relative-error bound of the exact
    /// server-side span extremes.
    pub status_quantiles_in_bounds: bool,
    /// Whether a drift alert fired after sensor degradation.
    pub drift_alert_fired: bool,
    /// Signals reporting drift when the alert fired (per-signal names
    /// from the STATUS quality array).
    pub drift_signals: Vec<String>,
    /// Wall-clock from the first degraded upload to the first STATUS
    /// poll reporting drift (the deadline is `ALERT_DEADLINE_WINDOWS`
    /// windows).
    pub alert_latency_ns: f64,
    /// The same latency in telemetry windows.
    pub alert_latency_windows: f64,
    /// The gated detection latency: `alert_latency_ns` floored to
    /// `GATE_LATENCY_FLOOR_WINDOWS` windows so window-boundary jitter
    /// cannot fail the perf gate (see the constant's doc).
    pub alert_latency_gate_ns: f64,
    /// Observability report of the throughput server: service-frame /
    /// service-decode / service-tile-query spans, service counters,
    /// and the per-trip pipeline spans under them.
    pub obs: RunReport,
}

/// The soak network: `ROADS` disjoint straight roads, 300 m each,
/// stacked 120 m apart with distinct gradients. Short trips keep a
/// warm estimate in the hundreds of microseconds, so the soak measures
/// the service, not the simulator.
fn soak_network() -> RoadNetwork {
    let mut net = RoadNetwork::new();
    for i in 0..ROADS {
        let spec = SectionSpec {
            length_m: 300.0,
            gradient_deg: 0.6 + 0.35 * i as f64,
            lanes: 1,
            curvature: 0.0,
        };
        let road = build_from_sections(
            100 + i as u64,
            format!("soak-{i}"),
            Vec2::new(0.0, i as f64 * 120.0),
            0.0,
            &[spec],
            5.0,
            100.0,
            RoadClass::Collector.default_speed_limit(),
            RoadClass::Collector,
        )
        .expect("straight section is valid");
        let a = net.add_node(road.point_at(0.0));
        let b = net.add_node(road.point_at(road.length()));
        net.add_edge(a, b, road).expect("endpoints coincide with nodes");
    }
    net
}

/// Simulates the trip pool: `POOL` logs cycling over the roads.
fn trip_pool(net: &RoadNetwork, seed: u64) -> Vec<SensorLog> {
    (0..POOL)
        .map(|i| {
            let road = net.edges()[i % ROADS].road.clone();
            let route = Route::new(vec![road]).expect("single-road route");
            let trip_seed = seed.wrapping_add(i as u64);
            let traj = simulate_trip(&route, &TripConfig::default(), trip_seed);
            SensorSuite::new(SensorConfig::default())
                .run(&traj, trip_seed.wrapping_mul(31).wrapping_add(7))
        })
        .collect()
}

/// Degraded-sensor logs for the telemetry phase: a starved IMU (the
/// accelerometer fusion weight collapses against the dense sources),
/// a much noisier accelerometer (per-trip mean NIS leaves the
/// consistency band), and two long GPS outages per trip (the dropout
/// counter jumps from zero).
fn degraded_pool(net: &RoadNetwork, seed: u64) -> Vec<SensorLog> {
    let mut cfg = SensorConfig {
        imu_rate_hz: 5.0,
        gps_outages: vec![(3.0, 8.0), (12.0, 18.0)],
        ..Default::default()
    };
    cfg.accel_noise.white_sd *= 25.0;
    cfg.accel_noise.bias_init_sd *= 25.0;
    (0..8)
        .map(|i| {
            let road = net.edges()[i % ROADS].road.clone();
            let route = Route::new(vec![road]).expect("single-road route");
            let trip_seed = seed.wrapping_add(i as u64);
            let traj = simulate_trip(&route, &TripConfig::default(), trip_seed);
            SensorSuite::new(cfg.clone()).run(&traj, trip_seed.wrapping_mul(31).wrapping_add(7))
        })
        .collect()
}

/// One decoded STATUS snapshot: the fields the telemetry phase judges.
struct StatusSnapshot {
    drifting: bool,
    drift_signals: Vec<String>,
    frame_count: u64,
    p50_ns: Option<f64>,
    p90_ns: Option<f64>,
    p99_ns: Option<f64>,
    raw: String,
}

/// Fetches and decodes one STATUS frame.
fn poll_status(client: &mut Client) -> StatusSnapshot {
    let raw = match client.status().expect("status poll") {
        ServerReply::Status(text) => text,
        other => panic!("unexpected status reply: {other:?}"),
    };
    let doc: Value = serde_json::from_str(&raw).expect("STATUS frame carries valid JSON");
    let drift_signals = doc["quality"]
        .as_array()
        .map(|signals| {
            signals
                .iter()
                .filter(|s| s["drifting"].as_bool() == Some(true))
                .filter_map(|s| s["signal"].as_str().map(|n| n.to_string()))
                .collect()
        })
        .unwrap_or_default();
    StatusSnapshot {
        drifting: doc["drifting"].as_bool() == Some(true),
        drift_signals,
        frame_count: doc["frame"]["count"].as_u64().unwrap_or(0),
        p50_ns: doc["frame"]["p50_ns"].as_f64(),
        p90_ns: doc["frame"]["p90_ns"].as_f64(),
        p99_ns: doc["frame"]["p99_ns"].as_f64(),
        raw,
    }
}

/// The reference tile: the same `(road_id, log)` multiset pushed
/// through `FleetEngine::process_batch_to_cloud_recorded` into a
/// direct `CloudAggregator`, serialized by the same `TileWriter`.
/// Every trip carries a distinct road id, so f64 fusion order cannot
/// differ between the concurrent service and this reference.
fn reference_tile(
    net: &RoadNetwork,
    cfg: &ServeConfig,
    pool: &[SensorLog],
    total: usize,
) -> (Vec<u8>, usize) {
    let logs: Vec<SensorLog> = (0..total).map(|t| pool[t % pool.len()].clone()).collect();
    let road_ids: Vec<u64> = (0..total as u64).collect();
    let cloud = CloudAggregator::new(cfg.grid_ds);
    let engine = FleetEngine::new(GradientEstimator::new(cfg.estimator.clone()), 2);
    let _ = engine.process_batch_to_cloud_recorded(&logs, &road_ids, None, &cloud, &NoopRecorder);
    let index = NetworkIndex::build(net);
    let mut edges = Vec::new();
    let mut query = QueryScratch::new();
    edges_in_tile_into(&index, index.bounds(), &mut query, &mut edges);
    let mut payload = Vec::new();
    let mut track = GradientTrack::new("");
    let mut writer = TileWriter::begin(&mut payload);
    for edge in &edges {
        if cloud.road_profile_into(u64::from(*edge), &mut track) {
            writer.push_edge(*edge, &track);
        }
    }
    writer.finish();
    (payload, edges.len())
}

/// Times [`START_SAMPLES`] calls of `start` with the default
/// configuration on `net`, after one untimed warm-up, each followed by
/// an untimed shutdown.
fn start_bench(net: &RoadNetwork) -> BenchReport {
    let rec = Arc::new(NoopRecorder);
    let mut per_op = Vec::with_capacity(START_SAMPLES);
    for sample in 0..=START_SAMPLES {
        let t = Instant::now();
        let server = start(&ServeConfig::default(), "127.0.0.1:0", net, Arc::clone(&rec))
            .expect("bind loopback");
        let ns = t.elapsed().as_nanos() as f64;
        if sample > 0 {
            per_op.push(ns);
        }
        server.shutdown();
    }
    BenchReport::from_samples("service_start", 1, per_op)
}

fn percentile(sorted_ns: &[u64], q: f64) -> f64 {
    if sorted_ns.is_empty() {
        return 0.0;
    }
    let idx = ((sorted_ns.len() - 1) as f64 * q).round() as usize;
    sorted_ns[idx.min(sorted_ns.len() - 1)] as f64
}

/// Writes a non-JSON service artifact (Prometheus exposition, trace
/// sequence) next to the experiment JSONs; failures warn, never abort.
fn save_artifact(name: &str, body: &str) {
    let dir = results_dir();
    if let Err(e) = std::fs::create_dir_all(&dir) {
        eprintln!("warning: cannot create {}: {e}", dir.display());
        return;
    }
    let path = dir.join(name);
    if let Err(e) = std::fs::write(&path, body) {
        eprintln!("warning: cannot write {}: {e}", path.display());
    } else {
        println!("[saved {}]", path.display());
    }
}

/// Runs the ingestion soak: timed server starts, a throughput/identity
/// phase with `phones` concurrent clients, a sequential
/// warm-allocation phase, an overload phase at ~2x capacity, a drain
/// raced by a live uploader, and the telemetry phase.
pub fn run(seed: u64, phones: usize, trips_per_phone: usize) -> ServiceSoakBench {
    assert!(phones > 0 && trips_per_phone > 0, "need at least one phone and trip");
    let net = soak_network();
    let pool = Arc::new(trip_pool(&net, seed));
    let total = phones * trips_per_phone;
    if alloc_counter::is_installed() {
        install_alloc_probe(alloc_counter::allocations);
    }
    let start_cost = start_bench(&city_network(3));

    // ---- Phase 1: throughput + identity -------------------------------
    let cfg = ServeConfig { workers: 2, queue_depth: phones.max(2), ..Default::default() };
    let rec = Arc::new(Tee::new(RunRecorder::new(), TraceRing::with_capacity(8192)));
    let server = start(&cfg, "127.0.0.1:0", &net, Arc::clone(&rec)).expect("bind loopback");
    let addr = server.addr();

    let upload_start = Instant::now();
    let mut latencies: Vec<u64> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..phones)
            .map(|p| {
                let pool = Arc::clone(&pool);
                scope.spawn(move || {
                    let mut client = Client::connect(addr, CLIENT_TIMEOUT).expect("phone connects");
                    let mut lat = Vec::with_capacity(trips_per_phone);
                    for k in 0..trips_per_phone {
                        let t = p * trips_per_phone + k;
                        let log = &pool[t % pool.len()];
                        let frame_start = Instant::now();
                        match client.upload(t as u64, log).expect("upload") {
                            ServerReply::Ack { road_id } => assert_eq!(road_id, t as u64),
                            other => panic!("phone {p} got {other:?}"),
                        }
                        lat.push(frame_start.elapsed().as_nanos() as u64);
                    }
                    lat
                })
            })
            .collect();
        handles.into_iter().flat_map(|h| h.join().expect("phone thread")).collect()
    });
    let upload_elapsed_ns = upload_start.elapsed().as_nanos() as u64;
    latencies.sort_unstable();
    let sustained_ns_per_trip = upload_elapsed_ns as f64 / total as f64;
    let sustained_trips_per_sec = total as f64 / (upload_elapsed_ns as f64 / 1e9);

    // Metrics + tile on the warm server.
    let mut client = Client::connect(addr, CLIENT_TIMEOUT).expect("connect");
    let prometheus_valid = match client.metrics().expect("metrics") {
        ServerReply::Metrics(text) => {
            save_artifact("service_soak_prometheus.txt", &text);
            validate_prometheus_text(&text).is_ok()
        }
        other => panic!("unexpected metrics reply: {other:?}"),
    };
    let index = NetworkIndex::build(&net);
    let bounds = index.bounds();
    let served_tile = match client.tile_query(&bounds).expect("tile query") {
        ServerReply::Tile(payload) => payload,
        other => panic!("unexpected tile reply: {other:?}"),
    };
    let tile_query = run_bench("service_tile_query", 3, 8, || {
        for _ in 0..8 {
            match client.tile_query(&bounds).expect("tile query") {
                ServerReply::Tile(_) => {}
                other => panic!("unexpected tile reply: {other:?}"),
            }
        }
    });
    let (reference, tile_edges) = reference_tile(&net, &cfg, &pool, total);
    let tiles_bit_identical = served_tile == reference;

    drop(client);
    let report = server.shutdown();
    let mut drain_clean = report.is_clean();
    let uploads_acked = report.stats.uploads_acked;
    let frames_rejected = report.stats.frames_rejected;
    save_artifact("service_soak_trace.txt", &rec.b.snapshot().sequence_string());

    // ---- Phase 2: warm-allocation window, sequential ------------------
    // A dedicated quiescent server: one client, one frame in flight, so
    // the probe diff around decode → estimate sees only the worker.
    let allocs_per_frame_warm = if alloc_counter::is_installed() {
        let warm_server = start(
            &ServeConfig { workers: 1, ..Default::default() },
            "127.0.0.1:0",
            &net,
            Arc::new(NoopRecorder),
        )
        .expect("bind loopback");
        let mut client = Client::connect(warm_server.addr(), CLIENT_TIMEOUT).expect("connect");
        for k in 0..8u64 {
            match client.upload(1_000_000 + k, &pool[0]).expect("warm upload") {
                ServerReply::Ack { .. } => {}
                other => panic!("unexpected warm reply: {other:?}"),
            }
        }
        drop(client);
        let warm_report = warm_server.shutdown();
        drain_clean &= warm_report.is_clean();
        warm_report.stats.max_warm_frame_allocs
    } else {
        None
    };

    // ---- Phase 3: overload at ~2x capacity ----------------------------
    // One worker and a one-deep queue; `2 * capacity` eager phones on
    // fresh connections guarantee accept-queue BUSY rejects while every
    // ack still fuses. All clients must terminate on their own.
    let overload_cfg = ServeConfig { workers: 1, queue_depth: 1, ..Default::default() };
    let overload_server =
        start(&overload_cfg, "127.0.0.1:0", &net, Arc::new(NoopRecorder)).expect("bind loopback");
    let overload_addr = overload_server.addr();
    let overload_phones = 4usize;
    let attempts_each = 6usize;
    let results: Vec<(u64, u64, bool)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..overload_phones)
            .map(|p| {
                let pool = Arc::clone(&pool);
                scope.spawn(move || {
                    let mut acked = 0u64;
                    let mut busy = 0u64;
                    for k in 0..attempts_each {
                        let Ok(mut client) = Client::connect(overload_addr, CLIENT_TIMEOUT) else {
                            continue;
                        };
                        match client.upload((2_000_000 + p * 100 + k) as u64, &pool[0]) {
                            Ok(ServerReply::Ack { .. }) => acked += 1,
                            Ok(ServerReply::Busy { .. }) => busy += 1,
                            Ok(other) => panic!("unexpected overload reply: {other:?}"),
                            Err(_) => {}
                        }
                    }
                    (acked, busy, true)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap_or((0, 0, false))).collect()
    });
    let overload_attempts = (overload_phones * attempts_each) as u64;
    let overload_busy_rejects: u64 = results.iter().map(|(_, b, _)| b).sum();
    let overload_clients_finished =
        results.len() == overload_phones && results.iter().all(|(_, _, finished)| *finished);

    // ---- Phase 4: drain raced by a live uploader ----------------------
    let drained_mid_upload = std::thread::scope(|scope| {
        let pool = Arc::clone(&pool);
        let uploader = scope.spawn(move || {
            let Ok(mut client) = Client::connect(overload_addr, CLIENT_TIMEOUT) else {
                return;
            };
            for k in 0..64u64 {
                // Acks, BUSY(draining), or a closed socket all end the
                // phone's session cleanly.
                if client.upload(3_000_000 + k, &pool[0]).is_err() {
                    return;
                }
            }
        });
        std::thread::sleep(Duration::from_millis(30));
        let report = overload_server.shutdown();
        uploader.join().expect("uploader thread");
        report.is_clean()
    });
    drain_clean &= drained_mid_upload;

    // ---- Phase 5: live telemetry + drift detection --------------------
    // A dedicated server with short windows so the ring, the SLO table,
    // and the drift monitors all see dozens of completed windows inside
    // the phase. A healthy stretch must stay alert-free, then degraded
    // sensor logs must trip a quality alert within the deadline.
    let telemetry_cfg = ServeConfig {
        workers: 1,
        timeseries: TimeSeriesConfig { window_ns: TELEMETRY_WINDOW_NS, windows: TELEMETRY_WINDOWS },
        ..Default::default()
    };
    let tele_rec = Arc::new(RunRecorder::new());
    let tele_server =
        start(&telemetry_cfg, "127.0.0.1:0", &net, Arc::clone(&tele_rec)).expect("bind loopback");
    let mut phone = Client::connect(tele_server.addr(), CLIENT_TIMEOUT).expect("connect");

    // Healthy stretch: clean uploads until HEALTHY_WINDOWS complete
    // windows have elapsed, polling STATUS along the way — every poll
    // must be drift-free.
    let healthy_start_w = tele_server.telemetry_now_ns() / TELEMETRY_WINDOW_NS;
    let mut status_healthy_drift_free = true;
    let mut k = 0u64;
    while tele_server.telemetry_now_ns() / TELEMETRY_WINDOW_NS < healthy_start_w + HEALTHY_WINDOWS {
        match phone.upload(4_000_000 + k, &pool[(k as usize) % pool.len()]).expect("upload") {
            ServerReply::Ack { .. } => {}
            other => panic!("unexpected telemetry-phase reply: {other:?}"),
        }
        if k % 8 == 7 {
            status_healthy_drift_free &= !poll_status(&mut phone).drifting;
        }
        k += 1;
    }
    let healthy_status = poll_status(&mut phone);
    status_healthy_drift_free &= !healthy_status.drifting;

    // Oracle check: the STATUS quantiles come from the windowed
    // sketches, the Tee'd RunRecorder aggregates the very same
    // `service-frame` span durations exactly. The estimates must be
    // monotone and inside the sketch's relative-error bound of the
    // exact extremes.
    let status_quantiles_in_bounds = match (
        healthy_status.p50_ns,
        healthy_status.p90_ns,
        healthy_status.p99_ns,
        tele_rec.report().span("service-frame"),
    ) {
        (Some(p50), Some(p90), Some(p99), Some(frame)) => {
            let lo = frame.min_ns as f64 * (1.0 - SKETCH_RELATIVE_ERROR);
            let hi = frame.max_ns as f64 * (1.0 + SKETCH_RELATIVE_ERROR);
            let count_ok =
                healthy_status.frame_count > 0 && healthy_status.frame_count <= frame.count;
            p50 <= p90 && p90 <= p99 && p50 >= lo && p99 <= hi && count_ok
        }
        _ => false,
    };

    // Degraded stretch: upload broken-sensor trips until a STATUS poll
    // reports drift (or the deadline passes with no alert).
    let degraded = degraded_pool(&net, seed.wrapping_add(0x5EED));
    let degrade_start_ns = tele_server.telemetry_now_ns();
    let mut drift_alert_fired = false;
    let mut drift_signals = Vec::new();
    let alert_latency_ns;
    let mut final_status_raw = healthy_status.raw;
    let mut k = 0u64;
    loop {
        let now_ns = tele_server.telemetry_now_ns();
        if now_ns.saturating_sub(degrade_start_ns) / TELEMETRY_WINDOW_NS > ALERT_DEADLINE_WINDOWS {
            alert_latency_ns = now_ns - degrade_start_ns;
            break;
        }
        match phone.upload(5_000_000 + k, &degraded[(k as usize) % degraded.len()]).expect("upload")
        {
            ServerReply::Ack { .. } => {}
            other => panic!("unexpected degraded-phase reply: {other:?}"),
        }
        if k % 4 == 3 {
            let status = poll_status(&mut phone);
            if status.drifting {
                drift_alert_fired = true;
                drift_signals = status.drift_signals;
                alert_latency_ns = tele_server.telemetry_now_ns() - degrade_start_ns;
                final_status_raw = status.raw;
                break;
            }
        }
        k += 1;
    }
    save_artifact("service_soak_status.json", &final_status_raw);

    drop(phone);
    let tele_report = tele_server.shutdown();
    drain_clean &= tele_report.is_clean();

    ServiceSoakBench {
        seed,
        phones,
        trips_per_phone,
        trips_total: total,
        roads: ROADS,
        workers: cfg.workers,
        queue_depth: cfg.queue_depth,
        start: start_cost,
        upload_elapsed_ns,
        sustained_trips_per_sec,
        sustained_ns_per_trip,
        frame_p50_ns: percentile(&latencies, 0.50),
        frame_p99_ns: percentile(&latencies, 0.99),
        tile_query,
        tiles_bit_identical,
        tile_edges,
        uploads_acked,
        frames_rejected,
        overload_attempts,
        overload_busy_rejects,
        overload_reject_rate: overload_busy_rejects as f64 / overload_attempts as f64,
        overload_clients_finished,
        allocs_per_frame_warm,
        drain_clean,
        prometheus_valid,
        status_healthy_drift_free,
        status_quantiles_in_bounds,
        drift_alert_fired,
        drift_signals,
        alert_latency_ns: alert_latency_ns as f64,
        alert_latency_windows: alert_latency_ns as f64 / TELEMETRY_WINDOW_NS as f64,
        alert_latency_gate_ns: alert_latency_ns
            .max(GATE_LATENCY_FLOOR_WINDOWS * TELEMETRY_WINDOW_NS)
            as f64,
        obs: rec.a.report(),
    }
}

/// Renders the soak summary and saves `service_soak.json`.
pub fn print_report(r: &ServiceSoakBench) {
    let rows = vec![
        vec!["server start".to_string(), format!("{:.2} ms", r.start.median_ns_per_op / 1e6)],
        vec![
            "uploads".to_string(),
            format!("{} ({} phones x {})", r.trips_total, r.phones, r.trips_per_phone),
        ],
        vec![
            "sustained throughput".to_string(),
            format!(
                "{:.0} trips/s ({:.2} ms/trip)",
                r.sustained_trips_per_sec,
                r.sustained_ns_per_trip / 1e6
            ),
        ],
        vec![
            "frame latency p50 / p99".to_string(),
            format!("{:.2} / {:.2} ms", r.frame_p50_ns / 1e6, r.frame_p99_ns / 1e6),
        ],
        vec![
            "tile query".to_string(),
            format!("{:.2} ms ({} edges)", r.tile_query.median_ns_per_op / 1e6, r.tile_edges),
        ],
        vec!["tiles bit-identical".to_string(), r.tiles_bit_identical.to_string()],
        vec![
            "overload rejects".to_string(),
            format!(
                "{}/{} busy ({:.0}%), clients finished: {}",
                r.overload_busy_rejects,
                r.overload_attempts,
                r.overload_reject_rate * 100.0,
                r.overload_clients_finished
            ),
        ],
        vec![
            "warm allocs/frame".to_string(),
            r.allocs_per_frame_warm.map_or("not measured".to_string(), |a| a.to_string()),
        ],
        vec!["drain clean".to_string(), r.drain_clean.to_string()],
        vec!["prometheus valid".to_string(), r.prometheus_valid.to_string()],
        vec!["healthy phase drift-free".to_string(), r.status_healthy_drift_free.to_string()],
        vec!["status quantiles in bounds".to_string(), r.status_quantiles_in_bounds.to_string()],
        vec![
            "drift alert".to_string(),
            if r.drift_alert_fired {
                format!(
                    "fired after {:.1} windows ({:.0} ms): {}",
                    r.alert_latency_windows,
                    r.alert_latency_ns / 1e6,
                    r.drift_signals.join(", ")
                )
            } else {
                format!("MISSED deadline of {ALERT_DEADLINE_WINDOWS} windows")
            },
        ],
    ];
    print_table("Ingestion service soak (loopback)", &["metric", "value"], &rows);
    save_json("service_soak", r);
}
