//! End-to-end loopback tests for the ingestion service: the exact
//! correctness bar of DESIGN.md §14 — tiles served over the wire must
//! be *bit-identical* to direct `FleetEngine` + `CloudAggregator`
//! aggregation over the same trips, shutdown must drain cleanly, and
//! the backpressure/error paths must answer with typed frames.

use gradest_core::cloud::CloudAggregator;
use gradest_core::fleet::FleetEngine;
use gradest_core::pipeline::{EstimatorConfig, GradientEstimator};
use gradest_core::track::GradientTrack;
use gradest_geo::road::{build_from_sections, RoadClass, SectionSpec};
use gradest_geo::tile::edges_in_tile_into;
use gradest_geo::{NetworkIndex, QueryScratch, RoadNetwork, Route};
use gradest_obs::{validate_prometheus_text, NoopRecorder, RunRecorder, TraceRing};
use gradest_sensors::suite::{SensorConfig, SensorLog, SensorSuite};
use gradest_serve::client::{Client, ServerReply};
use gradest_serve::protocol::{
    decode_tile, TileWriter, BUSY_QUEUE_FULL, HEADER_BYTES, MAX_PAYLOAD_LEN, TAG_UPLOAD,
};
use gradest_serve::server::{start, ServeConfig};
use gradest_sim::trip::{simulate_trip, TripConfig};
use std::sync::Arc;
use std::time::Duration;

const TIMEOUT: Duration = Duration::from_secs(5);

/// A network of `n` disjoint straight roads stacked 120 m apart, each
/// 300 m with its own gradient — short enough that a warm estimate is
/// a fraction of a millisecond even on one core.
fn parallel_roads_network(n: usize) -> RoadNetwork {
    let mut net = RoadNetwork::new();
    for i in 0..n {
        let spec = SectionSpec {
            length_m: 300.0,
            gradient_deg: 0.8 + 0.3 * i as f64,
            lanes: 1,
            curvature: 0.0,
        };
        let road = build_from_sections(
            100 + i as u64,
            format!("r{i}"),
            gradest_math::Vec2::new(0.0, i as f64 * 120.0),
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

/// Simulates one trip along edge `edge` of `net`, deterministic in
/// `seed`.
fn trip_log(net: &RoadNetwork, edge: usize, seed: u64) -> SensorLog {
    let route = Route::new(vec![net.edges()[edge].road.clone()]).expect("single-road route");
    let traj = simulate_trip(&route, &TripConfig::default(), seed);
    SensorSuite::new(SensorConfig::default()).run(&traj, seed.wrapping_mul(31).wrapping_add(7))
}

/// The reference tile: direct fleet aggregation over the same trips,
/// serialized through the same `TileWriter`.
fn reference_tile_payload(
    net: &RoadNetwork,
    logs: &[SensorLog],
    road_ids: &[u64],
    config: &EstimatorConfig,
    grid_ds: f64,
) -> Vec<u8> {
    let cloud = CloudAggregator::new(grid_ds);
    let engine = FleetEngine::new(GradientEstimator::new(config.clone()), 2);
    let _ = engine.process_batch_to_cloud_recorded(logs, road_ids, None, &cloud, &NoopRecorder);
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
    payload
}

#[test]
fn served_tiles_are_bit_identical_to_direct_aggregation() {
    let net = parallel_roads_network(4);
    let cfg = ServeConfig { workers: 2, ..Default::default() };
    let trips: Vec<(u64, SensorLog)> = (0..12u64)
        .map(|i| {
            let edge = (i % 4) as usize;
            (edge as u64, trip_log(&net, edge, 1000 + i))
        })
        .collect();

    let rec = Arc::new(RunRecorder::new());
    let server = start(&cfg, "127.0.0.1:0", &net, Arc::clone(&rec)).expect("bind loopback");
    let mut client = Client::connect(server.addr(), TIMEOUT).expect("connect");
    for (road_id, log) in &trips {
        match client.upload(*road_id, log).expect("upload") {
            ServerReply::Ack { road_id: acked } => assert_eq!(acked, *road_id),
            other => panic!("unexpected upload reply: {other:?}"),
        }
    }

    let index = NetworkIndex::build(&net);
    let served = match client.tile_query(&index.bounds()).expect("tile query") {
        ServerReply::Tile(payload) => payload,
        other => panic!("unexpected tile reply: {other:?}"),
    };

    let logs: Vec<SensorLog> = trips.iter().map(|(_, log)| log.clone()).collect();
    let road_ids: Vec<u64> = trips.iter().map(|(id, _)| *id).collect();
    let reference = reference_tile_payload(&net, &logs, &road_ids, &cfg.estimator, cfg.grid_ds);
    assert_eq!(served, reference, "served tile bytes differ from direct aggregation");

    let decoded = decode_tile(&served).expect("tile decodes");
    assert_eq!(decoded.len(), 4, "one fused profile per road");
    for (_, track) in &decoded {
        assert!(!track.is_empty());
    }

    drop(client);
    let report = server.shutdown();
    assert!(report.is_clean(), "drain left uploads in flight: {report:?}");
    assert_eq!(report.stats.uploads_acked, 12);
    assert_eq!(report.stats.tile_queries, 1);
    assert_eq!(report.stats.frames_rejected, 0);
    let obs = rec.report();
    assert!(obs.spans.iter().any(|s| s.name == "service-frame" && s.count == 13));
}

#[test]
fn metrics_frame_serves_valid_prometheus() {
    let net = parallel_roads_network(1);
    let server = start(&ServeConfig::default(), "127.0.0.1:0", &net, Arc::new(NoopRecorder))
        .expect("bind loopback");
    let mut client = Client::connect(server.addr(), TIMEOUT).expect("connect");
    let log = trip_log(&net, 0, 42);
    client.upload(0, &log).expect("upload");
    let text = match client.metrics().expect("metrics") {
        ServerReply::Metrics(text) => text,
        other => panic!("unexpected metrics reply: {other:?}"),
    };
    validate_prometheus_text(&text).expect("exposition grammar");
    assert!(text.contains("gradest_service_uploads_acked_total 1"));
    assert!(text.contains("gradest_service_in_flight 0"));
    // Telemetry-loss counter and the timestamped uptime gauge are part
    // of the exposition (the validator accepts the explicit timestamp).
    assert!(text.contains("gradest_trace_dropped_events_total 0"));
    assert!(text.contains("gradest_service_uptime_seconds "));
    drop(client);
    assert!(server.shutdown().is_clean());
}

#[test]
fn status_frame_serves_live_slo_and_drift_state() {
    let net = parallel_roads_network(1);
    let server = start(&ServeConfig::default(), "127.0.0.1:0", &net, Arc::new(NoopRecorder))
        .expect("bind loopback");
    let mut client = Client::connect(server.addr(), TIMEOUT).expect("connect");
    let log = trip_log(&net, 0, 77);
    for _ in 0..3 {
        client.upload(0, &log).expect("upload");
    }
    let text = match client.status().expect("status") {
        ServerReply::Status(text) => text,
        other => panic!("unexpected status reply: {other:?}"),
    };
    let v: serde_json::Value = serde_json::from_str(&text).expect("status is valid JSON");
    assert_eq!(v["state"], serde_json::Value::String("healthy".into()), "idle fleet: {text}");
    assert_eq!(v["drifting"], serde_json::Value::Bool(false));
    let slos = v["slos"].as_array().expect("slos array");
    assert_eq!(slos.len(), 3, "default SLO table");
    for slo in slos {
        assert_eq!(slo["state"], serde_json::Value::String("healthy".into()), "{text}");
    }
    assert_eq!(v["quality"].as_array().expect("quality array").len(), 3);
    assert!(v["uptime_seconds"].as_f64().expect("uptime") >= 0.0);
    // The three uploads were recorded into the live ring.
    let frame = &v["frame"];
    assert!(frame["count"].as_f64().expect("frame count") >= 3.0, "{text}");
    assert!(frame["p50_ns"].as_f64().expect("p50") > 0.0);
    drop(client);
    let report = server.shutdown();
    assert!(report.is_clean());
    assert_eq!(report.stats.status_queries, 1);
}

#[test]
fn hostile_frames_get_typed_errors_and_the_server_survives() {
    let net = parallel_roads_network(1);
    let rec = Arc::new(TraceRing::with_capacity(256));
    let server = start(&ServeConfig::default(), "127.0.0.1:0", &net, Arc::clone(&rec))
        .expect("bind loopback");

    // Garbage tag → ERR(unknown-tag); the server closes that conn.
    let mut hostile = Client::connect(server.addr(), TIMEOUT).expect("connect");
    let frame = [0x7f, 0, 0, 0, 0];
    match hostile.send_raw(&frame).expect("reply") {
        ServerReply::Err { code } => assert_eq!(code, 1, "unknown-tag code"),
        other => panic!("unexpected reply: {other:?}"),
    }

    // Oversized declared length → ERR(oversized).
    let mut hostile = Client::connect(server.addr(), TIMEOUT).expect("connect");
    let mut frame = vec![TAG_UPLOAD];
    frame.extend_from_slice(&(MAX_PAYLOAD_LEN as u32 + 1).to_le_bytes());
    match hostile.send_raw(&frame).expect("reply") {
        ServerReply::Err { code } => assert_eq!(code, 2, "oversized code"),
        other => panic!("unexpected reply: {other:?}"),
    }

    // Structurally broken upload (one IMU sample) → ERR(malformed).
    let mut hostile = Client::connect(server.addr(), TIMEOUT).expect("connect");
    let mut log = SensorLog::default();
    log.imu.push(gradest_sensors::samples::ImuSample {
        t: 0.0,
        accel_long: 0.0,
        accel_lat: 0.0,
        gyro_z: 0.0,
    });
    match hostile.upload(5, &log).expect("reply") {
        ServerReply::Err { code } => assert_eq!(code, 4, "malformed code"),
        other => panic!("unexpected reply: {other:?}"),
    }

    // A frame that lies about its length (more declared than sent):
    // the read times out server-side and the conn is dropped without a
    // reply — the server itself must keep serving.
    let mut liar = Client::connect(server.addr(), TIMEOUT).expect("connect");
    let mut frame = vec![TAG_UPLOAD];
    frame.extend_from_slice(&1024u32.to_le_bytes());
    frame.extend_from_slice(&[0u8; 16]);
    assert!(liar.send_raw(&frame).is_err(), "no reply for a half-delivered frame");

    // The server is still healthy: a well-formed upload round-trips.
    let mut client = Client::connect(server.addr(), TIMEOUT).expect("connect");
    let log = trip_log(&net, 0, 9);
    match client.upload(0, &log).expect("upload after hostility") {
        ServerReply::Ack { road_id } => assert_eq!(road_id, 0),
        other => panic!("unexpected reply: {other:?}"),
    }

    drop(client);
    let report = server.shutdown();
    assert!(report.is_clean());
    assert_eq!(report.stats.frames_rejected, 3);
    assert_eq!(report.stats.uploads_acked, 1);
    let trace = rec.snapshot().sequence_string();
    assert!(trace.contains("service-frame-rejected"), "rejections traced:\n{trace}");
}

#[test]
fn out_of_order_imu_times_are_rejected_without_killing_workers() {
    // A log outside the estimator's accepted domain (an IMU clock that
    // repeats, runs backwards, or is not finite; a GPS, speedometer or
    // CAN value the estimator reads that is not finite) is refused whole
    // at decode. Every worker survives to ACK a valid upload, the drain
    // stays clean, and the road holds what the valid upload alone gives.
    let net = parallel_roads_network(1);
    let cfg = ServeConfig { workers: 2, ..Default::default() };
    let server = start(&cfg, "127.0.0.1:0", &net, Arc::new(NoopRecorder)).expect("bind loopback");
    let valid = trip_log(&net, 0, 21);
    assert!(valid.gps[3].valid, "the corrupted fix is valid");
    let hostile: [fn(&mut SensorLog); 12] = [
        |log| log.imu[5].t = log.imu[4].t,
        |log| log.imu.swap(3, 4),
        |log| log.imu[2].t = f64::NAN,
        |log| log.imu[0].t = f64::NEG_INFINITY,
        |log| log.gps[3].t = f64::NAN,
        |log| log.gps[3].t = f64::INFINITY,
        |log| log.gps[3].position.y = f64::NAN,
        |log| log.gps[3].speed_mps = f64::NAN,
        |log| log.speedometer[3].t = f64::NAN,
        |log| log.speedometer[3].speed_mps = f64::INFINITY,
        |log| log.can[3].t = f64::NEG_INFINITY,
        |log| log.can[3].speed_mps = f64::NAN,
    ];
    // At least one hostile frame per worker, each on its own connection
    // (a malformed upload closes its connection).
    assert!(hostile.len() >= cfg.workers);
    for corrupt in hostile {
        let mut log = valid.clone();
        corrupt(&mut log);
        let mut client = Client::connect(server.addr(), TIMEOUT).expect("connect");
        match client.upload(0, &log).expect("reply to a hostile upload") {
            ServerReply::Err { code } => assert_eq!(code, 4, "malformed code"),
            other => panic!("unexpected reply: {other:?}"),
        }
    }

    let mut client = Client::connect(server.addr(), TIMEOUT).expect("connect");
    match client.upload(0, &valid).expect("upload after hostile frames") {
        ServerReply::Ack { road_id } => assert_eq!(road_id, 0),
        other => panic!("unexpected reply: {other:?}"),
    }
    drop(client);
    let profile = server.road_profile(0);
    let report = server.shutdown();
    assert!(report.is_clean(), "drain after hostile frames: {report:?}");
    assert_eq!(report.stats.frames_rejected, hostile.len() as u64);
    assert_eq!(report.stats.uploads_acked, 1);

    let reference = start(&ServeConfig::default(), "127.0.0.1:0", &net, Arc::new(NoopRecorder))
        .expect("bind loopback");
    let mut client = Client::connect(reference.addr(), TIMEOUT).expect("connect");
    match client.upload(0, &valid).expect("reply") {
        ServerReply::Ack { road_id } => assert_eq!(road_id, 0),
        other => panic!("unexpected reply: {other:?}"),
    }
    drop(client);
    assert!(profile.is_some());
    assert_eq!(profile, reference.road_profile(0), "a refused upload reached the map");
    assert!(reference.shutdown().is_clean());
}

#[test]
fn a_huge_imu_time_gap_is_acked_without_a_profile() {
    // Four IMU samples, the last three 1e9 s after the first: decode
    // accepts the strictly increasing times, and the estimate steps
    // every sample at the first interval. Resampling that runaway
    // odometer took a 32 GB allocation that brought the process down;
    // the frame must instead fuse nothing and leave the server serving.
    let net = parallel_roads_network(2);
    let server = start(&ServeConfig::default(), "127.0.0.1:0", &net, Arc::new(NoopRecorder))
        .expect("bind loopback");
    let imu = [0.0, 1e9 + 0.02, 1e9 + 0.04, 1e9 + 0.06].map(|t| {
        gradest_sensors::samples::ImuSample { t, accel_long: 0.0, accel_lat: 0.0, gyro_z: 0.0 }
    });
    let hostile = SensorLog { imu: imu.to_vec(), ..Default::default() };
    let mut client = Client::connect(server.addr(), TIMEOUT).expect("connect");
    for (road_id, log) in [(1, hostile), (0, trip_log(&net, 0, 9))] {
        match client.upload(road_id, &log).expect("reply") {
            ServerReply::Ack { road_id: acked } => assert_eq!(acked, road_id),
            other => panic!("unexpected reply: {other:?}"),
        }
    }
    assert!(server.road_profile(1).is_none(), "the hostile road has a profile");
    assert!(server.road_profile(0).is_some());
    drop(client);
    let report = server.shutdown();
    assert!(report.is_clean(), "drain after the hostile frame: {report:?}");
    assert_eq!(report.stats.uploads_acked, 2);
}

#[test]
fn full_accept_queue_answers_busy() {
    let net = parallel_roads_network(1);
    // One worker and a one-slot queue: the third concurrent idle
    // connection cannot fit anywhere and must be refused at accept.
    let cfg = ServeConfig { workers: 1, queue_depth: 1, ..Default::default() };
    let server = start(&cfg, "127.0.0.1:0", &net, Arc::new(NoopRecorder)).expect("bind loopback");

    let _held_by_worker = Client::connect(server.addr(), TIMEOUT).expect("connect");
    std::thread::sleep(Duration::from_millis(50));
    let _queued = Client::connect(server.addr(), TIMEOUT).expect("connect");
    std::thread::sleep(Duration::from_millis(50));

    let mut overflow = Client::connect(server.addr(), TIMEOUT).expect("connect");
    match overflow.metrics().expect("busy reply") {
        ServerReply::Busy { reason } => assert_eq!(reason, BUSY_QUEUE_FULL),
        other => panic!("unexpected reply: {other:?}"),
    }

    let report = server.shutdown();
    assert!(report.is_clean());
    assert!(report.stats.busy_rejects >= 1, "stats: {:?}", report.stats);
}

#[test]
fn upload_wire_overhead_is_modest() {
    // Sanity-pin the frame size: a trip's wire frame must stay within
    // the payload cap with generous headroom (half-hour-trip sizing is
    // documented on MAX_PAYLOAD_LEN).
    let net = parallel_roads_network(1);
    let log = trip_log(&net, 0, 3);
    let mut wire = Vec::new();
    gradest_serve::protocol::encode_upload_frame(0, &log, &mut wire);
    assert!(wire.len() > HEADER_BYTES);
    assert!(wire.len() < MAX_PAYLOAD_LEN / 8, "300 m trip frame is {} bytes", wire.len());
}
