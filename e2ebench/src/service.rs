//! The service workloads, `ingest` and `app_sessions`: closed loops of
//! two callers against `gradest_serve::server::start` over loopback.

use crate::inputs::{Inputs, Trip, BOXES_PER_CALLER, CALLERS};
use crate::layers::{self, TripMeans};
use crate::stats::{mean, pooled_rate, CpuTicks, Latency, Report, StealTimeline};
use crate::trace::{ns_since, tie, write_trace, BenchSpan, Frame, Op, SpanSink};
use crate::{map_err_line, push_end_to_end, trace_path, Measured, Workload};
use gradest_core::cloud::CloudAggregator;
use gradest_core::pipeline::{EstimatorScratch, GradientEstimate, GradientEstimator};
use gradest_core::track::GradientTrack;
use gradest_geo::tile::edges_in_tile_into;
use gradest_geo::{NetworkIndex, QueryScratch, RoadNetwork};
use gradest_obs::{NoopRecorder, Recorder, Span};
use gradest_serve::client::{Client, ClientError, ServerReply};
use gradest_serve::protocol::TileWriter;
use gradest_serve::server::{start, ServeConfig, ServerHandle, ServerStats};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

/// Client transport timeout.
pub const CLIENT_TIMEOUT: Duration = Duration::from_secs(10);
/// Server set-ups measured per run; `setup_s` is their median. Enough
/// that their CPU time spans many clock ticks of `/proc/stat`.
pub const SETUP_REPS: usize = 101;
/// Tile reads per app session.
pub const TILES_PER_SESSION: usize = 16;
/// First road id `ingest` files trips under; trip `i` goes to base + i.
pub const INGEST_ROAD_BASE: u64 = 1 << 32;

/// The verdict on one reply.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// Answered as expected.
    Ok,
    /// The server refused with BUSY.
    Busy,
    /// The server rejected the frame with ERR.
    Err,
    /// Connect, read or write failed.
    Transport,
    /// An ACK echoing another road id, or an unexpected reply kind.
    WrongReply,
    /// A tile that does not carry exactly the edges in its box.
    WrongTile,
}

/// Judges an UPLOAD reply: it must ACK `road_id`.
pub fn judge_upload(reply: &Result<ServerReply, ClientError>, road_id: u64) -> Outcome {
    match reply {
        Ok(ServerReply::Ack { road_id: echoed }) if *echoed == road_id => Outcome::Ok,
        Ok(ServerReply::Busy { .. }) => Outcome::Busy,
        Ok(ServerReply::Err { .. }) => Outcome::Err,
        Ok(_) => Outcome::WrongReply,
        Err(_) => Outcome::Transport,
    }
}

/// Judges a TILE_QUERY reply: once every edge carries fused cells, a
/// tile holds exactly the `expected` edges in its box. Returns the
/// verdict and the tile's edge count.
pub fn judge_tile(reply: &Result<ServerReply, ClientError>, expected: usize) -> (Outcome, u32) {
    match reply {
        Ok(ServerReply::Tile(payload)) => {
            let edges =
                payload.get(..4).map_or(u32::MAX, |b| u32::from_le_bytes([b[0], b[1], b[2], b[3]]));
            let outcome = if edges as usize == expected { Outcome::Ok } else { Outcome::WrongTile };
            (outcome, edges)
        }
        Ok(ServerReply::Busy { .. }) => (Outcome::Busy, 0),
        Ok(ServerReply::Err { .. }) => (Outcome::Err, 0),
        Ok(_) => (Outcome::WrongReply, 0),
        Err(_) => (Outcome::Transport, 0),
    }
}

/// Everything one caller did.
#[derive(Debug, Default)]
pub struct CallerLog {
    /// Its spans, in issue order.
    pub spans: Vec<BenchSpan>,
    /// ACKed uploads `(road id, pool trip)`, in ACK order.
    pub acked: Vec<(u64, usize)>,
    /// Requests that did not end [`Outcome::Ok`].
    pub failed: u64,
    caller: u32,
    conn: u32,
    seq: u64,
}

impl CallerLog {
    /// An empty log for generator thread `caller`.
    pub fn new(caller: usize, capacity: usize) -> Self {
        CallerLog {
            spans: Vec::with_capacity(capacity),
            caller: caller as u32,
            ..Default::default()
        }
    }

    fn next_id(&mut self) -> u64 {
        self.seq += 1;
        u64::from(self.caller + 1) << 40 | self.seq
    }

    #[allow(clippy::too_many_arguments)]
    fn record(
        &mut self,
        op: Op,
        parent: u64,
        start_ns: u64,
        end_ns: u64,
        outcome: Outcome,
        item: usize,
        edges: u32,
    ) -> u64 {
        let req = self.next_id();
        let ok = outcome == Outcome::Ok;
        if !ok {
            self.failed += 1;
        }
        self.spans.push(BenchSpan {
            op,
            req,
            parent,
            caller: self.caller,
            conn: self.conn,
            start_ns,
            end_ns,
            ok,
            item: item as u32,
            edges,
        });
        req
    }

    /// Opens a connection, recording a connect span.
    pub fn connect(
        &mut self,
        addr: std::net::SocketAddr,
        epoch: Instant,
        parent: u64,
    ) -> Option<Client> {
        self.conn += 1;
        let s = ns_since(epoch);
        let client = Client::connect(addr, CLIENT_TIMEOUT);
        let outcome = if client.is_ok() { Outcome::Ok } else { Outcome::Transport };
        self.record(Op::Connect, parent, s, ns_since(epoch), outcome, 0, 0);
        client.ok()
    }

    /// Uploads `trip` under `road`, recording the span and the ACK.
    pub fn upload(
        &mut self,
        client: &mut Client,
        epoch: Instant,
        parent: u64,
        road: u64,
        trip: usize,
        log: &Trip,
    ) -> Outcome {
        let s = ns_since(epoch);
        let reply = client.upload(road, &log.log);
        let e = ns_since(epoch);
        let outcome = judge_upload(&reply, road);
        self.record(Op::Upload, parent, s, e, outcome, trip, 0);
        if outcome == Outcome::Ok {
            self.acked.push((road, trip));
        }
        outcome
    }
}

/// `ingest` caller: one persistent connection, its own trips uploaded
/// back to back under its own road ids until `deadline`.
fn ingest_caller(
    addr: std::net::SocketAddr,
    c: usize,
    inputs: &Inputs,
    epoch: Instant,
    deadline: Instant,
    log: &mut CallerLog,
) {
    let trips: Vec<usize> = (c..inputs.trips.len()).step_by(CALLERS).collect();
    let mut client: Option<Client> = None;
    let mut k = 0usize;
    while Instant::now() < deadline {
        let Some(conn) = client.as_mut() else {
            client = log.connect(addr, epoch, 0);
            if client.is_none() {
                std::thread::sleep(Duration::from_millis(1));
            }
            continue;
        };
        let trip = trips[k % trips.len()];
        k += 1;
        let road = INGEST_ROAD_BASE + trip as u64;
        if log.upload(conn, epoch, 0, road, trip, &inputs.trips[trip]) != Outcome::Ok {
            // BUSY, ERR and transport failures all end the connection.
            client = None;
        }
    }
}

/// `app_sessions` caller: sessions of connect, `TILES_PER_SESSION`
/// tile reads over its seeded boxes, one upload of one of its edges
/// under that edge's id, close — until `deadline`.
fn session_caller(
    addr: std::net::SocketAddr,
    c: usize,
    inputs: &Inputs,
    epoch: Instant,
    deadline: Instant,
    log: &mut CallerLog,
) {
    let edges: Vec<usize> = (c..inputs.net.edge_count()).step_by(CALLERS).collect();
    let mut session = 0usize;
    while Instant::now() < deadline {
        let edge = edges[session % edges.len()];
        let s0 = ns_since(epoch);
        let sid = log.next_id();
        let ok = match log.connect(addr, epoch, sid) {
            Some(mut client) => run_session(&mut client, c, session, edge, inputs, epoch, sid, log),
            None => {
                std::thread::sleep(Duration::from_millis(1));
                false
            }
        };
        // The session span closes after the connection is dropped.
        log.spans.push(BenchSpan {
            op: Op::Session,
            req: sid,
            parent: 0,
            caller: log.caller,
            conn: log.conn,
            start_ns: s0,
            end_ns: ns_since(epoch),
            ok,
            item: edge as u32,
            edges: 0,
        });
        session += 1;
    }
}

/// One app session over an open connection: the tile reads, then the
/// upload. Returns whether every request succeeded.
#[allow(clippy::too_many_arguments)]
fn run_session(
    client: &mut Client,
    c: usize,
    session: usize,
    edge: usize,
    inputs: &Inputs,
    epoch: Instant,
    sid: u64,
    log: &mut CallerLog,
) -> bool {
    let boxes = &inputs.boxes[c];
    for j in 0..TILES_PER_SESSION {
        let b = (session * TILES_PER_SESSION + j) % boxes.len();
        let expected = inputs.box_edges[c * BOXES_PER_CALLER + b].len();
        let s = ns_since(epoch);
        let reply = client.tile_query(&boxes[b]);
        let e = ns_since(epoch);
        let (outcome, n) = judge_tile(&reply, expected);
        log.record(Op::Tile, sid, s, e, outcome, b, n);
        if outcome != Outcome::Ok {
            return false;
        }
    }
    log.upload(client, epoch, sid, edge as u64, edge, &inputs.trips[edge]) == Outcome::Ok
}

/// Starts the service and waits until each worker has answered once:
/// two connections are opened and each sends METRICS. A worker serves
/// one connection until it closes, so the second reply comes from the
/// other worker.
pub fn start_ready<R: Recorder + Send + Sync + 'static>(
    net: &RoadNetwork,
    rec: Arc<R>,
) -> std::io::Result<ServerHandle<R>> {
    let server = start(&ServeConfig::default(), "127.0.0.1:0", net, rec)?;
    let mut a = Client::connect(server.addr(), CLIENT_TIMEOUT).map_err(std::io::Error::other)?;
    let mut b = Client::connect(server.addr(), CLIENT_TIMEOUT).map_err(std::io::Error::other)?;
    for client in [&mut a, &mut b] {
        match client.metrics() {
            Ok(ServerReply::Metrics(_)) => {}
            other => {
                return Err(std::io::Error::other(format!("worker did not answer: {other:?}")))
            }
        }
    }
    Ok(server)
}

/// `setup_s` samples: `reps` timed [`start_ready`] calls, and the share
/// of wanted CPU time the host stole across them. The last server is
/// returned running.
fn timed_setups(
    net: &RoadNetwork,
    reps: usize,
) -> std::io::Result<(ServerHandle<NoopRecorder>, Vec<f64>, f64)> {
    let mut samples = Vec::with_capacity(reps);
    let rec = Arc::new(NoopRecorder);
    let ticks = CpuTicks::now();
    loop {
        let t = Instant::now();
        let server = start_ready(net, Arc::clone(&rec))?;
        samples.push(t.elapsed().as_secs_f64());
        if samples.len() == reps.max(1) {
            return Ok((server, samples, ticks.steal_share(CpuTicks::now())));
        }
        server.shutdown();
    }
}

/// The fused track of every pool trip, each estimated once with
/// `estimate_into` exactly as the server does (default estimator, no
/// map).
pub fn reference_tracks(trips: &[Trip]) -> Vec<GradientTrack> {
    let estimator = GradientEstimator::new(ServeConfig::default().estimator);
    let mut scratch = EstimatorScratch::new();
    let mut out = GradientEstimate::default();
    trips
        .iter()
        .map(|t| {
            estimator.estimate_into(&t.log, None, &mut scratch, &mut out);
            out.fused.clone()
        })
        .collect()
}

/// A fresh aggregator with `uploads` replayed in order.
pub fn replay(uploads: &[(u64, usize)], tracks: &[GradientTrack]) -> CloudAggregator {
    let cloud = CloudAggregator::new(ServeConfig::default().grid_ds);
    for &(road, trip) in uploads {
        cloud.upload(road, &tracks[trip]);
    }
    cloud
}

/// The full-map tile payload of `cloud`, written as the server writes
/// it.
pub fn full_map_tile(net: &RoadNetwork, cloud: &CloudAggregator) -> Vec<u8> {
    let index = NetworkIndex::build(net);
    let mut edges = Vec::new();
    edges_in_tile_into(&index, index.bounds(), &mut QueryScratch::new(), &mut edges);
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

/// The full-map tile a correct service serves after `uploads`: the
/// uploads replayed in order into a fresh aggregator, written as the
/// server writes tiles.
pub fn reference_tile(
    net: &RoadNetwork,
    uploads: &[(u64, usize)],
    tracks: &[GradientTrack],
) -> Vec<u8> {
    full_map_tile(net, &replay(uploads, tracks))
}

/// Whether two tracks hold the same numbers, bit for bit.
pub fn same_bits(a: &GradientTrack, b: &GradientTrack) -> bool {
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    bits(&a.s) == bits(&b.s)
        && bits(&a.theta) == bits(&b.theta)
        && bits(&a.variance) == bits(&b.variance)
}

/// One timed phase of a service workload.
#[derive(Debug, Default)]
pub struct Phase {
    /// Every caller's spans, caller-major.
    pub spans: Vec<BenchSpan>,
    /// ACKed uploads per caller, in order.
    pub acked: Vec<Vec<(u64, usize)>>,
    /// Requests that failed.
    pub failed_requests: u64,
    /// Correctness checks run after the phase, and how many failed.
    pub checks: u64,
    /// Checks that failed, by name.
    pub failed_checks: Vec<String>,
    /// Timed window, ns since the epoch.
    pub window_ns: (u64, u64),
    /// The server's counters after shutdown.
    pub stats: ServerStats,
    /// The host's steal share during the window.
    pub steal: StealTimeline,
}

impl Phase {
    /// Wall time of the timed window, seconds.
    pub fn wall_s(&self) -> f64 {
        (self.window_ns.1 - self.window_ns.0) as f64 / 1e9
    }

    /// The closed loop's rate per second of `weight(item)`, summed over
    /// the callers, each by [`pooled_rate`] over its own cycles in the
    /// calm intervals, scaled by [`StealTimeline::scaled`]. A cycle is
    /// one upload of a pool trip in `ingest` and one session of an edge
    /// in `app_sessions`.
    pub fn rate(&self, weight: impl Fn(usize) -> f64) -> f64 {
        let cycle =
            if self.spans.iter().any(|s| s.op == Op::Session) { Op::Session } else { Op::Upload };
        (0..CALLERS as u32)
            .map(|caller| {
                let cycles = self
                    .spans
                    .iter()
                    .filter(|s| {
                        s.op == cycle && s.caller == caller && s.start_ns >= self.window_ns.0
                    })
                    .filter_map(|s| {
                        let ns = if s.ok {
                            self.steal.scaled(s.start_ns, s.end_ns)?
                        } else {
                            f64::INFINITY
                        };
                        Some((s.item as usize, ns / 1e9))
                    });
                pooled_rate(cycles, &weight)
            })
            .sum()
    }

    /// Requests issued: connects, uploads and tile reads.
    pub fn requests(&self) -> u64 {
        self.spans.iter().filter(|s| s.op != Op::Session).count() as u64
    }
}

/// Runs one timed phase against a ready server: preload (every edge in
/// `app_sessions`), `seconds` of closed-loop callers, then the checks
/// against a reference replay, then shutdown.
fn run_phase<R: Recorder + Send + Sync + 'static>(
    inputs: &Inputs,
    server: ServerHandle<R>,
    tracks: &[GradientTrack],
    epoch: Instant,
    seconds: f64,
) -> Phase {
    let addr = server.addr();
    let mut phase = Phase::default();
    let mut preload = CallerLog::new(CALLERS, inputs.trips.len());
    if inputs.workload == Workload::AppSessions {
        match preload.connect(addr, epoch, 0) {
            Some(mut client) => {
                for (e, trip) in inputs.trips.iter().enumerate() {
                    preload.upload(&mut client, epoch, 0, e as u64, e, trip);
                }
            }
            None => phase.failed_checks.push("preload connect".into()),
        }
    }
    let capacity = (seconds * 4000.0) as usize + 64;
    let mut logs: Vec<CallerLog> = (0..CALLERS).map(|c| CallerLog::new(c, capacity)).collect();
    let barrier = Barrier::new(CALLERS + 1);
    let (start_ns, steal) = StealTimeline::record(epoch, || {
        std::thread::scope(|scope| {
            for (c, log) in logs.iter_mut().enumerate() {
                let barrier = &barrier;
                scope.spawn(move || {
                    barrier.wait();
                    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
                    match inputs.workload {
                        Workload::Ingest => ingest_caller(addr, c, inputs, epoch, deadline, log),
                        _ => session_caller(addr, c, inputs, epoch, deadline, log),
                    }
                });
            }
            barrier.wait();
            ns_since(epoch)
        })
    });
    phase.window_ns = (start_ns, ns_since(epoch));
    phase.steal = steal;
    phase.failed_requests = preload.failed + logs.iter().map(|l| l.failed).sum::<u64>();

    // Reference: the ACKed uploads replayed per caller into a fresh
    // aggregator. Callers own disjoint roads, so per-road order is the
    // caller's order and the served map must match bit for bit.
    let mut uploads = preload.acked.clone();
    for log in &logs {
        uploads.extend_from_slice(&log.acked);
    }
    let mut check = |name: &str, ok: bool| {
        phase.checks += 1;
        if !ok {
            phase.failed_checks.push(name.to_string());
        }
    };
    match inputs.workload {
        Workload::Ingest => {
            let mut roads: Vec<u64> = uploads.iter().map(|u| u.0).collect();
            roads.sort_unstable();
            roads.dedup();
            let reference = replay(&uploads, tracks);
            let identical =
                roads.iter().all(|&r| match (server.road_profile(r), reference.road_profile(r)) {
                    (Some(a), Some(b)) => same_bits(&a, &b),
                    _ => false,
                });
            check("served road profiles equal the reference replay", identical);
        }
        _ => {
            let served = Client::connect(addr, CLIENT_TIMEOUT)
                .and_then(|mut c| c.tile_query(&NetworkIndex::build(&inputs.net).bounds()));
            let identical = matches!(served, Ok(ServerReply::Tile(ref t)) if *t == reference_tile(&inputs.net, &uploads, tracks));
            check("served full-map tile equals the reference replay", identical);
        }
    }
    let report = server.shutdown();
    check("clean drain", report.is_clean());
    check(
        "server ACK count equals client ACK count",
        report.stats.uploads_acked == uploads.len() as u64,
    );
    phase.stats = report.stats;
    phase.spans = preload.spans;
    for log in logs {
        phase.spans.extend(log.spans);
        phase.acked.push(log.acked);
    }
    phase
}

/// Runs a service workload and reports its end-to-end metrics, or, when
/// `traced`, its per-layer metrics.
pub fn run(inputs: &Inputs, seconds: f64, traced: bool) -> std::io::Result<Report> {
    let tracks = reference_tracks(&inputs.trips);
    let epoch = Instant::now();
    let run_s = if traced { seconds / 2.0 } else { seconds };
    let (server, setups, setup_steal) =
        timed_setups(&inputs.net, if traced { 1 } else { SETUP_REPS })?;
    let plain = run_phase(inputs, server, &tracks, epoch, run_s);
    let mut report = Report::default();
    let km: Vec<f64> = inputs.trips.iter().map(|t| t.km).collect();
    let tput = |p: &Phase| p.rate(|_| 1.0);
    if !traced {
        let uploads = latency(&plain, Op::Upload, None);
        let tiles = latency(&plain, Op::Tile, None);
        push_end_to_end(
            &mut report,
            Measured {
                setups: &setups,
                setup_steal,
                steal: &plain.steal,
                tput: tput(&plain),
                p50_ms: latency(&plain, Op::Upload, Some(&plain.steal)).p50_ms,
                km_per_s: plain.rate(|trip| km[trip]),
            },
        );
        report.line(map_err_line(&inputs.trips, &tracks));
        report.line(format!(
            "{} uploads ACKed in {:.2} s; upload_tput and batch_km_per_s divide by each caller's summed per-{} median scaled cycle time",
            plain.acked.iter().map(Vec::len).sum::<usize>(),
            plain.wall_s(),
            if inputs.workload == Workload::Ingest { "trip" } else { "edge" }
        ));
        report.line(uploads.describe("upload"));
        if inputs.workload == Workload::AppSessions {
            report.line(tiles.describe("tile"));
        }
        finish(&mut report, &[&plain]);
        return Ok(report);
    }

    // Traced half: the same phase on a fresh server whose recorder keeps
    // every span the server reports.
    let sink = Arc::new(SpanSink::new(epoch, (run_s * 40_000.0) as usize + 10_000));
    let server = start_ready(&inputs.net, Arc::clone(&sink))?;
    let traced_phase = run_phase(inputs, server, &tracks, epoch, run_s);
    let server_spans = sink.spans();
    let frames = tie(&server_spans, &traced_phase.spans);

    // Contention-free replays on this workload's inputs.
    let stride = if inputs.workload == Workload::AppSessions { 4 } else { 1 };
    let replayed: Vec<usize> = (0..inputs.trips.len()).step_by(stride).collect();
    let logs: Vec<_> = replayed.iter().map(|&i| &inputs.trips[i].log).collect();
    let estimator = GradientEstimator::new(ServeConfig::default().estimator);
    let costs = layers::replay_trips(&logs, None, &estimator);
    let means = TripMeans::of(&costs);
    let mut recorded_ns = vec![None; inputs.trips.len()];
    for (&i, c) in replayed.iter().zip(&costs) {
        recorded_ns[i] = Some(c.recorded_trip_ns);
    }
    let tile = if inputs.workload == Workload::AppSessions {
        let mut uploads: Vec<(u64, usize)> =
            (0..inputs.trips.len()).map(|e| (e as u64, e)).collect();
        uploads.extend(traced_phase.acked.iter().flatten().copied());
        let cloud = replay(&uploads, &tracks);
        let boxes: Vec<_> = inputs.boxes.iter().flatten().copied().collect();
        layers::replay_tiles(&NetworkIndex::build(&inputs.net), &cloud, &boxes)
    } else {
        layers::TileCost::default()
    };

    let reqs = &traced_phase.spans;
    let uploads: Vec<&Frame> =
        frames.iter().filter(|f| f.child_ns(Span::ServiceDecode) > 0).collect();
    let frame_ns = |f: &Frame| f.frame.map_or(0, |s| s.dur_ns()) as f64;
    let tied: Vec<(&Frame, &BenchSpan)> =
        uploads.iter().filter_map(|f| f.req.map(|i| (*f, &reqs[i]))).collect();
    let frame_us = mean(&uploads.iter().map(|f| frame_ns(f)).collect::<Vec<_>>()) / 1e3;
    let children_us = mean(
        &uploads
            .iter()
            .map(|f| {
                frame_ns(f)
                    - (f.child_ns(Span::ServiceDecode)
                        + f.child_ns(Span::Trip)
                        + f.child_ns(Span::CloudUpload)) as f64
            })
            .collect::<Vec<_>>(),
    ) / 1e3;
    let residual_us =
        mean(&tied.iter().map(|(f, r)| r.dur_ns() as f64 - frame_ns(f)).collect::<Vec<_>>()) / 1e3;
    let contention_us = mean(
        &tied
            .iter()
            .filter_map(|(f, r)| {
                recorded_ns[r.item as usize].map(|iso| f.child_ns(Span::Trip) as f64 - iso)
            })
            .collect::<Vec<_>>(),
    ) / 1e3;
    let window = traced_phase.window_ns;
    let in_window =
        |f: &&Frame| f.frame.is_some_and(|s| s.start_ns >= window.0 && s.start_ns <= window.1);
    let busy_ns: f64 = frames.iter().filter(in_window).map(frame_ns).sum();
    let tile_us = mean(
        &frames
            .iter()
            .map(|f| f.child_ns(Span::ServiceTileQuery) as f64)
            .filter(|&ns| ns > 0.0)
            .collect::<Vec<_>>(),
    ) / 1e3;
    let connect_us = mean(
        &reqs.iter().filter(|r| r.op == Op::Connect).map(|r| r.dur_ns() as f64).collect::<Vec<_>>(),
    ) / 1e3;
    let tile_reqs: Vec<&BenchSpan> = reqs.iter().filter(|r| r.op == Op::Tile && r.ok).collect();
    let served_edges: f64 = tile_reqs.iter().map(|r| f64::from(r.edges)).sum();
    let caller_of = |r: &BenchSpan| r.caller as usize * BOXES_PER_CALLER + r.item as usize;
    let box_edges: f64 =
        tile_reqs.iter().map(|r| inputs.box_edges[caller_of(r)].len() as f64).sum();
    let requests = reqs.iter().filter(|r| matches!(r.op, Op::Upload | Op::Tile)).count();
    let tied_all = frames.iter().filter(|f| f.req.is_some()).count();
    let overhead_pct = (tput(&plain) / tput(&traced_phase) - 1.0) * 100.0;

    report.push("protocol.encode_us", means.encode_us, "us");
    report.push("protocol.decode_us", means.decode_us, "us");
    report.push("protocol.upload_kb", means.upload_kb, "KB");
    report.push("protocol.tile_write_us", tile.write_us, "us");
    report.push("protocol.tile_kb", tile.tile_kb, "KB");
    push_pipeline(&mut report, &means);
    report.push("obs.ring_us", means.ring_us, "us");
    report.push(
        "obs.ring_share",
        if frame_us > 0.0 { means.ring_us / frame_us } else { 0.0 },
        "fraction",
    );
    report.push("cloud.upload_us", means.upload_us, "us");
    report.push("cloud.cells_per_upload", means.cells, "count");
    report.push("cloud.profile_us", tile.profile_us, "us");
    report.push("tile.edges_us", tile.edges_us, "us");
    report.push("tile.edges_per_query", tile.edges_per_query, "count");
    report.push(
        "tile.hit_ratio",
        if box_edges > 0.0 { served_edges / box_edges } else { 0.0 },
        "fraction",
    );
    report.push("index.build_ms", layers::index_build_ms(&inputs.net), "ms");
    report.push("index.nearest_ns", 0.0, "ns");
    report.push("match.trip_us", 0.0, "us");
    report.push("match.edges_per_trip", 0.0, "count");
    report.push("fleet.batch_ms", 0.0, "ms");
    report.push("fleet.efficiency", 0.0, "fraction");
    report.push("server.frame_us", frame_us, "us");
    report.push("server.tile_us", tile_us, "us");
    report.push(
        "server.worker_busy",
        busy_ns / 1e9 / (traced_phase.wall_s() * ServeConfig::default().workers as f64),
        "fraction",
    );
    report.push("server.connect_us", connect_us, "us");
    report.push("server.residual_us", residual_us, "us");
    report.push("server.contention_us", contention_us, "us");
    report.push("server.busy_rejects", traced_phase.stats.busy_rejects as f64, "count");
    report.push("server.frames_rejected", traced_phase.stats.frames_rejected as f64, "count");
    report.push("resid.frame_children_us", children_us, "us");
    report.push("resid.trip_stages_us", means.trip_resid_us, "us");
    report.push("resid.batch_trips_ms", 0.0, "ms");
    report.push("trace.overhead_pct", overhead_pct, "%");
    report.push("trace.tied_frac", tied_all as f64 / requests.max(1) as f64, "fraction");
    report.push("trace.dropped_spans", sink.dropped() as f64, "count");
    report.line(format!(
        "traced phase: {} requests, {} server frames, {} tied; untraced {:.1} uploads/s vs traced {:.1} uploads/s",
        requests,
        frames.len(),
        tied_all,
        tput(&plain),
        tput(&traced_phase)
    ));
    report.line(format!(
        "residuals: server.residual_us = {residual_us:.1} us (client upload - server frame), \
         resid.frame_children_us = {children_us:.1} us (frame - decode - trip - cloud upload), \
         resid.trip_stages_us = {:.1} us (trip - four stages), resid.batch_trips_ms = n/a (no batch)",
        means.trip_resid_us
    ));
    let path = trace_path(inputs.workload);
    let other: Vec<_> =
        server_spans.iter().filter(|s| s.span == Span::GeoIndexBuild).copied().collect();
    write_trace(&path, reqs, &frames, &other);
    report.line(format!("trace written to {}", path.display()));
    finish(&mut report, &[&plain, &traced_phase]);
    Ok(report)
}

/// Pushes the estimator metrics shared by every workload.
pub fn push_pipeline(report: &mut Report, means: &TripMeans) {
    report.push("pipeline.estimate_us", means.estimate_us, "us");
    report.push("pipeline.steering_us", means.stages_us[0], "us");
    report.push("pipeline.detection_us", means.stages_us[1], "us");
    report.push("pipeline.tracks_us", means.stages_us[2], "us");
    report.push("pipeline.fusion_us", means.stages_us[3], "us");
    report.push("pipeline.ns_per_sample", means.ns_per_sample, "ns");
}

/// Latency summary of the `op` requests of a phase's timed window, as
/// measured (`None`), or from the calm intervals of `steal`, scaled.
fn latency(phase: &Phase, op: Op, steal: Option<&StealTimeline>) -> Latency {
    let window = phase.window_ns;
    let reqs = phase.spans.iter().filter(|s| s.op == op && s.start_ns >= window.0);
    let (ok, failed): (Vec<&BenchSpan>, Vec<&BenchSpan>) = reqs.partition(|s| s.ok);
    let ns: Vec<f64> = ok
        .iter()
        .filter_map(|s| match steal {
            Some(t) => t.scaled(s.start_ns, s.end_ns),
            None => Some(s.dur_ns() as f64),
        })
        .collect();
    Latency::of(&ns, failed.len())
}

/// Fills the correctness fields from the phases run.
fn finish(report: &mut Report, phases: &[&Phase]) {
    report.attempted = phases.iter().map(|p| p.requests() + p.checks).sum();
    report.failed = phases.iter().map(|p| p.failed_requests + p.failed_checks.len() as u64).sum();
    report.correct = report.failed == 0;
    for p in phases {
        for name in &p.failed_checks {
            report.line(format!("CHECK FAILED: {name}"));
        }
        report.line(format!(
            "server: {} uploads acked, {} busy rejects, {} frames rejected",
            p.stats.uploads_acked, p.stats.busy_rejects, p.stats.frames_rejected
        ));
    }
}
