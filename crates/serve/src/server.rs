//! The ingestion server: a bounded accept/worker architecture serving
//! the [`crate::protocol`] frames over `std::net::TcpListener`.
//!
//! # Architecture
//!
//! ```text
//!             ┌ accept thread ┐   bounded(queue_depth)   ┌ worker 0 ┐
//! listener ──▶│ try_send conn │ ────────────────────────▶│ frames…  │──▶ cloud
//!             │ Full → BUSY   │                          └──────────┘
//!             └───────────────┘                          ┌ worker 1 ┐ …
//! ```
//!
//! Backpressure is explicit at both choke points: a full connection
//! queue answers the client with a `BUSY(queue-full)` frame at accept
//! time (`try_send`, never blocking the accept loop), and a draining
//! server answers upload frames with `BUSY(draining)` via the
//! [`DrainGate`]. Each worker owns one set of warm scratch buffers
//! (decode target, estimator scratch, tile buffers), so the per-frame
//! decode → `estimate_into` path allocates nothing once warm — the
//! same discipline as the fleet pool, measured live by the soak bench
//! through [`install_alloc_probe`].
//!
//! # Live telemetry
//!
//! Next to the caller-supplied recorder, every server carries a
//! [`TimeSeriesRecorder`] (DESIGN.md §15), paired with it through a
//! [`Tee`]: each span, counter, and histogram a worker records also
//! lands in a windowed ring, and each handled frame ticks the ring
//! plus the [`QualityMonitors`] drift detectors. The `STATUS` frame
//! serves a JSON snapshot of the resulting live state — per-SLO burn
//! rates and escalation ([`SloTable`]), per-signal drift flags, window
//! quantiles of the frame path, dropped-record counts, and uptime —
//! without touching the caller's recorder. The time-series record
//! path is allocation-free (fixed ring slots), so attaching it does
//! not relax the warm-frame 0-alloc gate.
//!
//! # Shutdown
//!
//! [`ServerHandle::shutdown`] stops the [`DrainGate`], wakes the accept
//! thread with a loopback self-connection, joins it (dropping the
//! queue's sender), lets the workers drain the queued connections
//! (their upload frames get `BUSY(draining)`), joins them, and reports
//! the final in-flight count — zero on a clean drain, asserted by the
//! CI smoke.

use crate::drain::DrainGate;
use crate::protocol::{
    decode_header, decode_upload_into, encode_ack_frame, encode_busy_frame, encode_err_frame,
    finish_frame, DecodeError, TileWriter, UploadScratch, BUSY_DRAINING, BUSY_QUEUE_FULL,
    HEADER_BYTES, TAG_METRICS, TAG_METRICS_TEXT, TAG_STATUS, TAG_STATUS_TEXT, TAG_TILE,
    TAG_TILE_QUERY, TAG_UPLOAD,
};
use crate::sync::{AtomicU64, Ordering};
use crossbeam::channel::{bounded, Receiver, TrySendError};
use gradest_core::cloud::CloudAggregator;
use gradest_core::pipeline::{
    EstimatorConfig, EstimatorScratch, GradientEstimate, GradientEstimator,
};
use gradest_core::track::GradientTrack;
use gradest_geo::tile::{decode_tile_bounds, edges_in_tile_into};
use gradest_geo::{NetworkIndex, QueryScratch, RoadNetwork};
use gradest_obs::{
    saturating_ns, Counter, QualityConfig, QualityMonitors, Recorder, SloTable, Span, SpanTimer,
    Tee, TimeSeries, TimeSeriesConfig, TimeSeriesRecorder, TraceEvent,
};
use std::fmt::Write as _;
use std::io::Read;
use std::io::Write as _;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::{Arc, Mutex, OnceLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};

/// Optional allocation probe for the warm-path discipline measurement.
/// Library crates here forbid `unsafe`, so the counting allocator lives
/// in the bench binaries; they install its reading function and the
/// workers diff it around each frame's decode → estimate window.
static ALLOC_PROBE: OnceLock<fn() -> u64> = OnceLock::new();

/// Installs the allocation-count probe (first caller wins). The probe
/// must return a monotone per-process allocation count.
pub fn install_alloc_probe(probe: fn() -> u64) {
    let _ = ALLOC_PROBE.set(probe);
}

/// Tuning knobs of a [`ServerHandle`].
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Worker threads decoding/estimating/fusing frames.
    pub workers: usize,
    /// Bounded depth of the accepted-connection queue; accepts beyond
    /// it are refused with `BUSY(queue-full)`.
    pub queue_depth: usize,
    /// Cloud aggregator arc-cell spacing, metres.
    pub grid_ds: f64,
    /// Estimator configuration used for every uploaded trip. Must
    /// match the reference side exactly for bit-identical tiles.
    pub estimator: EstimatorConfig,
    /// Per-connection socket read/write timeout: a stalled or dead
    /// client is closed after this long, so it can never wedge a
    /// worker or the shutdown drain.
    pub read_timeout: Duration,
    /// Live time-series ring shape (window width × count). Tests and
    /// soaks shrink the window so drift and SLO behaviour plays out in
    /// milliseconds.
    pub timeseries: TimeSeriesConfig,
    /// Gradient-quality drift-monitor tuning.
    pub quality: QualityConfig,
    /// The SLO table the `STATUS` frame evaluates. Lookbacks are in
    /// ring windows, so retune them when `timeseries` changes.
    pub slo: SloTable,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            workers: 2,
            queue_depth: 32,
            grid_ds: 5.0,
            estimator: EstimatorConfig::default(),
            read_timeout: Duration::from_millis(500),
            timeseries: TimeSeriesConfig::default(),
            quality: QualityConfig::default(),
            // 1 s windows: page on 10 s of hot burn, warn over a minute.
            slo: SloTable::service_default(50.0e6, 10, 60),
        }
    }
}

/// Point-in-time operational counters of a running server.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ServerStats {
    /// Connections accepted.
    pub connections: u64,
    /// Request frames answered successfully.
    pub frames_ok: u64,
    /// Request frames rejected with a typed ERR frame.
    pub frames_rejected: u64,
    /// Connections/frames refused with a BUSY frame.
    pub busy_rejects: u64,
    /// Tile queries answered.
    pub tile_queries: u64,
    /// STATUS snapshots served.
    pub status_queries: u64,
    /// Uploads acknowledged (fused into the cloud aggregator).
    pub uploads_acked: u64,
    /// Worst-case allocations in one warm frame's decode → estimate
    /// window, when a probe is installed and at least one warm frame
    /// was measured ([`install_alloc_probe`]).
    pub max_warm_frame_allocs: Option<u64>,
}

#[derive(Debug, Default)]
struct Stats {
    // sync: all fields are standalone monotone statistics — Relaxed
    // fetch_add/load everywhere; exactness comes from atomicity, no
    // memory is published through them.
    connections: AtomicU64,
    // sync: see struct comment.
    frames_ok: AtomicU64,
    // sync: see struct comment.
    frames_rejected: AtomicU64,
    // sync: see struct comment.
    busy_rejects: AtomicU64,
    // sync: see struct comment.
    tile_queries: AtomicU64,
    // sync: see struct comment.
    status_queries: AtomicU64,
    // sync: see struct comment.
    uploads_acked: AtomicU64,
    // sync: fetch_max keeps the worst warm-frame allocation diff;
    // Relaxed for the same reason as the counters.
    max_warm_frame_allocs: AtomicU64,
    // sync: how many warm frames were probe-measured (distinguishes
    // "measured 0" from "never measured"); Relaxed statistic.
    warm_frames_measured: AtomicU64,
}

struct Shared<R> {
    cloud: CloudAggregator,
    index: NetworkIndex,
    gate: DrainGate,
    stats: Stats,
    /// The caller-supplied recorder.
    inner: Arc<R>,
    /// The live ring behind `STATUS` and the drift monitors.
    ts: TimeSeriesRecorder,
    estimator: GradientEstimator,
    read_timeout: Duration,
    started: Instant,
    // sync: single-owner drift state ticked by whichever worker crosses
    // a window boundary first; the tick is cheap and idempotent within
    // a window, so plain mutual exclusion is enough. Poisoning is
    // ignored (skip the tick), matching the obs lock idiom.
    quality: Mutex<QualityMonitors>,
    slo: SloTable,
}

impl<R: Recorder + Send + Sync> Shared<R> {
    /// The sink every worker records through: the caller's recorder
    /// teed with the live ring (which ignores trace events). Always
    /// enabled — the ring powers the `STATUS` frame regardless of
    /// whether the caller wants cumulative metrics.
    fn rec(&self) -> Tee<&R, &TimeSeriesRecorder> {
        Tee::new(&*self.inner, &self.ts)
    }

    fn stats_snapshot(&self) -> ServerStats {
        // sync: Relaxed statistic reads (see Stats).
        let measured = self.stats.warm_frames_measured.load(Ordering::Relaxed);
        ServerStats {
            // sync: Relaxed statistic reads (see Stats).
            connections: self.stats.connections.load(Ordering::Relaxed),
            frames_ok: self.stats.frames_ok.load(Ordering::Relaxed),
            frames_rejected: self.stats.frames_rejected.load(Ordering::Relaxed),
            // sync: Relaxed statistic reads (see Stats).
            busy_rejects: self.stats.busy_rejects.load(Ordering::Relaxed),
            tile_queries: self.stats.tile_queries.load(Ordering::Relaxed),
            status_queries: self.stats.status_queries.load(Ordering::Relaxed),
            uploads_acked: self.stats.uploads_acked.load(Ordering::Relaxed),
            max_warm_frame_allocs: if measured > 0 {
                // sync: Relaxed statistic reads (see Stats).
                Some(self.stats.max_warm_frame_allocs.load(Ordering::Relaxed))
            } else {
                None
            },
        }
    }

    /// Prometheus exposition of the live service counters (the METRICS
    /// frame payload; grammar-checked against
    /// `gradest_obs::validate_prometheus_text` in the e2e tests).
    fn prometheus(&self) -> String {
        let s = self.stats_snapshot();
        let mut out = String::new();
        let counters: [(&str, u64); 8] = [
            ("gradest_service_connections_total", s.connections),
            ("gradest_service_frames_ok_total", s.frames_ok),
            ("gradest_service_frames_rejected_total", s.frames_rejected),
            ("gradest_service_busy_rejects_total", s.busy_rejects),
            ("gradest_service_tile_queries_total", s.tile_queries),
            ("gradest_service_status_queries_total", s.status_queries),
            ("gradest_service_uploads_acked_total", s.uploads_acked),
            // Telemetry loss across every attached sink (trace-ring
            // overflow, time-series late windows) — scrape this to know
            // when the rest of the exposition under-counts.
            ("gradest_trace_dropped_events_total", self.rec().dropped_events()),
        ];
        for (name, value) in counters {
            let _ = writeln!(out, "# TYPE {name} counter");
            let _ = writeln!(out, "{name} {value}");
        }
        let _ = writeln!(out, "# TYPE gradest_service_in_flight gauge");
        let _ = writeln!(out, "gradest_service_in_flight {}", self.gate.in_flight());
        let _ = writeln!(out, "# TYPE gradest_service_roads gauge");
        let _ = writeln!(out, "gradest_service_roads {}", self.cloud.road_count());
        // The uptime gauge carries an explicit scrape timestamp
        // (epoch milliseconds) so downstream stores can align samples
        // pulled through relays.
        let _ = writeln!(out, "# TYPE gradest_service_uptime_seconds gauge");
        let _ = writeln!(
            out,
            "gradest_service_uptime_seconds {} {}",
            self.started.elapsed().as_secs_f64(),
            epoch_millis()
        );
        out
    }

    /// Advances the live ring to "now" and runs the drift monitors
    /// over any newly completed windows. Called once per handled frame
    /// by whichever worker gets there first; idempotent within a
    /// window.
    fn tick_telemetry(&self) {
        let now = self.ts.now_ns();
        let series = self.ts.series();
        series.advance_to(now);
        if let Ok(mut quality) = self.quality.lock() {
            quality.tick(series, now, &self.rec());
        }
    }

    /// The STATUS frame payload: a JSON snapshot of the live SLO
    /// states, drift monitors, frame-path window quantiles, telemetry
    /// loss, and uptime. Report-side allocation only.
    fn status_json(&self) -> String {
        let now = self.ts.now_ns();
        let series = self.ts.series();
        let windows = series.config().windows;
        let mut out = String::new();
        out.push('{');
        let _ = write!(out, "\"uptime_seconds\":");
        push_json_f64(&mut out, self.started.elapsed().as_secs_f64());
        let _ = write!(out, ",\"window_seconds\":");
        push_json_f64(&mut out, series.window_secs());
        let _ = write!(out, ",\"windows\":{windows}");
        let _ = write!(out, ",\"dropped_events\":{}", self.rec().dropped_events());
        let worst = self.slo.worst_state(series, now);
        let _ = write!(out, ",\"state\":\"{}\"", worst.name());
        let (drifting, quality) = match self.quality.lock() {
            Ok(q) => (q.any_drifting(), Some(q.report())),
            Err(_) => (false, None),
        };
        let _ = write!(out, ",\"drifting\":{drifting}");
        out.push_str(",\"slos\":[");
        for (i, slo) in self.slo.evaluate(series, now).iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "{{\"name\":\"{}\",\"state\":\"{}\"", slo.name, slo.state.name());
            let _ = write!(out, ",\"target\":");
            push_json_f64(&mut out, slo.target);
            let _ = write!(out, ",\"error_short\":");
            push_json_f64(&mut out, slo.error_short);
            let _ = write!(out, ",\"error_long\":");
            push_json_f64(&mut out, slo.error_long);
            let _ = write!(out, ",\"burn_short\":");
            push_json_f64(&mut out, slo.burn_short);
            let _ = write!(out, ",\"burn_long\":");
            push_json_f64(&mut out, slo.burn_long);
            out.push('}');
        }
        out.push_str("],\"quality\":[");
        if let Some(report) = quality {
            for (i, sig) in report.signals.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                let _ = write!(out, "{{\"signal\":\"{}\"", sig.signal.name());
                let _ = write!(out, ",\"drifting\":{}", sig.drifting);
                let _ = write!(out, ",\"value\":");
                push_json_f64(&mut out, sig.value);
                let _ = write!(out, ",\"ewma\":");
                push_json_f64(&mut out, sig.ewma);
                let _ = write!(out, ",\"excursion\":");
                push_json_f64(&mut out, sig.excursion);
                let _ = write!(out, ",\"windows\":{}", sig.windows);
                out.push('}');
            }
        }
        out.push_str("],\"frame\":{");
        let _ = write!(out, "\"count\":{}", series.span_count(Span::ServiceFrame, windows, now));
        let _ = write!(out, ",\"rate_per_sec\":");
        push_json_f64(&mut out, series.rate(Counter::ServiceFramesOk, windows, now));
        for (key, q) in [("p50_ns", 0.5), ("p90_ns", 0.9), ("p99_ns", 0.99)] {
            let _ = write!(out, ",\"{key}\":");
            match series.span_quantile(Span::ServiceFrame, q, windows, now) {
                Some(v) => push_json_f64(&mut out, v),
                None => out.push_str("null"),
            }
        }
        out.push_str("}}");
        out
    }
}

/// Milliseconds since the Unix epoch (0 if the clock is before it).
fn epoch_millis() -> u128 {
    SystemTime::now().duration_since(UNIX_EPOCH).map(|d| d.as_millis()).unwrap_or(0)
}

/// Writes `v` as a JSON number, mapping non-finite values to `null`
/// (JSON has no NaN/Inf).
fn push_json_f64(out: &mut String, v: f64) {
    if v.is_finite() {
        let _ = write!(out, "{v}");
    } else {
        out.push_str("null");
    }
}

/// A running ingestion server; dropping the handle *without* calling
/// [`Self::shutdown`] leaves the threads serving (detached).
pub struct ServerHandle<R: Recorder + Send + Sync + 'static> {
    addr: SocketAddr,
    accept: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
    shared: Arc<Shared<R>>,
}

/// What [`ServerHandle::shutdown`] observed while draining.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DrainReport {
    /// Uploads in flight at the moment the gate closed.
    pub in_flight_at_stop: u64,
    /// Uploads still registered after every thread joined — zero on a
    /// clean drain.
    pub in_flight_after: u64,
    /// Final operational counters.
    pub stats: ServerStats,
}

impl DrainReport {
    /// Whether the drain completed without abandoning an upload.
    pub fn is_clean(&self) -> bool {
        self.in_flight_after == 0
    }
}

/// Binds `addr` (e.g. `"127.0.0.1:0"` for an ephemeral port), builds
/// the spatial index over `net`, and spawns the accept + worker
/// threads. The server fuses uploads into its own [`CloudAggregator`]
/// and serves tiles for `net`'s edges.
pub fn start<R: Recorder + Send + Sync + 'static>(
    cfg: &ServeConfig,
    addr: &str,
    net: &RoadNetwork,
    rec: Arc<R>,
) -> std::io::Result<ServerHandle<R>> {
    let listener = TcpListener::bind(addr)?;
    let local = listener.local_addr()?;
    let build_start = Instant::now();
    let index = NetworkIndex::build(net);
    let ts = TimeSeriesRecorder::new(cfg.timeseries);
    Tee::new(&*rec, &ts).record_span(Span::GeoIndexBuild, saturating_ns(build_start));
    let shared = Arc::new(Shared {
        cloud: CloudAggregator::new(cfg.grid_ds),
        index,
        gate: DrainGate::new(),
        stats: Stats::default(),
        inner: rec,
        ts,
        estimator: GradientEstimator::new(cfg.estimator.clone()),
        read_timeout: cfg.read_timeout,
        started: Instant::now(),
        quality: Mutex::new(QualityMonitors::new(cfg.quality)),
        slo: cfg.slo.clone(),
    });
    let workers = cfg.workers.max(1);
    let (conn_tx, conn_rx) = bounded::<(u32, TcpStream)>(cfg.queue_depth.max(1));
    let mut worker_handles = Vec::with_capacity(workers);
    for w in 0..workers {
        let shared = Arc::clone(&shared);
        let rx = conn_rx.clone();
        let handle = std::thread::Builder::new()
            .name(format!("serve-worker-{w}"))
            .spawn(move || worker_loop(&shared, &rx))?;
        worker_handles.push(handle);
    }
    drop(conn_rx);
    let accept_shared = Arc::clone(&shared);
    let accept = std::thread::Builder::new()
        .name("serve-accept".to_string())
        .spawn(move || accept_loop(&accept_shared, &listener, &conn_tx))?;
    Ok(ServerHandle { addr: local, accept: Some(accept), workers: worker_handles, shared })
}

impl<R: Recorder + Send + Sync + 'static> ServerHandle<R> {
    /// The bound address (resolves the ephemeral port).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Current operational counters.
    pub fn stats(&self) -> ServerStats {
        self.shared.stats_snapshot()
    }

    /// The live Prometheus exposition (same text the METRICS frame
    /// serves).
    pub fn prometheus(&self) -> String {
        self.shared.prometheus()
    }

    /// The live status snapshot (same JSON the STATUS frame serves).
    pub fn status_json(&self) -> String {
        self.shared.status_json()
    }

    /// The live time-series ring (for in-process oracles: pass
    /// [`ServerHandle::telemetry_now_ns`] as the query timestamp).
    pub fn timeseries(&self) -> &TimeSeries {
        self.shared.ts.series()
    }

    /// "Now" on the telemetry clock (nanoseconds since server start).
    pub fn telemetry_now_ns(&self) -> u64 {
        self.shared.ts.now_ns()
    }

    /// Fused profile of one road from the server's aggregator (test /
    /// diagnostics access mirroring `CloudAggregator::road_profile`).
    pub fn road_profile(&self, road_id: u64) -> Option<GradientTrack> {
        self.shared.cloud.road_profile(road_id)
    }

    /// Drains and stops the server (see module docs for the ordering).
    pub fn shutdown(mut self) -> DrainReport {
        let in_flight_at_stop = self.shared.gate.in_flight();
        self.shared.gate.stop();
        if self.shared.rec().enabled() {
            self.shared
                .rec()
                .event(TraceEvent::ServiceDrain { in_flight: in_flight_at_stop as u32 });
        }
        // Wake the accept thread out of its blocking accept().
        if let Ok(stream) = TcpStream::connect(self.addr) {
            drop(stream);
        }
        if let Some(accept) = self.accept.take() {
            let _ = accept.join();
        }
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
        DrainReport {
            in_flight_at_stop,
            in_flight_after: self.shared.gate.in_flight(),
            stats: self.shared.stats_snapshot(),
        }
    }
}

fn accept_loop<R: Recorder + Send + Sync>(
    shared: &Shared<R>,
    listener: &TcpListener,
    conn_tx: &crossbeam::channel::Sender<(u32, TcpStream)>,
) {
    let mut busy_buf = Vec::new();
    loop {
        let (stream, _) = match listener.accept() {
            Ok(accepted) => accepted,
            Err(_) => {
                if shared.gate.stopped() {
                    return;
                }
                continue;
            }
        };
        if shared.gate.stopped() {
            // The drain self-connection (or a late client) — refuse
            // politely and stop accepting.
            let _ = stream.set_write_timeout(Some(shared.read_timeout));
            encode_busy_frame(BUSY_DRAINING, &mut busy_buf);
            let mut stream = stream;
            let _ = stream.write_all(&busy_buf);
            return;
        }
        // sync: Relaxed statistic (see Stats).
        let conn = shared.stats.connections.fetch_add(1, Ordering::Relaxed) as u32;
        shared.rec().incr(Counter::ServiceConnections, 1);
        if shared.rec().enabled() {
            shared.rec().event(TraceEvent::ServiceConnOpened { conn });
        }
        let _ = stream.set_read_timeout(Some(shared.read_timeout));
        let _ = stream.set_write_timeout(Some(shared.read_timeout));
        match conn_tx.try_send((conn, stream)) {
            Ok(()) => {}
            Err(TrySendError::Full((conn, mut stream))) => {
                // sync: Relaxed statistic (see Stats).
                shared.stats.busy_rejects.fetch_add(1, Ordering::Relaxed);
                shared.rec().incr(Counter::ServiceBusyRejects, 1);
                if shared.rec().enabled() {
                    shared.rec().event(TraceEvent::ServiceBusy { conn, reason: BUSY_QUEUE_FULL });
                }
                encode_busy_frame(BUSY_QUEUE_FULL, &mut busy_buf);
                let _ = stream.write_all(&busy_buf);
            }
            Err(TrySendError::Disconnected(_)) => return,
        }
    }
}

/// Per-worker warm state: every buffer a frame needs, allocated once
/// and reused for the worker's lifetime.
struct WorkerScratch {
    upload: UploadScratch,
    est: EstimatorScratch,
    out: GradientEstimate,
    payload: Vec<u8>,
    reply: Vec<u8>,
    tile_track: GradientTrack,
    tile_edges: Vec<u32>,
    query: QueryScratch,
}

impl WorkerScratch {
    fn new() -> Self {
        WorkerScratch {
            upload: UploadScratch::new(),
            est: EstimatorScratch::new(),
            out: GradientEstimate::default(),
            payload: Vec::new(),
            reply: Vec::new(),
            tile_track: GradientTrack::new(""),
            tile_edges: Vec::new(),
            query: QueryScratch::new(),
        }
    }
}

fn worker_loop<R: Recorder + Send + Sync>(shared: &Shared<R>, rx: &Receiver<(u32, TcpStream)>) {
    let mut scratch = WorkerScratch::new();
    let mut warm_frames = 0u64;
    for (conn, stream) in rx.iter() {
        handle_conn(shared, conn, stream, &mut scratch, &mut warm_frames);
    }
}

/// Reads a frame header, distinguishing clean EOF (`None`) from data.
fn read_header(stream: &mut TcpStream) -> std::io::Result<Option<[u8; HEADER_BYTES]>> {
    let mut hdr = [0u8; HEADER_BYTES];
    let mut filled = 0usize;
    while filled < HEADER_BYTES {
        let n = stream.read(&mut hdr[filled..])?;
        if n == 0 {
            if filled == 0 {
                return Ok(None);
            }
            return Err(std::io::Error::from(std::io::ErrorKind::UnexpectedEof));
        }
        filled += n;
    }
    Ok(Some(hdr))
}

fn reject_frame<R: Recorder + Send + Sync>(
    shared: &Shared<R>,
    conn: u32,
    stream: &mut TcpStream,
    reply: &mut Vec<u8>,
    err: DecodeError,
) {
    // sync: Relaxed statistic (see Stats).
    shared.stats.frames_rejected.fetch_add(1, Ordering::Relaxed);
    shared.rec().incr(Counter::ServiceFramesRejected, 1);
    if shared.rec().enabled() {
        shared.rec().event(TraceEvent::ServiceFrameRejected { conn, code: err.code() });
    }
    encode_err_frame(err.code(), reply);
    let _ = stream.write_all(reply);
}

fn handle_conn<R: Recorder + Send + Sync>(
    shared: &Shared<R>,
    conn: u32,
    mut stream: TcpStream,
    scratch: &mut WorkerScratch,
    warm_frames: &mut u64,
) {
    let mut frames = 0u32;
    // Clean EOF, timeout, or transport error all close the conn.
    while let Ok(Some(hdr)) = read_header(&mut stream) {
        let header = match decode_header(hdr) {
            Ok(header) => header,
            Err(err) => {
                reject_frame(shared, conn, &mut stream, &mut scratch.reply, err);
                break;
            }
        };
        scratch.payload.resize(header.len as usize, 0);
        if stream.read_exact(&mut scratch.payload).is_err() {
            break;
        }
        let frame_timer = SpanTimer::start(&shared.rec());
        let ok = match header.tag {
            TAG_UPLOAD => handle_upload(shared, conn, &mut stream, scratch, warm_frames),
            TAG_TILE_QUERY => handle_tile_query(shared, conn, &mut stream, scratch),
            TAG_METRICS => {
                let text = shared.prometheus();
                crate::protocol::begin_frame(TAG_METRICS_TEXT, &mut scratch.reply);
                scratch.reply.extend_from_slice(text.as_bytes());
                finish_frame(&mut scratch.reply);
                stream.write_all(&scratch.reply).is_ok()
            }
            TAG_STATUS => {
                let status_timer = SpanTimer::start(&shared.rec());
                let text = shared.status_json();
                crate::protocol::begin_frame(TAG_STATUS_TEXT, &mut scratch.reply);
                scratch.reply.extend_from_slice(text.as_bytes());
                finish_frame(&mut scratch.reply);
                status_timer.finish(&shared.rec(), Span::ServiceStatus);
                // sync: Relaxed statistic (see Stats).
                shared.stats.status_queries.fetch_add(1, Ordering::Relaxed);
                shared.rec().incr(Counter::ServiceStatusQueries, 1);
                stream.write_all(&scratch.reply).is_ok()
            }
            tag => {
                reject_frame(
                    shared,
                    conn,
                    &mut stream,
                    &mut scratch.reply,
                    DecodeError::UnknownTag(tag),
                );
                false
            }
        };
        frame_timer.finish(&shared.rec(), Span::ServiceFrame);
        if !ok {
            break;
        }
        // sync: Relaxed statistic (see Stats).
        shared.stats.frames_ok.fetch_add(1, Ordering::Relaxed);
        shared.rec().incr(Counter::ServiceFramesOk, 1);
        frames += 1;
        shared.tick_telemetry();
    }
    if shared.rec().enabled() {
        shared.rec().event(TraceEvent::ServiceConnClosed { conn, frames });
    }
}

/// Handles one UPLOAD frame. Returns whether the connection stays open.
fn handle_upload<R: Recorder + Send + Sync>(
    shared: &Shared<R>,
    conn: u32,
    stream: &mut TcpStream,
    scratch: &mut WorkerScratch,
    warm_frames: &mut u64,
) -> bool {
    if !shared.gate.begin() {
        // sync: Relaxed statistic (see Stats).
        shared.stats.busy_rejects.fetch_add(1, Ordering::Relaxed);
        shared.rec().incr(Counter::ServiceBusyRejects, 1);
        if shared.rec().enabled() {
            shared.rec().event(TraceEvent::ServiceBusy { conn, reason: BUSY_DRAINING });
        }
        encode_busy_frame(BUSY_DRAINING, &mut scratch.reply);
        let _ = stream.write_all(&scratch.reply);
        return false;
    }
    let probe = ALLOC_PROBE.get().copied();
    let allocs_before = probe.map(|p| p()).unwrap_or(0);
    let decode_timer = SpanTimer::start(&shared.rec());
    let decoded = decode_upload_into(&scratch.payload, &mut scratch.upload);
    decode_timer.finish(&shared.rec(), Span::ServiceDecode);
    if let Err(err) = decoded {
        shared.gate.end();
        reject_frame(shared, conn, stream, &mut scratch.reply, err);
        return false;
    }
    shared.estimator.estimate_into_recorded(
        &scratch.upload.log,
        None,
        &mut scratch.est,
        &mut scratch.out,
        &shared.rec(),
    );
    if let Some(p) = probe {
        let diff = p().saturating_sub(allocs_before);
        // The first frames warm the scratch buffers; everything after
        // them is held to the zero-allocation discipline.
        if *warm_frames >= 2 {
            // sync: Relaxed statistics (see Stats).
            shared.stats.max_warm_frame_allocs.fetch_max(diff, Ordering::Relaxed);
            shared.stats.warm_frames_measured.fetch_add(1, Ordering::Relaxed);
        }
        *warm_frames += 1;
    }
    shared.cloud.upload_recorded(scratch.upload.road_id, &scratch.out.fused, &shared.rec());
    shared.gate.end();
    // sync: Relaxed statistic (see Stats).
    shared.stats.uploads_acked.fetch_add(1, Ordering::Relaxed);
    encode_ack_frame(scratch.upload.road_id, &mut scratch.reply);
    stream.write_all(&scratch.reply).is_ok()
}

/// Handles one TILE_QUERY frame. Returns whether the connection stays
/// open.
fn handle_tile_query<R: Recorder + Send + Sync>(
    shared: &Shared<R>,
    conn: u32,
    stream: &mut TcpStream,
    scratch: &mut WorkerScratch,
) -> bool {
    let Some(bounds) = decode_tile_bounds(&scratch.payload) else {
        reject_frame(
            shared,
            conn,
            stream,
            &mut scratch.reply,
            DecodeError::Malformed("bad tile bounds"),
        );
        return false;
    };
    let tile_timer = SpanTimer::start(&shared.rec());
    edges_in_tile_into(&shared.index, bounds, &mut scratch.query, &mut scratch.tile_edges);
    crate::protocol::begin_frame(TAG_TILE, &mut scratch.reply);
    // TileWriter writes the bare payload; splice it after the header
    // by writing directly into the reply past the frame prefix. The
    // writer clears its buffer, so use a dedicated payload region:
    // reuse `payload` (its request bytes are already consumed).
    {
        let mut writer = TileWriter::begin(&mut scratch.payload);
        for edge in &scratch.tile_edges {
            if shared.cloud.road_profile_into(u64::from(*edge), &mut scratch.tile_track) {
                writer.push_edge(*edge, &scratch.tile_track);
            }
        }
        writer.finish();
    }
    scratch.reply.extend_from_slice(&scratch.payload);
    finish_frame(&mut scratch.reply);
    tile_timer.finish(&shared.rec(), Span::ServiceTileQuery);
    // sync: Relaxed statistic (see Stats).
    shared.stats.tile_queries.fetch_add(1, Ordering::Relaxed);
    shared.rec().incr(Counter::ServiceTileQueries, 1);
    stream.write_all(&scratch.reply).is_ok()
}
