//! End-to-end and per-layer benchmark of the gradest road-gradient
//! service and its offline map build.
//!
//! Three workloads, each a closed loop over one seeded input set:
//!
//! - `ingest`: two persistent connections upload long multi-edge trips
//!   back to back ([`service`]).
//! - `app_sessions`: two callers run eco-routing app sessions: connect,
//!   read tiles, upload one single-edge trip, close ([`service`]).
//! - `city_batch`: `FleetEngine` network batches fused into a
//!   `CloudAggregator`, no sockets ([`batch`]).
//!
//! An untraced run reports the end-to-end metrics ([`END_TO_END`]),
//! with their timings scaled to the CPU time the host delivered
//! ([`stats::StealTimeline`]); a traced run reports the per-layer
//! metrics ([`PER_LAYER`]). Every run checks the program's outputs
//! against a reference.

pub mod batch;
pub mod inputs;
pub mod layers;
pub mod service;
pub mod stats;
pub mod trace;

use gradest_core::track::GradientTrack;
use inputs::{Inputs, Trip};
use stats::{median, peak_rss_mb, Report, StealTimeline};
use std::path::PathBuf;

/// A named workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Long uploads over two persistent connections.
    Ingest,
    /// Connect, tile reads, one upload, close — per session.
    AppSessions,
    /// Offline network-matched batches into a cloud aggregator.
    CityBatch,
}

impl Workload {
    /// Every workload.
    pub const ALL: [Workload; 3] = [Workload::Ingest, Workload::AppSessions, Workload::CityBatch];

    /// Its command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Ingest => "ingest",
            Workload::AppSessions => "app_sessions",
            Workload::CityBatch => "city_batch",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// End-to-end metrics `(name, unit)`, reported by untraced runs.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("upload_tput", "uploads/s"),
    ("upload_p50_ms", "ms"),
    ("batch_km_per_s", "km/s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics `(name, unit)`, reported by traced runs. A layer a
/// workload does not run reports 0.
pub const PER_LAYER: [(&str, &str); 39] = [
    ("protocol.encode_us", "us"),
    ("protocol.decode_us", "us"),
    ("protocol.upload_kb", "KB"),
    ("protocol.tile_write_us", "us"),
    ("protocol.tile_kb", "KB"),
    ("pipeline.estimate_us", "us"),
    ("pipeline.steering_us", "us"),
    ("pipeline.detection_us", "us"),
    ("pipeline.tracks_us", "us"),
    ("pipeline.fusion_us", "us"),
    ("pipeline.ns_per_sample", "ns"),
    ("obs.ring_us", "us"),
    ("obs.ring_share", "fraction"),
    ("cloud.upload_us", "us"),
    ("cloud.cells_per_upload", "count"),
    ("cloud.profile_us", "us"),
    ("tile.edges_us", "us"),
    ("tile.edges_per_query", "count"),
    ("tile.hit_ratio", "fraction"),
    ("index.build_ms", "ms"),
    ("index.nearest_ns", "ns"),
    ("match.trip_us", "us"),
    ("match.edges_per_trip", "count"),
    ("fleet.batch_ms", "ms"),
    ("fleet.efficiency", "fraction"),
    ("server.frame_us", "us"),
    ("server.tile_us", "us"),
    ("server.worker_busy", "fraction"),
    ("server.connect_us", "us"),
    ("server.residual_us", "us"),
    ("server.contention_us", "us"),
    ("server.busy_rejects", "count"),
    ("server.frames_rejected", "count"),
    ("resid.frame_children_us", "us"),
    ("resid.trip_stages_us", "us"),
    ("resid.batch_trips_ms", "ms"),
    ("trace.overhead_pct", "%"),
    ("trace.tied_frac", "fraction"),
    ("trace.dropped_spans", "count"),
];

/// Start of the error evaluation along each trip, metres.
const ERR_SKIP_M: f64 = 100.0;
/// Spacing of the error evaluation points, metres.
const ERR_STEP_M: f64 = 25.0;

/// The `map_err_deg` report line: the median |θ̂ − θ| in degrees of
/// each trip's fused track against the simulator's true gradient, every
/// 25 m past the first 100 m, with its sample count. It repeats exactly
/// for a seed, and its spread across seeds is set by each trip's sensor
/// bias, which is why `BENCHMARK.json` does not bound it.
pub fn map_err_line(trips: &[Trip], fused: &[GradientTrack]) -> String {
    let mut errs = Vec::new();
    for (trip, track) in trips.iter().zip(fused) {
        let end = trip.route.length().min(trip.km * 1000.0);
        let mut s = ERR_SKIP_M;
        while s < end {
            if let Some(theta) = track.theta_at(s) {
                errs.push((theta - trip.route.gradient_at(s)).abs().to_degrees());
            }
            s += ERR_STEP_M;
        }
    }
    let n = errs.len();
    format!("map_err_deg = {} deg  (n={n} points on {} trips)", median(&mut errs), trips.len())
}

/// An untraced run's end-to-end timings. The set-up times are as
/// measured; the rest are already taken from the calm intervals and
/// scaled to the CPU time the host delivered ([`StealTimeline`]).
#[derive(Debug, Clone, Copy)]
pub struct Measured<'a> {
    /// Set-up times as measured, seconds.
    pub setups: &'a [f64],
    /// Steal share across the set-ups.
    pub setup_steal: f64,
    /// The host's steal share over the timed window.
    pub steal: &'a StealTimeline,
    /// Uploads (trips fused) per second.
    pub tput: f64,
    /// Median upload latency, ms.
    pub p50_ms: f64,
    /// Trip km per second.
    pub km_per_s: f64,
}

/// Pushes the end-to-end metrics, with `setup_s` scaled by the set-up
/// steal share, and a line with the steal shares and `setup_s` as
/// measured.
pub fn push_end_to_end(report: &mut Report, m: Measured) {
    let setup_s = median(&mut m.setups.to_vec());
    report.push("setup_s", setup_s * (1.0 - m.setup_steal), "s");
    report.push("upload_tput", m.tput, "uploads/s");
    report.push("upload_p50_ms", m.p50_ms, "ms");
    report.push("batch_km_per_s", m.km_per_s, "km/s");
    report.push("peak_rss_mb", peak_rss_mb(), "MB");
    let (calm_max, calm) = m.steal.calm_max();
    report.line(format!(
        "host steal share: set-up {:.4}; timed window median {:.4}, at most {calm_max:.4} in the \
         {calm} calm intervals the timings come from; setup_s as measured {setup_s} s (median of {})",
        m.setup_steal,
        m.steal.median(),
        m.setups.len(),
    ));
}

/// Where a traced run writes its spans (inside the benchmark directory).
pub fn trace_path(workload: Workload) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!("trace-{}.jsonl", workload.name()))
}

/// Builds the inputs of `workload` from `seed` and runs it for
/// `seconds`, traced or not.
pub fn run(workload: Workload, seed: u64, seconds: f64, traced: bool) -> std::io::Result<Report> {
    let inputs = Inputs::build(workload, seed);
    let mut report = match workload {
        Workload::CityBatch => batch::run(&inputs, seconds, traced),
        _ => service::run(&inputs, seconds, traced)?,
    };
    report.lines.insert(
        0,
        format!(
            "workload {} seed {seed}: {} trips, {} IMU samples, {:.1} trip km; input_gen_s = {:.3}, input_digest = {:016x}",
            workload.name(),
            inputs.trips.len(),
            inputs.imu_samples(),
            inputs.trips.iter().map(|t| t.km).sum::<f64>(),
            inputs.gen_s,
            inputs.digest
        ),
    );
    report.line(format!(
        "failed_frac = {} fraction ({} failed of {} attempted)",
        report.failed_frac(),
        report.failed,
        report.attempted
    ));
    Ok(report)
}
