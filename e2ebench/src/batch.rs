//! The offline map build, `city_batch`: `FleetEngine` network batches
//! over free-space city trips, fused into a `CloudAggregator`. No
//! sockets, no telemetry ring.

use crate::inputs::{Inputs, Trip};
use crate::layers::{self, TripMeans};
use crate::service::{push_pipeline, same_bits};
use crate::stats::{mean, pooled_rate, CpuTicks, Latency, Report, StealTimeline};
use crate::trace::{ns_since, write_trace, BenchSpan, Op, ServerSpan, SpanSink};
use crate::{map_err_line, push_end_to_end, trace_path, Measured};
use gradest_core::cloud::CloudAggregator;
use gradest_core::fleet::FleetEngine;
use gradest_core::pipeline::{
    EstimatorConfig, EstimatorScratch, GradientEstimate, GradientEstimator,
};
use gradest_geo::{NetworkIndex, RoadNetwork};
use gradest_obs::{NoopRecorder, Recorder, Span};
use gradest_sensors::suite::SensorLog;
use gradest_sensors::NetworkMatcher;
use std::time::{Duration, Instant};

/// Fleet worker threads.
pub const WORKERS: usize = 2;
/// Set-ups measured per run; `setup_s` is their median. Enough that
/// their CPU time spans many clock ticks of `/proc/stat`.
pub const SETUP_REPS: usize = 101;
/// Batches the trip pool is split into; they run in turn.
pub const BATCHES: usize = 4;
/// Cloud arc-cell spacing, metres (the service default).
const GRID_DS: f64 = 5.0;

/// Whether two estimates hold the same numbers, bit for bit.
pub fn same_estimate(a: &GradientEstimate, b: &GradientEstimate) -> bool {
    a.tracks.len() == b.tracks.len()
        && a.tracks.iter().zip(&b.tracks).all(|(x, y)| same_bits(x, y))
        && same_bits(&a.fused, &b.fused)
        && a.detections == b.detections
        && a.distance_m.to_bits() == b.distance_m.to_bits()
}

/// The serial reference: `match_trip` then `estimate_into` per trip,
/// one thread, one scratch.
pub fn serial_reference(
    logs: &[&SensorLog],
    net: &RoadNetwork,
    index: &NetworkIndex,
) -> Vec<GradientEstimate> {
    let estimator = GradientEstimator::new(EstimatorConfig::default());
    let mut matcher = NetworkMatcher::new(net, index);
    let mut scratch = EstimatorScratch::new();
    logs.iter()
        .map(|log| {
            let matched = matcher.match_trip(&log.gps);
            let mut out = GradientEstimate::default();
            estimator.estimate_into(log, matched.route.as_ref(), &mut scratch, &mut out);
            out
        })
        .collect()
}

/// One timed phase of batches.
#[derive(Debug, Default)]
struct Phase {
    /// Batch and fuse spans.
    spans: Vec<BenchSpan>,
    /// Per trip: batch submission and its cloud upload returning, ns
    /// since the run epoch.
    trip_ns: Vec<(u64, u64)>,
    /// Per batch run: batch index, and start and end of its match,
    /// estimate and fuse, ns since the run epoch.
    batches: Vec<(usize, u64, u64)>,
    /// Trips fused.
    trips: u64,
    /// Trips whose estimate differed from the serial reference.
    mismatches: u64,
    /// The host's steal share during the phase.
    steal: StealTimeline,
}

impl Phase {
    /// The rate per second of `weight(batch index)` over the match,
    /// estimate and fuse time of the batches in the calm intervals,
    /// scaled by [`StealTimeline::scaled`], by [`pooled_rate`].
    fn rate(&self, weight: impl Fn(usize) -> f64) -> f64 {
        let cycles =
            self.batches.iter().filter_map(|&(j, s, e)| Some((j, self.steal.scaled(s, e)? / 1e9)));
        pooled_rate(cycles, weight)
    }

    /// Trips fused per second.
    fn tput(&self, batches: &[(Vec<usize>, Vec<SensorLog>)]) -> f64 {
        self.rate(|j| batches[j].0.len() as f64)
    }

    /// Trip latency as measured (`None`), or from the calm intervals of
    /// `steal`, scaled.
    fn latency(&self, steal: Option<&StealTimeline>) -> Latency {
        let ns: Vec<f64> = self
            .trip_ns
            .iter()
            .filter_map(|&(s, e)| match steal {
                Some(t) => t.scaled(s, e),
                None => Some((e - s) as f64),
            })
            .collect();
        Latency::of(&ns, 0)
    }
}

/// The pool split into `BATCHES` batches, batch `j` taking every
/// `BATCHES`-th trip from `j`. Driving times are stratified by index,
/// so every batch spans the whole range and costs about the same.
fn split_pool(pool: &[Trip]) -> Vec<(Vec<usize>, Vec<SensorLog>)> {
    (0..BATCHES)
        .map(|j| {
            let trips: Vec<usize> = (j..pool.len()).step_by(BATCHES).collect();
            let batch = trips.iter().map(|&i| pool[i].log.clone()).collect();
            (trips, batch)
        })
        .collect()
}

/// Runs the pool's batches in turn until `seconds` have passed.
#[allow(clippy::too_many_arguments)]
fn run_phase<R: Recorder>(
    inputs: &Inputs,
    batches: &[(Vec<usize>, Vec<SensorLog>)],
    engine: &FleetEngine,
    index: &NetworkIndex,
    reference: &[GradientEstimate],
    seconds: f64,
    epoch: Instant,
    rec: &R,
) -> Phase {
    let mut phase = Phase::default();
    let cloud = CloudAggregator::new(GRID_DS);
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let mut batch = 0u64;
    let ((), steal) = StealTimeline::record(epoch, || {
        while Instant::now() < deadline {
            let j = batch as usize % batches.len();
            let (trips, logs) = &batches[j];
            batch += 1;
            let bid = batch << 20;
            let b0 = ns_since(epoch);
            let estimates = engine.process_batch_network_recorded(logs, &inputs.net, index, rec);
            let b1 = ns_since(epoch);
            phase.spans.push(span(Op::Batch, bid, 0, b0, b1, j));
            let mut f0 = b1;
            for (&trip, est) in trips.iter().zip(&estimates) {
                cloud.upload(trip as u64, &est.fused);
                let f1 = ns_since(epoch);
                phase.spans.push(span(Op::Fuse, bid + 1 + trip as u64, bid, f0, f1, trip));
                phase.trip_ns.push((b0, f1));
                f0 = f1;
            }
            phase.batches.push((j, b0, f0));
            phase.trips += estimates.len() as u64;
            phase.mismatches += trips
                .iter()
                .zip(&estimates)
                .filter(|(&i, est)| !same_estimate(est, &reference[i]))
                .count() as u64;
            phase.mismatches += trips.len().abs_diff(estimates.len()) as u64;
        }
    });
    phase.steal = steal;
    phase
}

fn span(op: Op, req: u64, parent: u64, start_ns: u64, end_ns: u64, item: usize) -> BenchSpan {
    BenchSpan {
        op,
        req,
        parent,
        caller: 0,
        conn: 0,
        start_ns,
        end_ns,
        ok: true,
        item: item as u32,
        edges: 0,
    }
}

/// Runs `city_batch` and reports its end-to-end metrics, or, when
/// `traced`, its per-layer metrics.
pub fn run(inputs: &Inputs, seconds: f64, traced: bool) -> Report {
    let logs: Vec<&SensorLog> = inputs.trips.iter().map(|t| &t.log).collect();
    let batches = split_pool(&inputs.trips);
    let epoch = Instant::now();

    // Set-up: index build and pool creation, until each worker has
    // estimated one short trip.
    let warmup: Vec<SensorLog> = inputs.warmup.iter().map(|t| t.log.clone()).collect();
    let mut setups = Vec::with_capacity(SETUP_REPS);
    let mut built = None;
    let ticks = CpuTicks::now();
    for _ in 0..if traced { 1 } else { SETUP_REPS } {
        let t = Instant::now();
        let index = NetworkIndex::build(&inputs.net);
        let engine = FleetEngine::new(GradientEstimator::new(EstimatorConfig::default()), WORKERS);
        let first = engine.process_batch_network(&warmup, &inputs.net, &index);
        setups.push(t.elapsed().as_secs_f64());
        built = Some((index, engine, first));
    }
    let setup_steal = ticks.steal_share(CpuTicks::now());
    let (index, engine, first) = built.expect("at least one set-up");
    let reference = serial_reference(&logs, &inputs.net, &index);
    let warmup_refs: Vec<&SensorLog> = warmup.iter().collect();
    let first_ok = first.len() == WORKERS
        && first
            .iter()
            .zip(&serial_reference(&warmup_refs, &inputs.net, &index))
            .all(|(a, b)| same_estimate(a, b));

    let run_s = if traced { seconds / 2.0 } else { seconds };
    let plain =
        run_phase(inputs, &batches, &engine, &index, &reference, run_s, epoch, &NoopRecorder);
    let fused: Vec<_> = reference.iter().map(|e| e.fused.clone()).collect();
    let mut report = Report::default();
    let traced_phase;
    let mut phases = vec![&plain];
    if !traced {
        let lat = plain.latency(None);
        let km = |j: usize| batches[j].0.iter().map(|&i| inputs.trips[i].km).sum::<f64>();
        push_end_to_end(
            &mut report,
            Measured {
                setups: &setups,
                setup_steal,
                steal: &plain.steal,
                tput: plain.tput(&batches),
                p50_ms: plain.latency(Some(&plain.steal)).p50_ms,
                km_per_s: plain.rate(km),
            },
        );
        report.line(map_err_line(&inputs.trips, &fused));
        let wall_s = match (plain.batches.first(), plain.batches.last()) {
            (Some(first), Some(last)) => (last.2 - first.1) as f64 / 1e9,
            _ => 0.0,
        };
        report.line(format!(
            "{} trips fused in {} batch runs over {wall_s:.2} s; upload_tput and batch_km_per_s \
             divide by the summed median scaled run time of the {BATCHES} batches of {} trips",
            plain.trips,
            plain.batches.len(),
            logs.len() / BATCHES
        ));
        report.line(lat.describe("upload"));
    } else {
        let sink = SpanSink::new(epoch, (run_s * 40_000.0) as usize + 10_000);
        traced_phase =
            run_phase(inputs, &batches, &engine, &index, &reference, run_s, epoch, &sink);
        let server_spans = sink.spans();
        let costs = layers::replay_trips(&logs, Some((&inputs.net, &index)), engine.estimator());
        let means = TripMeans::of(&costs);
        let serial_ns: Vec<f64> = batches
            .iter()
            .map(|(trips, _)| trips.iter().map(|&i| costs[i].match_ns + costs[i].estimate_ns).sum())
            .collect();
        let batch_spans: Vec<&BenchSpan> =
            traced_phase.spans.iter().filter(|s| s.op == Op::Batch).collect();
        let in_batch =
            |s: &ServerSpan, b: &BenchSpan| s.end_ns >= b.start_ns && s.end_ns <= b.end_ns;
        let mut efficiency = Vec::new();
        let mut resid_ms = Vec::new();
        let mut tied = 0usize;
        for b in &batch_spans {
            let fuse: Vec<&BenchSpan> =
                traced_phase.spans.iter().filter(|s| s.parent == b.req).collect();
            let fuse_ns: u64 = fuse.iter().map(|s| s.dur_ns()).sum();
            let trips: Vec<&ServerSpan> = server_spans
                .iter()
                .filter(|s| matches!(s.span, Span::NetworkMatchTrip | Span::Trip) && in_batch(s, b))
                .collect();
            tied += trips.iter().filter(|s| s.span == Span::Trip).count();
            let per_trip_ns: u64 = trips.iter().map(|s| s.dur_ns()).sum::<u64>() + fuse_ns;
            let wall_ns = b.dur_ns() + fuse_ns;
            efficiency.push(serial_ns[b.item as usize] / (b.dur_ns() as f64 * WORKERS as f64));
            resid_ms.push((wall_ns as f64 * WORKERS as f64 - per_trip_ns as f64) / 1e6);
        }
        let overhead_pct = (plain.tput(&batches) / traced_phase.tput(&batches) - 1.0) * 100.0;
        let batch_ms =
            mean(&batch_spans.iter().map(|b| b.dur_ns() as f64).collect::<Vec<_>>()) / 1e6;
        let resid = mean(&resid_ms);
        for name in [
            "protocol.encode_us",
            "protocol.decode_us",
            "protocol.upload_kb",
            "protocol.tile_write_us",
            "protocol.tile_kb",
        ] {
            report.push(name, 0.0, unit_of(name));
        }
        push_pipeline(&mut report, &means);
        report.push("obs.ring_us", 0.0, "us");
        report.push("obs.ring_share", 0.0, "fraction");
        report.push("cloud.upload_us", means.upload_us, "us");
        report.push("cloud.cells_per_upload", means.cells, "count");
        report.push("cloud.profile_us", 0.0, "us");
        report.push("tile.edges_us", 0.0, "us");
        report.push("tile.edges_per_query", 0.0, "count");
        report.push("tile.hit_ratio", 0.0, "fraction");
        report.push("index.build_ms", layers::index_build_ms(&inputs.net), "ms");
        report.push("index.nearest_ns", layers::nearest_ns(&index, &logs), "ns");
        report.push("match.trip_us", means.match_us, "us");
        report.push("match.edges_per_trip", means.match_edges, "count");
        report.push("fleet.batch_ms", batch_ms, "ms");
        report.push("fleet.efficiency", mean(&efficiency), "fraction");
        for name in [
            "server.frame_us",
            "server.tile_us",
            "server.worker_busy",
            "server.connect_us",
            "server.residual_us",
            "server.contention_us",
            "server.busy_rejects",
            "server.frames_rejected",
            "resid.frame_children_us",
        ] {
            report.push(name, 0.0, unit_of(name));
        }
        report.push("resid.trip_stages_us", means.trip_resid_us, "us");
        report.push("resid.batch_trips_ms", resid, "ms");
        report.push("trace.overhead_pct", overhead_pct, "%");
        report.push("trace.tied_frac", tied as f64 / traced_phase.trips.max(1) as f64, "fraction");
        report.push("trace.dropped_spans", sink.dropped() as f64, "count");
        report.line(format!(
            "traced phase: {} batches, {} trips, {} server spans; untraced {:.1} trips/s vs traced {:.1} trips/s",
            batch_spans.len(),
            traced_phase.trips,
            server_spans.len(),
            plain.tput(&batches),
            traced_phase.tput(&batches)
        ));
        report.line(format!(
            "residuals: server.residual_us = n/a, resid.frame_children_us = n/a (no service), \
             resid.trip_stages_us = {:.1} us (trip - four stages), \
             resid.batch_trips_ms = {resid:.2} ms (batch wall x workers - per-trip match + estimate + upload)",
            means.trip_resid_us
        ));
        let path = trace_path(inputs.workload);
        write_trace(&path, &traced_phase.spans, &[], &server_spans);
        report.line(format!("trace written to {}", path.display()));
        phases.push(&traced_phase);
    }
    report.attempted = phases.iter().map(|p| p.trips).sum::<u64>() + WORKERS as u64;
    report.failed =
        phases.iter().map(|p| p.mismatches).sum::<u64>() + u64::from(!first_ok) * WORKERS as u64;
    report.correct = report.failed == 0;
    if !report.correct {
        report.line(format!(
            "CHECK FAILED: {} trips differ from the serial match + estimate reference",
            report.failed
        ));
    }
    report
}

/// The unit of a per-layer metric, from the published list.
fn unit_of(name: &str) -> &'static str {
    crate::PER_LAYER.iter().find(|m| m.0 == name).map_or("", |m| m.1)
}
