//! Single-trip hot-path benchmark: the warm [`EstimatorScratch`]
//! pipeline on the standard red-road trip.
//!
//! Not a paper artifact — an engineering benchmark for the per-trip
//! kernels everything else (fleet batches, the cloud experiments) sits
//! on. Emits `BENCH_pipeline.json` with:
//!
//! * latency — warm-scratch [`GradientEstimator::estimate_into`], plus
//!   its per-stage wall-clock split, the `tracks` stage per IMU sample,
//!   and the same warm trip forward-only (`rts_smoothing: false`), so
//!   the backward RTS pass's share of `tracks` reads off the difference
//!   (report-only: no `bench-gate` row reads the last two);
//! * correctness gates — uniform-grid LOWESS against the generic
//!   reference fit on the trip's steering series (must agree within
//!   1e-12) and warm-vs-cold bit-identity of the estimate;
//! * warm-path allocations per trip, when the `gradest-experiments`
//!   binary's counting allocator is installed (`None` elsewhere, e.g.
//!   under `cargo test`);
//! * the cost of observing — the warm trip timed under each recording
//!   sink, and on two threads at once (each with its own scratch) into
//!   `NoopRecorder` and into one shared `TimeSeriesRecorder`, with each
//!   overhead ratio against the one-thread `NoopRecorder` row
//!   (report-only: no `bench-gate` row reads it).

use crate::perfbench::{alloc_counter, run_bench, BenchReport};
use crate::report::{print_table, save_json};
use crate::scenarios::red_road_drive;
use gradest_core::lane_change::SMOOTHING_WINDOW_S;
use gradest_core::pipeline::{
    EstimatorConfig, EstimatorScratch, GradientEstimate, GradientEstimator, StageNanos,
};
use gradest_geo::Route;
use gradest_math::lowess::{lowess_into, lowess_reference, LowessScratch};
use gradest_obs::{
    NoopRecorder, Recorder, RunRecorder, RunReport, Tee, TimeSeriesRecorder, TraceRing,
};
use gradest_sensors::alignment::{steering_rate_profile_into, WRoadScratch};
use gradest_sensors::columnar::ImuColumns;
use gradest_sensors::suite::SensorLog;
use serde::{Deserialize, Serialize};

/// Pipeline hot-path benchmark result (`BENCH_pipeline.json`).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PipelineHotpathBench {
    /// IMU samples in the benchmark trip.
    pub imu_samples: usize,
    /// Warm-scratch latency (the production hot path).
    pub optimized_warm_fast: BenchReport,
    /// Warm trips per second (single worker).
    pub trips_per_sec: f64,
    /// Per-stage wall-clock split of one warm trip.
    pub stage_ns: StageNanos,
    /// The `tracks` stage of that trip per IMU sample, ns.
    pub tracks_ns_per_imu_sample: f64,
    /// The warm trip with RTS smoothing off, timed with the same
    /// settings as [`Self::optimized_warm_fast`]: its gap to that row is
    /// the backward pass's cost.
    pub forward_only_warm: BenchReport,
    /// Max |Δ| between `lowess_into` (uniform-grid fast path) and
    /// `lowess_reference` over the trip's raw steering series, with the
    /// pipeline's smoothing window.
    pub fast_vs_generic_max_abs_diff: f64,
    /// Whether warm-scratch [`GradientEstimator::estimate_into`] is
    /// bit-identical to a cold [`GradientEstimator::estimate`].
    pub warm_bit_identical: bool,
    /// Heap allocations during one warm-path trip; `None` when no
    /// counting allocator is installed in this process.
    pub allocs_per_trip_warm: Option<u64>,
    /// Whether the [`RunRecorder`]-instrumented warm path reproduced
    /// the plain warm-path estimate bit for bit.
    pub recorded_bit_identical: bool,
    /// Heap allocations during one warm trip with a live recorder —
    /// the recording sinks are allocation-free, so this must match
    /// [`Self::allocs_per_trip_warm`]. `None` without a counting
    /// allocator.
    pub allocs_per_trip_warm_recorded: Option<u64>,
    /// Observability report from the recorded warm trip(s): span tree,
    /// counters, and histograms. `bench-gate` reads the per-stage span
    /// timings out of this field when diffing against the committed
    /// baseline.
    pub obs: RunReport,
    /// Whether the warm path with a live flight-recorder ring teed in
    /// reproduced the plain warm-path estimate bit for bit.
    pub traced_bit_identical: bool,
    /// Heap allocations during one warm trip with metrics *and* the
    /// trace ring live — the ring's buffer is pre-sized, so this must
    /// match [`Self::allocs_per_trip_warm`]. `None` without a counting
    /// allocator.
    pub allocs_per_trip_warm_traced: Option<u64>,
    /// Events one warm trip pushes into an amply-sized trace ring.
    pub trace_events_per_trip: u64,
    /// Events a deliberately tiny (capacity 8) ring dropped while the
    /// same trip ran against it — overflow must shed load by counting,
    /// not by growing.
    pub trace_overflow_dropped: u64,
    /// Whether the warm path with a live [`TimeSeriesRecorder`]
    /// reproduced the plain warm-path estimate bit for bit.
    pub timeseries_bit_identical: bool,
    /// Heap allocations during one warm trip with a live
    /// [`TimeSeriesRecorder`]; must match
    /// [`Self::allocs_per_trip_warm`]. `None` without a counting
    /// allocator.
    pub allocs_per_trip_warm_timeseries: Option<u64>,
    /// Cost of observing: one row per recording sink, timed with the
    /// same settings as [`Self::optimized_warm_fast`] (the
    /// `NoopRecorder` row). Report-only; `bench-gate` gates none of it.
    pub observe_cost: Vec<ObserveCost>,
}

/// The warm trip timed under one live recording sink.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ObserveCost {
    /// The sink the trip recorded into.
    pub recorder: String,
    /// Warm-trip latency with that sink attached.
    pub warm: BenchReport,
    /// `warm` median over the `NoopRecorder` median (1.0 = free).
    pub overhead_vs_noop: f64,
}

/// Runs the hot-path benchmark over the standard red-road trip.
pub fn run(seed: u64, samples: usize) -> PipelineHotpathBench {
    let drive = red_road_drive(seed);
    let log = &drive.log;
    let map = Some(&drive.route);
    let estimator = GradientEstimator::new(EstimatorConfig::default());

    // Correctness gates before timing anything. LOWESS: the uniform-grid
    // fast path against the generic reference on the trip's raw
    // steering series, with the window the pipeline smooths it with.
    let mut cols = ImuColumns::default();
    cols.fill_from(&log.imu);
    let mut w_raw = Vec::new();
    steering_rate_profile_into(
        &cols.t,
        &cols.gyro_z,
        &log.gps,
        map,
        &mut WRoadScratch::default(),
        &mut w_raw,
    );
    let span_s = cols.t.last().copied().unwrap_or(0.0) - cols.t.first().copied().unwrap_or(0.0);
    let fraction = (SMOOTHING_WINDOW_S / span_s.max(1e-9)).clamp(1e-4, 1.0);
    let mut fast_w = Vec::new();
    lowess_into(&cols.t, &w_raw, fraction, &mut LowessScratch::new(), &mut fast_w)
        .expect("steering series on increasing times");
    let reference_w =
        lowess_reference(&cols.t, &w_raw, fraction).expect("steering series on increasing times");
    assert_eq!(fast_w.len(), reference_w.len());
    let fast_vs_generic_max_abs_diff =
        fast_w.iter().zip(&reference_w).map(|(a, b)| (a - b).abs()).fold(0.0f64, f64::max);
    // Estimate: warm scratch against a cold, freshly allocated run.
    let cold = estimator.estimate(log, map);
    let mut scratch = EstimatorScratch::new();
    let mut out = GradientEstimate::default();
    estimator.estimate_into(log, map, &mut scratch, &mut out);
    estimator.estimate_into(log, map, &mut scratch, &mut out);
    let warm_bit_identical = out == cold;

    // The scratch and output are warm; time steady-state trips.
    let optimized_warm_fast = run_bench("pipeline_warm_fast_lowess", samples, 1, || {
        estimator.estimate_into(log, map, &mut scratch, &mut out);
        assert!(!out.fused.is_empty());
    });
    let stage_ns = scratch.stages();
    let tracks_ns_per_imu_sample = stage_ns.tracks as f64 / log.imu.len() as f64;
    let forward_only =
        GradientEstimator::new(EstimatorConfig { rts_smoothing: false, ..Default::default() });
    let mut forward_scratch = EstimatorScratch::new();
    let mut forward_out = GradientEstimate::default();
    forward_only.estimate_into(log, map, &mut forward_scratch, &mut forward_out);
    let forward_only_warm = run_bench("pipeline_warm_forward_only", samples, 1, || {
        forward_only.estimate_into(log, map, &mut forward_scratch, &mut forward_out);
    });

    let allocs_per_trip_warm = if alloc_counter::is_installed() {
        let before = alloc_counter::allocations();
        estimator.estimate_into(log, map, &mut scratch, &mut out);
        Some(alloc_counter::allocations() - before)
    } else {
        None
    };

    // Recorded pass: the same warm trip with a live RunRecorder. The
    // recorder's sinks are atomics and fixed histogram cells, so the
    // instrumented path must stay bit-identical and allocation-free.
    let rec = RunRecorder::new();
    let mut rec_out = GradientEstimate::default();
    estimator.estimate_into_recorded(log, map, &mut scratch, &mut rec_out, &rec);
    let allocs_per_trip_warm_recorded = if alloc_counter::is_installed() {
        let before = alloc_counter::allocations();
        estimator.estimate_into_recorded(log, map, &mut scratch, &mut rec_out, &rec);
        Some(alloc_counter::allocations() - before)
    } else {
        None
    };
    let recorded_bit_identical = rec_out == out;
    let obs = rec.report();

    // Traced pass: metrics plus a live flight-recorder ring. The ring's
    // buffer is allocated up front, so the warm instrumented trip must
    // still not touch the heap, and the estimate stays bit-identical.
    let ring = TraceRing::with_capacity(4096);
    let traced = Tee::new(&rec, &ring);
    let mut traced_out = GradientEstimate::default();
    estimator.estimate_into_recorded(log, map, &mut scratch, &mut traced_out, &traced);
    let events_warmup = ring.len() as u64;
    let allocs_per_trip_warm_traced = if alloc_counter::is_installed() {
        let before = alloc_counter::allocations();
        estimator.estimate_into_recorded(log, map, &mut scratch, &mut traced_out, &traced);
        Some(alloc_counter::allocations() - before)
    } else {
        estimator.estimate_into_recorded(log, map, &mut scratch, &mut traced_out, &traced);
        None
    };
    let traced_bit_identical = traced_out == out;
    let trace_events_per_trip = ring.len() as u64 - events_warmup;
    assert_eq!(ring.dropped(), 0, "amply-sized ring must not drop events");

    // Overflow pass: a ring too small for even one trip must shed the
    // excess by bumping its drop counter — never by reallocating.
    let tiny = TraceRing::with_capacity(8);
    let tee_tiny = Tee::new(&rec, &tiny);
    estimator.estimate_into_recorded(log, map, &mut scratch, &mut traced_out, &tee_tiny);
    let overflow_allocs = if alloc_counter::is_installed() {
        let before = alloc_counter::allocations();
        estimator.estimate_into_recorded(log, map, &mut scratch, &mut traced_out, &tee_tiny);
        Some(alloc_counter::allocations() - before)
    } else {
        None
    };
    assert_eq!(
        overflow_allocs.unwrap_or(0),
        0,
        "overflowing trace ring allocated instead of dropping"
    );
    let trace_overflow_dropped = tiny.dropped();
    assert!(tiny.len() <= 8, "tiny ring grew past its capacity");

    // Time-series pass: the live ring the service records into. Its
    // windows are allocated at construction, so the warm trip must not
    // touch the heap, and the estimate stays bit-identical.
    let series = TimeSeriesRecorder::default();
    let mut series_out = GradientEstimate::default();
    estimator.estimate_into_recorded(log, map, &mut scratch, &mut series_out, &series);
    let allocs_per_trip_warm_timeseries = if alloc_counter::is_installed() {
        let before = alloc_counter::allocations();
        estimator.estimate_into_recorded(log, map, &mut scratch, &mut series_out, &series);
        Some(alloc_counter::allocations() - before)
    } else {
        None
    };
    let timeseries_bit_identical = series_out == out;

    // Cost of observing: the same warm trip and perfbench settings as
    // the NoopRecorder row, once per sink. Fresh sinks, so `obs` still
    // describes exactly the recorded pass above.
    let observed = |recorder: &str, warm: BenchReport| ObserveCost {
        recorder: recorder.to_string(),
        overhead_vs_noop: warm.median_ns_per_op / optimized_warm_fast.median_ns_per_op,
        warm,
    };
    let mut cost_out = GradientEstimate::default();
    let run_sink = RunRecorder::new();
    let run_row = run_bench("pipeline_warm_run_recorder", samples, 1, || {
        estimator.estimate_into_recorded(log, map, &mut scratch, &mut cost_out, &run_sink);
    });
    let series_sink = TimeSeriesRecorder::default();
    let series_row = run_bench("pipeline_warm_timeseries_recorder", samples, 1, || {
        estimator.estimate_into_recorded(log, map, &mut scratch, &mut cost_out, &series_sink);
    });
    let (tee_run, tee_ring) = (RunRecorder::new(), TraceRing::with_capacity(4096));
    let tee_sink = Tee::new(&tee_run, &tee_ring);
    let tee_row = run_bench("pipeline_warm_traced", samples, 1, || {
        estimator.estimate_into_recorded(log, map, &mut scratch, &mut cost_out, &tee_sink);
    });
    let pair_noop_row =
        two_writer_bench("pipeline_warm_2x_noop", samples, &estimator, log, map, &NoopRecorder);
    let shared_series = TimeSeriesRecorder::default();
    let pair_series_row = two_writer_bench(
        "pipeline_warm_2x_timeseries",
        samples,
        &estimator,
        log,
        map,
        &shared_series,
    );
    let observe_cost = vec![
        observed("RunRecorder", run_row),
        observed("TimeSeriesRecorder", series_row),
        observed("Tee(RunRecorder, TraceRing)", tee_row),
        observed("2 threads: NoopRecorder", pair_noop_row),
        observed("2 threads: one TimeSeriesRecorder", pair_series_row),
    ];

    PipelineHotpathBench {
        imu_samples: log.imu.len(),
        trips_per_sec: optimized_warm_fast.ops_per_sec,
        optimized_warm_fast,
        stage_ns,
        tracks_ns_per_imu_sample,
        forward_only_warm,
        fast_vs_generic_max_abs_diff,
        warm_bit_identical,
        allocs_per_trip_warm,
        recorded_bit_identical,
        allocs_per_trip_warm_recorded,
        obs,
        traced_bit_identical,
        allocs_per_trip_warm_traced,
        trace_events_per_trip,
        trace_overflow_dropped,
        timeseries_bit_identical,
        allocs_per_trip_warm_timeseries,
        observe_cost,
    }
}

/// Two threads, each with its own warm scratch, run the trip at the
/// same time into the shared `rec` — the service's two workers on one
/// live ring. One op is the pair of trips, thread spawns included. On
/// one core this measures time-slicing, not contention.
fn two_writer_bench<R: Recorder>(
    name: &str,
    samples: usize,
    estimator: &GradientEstimator,
    log: &SensorLog,
    map: Option<&Route>,
    rec: &R,
) -> BenchReport {
    let mut writers: [(EstimatorScratch, GradientEstimate); 2] = Default::default();
    run_bench(name, samples, 1, || {
        std::thread::scope(|scope| {
            for (scratch, out) in writers.iter_mut() {
                scope.spawn(move || estimator.estimate_into_recorded(log, map, scratch, out, rec));
            }
        });
    })
}

/// Prints the timing table and writes `BENCH_pipeline.json`.
pub fn print_report(r: &PipelineHotpathBench) {
    let b = &r.optimized_warm_fast;
    let rows: Vec<Vec<String>> = [b, &r.forward_only_warm]
        .iter()
        .map(|row| {
            vec![
                row.name.clone(),
                format!("{:.2}", row.median_ns_per_op / 1e6),
                format!("{:.2}", row.ops_per_sec),
            ]
        })
        .collect();
    let allocs = match r.allocs_per_trip_warm {
        Some(n) => n.to_string(),
        None => "not measured".to_string(),
    };
    print_table(
        &format!(
            "Pipeline hot path — {} IMU samples: LOWESS fast vs reference max |Δ| {:.2e}, \
             warm vs cold bit-identical={}, warm allocs/trip={}",
            r.imu_samples, r.fast_vs_generic_max_abs_diff, r.warm_bit_identical, allocs
        ),
        &["bench", "ms/trip", "trips/s"],
        &rows,
    );
    let s = &r.stage_ns;
    print_table(
        &format!(
            "Warm-trip stage split ({:.1} ns per IMU sample in tracks)",
            r.tracks_ns_per_imu_sample
        ),
        &["stage", "ms"],
        &[
            vec!["steering (columnar + LOWESS)".into(), format!("{:.3}", s.steering as f64 / 1e6)],
            vec!["lane-change detection".into(), format!("{:.3}", s.detection as f64 / 1e6)],
            vec!["EKF tracks (+RTS)".into(), format!("{:.3}", s.tracks as f64 / 1e6)],
            vec!["resample + fusion".into(), format!("{:.3}", s.fusion as f64 / 1e6)],
        ],
    );
    println!(
        "\n== Recorded warm trip (RunRecorder) — bit-identical={}, allocs/trip={} ==\n{}",
        r.recorded_bit_identical,
        match r.allocs_per_trip_warm_recorded {
            Some(n) => n.to_string(),
            None => "not measured".to_string(),
        },
        r.obs.render()
    );
    println!(
        "== Traced warm trip (Tee: RunRecorder + TraceRing) — bit-identical={}, \
         allocs/trip={}, events/trip={}, tiny-ring dropped={} ==",
        r.traced_bit_identical,
        match r.allocs_per_trip_warm_traced {
            Some(n) => n.to_string(),
            None => "not measured".to_string(),
        },
        r.trace_events_per_trip,
        r.trace_overflow_dropped,
    );
    let mut cost_rows = vec![vec![
        "NoopRecorder".to_string(),
        format!("{:.3}", b.median_ns_per_op / 1e6),
        "1.000".to_string(),
    ]];
    cost_rows.extend(r.observe_cost.iter().map(|c| {
        vec![
            c.recorder.clone(),
            format!("{:.3}", c.warm.median_ns_per_op / 1e6),
            format!("{:.3}", c.overhead_vs_noop),
        ]
    }));
    print_table(
        &format!(
            "Cost of observing (warm trip, {} samples; TimeSeriesRecorder bit-identical={}, \
             allocs/trip={}; 2-thread rows on available_parallelism={})",
            b.samples,
            r.timeseries_bit_identical,
            match r.allocs_per_trip_warm_timeseries {
                Some(n) => n.to_string(),
                None => "not measured".to_string(),
            },
            std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1),
        ),
        &["recorder", "ms/trip", "x noop"],
        &cost_rows,
    );
    save_json("BENCH_pipeline", r);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hotpath_bench_runs_and_gates_hold() {
        let r = run(400, 1);
        assert!(r.imu_samples > 1000);
        assert!(
            r.fast_vs_generic_max_abs_diff < 1e-12,
            "fast path diverged: {}",
            r.fast_vs_generic_max_abs_diff
        );
        assert!(r.warm_bit_identical, "warm estimate differs from the cold one");
        assert!(r.tracks_ns_per_imu_sample > 0.0);
        assert_eq!(r.forward_only_warm.name, "pipeline_warm_forward_only");
        assert!(r.forward_only_warm.median_ns_per_op > 0.0);
        // No counting allocator under `cargo test`.
        assert_eq!(r.allocs_per_trip_warm, None);
        assert_eq!(r.allocs_per_trip_warm_recorded, None);
        assert!(r.recorded_bit_identical, "recorded warm path diverged from plain warm path");
        // One recorded trip under `cargo test` (the alloc-measured
        // second trip only happens with the counting allocator).
        assert_eq!(r.obs.counter("trips-processed"), Some(1));
        for span in ["trip", "steering", "detection", "tracks", "fusion"] {
            assert!(r.obs.span(span).is_some(), "missing span {span}");
        }
        assert!(r.traced_bit_identical, "traced warm path diverged from plain warm path");
        assert_eq!(r.allocs_per_trip_warm_traced, None);
        // Every trip emits at least trip-start/trip-end plus the
        // per-track span-end events.
        assert!(r.trace_events_per_trip >= 2, "trace ring saw {} events", r.trace_events_per_trip);
        assert!(r.trace_overflow_dropped > 0, "capacity-8 ring should have dropped events");
        assert!(r.timeseries_bit_identical, "time-series warm path diverged from plain warm path");
        assert_eq!(r.allocs_per_trip_warm_timeseries, None);
        let sinks: Vec<&str> = r.observe_cost.iter().map(|c| c.recorder.as_str()).collect();
        assert_eq!(
            sinks,
            [
                "RunRecorder",
                "TimeSeriesRecorder",
                "Tee(RunRecorder, TraceRing)",
                "2 threads: NoopRecorder",
                "2 threads: one TimeSeriesRecorder",
            ]
        );
        for c in &r.observe_cost {
            assert!(c.overhead_vs_noop > 0.0, "{}: ratio {}", c.recorder, c.overhead_vs_noop);
        }
    }

    #[test]
    fn bench_json_round_trips_with_obs_report() {
        let r = run(401, 1);
        let json = serde_json::to_string_pretty(&r).expect("serialize");
        let back: PipelineHotpathBench = serde_json::from_str(&json).expect("deserialize");
        assert_eq!(back, r, "BENCH_pipeline.json does not round-trip");
    }
}
