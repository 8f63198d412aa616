//! Property tests for `obs::timeseries`: the log-linear sketch's
//! quantile estimates stay inside the advertised relative-error bound
//! against an exact nearest-rank oracle, the ring's rotation /
//! `delta()` bookkeeping matches a straightforward per-window model
//! across window boundaries, and a `RunReport` over any window range
//! matches a plain-vector oracle and a single `RunRecorder`.

use gradest_obs::timeseries::{
    TimeSeries, TimeSeriesConfig, SKETCH_MAX_MAGNITUDE, SKETCH_MIN_MAGNITUDE, SKETCH_RELATIVE_ERROR,
};
use gradest_obs::{
    Counter, CounterReport, Histogram, HistogramReport, Recorder, RunRecorder, RunReport, Span,
    SpanReport,
};
use proptest::prelude::*;

/// Positive magnitudes inside the sketch's representable range (with a
/// little margin off both ends), spread across many decades so the
/// generated sets exercise far-apart buckets, not one octave.
fn sketch_value() -> impl Strategy<Value = f64> {
    (-5.0..12.0f64, 1.0..10.0f64).prop_map(|(exp, mantissa)| {
        let v = mantissa * 10.0f64.powf(exp);
        v.clamp(SKETCH_MIN_MAGNITUDE * 2.0, SKETCH_MAX_MAGNITUDE / 2.0)
    })
}

/// Exact nearest-rank quantile over `sorted`: the `max(⌈q·n⌉, 1)`-th
/// smallest value — the same rank convention the sketch uses.
fn oracle_quantile(sorted: &[f64], q: f64) -> f64 {
    let rank = ((q * sorted.len() as f64).ceil() as usize).max(1).min(sorted.len());
    sorted[rank - 1]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Every quantile estimate is within `SKETCH_RELATIVE_ERROR` of the
    /// exact nearest-rank value, for arbitrary positive value sets and
    /// arbitrary q.
    #[test]
    fn quantile_estimates_stay_inside_relative_error_bound(
        values in prop::collection::vec(sketch_value(), 1..200),
        q in 0.001..1.0f64,
    ) {
        let ts = TimeSeries::new(TimeSeriesConfig::default());
        let t = 10; // all observations in one live window
        for &v in &values {
            ts.observe_at(t, Histogram::EkfMeanNis, v);
        }
        let mut sorted = values.clone();
        sorted.sort_by(|a, b| a.total_cmp(b));
        let exact = oracle_quantile(&sorted, q);
        let est = ts
            .hist_quantile(Histogram::EkfMeanNis, q, 1, t)
            .expect("populated sketch has quantiles");
        prop_assert!(
            (est - exact).abs() <= SKETCH_RELATIVE_ERROR * exact.abs(),
            "q={q}: estimate {est} deviates from exact {exact} by more than {}",
            SKETCH_RELATIVE_ERROR
        );
    }

    /// The median and the extremes never cross: p0.01 ≤ p0.5 ≤ p0.99 on
    /// the same merged sketch (monotonicity of the cumulative walk).
    #[test]
    fn quantiles_are_monotone_in_q(
        values in prop::collection::vec(sketch_value(), 1..100),
    ) {
        let ts = TimeSeries::new(TimeSeriesConfig::default());
        for &v in &values {
            ts.observe_at(5, Histogram::GpsGapSeconds, v);
        }
        let p01 = ts.hist_quantile(Histogram::GpsGapSeconds, 0.01, 1, 5).expect("p01");
        let p50 = ts.hist_quantile(Histogram::GpsGapSeconds, 0.5, 1, 5).expect("p50");
        let p99 = ts.hist_quantile(Histogram::GpsGapSeconds, 0.99, 1, 5).expect("p99");
        prop_assert!(p01 <= p50 && p50 <= p99, "p01={p01} p50={p50} p99={p99}");
    }

    /// `delta()` over the last k windows equals a straightforward
    /// per-window model, for monotone event streams that cross many
    /// ring-rotation boundaries (offsets range over 3× the ring size).
    #[test]
    fn delta_matches_per_window_model_across_rotations(
        events in prop::collection::vec((0..24u64, 1..100u64), 1..60),
        lookback in 1..8usize,
    ) {
        const WINDOW_NS: u64 = 1_000;
        const WINDOWS: usize = 8;
        let ts = TimeSeries::new(TimeSeriesConfig { window_ns: WINDOW_NS, windows: WINDOWS });
        // The ring only moves forward; feed events in time order so
        // none are late-dropped (late arrival is pinned separately).
        let mut events = events;
        events.sort_by_key(|(w, _)| *w);
        for &(w, by) in &events {
            ts.incr_at(w * WINDOW_NS + WINDOW_NS / 2, Counter::TripsProcessed, by);
        }
        let newest = events.last().map(|(w, _)| *w).unwrap_or(0);
        let now = newest * WINDOW_NS + WINDOW_NS / 2;
        // Model: the k windows ending at (and including) the live one.
        let oldest_counted = (newest + 1).saturating_sub(lookback as u64);
        let expected: u64 = events
            .iter()
            .filter(|(w, _)| *w >= oldest_counted && *w <= newest)
            .map(|(_, by)| *by)
            .sum();
        prop_assert_eq!(ts.delta(Counter::TripsProcessed, lookback, now), expected);
        prop_assert_eq!(ts.late_drops(), 0);
    }

    /// Advancing a full ring past the newest event clears every window:
    /// the delta over the whole ring drains to zero and no spurious
    /// counts survive rotation.
    #[test]
    fn advancing_a_full_ring_forgets_everything(
        events in prop::collection::vec((0..8u64, 1..100u64), 1..30),
    ) {
        const WINDOW_NS: u64 = 1_000;
        const WINDOWS: usize = 8;
        let ts = TimeSeries::new(TimeSeriesConfig { window_ns: WINDOW_NS, windows: WINDOWS });
        let mut sorted = events.clone();
        sorted.sort_by_key(|(w, _)| *w);
        for &(w, by) in &sorted {
            ts.incr_at(w * WINDOW_NS, Counter::TripsProcessed, by);
        }
        let far = (8 + WINDOWS as u64 + 1) * WINDOW_NS;
        ts.advance_to(far);
        prop_assert_eq!(ts.delta(Counter::TripsProcessed, WINDOWS, far), 0);
    }

    /// An event older than the whole ring is dropped, counted in
    /// `late_drops`, and never resurrects an evicted window.
    #[test]
    fn late_events_are_dropped_not_misfiled(
        newest in 20..40u64,
        by in 1..100u64,
    ) {
        const WINDOW_NS: u64 = 1_000;
        const WINDOWS: usize = 8;
        let ts = TimeSeries::new(TimeSeriesConfig { window_ns: WINDOW_NS, windows: WINDOWS });
        let now = newest * WINDOW_NS;
        ts.incr_at(now, Counter::TripsProcessed, 1);
        // A timestamp from before the ring's horizon: window 0 was
        // evicted long ago.
        ts.incr_at(0, Counter::TripsProcessed, by);
        prop_assert_eq!(ts.late_drops(), 1);
        prop_assert_eq!(ts.delta(Counter::TripsProcessed, WINDOWS, now), 1);
    }
}

/// Window width and count of the ring the report oracle records into.
const REPORT_WINDOW_NS: u64 = 1_000;
const REPORT_WINDOWS: usize = 6;

/// One record: window, kind (0 span, 1 counter, 2 histogram), taxonomy
/// id, integer payload (span duration, counter step, in-window offset),
/// and histogram value.
type Record = (u64, usize, usize, u64, f64);

/// Finite signed values across eighteen decades, plus exact zeros.
fn finite_value() -> impl Strategy<Value = f64> {
    (0..3usize, -9.0..9.0f64, 1.0..10.0f64).prop_map(|(kind, exp, mantissa)| match kind {
        0 => mantissa * 10.0f64.powf(exp),
        1 => -mantissa * 10.0f64.powf(exp),
        _ => 0.0,
    })
}

fn record_strategy() -> impl Strategy<Value = Record> {
    (0..REPORT_WINDOWS as u64, 0..3usize, 0..64usize, 0..10_000_000_000u64, finite_value())
}

/// Feeds one record to the ring at its window and to a recorder.
fn replay(ts: &TimeSeries, run: &RunRecorder, &(w, kind, id, n, x): &Record) {
    let t = w * REPORT_WINDOW_NS + n % REPORT_WINDOW_NS;
    match kind {
        0 => {
            let span = Span::ALL[id % Span::COUNT];
            ts.span_at(t, span, n);
            run.record_span(span, n);
        }
        1 => {
            let counter = Counter::ALL[id % Counter::COUNT];
            ts.incr_at(t, counter, n % 1_000 + 1);
            run.incr(counter, n % 1_000 + 1);
        }
        _ => {
            let hist = Histogram::ALL[id % Histogram::COUNT];
            ts.observe_at(t, hist, x);
            run.observe(hist, x);
        }
    }
}

/// The report over the records in windows `first..`, from plain
/// vectors: exact sums and extremes, mean and population stddev from
/// the textbook moments.
fn oracle_report(records: &[Record], first: u64) -> RunReport {
    let mut spans = vec![Vec::new(); Span::COUNT];
    let mut counters = vec![0u64; Counter::COUNT];
    let mut hists = vec![Vec::new(); Histogram::COUNT];
    for &(_, kind, id, n, x) in records.iter().filter(|r| r.0 >= first) {
        match kind {
            0 => spans[id % Span::COUNT].push(n),
            1 => counters[id % Counter::COUNT] += n % 1_000 + 1,
            _ => hists[id % Histogram::COUNT].push(x),
        }
    }
    RunReport {
        spans: Span::ALL
            .iter()
            .zip(&spans)
            .filter(|(_, d)| !d.is_empty())
            .map(|(s, d)| {
                let total_ns: u64 = d.iter().sum();
                SpanReport {
                    name: s.name().to_string(),
                    depth: s.depth() as u64,
                    count: d.len() as u64,
                    total_ns,
                    mean_ns: total_ns / d.len() as u64,
                    min_ns: d.iter().copied().min().unwrap_or(0),
                    max_ns: d.iter().copied().max().unwrap_or(0),
                }
            })
            .collect(),
        counters: Counter::ALL
            .iter()
            .zip(&counters)
            .filter(|(_, v)| **v > 0)
            .map(|(c, v)| CounterReport { name: c.name().to_string(), value: *v })
            .collect(),
        histograms: Histogram::ALL
            .iter()
            .zip(&hists)
            .filter(|(_, v)| !v.is_empty())
            .map(|(h, v)| {
                let n = v.len() as f64;
                let mean = v.iter().sum::<f64>() / n;
                let var = v.iter().map(|x| x * x).sum::<f64>() / n - mean * mean;
                HistogramReport {
                    name: h.name().to_string(),
                    count: v.len() as u64,
                    mean,
                    stddev: var.max(0.0).sqrt(),
                    min: v.iter().copied().fold(f64::INFINITY, f64::min),
                    max: v.iter().copied().fold(f64::NEG_INFINITY, f64::max),
                }
            })
            .collect(),
    }
}

/// Spans, counters, and histogram counts/extremes must agree exactly;
/// histogram mean and stddev within 1e-9 relative (they are float sums
/// taken in a different order).
fn assert_reports_match(actual: &RunReport, expected: &RunReport) {
    assert_eq!(actual.spans, expected.spans);
    assert_eq!(actual.counters, expected.counters);
    assert_eq!(actual.histograms.len(), expected.histograms.len());
    let close = |a: f64, b: f64| a == b || (a - b).abs() <= 1e-9 * a.abs().max(b.abs());
    for (a, e) in actual.histograms.iter().zip(&expected.histograms) {
        assert_eq!((&a.name, a.count, a.min, a.max), (&e.name, e.count, e.min, e.max));
        assert!(close(a.mean, e.mean), "{}: mean {} vs {}", a.name, a.mean, e.mean);
        assert!(close(a.stddev, e.stddev), "{}: stddev {} vs {}", a.name, a.stddev, e.stddev);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// A report over any window range of a multi-window ring equals the
    /// plain-vector oracle over the records in that range, and the
    /// report over the whole ring equals what one `RunRecorder` fed
    /// the same records reports — combining runs is a wider range.
    #[test]
    fn window_range_reports_match_the_oracle_and_one_recorder(
        records in prop::collection::vec(record_strategy(), 0..120),
        lookback in 1..=REPORT_WINDOWS,
    ) {
        let ts = TimeSeries::new(TimeSeriesConfig {
            window_ns: REPORT_WINDOW_NS,
            windows: REPORT_WINDOWS,
        });
        let run = RunRecorder::new();
        for r in &records {
            replay(&ts, &run, r);
        }
        let now = (REPORT_WINDOWS as u64 - 1) * REPORT_WINDOW_NS;
        prop_assert_eq!(ts.late_drops(), 0);
        let whole = RunReport::from_series(&ts, REPORT_WINDOWS, now);
        assert_reports_match(&whole, &oracle_report(&records, 0));
        assert_reports_match(&whole, &run.report());
        let first = (REPORT_WINDOWS - lookback) as u64;
        let recent = RunReport::from_series(&ts, lookback, now);
        assert_reports_match(&recent, &oracle_report(&records, first));
    }
}

/// Non-finite observations count, but only finite ones enter the sums,
/// extremes, and mean denominators; `±∞` clamps into the top bucket of
/// its sign instead of overflowing the bucket index.
#[test]
fn non_finite_observations_follow_one_policy() {
    let run = RunRecorder::new();
    let ts = TimeSeries::new(TimeSeriesConfig::default());
    for v in [1.0, f64::NAN, f64::INFINITY, f64::NEG_INFINITY, 3.0] {
        run.observe(Histogram::EkfInnovation, v);
        ts.observe_at(10, Histogram::EkfInnovation, v);
    }
    let report = run.report();
    let h = report.histogram("ekf-innovation").expect("observed");
    assert_eq!((h.count, h.mean, h.min, h.max), (5, 2.0, 1.0, 3.0));
    assert_eq!(ts.hist_count(Histogram::EkfInnovation, 1, 10), 5);
    assert_eq!(ts.hist_mean(Histogram::EkfInnovation, 1, 10), Some(2.0));
    let top = ts.hist_quantile(Histogram::EkfInnovation, 1.0, 1, 10).expect("q=1");
    let bottom = ts.hist_quantile(Histogram::EkfInnovation, 0.0, 1, 10).expect("q=0");
    let bound = SKETCH_RELATIVE_ERROR * SKETCH_MAX_MAGNITUDE;
    assert!((top - SKETCH_MAX_MAGNITUDE).abs() <= bound, "q=1 gave {top}");
    assert!((bottom + SKETCH_MAX_MAGNITUDE).abs() <= bound, "q=0 gave {bottom}");
    // The ring is still live afterwards (no poisoned lock).
    ts.observe_at(10, Histogram::EkfInnovation, 2.0);
    assert_eq!(ts.hist_count(Histogram::EkfInnovation, 1, 10), 6);
}
