//! Property tests for `obs::timeseries`: the log-linear sketch's
//! quantile estimates stay inside the advertised relative-error bound
//! against an exact nearest-rank oracle, the ring's rotation /
//! `delta()` bookkeeping matches a straightforward per-window model
//! across window boundaries, the window-range reads match a
//! plain-vector oracle, and `RunReport::from_series` over a ring that
//! turned over several times matches that oracle and a single
//! `RunRecorder`. A batch of observations leaves the ring exactly as
//! the same values recorded one at a time would, bucket edges and
//! non-finite values included.

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
    /// `late_drops`, and never resurrects an evicted window; a late
    /// batch counts one drop per value.
    #[test]
    fn late_events_are_dropped_not_misfiled(
        newest in 20..40u64,
        by in 1..100u64,
        k in 1..=40usize,
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
        ts.observe_many_at(0, Histogram::EkfInnovation, &vec![1.0; k]);
        prop_assert_eq!(ts.late_drops(), 1 + k as u64);
        prop_assert_eq!(ts.hist_count(Histogram::EkfInnovation, WINDOWS, now), 0);
        prop_assert_eq!(ts.delta(Counter::TripsProcessed, WINDOWS, now), 1);
    }
}

/// Window width and count of the ring the report oracle records into,
/// and how many windows the records spread over: three times the ring,
/// so it turns over twice.
const REPORT_WINDOW_NS: u64 = 1_000;
const REPORT_WINDOWS: usize = 6;
const RECORD_WINDOWS: u64 = 3 * REPORT_WINDOWS as u64;

/// One record: window, kind (0 span, 1 counter, 2 histogram, 3 batch of
/// one histogram), taxonomy id, integer payload (span duration, counter
/// step, in-window offset), histogram value, and batch values.
type Record = (u64, usize, usize, u64, f64, Vec<f64>);

/// Finite signed values across eighteen decades, plus exact zeros.
fn finite_value() -> impl Strategy<Value = f64> {
    (0..3usize, -9.0..9.0f64, 1.0..10.0f64).prop_map(|(kind, exp, mantissa)| match kind {
        0 => mantissa * 10.0f64.powf(exp),
        1 => -mantissa * 10.0f64.powf(exp),
        _ => 0.0,
    })
}

fn record_strategy() -> impl Strategy<Value = Record> {
    (
        0..RECORD_WINDOWS,
        0..4usize,
        0..64usize,
        0..10_000_000_000u64,
        finite_value(),
        prop::collection::vec(finite_value(), 0..41),
    )
}

/// A record's timestamp: its window plus an in-window offset.
fn record_t(record: &Record) -> u64 {
    record.0 * REPORT_WINDOW_NS + record.3 % REPORT_WINDOW_NS
}

/// Feeds one record to two rings at its timestamp and to a recorder.
/// The rings differ only in how a batch arrives: whole into `ts`, one
/// value at a time into `one_by_one`.
fn replay(ts: &TimeSeries, one_by_one: &TimeSeries, run: &RunRecorder, record: &Record) {
    let &(_, kind, id, n, x, ref batch) = record;
    let t = record_t(record);
    match kind {
        0 => {
            let span = Span::ALL[id % Span::COUNT];
            ts.span_at(t, span, n);
            one_by_one.span_at(t, span, n);
            run.record_span(span, n);
        }
        1 => {
            let counter = Counter::ALL[id % Counter::COUNT];
            ts.incr_at(t, counter, n % 1_000 + 1);
            one_by_one.incr_at(t, counter, n % 1_000 + 1);
            run.incr(counter, n % 1_000 + 1);
        }
        2 => {
            let hist = Histogram::ALL[id % Histogram::COUNT];
            ts.observe_at(t, hist, x);
            one_by_one.observe_at(t, hist, x);
            run.observe(hist, x);
        }
        _ => {
            let hist = Histogram::ALL[id % Histogram::COUNT];
            ts.observe_many_at(t, hist, batch);
            for &v in batch {
                one_by_one.observe_at(t, hist, v);
            }
            run.observe_many(hist, batch);
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
    for &(_, kind, id, n, x, ref batch) in records.iter().filter(|r| r.0 >= first) {
        match kind {
            0 => spans[id % Span::COUNT].push(n),
            1 => counters[id % Counter::COUNT] += n % 1_000 + 1,
            2 => hists[id % Histogram::COUNT].push(x),
            _ => hists[id % Histogram::COUNT].extend_from_slice(batch),
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

/// The report over the `lookback` windows ending at `now_ns`'s window,
/// from the ring's window-range reads — the reads behind STATUS.
fn window_report(ts: &TimeSeries, lookback: usize, now_ns: u64) -> RunReport {
    let spans = Span::ALL
        .iter()
        .filter_map(|&s| {
            let stats = ts.span_summary(s, lookback, now_ns);
            let total_ns = stats.sum as u64;
            (stats.count > 0).then(|| SpanReport {
                name: s.name().to_string(),
                depth: s.depth() as u64,
                count: stats.count,
                total_ns,
                mean_ns: total_ns / stats.count,
                min_ns: stats.min as u64,
                max_ns: stats.max as u64,
            })
        })
        .collect();
    let counters = Counter::ALL
        .iter()
        .filter_map(|&c| {
            let value = ts.delta(c, lookback, now_ns);
            (value > 0).then(|| CounterReport { name: c.name().to_string(), value })
        })
        .collect();
    let histograms = Histogram::ALL
        .iter()
        .filter_map(|&h| {
            let stats = ts.hist_summary(h, lookback, now_ns);
            (stats.count > 0).then(|| HistogramReport {
                name: h.name().to_string(),
                count: stats.count,
                mean: stats.mean().unwrap_or(f64::NAN),
                stddev: stats.stddev().unwrap_or(f64::NAN),
                min: stats.min,
                max: stats.max,
            })
        })
        .collect();
    RunReport { spans, counters, histograms }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Records with non-decreasing timestamps spread over three times
    /// the ring's windows, so the ring turns over twice. The report over
    /// everything the ring kept equals the plain-vector oracle over all
    /// records and what one `RunRecorder` fed the same records reports:
    /// the windows rotation recycled live on in the retired totals. A
    /// ring fed each batch one value at a time reports exactly what the
    /// batched ring does, and a window-range read equals the oracle over
    /// the records in that range.
    #[test]
    fn whole_ring_reports_match_the_oracle_and_one_recorder(
        records in prop::collection::vec(record_strategy(), 0..120),
        lookback in 1..=REPORT_WINDOWS,
    ) {
        let mut records = records;
        records.sort_by_key(record_t);
        let cfg = TimeSeriesConfig { window_ns: REPORT_WINDOW_NS, windows: REPORT_WINDOWS };
        let (ts, one_by_one) = (TimeSeries::new(cfg), TimeSeries::new(cfg));
        let run = RunRecorder::new();
        for r in &records {
            replay(&ts, &one_by_one, &run, r);
        }
        prop_assert_eq!(ts.late_drops(), 0);
        let whole = RunReport::from_series(&ts);
        assert_reports_match(&whole, &oracle_report(&records, 0));
        assert_reports_match(&whole, &run.report());
        prop_assert_eq!(&RunReport::from_series(&one_by_one), &whole);
        let now = (RECORD_WINDOWS - 1) * REPORT_WINDOW_NS;
        let first = RECORD_WINDOWS - lookback as u64;
        assert_reports_match(&window_report(&ts, lookback, now), &oracle_report(&records, first));
    }
}

/// Values the sketch's bucket rule finds hardest: up to ±4 ulps from an
/// edge `±2^(k/4)` of any covered octave (and two past either end),
/// plus ±0, NaN, ±∞, subnormals, magnitudes past 2^44 and ordinary
/// values across the range.
fn edge_value() -> impl Strategy<Value = f64> {
    const SPECIALS: [f64; 10] = [
        0.0,
        -0.0,
        f64::NAN,
        f64::INFINITY,
        f64::NEG_INFINITY,
        5e-324,
        -1.0e-310,
        3.0e13,
        -1.0e20,
        f64::MAX,
    ];
    (0..4usize, -88..184i64, -4..=4i64, any::<bool>(), 0..SPECIALS.len(), sketch_value()).prop_map(
        |(kind, k, ulps, negative, special, ordinary)| {
            let sign = if negative { -1.0 } else { 1.0 };
            match kind {
                0 | 1 => {
                    let edge = (k as f64 / 4.0).exp2();
                    sign * f64::from_bits(edge.to_bits().wrapping_add_signed(ulps))
                }
                2 => SPECIALS[special],
                _ => sign * ordinary,
            }
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// A ring fed a batch through `observe_many_at` and a ring fed the
    /// same values one `observe_at` at a time agree on every summary
    /// bit, on the quantile at every nearest rank, and on the count
    /// above every bucket edge.
    #[test]
    fn a_batch_leaves_the_cell_one_observe_per_value_leaves(
        values in prop::collection::vec(edge_value(), 1..160),
    ) {
        let (batched, one_by_one) =
            (TimeSeries::new(TimeSeriesConfig::default()), TimeSeries::new(TimeSeriesConfig::default()));
        let (t, hist) = (10, Histogram::EkfInnovation);
        batched.observe_many_at(t, hist, &values);
        for &v in &values {
            one_by_one.observe_at(t, hist, v);
        }
        let (a, b) = (batched.hist_summary(hist, 1, t), one_by_one.hist_summary(hist, 1, t));
        prop_assert_eq!((a.count, a.finite), (b.count, b.finite));
        for (x, y) in [(a.sum, b.sum), (a.sum_sq, b.sum_sq), (a.min, b.min), (a.max, b.max)] {
            prop_assert_eq!(x.to_bits(), y.to_bits());
        }
        let n = values.len();
        for rank in 0..=n {
            let q = rank as f64 / n as f64;
            let (x, y) = (batched.hist_quantile(hist, q, 1, t), one_by_one.hist_quantile(hist, q, 1, t));
            prop_assert_eq!(x.map(f64::to_bits), y.map(f64::to_bits), "rank {}", rank);
        }
        for k in -84..180i64 {
            for edge in [(k as f64 / 4.0).exp2(), -(k as f64 / 4.0).exp2(), 0.0] {
                prop_assert_eq!(
                    batched.hist_count_above(hist, edge, 1, t),
                    one_by_one.hist_count_above(hist, edge, 1, t),
                    "above {}", edge
                );
            }
        }
    }
}

/// Non-finite observations count, but only finite ones enter the sums,
/// extremes, and mean denominators; `±∞` clamps into the top bucket of
/// its sign instead of overflowing the bucket index. A batch follows
/// the same policy.
#[test]
fn non_finite_observations_follow_one_policy() {
    let run = RunRecorder::new();
    let ts = TimeSeries::new(TimeSeriesConfig::default());
    let values = [1.0, f64::NAN, f64::INFINITY, f64::NEG_INFINITY, 3.0];
    for v in values {
        run.observe(Histogram::EkfInnovation, v);
        ts.observe_at(10, Histogram::EkfInnovation, v);
    }
    let batched = TimeSeries::new(TimeSeriesConfig::default());
    batched.observe_many_at(10, Histogram::EkfInnovation, &values);
    assert_eq!(
        batched.hist_summary(Histogram::EkfInnovation, 1, 10),
        ts.hist_summary(Histogram::EkfInnovation, 1, 10)
    );
    for q in [0.0, 0.2, 0.4, 0.6, 0.8, 1.0] {
        assert_eq!(
            batched.hist_quantile(Histogram::EkfInnovation, q, 1, 10),
            ts.hist_quantile(Histogram::EkfInnovation, q, 1, 10),
            "q={q}"
        );
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
