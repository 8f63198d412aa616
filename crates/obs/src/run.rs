//! [`RunRecorder`] — the whole-run recorder — and the [`RunReport`]
//! view every bench embeds.
//!
//! A `RunRecorder` is the clock-free front end of the one aggregator,
//! `obs::timeseries`: a [`TimeSeries`] whose single window never
//! rotates, recorded at one fixed timestamp. [`RunReport::from_series`]
//! reads everything any series kept — its live windows plus the totals
//! rotation retired — into the serializable report, so a live ring and
//! one `RunRecorder` fed the same records report the same run. Report
//! building allocates, so it lives here rather than in the warm-gated
//! ring module.

use crate::metrics::{Counter, Histogram, Span};
use crate::recorder::Recorder;
use crate::timeseries::{TimeSeries, TimeSeriesConfig};
use serde::{Deserialize, Serialize};
use std::fmt::Write as _;

/// The timestamp every `RunRecorder` record carries: with a window as
/// wide as the clock, it always lands in window 0.
const RUN_T_NS: u64 = 0;

/// An aggregating [`Recorder`] over a whole run: a [`TimeSeries`] whose
/// one window spans all of time, so nothing ever rotates out and no
/// clock is read. Construct once per run, share by reference across
/// worker threads, then [`RunRecorder::report`] after the work joins.
#[derive(Debug)]
pub struct RunRecorder {
    series: TimeSeries,
}

impl Default for RunRecorder {
    fn default() -> Self {
        Self::new()
    }
}

impl RunRecorder {
    /// A recorder with nothing recorded. Its ring's memory is reserved
    /// here, and its one window is built at the first record.
    pub fn new() -> Self {
        // Two windows is the ring minimum; only window 0 is ever used.
        RunRecorder {
            series: TimeSeries::new(TimeSeriesConfig { window_ns: u64::MAX, windows: 2 }),
        }
    }

    /// Everything recorded so far as a [`RunReport`]. Ids never touched
    /// are omitted, so the report doubles as the "which metrics did
    /// this workload emit" set the snapshot test pins.
    pub fn report(&self) -> RunReport {
        RunReport::from_series(&self.series)
    }

    /// A deterministic, integers-only rendering of what was recorded:
    /// span hit counts, counter values, and histogram observation
    /// counts — no wall-clock quantities, so identical workloads
    /// produce byte-identical strings. This is the surface the obs
    /// snapshot test pins.
    pub fn snapshot_string(&self) -> String {
        let report = self.report();
        let mut out = String::new();
        for s in &report.spans {
            let _ = writeln!(out, "span {} count={}", s.name, s.count);
        }
        for c in &report.counters {
            let _ = writeln!(out, "counter {} = {}", c.name, c.value);
        }
        for h in &report.histograms {
            let _ = writeln!(out, "hist {} count={}", h.name, h.count);
        }
        out
    }
}

impl Recorder for RunRecorder {
    fn record_span(&self, span: Span, ns: u64) {
        self.series.span_at(RUN_T_NS, span, ns);
    }

    fn incr(&self, counter: Counter, by: u64) {
        self.series.incr_at(RUN_T_NS, counter, by);
    }

    fn observe(&self, hist: Histogram, value: f64) {
        self.series.observe_at(RUN_T_NS, hist, value);
    }

    fn observe_many(&self, hist: Histogram, values: &[f64]) {
        self.series.observe_many_at(RUN_T_NS, hist, values);
    }
}

/// Aggregated statistics of one span over a run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SpanReport {
    /// Stable span name (see `Span::name`).
    pub name: String,
    /// Nesting depth in the span forest (0 for roots).
    pub depth: u64,
    /// Times the span completed.
    pub count: u64,
    /// Summed duration, nanoseconds (exact below 2^53 ns).
    pub total_ns: u64,
    /// Mean duration, nanoseconds.
    pub mean_ns: u64,
    /// Shortest observed duration, nanoseconds.
    pub min_ns: u64,
    /// Longest observed duration, nanoseconds.
    pub max_ns: u64,
}

/// Final value of one counter over a run.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct CounterReport {
    /// Stable counter name (see `Counter::name`).
    pub name: String,
    /// Total events counted.
    pub value: u64,
}

/// Summary statistics of one histogram over a run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HistogramReport {
    /// Stable histogram name (see `Histogram::name`).
    pub name: String,
    /// Number of observations, non-finite ones included.
    pub count: u64,
    /// Arithmetic mean of the finite observations (NaN if none).
    pub mean: f64,
    /// Population standard deviation of the finite observations (NaN
    /// if none).
    pub stddev: f64,
    /// Smallest finite observation (`+∞` if none).
    pub min: f64,
    /// Largest finite observation (`−∞` if none).
    pub max: f64,
}

/// Everything one run recorded, in serializable form. Only ids that
/// were actually touched appear.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct RunReport {
    /// Touched spans, in taxonomy order.
    pub spans: Vec<SpanReport>,
    /// Non-zero counters, in taxonomy order.
    pub counters: Vec<CounterReport>,
    /// Touched histograms, in taxonomy order.
    pub histograms: Vec<HistogramReport>,
}

impl RunReport {
    /// Everything `series` kept, read in one locked pass over its
    /// counters and summaries (never the sketch buckets): the retired
    /// totals plus every live window, so a counter never falls as the
    /// ring turns over. Span counts, totals, and extremes, counter
    /// values, and histogram counts and extremes are exact; histogram
    /// mean and stddev come from the summed moments. Ids with nothing
    /// recorded are omitted, and so are late drops.
    pub fn from_series(series: &TimeSeries) -> RunReport {
        let totals = series.totals();
        let spans = Span::ALL
            .iter()
            .zip(&totals.spans)
            .filter(|(_, stats)| stats.count > 0)
            .map(|(s, stats)| {
                // Durations are integers: the f64 sum and extremes are
                // exact below 2^53 ns.
                let total_ns = stats.sum as u64;
                SpanReport {
                    name: s.name().to_string(),
                    depth: s.depth() as u64,
                    count: stats.count,
                    total_ns,
                    mean_ns: total_ns / stats.count,
                    min_ns: stats.min as u64,
                    max_ns: stats.max as u64,
                }
            })
            .collect();
        let counters = Counter::ALL
            .iter()
            .zip(&totals.counters)
            .filter(|(_, value)| **value > 0)
            .map(|(c, value)| CounterReport { name: c.name().to_string(), value: *value })
            .collect();
        let histograms = Histogram::ALL
            .iter()
            .zip(&totals.hists)
            .filter(|(_, stats)| stats.count > 0)
            .map(|(h, stats)| HistogramReport {
                name: h.name().to_string(),
                count: stats.count,
                mean: stats.mean().unwrap_or(f64::NAN),
                stddev: stats.stddev().unwrap_or(f64::NAN),
                min: stats.min,
                max: stats.max,
            })
            .collect();
        RunReport { spans, counters, histograms }
    }

    /// Look up a span's statistics by report name.
    pub fn span(&self, name: &str) -> Option<&SpanReport> {
        self.spans.iter().find(|s| s.name == name)
    }

    /// Look up a counter's value by report name.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters.iter().find(|c| c.name == name).map(|c| c.value)
    }

    /// Look up a histogram's statistics by report name.
    pub fn histogram(&self, name: &str) -> Option<&HistogramReport> {
        self.histograms.iter().find(|h| h.name == name)
    }

    /// Pretty-printed JSON (the `BENCH_*.json` embedding format).
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).unwrap_or_default()
    }

    /// Parse a report back from [`RunReport::to_json`] output.
    ///
    /// # Errors
    ///
    /// Returns the parser's message when `s` is not a report.
    pub fn from_json(s: &str) -> Result<RunReport, String> {
        serde_json::from_str(s).map_err(|e| e.to_string())
    }

    /// Human-readable rendering: the span tree (indented by depth)
    /// with timing columns, then counters, then histograms.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{:<34} {:>9} {:>12} {:>11} {:>11}",
            "span", "count", "total_ms", "mean_us", "max_us"
        );
        for s in &self.spans {
            let pad = (s.depth as usize) * 2;
            let _ = writeln!(
                out,
                "{:<34} {:>9} {:>12.3} {:>11.1} {:>11.1}",
                format!("{:pad$}{}", "", s.name),
                s.count,
                s.total_ns as f64 / 1.0e6,
                s.mean_ns as f64 / 1.0e3,
                s.max_ns as f64 / 1.0e3,
            );
        }
        if !self.counters.is_empty() {
            let _ = writeln!(out, "{:<34} {:>9}", "counter", "value");
            for c in &self.counters {
                let _ = writeln!(out, "{:<34} {:>9}", c.name, c.value);
            }
        }
        if !self.histograms.is_empty() {
            let _ = writeln!(
                out,
                "{:<34} {:>9} {:>12} {:>12} {:>12} {:>12}",
                "histogram", "count", "mean", "stddev", "min", "max"
            );
            for h in &self.histograms {
                let _ = writeln!(
                    out,
                    "{:<34} {:>9} {:>12.4} {:>12.4} {:>12.4} {:>12.4}",
                    h.name, h.count, h.mean, h.stddev, h.min, h.max
                );
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn untouched_ids_are_omitted() {
        let rec = RunRecorder::new();
        assert_eq!(rec.report(), RunReport::default());
        assert!(rec.snapshot_string().is_empty());
    }

    #[test]
    fn span_statistics_aggregate() {
        let rec = RunRecorder::new();
        rec.record_span(Span::Trip, 100);
        rec.record_span(Span::Trip, 300);
        let report = rec.report();
        let trip = report.span("trip").expect("trip span recorded");
        assert_eq!(trip.count, 2);
        assert_eq!(trip.total_ns, 400);
        assert_eq!(trip.mean_ns, 200);
        assert_eq!(trip.min_ns, 100);
        assert_eq!(trip.max_ns, 300);
        assert_eq!(trip.depth, 0);
    }

    #[test]
    fn counters_and_histograms_aggregate() {
        let rec = RunRecorder::new();
        rec.incr(Counter::TripsProcessed, 2);
        rec.incr(Counter::TripsProcessed, 3);
        rec.observe(Histogram::EkfInnovation, -1.0);
        rec.observe(Histogram::EkfInnovation, 3.0);
        rec.observe(Histogram::EkfInnovation, 0.0);
        let report = rec.report();
        assert_eq!(report.counter("trips-processed"), Some(5));
        let h = report.histogram("ekf-innovation").expect("innovation recorded");
        assert_eq!(h.count, 3);
        assert!((h.mean - 2.0 / 3.0).abs() < 1e-12);
        assert_eq!(h.min, -1.0);
        assert_eq!(h.max, 3.0);
        assert!(h.stddev > 0.0);
    }

    #[test]
    fn snapshot_string_is_integers_only() {
        let rec = RunRecorder::new();
        rec.record_span(Span::Steering, 12345);
        rec.incr(Counter::LaneChangesDetected, 4);
        rec.observe(Histogram::LaneChangeDisplacement, 3.2);
        let snap = rec.snapshot_string();
        assert_eq!(
            snap,
            "span steering count=1\ncounter lane-changes-detected = 4\n\
             hist lane-change-displacement count=1\n"
        );
        assert!(!snap.contains("12345"), "snapshot must not leak timings");
    }

    #[test]
    fn report_json_round_trips() {
        let rec = RunRecorder::new();
        rec.record_span(Span::Trip, 500);
        rec.record_span(Span::Fusion, 200);
        rec.incr(Counter::CloudUploads, 7);
        rec.observe(Histogram::FusionWeightGps, 0.25);
        let report = rec.report();
        let back = RunReport::from_json(&report.to_json()).expect("round trip");
        assert_eq!(back, report);
    }

    #[test]
    fn render_indents_by_depth() {
        let rec = RunRecorder::new();
        rec.record_span(Span::Trip, 1_000);
        rec.record_span(Span::TrackGps, 400);
        let text = rec.report().render();
        assert!(text.contains("\ntrip "));
        assert!(text.contains("    track:gps"), "depth-2 span indented:\n{text}");
    }

    #[test]
    fn recording_is_shareable_across_threads() {
        let rec = RunRecorder::new();
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    for _ in 0..100 {
                        rec.incr(Counter::FleetJobsCompleted, 1);
                        rec.record_span(Span::FleetWorkerTrip, 10);
                        rec.observe(Histogram::FleetWorkerUtilization, 0.5);
                    }
                });
            }
        });
        let report = rec.report();
        assert_eq!(report.counter("fleet-jobs-completed"), Some(400));
        let span = report.span("fleet-worker-trip").expect("worker span");
        assert_eq!(span.count, 400);
        assert_eq!(span.total_ns, 4_000);
        let util = report.histogram("fleet-worker-utilization").expect("util");
        assert_eq!(util.count, 400);
        assert_eq!(util.mean, 0.5);
    }
}
