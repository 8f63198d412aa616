//! Perf-regression gate: diffs a fresh benchmark run against the
//! committed baseline JSONs with a relative tolerance.
//!
//! The `bench-gate` binary re-runs the `pipeline_hotpath` and
//! `fleet_scaling` experiments, extracts a fixed set of
//! lower-is-better latency metrics from each result (top-level
//! medians plus the per-stage span means out of the embedded obs
//! [`RunReport`](gradest_obs::RunReport)), and compares them against
//! `BENCH_pipeline.json` / `BENCH_fleet.json` at the repository root.
//! A metric fails when it is more than `tolerance` slower than its
//! baseline (plus a small absolute slack that keeps microsecond-scale
//! spans from gating on scheduler jitter); being faster never fails. Missing metrics — a baseline
//! predating a schema change, or a metric that vanished from the
//! current run — also fail, with `--update` as the documented fix.
//!
//! Extraction works on the shim's [`Value`] tree rather than the
//! typed result structs, so an old baseline with extra or missing
//! fields still diffs cleanly metric by metric.

use serde_json::Value;

/// Default relative tolerance: a metric may be up to 20 % slower than
/// its committed baseline before the gate fails. Override per run with
/// `--tolerance`.
pub const DEFAULT_TOLERANCE: f64 = 0.20;

/// Absolute slack added on top of the relative tolerance: a metric
/// only fails when it is slower than
/// `baseline * (1 + tolerance) + slack`. Sub-millisecond spans (the
/// fusion stage sits around 50 µs) jitter by double-digit percentages
/// run to run, so a purely relative gate on them is noise; a quarter
/// millisecond of slack silences that while leaving the millisecond-
/// scale metrics gated by the relative term.
pub const DEFAULT_ABS_SLACK_NS: f64 = 250_000.0;

/// Where a metric's value lives inside an experiment's JSON document.
#[derive(Debug, Clone, Copy)]
pub enum MetricSource {
    /// A chain of object-member lookups from the document root.
    Path(&'static [&'static str]),
    /// `mean_ns` of the named span inside the document's `obs.spans`
    /// array (the per-stage timings the recorder captured).
    ObsSpanMean(&'static str),
}

/// One gated metric: a stable display name plus its JSON location.
/// All metrics are latencies in nanoseconds — lower is better.
#[derive(Debug, Clone, Copy)]
pub struct MetricSpec {
    /// Stable name shown in the delta table.
    pub name: &'static str,
    /// Where to read the value.
    pub source: MetricSource,
}

/// Gated metrics of the `pipeline_hotpath` experiment
/// (`BENCH_pipeline.json`): the warm-trip median plus the recorder's
/// per-stage span means.
pub const PIPELINE_METRICS: &[MetricSpec] = &[
    MetricSpec {
        name: "pipeline/warm_fast_trip",
        source: MetricSource::Path(&["optimized_warm_fast", "median_ns_per_op"]),
    },
    MetricSpec { name: "pipeline/span/trip", source: MetricSource::ObsSpanMean("trip") },
    MetricSpec { name: "pipeline/span/steering", source: MetricSource::ObsSpanMean("steering") },
    MetricSpec { name: "pipeline/span/detection", source: MetricSource::ObsSpanMean("detection") },
    MetricSpec { name: "pipeline/span/tracks", source: MetricSource::ObsSpanMean("tracks") },
    MetricSpec { name: "pipeline/span/fusion", source: MetricSource::ObsSpanMean("fusion") },
];

/// Gated metrics of the `fleet_scaling` experiment
/// (`BENCH_fleet.json`): the four benchmark medians plus the recorded
/// batch span mean.
pub const FLEET_METRICS: &[MetricSpec] = &[
    MetricSpec {
        name: "fleet/single_trip",
        source: MetricSource::Path(&["single_trip", "median_ns_per_op"]),
    },
    MetricSpec {
        name: "fleet/batch_1_worker",
        source: MetricSource::Path(&["batch_1_worker", "median_ns_per_op"]),
    },
    MetricSpec {
        name: "fleet/batch_n_workers",
        source: MetricSource::Path(&["batch_n_workers", "median_ns_per_op"]),
    },
    MetricSpec {
        name: "fleet/cloud_upload_contention",
        source: MetricSource::Path(&["cloud_upload_contention", "median_ns_per_op"]),
    },
    MetricSpec { name: "fleet/span/batch", source: MetricSource::ObsSpanMean("fleet-batch") },
];

/// Gated metrics of the `kernel_microbench` experiment
/// (`BENCH_kernels.json`): the isolated inner-loop medians.
pub const KERNEL_METRICS: &[MetricSpec] = &[
    MetricSpec {
        name: "kernels/ekf_lanes_x4_step",
        source: MetricSource::Path(&["ekf_lanes_x4", "median_ns_per_op"]),
    },
    MetricSpec {
        name: "kernels/lowess_uniform_window",
        source: MetricSource::Path(&["lowess_uniform_window", "median_ns_per_op"]),
    },
    MetricSpec {
        name: "kernels/steering_profile",
        source: MetricSource::Path(&["steering_profile", "median_ns_per_op"]),
    },
];

/// Gated metrics of the `geo_index` experiment (`BENCH_geo.json`):
/// index build and the three query-path medians. The oracle scan is
/// reported but not gated — it exists as the comparison point for the
/// speedup figure, not as a hot path.
pub const GEO_METRICS: &[MetricSpec] = &[
    MetricSpec {
        name: "geo/index_build",
        source: MetricSource::Path(&["index_build", "median_ns_per_op"]),
    },
    MetricSpec {
        name: "geo/nearest_query_hot",
        source: MetricSource::Path(&["nearest_query_hot", "median_ns_per_op"]),
    },
    MetricSpec {
        name: "geo/bbox_query",
        source: MetricSource::Path(&["bbox_query", "median_ns_per_op"]),
    },
    MetricSpec {
        name: "geo/network_match_trip",
        source: MetricSource::Path(&["network_match_trip", "median_ns_per_op"]),
    },
];

/// Gated metrics of the `service_soak` experiment
/// (`BENCH_service.json`): the median server start (index build,
/// telemetry ring and threads; nothing else gates the ring's set-up
/// cost), sustained ingestion cost per trip, the
/// client-observed frame latency percentiles, the warm tile-query
/// round trip, and the server-side `service-frame` span mean from the
/// embedded obs report, plus the floored drift-alert detection latency
/// (`alert_latency_gate_ns` — the raw latency clamped to a few
/// telemetry windows so window-boundary jitter can't flake the gate).
/// Throughput is gated as its inverse (`sustained_ns_per_trip`) so
/// "lower is better" holds for every row.
pub const SERVICE_METRICS: &[MetricSpec] = &[
    MetricSpec {
        name: "service/start",
        source: MetricSource::Path(&["start", "median_ns_per_op"]),
    },
    MetricSpec {
        name: "service/sustained_ns_per_trip",
        source: MetricSource::Path(&["sustained_ns_per_trip"]),
    },
    MetricSpec { name: "service/frame_p50", source: MetricSource::Path(&["frame_p50_ns"]) },
    MetricSpec { name: "service/frame_p99", source: MetricSource::Path(&["frame_p99_ns"]) },
    MetricSpec {
        name: "service/tile_query",
        source: MetricSource::Path(&["tile_query", "median_ns_per_op"]),
    },
    MetricSpec { name: "service/span/frame", source: MetricSource::ObsSpanMean("service-frame") },
    MetricSpec {
        name: "service/alert_latency",
        source: MetricSource::Path(&["alert_latency_gate_ns"]),
    },
];

/// Reads the metrics named by `specs` out of an experiment document.
/// A metric the document does not contain extracts as `None` (and
/// later fails the comparison) rather than aborting the whole gate.
pub fn extract(doc: &Value, specs: &[MetricSpec]) -> Vec<(&'static str, Option<f64>)> {
    specs
        .iter()
        .map(|spec| {
            let value = match spec.source {
                MetricSource::Path(path) => {
                    let mut v = doc;
                    for key in path {
                        v = &v[*key];
                    }
                    v.as_f64()
                }
                MetricSource::ObsSpanMean(span) => doc["obs"]["spans"]
                    .as_array()
                    .and_then(|spans| spans.iter().find(|s| s["name"] == span))
                    .and_then(|s| s["mean_ns"].as_f64()),
            };
            (spec.name, value)
        })
        .collect()
}

/// Outcome of one metric's baseline-vs-current comparison.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Within tolerance (or faster than baseline).
    Pass,
    /// Slower than `baseline * (1 + tolerance)`.
    Slower,
    /// Absent from the baseline or the current run.
    Missing,
}

impl Verdict {
    /// Short cell text for the delta table.
    pub fn label(self) -> &'static str {
        match self {
            Verdict::Pass => "ok",
            Verdict::Slower => "FAIL",
            Verdict::Missing => "MISSING",
        }
    }
}

/// One row of the delta table.
#[derive(Debug, Clone)]
pub struct GateRow {
    /// Metric name (from the [`MetricSpec`]).
    pub metric: &'static str,
    /// Baseline value in nanoseconds, when present.
    pub baseline_ns: Option<f64>,
    /// Current value in nanoseconds, when present.
    pub current_ns: Option<f64>,
    /// Relative change, `current / baseline - 1`, when both exist.
    pub delta: Option<f64>,
    /// Pass / fail / missing.
    pub verdict: Verdict,
}

/// Full gate outcome: every compared metric plus the tolerance used.
#[derive(Debug, Clone)]
pub struct GateReport {
    /// Relative tolerance the comparison ran with.
    pub tolerance: f64,
    /// One row per gated metric, in spec order.
    pub rows: Vec<GateRow>,
}

impl GateReport {
    /// Number of rows that are not [`Verdict::Pass`].
    pub fn failures(&self) -> usize {
        self.rows.iter().filter(|r| r.verdict != Verdict::Pass).count()
    }

    /// Renders the rows for [`crate::report::print_table`]:
    /// metric, baseline ms, current ms, Δ%, verdict.
    pub fn table_rows(&self) -> Vec<Vec<String>> {
        let ms = |v: Option<f64>| match v {
            Some(ns) => format!("{:.3}", ns / 1e6),
            None => "-".to_string(),
        };
        self.rows
            .iter()
            .map(|r| {
                vec![
                    r.metric.to_string(),
                    ms(r.baseline_ns),
                    ms(r.current_ns),
                    match r.delta {
                        Some(d) => format!("{:+.1}%", d * 100.0),
                        None => "-".to_string(),
                    },
                    r.verdict.label().to_string(),
                ]
            })
            .collect()
    }
}

/// Compares extracted current metrics against the baseline set.
///
/// Metrics are matched by name; order does not matter. A metric is
/// [`Verdict::Slower`] when
/// `current > baseline * (1 + tolerance) + abs_slack_ns` (baselines
/// clamped to ≥ 1 ns so a degenerate zero baseline cannot divide the
/// delta away), [`Verdict::Missing`] when either side lacks it, and
/// [`Verdict::Pass`] otherwise — improvements never fail.
pub fn compare(
    baseline: &[(&'static str, Option<f64>)],
    current: &[(&'static str, Option<f64>)],
    tolerance: f64,
    abs_slack_ns: f64,
) -> GateReport {
    let rows = current
        .iter()
        .map(|&(metric, current_ns)| {
            let baseline_ns =
                baseline.iter().find(|(name, _)| *name == metric).and_then(|(_, v)| *v);
            let (delta, verdict) = match (baseline_ns, current_ns) {
                (Some(b), Some(c)) => {
                    let delta = c / b.max(1.0) - 1.0;
                    let verdict = if c > b.max(1.0) * (1.0 + tolerance) + abs_slack_ns {
                        Verdict::Slower
                    } else {
                        Verdict::Pass
                    };
                    (Some(delta), verdict)
                }
                _ => (None, Verdict::Missing),
            };
            GateRow { metric, baseline_ns, current_ns, delta, verdict }
        })
        .collect();
    GateReport { tolerance, rows }
}

/// Which of several runs of one suite a baseline refresh keeps: the
/// run nearest the per-row medians, by the smallest sum over rows of
/// `|ln(run / median)|`, so one lucky (or unlucky) run cannot set a
/// baseline. Rows match by position (every run is [`extract`]ed with
/// the same specs). A row's median is over the runs that measured it; a
/// run missing a row another run measured is never nearest, and a row
/// no run measured is skipped. Ties keep the earlier run; no runs
/// gives 0.
pub fn nearest_to_median(runs: &[Vec<(&'static str, Option<f64>)>]) -> usize {
    let rows = runs.first().map_or(0, Vec::len);
    let mut scores = vec![0.0f64; runs.len()];
    for row in 0..rows {
        let value = |run: &Vec<(&'static str, Option<f64>)>| run.get(row).and_then(|(_, v)| *v);
        let mut present: Vec<f64> = runs.iter().filter_map(value).collect();
        if present.is_empty() {
            continue;
        }
        present.sort_by(f64::total_cmp);
        let mid = present.len() / 2;
        let median = if present.len() % 2 == 1 {
            present[mid]
        } else {
            (present[mid - 1] + present[mid]) / 2.0
        };
        for (score, run) in scores.iter_mut().zip(runs) {
            *score +=
                value(run).map_or(f64::INFINITY, |v| (v.max(1.0) / median.max(1.0)).ln().abs());
        }
    }
    (0..runs.len()).min_by(|&a, &b| scores[a].total_cmp(&scores[b])).unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metrics(values: &[(&'static str, f64)]) -> Vec<(&'static str, Option<f64>)> {
        values.iter().map(|&(n, v)| (n, Some(v))).collect()
    }

    #[test]
    fn identical_run_passes() {
        let base = metrics(&[("a", 100.0), ("b", 2e6)]);
        let report = compare(&base, &base, DEFAULT_TOLERANCE, 0.0);
        assert!(report.failures() == 0);
        assert_eq!(report.failures(), 0);
    }

    #[test]
    fn within_tolerance_and_faster_pass() {
        let base = metrics(&[("a", 100.0), ("b", 100.0)]);
        let cur = metrics(&[("a", 119.0), ("b", 40.0)]);
        let report = compare(&base, &cur, 0.20, 0.0);
        assert!(report.failures() == 0, "{:?}", report.rows);
    }

    #[test]
    fn injected_regression_fails() {
        let base = metrics(&[("a", 100.0), ("b", 100.0)]);
        let cur = metrics(&[("a", 100.0), ("b", 150.0)]);
        let report = compare(&base, &cur, 0.20, 0.0);
        assert!(report.failures() > 0);
        assert_eq!(report.failures(), 1);
        let bad = &report.rows[1];
        assert_eq!(bad.verdict, Verdict::Slower);
        assert!((bad.delta.unwrap() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn absolute_slack_absorbs_micro_span_jitter() {
        // A 50 µs span jumping 40% stays inside the quarter-millisecond
        // slack; a 2 ms stage regressing 40% does not.
        let base = metrics(&[("micro", 50_000.0), ("macro", 2_000_000.0)]);
        let cur = metrics(&[("micro", 70_000.0), ("macro", 2_800_000.0)]);
        let report = compare(&base, &cur, 0.20, DEFAULT_ABS_SLACK_NS);
        assert_eq!(report.rows[0].verdict, Verdict::Pass);
        assert_eq!(report.rows[1].verdict, Verdict::Slower);
    }

    #[test]
    fn missing_metric_fails_on_either_side() {
        let base = metrics(&[("a", 100.0)]);
        let cur = metrics(&[("a", 100.0), ("new", 5.0)]);
        let report = compare(&base, &cur, 0.20, 0.0);
        assert_eq!(report.failures(), 1);
        assert_eq!(report.rows[1].verdict, Verdict::Missing);

        let gone: Vec<(&'static str, Option<f64>)> = vec![("a", None)];
        let report = compare(&base, &gone, 0.20, 0.0);
        assert_eq!(report.rows[0].verdict, Verdict::Missing);
    }

    #[test]
    fn extraction_reads_paths_and_obs_spans() {
        let doc: Value = serde_json::from_str(
            r#"{
                "optimized_warm_fast": {"median_ns_per_op": 123.0},
                "obs": {"spans": [
                    {"name": "trip", "mean_ns": 456},
                    {"name": "steering", "mean_ns": 7}
                ]}
            }"#,
        )
        .expect("test doc parses");
        let got = extract(&doc, PIPELINE_METRICS);
        let by_name = |n: &str| got.iter().find(|(m, _)| *m == n).and_then(|(_, v)| *v);
        assert_eq!(by_name("pipeline/warm_fast_trip"), Some(123.0));
        assert_eq!(by_name("pipeline/span/trip"), Some(456.0));
        assert_eq!(by_name("pipeline/span/steering"), Some(7.0));
        // Spans the doc lacks extract as None, not a panic.
        assert_eq!(by_name("pipeline/span/fusion"), None);
    }

    #[test]
    fn refresh_keeps_the_run_nearest_the_medians() {
        // Row medians a = 100, b = 11. Run 0 is the fastest (lucky on
        // `a`) and run 2 is the last; run 1 sits on both medians.
        let runs = [
            metrics(&[("a", 50.0), ("b", 10.0)]),
            metrics(&[("a", 100.0), ("b", 11.0)]),
            metrics(&[("a", 110.0), ("b", 30.0)]),
        ];
        assert_eq!(nearest_to_median(&runs), 1);
        // The summed distance decides, not the number of rows won: run 1
        // sits on the medians of `a` and `c` but far off on `b`, run 2
        // a little off on `a` and `c` and on the median of `b`.
        let runs = [
            metrics(&[("a", 99.0), ("b", 40.0), ("c", 50.0)]),
            metrics(&[("a", 100.0), ("b", 5.0), ("c", 50.0)]),
            metrics(&[("a", 104.0), ("b", 11.0), ("c", 51.0)]),
        ];
        assert_eq!(nearest_to_median(&runs), 2);
        // A run that lost a row is never kept; ties keep the earlier run.
        let lost = vec![("a", None), ("b", Some(11.0))];
        let runs =
            [lost, metrics(&[("a", 100.0), ("b", 11.0)]), metrics(&[("a", 100.0), ("b", 11.0)])];
        assert_eq!(nearest_to_median(&runs), 1);
        assert_eq!(nearest_to_median(&[]), 0);
    }

    #[test]
    fn table_rows_render_every_metric() {
        let base = metrics(&[("a", 1e6)]);
        let cur = metrics(&[("a", 2e6)]);
        let report = compare(&base, &cur, 0.20, 0.0);
        let rows = report.table_rows();
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0][0], "a");
        assert_eq!(rows[0][3], "+100.0%");
        assert_eq!(rows[0][4], "FAIL");
    }
}
