//! `gradest-obs` — the observability substrate for the gradient
//! estimation stack.
//!
//! Eight pieces (DESIGN.md §9–§10, §15):
//!
//! - [`metrics`]: the closed taxonomy of [`Span`]s (a static forest of
//!   timed regions: trip stages, per-source EKF tracks, fleet workers,
//!   cloud uploads), [`Counter`]s, and [`Histogram`]s, plus the shared
//!   [`StageNanos`] per-trip stage split, and the two domain enums
//!   telemetry is keyed by: [`VelocitySource`] (each EKF track source
//!   names its label, span, update counter and fusion-weight histogram)
//!   and [`FilterHealth`] (verdicts ordered by severity, each naming its
//!   `tracks-*` counter). `gradest-core` re-exports both.
//! - [`recorder`]: the [`Recorder`] trait instrumented code is generic
//!   over, the statically zero-cost [`NoopRecorder`], and the
//!   [`SpanTimer`] helper that only reads the clock when the recorder
//!   is enabled.
//! - [`run`]: [`RunRecorder`], the clock-free whole-run front end of
//!   the time-series ring (one window that never rotates), safe to
//!   share across worker threads, and [`RunReport`], the view of
//!   everything a series kept (JSON for `BENCH_*.json` and
//!   `bench-gate.sh`, rendered tables for humans, an integers-only
//!   snapshot string for tests, the `METRICS` exposition).
//! - [`trace`]: the flight recorder — a bounded, allocation-free
//!   [`TraceRing`] of typed [`TraceEvent`]s (trip/lane-change/EKF
//!   health/fusion-weight/GPS-gap/fleet/cloud; per-track events carry
//!   a [`VelocitySource`] and [`FilterHealth`] verdicts), plus [`Tee`]
//!   to fan a run out to metrics and trace simultaneously.
//! - [`export`]: standard telemetry formats — Perfetto/Chrome
//!   `trace_event` JSON for trace snapshots and the one Prometheus text
//!   builder, for a report plus the caller's own [`Sample`]s.
//! - [`timeseries`]: the one aggregator — a ring of fixed windows
//!   holding counters and one sketch cell per span and histogram
//!   (exact count/sum/sum of squares/min/max plus log-linear quantile
//!   buckets) behind [`TimeSeries`], folding each window it rotates out
//!   into retired totals; [`TimeSeriesRecorder`] is its wall-clock
//!   front end, answering "what is p99 frame latency *right now*" for
//!   the `STATUS` frame.
//! - [`quality`]: fleet-wide estimation-quality drift monitors —
//!   EWMA + Page–Hinkley detectors over the three [`QualitySignal`]s
//!   (mean fusion weight, NIS out-of-band fraction, GPS-dropout rate),
//!   emitting [`TraceEvent::QualityAlert`] transitions.
//! - [`slo`]: the service's three objectives evaluated over the
//!   time-series ring with burn-rate thresholds, driving the
//!   `Healthy`/`Warn`/`Page` states the service reports.
//!
//! The crate depends only on the vendored serde shims, so every layer
//! from `gradest-math` up can adopt it without dependency cycles.
//!
//! # Overhead contract
//!
//! With `NoopRecorder`, instrumentation must be free: `enabled()` is a
//! constant `false`, all sink methods are empty, and call sites keep
//! observability-only work (timestamps, derived statistics) behind
//! `if rec.enabled()`. The warm-path invariants — 0 allocations per
//! trip and bit-identical gradients — are enforced with obs wired
//! through by `pipeline_hotpath_smoke`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod export;
pub mod metrics;
pub mod quality;
pub mod recorder;
pub mod run;
pub mod slo;
pub mod timeseries;
pub mod trace;

pub use export::{
    chrome_trace_json, prometheus_text, validate_prometheus_text, Sample, SampleKind,
};
pub use metrics::{Counter, FilterHealth, Histogram, Span, StageNanos, VelocitySource};
pub use quality::{QualityMonitors, QualityReport, QualitySignal, SignalReport};
pub use recorder::{saturating_ns, NoopRecorder, Recorder, SpanTimer};
pub use run::{CounterReport, HistogramReport, RunRecorder, RunReport, SpanReport};
pub use slo::{SloReport, SloState};
pub use timeseries::{TimeSeries, TimeSeriesConfig, TimeSeriesRecorder, SKETCH_RELATIVE_ERROR};
pub use trace::{Tee, TraceEvent, TraceRecord, TraceRing, TraceSnapshot};
