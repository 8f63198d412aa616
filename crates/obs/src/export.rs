//! `obs::export` — standard telemetry formats.
//!
//! Two exporters, both pure string builders over already-captured
//! data:
//!
//! - [`chrome_trace_json`]: a [`TraceSnapshot`] as Chrome/Perfetto
//!   `trace_event` JSON (the `{"traceEvents": […]}` object format).
//!   Span ends become complete (`"X"`) slices, point events become
//!   instants (`"i"`), and Eq-6 fusion-weight snapshots become counter
//!   (`"C"`) tracks — load the file in `ui.perfetto.dev` or
//!   `chrome://tracing`.
//! - [`prometheus_text`]: a `RunReport` plus the caller's own
//!   [`Sample`]s in Prometheus text exposition format — the `METRICS`
//!   frame of `gradest-serve` and the `gradest-trace` textfile. It is
//!   the workspace's one writer of `# TYPE` and `# HELP` lines. Metric
//!   names are the taxonomy names with `-`/`:` mapped to `_` under a
//!   `gradest_` prefix; spans and histograms export as labelled
//!   families so the metric set stays fixed as the taxonomy grows.
//!
//! [`validate_prometheus_text`] checks an exposition line-by-line
//! against the text-format grammar (comments, metric names, label
//! syntax, float values, one `# TYPE` and one `# HELP` per family, the
//! `# TYPE` before the family's first sample) — the golden tests run
//! every export through it.
//!
//! The trace_event payload is hand-written: the vendored serde derive
//! supports named-field structs only, and the event array mixes shapes
//! per phase, so a small JSON writer is simpler than fighting the shim.

use crate::metrics::{Counter, VelocitySource};
use crate::run::{HistogramReport, RunReport};
use crate::trace::{TraceEvent, TraceSnapshot};
use std::collections::HashSet;
use std::fmt::Write as _;

/// A JSON number from an `f64`: non-finite values (unrepresentable in
/// JSON) map to 0, matching the serde shim's null-avoidance posture.
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// Append a JSON string literal (quotes + minimal escaping; taxonomy
/// names need none of it, but the writer stays safe for any input).
fn push_json_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// One trace_event record: shared header fields plus a caller-built
/// `args` object body (pass `""` for no args).
#[allow(clippy::too_many_arguments)] // flat JSON header fields, used only below
fn push_trace_record(
    out: &mut String,
    first: &mut bool,
    name: &str,
    ph: &str,
    ts_us: f64,
    tid: u8,
    extra: &str,
    args: &str,
) {
    if !*first {
        out.push_str(",\n");
    }
    *first = false;
    out.push_str("    {\"name\": ");
    push_json_str(out, name);
    let _ =
        write!(out, ", \"ph\": \"{ph}\", \"ts\": {}, \"pid\": 1, \"tid\": {tid}", json_num(ts_us));
    out.push_str(extra);
    if !args.is_empty() {
        let _ = write!(out, ", \"args\": {{{args}}}");
    }
    out.push('}');
}

/// Render a trace snapshot as Chrome/Perfetto `trace_event` JSON.
///
/// Timestamps are microseconds since ring construction; each recording
/// thread's lane becomes a `tid`, so fleet-worker activity lands on
/// separate tracks. The ring records span *ends* (duration attached),
/// so complete `"X"` slices are reconstructed as `ts = end − dur`.
pub fn chrome_trace_json(snapshot: &TraceSnapshot) -> String {
    let mut out = String::from("{\n  \"displayTimeUnit\": \"ms\",\n  \"traceEvents\": [\n");
    let mut first = true;
    for rec in &snapshot.events {
        let ts_us = rec.ts_ns as f64 / 1.0e3;
        let tid = rec.lane;
        match rec.event {
            TraceEvent::SpanEnd { span, dur_ns } => {
                let dur_us = dur_ns as f64 / 1.0e3;
                let start_us = (ts_us - dur_us).max(0.0);
                let extra = format!(", \"dur\": {}, \"cat\": \"span\"", json_num(dur_us));
                push_trace_record(
                    &mut out,
                    &mut first,
                    span.name(),
                    "X",
                    start_us,
                    tid,
                    &extra,
                    "",
                );
            }
            TraceEvent::FusionWeights { weights } => {
                let mut args = String::new();
                for (i, (src, w)) in VelocitySource::ALL.iter().zip(weights.iter()).enumerate() {
                    if i > 0 {
                        args.push_str(", ");
                    }
                    let _ = write!(args, "\"{}\": {}", src.label(), json_num(*w));
                }
                push_trace_record(
                    &mut out,
                    &mut first,
                    "fusion-weights",
                    "C",
                    ts_us,
                    tid,
                    "",
                    &args,
                );
            }
            ev => {
                let args = instant_args(ev);
                let extra = ", \"s\": \"t\", \"cat\": \"event\"";
                push_trace_record(&mut out, &mut first, ev.kind(), "i", ts_us, tid, extra, &args);
            }
        }
    }
    let _ = write!(
        out,
        "\n  ],\n  \"otherData\": {{\"dropped_events\": {}, \"ring_capacity\": {}}}\n}}\n",
        snapshot.dropped, snapshot.capacity
    );
    out
}

/// The `args` object body for an instant event (no braces).
fn instant_args(ev: TraceEvent) -> String {
    match ev {
        TraceEvent::TripStart => String::new(),
        TraceEvent::TripEnd { detections } => format!("\"detections\": {detections}"),
        TraceEvent::LaneChangeAccepted { t_mid_s, displacement_m }
        | TraceEvent::LaneChangeRejected { t_mid_s, displacement_m } => format!(
            "\"t_mid_s\": {}, \"displacement_m\": {}",
            json_num(t_mid_s),
            json_num(displacement_m)
        ),
        TraceEvent::EkfHealth { source, from, to } => format!(
            "\"source\": \"{}\", \"from\": \"{}\", \"to\": \"{}\"",
            source.label(),
            from.name(),
            to.name()
        ),
        TraceEvent::TrackDiverged { source } => format!("\"source\": \"{}\"", source.label()),
        TraceEvent::GpsGap { t_start_s, duration_s } => format!(
            "\"t_start_s\": {}, \"duration_s\": {}",
            json_num(t_start_s),
            json_num(duration_s)
        ),
        TraceEvent::FleetJobStart { job } | TraceEvent::FleetJobEnd { job } => {
            format!("\"job\": {job}")
        }
        TraceEvent::CloudUpload { road_id, cells } => {
            format!("\"road_id\": {road_id}, \"cells\": {cells}")
        }
        TraceEvent::ServiceConnOpened { conn } => format!("\"conn\": {conn}"),
        TraceEvent::ServiceConnClosed { conn, frames } => {
            format!("\"conn\": {conn}, \"frames\": {frames}")
        }
        TraceEvent::ServiceBusy { conn, reason } => {
            format!("\"conn\": {conn}, \"reason\": {reason}")
        }
        TraceEvent::ServiceFrameRejected { conn, code } => {
            format!("\"conn\": {conn}, \"code\": {code}")
        }
        TraceEvent::ServiceDrain { in_flight } => format!("\"in_flight\": {in_flight}"),
        TraceEvent::QualityAlert { signal, raised } => {
            format!("\"signal\": \"{}\", \"raised\": {raised}", signal.name())
        }
        // Handled by dedicated phases above; kept total for safety.
        TraceEvent::FusionWeights { .. } | TraceEvent::SpanEnd { .. } => String::new(),
    }
}

/// A taxonomy name (`ekf-updates:gps`) as a Prometheus metric-name
/// fragment (`ekf_updates_gps`).
fn sanitize(name: &str) -> String {
    name.chars().map(|c| if c.is_ascii_alphanumeric() { c } else { '_' }).collect()
}

/// A Prometheus sample value: finite floats print plainly, non-finite
/// values use the exposition spellings `+Inf`/`-Inf`/`NaN`.
fn prom_value(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else if v.is_nan() {
        "NaN".to_string()
    } else if v > 0.0 {
        "+Inf".to_string()
    } else {
        "-Inf".to_string()
    }
}

/// One `# HELP` + `# TYPE` header pair.
fn push_family(out: &mut String, name: &str, kind: &str, help: &str) {
    let _ = writeln!(out, "# HELP {name} {help}");
    let _ = writeln!(out, "# TYPE {name} {kind}");
}

/// The Prometheus type of a caller's [`Sample`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SampleKind {
    /// A cumulative count that never falls.
    Counter,
    /// A value that may go up and down.
    Gauge,
}

/// One caller-supplied sample for [`prometheus_text`]: an unlabelled
/// family holding one value, with an optional timestamp. Its name must
/// not be one the report's families already use.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sample {
    /// Full metric name, e.g. `gradest_service_in_flight`.
    pub name: &'static str,
    /// The family's type.
    pub kind: SampleKind,
    /// The sample value.
    pub value: f64,
    /// Milliseconds since the Unix epoch, for samples that carry their
    /// own scrape time.
    pub timestamp_ms: Option<u64>,
}

/// Render a report plus the caller's samples in Prometheus text
/// exposition format.
///
/// Every taxonomy counter becomes a `gradest_<name>_total` counter
/// family, at zero when the report omits it, so a scraper sees each
/// counter from its first scrape. Spans and histograms become labelled
/// families (`gradest_span_*{span="…"}`, `gradest_hist_*{hist="…"}`);
/// `samples` follow, one family each. Every output line passes
/// [`validate_prometheus_text`].
pub fn prometheus_text(report: &RunReport, samples: &[Sample]) -> String {
    let mut out = String::new();
    for c in Counter::ALL {
        let name = format!("gradest_{}_total", sanitize(c.name()));
        push_family(&mut out, &name, "counter", "Cumulative event count from the obs taxonomy.");
        let _ = writeln!(out, "{name} {}", report.counter(c.name()).unwrap_or(0));
    }
    if !report.spans.is_empty() {
        push_family(
            &mut out,
            "gradest_span_count_total",
            "counter",
            "Completions of each timed region.",
        );
        for s in &report.spans {
            let _ = writeln!(
                out,
                "gradest_span_count_total{{span=\"{}\"}} {}",
                sanitize(&s.name),
                s.count
            );
        }
        push_family(
            &mut out,
            "gradest_span_duration_seconds_total",
            "counter",
            "Total wall-clock seconds spent in each timed region.",
        );
        for s in &report.spans {
            let _ = writeln!(
                out,
                "gradest_span_duration_seconds_total{{span=\"{}\"}} {}",
                sanitize(&s.name),
                prom_value(s.total_ns as f64 / 1.0e9)
            );
        }
    }
    if !report.histograms.is_empty() {
        type HistStat = fn(&HistogramReport) -> f64;
        let stats: [(&str, &str, HistStat); 5] = [
            ("gradest_hist_count", "Observations recorded per histogram.", |h| h.count as f64),
            ("gradest_hist_mean", "Mean observed value per histogram.", |h| h.mean),
            ("gradest_hist_stddev", "Population stddev per histogram.", |h| h.stddev),
            ("gradest_hist_min", "Smallest observed value per histogram.", |h| h.min),
            ("gradest_hist_max", "Largest observed value per histogram.", |h| h.max),
        ];
        for (name, help, get) in stats {
            push_family(&mut out, name, "gauge", help);
            for h in &report.histograms {
                let _ = writeln!(
                    out,
                    "{name}{{hist=\"{}\"}} {}",
                    sanitize(&h.name),
                    prom_value(get(h))
                );
            }
        }
    }
    for s in samples {
        let kind = match s.kind {
            SampleKind::Counter => "counter",
            SampleKind::Gauge => "gauge",
        };
        let _ = writeln!(out, "# TYPE {} {kind}", s.name);
        let _ = write!(out, "{} {}", s.name, prom_value(s.value));
        if let Some(ts) = s.timestamp_ms {
            let _ = write!(out, " {ts}");
        }
        out.push('\n');
    }
    out
}

/// Whether `s` is a valid Prometheus metric or label name
/// (`[a-zA-Z_:][a-zA-Z0-9_:]*`; labels additionally forbid `:`).
fn valid_name(s: &str, allow_colon: bool) -> bool {
    let mut chars = s.chars();
    let Some(first) = chars.next() else {
        return false;
    };
    let head_ok = first.is_ascii_alphabetic() || first == '_' || (allow_colon && first == ':');
    head_ok && chars.all(|c| c.is_ascii_alphanumeric() || c == '_' || (allow_colon && c == ':'))
}

/// Check one `name{label="v",…}` sample line against the grammar and
/// return its metric name.
fn validate_sample(line: &str, lineno: usize) -> Result<&str, String> {
    let err = |msg: &str| Err(format!("line {lineno}: {msg}: {line:?}"));
    // Split off the metric name: everything before '{' or whitespace.
    let name_end = line.find(|c: char| c == '{' || c.is_ascii_whitespace()).unwrap_or(line.len());
    let (name, mut rest) = line.split_at(name_end);
    if !valid_name(name, true) {
        return err("invalid metric name");
    }
    if let Some(stripped) = rest.strip_prefix('{') {
        let Some(close) = stripped.find('}') else {
            return err("unterminated label set");
        };
        let (labels, after) = stripped.split_at(close);
        rest = &after[1..];
        for pair in labels.split(',').filter(|p| !p.trim().is_empty()) {
            let Some((lname, lval)) = pair.trim().split_once('=') else {
                return err("label without '='");
            };
            if !valid_name(lname.trim(), false) {
                return err("invalid label name");
            }
            let lval = lval.trim();
            if !(lval.len() >= 2 && lval.starts_with('"') && lval.ends_with('"')) {
                return err("label value not quoted");
            }
        }
    }
    let mut fields = rest.split_ascii_whitespace();
    let Some(value) = fields.next() else {
        return err("missing sample value");
    };
    if value.parse::<f64>().is_err() && !matches!(value, "+Inf" | "-Inf" | "NaN") {
        return err("unparseable sample value");
    }
    // Optional millisecond timestamp.
    if let Some(ts) = fields.next() {
        if ts.parse::<i64>().is_err() {
            return err("unparseable timestamp");
        }
    }
    if fields.next().is_some() {
        return err("trailing tokens after sample");
    }
    Ok(name)
}

/// Validate a full exposition line-by-line against the Prometheus text
/// format grammar: `# HELP`/`# TYPE` headers (with known metric types),
/// other comments, blank lines, and `name{labels} value [timestamp]`
/// samples. A name may have one `# HELP` and one `# TYPE` line, and its
/// `# TYPE` must come before the family's first sample (for a
/// histogram or summary `m`, samples named `m_sum`, `m_count` and
/// `m_bucket` belong to it). Returns the first offending line on
/// failure.
///
/// # Errors
///
/// A message naming the line number and the grammar rule it broke.
pub fn validate_prometheus_text(text: &str) -> Result<(), String> {
    const TYPES: [&str; 5] = ["counter", "gauge", "histogram", "summary", "untyped"];
    let mut helped = HashSet::new();
    let mut typed = HashSet::new();
    let mut sampled = HashSet::new();
    for (idx, line) in text.lines().enumerate() {
        let lineno = idx + 1;
        if line.trim().is_empty() {
            continue;
        }
        if let Some(comment) = line.strip_prefix('#') {
            let mut toks = comment.trim_start().splitn(2, ' ');
            match toks.next() {
                Some("HELP") => {
                    let rest = toks.next().unwrap_or("");
                    let name = rest.split_ascii_whitespace().next().unwrap_or("");
                    if !valid_name(name, true) {
                        return Err(format!("line {lineno}: HELP without valid metric name"));
                    }
                    if !helped.insert(name) {
                        return Err(format!("line {lineno}: second HELP for {name}"));
                    }
                }
                Some("TYPE") => {
                    let rest = toks.next().unwrap_or("");
                    let mut parts = rest.split_ascii_whitespace();
                    let name = parts.next().unwrap_or("");
                    let kind = parts.next().unwrap_or("");
                    if !valid_name(name, true) {
                        return Err(format!("line {lineno}: TYPE without valid metric name"));
                    }
                    if !TYPES.contains(&kind) {
                        return Err(format!("line {lineno}: unknown metric type {kind:?}"));
                    }
                    if parts.next().is_some() {
                        return Err(format!("line {lineno}: trailing tokens after TYPE"));
                    }
                    if !typed.insert(name) {
                        return Err(format!("line {lineno}: second TYPE for {name}"));
                    }
                    let family_sampled = sampled.contains(name)
                        || ["_sum", "_count", "_bucket"]
                            .iter()
                            .any(|suffix| sampled.contains(format!("{name}{suffix}").as_str()));
                    if family_sampled {
                        return Err(format!("line {lineno}: TYPE for {name} after its samples"));
                    }
                }
                // Any other comment is legal.
                _ => {}
            }
            continue;
        }
        sampled.insert(validate_sample(line, lineno)?);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::{Counter, Histogram, Span};
    use crate::recorder::Recorder;
    use crate::run::RunRecorder;
    use crate::trace::TraceRing;

    fn sample_snapshot() -> TraceSnapshot {
        let ring = TraceRing::with_capacity(32);
        ring.event(TraceEvent::TripStart);
        ring.event(TraceEvent::LaneChangeAccepted { t_mid_s: 12.5, displacement_m: 3.4 });
        ring.event(TraceEvent::FusionWeights { weights: [0.4, 0.3, 0.2, 0.1] });
        ring.record_span(Span::Trip, 2_000_000);
        ring.event(TraceEvent::TripEnd { detections: 1 });
        ring.snapshot()
    }

    #[test]
    fn chrome_trace_is_valid_json_with_expected_phases() {
        let json = chrome_trace_json(&sample_snapshot());
        let v: serde_json::Value = serde_json::from_str(&json).expect("trace JSON parses");
        let events = v.get("traceEvents").and_then(|e| e.as_array()).expect("traceEvents array");
        assert_eq!(events.len(), 5);
        let phases: Vec<&str> =
            events.iter().filter_map(|e| e.get("ph").and_then(|p| p.as_str())).collect();
        assert_eq!(phases, ["i", "i", "C", "X", "i"]);
        // The complete slice carries a duration in microseconds.
        let slice = &events[3];
        assert_eq!(slice.get("name").and_then(|n| n.as_str()), Some("trip"));
        assert_eq!(slice.get("dur").and_then(|d| d.as_f64()), Some(2_000.0));
        // The counter track carries one arg per source.
        let weights = events[2].get("args").expect("fusion-weights args");
        assert_eq!(weights.get("gps").and_then(|w| w.as_f64()), Some(0.4));
        assert_eq!(weights.get("accelerometer").and_then(|w| w.as_f64()), Some(0.1));
    }

    #[test]
    fn chrome_trace_reports_overflow() {
        let ring = TraceRing::with_capacity(1);
        ring.event(TraceEvent::TripStart);
        ring.event(TraceEvent::TripEnd { detections: 0 });
        let json = chrome_trace_json(&ring.snapshot());
        let v: serde_json::Value = serde_json::from_str(&json).expect("parses");
        let other = v.get("otherData").expect("otherData");
        assert_eq!(other.get("dropped_events").and_then(|d| d.as_u64()), Some(1));
        assert_eq!(other.get("ring_capacity").and_then(|c| c.as_u64()), Some(1));
    }

    #[test]
    fn json_strings_escape_controls() {
        let mut s = String::new();
        push_json_str(&mut s, "a\"b\\c\nd\u{1}");
        assert_eq!(s, "\"a\\\"b\\\\c\\nd\\u0001\"");
    }

    fn sample_report() -> RunReport {
        let rec = RunRecorder::new();
        rec.record_span(Span::Trip, 1_500_000);
        rec.incr(Counter::TripsProcessed, 1);
        rec.incr(Counter::EkfUpdatesGps, 140);
        rec.observe(Histogram::EkfInnovation, 0.25);
        rec.report()
    }

    #[test]
    fn prometheus_text_passes_its_own_validator() {
        let samples = [
            Sample {
                name: "gradest_service_roads",
                kind: SampleKind::Gauge,
                value: 3.0,
                timestamp_ms: None,
            },
            Sample {
                name: "gradest_service_uptime_seconds",
                kind: SampleKind::Gauge,
                value: 12.5,
                timestamp_ms: Some(1_700_000_000_000),
            },
        ];
        let text = prometheus_text(&sample_report(), &samples);
        validate_prometheus_text(&text).expect("exposition conforms to the grammar");
        // Taxonomy punctuation must be gone from metric names.
        assert!(text.contains("gradest_ekf_updates_gps_total 140"));
        assert!(!text.lines().any(|l| !l.starts_with('#') && (l.contains('-') || l.contains(':'))));
        // Every taxonomy counter is there, also at zero.
        assert!(text.contains("# TYPE gradest_service_busy_rejects_total counter\n"));
        assert!(text.contains("\ngradest_service_busy_rejects_total 0\n"));
        assert!(text.contains("gradest_span_count_total{span=\"trip\"} 1\n"));
        assert!(text.contains("# TYPE gradest_service_roads gauge\ngradest_service_roads 3\n"));
        assert!(text.ends_with("gradest_service_uptime_seconds 12.5 1700000000000\n"));
        // A sample that reuses a report family's name is caught.
        let clash = Sample {
            name: "gradest_trips_processed_total",
            kind: SampleKind::Counter,
            value: 1.0,
            timestamp_ms: None,
        };
        assert!(validate_prometheus_text(&prometheus_text(&sample_report(), &[clash])).is_err());
    }

    #[test]
    fn validator_rejects_bad_lines() {
        assert!(validate_prometheus_text("ok_metric 1\n").is_ok());
        assert!(validate_prometheus_text("bad-name 1\n").is_err());
        assert!(validate_prometheus_text("metric 1.5e3\n").is_ok());
        assert!(validate_prometheus_text("metric not_a_number\n").is_err());
        assert!(validate_prometheus_text("metric{label=\"v\"} 2\n").is_ok());
        assert!(validate_prometheus_text("metric{label=unquoted} 2\n").is_err());
        assert!(validate_prometheus_text("metric{label=\"v\" 2\n").is_err(), "unterminated labels");
        assert!(validate_prometheus_text("# TYPE m counter\n").is_ok());
        assert!(validate_prometheus_text("# TYPE m flavor\n").is_err());
        assert!(validate_prometheus_text("# arbitrary comment\n").is_ok());
        assert!(validate_prometheus_text("m +Inf\n").is_ok());
        assert!(validate_prometheus_text("m 1 1700000000000\n").is_ok(), "timestamp allowed");
        assert!(validate_prometheus_text("m 1 t\n").is_err());
        // Gauge samples with labels keep their optional timestamp too —
        // the service's uptime gauge exports this exact shape.
        assert!(validate_prometheus_text(
            "# TYPE gradest_service_uptime_seconds gauge\n\
             gradest_service_uptime_seconds{instance=\"a\"} 12.5 1700000000000\n"
        )
        .is_ok());
        assert!(validate_prometheus_text("m 1 1.5\n").is_err(), "timestamps are integral ms");
        // One HELP and one TYPE per family, the TYPE before its samples.
        assert!(validate_prometheus_text("# HELP m a\n# TYPE m counter\nm 1\nn 2\n").is_ok());
        assert!(validate_prometheus_text("# TYPE m counter\n# TYPE m counter\nm 1\n").is_err());
        assert!(validate_prometheus_text("# TYPE m counter\nm 1\n# TYPE m gauge\n").is_err());
        assert!(validate_prometheus_text("# HELP m a\n# HELP m b\nm 1\n").is_err());
        assert!(validate_prometheus_text("# HELP m a\nm 1\n# HELP m a\n").is_err());
        assert!(validate_prometheus_text("m 1\n# TYPE m counter\n").is_err(), "TYPE after sample");
        assert!(validate_prometheus_text("m_sum 1\n# TYPE m summary\n").is_err());
        assert!(validate_prometheus_text("m_bucket{le=\"1\"} 1\n# TYPE m histogram\n").is_err());
        assert!(validate_prometheus_text("m_total 1\n# TYPE m counter\n").is_ok(), "other family");
    }

    #[test]
    fn non_finite_values_use_exposition_spellings() {
        assert_eq!(prom_value(f64::INFINITY), "+Inf");
        assert_eq!(prom_value(f64::NEG_INFINITY), "-Inf");
        assert_eq!(prom_value(f64::NAN), "NaN");
        assert_eq!(prom_value(1.5), "1.5");
    }
}
