//! `RunReport` JSON robustness: error paths of `from_json` against the
//! vendored parser's semantics, and a property test that arbitrary
//! well-formed reports survive the round trip byte-exactly.

use gradest_obs::{CounterReport, HistogramReport, RunReport, SpanReport};
use proptest::prelude::*;

// ---------------------------------------------------------------------
// from_json error paths
// ---------------------------------------------------------------------

fn valid_json() -> String {
    RunReport {
        spans: vec![SpanReport {
            name: "trip".to_string(),
            depth: 0,
            count: 1,
            total_ns: 500,
            mean_ns: 500,
            min_ns: 500,
            max_ns: 500,
        }],
        counters: vec![CounterReport { name: "trips-processed".to_string(), value: 1 }],
        histograms: vec![HistogramReport {
            name: "ekf-innovation".to_string(),
            count: 3,
            mean: 0.5,
            stddev: 0.1,
            min: 0.2,
            max: 0.9,
        }],
    }
    .to_json()
}

#[test]
fn truncated_input_is_a_parse_error() {
    let json = valid_json();
    // Chop the document at several depths; every prefix must fail
    // cleanly (an Err, never a panic or a silently partial report).
    for cut in [1, json.len() / 4, json.len() / 2, json.len() - 2] {
        let truncated = &json[..cut];
        let err = RunReport::from_json(truncated).expect_err("truncated JSON must not parse");
        assert!(!err.is_empty(), "error message should name the failure");
    }
}

#[test]
fn empty_and_non_object_inputs_fail() {
    assert!(RunReport::from_json("").is_err());
    assert!(RunReport::from_json("null").is_err());
    assert!(RunReport::from_json("42").is_err());
    assert!(RunReport::from_json("[]").is_err());
    assert!(RunReport::from_json("\"spans\"").is_err());
}

#[test]
fn wrong_type_fields_name_the_field() {
    // A scalar where the spans array belongs.
    let err = RunReport::from_json(r#"{"spans": 7, "counters": [], "histograms": []}"#)
        .expect_err("scalar spans must fail");
    assert!(err.contains("spans"), "error should name the field: {err}");

    // A wrong-typed element inside an otherwise valid array.
    let err = RunReport::from_json(
        r#"{"spans": [], "counters": [{"name": 3, "value": 1}], "histograms": []}"#,
    )
    .expect_err("numeric counter name must fail");
    assert!(err.contains("name"), "error should name the field: {err}");

    // A string where a numeric field belongs.
    let err = RunReport::from_json(
        r#"{"spans": [], "counters": [{"name": "x", "value": "lots"}], "histograms": []}"#,
    )
    .expect_err("string counter value must fail");
    assert!(err.contains("value"), "error should name the field: {err}");
}

#[test]
fn missing_fields_fail() {
    // The parser treats a missing key as null, which no Vec field
    // accepts — a report without its sections is rejected, not
    // defaulted.
    let err = RunReport::from_json(r#"{"counters": [], "histograms": []}"#)
        .expect_err("missing spans must fail");
    assert!(err.contains("spans"), "error should name the field: {err}");
}

#[test]
fn unknown_keys_are_ignored() {
    // Forward compatibility: fields added by a newer writer (or the
    // surrounding bench JSON) must not break older readers. The parser
    // looks fields up by name and skips the rest.
    let json = r#"{
        "spans": [],
        "counters": [{"name": "trips-processed", "value": 2, "annotation": "new"}],
        "histograms": [],
        "fleet_health": {"trips": 2}
    }"#;
    let report = RunReport::from_json(json).expect("unknown keys are tolerated");
    assert_eq!(report.counter("trips-processed"), Some(2));
    assert!(report.spans.is_empty());
}

// ---------------------------------------------------------------------
// Round-trip property
// ---------------------------------------------------------------------

/// Alphabet for generated metric names: taxonomy punctuation (`-`,
/// `:`) plus characters JSON must escape, so the round trip covers the
/// string-escaping path too.
const NAME_CHARS: [char; 12] = ['a', 'z', 'A', '0', '-', ':', '_', ' ', '"', '\\', '\n', 'é'];

/// Metric-name-ish strings drawn from [`NAME_CHARS`].
fn name_strategy() -> impl Strategy<Value = String> {
    prop::collection::vec(0..NAME_CHARS.len(), 1..12)
        .prop_map(|idxs| idxs.into_iter().map(|i| NAME_CHARS[i]).collect())
}

/// Finite floats only: JSON has no spelling for NaN/±Inf (the shim
/// serializes them as null), so round-trip equality is scoped to the
/// values a report can faithfully carry. Mixes magnitudes from
/// subnormal-adjacent to 1e12, plus exact zero.
fn finite_f64() -> impl Strategy<Value = f64> {
    (0..3usize, -1.0e12..1.0e12f64).prop_map(|(kind, x)| match kind {
        0 => x,
        1 => x * 1.0e-21,
        _ => 0.0,
    })
}

fn span_strategy() -> impl Strategy<Value = SpanReport> {
    (name_strategy(), 0..3u64, 1..1_000_000u64, 0..u64::MAX / 4, 0..u64::MAX / 4).prop_map(
        |(name, depth, count, a, b)| {
            let (lo, hi) = (a.min(b), a.max(b));
            let total_ns = hi.saturating_mul(count.min(1_000));
            SpanReport {
                name,
                depth,
                count,
                total_ns,
                mean_ns: total_ns / count,
                min_ns: lo,
                max_ns: hi,
            }
        },
    )
}

fn counter_strategy() -> impl Strategy<Value = CounterReport> {
    (name_strategy(), 0..u64::MAX).prop_map(|(name, value)| CounterReport { name, value })
}

fn histogram_strategy() -> impl Strategy<Value = HistogramReport> {
    (name_strategy(), 1..1_000_000u64, finite_f64(), finite_f64(), finite_f64()).prop_map(
        |(name, count, mean, spread, x)| HistogramReport {
            name,
            count,
            mean,
            stddev: spread.abs(),
            min: x.min(mean),
            max: x.max(mean),
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn report_round_trips_exactly(
        spans in prop::collection::vec(span_strategy(), 0..5),
        counters in prop::collection::vec(counter_strategy(), 0..5),
        histograms in prop::collection::vec(histogram_strategy(), 0..5),
    ) {
        let report = RunReport { spans, counters, histograms };
        let json = report.to_json();
        let back = RunReport::from_json(&json).expect("serializer output must parse");
        prop_assert_eq!(&back, &report);
        // Stability: a second trip through text changes nothing.
        let json2 = back.to_json();
        prop_assert_eq!(json2, json);
    }
}
