//! The service-level objectives of `gradest-serve`, evaluated over
//! the live time-series ring.
//!
//! Three fixed objectives: frame availability (99% of decoded frames
//! answered without a typed error), frame latency (99% within 50 ms)
//! and admission (95% of frames not shed with BUSY). Escalation uses
//! the standard multi-window burn-rate scheme: the error ratio is
//! normalised by the error budget `1 − target` into a *burn rate* (1 =
//! exactly consuming budget at the sustainable pace), and an alert
//! fires only when **both** a short and a long lookback burn hot — the
//! short window makes alerts reset quickly once the problem stops, the
//! long window keeps one bad scrape from paging.
//!
//! Everything is hand-rolled over the ring's counters and sketches —
//! no external SLO machinery — and evaluation allocates only the
//! report vector (query path, never the record path).

use crate::metrics::{Counter, Span};
use crate::timeseries::TimeSeries;

/// Short lookback, ring windows (fast alert reset): 10 s at the
/// default 1 s windows.
const SHORT_WINDOWS: usize = 10;
/// Long lookback, ring windows (flake suppression): a minute at the
/// default 1 s windows.
const LONG_WINDOWS: usize = 60;
/// Burn rate at which both lookbacks must run to `Warn`.
const WARN_BURN: f64 = 1.0;

/// How one objective's error ratio is measured from the ring.
#[derive(Debug, Clone, Copy)]
enum Measure {
    /// Ratio of `bad` events to `bad + good` events. No traffic means
    /// no errors.
    Events { bad: Counter, good: Counter },
    /// Fraction of a span's durations above `bound_ns`, subject to the
    /// sketch's relative error at the bound.
    Latency { span: Span, bound_ns: f64 },
}

/// One objective.
#[derive(Debug, Clone, Copy)]
struct SloSpec {
    /// Stable identifier (STATUS JSON key).
    name: &'static str,
    measure: Measure,
    /// Target good fraction in `(0, 1)`.
    target: f64,
    /// Burn rate at which both lookbacks must run to `Page`.
    page_burn: f64,
}

/// The objectives, in report order.
const OBJECTIVES: [SloSpec; 3] = [
    SloSpec {
        name: "frame-availability",
        measure: Measure::Events {
            bad: Counter::ServiceFramesRejected,
            good: Counter::ServiceFramesOk,
        },
        target: 0.99,
        page_burn: 10.0,
    },
    SloSpec {
        name: "frame-latency",
        measure: Measure::Latency { span: Span::ServiceFrame, bound_ns: 50.0e6 },
        target: 0.99,
        page_burn: 10.0,
    },
    SloSpec {
        name: "admission",
        measure: Measure::Events {
            bad: Counter::ServiceBusyRejects,
            good: Counter::ServiceFramesOk,
        },
        target: 0.95,
        page_burn: 6.0,
    },
];

/// Escalation state of one objective, ordered by severity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum SloState {
    /// Burn rates below the warn threshold.
    Healthy,
    /// Budget burning faster than sustainable, not yet page-worthy.
    Warn,
    /// Budget burning fast enough to exhaust well inside the window.
    Page,
}

impl SloState {
    /// Stable lowercase name (STATUS JSON value).
    pub fn name(self) -> &'static str {
        match self {
            SloState::Healthy => "healthy",
            SloState::Warn => "warn",
            SloState::Page => "page",
        }
    }
}

/// One objective's evaluated state.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SloReport {
    /// The objective's name.
    pub name: &'static str,
    /// Escalation state.
    pub state: SloState,
    /// The objective's target good fraction.
    pub target: f64,
    /// Error ratio over the short lookback.
    pub error_short: f64,
    /// Error ratio over the long lookback.
    pub error_long: f64,
    /// Burn rate over the short lookback.
    pub burn_short: f64,
    /// Burn rate over the long lookback.
    pub burn_long: f64,
}

/// Evaluates every objective against the ring at `now_ns`, in report
/// order.
pub fn evaluate(ts: &TimeSeries, now_ns: u64) -> Vec<SloReport> {
    OBJECTIVES.iter().map(|spec| evaluate_spec(spec, ts, now_ns)).collect()
}

/// Error ratio of one measure over one lookback; `None` when no traffic.
fn error_ratio(measure: Measure, ts: &TimeSeries, lookback: usize, now_ns: u64) -> Option<f64> {
    match measure {
        Measure::Events { bad, good } => {
            let bad = ts.delta(bad, lookback, now_ns);
            let total = bad + ts.delta(good, lookback, now_ns);
            if total == 0 {
                None
            } else {
                Some(bad as f64 / total as f64)
            }
        }
        Measure::Latency { span, bound_ns } => {
            ts.span_fraction_above(span, bound_ns, lookback, now_ns)
        }
    }
}

fn evaluate_spec(spec: &SloSpec, ts: &TimeSeries, now_ns: u64) -> SloReport {
    let budget = (1.0 - spec.target).max(f64::MIN_POSITIVE);
    let error_short = error_ratio(spec.measure, ts, SHORT_WINDOWS, now_ns).unwrap_or(0.0);
    let error_long = error_ratio(spec.measure, ts, LONG_WINDOWS, now_ns).unwrap_or(0.0);
    let burn_short = error_short / budget;
    let burn_long = error_long / budget;
    let both_at = |thr: f64| burn_short >= thr && burn_long >= thr;
    let state = if both_at(spec.page_burn) {
        SloState::Page
    } else if both_at(WARN_BURN) {
        SloState::Warn
    } else {
        SloState::Healthy
    };
    SloReport {
        name: spec.name,
        state,
        target: spec.target,
        error_short,
        error_long,
        burn_short,
        burn_long,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::timeseries::TimeSeriesConfig;

    const W: u64 = 1_000;

    fn ring() -> TimeSeries {
        TimeSeries::new(TimeSeriesConfig { window_ns: W, windows: 64 })
    }

    fn report(ts: &TimeSeries, now_ns: u64, name: &str) -> SloReport {
        let reports = evaluate(ts, now_ns);
        *reports.iter().find(|r| r.name == name).expect("objective evaluated")
    }

    /// `ok` good and `bad` rejected frames in each of `windows`.
    fn frames(ts: &TimeSeries, windows: std::ops::Range<u64>, ok: u64, bad: u64) {
        for w in windows {
            ts.incr_at(w * W, Counter::ServiceFramesOk, ok);
            ts.incr_at(w * W, Counter::ServiceFramesRejected, bad);
        }
    }

    #[test]
    fn no_traffic_is_healthy() {
        let reports = evaluate(&ring(), 5 * W);
        let names: Vec<&str> = reports.iter().map(|r| r.name).collect();
        assert_eq!(names, ["frame-availability", "frame-latency", "admission"]);
        for r in &reports {
            assert_eq!(r.state, SloState::Healthy);
            assert_eq!(r.error_long, 0.0);
            assert!(r.target > 0.0 && r.target < 1.0);
        }
    }

    #[test]
    fn sustained_errors_escalate_to_page() {
        let ts = ring();
        // 50% error ratio sustained over the long window: burn 50 ≥ 10.
        frames(&ts, 0..LONG_WINDOWS as u64, 5, 5);
        let now = (LONG_WINDOWS as u64 - 1) * W;
        let r = report(&ts, now, "frame-availability");
        assert_eq!(r.state, SloState::Page);
        assert!((r.error_short - 0.5).abs() < 1e-12);
        assert!((r.burn_long - 50.0).abs() < 1e-9);
        assert_eq!(report(&ts, now, "admission").state, SloState::Healthy);
    }

    #[test]
    fn short_recovery_downgrades_page() {
        let ts = ring();
        // Errors stop SHORT_WINDOWS before now: the short window goes
        // clean while the long window still remembers the incident.
        let clean_from = (LONG_WINDOWS - SHORT_WINDOWS) as u64;
        frames(&ts, 0..clean_from, 5, 5);
        frames(&ts, clean_from..LONG_WINDOWS as u64, 10, 0);
        let r = report(&ts, (LONG_WINDOWS as u64 - 1) * W, "frame-availability");
        assert_eq!(r.error_short, 0.0, "short window is clean");
        assert!(r.error_long > 0.0, "long window remembers");
        assert_eq!(r.state, SloState::Healthy, "paging requires both windows hot");
    }

    #[test]
    fn warn_band_sits_between_healthy_and_page() {
        let ts = ring();
        // 5% errors: burn 5 — above warn (1), below page (10).
        frames(&ts, 0..LONG_WINDOWS as u64, 95, 5);
        let r = report(&ts, (LONG_WINDOWS as u64 - 1) * W, "frame-availability");
        assert_eq!(r.state, SloState::Warn);
    }

    #[test]
    fn latency_objective_uses_span_sketch() {
        let ts = ring();
        // All frames answer at 100 ms, twice the 50 ms bound: error
        // ratio 1.0, budget 0.01, burn 100 ≥ page.
        for _ in 0..10 {
            ts.span_at(100, Span::ServiceFrame, 100_000_000);
        }
        let r = report(&ts, 100, "frame-latency");
        assert_eq!(r.state, SloState::Page);
        assert!((r.error_long - 1.0).abs() < 1e-12);
    }

    #[test]
    fn admission_pages_at_its_own_burn() {
        let ts = ring();
        // 40% shed: burn 8 — past admission's page burn of 6, short of
        // the frame objectives' 10.
        for w in 0..LONG_WINDOWS as u64 {
            ts.incr_at(w * W, Counter::ServiceFramesOk, 6);
            ts.incr_at(w * W, Counter::ServiceBusyRejects, 4);
        }
        let r = report(&ts, (LONG_WINDOWS as u64 - 1) * W, "admission");
        assert!((r.burn_long - 8.0).abs() < 1e-9);
        assert_eq!(r.state, SloState::Page);
    }

    #[test]
    fn states_order_by_severity() {
        assert!(SloState::Healthy < SloState::Warn && SloState::Warn < SloState::Page);
    }
}
