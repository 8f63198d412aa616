//! The [`Recorder`] trait — the seam between instrumented code and
//! metric sinks — plus the statically zero-cost [`NoopRecorder`].
//!
//! Instrumented functions are generic over `R: Recorder` and call the
//! sink through monomorphized methods. [`NoopRecorder`] reports
//! `enabled() == false` from a body the optimizer sees as the constant
//! `false`, so every `if rec.enabled() { … }` block — including the
//! `Instant::now()` reads inside [`SpanTimer`] — compiles out of the
//! no-op instantiation. That is the overhead contract the warm-path
//! 0-alloc invariant relies on (DESIGN.md §9).

use crate::metrics::{Counter, Histogram, Span};
use crate::trace::TraceEvent;
use std::time::Instant;

/// A sink for spans, counters, and histogram observations.
///
/// All methods default to no-ops so recorders can implement only the
/// subsets they aggregate. Implementations must be `Sync`: the fleet
/// pool and parallel EKF tracks record from scoped worker threads
/// through a shared `&R`.
pub trait Recorder: Sync {
    /// Whether this recorder wants data at all. Call sites guard any
    /// work done *only* for observability (timestamps, derived
    /// statistics) behind this, so a no-op recorder costs nothing.
    fn enabled(&self) -> bool {
        true
    }

    /// Record one completed timed region of `ns` nanoseconds.
    fn record_span(&self, span: Span, ns: u64) {
        let _ = (span, ns);
    }

    /// Increase a counter by `by` events.
    fn incr(&self, counter: Counter, by: u64) {
        let _ = (counter, by);
    }

    /// Record one observation of a distribution.
    fn observe(&self, hist: Histogram, value: f64) {
        let _ = (hist, value);
    }

    /// Record a batch of observations of one distribution, in order.
    /// The default calls [`Recorder::observe`] once per value; a sink
    /// that pays per call (a lock, a clock read) overrides it to pay
    /// once per batch.
    fn observe_many(&self, hist: Histogram, values: &[f64]) {
        for &value in values {
            self.observe(hist, value);
        }
    }

    /// Record one typed flight-recorder event (`obs::trace`). Metric
    /// sinks ignore events by default; the `TraceRing` stores them.
    /// Events are `Copy` and heap-free, so emitting one through an
    /// enabled recorder never allocates.
    fn event(&self, ev: TraceEvent) {
        let _ = ev;
    }

    /// How many records this sink has silently discarded (ring
    /// overflow, late time-series windows). Lossless sinks report 0;
    /// `Tee` sums its halves. Exposed so exporters (the service's
    /// Prometheus frame) can surface telemetry loss without knowing
    /// the concrete recorder type.
    fn dropped_events(&self) -> u64 {
        0
    }
}

// sync: forwarding impl — `&R` shares the underlying sink, which is
// already Sync by the trait bound; no state lives in the reference.
impl<R: Recorder + ?Sized> Recorder for &R {
    fn enabled(&self) -> bool {
        (**self).enabled()
    }

    fn record_span(&self, span: Span, ns: u64) {
        (**self).record_span(span, ns);
    }

    fn incr(&self, counter: Counter, by: u64) {
        (**self).incr(counter, by);
    }

    fn observe(&self, hist: Histogram, value: f64) {
        (**self).observe(hist, value);
    }

    fn observe_many(&self, hist: Histogram, values: &[f64]) {
        (**self).observe_many(hist, values);
    }

    fn event(&self, ev: TraceEvent) {
        (**self).event(ev);
    }

    fn dropped_events(&self) -> u64 {
        (**self).dropped_events()
    }
}

/// The do-nothing recorder. `enabled()` is the constant `false`, so
/// monomorphized call sites drop their instrumentation entirely — the
/// un-instrumented entry points (`estimate_into`, `process_batch`, …)
/// are thin wrappers instantiated with this type.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NoopRecorder;

impl Recorder for NoopRecorder {
    fn enabled(&self) -> bool {
        false
    }
}

/// A started span: captures `Instant::now()` only when the recorder is
/// enabled, and reports the elapsed nanoseconds on [`SpanTimer::finish`].
///
/// Dropping a timer without finishing it records nothing — spans are
/// reported explicitly so error paths stay silent by construction.
#[derive(Debug)]
#[must_use = "a SpanTimer records nothing unless finished"]
pub struct SpanTimer {
    start: Option<Instant>,
}

impl SpanTimer {
    /// Start timing. Reads the monotonic clock only if `rec.enabled()`.
    pub fn start<R: Recorder + ?Sized>(rec: &R) -> Self {
        SpanTimer { start: if rec.enabled() { Some(Instant::now()) } else { None } }
    }

    /// Stop timing and record the elapsed nanoseconds under `span`.
    pub fn finish<R: Recorder + ?Sized>(self, rec: &R, span: Span) {
        if let Some(t0) = self.start {
            rec.record_span(span, saturating_ns(t0));
        }
    }
}

/// Nanoseconds since `t0`, saturating at `u64::MAX` (584 years).
pub fn saturating_ns(t0: Instant) -> u64 {
    u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    #[test]
    fn noop_is_disabled_and_silent() {
        let rec = NoopRecorder;
        assert!(!rec.enabled());
        // All sink methods accept data without effect.
        rec.record_span(Span::Trip, 1);
        rec.incr(Counter::TripsProcessed, 1);
        rec.observe(Histogram::EkfInnovation, 0.5);
        let timer = SpanTimer::start(&rec);
        assert!(timer.start.is_none(), "noop timer must not read the clock");
        timer.finish(&rec, Span::Trip);
    }

    struct CountingSink {
        // sync: test-only tally of sink calls; Relaxed is enough, the
        // test reads it after all recording on the same thread.
        calls: AtomicU64,
    }

    impl Recorder for CountingSink {
        fn record_span(&self, _span: Span, _ns: u64) {
            // sync: single-threaded test tally, no ordering needed.
            self.calls.fetch_add(1, Ordering::Relaxed);
        }
    }

    #[test]
    fn enabled_timer_reports_through_references() {
        // sync: see field comment — test-only tally.
        let sink = CountingSink { calls: AtomicU64::new(0) };
        let by_ref: &dyn Recorder = &sink;
        assert!(by_ref.enabled(), "default enabled() must be true");
        let timer = SpanTimer::start(&by_ref);
        assert!(timer.start.is_some());
        timer.finish(&by_ref, Span::Steering);
        // sync: single-threaded test tally, no ordering needed.
        assert_eq!(sink.calls.load(Ordering::Relaxed), 1);
    }
}
