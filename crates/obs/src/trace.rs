//! `obs::trace` — the flight recorder: a bounded, allocation-free ring
//! of typed events answering the *when/where* questions aggregate
//! metrics cannot (which trip diverged, where rejection fired, how the
//! Eq-6 weights shifted through a GPS dropout).
//!
//! The design mirrors an aircraft flight recorder: a fixed-capacity
//! buffer filled by the instrumented hot path through the same
//! [`Recorder`] seam the metric sinks use. Recording one event is a
//! clock read, a mutex lock, and a slot write — never an allocation.
//! When the buffer is full, *new* events are dropped and counted
//! ([`TraceRing::dropped`]); the recorded prefix of the run survives
//! intact and the warm-path zero-allocation invariant holds whether
//! the ring has room or not (`pipeline_hotpath_smoke` gates both).
//!
//! Reading happens after the fact: [`TraceRing::snapshot`] clones the
//! events out (report-side allocation, like `RunRecorder::report`),
//! and [`TraceSnapshot`] renders a timeline table, a deterministic
//! golden-test sequence, and feeds the Perfetto export
//! (`obs::export::chrome_trace_json`).

use crate::metrics::{Counter, FilterHealth, Histogram, Span, VelocitySource};
use crate::quality::QualitySignal;
use crate::recorder::{saturating_ns, Recorder};
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::thread::ThreadId;
use std::time::Instant;

/// One typed flight-recorder event. Every variant is `Copy` and
/// heap-free by construction — recording an event never allocates.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TraceEvent {
    /// A per-trip estimation began.
    TripStart,
    /// A per-trip estimation finished.
    TripEnd {
        /// Lane changes accepted during the trip.
        detections: u32,
    },
    /// Algorithm 1 accepted a bump pair as a lane change.
    LaneChangeAccepted {
        /// Midpoint of the maneuver window, trip seconds.
        t_mid_s: f64,
        /// Signed Eq-1 horizontal displacement, metres.
        displacement_m: f64,
    },
    /// Algorithm 1 rejected a bump pair as an S-curve (Eq-1 width over
    /// `3·W_lane`).
    LaneChangeRejected {
        /// Midpoint of the candidate window, trip seconds.
        t_mid_s: f64,
        /// Signed Eq-1 horizontal displacement, metres.
        displacement_m: f64,
    },
    /// An EKF track's `InnovationMonitor` verdict changed.
    EkfHealth {
        /// The track whose monitor transitioned.
        source: VelocitySource,
        /// Verdict before the update.
        from: FilterHealth,
        /// Verdict after the update.
        to: FilterHealth,
    },
    /// A track finished its trip with divergence latched.
    TrackDiverged {
        /// The diverged track.
        source: VelocitySource,
    },
    /// Per-trip mean Eq-6 fusion weights: slot `i` is
    /// [`VelocitySource::ALL`]`[i]` (0 when that source produced no
    /// track).
    FusionWeights {
        /// Mean convex-combination weight per source.
        weights: [f64; 4],
    },
    /// A gap in valid GPS fixes longer than the detection threshold.
    GpsGap {
        /// Last valid fix before the gap, trip seconds.
        t_start_s: f64,
        /// Gap length, seconds.
        duration_s: f64,
    },
    /// A fleet worker picked up a job.
    FleetJobStart {
        /// Submission index of the job.
        job: u32,
    },
    /// A fleet worker finished a job.
    FleetJobEnd {
        /// Submission index of the job.
        job: u32,
    },
    /// The cloud aggregator merged one uploaded track.
    CloudUpload {
        /// Road the track was filed under.
        road_id: u64,
        /// Arc cells the merge touched.
        cells: u32,
    },
    /// A timed region completed (mirrors `Recorder::record_span`, so
    /// the trace carries the span tree the Perfetto export renders).
    SpanEnd {
        /// The completed span.
        span: Span,
        /// Its duration, nanoseconds.
        dur_ns: u64,
    },
    /// `gradest-serve` accepted a client connection.
    ServiceConnOpened {
        /// Accept-order connection index.
        conn: u32,
    },
    /// A `gradest-serve` connection closed (client EOF, error, or drain).
    ServiceConnClosed {
        /// Accept-order connection index.
        conn: u32,
        /// Request frames handled on the connection.
        frames: u32,
    },
    /// `gradest-serve` refused work with a BUSY frame.
    ServiceBusy {
        /// Accept-order connection index (the accept counter when the
        /// refusal happened at accept time).
        conn: u32,
        /// Typed busy reason code (`protocol::BUSY_QUEUE_FULL` /
        /// `protocol::BUSY_DRAINING` in `gradest-serve`).
        reason: u8,
    },
    /// `gradest-serve` rejected a malformed frame with a typed ERR frame.
    ServiceFrameRejected {
        /// Accept-order connection index.
        conn: u32,
        /// Typed decode-error code (`protocol::DecodeError::code`).
        code: u8,
    },
    /// `gradest-serve` began its shutdown drain.
    ServiceDrain {
        /// Uploads still in flight when the drain gate closed.
        in_flight: u32,
    },
    /// A quality drift monitor crossed its Page–Hinkley threshold
    /// (`raised`) or returned below it (`!raised`).
    QualityAlert {
        /// The monitored signal that transitioned.
        signal: QualitySignal,
        /// `true` when the alert raised, `false` when it cleared.
        raised: bool,
    },
}

impl TraceEvent {
    /// Stable kind label (the Perfetto event name and the first token
    /// of the golden sequence line).
    pub fn kind(self) -> &'static str {
        match self {
            TraceEvent::TripStart => "trip-start",
            TraceEvent::TripEnd { .. } => "trip-end",
            TraceEvent::LaneChangeAccepted { .. } => "lane-change-accepted",
            TraceEvent::LaneChangeRejected { .. } => "lane-change-rejected",
            TraceEvent::EkfHealth { .. } => "ekf-health",
            TraceEvent::TrackDiverged { .. } => "track-diverged",
            TraceEvent::FusionWeights { .. } => "fusion-weights",
            TraceEvent::GpsGap { .. } => "gps-gap",
            TraceEvent::FleetJobStart { .. } => "fleet-job-start",
            TraceEvent::FleetJobEnd { .. } => "fleet-job-end",
            TraceEvent::CloudUpload { .. } => "cloud-upload",
            TraceEvent::SpanEnd { .. } => "span-end",
            TraceEvent::ServiceConnOpened { .. } => "service-conn-opened",
            TraceEvent::ServiceConnClosed { .. } => "service-conn-closed",
            TraceEvent::ServiceBusy { .. } => "service-busy",
            TraceEvent::ServiceFrameRejected { .. } => "service-frame-rejected",
            TraceEvent::ServiceDrain { .. } => "service-drain",
            TraceEvent::QualityAlert { .. } => "quality-alert",
        }
    }

    /// Deterministic payload rendering: everything except wall-clock
    /// quantities (span durations are elided; simulated trip times and
    /// Eq-1/Eq-6 values are seed-deterministic and included). This is
    /// the golden-test surface of one event.
    fn sequence_line(self) -> String {
        match self {
            TraceEvent::TripStart => "trip-start".to_string(),
            TraceEvent::TripEnd { detections } => format!("trip-end detections={detections}"),
            TraceEvent::LaneChangeAccepted { t_mid_s, displacement_m } => {
                format!("lane-change-accepted t={t_mid_s:.2}s w={displacement_m:.3}m")
            }
            TraceEvent::LaneChangeRejected { t_mid_s, displacement_m } => {
                format!("lane-change-rejected t={t_mid_s:.2}s w={displacement_m:.3}m")
            }
            TraceEvent::EkfHealth { source, from, to } => {
                format!("ekf-health {} {}->{}", source.label(), from.name(), to.name())
            }
            TraceEvent::TrackDiverged { source } => {
                format!("track-diverged {}", source.label())
            }
            TraceEvent::FusionWeights { weights } => {
                let mut line = String::from("fusion-weights");
                for (src, w) in VelocitySource::ALL.iter().zip(weights.iter()) {
                    let _ = write!(line, " {}={:.3}", src.label(), w);
                }
                line
            }
            TraceEvent::GpsGap { t_start_s, duration_s } => {
                format!("gps-gap t={t_start_s:.2}s dur={duration_s:.2}s")
            }
            TraceEvent::FleetJobStart { job } => format!("fleet-job-start job={job}"),
            TraceEvent::FleetJobEnd { job } => format!("fleet-job-end job={job}"),
            TraceEvent::CloudUpload { road_id, cells } => {
                format!("cloud-upload road={road_id} cells={cells}")
            }
            TraceEvent::SpanEnd { span, .. } => format!("span-end {}", span.name()),
            TraceEvent::ServiceConnOpened { conn } => {
                format!("service-conn-opened conn={conn}")
            }
            TraceEvent::ServiceConnClosed { conn, frames } => {
                format!("service-conn-closed conn={conn} frames={frames}")
            }
            TraceEvent::ServiceBusy { conn, reason } => {
                format!("service-busy conn={conn} reason={reason}")
            }
            TraceEvent::ServiceFrameRejected { conn, code } => {
                format!("service-frame-rejected conn={conn} code={code}")
            }
            TraceEvent::ServiceDrain { in_flight } => {
                format!("service-drain in-flight={in_flight}")
            }
            TraceEvent::QualityAlert { signal, raised } => {
                let edge = if raised { "raised" } else { "cleared" };
                format!("quality-alert {} {edge}", signal.name())
            }
        }
    }
}

/// One recorded event with its capture context: nanoseconds since the
/// ring's construction and the recording thread's lane.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TraceRecord {
    /// Nanoseconds since [`TraceRing`] construction.
    pub ts_ns: u64,
    /// Recording thread's lane (stable small integer per thread; the
    /// last lane collects threads beyond the fixed lane table).
    pub lane: u8,
    /// The event itself.
    pub event: TraceEvent,
}

/// Threads the lane table distinguishes; later threads share the
/// overflow lane.
const MAX_LANES: usize = 32;

/// Interior state of the ring: the bounded event buffer plus the
/// thread-to-lane table (kept under the same lock so lane assignment
/// is race-free without a second synchronization point).
#[derive(Debug)]
struct RingState {
    buf: Vec<TraceRecord>,
    lanes: [Option<ThreadId>; MAX_LANES],
}

/// The bounded flight recorder. Implements [`Recorder`], so any
/// instrumented entry point (`estimate_into_recorded`,
/// `process_batch_network_recorded`, …) can write into it — alone or fanned
/// out together with a `RunRecorder` through [`Tee`].
///
/// Capacity is fixed at construction; recording into a full ring drops
/// the new event and bumps [`TraceRing::dropped`]. Dropping is *silent
/// and allocation-free* on the record side by design — a flight
/// recorder must never slow the flight.
#[derive(Debug)]
pub struct TraceRing {
    epoch: Instant,
    capacity: usize,
    // sync: one mutex guards the event buffer and the lane table
    // together (an event write needs its lane in the same critical
    // section). Recording threads contend only on this lock; a
    // poisoned ring is skipped, never unwrapped.
    state: Mutex<RingState>,
    // sync: overflow tally incremented outside the buffer lock;
    // Relaxed — standalone statistic read after the recorded work
    // completes, exactness from fetch_add atomicity alone.
    dropped: AtomicU64,
}

impl TraceRing {
    /// The shared lane index for threads beyond the fixed lane table.
    const LANE_OVERFLOW: u8 = (MAX_LANES - 1) as u8;

    /// Creates a ring holding at most `capacity` events (at least one).
    /// The buffer is allocated here, once — recording never grows it.
    pub fn with_capacity(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        TraceRing {
            epoch: Instant::now(),
            capacity,
            // sync: see field comment — buffer + lane table under one lock.
            state: Mutex::new(RingState {
                buf: Vec::with_capacity(capacity),
                lanes: [None; MAX_LANES],
            }),
            // sync: see field comment — Relaxed statistic.
            dropped: AtomicU64::new(0),
        }
    }

    /// Maximum number of events the ring retains.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Events dropped because the ring was full.
    pub fn dropped(&self) -> u64 {
        // sync: Relaxed — standalone statistic (see field comment).
        self.dropped.load(Ordering::Relaxed)
    }

    /// Events currently held.
    pub fn len(&self) -> usize {
        // sync: buffer length read under the state lock.
        self.state.lock().map(|st| st.buf.len()).unwrap_or(0)
    }

    /// Whether no events have been recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Records one event: timestamp, lane lookup, bounded push. Drops
    /// and counts when full. Never allocates.
    fn push(&self, event: TraceEvent) {
        let ts_ns = saturating_ns(self.epoch);
        let id = std::thread::current().id();
        if let Ok(mut st) = self.state.lock() {
            if st.buf.len() >= self.capacity {
                drop(st);
                // sync: Relaxed statistic bump (see field comment).
                self.dropped.fetch_add(1, Ordering::Relaxed);
                return;
            }
            let mut lane = Self::LANE_OVERFLOW;
            for (i, slot) in st.lanes.iter_mut().enumerate() {
                match slot {
                    Some(existing) if *existing == id => {
                        lane = i as u8;
                        break;
                    }
                    None => {
                        *slot = Some(id);
                        lane = i as u8;
                        break;
                    }
                    Some(_) => {}
                }
            }
            st.buf.push(TraceRecord { ts_ns, lane, event });
        }
    }

    /// Clones the recorded events out for reading (report-side
    /// allocation, after the measured work — like
    /// `RunRecorder::report`).
    pub fn snapshot(&self) -> TraceSnapshot {
        let events = match self.state.lock() {
            Ok(st) => st.buf.clone(),
            Err(_) => Vec::new(),
        };
        TraceSnapshot { events, dropped: self.dropped(), capacity: self.capacity }
    }
}

impl Recorder for TraceRing {
    fn record_span(&self, span: Span, ns: u64) {
        self.push(TraceEvent::SpanEnd { span, dur_ns: ns });
    }

    fn event(&self, ev: TraceEvent) {
        self.push(ev);
    }

    fn dropped_events(&self) -> u64 {
        self.dropped()
    }
}

/// A point-in-time copy of a [`TraceRing`]'s contents, ready for
/// rendering and export.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceSnapshot {
    /// Recorded events, in capture order.
    pub events: Vec<TraceRecord>,
    /// Events lost to overflow while recording.
    pub dropped: u64,
    /// The ring's capacity (for overflow context in reports).
    pub capacity: usize,
}

impl TraceSnapshot {
    /// Deterministic golden-test surface: one line per event naming its
    /// kind and fields, no timestamps or lanes, plus a trailing drop
    /// count.
    /// Identical workloads (serial, fixed seeds) produce byte-identical
    /// strings.
    pub fn sequence_string(&self) -> String {
        let mut out = String::new();
        for rec in &self.events {
            out.push_str(&rec.event.sequence_line());
            out.push('\n');
        }
        let _ = writeln!(out, "dropped={}", self.dropped);
        out
    }

    /// Human-readable timeline table: capture time (milliseconds since
    /// ring construction), lane, and the event line.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "{:>12} {:>4}  event", "t_ms", "lane");
        for rec in &self.events {
            let _ = writeln!(
                out,
                "{:>12.3} {:>4}  {}",
                rec.ts_ns as f64 / 1.0e6,
                rec.lane,
                rec.event.sequence_line()
            );
        }
        let _ = writeln!(
            out,
            "{} event(s), {} dropped (capacity {})",
            self.events.len(),
            self.dropped,
            self.capacity
        );
        out
    }
}

/// Fans one recording out to two sinks — typically a `RunRecorder`
/// (aggregates) and a [`TraceRing`] (timeline) over the same run.
/// `enabled()` is the OR of the halves, and each sink still sees every
/// call, so either half may be a no-op without silencing the other.
#[derive(Debug, Clone, Copy)]
pub struct Tee<A, B> {
    /// First sink.
    pub a: A,
    /// Second sink.
    pub b: B,
}

impl<A: Recorder, B: Recorder> Tee<A, B> {
    /// Pairs two sinks (pass references: `Tee::new(&run, &ring)`).
    pub fn new(a: A, b: B) -> Self {
        Tee { a, b }
    }
}

impl<A: Recorder, B: Recorder> Recorder for Tee<A, B> {
    fn enabled(&self) -> bool {
        self.a.enabled() || self.b.enabled()
    }

    fn record_span(&self, span: Span, ns: u64) {
        self.a.record_span(span, ns);
        self.b.record_span(span, ns);
    }

    fn incr(&self, counter: Counter, by: u64) {
        self.a.incr(counter, by);
        self.b.incr(counter, by);
    }

    fn observe(&self, hist: Histogram, value: f64) {
        self.a.observe(hist, value);
        self.b.observe(hist, value);
    }

    fn observe_many(&self, hist: Histogram, values: &[f64]) {
        self.a.observe_many(hist, values);
        self.b.observe_many(hist, values);
    }

    fn event(&self, ev: TraceEvent) {
        self.a.event(ev);
        self.b.event(ev);
    }

    fn dropped_events(&self) -> u64 {
        self.a.dropped_events() + self.b.dropped_events()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recorder::NoopRecorder;
    use crate::run::RunRecorder;

    #[test]
    fn records_events_in_order() {
        let ring = TraceRing::with_capacity(16);
        ring.event(TraceEvent::TripStart);
        ring.event(TraceEvent::GpsGap { t_start_s: 10.0, duration_s: 4.0 });
        ring.event(TraceEvent::TripEnd { detections: 2 });
        let snap = ring.snapshot();
        assert_eq!(snap.events.len(), 3);
        assert_eq!(snap.dropped, 0);
        assert_eq!(
            snap.sequence_string(),
            "trip-start\ngps-gap t=10.00s dur=4.00s\ntrip-end detections=2\ndropped=0\n"
        );
        // Timestamps are monotone non-decreasing in capture order.
        for w in snap.events.windows(2) {
            assert!(w[0].ts_ns <= w[1].ts_ns);
        }
        // Single-threaded capture lands on lane 0.
        assert!(snap.events.iter().all(|r| r.lane == 0));
    }

    #[test]
    fn overflow_drops_and_counts() {
        let ring = TraceRing::with_capacity(2);
        for i in 0..5 {
            ring.event(TraceEvent::FleetJobStart { job: i });
        }
        assert_eq!(ring.len(), 2);
        assert_eq!(ring.dropped(), 3);
        let snap = ring.snapshot();
        // The *first* events survive; overflow drops the new ones.
        assert_eq!(snap.events[0].event, TraceEvent::FleetJobStart { job: 0 });
        assert_eq!(snap.events[1].event, TraceEvent::FleetJobStart { job: 1 });
        assert!(snap.sequence_string().ends_with("dropped=3\n"));
    }

    #[test]
    fn capacity_is_clamped_to_one() {
        let ring = TraceRing::with_capacity(0);
        assert_eq!(ring.capacity(), 1);
        ring.event(TraceEvent::TripStart);
        ring.event(TraceEvent::TripStart);
        assert_eq!(ring.len(), 1);
        assert_eq!(ring.dropped(), 1);
    }

    #[test]
    fn span_recording_becomes_span_end_events() {
        let ring = TraceRing::with_capacity(4);
        ring.record_span(Span::Trip, 1234);
        let snap = ring.snapshot();
        assert_eq!(snap.events.len(), 1);
        assert_eq!(snap.events[0].event, TraceEvent::SpanEnd { span: Span::Trip, dur_ns: 1234 });
        // Durations are elided from the golden surface.
        assert_eq!(snap.events[0].event.sequence_line(), "span-end trip");
    }

    #[test]
    fn lanes_distinguish_threads() {
        let ring = TraceRing::with_capacity(64);
        std::thread::scope(|scope| {
            for _ in 0..3 {
                scope.spawn(|| {
                    for _ in 0..4 {
                        ring.event(TraceEvent::TripStart);
                    }
                });
            }
        });
        let snap = ring.snapshot();
        assert_eq!(snap.events.len(), 12);
        let mut lanes: Vec<u8> = snap.events.iter().map(|r| r.lane).collect();
        lanes.sort_unstable();
        lanes.dedup();
        assert_eq!(lanes.len(), 3, "three threads must land on three lanes");
    }

    #[test]
    fn tee_fans_out_to_both_sinks() {
        let run = RunRecorder::new();
        let ring = TraceRing::with_capacity(8);
        let tee = Tee::new(&run, &ring);
        assert!(tee.enabled());
        tee.incr(Counter::TripsProcessed, 1);
        tee.observe(Histogram::EkfInnovation, 0.5);
        tee.record_span(Span::Trip, 100);
        tee.event(TraceEvent::TripEnd { detections: 0 });
        let report = run.report();
        assert_eq!(report.counter("trips-processed"), Some(1));
        assert_eq!(report.span("trip").map(|s| s.count), Some(1));
        let snap = ring.snapshot();
        // The ring keeps the span end and the event; counters and
        // histograms are the RunRecorder's job.
        assert_eq!(snap.events.len(), 2);
    }

    /// Tallies which observation entry point reached the sink.
    #[derive(Default)]
    struct BatchProbe {
        // sync: test-only tallies; Relaxed is enough, the test reads
        // them on the recording thread.
        single: AtomicU64,
        // sync: as `single`.
        batches: AtomicU64,
    }

    impl BatchProbe {
        fn counts(&self) -> (u64, u64) {
            // sync: single-threaded test tallies, no ordering needed.
            (self.single.load(Ordering::Relaxed), self.batches.load(Ordering::Relaxed))
        }
    }

    impl Recorder for BatchProbe {
        fn observe(&self, _hist: Histogram, _value: f64) {
            // sync: single-threaded test tally, no ordering needed.
            self.single.fetch_add(1, Ordering::Relaxed);
        }

        fn observe_many(&self, _hist: Histogram, _values: &[f64]) {
            // sync: single-threaded test tally, no ordering needed.
            self.batches.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Records a batch through `R`'s own `Recorder` impl, as
    /// instrumented code generic over `R` does.
    fn observe_batch<R: Recorder>(rec: R, values: &[f64]) {
        rec.observe_many(Histogram::EkfInnovation, values);
    }

    #[test]
    fn tee_hands_each_half_the_whole_batch() {
        let (a, b) = (BatchProbe::default(), BatchProbe::default());
        let tee = Tee::new(&a, &b);
        observe_batch(tee, &[0.5, -1.0, 2.0]);
        assert_eq!((a.counts(), b.counts()), ((0, 1), (0, 1)));
        // The server records through `&Tee<&R, &TimeSeriesRecorder>`.
        observe_batch::<&Tee<_, _>>(&tee, &[0.25, 4.0]);
        assert_eq!((a.counts(), b.counts()), ((0, 2), (0, 2)));
    }

    #[test]
    fn tee_with_noop_half_stays_enabled() {
        let ring = TraceRing::with_capacity(8);
        let tee = Tee::new(NoopRecorder, &ring);
        assert!(tee.enabled(), "live ring must keep the tee enabled");
        tee.event(TraceEvent::TripStart);
        assert_eq!(ring.len(), 1);
        let both_off = Tee::new(NoopRecorder, NoopRecorder);
        assert!(!both_off.enabled());
    }

    #[test]
    fn event_kinds_are_unique_and_stable() {
        let samples = [
            TraceEvent::TripStart,
            TraceEvent::TripEnd { detections: 0 },
            TraceEvent::LaneChangeAccepted { t_mid_s: 0.0, displacement_m: 0.0 },
            TraceEvent::LaneChangeRejected { t_mid_s: 0.0, displacement_m: 0.0 },
            TraceEvent::EkfHealth {
                source: VelocitySource::Gps,
                from: FilterHealth::Healthy,
                to: FilterHealth::Inconsistent,
            },
            TraceEvent::TrackDiverged { source: VelocitySource::Gps },
            TraceEvent::FusionWeights { weights: [0.25; 4] },
            TraceEvent::GpsGap { t_start_s: 0.0, duration_s: 0.0 },
            TraceEvent::FleetJobStart { job: 0 },
            TraceEvent::FleetJobEnd { job: 0 },
            TraceEvent::CloudUpload { road_id: 0, cells: 0 },
            TraceEvent::SpanEnd { span: Span::Trip, dur_ns: 0 },
            TraceEvent::ServiceConnOpened { conn: 0 },
            TraceEvent::ServiceConnClosed { conn: 0, frames: 0 },
            TraceEvent::ServiceBusy { conn: 0, reason: 0 },
            TraceEvent::ServiceFrameRejected { conn: 0, code: 0 },
            TraceEvent::ServiceDrain { in_flight: 0 },
            TraceEvent::QualityAlert { signal: QualitySignal::MeanFusionWeight, raised: true },
        ];
        let mut kinds: Vec<&str> = samples.iter().map(|e| e.kind()).collect();
        let total = kinds.len();
        kinds.sort_unstable();
        kinds.dedup();
        assert_eq!(kinds.len(), total, "duplicate event kind");
        // Every sequence line leads with its kind.
        for e in samples {
            assert!(e.sequence_line().starts_with(e.kind()), "{:?}", e);
        }
    }
}
