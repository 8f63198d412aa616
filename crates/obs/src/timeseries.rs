//! The one telemetry aggregator: a fixed-interval ring of windows
//! holding counters and log-linear distribution sketches.
//!
//! A [`TimeSeries`] keeps the last `windows` intervals of `window_ns`
//! each (default 1 s × 120) and answers [`TimeSeries::rate`],
//! [`TimeSeries::delta`], [`TimeSeries::span_quantile`]/
//! [`TimeSeries::hist_quantile`] and the exact [`Summary`] reads over
//! any suffix of that ring — the queries behind the `STATUS` frame, the
//! quality drift monitors (`obs::quality`), SLO burn rates
//! (`obs::slo`), and the whole-run views `RunReport` and `FleetHealth`.
//! Two front ends record into it: [`TimeSeriesRecorder`] stamps records
//! from a wall clock, and `RunRecorder` records at one fixed timestamp
//! into a window that never rotates.
//!
//! Every span duration and histogram value lands in one `SketchCell`:
//! exact summary statistics (count, sum, sum of squares, min, max) next
//! to a DDSketch-style log-linear layout with fixed buckets at geometric
//! boundaries `2^(k/4)`, so a quantile estimate is within
//! [`SKETCH_RELATIVE_ERROR`] of the true value for magnitudes inside
//! [`SKETCH_MIN_MAGNITUDE`]`..`[`SKETCH_MAX_MAGNITUDE`] (values outside
//! clamp into the edge buckets). Negative values mirror into a second
//! store, so signed histograms (EKF innovations) keep a total order.
//! Merging windows is exact: counts, sums, and bucket counts add.
//!
//! Non-finite observations have one policy: they count, NaN lands in
//! the zero bucket, `±∞` clamps into the top bucket of its sign, and
//! the sums, extremes, and mean/stddev denominators cover finite values
//! only.
//!
//! All window memory is allocated once at construction, recording
//! mutates fixed slots under one mutex, and rotation resets slots in
//! place — zero allocations after warm-up, which the hot-path smoke and
//! the service soak's alloc probe assert. Core methods are keyed by
//! explicit nanosecond timestamps (`*_at`), so rotation and boundary
//! behaviour are deterministic under test.

use crate::metrics::{Counter, Histogram, Span};
use crate::recorder::{saturating_ns, Recorder};
use std::sync::Mutex;
use std::time::Instant;

/// Log-linear subdivisions per power of two. Four sub-buckets per
/// octave bound the relative quantile error below ten percent while a
/// whole sketch stays two pages of `u32` counts.
const SUB_PER_OCTAVE: i64 = 4;

/// Buckets per signed store. With [`SUB_PER_OCTAVE`] = 4 this covers 64
/// octaves of magnitude.
pub const SKETCH_BUCKETS: usize = 256;

/// Lowest covered octave: magnitudes below `2^-20` (≈ 9.5e-7) fall
/// into the zero bucket together with exact zeros.
const MIN_OCTAVE: i64 = -20;

/// Smallest magnitude the sketch resolves; below this, observations
/// count as zero.
pub const SKETCH_MIN_MAGNITUDE: f64 = 9.5367431640625e-7; // 2^-20

/// Largest magnitude before saturation into the top bucket: `2^44`
/// (≈ 1.76e13 — more than 4 hours in nanoseconds).
pub const SKETCH_MAX_MAGNITUDE: f64 = 1.7592186044416e13; // 2^44

/// Worst-case relative error of a quantile estimate for in-range
/// magnitudes: bucket bounds are a factor `2^(1/4)` apart and estimates
/// sit at the geometric midpoint, so the error never exceeds
/// `2^(1/8) − 1 ≈ 9.06%`. The proptest suite pins estimates against an
/// exact oracle at this bound. The constant carries a few ulps of
/// upward slack so values landing exactly on a bucket boundary (where
/// the midpoint error is maximal) still compare inside the bound.
pub const SKETCH_RELATIVE_ERROR: f64 = 0.090507732665258; // 2^(1/8) - 1, rounded up

/// Bucket index for a positive magnitude; anything past
/// [`SKETCH_MAX_MAGNITUDE`], `+∞` included, clamps into the top bucket.
/// The clamp happens in floating point, before the integer cast.
fn sketch_bucket(mag: f64) -> usize {
    let idx = (mag.log2() * SUB_PER_OCTAVE as f64).floor() - (MIN_OCTAVE * SUB_PER_OCTAVE) as f64;
    idx.clamp(0.0, (SKETCH_BUCKETS - 1) as f64) as usize
}

/// Representative magnitude of one bucket: the geometric midpoint of
/// its bounds `[2^(k/4), 2^((k+1)/4))`.
fn bucket_magnitude(idx: usize) -> f64 {
    let k = idx as i64 + MIN_OCTAVE * SUB_PER_OCTAVE;
    ((2.0 * k as f64 + 1.0) / (2.0 * SUB_PER_OCTAVE as f64)).exp2()
}

/// Exact summary statistics of one distribution over a window range.
/// Merging two is exact up to float summation order: counts and sums
/// add, extremes widen. Span durations are integers, so their `sum` is
/// exact while it stays below 2^53 ns (about 104 days of summed time).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Observations, non-finite ones included.
    pub count: u64,
    /// Finite observations: the denominator of the mean and stddev.
    pub finite: u64,
    /// Sum of the finite observations.
    pub sum: f64,
    /// Sum of the squared finite observations.
    pub sum_sq: f64,
    /// Smallest finite observation (`+∞` when there is none).
    pub min: f64,
    /// Largest finite observation (`−∞` when there is none).
    pub max: f64,
}

impl Summary {
    /// Nothing observed.
    const EMPTY: Summary = Summary {
        count: 0,
        finite: 0,
        sum: 0.0,
        sum_sq: 0.0,
        min: f64::INFINITY,
        max: f64::NEG_INFINITY,
    };

    fn observe(&mut self, value: f64) {
        self.count += 1;
        if value.is_finite() {
            self.finite += 1;
            self.sum += value;
            self.sum_sq += value * value;
            self.min = self.min.min(value);
            self.max = self.max.max(value);
        }
    }

    fn merge(&mut self, other: &Summary) {
        self.count += other.count;
        self.finite += other.finite;
        self.sum += other.sum;
        self.sum_sq += other.sum_sq;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Mean of the finite observations, `None` when there are none.
    pub fn mean(&self) -> Option<f64> {
        (self.finite > 0).then(|| self.sum / self.finite as f64)
    }

    /// Population standard deviation of the finite observations, from
    /// the summed moments (`E[x²] − E[x]²`, clamped at zero).
    pub fn stddev(&self) -> Option<f64> {
        let mean = self.mean()?;
        let var = self.sum_sq / self.finite as f64 - mean * mean;
        Some(var.max(0.0).sqrt())
    }
}

/// One distribution's state inside one window — the only aggregation
/// cell, for span durations and histogram values alike: exact
/// [`Summary`] statistics plus the signed log-linear stores.
#[derive(Debug)]
struct SketchCell {
    summary: Summary,
    /// Zeros, sub-resolution magnitudes, and NaNs.
    zero: u64,
    /// Counts of negative observations by `|value|` bucket.
    neg: [u32; SKETCH_BUCKETS],
    /// Counts of positive observations by value bucket.
    pos: [u32; SKETCH_BUCKETS],
}

impl SketchCell {
    fn new() -> Self {
        SketchCell {
            summary: Summary::EMPTY,
            zero: 0,
            neg: [0; SKETCH_BUCKETS],
            pos: [0; SKETCH_BUCKETS],
        }
    }

    fn reset(&mut self) {
        self.summary = Summary::EMPTY;
        self.zero = 0;
        self.neg = [0; SKETCH_BUCKETS];
        self.pos = [0; SKETCH_BUCKETS];
    }

    fn observe(&mut self, value: f64) {
        self.summary.observe(value);
        let mag = value.abs();
        if mag.is_nan() || mag < SKETCH_MIN_MAGNITUDE {
            // Zero, sub-resolution-tiny, or NaN: counts, but carries no
            // resolvable magnitude.
            self.zero += 1;
            return;
        }
        let b = sketch_bucket(mag);
        let store = if value < 0.0 { &mut self.neg } else { &mut self.pos };
        store[b] = store[b].saturating_add(1);
    }
}

/// One window's worth of telemetry: its absolute index plus fixed
/// slots for every counter, span-duration sketch, and histogram sketch.
#[derive(Debug)]
struct Window {
    /// Absolute window number (`t_ns / window_ns`); `u64::MAX` marks a
    /// slot that has never held data.
    index: u64,
    counters: [u64; Counter::COUNT],
    spans: [SketchCell; Span::COUNT],
    hists: [SketchCell; Histogram::COUNT],
}

impl Window {
    fn new() -> Self {
        Window {
            index: u64::MAX,
            counters: [0; Counter::COUNT],
            spans: std::array::from_fn(|_| SketchCell::new()),
            hists: std::array::from_fn(|_| SketchCell::new()),
        }
    }

    fn reset(&mut self, index: u64) {
        self.index = index;
        self.counters = [0; Counter::COUNT];
        for c in &mut self.spans {
            c.reset();
        }
        for c in &mut self.hists {
            c.reset();
        }
    }
}

/// Ring configuration: window width × window count.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TimeSeriesConfig {
    /// Width of one window, nanoseconds (clamped to ≥ 1).
    pub window_ns: u64,
    /// Number of live windows (clamped to ≥ 2).
    pub windows: usize,
}

impl Default for TimeSeriesConfig {
    fn default() -> Self {
        TimeSeriesConfig { window_ns: 1_000_000_000, windows: 120 }
    }
}

/// Everything behind the ring mutex: the slot array plus the rotation
/// cursor.
#[derive(Debug)]
struct RingState {
    /// Highest absolute window index any record has reached.
    cur: u64,
    /// Slot `i` holds absolute window `w` iff `w % slots.len() == i`
    /// and `w` is within the live suffix ending at `cur`.
    slots: Vec<Window>,
    /// Records that arrived too late for their window (older than the
    /// ring covers) and were discarded.
    late_drops: u64,
}

/// The windowed time-series ring. Keyed by explicit timestamps so
/// tests control rotation exactly; production code goes through
/// [`TimeSeriesRecorder`], which stamps records from a wall-clock
/// epoch.
#[derive(Debug)]
pub struct TimeSeries {
    cfg: TimeSeriesConfig,
    // sync: one mutex guards the whole ring — rotation must atomically
    // reset a slot and move the cursor. Contention is bounded by the
    // recording thread count (service or fleet workers, single digits);
    // a poisoned ring is skipped, never unwrapped.
    state: Mutex<RingState>,
}

impl TimeSeries {
    /// A ring with every window empty. All memory is allocated here;
    /// recording and rotation never allocate again.
    pub fn new(cfg: TimeSeriesConfig) -> Self {
        let cfg = TimeSeriesConfig { window_ns: cfg.window_ns.max(1), windows: cfg.windows.max(2) };
        let mut slots = Vec::with_capacity(cfg.windows);
        for _ in 0..cfg.windows {
            slots.push(Window::new());
        }
        TimeSeries { cfg, state: Mutex::new(RingState { cur: 0, slots, late_drops: 0 }) }
    }

    /// The configuration the ring was built with (after clamping).
    pub fn config(&self) -> TimeSeriesConfig {
        self.cfg
    }

    /// Width of one window, seconds.
    pub fn window_secs(&self) -> f64 {
        self.cfg.window_ns as f64 / 1.0e9
    }

    /// Absolute window index of a timestamp.
    pub fn window_index(&self, t_ns: u64) -> u64 {
        t_ns / self.cfg.window_ns
    }

    /// Records dropped because they arrived after their window left
    /// the ring.
    pub fn late_drops(&self) -> u64 {
        match self.state.lock() {
            Ok(st) => st.late_drops,
            Err(_) => 0,
        }
    }

    /// Rotates the ring forward so the window containing `t_ns` is
    /// live, resetting every window it skips. Recording does this
    /// implicitly; an explicit tick keeps rates decaying while idle.
    pub fn advance_to(&self, t_ns: u64) {
        let w = self.window_index(t_ns);
        if let Ok(mut st) = self.state.lock() {
            advance(&mut st, w);
        }
    }

    /// Adds `by` to `counter`'s bucket in the window containing `t_ns`.
    pub fn incr_at(&self, t_ns: u64, counter: Counter, by: u64) {
        let w = self.window_index(t_ns);
        if let Ok(mut st) = self.state.lock() {
            if let Some(slot) = live_slot(&mut st, w) {
                slot.counters[counter as usize] += by;
            }
        }
    }

    /// Records one span duration into the window containing `t_ns`.
    pub fn span_at(&self, t_ns: u64, span: Span, ns: u64) {
        let w = self.window_index(t_ns);
        if let Ok(mut st) = self.state.lock() {
            if let Some(slot) = live_slot(&mut st, w) {
                slot.spans[span as usize].observe(ns as f64);
            }
        }
    }

    /// Records one histogram observation into the window containing
    /// `t_ns`.
    pub fn observe_at(&self, t_ns: u64, hist: Histogram, value: f64) {
        let w = self.window_index(t_ns);
        if let Ok(mut st) = self.state.lock() {
            if let Some(slot) = live_slot(&mut st, w) {
                slot.hists[hist as usize].observe(value);
            }
        }
    }

    /// Sum of `counter` over the last `lookback` windows ending at the
    /// window containing `now_ns` (inclusive — the current, possibly
    /// partial, window counts).
    pub fn delta(&self, counter: Counter, lookback: usize, now_ns: u64) -> u64 {
        let mut total = 0u64;
        self.fold_windows(lookback, now_ns, |w| total += w.counters[counter as usize]);
        total
    }

    /// `counter` events per second over the last `lookback` windows
    /// (the current partial window counts as a full one, biasing fresh
    /// rates low rather than spiking them).
    pub fn rate(&self, counter: Counter, lookback: usize, now_ns: u64) -> f64 {
        let lookback = lookback.max(1);
        let span_secs = lookback as f64 * self.window_secs();
        self.delta(counter, lookback, now_ns) as f64 / span_secs
    }

    /// Quantile estimate of a span's durations (nanoseconds) over the
    /// last `lookback` windows, or `None` if nothing was recorded.
    pub fn span_quantile(&self, span: Span, q: f64, lookback: usize, now_ns: u64) -> Option<f64> {
        let mut merged = MergedSketch::new();
        self.fold_windows(lookback, now_ns, |w| merged.add(&w.spans[span as usize]));
        merged.quantile(q)
    }

    /// Quantile estimate of a histogram over the last `lookback`
    /// windows, or `None` if nothing was recorded.
    pub fn hist_quantile(
        &self,
        hist: Histogram,
        q: f64,
        lookback: usize,
        now_ns: u64,
    ) -> Option<f64> {
        let mut merged = MergedSketch::new();
        self.fold_windows(lookback, now_ns, |w| merged.add(&w.hists[hist as usize]));
        merged.quantile(q)
    }

    /// Exact summary of a histogram over the last `lookback` windows.
    pub fn hist_summary(&self, hist: Histogram, lookback: usize, now_ns: u64) -> Summary {
        let mut summary = Summary::EMPTY;
        self.fold_windows(lookback, now_ns, |w| summary.merge(&w.hists[hist as usize].summary));
        summary
    }

    /// Exact summary of a span's durations (nanoseconds) over the last
    /// `lookback` windows.
    pub fn span_summary(&self, span: Span, lookback: usize, now_ns: u64) -> Summary {
        let mut summary = Summary::EMPTY;
        self.fold_windows(lookback, now_ns, |w| summary.merge(&w.spans[span as usize].summary));
        summary
    }

    /// Mean of a histogram's finite observations over the last
    /// `lookback` windows (exact — from the summed moments, not the
    /// sketch).
    pub fn hist_mean(&self, hist: Histogram, lookback: usize, now_ns: u64) -> Option<f64> {
        self.hist_summary(hist, lookback, now_ns).mean()
    }

    /// Observation count of a histogram over the last `lookback`
    /// windows.
    pub fn hist_count(&self, hist: Histogram, lookback: usize, now_ns: u64) -> u64 {
        self.hist_summary(hist, lookback, now_ns).count
    }

    /// How many of a histogram's observations over the last `lookback`
    /// windows have a sketch estimate above `threshold`. Bucket
    /// resolution applies: observations within one bucket of the
    /// threshold may land on either side, except at powers of two,
    /// which are bucket edges.
    pub fn hist_count_above(
        &self,
        hist: Histogram,
        threshold: f64,
        lookback: usize,
        now_ns: u64,
    ) -> u64 {
        let mut merged = MergedSketch::new();
        self.fold_windows(lookback, now_ns, |w| merged.add(&w.hists[hist as usize]));
        merged.count_above(threshold)
    }

    /// Duration count of a span over the last `lookback` windows.
    pub fn span_count(&self, span: Span, lookback: usize, now_ns: u64) -> u64 {
        self.span_summary(span, lookback, now_ns).count
    }

    /// Fraction of a span's durations whose sketch estimate exceeds
    /// `threshold_ns`, over the last `lookback` windows — the
    /// latency-SLO error ratio (`obs::slo`). Bucket resolution applies
    /// as for [`TimeSeries::hist_count_above`].
    pub fn span_fraction_above(
        &self,
        span: Span,
        threshold_ns: f64,
        lookback: usize,
        now_ns: u64,
    ) -> Option<f64> {
        let mut merged = MergedSketch::new();
        self.fold_windows(lookback, now_ns, |w| merged.add(&w.spans[span as usize]));
        (merged.count > 0).then(|| merged.count_above(threshold_ns) as f64 / merged.count as f64)
    }

    /// Runs `f` over every live window in the `lookback`-window suffix
    /// ending at `now_ns`'s window.
    fn fold_windows<F: FnMut(&Window)>(&self, lookback: usize, now_ns: u64, mut f: F) {
        let end = self.window_index(now_ns);
        let lookback = lookback.max(1) as u64;
        let start = end.saturating_sub(lookback - 1);
        let Ok(st) = self.state.lock() else {
            return;
        };
        let len = st.slots.len() as u64;
        for w in start..=end {
            // Only slots still holding exactly window `w` contribute —
            // `cur` may trail `now_ns` (nothing recorded lately) or a
            // slot may have been recycled for a newer window.
            let slot = &st.slots[(w % len) as usize];
            if slot.index == w {
                f(slot);
            }
        }
    }
}

/// Rotate the ring forward to absolute window `w` (no-op if already
/// there or past it), resetting every slot the move recycles.
fn advance(st: &mut RingState, w: u64) {
    if w <= st.cur {
        return;
    }
    let len = st.slots.len() as u64;
    // Only the last `len` windows can be live; skipping further back
    // would reset the same slots twice.
    let first = (st.cur + 1).max(w.saturating_sub(len - 1));
    for idx in first..=w {
        st.slots[(idx % len) as usize].reset(idx);
    }
    st.cur = w;
}

/// The slot for absolute window `w`, rotating forward if `w` is new;
/// `None` when `w` already left the ring (the record is counted as a
/// late drop).
fn live_slot(st: &mut RingState, w: u64) -> Option<&mut Window> {
    advance(st, w);
    let len = st.slots.len() as u64;
    if st.cur.saturating_sub(w) >= len {
        st.late_drops += 1;
        return None;
    }
    let slot = &mut st.slots[(w % len) as usize];
    if slot.index != w {
        // First touch of this window: the slot still holds an expired
        // window (or has never been used) because rotation only resets
        // slots from `cur+1` forward.
        slot.reset(w);
    }
    Some(slot)
}

/// Accumulator merging several windows' sketch cells for one query.
/// Stack-allocated (4 KiB of counts), so queries stay allocation-free.
struct MergedSketch {
    count: u64,
    zero: u64,
    neg: [u64; SKETCH_BUCKETS],
    pos: [u64; SKETCH_BUCKETS],
}

impl MergedSketch {
    fn new() -> Self {
        MergedSketch { count: 0, zero: 0, neg: [0; SKETCH_BUCKETS], pos: [0; SKETCH_BUCKETS] }
    }

    fn add(&mut self, cell: &SketchCell) {
        self.count += cell.summary.count;
        self.zero += cell.zero;
        for (acc, n) in self.neg.iter_mut().zip(cell.neg.iter()) {
            *acc += *n as u64;
        }
        for (acc, n) in self.pos.iter_mut().zip(cell.pos.iter()) {
            *acc += *n as u64;
        }
    }

    /// Nearest-rank quantile: the `⌈q·n⌉`-th smallest estimate (so
    /// `q=0` is the minimum bucket, `q=1` the maximum). Walks the
    /// stores in value order: negatives from largest magnitude down,
    /// then zeros, then positives up.
    fn quantile(&self, q: f64) -> Option<f64> {
        if self.count == 0 {
            return None;
        }
        let q = q.clamp(0.0, 1.0);
        let rank = ((q * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for b in (0..SKETCH_BUCKETS).rev() {
            seen += self.neg[b];
            if seen >= rank {
                return Some(-bucket_magnitude(b));
            }
        }
        seen += self.zero;
        if seen >= rank {
            return Some(0.0);
        }
        for b in 0..SKETCH_BUCKETS {
            seen += self.pos[b];
            if seen >= rank {
                return Some(bucket_magnitude(b));
            }
        }
        // Unreachable when counts are consistent; saturated u32 cells
        // can leave `count` ahead of the stores, so fall back to the
        // top estimate instead of panicking.
        Some(bucket_magnitude(SKETCH_BUCKETS - 1))
    }

    /// Observations whose bucket estimate exceeds `threshold`.
    fn count_above(&self, threshold: f64) -> u64 {
        let mut above = 0u64;
        for b in 0..SKETCH_BUCKETS {
            if -bucket_magnitude(b) > threshold {
                above += self.neg[b];
            }
            if bucket_magnitude(b) > threshold {
                above += self.pos[b];
            }
        }
        if 0.0 > threshold {
            above += self.zero;
        }
        above
    }
}

/// Wall-clock front end: a [`TimeSeries`] stamped from a construction
/// epoch, usable anywhere a [`Recorder`] is (typically the `b` side of
/// an `obs::Tee`, as `gradest-serve` pairs it with the caller's
/// recorder). Trace events pass through untouched — this sink only
/// aggregates. `RunRecorder` is the clock-free counterpart.
#[derive(Debug)]
pub struct TimeSeriesRecorder {
    epoch: Instant,
    series: TimeSeries,
}

impl TimeSeriesRecorder {
    /// A live ring whose window zero starts now.
    pub fn new(cfg: TimeSeriesConfig) -> Self {
        TimeSeriesRecorder { epoch: Instant::now(), series: TimeSeries::new(cfg) }
    }

    /// Nanoseconds since construction — the timestamp recording uses.
    pub fn now_ns(&self) -> u64 {
        saturating_ns(self.epoch)
    }

    /// The ring, for queries (pass [`TimeSeriesRecorder::now_ns`] as
    /// the query timestamp).
    pub fn series(&self) -> &TimeSeries {
        &self.series
    }
}

impl Default for TimeSeriesRecorder {
    fn default() -> Self {
        Self::new(TimeSeriesConfig::default())
    }
}

impl Recorder for TimeSeriesRecorder {
    fn record_span(&self, span: Span, ns: u64) {
        self.series.span_at(self.now_ns(), span, ns);
    }

    fn incr(&self, counter: Counter, by: u64) {
        self.series.incr_at(self.now_ns(), counter, by);
    }

    fn observe(&self, hist: Histogram, value: f64) {
        self.series.observe_at(self.now_ns(), hist, value);
    }

    fn dropped_events(&self) -> u64 {
        self.series.late_drops()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ring(window_ns: u64, windows: usize) -> TimeSeries {
        TimeSeries::new(TimeSeriesConfig { window_ns, windows })
    }

    #[test]
    fn config_is_clamped() {
        let ts = TimeSeries::new(TimeSeriesConfig { window_ns: 0, windows: 0 });
        assert_eq!(ts.config(), TimeSeriesConfig { window_ns: 1, windows: 2 });
    }

    #[test]
    fn delta_and_rate_over_windows() {
        let ts = ring(1_000, 4);
        ts.incr_at(0, Counter::ServiceFramesOk, 2); // window 0
        ts.incr_at(1_500, Counter::ServiceFramesOk, 3); // window 1
        ts.incr_at(2_100, Counter::ServiceFramesOk, 5); // window 2
        assert_eq!(ts.delta(Counter::ServiceFramesOk, 1, 2_900), 5);
        assert_eq!(ts.delta(Counter::ServiceFramesOk, 2, 2_900), 8);
        assert_eq!(ts.delta(Counter::ServiceFramesOk, 3, 2_900), 10);
        // 10 events over 3 windows of 1 µs each.
        let rate = ts.rate(Counter::ServiceFramesOk, 3, 2_900);
        assert!((rate - 10.0 / 3.0e-6).abs() / rate < 1e-12);
    }

    #[test]
    fn rotation_evicts_old_windows() {
        let ts = ring(1_000, 3);
        ts.incr_at(500, Counter::ServiceFramesOk, 7); // window 0
        ts.incr_at(3_500, Counter::ServiceFramesOk, 1); // window 3 evicts 0
        assert_eq!(ts.delta(Counter::ServiceFramesOk, 4, 3_900), 1);
        // A record into an evicted window is dropped, not resurrected.
        ts.incr_at(500, Counter::ServiceFramesOk, 9);
        assert_eq!(ts.delta(Counter::ServiceFramesOk, 4, 3_900), 1);
        assert_eq!(ts.late_drops(), 1);
    }

    #[test]
    fn queries_ignore_stale_slots_when_now_advances() {
        let ts = ring(1_000, 3);
        ts.incr_at(100, Counter::ServiceFramesOk, 4); // window 0
                                                      // Window 0's slot would alias windows 3, 6, … — a query from
                                                      // window 5's viewpoint must not see it.
        assert_eq!(ts.delta(Counter::ServiceFramesOk, 3, 5_500), 0);
        assert_eq!(ts.delta(Counter::ServiceFramesOk, 1, 900), 4);
    }

    #[test]
    fn advance_to_decays_rates() {
        let ts = ring(1_000, 4);
        ts.incr_at(100, Counter::ServiceFramesOk, 8);
        ts.advance_to(10_000);
        assert_eq!(ts.delta(Counter::ServiceFramesOk, 4, 10_000), 0);
    }

    #[test]
    fn span_quantiles_within_bound() {
        let ts = ring(1_000_000, 8);
        let values: Vec<f64> = (1..=100).map(|i| i as f64 * 1_000.0).collect();
        for (i, v) in values.iter().enumerate() {
            ts.span_at(i as u64 * 10, Span::ServiceFrame, *v as u64);
        }
        for (q, exact) in [(0.5, 50_000.0), (0.99, 99_000.0), (1.0, 100_000.0)] {
            let est = ts.span_quantile(Span::ServiceFrame, q, 8, 1_000).expect("recorded");
            assert!(
                (est - exact).abs() / exact <= SKETCH_RELATIVE_ERROR,
                "q={q}: est {est} vs exact {exact}"
            );
        }
    }

    #[test]
    fn signed_quantiles_keep_total_order() {
        let ts = ring(1_000, 2);
        for v in [-8.0, -2.0, 0.0, 2.0, 8.0] {
            ts.observe_at(100, Histogram::EkfInnovation, v);
        }
        let lo = ts.hist_quantile(Histogram::EkfInnovation, 0.0, 1, 100).expect("lo");
        let mid = ts.hist_quantile(Histogram::EkfInnovation, 0.5, 1, 100).expect("mid");
        let hi = ts.hist_quantile(Histogram::EkfInnovation, 1.0, 1, 100).expect("hi");
        assert!(lo < 0.0 && (lo + 8.0).abs() / 8.0 <= SKETCH_RELATIVE_ERROR);
        assert_eq!(mid, 0.0);
        assert!(hi > 0.0 && (hi - 8.0).abs() / 8.0 <= SKETCH_RELATIVE_ERROR);
    }

    #[test]
    fn mean_and_count_above() {
        let ts = ring(1_000, 4);
        for v in [0.5, 1.0, 3.0, 5.0] {
            ts.observe_at(10, Histogram::EkfMeanNis, v);
        }
        let mean = ts.hist_mean(Histogram::EkfMeanNis, 1, 10).expect("mean");
        assert!((mean - 2.375).abs() < 1e-12);
        assert_eq!(ts.hist_count(Histogram::EkfMeanNis, 1, 10), 4);
        assert_eq!(ts.hist_count_above(Histogram::EkfMeanNis, 2.5, 1, 10), 2);
        // 1.0 sits on a bucket edge, so the threshold at 1 is exact.
        assert_eq!(ts.hist_count_above(Histogram::EkfMeanNis, 1.0, 1, 10), 3);
        assert_eq!(ts.hist_count_above(Histogram::GpsGapSeconds, 1.0, 1, 10), 0);
        assert_eq!(ts.hist_mean(Histogram::GpsGapSeconds, 1, 10), None);
    }

    #[test]
    fn summaries_merge_across_windows() {
        let ts = ring(1_000, 4);
        ts.span_at(100, Span::Trip, 300);
        ts.span_at(1_100, Span::Trip, 100);
        ts.span_at(2_100, Span::Trip, 500);
        let s = ts.span_summary(Span::Trip, 3, 2_100);
        assert_eq!((s.count, s.finite, s.sum, s.min, s.max), (3, 3, 900.0, 100.0, 500.0));
        assert_eq!(ts.span_summary(Span::Trip, 2, 2_100).sum, 600.0);
        let stddev = s.stddev().expect("finite observations");
        assert!((stddev - (80_000.0f64 / 3.0).sqrt()).abs() < 1e-9);
        assert_eq!(ts.span_summary(Span::Fusion, 3, 2_100).mean(), None);
    }

    #[test]
    fn tiny_magnitudes_count_as_zero() {
        let ts = ring(1_000, 2);
        ts.observe_at(0, Histogram::FusionWeightGps, 1e-9);
        ts.observe_at(0, Histogram::FusionWeightGps, f64::NAN);
        assert_eq!(ts.hist_quantile(Histogram::FusionWeightGps, 1.0, 1, 0), Some(0.0));
    }

    #[test]
    fn non_finite_values_skip_the_moments() {
        let ts = ring(1_000, 2);
        for v in [f64::NAN, f64::NEG_INFINITY, -2.0, f64::INFINITY] {
            ts.observe_at(0, Histogram::EkfInnovation, v);
        }
        let s = ts.hist_summary(Histogram::EkfInnovation, 1, 0);
        assert_eq!((s.count, s.finite, s.sum, s.sum_sq), (4, 1, -2.0, 4.0));
        assert_eq!((s.min, s.max), (-2.0, -2.0));
        assert_eq!(sketch_bucket(f64::INFINITY), SKETCH_BUCKETS - 1);
        assert_eq!(sketch_bucket(SKETCH_MAX_MAGNITUDE * 4.0), SKETCH_BUCKETS - 1);
        assert_eq!(sketch_bucket(SKETCH_MIN_MAGNITUDE), 0);
    }

    #[test]
    fn recorder_wrapper_records_now() {
        let rec =
            TimeSeriesRecorder::new(TimeSeriesConfig { window_ns: 1_000_000_000, windows: 4 });
        assert!(rec.enabled());
        rec.incr(Counter::TripsProcessed, 3);
        rec.record_span(Span::ServiceFrame, 42_000);
        rec.observe(Histogram::EkfMeanNis, 1.0);
        let now = rec.now_ns();
        assert_eq!(rec.series().delta(Counter::TripsProcessed, 4, now), 3);
        assert!(rec.series().span_quantile(Span::ServiceFrame, 0.5, 4, now).is_some());
        assert_eq!(rec.series().hist_count(Histogram::EkfMeanNis, 4, now), 1);
    }

    #[test]
    fn recording_is_shareable_across_threads() {
        let ts = ring(1_000_000_000, 4);
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    for _ in 0..100 {
                        ts.incr_at(10, Counter::ServiceFramesOk, 1);
                        ts.span_at(10, Span::ServiceFrame, 500);
                    }
                });
            }
        });
        assert_eq!(ts.delta(Counter::ServiceFramesOk, 1, 10), 400);
    }
}
