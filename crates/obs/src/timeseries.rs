//! The one telemetry aggregator: a fixed-interval ring of windows
//! holding counters and log-linear distribution sketches.
//!
//! A [`TimeSeries`] keeps the last `windows` intervals of `window_ns`
//! each (default 1 s × 120) and answers [`TimeSeries::rate`],
//! [`TimeSeries::delta`], [`TimeSeries::span_quantile`]/
//! [`TimeSeries::hist_quantile`] and the exact [`Summary`] reads over
//! any suffix of that ring — the queries behind the `STATUS` frame, the
//! quality drift monitors (`obs::quality`) and SLO burn rates
//! (`obs::slo`). When rotation recycles a window, its counters and
//! summaries fold into retired totals, so a whole-series read
//! (`RunReport::from_series`, behind `METRICS`) sees every record the
//! series kept and its counters never fall; only the sketch buckets
//! are windowed. Two front ends record into it: [`TimeSeriesRecorder`]
//! stamps records from a wall clock, and `RunRecorder` records at one
//! fixed timestamp into a window that never rotates.
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
//! Window memory is reserved once at construction but written only as
//! time reaches it: a window is built the first time rotation or a
//! record reaches its slot, inside the reserved capacity, so a new ring
//! costs one allocation and no page of it is written up front.
//! Recording mutates fixed slots under one mutex, and rotation retires
//! and resets slots in place — zero allocations after construction,
//! which the hot-path smoke and the service soak's alloc probe assert.
//! Core methods are keyed by explicit nanosecond timestamps (`*_at`), so
//! rotation and boundary behaviour are deterministic under test.

use crate::metrics::{Counter, Histogram, Span};
use crate::recorder::{saturating_ns, Recorder};
use std::f64::consts::SQRT_2;
use std::sync::Mutex;
use std::time::Instant;

/// Log-linear subdivisions per power of two. Four sub-buckets per
/// octave bound the relative quantile error below ten percent while a
/// whole sketch stays two pages of `u32` counts.
const SUB_PER_OCTAVE: i64 = 4;

/// Buckets per signed store. With four sub-buckets per octave this
/// covers 64 octaves of magnitude.
const SKETCH_BUCKETS: usize = 256;

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

/// The sub-bucket edges of one octave as mantissas: `2^(j/4)` for
/// `j = 0..=4`.
const OCTAVE_EDGES: [f64; 5] = [1.0, 1.189_207_115_002_721, SQRT_2, 1.681_792_830_507_429, 2.0];

/// Relative half-width of the window around each edge in which
/// [`sketch_bucket`] falls back to [`log2_bucket`].
const EDGE_WINDOW: f64 = 1e-12;

/// Per sub-bucket `j`, the open range of mantissas more than
/// [`EDGE_WINDOW`] from both of its edges `2^(j/4)` and `2^((j+1)/4)`.
const CLEAR_MANTISSAS: [(f64, f64); 4] = [
    clear_between(OCTAVE_EDGES[0], OCTAVE_EDGES[1]),
    clear_between(OCTAVE_EDGES[1], OCTAVE_EDGES[2]),
    clear_between(OCTAVE_EDGES[2], OCTAVE_EDGES[3]),
    clear_between(OCTAVE_EDGES[3], OCTAVE_EDGES[4]),
];

/// The part of `[lo, hi)` more than [`EDGE_WINDOW`] from either end.
const fn clear_between(lo: f64, hi: f64) -> (f64, f64) {
    (lo * (1.0 + EDGE_WINDOW), hi * (1.0 - EDGE_WINDOW))
}

/// Bucket index for a positive magnitude; anything past
/// [`SKETCH_MAX_MAGNITUDE`], `+∞` included, clamps into the top bucket.
///
/// Always equal to [`log2_bucket`], without calling `log2`: the octave
/// is the exponent field, and the sub-bucket comes from comparing the
/// mantissa `m ∈ [1, 2)` with `2^(1/4)`, `2^(1/2)` and `2^(3/4)`. The
/// magnitudes where the two rules could disagree take `log2_bucket`
/// itself: those that are not finite normals, and those whose mantissa
/// lies within 1e-12 (relative) of an edge, 1 and 2 included (so exact
/// powers of two do too). Outside those windows the true `log2(mag)` is
/// at least `log2(1 + 1e-12) ≈ 1.44e-12` from the nearest edge
/// `e + j/4`, while libm's `log2` is off by at most a few ulps — under
/// 1e-14 wherever `|log2| ≤ 64`, and every magnitude past `2^44` clamps
/// to the top bucket either way. `floor(4·log2(mag))` therefore lands
/// on the same integer both ways (the `4·` is exact), and the f64
/// constants for the irrational edges, each within one ulp of the true
/// edge, sit far inside the window.
fn sketch_bucket(mag: f64) -> usize {
    let bits = mag.to_bits();
    let biased = ((bits >> 52) & 0x7ff) as i64;
    let m = f64::from_bits((bits & ((1 << 52) - 1)) | 1.0f64.to_bits());
    let sub = (m >= OCTAVE_EDGES[1]) as usize
        + (m >= OCTAVE_EDGES[2]) as usize
        + (m >= OCTAVE_EDGES[3]) as usize;
    let (lo, hi) = CLEAR_MANTISSAS[sub];
    if biased == 0 || biased == 0x7ff || m <= lo || m >= hi {
        return log2_bucket(mag);
    }
    let idx = (biased - 1023 - MIN_OCTAVE) * SUB_PER_OCTAVE + sub as i64;
    idx.clamp(0, SKETCH_BUCKETS as i64 - 1) as usize
}

/// The bucket rule [`sketch_bucket`] reproduces:
/// `floor(4·log2(mag)) + 80`, clamped to the buckets. The clamp happens
/// in floating point, before the integer cast.
fn log2_bucket(mag: f64) -> usize {
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
        self.count_bucket(value);
    }

    /// [`SketchCell::observe`] for each value in order, leaving the same
    /// state, in two passes: the summary in value order (its sums round
    /// exactly as one `observe` per value would), then the buckets and
    /// their counts, which do not depend on order.
    fn observe_many(&mut self, values: &[f64]) {
        for &value in values {
            self.summary.observe(value);
        }
        for &value in values {
            self.count_bucket(value);
        }
    }

    /// Adds one to `value`'s bucket.
    fn count_bucket(&mut self, value: f64) {
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

    /// Folds this window's counters and summaries into `retired`, then
    /// empties it to hold window `index`: what leaves the ring is kept
    /// in the totals, never lost. The sketch buckets are not kept.
    fn recycle(&mut self, index: u64, retired: &mut Totals) {
        retired.add(self);
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

/// Counters and exact [`Summary`] statistics with no window and no
/// sketch buckets: the totals rotation retires, and what a
/// whole-series read returns.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Totals {
    /// Per-counter totals, indexed by `Counter as usize`.
    pub(crate) counters: [u64; Counter::COUNT],
    /// Per-span duration summaries, indexed by `Span as usize`.
    pub(crate) spans: [Summary; Span::COUNT],
    /// Per-histogram summaries, indexed by `Histogram as usize`.
    pub(crate) hists: [Summary; Histogram::COUNT],
}

impl Totals {
    const EMPTY: Totals = Totals {
        counters: [0; Counter::COUNT],
        spans: [Summary::EMPTY; Span::COUNT],
        hists: [Summary::EMPTY; Histogram::COUNT],
    };

    fn add(&mut self, w: &Window) {
        for (acc, n) in self.counters.iter_mut().zip(&w.counters) {
            *acc += n;
        }
        for (acc, cell) in self.spans.iter_mut().zip(&w.spans) {
            acc.merge(&cell.summary);
        }
        for (acc, cell) in self.hists.iter_mut().zip(&w.hists) {
            acc.merge(&cell.summary);
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

/// Everything behind the ring mutex: the slot array, the rotation
/// cursor, and the totals of every window rotation recycled. Each
/// record sits in exactly one place: a slot, `retired`, or
/// `late_drops`.
#[derive(Debug)]
struct RingState {
    /// Highest absolute window index any record has reached.
    cur: u64,
    /// Slot `i` holds absolute window `w` iff `w % windows == i` and `w`
    /// is within the live suffix ending at `cur`. Slots are built in
    /// index order as time first reaches them, so the vector is short
    /// until the ring's first turn ends; a slot not built yet holds no
    /// window.
    slots: Vec<Window>,
    /// Counters and summaries of the windows rotation recycled.
    retired: Totals,
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
    /// A ring with every window empty. The slots' memory is reserved
    /// here and written as time reaches each window; recording and
    /// rotation never allocate.
    pub fn new(cfg: TimeSeriesConfig) -> Self {
        let cfg = TimeSeriesConfig { window_ns: cfg.window_ns.max(1), windows: cfg.windows.max(2) };
        let slots = Vec::with_capacity(cfg.windows);
        let state = RingState { cur: 0, slots, retired: Totals::EMPTY, late_drops: 0 };
        TimeSeries { cfg, state: Mutex::new(state) }
    }

    /// The window count: the modulus of every slot index.
    fn windows(&self) -> u64 {
        self.cfg.windows as u64
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
            advance(&mut st, w, self.windows());
        }
    }

    /// Adds `by` to `counter`'s bucket in the window containing `t_ns`.
    pub fn incr_at(&self, t_ns: u64, counter: Counter, by: u64) {
        let w = self.window_index(t_ns);
        if let Ok(mut st) = self.state.lock() {
            if let Some(slot) = live_slot(&mut st, w, self.windows(), 1) {
                slot.counters[counter as usize] += by;
            }
        }
    }

    /// Records one span duration into the window containing `t_ns`.
    pub fn span_at(&self, t_ns: u64, span: Span, ns: u64) {
        let w = self.window_index(t_ns);
        if let Ok(mut st) = self.state.lock() {
            if let Some(slot) = live_slot(&mut st, w, self.windows(), 1) {
                slot.spans[span as usize].observe(ns as f64);
            }
        }
    }

    /// Records one histogram observation into the window containing
    /// `t_ns`.
    pub fn observe_at(&self, t_ns: u64, hist: Histogram, value: f64) {
        let w = self.window_index(t_ns);
        if let Ok(mut st) = self.state.lock() {
            if let Some(slot) = live_slot(&mut st, w, self.windows(), 1) {
                slot.hists[hist as usize].observe(value);
            }
        }
    }

    /// Records a batch of histogram observations, in order, into the
    /// window containing `t_ns`: one lock for the whole batch, and the
    /// same cell state as one [`TimeSeries::observe_at`] per value. A
    /// late batch counts one late drop per value; an empty batch
    /// touches nothing.
    pub fn observe_many_at(&self, t_ns: u64, hist: Histogram, values: &[f64]) {
        if values.is_empty() {
            return;
        }
        let w = self.window_index(t_ns);
        if let Ok(mut st) = self.state.lock() {
            if let Some(slot) = live_slot(&mut st, w, self.windows(), values.len() as u64) {
                slot.hists[hist as usize].observe_many(values);
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

    /// Everything the series kept, in one locked pass: the retired
    /// totals plus every live window, oldest first. Late drops are not
    /// in it, and the sketch buckets are not read.
    pub(crate) fn totals(&self) -> Totals {
        let Ok(st) = self.state.lock() else {
            return Totals::EMPTY;
        };
        let len = self.windows();
        let mut totals = st.retired;
        for w in st.cur.saturating_sub(len - 1)..=st.cur {
            if let Some(slot) = slot_holding(&st.slots, w, len) {
                totals.add(slot);
            }
        }
        totals
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
        let len = self.windows();
        for w in start..=end {
            // Only slots still holding exactly window `w` contribute —
            // `cur` may trail `now_ns` (nothing recorded lately) or a
            // slot may have been recycled for a newer window.
            if let Some(slot) = slot_holding(&st.slots, w, len) {
                f(slot);
            }
        }
    }
}

/// Rotate a ring of `len` windows forward to absolute window `w`
/// (no-op if already there or past it), retiring and resetting every
/// slot the move recycles.
fn advance(st: &mut RingState, w: u64, len: u64) {
    if w <= st.cur {
        return;
    }
    // Only the last `len` windows can be live; skipping further back
    // would reset the same slots twice.
    let first = (st.cur + 1).max(w.saturating_sub(len - 1));
    for idx in first..=w {
        slot_or_build(&mut st.slots, idx % len).recycle(idx, &mut st.retired);
    }
    st.cur = w;
}

/// The slot for absolute window `w` in a ring of `len` windows,
/// rotating forward if `w` is new; `None` when `w` already left the
/// ring (the caller's `records` records are counted as late drops).
fn live_slot(st: &mut RingState, w: u64, len: u64, records: u64) -> Option<&mut Window> {
    advance(st, w, len);
    if st.cur.saturating_sub(w) >= len {
        st.late_drops += records;
        return None;
    }
    let slot = slot_or_build(&mut st.slots, w % len);
    if slot.index != w {
        // First touch of this window: the slot has never been used,
        // because rotation only resets slots from `cur+1` forward.
        slot.recycle(w, &mut st.retired);
    }
    Some(slot)
}

/// Slot `i`, first building it and every slot before it that time has
/// not reached yet. `i` is a window index modulo the window count, and
/// `TimeSeries::new` reserved that many slots, so a build pushes inside
/// the capacity and never allocates.
fn slot_or_build(slots: &mut Vec<Window>, i: u64) -> &mut Window {
    let i = i as usize;
    while slots.len() <= i {
        slots.push(Window::new());
    }
    &mut slots[i]
}

/// The built slot holding exactly window `w` in a ring of `len`
/// windows, if any: a slot not built yet holds no window.
fn slot_holding(slots: &[Window], w: u64, len: u64) -> Option<&Window> {
    slots.get((w % len) as usize).filter(|slot| slot.index == w)
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

    fn observe_many(&self, hist: Histogram, values: &[f64]) {
        self.series.observe_many_at(self.now_ns(), hist, values);
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
        ts.span_at(500, Span::Trip, 300);
        ts.incr_at(3_500, Counter::ServiceFramesOk, 1); // window 3 evicts 0
        assert_eq!(ts.delta(Counter::ServiceFramesOk, 4, 3_900), 1);
        // A record into an evicted window is dropped, not resurrected.
        ts.incr_at(500, Counter::ServiceFramesOk, 9);
        assert_eq!(ts.delta(Counter::ServiceFramesOk, 4, 3_900), 1);
        assert_eq!(ts.late_drops(), 1);
        // The evicted window lives on in the totals; the late record
        // does not.
        let totals = ts.totals();
        assert_eq!(totals.counters[Counter::ServiceFramesOk as usize], 8);
        assert_eq!(totals.spans[Span::Trip as usize].sum, 300.0);
    }

    #[test]
    fn a_window_is_built_when_time_first_reaches_it() {
        let windows = 8;
        let ts = ring(1_000, windows);
        let built = |ts: &TimeSeries| ts.state.lock().expect("ring lock").slots.len();
        let buffer = |ts: &TimeSeries| ts.state.lock().expect("ring lock").slots.as_ptr();
        let reserved = buffer(&ts);
        assert_eq!(built(&ts), 0, "a new ring builds no window");
        ts.incr_at(3_500, Counter::ServiceFramesOk, 1); // window 3
        assert_eq!(built(&ts), 4, "a record in window 3 builds slots 0..=3");
        // Records in windows already built build nothing more.
        ts.span_at(3_900, Span::Trip, 10);
        ts.incr_at(1_200, Counter::ServiceFramesOk, 1); // window 1, still live
        assert_eq!(built(&ts), 4);
        ts.advance_to(5_000); // an idle gap up to window 5
        assert_eq!(built(&ts), 6, "the gap builds the slots it skips");
        ts.advance_to(20_000); // past a whole turn
        assert_eq!(built(&ts), windows);
        ts.incr_at(1_000_000, Counter::ServiceFramesOk, 1);
        assert_eq!(built(&ts), windows);
        assert_eq!(buffer(&ts), reserved, "a build reallocated the slots");
        let totals = ts.totals();
        assert_eq!(totals.counters[Counter::ServiceFramesOk as usize], 3);
        assert_eq!(totals.spans[Span::Trip as usize].sum, 10.0);
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
    fn the_bucket_rule_matches_log2_around_every_edge() {
        let same = |v: f64, what: &str| {
            assert_eq!(sketch_bucket(v), log2_bucket(v), "{v:e}: {what}");
        };
        // Every edge 2^(k/4) from two octaves below the covered range
        // to four past it: up to ±4 ulps (inside the fallback window),
        // and just outside the window on both sides.
        let ks = (MIN_OCTAVE - 2) * SUB_PER_OCTAVE..=(MIN_OCTAVE + 68) * SUB_PER_OCTAVE;
        for k in ks {
            let edge = (k as f64 / SUB_PER_OCTAVE as f64).exp2();
            for ulps in -4i64..=4 {
                let v = f64::from_bits(edge.to_bits().wrapping_add_signed(ulps));
                same(v, &format!("{ulps} ulps from 2^({k}/4)"));
            }
            for rel in [1.1e-12, 2e-12, 1e-9, 1e-6, 1e-3] {
                same(edge * (1.0 + rel), &format!("2^({k}/4) × (1 + {rel:e})"));
                same(edge * (1.0 - rel), &format!("2^({k}/4) × (1 − {rel:e})"));
            }
        }
        // A dense geometric sweep across the covered range and past it.
        let mut v = SKETCH_MIN_MAGNITUDE / 4.0;
        while v < SKETCH_MAX_MAGNITUDE * 4.0 {
            same(v, "sweep");
            v *= 1.000_123_4;
        }
        // Zero, subnormals, the normal extremes, infinity and NaN.
        let specials = [
            0.0,
            f64::from_bits(1),
            f64::MIN_POSITIVE / 3.0,
            f64::MIN_POSITIVE,
            f64::MAX,
            f64::INFINITY,
            f64::NAN,
        ];
        for v in specials {
            same(v, "special");
        }
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
