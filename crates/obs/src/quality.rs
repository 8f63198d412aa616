//! Fleet-wide estimation-quality drift monitors.
//!
//! The crowd-sourcing loop only works if the cloud notices when the
//! fused gradient map is getting *worse* — a biased sensor population,
//! a GPS-hostile corridor, a remounted-phone epidemic. Per-track
//! `InnovationMonitor` verdicts and Eq-6 fusion weights already flow
//! through the recorder seam; this module watches their per-window
//! aggregates over an [`crate::timeseries::TimeSeries`] ring and flags
//! sustained drift:
//!
//! - [`QualitySignal::MeanFusionWeight`]: per-window mean Eq-6 weight
//!   of a canary source (default the accelerometer track — dead
//!   reckoning degrades first when the IMU population sours). Watched
//!   for *downward* drift.
//! - [`QualitySignal::NisOutOfBand`]: fraction of per-track windowed
//!   mean-NIS observations above the consistency band (the same 2.5
//!   bound `MonitorConfig::inconsistent_nis` uses). Watched *upward*.
//! - [`QualitySignal::GpsDropoutRate`]: GPS dropout events per
//!   processed trip. Watched *upward*.
//!
//! Each signal runs an EWMA smoother feeding a one-sided Page–Hinkley
//! cumulative test — the standard sequential change-point detector: it
//! accumulates deviations beyond a drift allowance `delta` and alarms
//! when the cumulative excursion from its running extremum exceeds
//! `lambda`. Alerts latch until the excursion resets, and every edge
//! emits a [`TraceEvent::QualityAlert`] plus a counter bump through
//! the recorder, so drift lands in the flight recorder and the
//! Prometheus exposition without polling.

use crate::metrics::{Counter, Histogram};
use crate::recorder::Recorder;
use crate::timeseries::TimeSeries;
use crate::trace::{QualitySignal, TraceEvent};

/// Tuning for one Page–Hinkley detector.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DetectorConfig {
    /// EWMA smoothing factor in `(0, 1]` (1 = no smoothing).
    pub ewma_alpha: f64,
    /// Drift allowance: per-window deviation tolerated before the
    /// cumulative sum grows.
    pub delta: f64,
    /// Alarm threshold on the cumulative excursion.
    pub lambda: f64,
    /// Windows of evidence required before the detector may alarm
    /// (it still learns its baseline during this burn-in).
    pub min_windows: u32,
}

/// Tuning for the whole monitor set.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QualityConfig {
    /// Which fusion-weight histogram the canary watches.
    pub weight_hist: Histogram,
    /// Mean-NIS bound above which an observation counts out-of-band
    /// (matches `MonitorConfig::inconsistent_nis`).
    pub nis_bound: f64,
    /// Windows each per-window statistic aggregates over (smooths the
    /// shot noise of sparse uploads).
    pub lookback: usize,
    /// Detector for [`QualitySignal::MeanFusionWeight`] (downward).
    pub weight: DetectorConfig,
    /// Detector for [`QualitySignal::NisOutOfBand`] (upward).
    pub nis: DetectorConfig,
    /// Detector for [`QualitySignal::GpsDropoutRate`] (upward).
    pub gps: DetectorConfig,
}

impl Default for QualityConfig {
    fn default() -> Self {
        QualityConfig {
            weight_hist: Histogram::FusionWeightAccelerometer,
            nis_bound: 2.5,
            lookback: 5,
            // Fusion weights live in [0, 1]; a sustained drop of a few
            // hundredths below baseline is a real redistribution.
            weight: DetectorConfig { ewma_alpha: 0.5, delta: 0.01, lambda: 0.05, min_windows: 3 },
            // The out-of-band fraction is ~0 for a healthy fleet.
            nis: DetectorConfig { ewma_alpha: 0.5, delta: 0.05, lambda: 0.5, min_windows: 3 },
            // Dropouts per trip: healthy synthetic fleets sit near 0.
            gps: DetectorConfig { ewma_alpha: 0.5, delta: 0.05, lambda: 0.5, min_windows: 3 },
        }
    }
}

/// Drift direction a detector watches.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Direction {
    Up,
    Down,
}

/// One EWMA + Page–Hinkley detector instance.
#[derive(Debug, Clone)]
struct Detector {
    signal: QualitySignal,
    direction: Direction,
    cfg: DetectorConfig,
    ewma: Option<f64>,
    /// Running mean of the (smoothed) signal — the PH baseline.
    mean: f64,
    /// Cumulative sum of directed deviations beyond `delta`.
    cum: f64,
    /// Running extremum of `cum` (minimum — deviations are oriented so
    /// drift pushes `cum` up regardless of direction).
    cum_min: f64,
    windows: u32,
    alert: bool,
}

impl Detector {
    fn new(signal: QualitySignal, direction: Direction, cfg: DetectorConfig) -> Self {
        Detector {
            signal,
            direction,
            cfg,
            ewma: None,
            mean: 0.0,
            cum: 0.0,
            cum_min: 0.0,
            windows: 0,
            alert: false,
        }
    }

    /// Feeds one per-window statistic; returns `Some(edge)` when the
    /// alert state flipped (`true` = raised).
    fn update(&mut self, value: f64) -> Option<bool> {
        if !value.is_finite() {
            return None;
        }
        let alpha = self.cfg.ewma_alpha.clamp(1.0e-6, 1.0);
        let smoothed = match self.ewma {
            Some(prev) => prev + alpha * (value - prev),
            None => value,
        };
        self.ewma = Some(smoothed);
        self.windows += 1;
        let n = self.windows as f64;
        self.mean += (smoothed - self.mean) / n;
        // Orient deviations so the watched drift direction is positive.
        let dev = match self.direction {
            Direction::Up => smoothed - self.mean,
            Direction::Down => self.mean - smoothed,
        };
        self.cum += dev - self.cfg.delta;
        self.cum_min = self.cum_min.min(self.cum);
        let excursion = self.cum - self.cum_min;
        let alarming = self.windows >= self.cfg.min_windows && excursion > self.cfg.lambda;
        if alarming != self.alert {
            self.alert = alarming;
            return Some(alarming);
        }
        None
    }
}

/// Latest state of one monitored signal, for reports and STATUS JSON.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SignalReport {
    /// Which signal.
    pub signal: QualitySignal,
    /// Last raw per-window statistic fed to the detector (NaN before
    /// any window carried data).
    pub value: f64,
    /// Current EWMA-smoothed statistic (NaN before any data).
    pub ewma: f64,
    /// Current Page–Hinkley excursion (compare against `lambda`).
    pub excursion: f64,
    /// Whether the drift alert is raised.
    pub drifting: bool,
    /// Windows of evidence consumed so far.
    pub windows: u32,
}

/// Snapshot of all monitored signals.
#[derive(Debug, Clone, PartialEq)]
pub struct QualityReport {
    /// One entry per [`QualitySignal::ALL`], in that order.
    pub signals: Vec<SignalReport>,
}

impl QualityReport {
    /// Whether any signal is currently drifting.
    pub fn any_drifting(&self) -> bool {
        self.signals.iter().any(|s| s.drifting)
    }
}

/// The fleet-quality monitor set: ticks once per elapsed time-series
/// window, reading per-window aggregates from the ring and pushing
/// alert edges back through the recorder.
///
/// Single-owner by design (`&mut self` tick) — the service wraps it in
/// its shared state's mutex and lets whichever worker crosses a window
/// boundary run the tick.
#[derive(Debug)]
pub struct QualityMonitors {
    cfg: QualityConfig,
    detectors: [Detector; 3],
    last_values: [f64; 3],
    /// Last fully processed absolute window index.
    last_window: Option<u64>,
}

impl QualityMonitors {
    /// A monitor set with no evidence yet.
    pub fn new(cfg: QualityConfig) -> Self {
        QualityMonitors {
            cfg,
            detectors: [
                Detector::new(QualitySignal::MeanFusionWeight, Direction::Down, cfg.weight),
                Detector::new(QualitySignal::NisOutOfBand, Direction::Up, cfg.nis),
                Detector::new(QualitySignal::GpsDropoutRate, Direction::Up, cfg.gps),
            ],
            last_values: [f64::NAN; 3],
            last_window: None,
        }
    }

    /// Advances the monitors to `now_ns`. Processes each *completed*
    /// window exactly once (multiple calls inside one window are
    /// no-ops); windows that elapsed unseen are skipped, not
    /// back-filled — drift detection needs only the live suffix.
    /// Returns how many alert edges fired.
    pub fn tick<R: Recorder>(&mut self, ts: &TimeSeries, now_ns: u64, rec: &R) -> usize {
        let cur = ts.window_index(now_ns);
        // Window `cur` is still filling; the newest complete one is its
        // predecessor.
        let Some(complete) = cur.checked_sub(1) else {
            return 0;
        };
        if self.last_window == Some(complete) {
            return 0;
        }
        self.last_window = Some(complete);
        // Evaluate the lookback suffix ending at the completed window.
        let end_ns = complete.saturating_mul(ts.config().window_ns);
        let lookback = self.cfg.lookback.max(1);
        let mut edges = 0usize;

        let weight = ts.hist_mean(self.cfg.weight_hist, lookback, end_ns);
        let total = ts.hist_count(Histogram::EkfMeanNis, lookback, end_ns);
        let nis = (total > 0)
            .then(|| nis_above(ts, self.cfg.nis_bound, lookback, end_ns) as f64 / total as f64);
        let gps = gaps_per_trip(ts, lookback, end_ns);

        for (i, value) in [weight, nis, gps].into_iter().enumerate() {
            let Some(value) = value else {
                continue;
            };
            self.last_values[i] = value;
            if let Some(raised) = self.detectors[i].update(value) {
                edges += 1;
                let signal = self.detectors[i].signal;
                rec.event(TraceEvent::QualityAlert { signal, raised });
                let counter = if raised {
                    Counter::QualityAlertsRaised
                } else {
                    Counter::QualityAlertsCleared
                };
                rec.incr(counter, 1);
            }
        }
        edges
    }

    /// Current state of every signal.
    pub fn report(&self) -> QualityReport {
        let signals = self
            .detectors
            .iter()
            .enumerate()
            .map(|(i, d)| SignalReport {
                signal: d.signal,
                value: self.last_values[i],
                ewma: d.ewma.unwrap_or(f64::NAN),
                excursion: d.cum - d.cum_min,
                drifting: d.alert,
                windows: d.windows,
            })
            .collect();
        QualityReport { signals }
    }

    /// Whether any signal is currently drifting.
    pub fn any_drifting(&self) -> bool {
        self.detectors.iter().any(|d| d.alert)
    }
}

impl Default for QualityMonitors {
    fn default() -> Self {
        Self::new(QualityConfig::default())
    }
}

/// GPS dropouts per processed trip over the `lookback` windows ending
/// at `now_ns`'s window, `None` when no trip ran — the
/// [`QualitySignal::GpsDropoutRate`] statistic and
/// `FleetHealth::gps_gap_rate_per_trip`.
pub(crate) fn gaps_per_trip(ts: &TimeSeries, lookback: usize, now_ns: u64) -> Option<f64> {
    let trips = ts.delta(Counter::TripsProcessed, lookback, now_ns);
    let gaps = ts.delta(Counter::GpsGaps, lookback, now_ns);
    (trips > 0).then(|| gaps as f64 / trips as f64)
}

/// Mean-NIS observations the sketch places above `threshold` over the
/// `lookback` windows ending at `now_ns`'s window — the
/// [`QualitySignal::NisOutOfBand`] count at `nis_bound` and
/// `FleetHealth`'s bands at 1/10/100.
pub(crate) fn nis_above(ts: &TimeSeries, threshold: f64, lookback: usize, now_ns: u64) -> u64 {
    ts.hist_count_above(Histogram::EkfMeanNis, threshold, lookback, now_ns)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run::RunRecorder;
    use crate::timeseries::TimeSeriesConfig;
    use crate::trace::TraceRing;

    const W: u64 = 1_000; // window width, test nanoseconds

    fn ring() -> TimeSeries {
        TimeSeries::new(TimeSeriesConfig { window_ns: W, windows: 32 })
    }

    /// Feed one window's worth of healthy observations.
    fn healthy_window(ts: &TimeSeries, w: u64) {
        let t = w * W;
        ts.incr_at(t, Counter::TripsProcessed, 4);
        ts.observe_at(t, Histogram::FusionWeightAccelerometer, 0.25);
        ts.observe_at(t, Histogram::EkfMeanNis, 1.0);
    }

    /// Feed one window of a degraded fleet: the canary weight collapses
    /// and NIS runs hot.
    fn degraded_window(ts: &TimeSeries, w: u64) {
        let t = w * W;
        ts.incr_at(t, Counter::TripsProcessed, 4);
        ts.incr_at(t, Counter::GpsGaps, 8);
        ts.observe_at(t, Histogram::FusionWeightAccelerometer, 0.02);
        ts.observe_at(t, Histogram::EkfMeanNis, 8.0);
    }

    #[test]
    fn healthy_fleet_never_alerts() {
        let ts = ring();
        let mut mon = QualityMonitors::default();
        let rec = RunRecorder::new();
        for w in 0..20 {
            healthy_window(&ts, w);
            assert_eq!(mon.tick(&ts, (w + 1) * W, &rec), 0, "window {w}");
        }
        assert!(!mon.any_drifting());
        assert_eq!(rec.report().counter(Counter::QualityAlertsRaised.name()), None);
        let report = mon.report();
        assert_eq!(report.signals.len(), 3);
        assert!(!report.any_drifting());
        let weight = &report.signals[0];
        assert_eq!(weight.signal, QualitySignal::MeanFusionWeight);
        assert!((weight.value - 0.25).abs() < 1e-12);
    }

    #[test]
    fn degradation_raises_alerts_and_emits_events() {
        let ts = ring();
        let mut mon = QualityMonitors::default();
        let run = RunRecorder::new();
        let trace = TraceRing::with_capacity(64);
        let rec = crate::trace::Tee::new(&run, &trace);
        for w in 0..8 {
            healthy_window(&ts, w);
            mon.tick(&ts, (w + 1) * W, &rec);
        }
        assert!(!mon.any_drifting(), "healthy baseline must stay quiet");
        let mut raised_at = None;
        for w in 8..20 {
            degraded_window(&ts, w);
            if mon.tick(&ts, (w + 1) * W, &rec) > 0 && raised_at.is_none() {
                raised_at = Some(w);
            }
        }
        let raised_at = raised_at.expect("sustained degradation must raise an alert");
        assert!(raised_at <= 14, "alert latency too high: window {raised_at}");
        assert!(mon.any_drifting());
        assert!(run.report().counter(Counter::QualityAlertsRaised.name()) >= Some(1));
        let seq = trace.snapshot().sequence_string();
        assert!(seq.contains("quality-alert"), "alert edge must land in the trace:\n{seq}");
        let report = mon.report();
        assert!(report.any_drifting());
    }

    #[test]
    fn tick_is_idempotent_within_a_window() {
        let ts = ring();
        let mut mon = QualityMonitors::default();
        let rec = RunRecorder::new();
        healthy_window(&ts, 0);
        mon.tick(&ts, W + 1, &rec);
        let before = mon.report();
        mon.tick(&ts, W + 500, &rec);
        assert_eq!(mon.report(), before, "same window must not re-feed the detectors");
    }

    #[test]
    fn empty_windows_leave_detectors_unfed() {
        let ts = ring();
        let mut mon = QualityMonitors::default();
        let rec = RunRecorder::new();
        mon.tick(&ts, 5 * W, &rec);
        let report = mon.report();
        assert!(report.signals.iter().all(|s| s.windows == 0));
        assert!(report.signals.iter().all(|s| s.value.is_nan()));
    }

    #[test]
    fn page_hinkley_detects_a_step_without_false_positives() {
        // Pure detector: flat signal, then a step beyond delta.
        let cfg = DetectorConfig { ewma_alpha: 1.0, delta: 0.01, lambda: 0.05, min_windows: 3 };
        let mut d = Detector::new(QualitySignal::NisOutOfBand, Direction::Up, cfg);
        for _ in 0..50 {
            assert_eq!(d.update(0.1), None, "flat signal must not alarm");
        }
        let mut raised = false;
        for _ in 0..10 {
            if d.update(0.4) == Some(true) {
                raised = true;
                break;
            }
        }
        assert!(raised, "a 0.3 step with lambda=0.05 must alarm within 10 windows");
    }
}
