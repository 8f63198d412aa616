//! `obs::health` — fleet-level quality screening.
//!
//! Crowd-sourced grade estimation lives or dies on per-track quality
//! screening before fusion: one phone with a bad mount or a starved
//! GPS can poison a cloud cell for everyone. The pipeline's
//! `InnovationMonitor` produces a per-track verdict
//! (healthy/inconsistent/diverged) plus a windowed mean NIS; the
//! recorded entry points fold those into counters and the
//! `ekf-mean-nis` histogram. [`FleetHealth::from_series`] reads them
//! back over any window range of a [`TimeSeries`] as one fleet-level
//! report: track verdict counts, health-transition churn, NIS bands,
//! and GPS dropout rates — the per-segment confidence context a map
//! consumer needs next to the gradient number. It reads the ring
//! through the same helpers as the `obs::quality` drift monitors.

use crate::metrics::{Counter, Histogram};
use crate::quality::{gaps_per_trip, nis_above};
use crate::run::{RunRecorder, RUN_T_NS};
use crate::timeseries::TimeSeries;
use serde::{Deserialize, Serialize};
use std::fmt::Write as _;

/// Aggregated fleet quality over a window range.
///
/// All fields derive from counters and the `ekf-mean-nis` sketch, so
/// building the report is cheap and the ring keeps no raw
/// observations. The NIS bands have sketch resolution: the edge at 1
/// is exact (`2^0` is a bucket edge); observations within
/// `SKETCH_RELATIVE_ERROR` of 10 or 100 may land in either neighbouring
/// band. Serializable (named fields only) for embedding in bench JSON
/// and the Prometheus export.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct FleetHealth {
    /// Trips processed.
    pub trips: u64,
    /// Per-source tracks that finished `Healthy`.
    pub tracks_healthy: u64,
    /// Per-source tracks that finished `Inconsistent`.
    pub tracks_degraded: u64,
    /// Per-source tracks that finished `Diverged`.
    pub tracks_diverged: u64,
    /// Monitor transitions out of `Healthy` during tracking.
    pub health_degraded_transitions: u64,
    /// Monitor transitions back to `Healthy` during tracking.
    pub health_recovered_transitions: u64,
    /// GPS dropouts detected (gaps between valid fixes over threshold).
    pub gps_gaps: u64,
    /// Mean dropouts per trip (0 when no trips ran).
    pub gps_gap_rate_per_trip: f64,
    /// Tracks contributing a windowed mean NIS sample.
    pub nis_tracks: u64,
    /// Mean of the finite per-track mean NIS samples (~1 for honest
    /// filters; 0 when there are none).
    pub nis_mean: f64,
    /// Tracks with mean NIS below 1 (conservative covariance); NaN
    /// samples count here. Exact edge.
    pub nis_band_lt_1: u64,
    /// Tracks with mean NIS in `[1, 10)` (consistent band); the upper
    /// edge has sketch resolution.
    pub nis_band_1_to_10: u64,
    /// Tracks with mean NIS in `[10, 100)` (optimistic covariance);
    /// both edges have sketch resolution.
    pub nis_band_10_to_100: u64,
    /// Tracks with mean NIS at or above 100 (divergence territory,
    /// `+∞` included); the edge has sketch resolution.
    pub nis_band_ge_100: u64,
}

impl FleetHealth {
    /// Fold the health counters and the NIS sketch over the `lookback`
    /// windows of `series` ending at `now_ns`'s window into a fleet
    /// report.
    pub fn from_series(series: &TimeSeries, lookback: usize, now_ns: u64) -> FleetHealth {
        let count = |c: Counter| series.delta(c, lookback, now_ns);
        let nis = series.hist_summary(Histogram::EkfMeanNis, lookback, now_ns);
        let above = |threshold: f64| nis_above(series, threshold, lookback, now_ns);
        let (above_1, above_10, above_100) = (above(1.0), above(10.0), above(100.0));
        FleetHealth {
            trips: count(Counter::TripsProcessed),
            tracks_healthy: count(Counter::TracksHealthy),
            tracks_degraded: count(Counter::TracksDegraded),
            tracks_diverged: count(Counter::TracksDiverged),
            health_degraded_transitions: count(Counter::EkfHealthDegraded),
            health_recovered_transitions: count(Counter::EkfHealthRecovered),
            gps_gaps: count(Counter::GpsGaps),
            gps_gap_rate_per_trip: gaps_per_trip(series, lookback, now_ns).unwrap_or(0.0),
            nis_tracks: nis.count,
            nis_mean: nis.mean().unwrap_or(0.0),
            nis_band_lt_1: nis.count.saturating_sub(above_1),
            nis_band_1_to_10: above_1.saturating_sub(above_10),
            nis_band_10_to_100: above_10.saturating_sub(above_100),
            nis_band_ge_100: above_100,
        }
    }

    /// Fleet health over everything one [`RunRecorder`] saw — one trip
    /// or a whole fleet batch, since the recorder already aggregates
    /// across workers.
    pub fn from_run(rec: &RunRecorder) -> FleetHealth {
        FleetHealth::from_series(rec.series(), 1, RUN_T_NS)
    }

    /// Total tracks that reported a final verdict.
    pub fn tracks_total(&self) -> u64 {
        self.tracks_healthy + self.tracks_degraded + self.tracks_diverged
    }

    /// Fraction of verdict-reporting tracks that finished `Healthy`
    /// (1.0 when no tracks reported, so an empty fleet reads healthy).
    pub fn healthy_fraction(&self) -> f64 {
        let total = self.tracks_total();
        if total == 0 {
            1.0
        } else {
            self.tracks_healthy as f64 / total as f64
        }
    }

    /// Human-readable summary table.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "fleet health over {} trip(s)", self.trips);
        let _ = writeln!(
            out,
            "  tracks: {} healthy / {} degraded / {} diverged ({:.1}% healthy)",
            self.tracks_healthy,
            self.tracks_degraded,
            self.tracks_diverged,
            self.healthy_fraction() * 100.0,
        );
        let _ = writeln!(
            out,
            "  monitor churn: {} degraded, {} recovered transitions",
            self.health_degraded_transitions, self.health_recovered_transitions,
        );
        let _ = writeln!(
            out,
            "  mean NIS: {:.3} over {} track(s); bands <1:{} 1-10:{} 10-100:{} >=100:{}",
            self.nis_mean,
            self.nis_tracks,
            self.nis_band_lt_1,
            self.nis_band_1_to_10,
            self.nis_band_10_to_100,
            self.nis_band_ge_100,
        );
        let _ = writeln!(
            out,
            "  gps dropouts: {} ({:.2} per trip)",
            self.gps_gaps, self.gps_gap_rate_per_trip,
        );
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recorder::Recorder;

    fn seeded_recorder() -> RunRecorder {
        let rec = RunRecorder::new();
        rec.incr(Counter::TripsProcessed, 4);
        rec.incr(Counter::TracksHealthy, 13);
        rec.incr(Counter::TracksDegraded, 2);
        rec.incr(Counter::TracksDiverged, 1);
        rec.incr(Counter::EkfHealthDegraded, 5);
        rec.incr(Counter::EkfHealthRecovered, 3);
        rec.incr(Counter::GpsGaps, 6);
        // One NIS sample per band.
        rec.observe(Histogram::EkfMeanNis, 0.4);
        rec.observe(Histogram::EkfMeanNis, 2.5);
        rec.observe(Histogram::EkfMeanNis, 40.0);
        rec.observe(Histogram::EkfMeanNis, 300.0);
        rec
    }

    #[test]
    fn from_run_folds_counters_and_bands() {
        let h = FleetHealth::from_run(&seeded_recorder());
        assert_eq!(h.trips, 4);
        assert_eq!(h.tracks_healthy, 13);
        assert_eq!(h.tracks_degraded, 2);
        assert_eq!(h.tracks_diverged, 1);
        assert_eq!(h.tracks_total(), 16);
        assert_eq!(h.health_degraded_transitions, 5);
        assert_eq!(h.health_recovered_transitions, 3);
        assert_eq!(h.gps_gaps, 6);
        assert!((h.gps_gap_rate_per_trip - 1.5).abs() < 1e-12);
        assert_eq!(h.nis_tracks, 4);
        assert!((h.nis_mean - (0.4 + 2.5 + 40.0 + 300.0) / 4.0).abs() < 1e-12);
        assert_eq!(h.nis_band_lt_1, 1);
        assert_eq!(h.nis_band_1_to_10, 1);
        assert_eq!(h.nis_band_10_to_100, 1);
        assert_eq!(h.nis_band_ge_100, 1);
        assert!((h.healthy_fraction() - 13.0 / 16.0).abs() < 1e-12);
    }

    #[test]
    fn bands_follow_the_sketch_edges() {
        let rec = RunRecorder::new();
        // 1.0 is a bucket edge: exact. 9.6 shares a bucket with 10 and
        // 104 one with 100, so both move a band (within the sketch
        // error); NaN counts below 1, +inf at or above 100.
        for v in [0.999, 1.0, 9.6, 104.0, f64::NAN, f64::INFINITY] {
            rec.observe(Histogram::EkfMeanNis, v);
        }
        let h = FleetHealth::from_run(&rec);
        assert_eq!(h.nis_tracks, 6);
        assert_eq!(
            (h.nis_band_lt_1, h.nis_band_1_to_10, h.nis_band_10_to_100, h.nis_band_ge_100),
            (2, 1, 2, 1)
        );
        assert!((h.nis_mean - (0.999 + 1.0 + 9.6 + 104.0) / 4.0).abs() < 1e-12);
    }

    #[test]
    fn window_range_matches_a_run_recorder() {
        let ts = TimeSeries::new(crate::timeseries::TimeSeriesConfig { window_ns: 10, windows: 4 });
        let rec = RunRecorder::new();
        for (w, (trips, gaps, nis)) in
            [(1, 0, 0.3), (2, 3, 4.0), (1, 1, 55.0)].into_iter().enumerate()
        {
            let t = w as u64 * 10;
            for (c, by) in [(Counter::TripsProcessed, trips), (Counter::GpsGaps, gaps)] {
                ts.incr_at(t, c, by);
                rec.incr(c, by);
            }
            ts.observe_at(t, Histogram::EkfMeanNis, nis);
            rec.observe(Histogram::EkfMeanNis, nis);
        }
        assert_eq!(FleetHealth::from_series(&ts, 3, 20), FleetHealth::from_run(&rec));
        // The last two windows only.
        let recent = FleetHealth::from_series(&ts, 2, 20);
        assert_eq!((recent.trips, recent.gps_gaps, recent.nis_tracks), (3, 4, 2));
        assert!((recent.gps_gap_rate_per_trip - 4.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn empty_run_reads_healthy() {
        let h = FleetHealth::from_run(&RunRecorder::new());
        assert_eq!(h, FleetHealth::default());
        assert_eq!(h.healthy_fraction(), 1.0);
        assert_eq!(h.gps_gap_rate_per_trip, 0.0);
    }

    #[test]
    fn health_json_round_trips() {
        let h = FleetHealth::from_run(&seeded_recorder());
        let json = serde_json::to_string_pretty(&h).expect("serialize");
        let back: FleetHealth = serde_json::from_str(&json).expect("parse");
        assert_eq!(back, h);
    }

    #[test]
    fn render_mentions_the_verdicts() {
        let text = FleetHealth::from_run(&seeded_recorder()).render();
        assert!(text.contains("13 healthy / 2 degraded / 1 diverged"));
        assert!(text.contains("gps dropouts: 6"));
    }
}
