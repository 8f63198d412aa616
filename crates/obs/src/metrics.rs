//! The metric taxonomy: every span, counter, and histogram the gradest
//! layers emit, as closed enums, plus the two domain enums telemetry is
//! keyed by — [`VelocitySource`] and [`FilterHealth`] — each naming its
//! own spans and counters.
//!
//! Typed ids (rather than string keys) keep recording allocation-free —
//! a recorder backs each id with a fixed array slot — and make the set
//! of emitted metrics a reviewable, testable surface: the obs snapshot
//! test pins exactly which ids one canonical trip touches.

use serde::{Deserialize, Serialize};

/// Wall-clock nanoseconds spent in each pipeline stage of one
/// `estimate_into` call (the per-trip stage split reported in
/// `BENCH_pipeline.json` and by `EstimatorScratch::stages`).
///
/// This started life inside the perf benchmarks; it lives here because
/// it is the same data the [`Span`] taxonomy aggregates — the pipeline
/// populates both from one set of stage timestamps.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct StageNanos {
    /// Stage 1: columnarization + steering profile + LOWESS smoothing.
    pub steering: u64,
    /// Stage 2: lane-change detection + steering-angle series.
    pub detection: u64,
    /// Stage 3: per-source EKF tracks (incl. RTS smoothing).
    pub tracks: u64,
    /// Stage 4: resampling + Eq-6 fusion.
    pub fusion: u64,
}

impl StageNanos {
    /// Total nanoseconds across all stages.
    pub fn total(&self) -> u64 {
        self.steering + self.detection + self.tracks + self.fusion
    }
}

/// One timed region of the system. Spans form a static forest (see
/// [`Span::parent`]): per-trip pipeline stages under [`Span::Trip`],
/// fleet-pool activity under [`Span::FleetBatch`], and cloud ingestion
/// under [`Span::CloudUpload`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Span {
    /// One full `estimate_into` call.
    Trip,
    /// Stage 1: columnarization + steering profile + LOWESS.
    Steering,
    /// Stage 2: lane-change detection + α(t) series.
    Detection,
    /// Stage 3: all per-source EKF tracks.
    Tracks,
    /// One GPS-source EKF track.
    TrackGps,
    /// One speedometer-source EKF track.
    TrackSpeedometer,
    /// One CAN-bus-source EKF track.
    TrackCanBus,
    /// One accelerometer-source EKF track.
    TrackAccelerometer,
    /// Stage 4: resampling + Eq-6 fusion.
    Fusion,
    /// One fleet batch, submission to the ordered result.
    FleetBatch,
    /// One trip processed by a fleet worker (its busy time).
    FleetWorkerTrip,
    /// One track ingested by the cloud aggregator.
    CloudUpload,
    /// One spatial-index construction over a road network.
    GeoIndexBuild,
    /// One trip map-matched against a whole network (free-space).
    NetworkMatchTrip,
    /// One request frame handled end-to-end by a `gradest-serve` worker.
    ServiceFrame,
    /// Wire-decode of one upload frame into the worker's scratch.
    ServiceDecode,
    /// One bbox tile query answered from the fused map.
    ServiceTileQuery,
    /// One STATUS frame answered (SLO/drift/quantile snapshot build).
    ServiceStatus,
}

impl Span {
    /// Every span, in report order.
    pub const ALL: [Span; 18] = [
        Span::Trip,
        Span::Steering,
        Span::Detection,
        Span::Tracks,
        Span::TrackGps,
        Span::TrackSpeedometer,
        Span::TrackCanBus,
        Span::TrackAccelerometer,
        Span::Fusion,
        Span::FleetBatch,
        Span::FleetWorkerTrip,
        Span::CloudUpload,
        Span::GeoIndexBuild,
        Span::NetworkMatchTrip,
        Span::ServiceFrame,
        Span::ServiceDecode,
        Span::ServiceTileQuery,
        Span::ServiceStatus,
    ];

    /// Number of spans (array-slot count for recorders).
    pub const COUNT: usize = Self::ALL.len();

    /// Stable report name.
    pub fn name(self) -> &'static str {
        match self {
            Span::Trip => "trip",
            Span::Steering => "steering",
            Span::Detection => "detection",
            Span::Tracks => "tracks",
            Span::TrackGps => "track:gps",
            Span::TrackSpeedometer => "track:speedometer",
            Span::TrackCanBus => "track:can-bus",
            Span::TrackAccelerometer => "track:accelerometer",
            Span::Fusion => "fusion",
            Span::FleetBatch => "fleet-batch",
            Span::FleetWorkerTrip => "fleet-worker-trip",
            Span::CloudUpload => "cloud-upload",
            Span::GeoIndexBuild => "geo-index-build",
            Span::NetworkMatchTrip => "network-match-trip",
            Span::ServiceFrame => "service-frame",
            Span::ServiceDecode => "service-decode",
            Span::ServiceTileQuery => "service-tile-query",
            Span::ServiceStatus => "service-status",
        }
    }

    /// The enclosing span, or `None` for a root.
    pub fn parent(self) -> Option<Span> {
        match self {
            Span::Trip
            | Span::FleetBatch
            | Span::CloudUpload
            | Span::GeoIndexBuild
            | Span::ServiceFrame => None,
            Span::Steering | Span::Detection | Span::Tracks | Span::Fusion => Some(Span::Trip),
            Span::TrackGps
            | Span::TrackSpeedometer
            | Span::TrackCanBus
            | Span::TrackAccelerometer => Some(Span::Tracks),
            Span::FleetWorkerTrip => Some(Span::FleetBatch),
            Span::NetworkMatchTrip => Some(Span::FleetWorkerTrip),
            Span::ServiceDecode | Span::ServiceTileQuery | Span::ServiceStatus => {
                Some(Span::ServiceFrame)
            }
        }
    }

    /// Nesting depth (0 for roots) — used by tree rendering.
    pub fn depth(self) -> usize {
        let mut d = 0usize;
        let mut cur = self;
        while let Some(p) = cur.parent() {
            d += 1;
            cur = p;
        }
        d
    }
}

/// A monotonically increasing count of discrete events.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Counter {
    /// Trips run through `estimate_into`.
    TripsProcessed,
    /// Lane changes accepted by Algorithm 1 (paired bumps passing Eq 1).
    LaneChangesDetected,
    /// Candidate bump pairs rejected as S-curves by the Eq-1
    /// displacement test (`|W| > 3·W_lane`).
    LaneChangesRejected,
    /// EKF predict steps (all sources).
    EkfPredicts,
    /// EKF measurement updates on the GPS track.
    EkfUpdatesGps,
    /// EKF measurement updates on the speedometer track.
    EkfUpdatesSpeedometer,
    /// EKF measurement updates on the CAN-bus track.
    EkfUpdatesCanBus,
    /// EKF measurement updates on the accelerometer track.
    EkfUpdatesAccelerometer,
    /// Jobs submitted to a fleet worker pool.
    FleetJobsSubmitted,
    /// Jobs completed by fleet workers.
    FleetJobsCompleted,
    /// Tracks ingested by the cloud aggregator.
    CloudUploads,
    /// Arc cells updated across all cloud uploads.
    CloudCellsTouched,
    /// `InnovationMonitor` transitions out of `Healthy` (any source).
    EkfHealthDegraded,
    /// `InnovationMonitor` transitions back to `Healthy` (any source).
    EkfHealthRecovered,
    /// Per-source tracks that finished their trip `Healthy`.
    TracksHealthy,
    /// Per-source tracks that finished their trip `Inconsistent`.
    TracksDegraded,
    /// Per-source tracks that finished their trip `Diverged` (latched).
    TracksDiverged,
    /// Gaps between valid GPS fixes longer than the dropout threshold.
    GpsGaps,
    /// Client connections accepted by `gradest-serve`.
    ServiceConnections,
    /// Request frames handled successfully (ACK/TILE/METRICS sent).
    ServiceFramesOk,
    /// Request frames rejected with a typed ERR frame (decode failure).
    ServiceFramesRejected,
    /// Connections or frames refused with a BUSY frame (queue full or
    /// draining).
    ServiceBusyRejects,
    /// Bbox tile queries answered.
    ServiceTileQueries,
    /// STATUS frames answered.
    ServiceStatusQueries,
    /// Uploads fused into the cloud aggregator and acknowledged.
    ServiceUploadsAcked,
    /// Quality drift alerts raised (any signal entering `Drifting`).
    QualityAlertsRaised,
    /// Quality drift alerts cleared (any signal returning to `Ok`).
    QualityAlertsCleared,
}

impl Counter {
    /// Every counter, in report order.
    pub const ALL: [Counter; 27] = [
        Counter::TripsProcessed,
        Counter::LaneChangesDetected,
        Counter::LaneChangesRejected,
        Counter::EkfPredicts,
        Counter::EkfUpdatesGps,
        Counter::EkfUpdatesSpeedometer,
        Counter::EkfUpdatesCanBus,
        Counter::EkfUpdatesAccelerometer,
        Counter::FleetJobsSubmitted,
        Counter::FleetJobsCompleted,
        Counter::CloudUploads,
        Counter::CloudCellsTouched,
        Counter::EkfHealthDegraded,
        Counter::EkfHealthRecovered,
        Counter::TracksHealthy,
        Counter::TracksDegraded,
        Counter::TracksDiverged,
        Counter::GpsGaps,
        Counter::ServiceConnections,
        Counter::ServiceFramesOk,
        Counter::ServiceFramesRejected,
        Counter::ServiceBusyRejects,
        Counter::ServiceTileQueries,
        Counter::ServiceStatusQueries,
        Counter::ServiceUploadsAcked,
        Counter::QualityAlertsRaised,
        Counter::QualityAlertsCleared,
    ];

    /// Number of counters (array-slot count for recorders).
    pub const COUNT: usize = Self::ALL.len();

    /// Stable report name.
    pub fn name(self) -> &'static str {
        match self {
            Counter::TripsProcessed => "trips-processed",
            Counter::LaneChangesDetected => "lane-changes-detected",
            Counter::LaneChangesRejected => "lane-changes-rejected",
            Counter::EkfPredicts => "ekf-predicts",
            Counter::EkfUpdatesGps => "ekf-updates:gps",
            Counter::EkfUpdatesSpeedometer => "ekf-updates:speedometer",
            Counter::EkfUpdatesCanBus => "ekf-updates:can-bus",
            Counter::EkfUpdatesAccelerometer => "ekf-updates:accelerometer",
            Counter::FleetJobsSubmitted => "fleet-jobs-submitted",
            Counter::FleetJobsCompleted => "fleet-jobs-completed",
            Counter::CloudUploads => "cloud-uploads",
            Counter::CloudCellsTouched => "cloud-cells-touched",
            Counter::EkfHealthDegraded => "ekf-health-degraded",
            Counter::EkfHealthRecovered => "ekf-health-recovered",
            Counter::TracksHealthy => "tracks-healthy",
            Counter::TracksDegraded => "tracks-degraded",
            Counter::TracksDiverged => "tracks-diverged",
            Counter::GpsGaps => "gps-gaps",
            Counter::ServiceConnections => "service-connections",
            Counter::ServiceFramesOk => "service-frames-ok",
            Counter::ServiceFramesRejected => "service-frames-rejected",
            Counter::ServiceBusyRejects => "service-busy-rejects",
            Counter::ServiceTileQueries => "service-tile-queries",
            Counter::ServiceStatusQueries => "service-status-queries",
            Counter::ServiceUploadsAcked => "service-uploads-acked",
            Counter::QualityAlertsRaised => "quality-alerts-raised",
            Counter::QualityAlertsCleared => "quality-alerts-cleared",
        }
    }
}

/// A distribution of observed values (exact summary statistics plus a
/// log-linear sketch — see `obs::timeseries`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Histogram {
    /// EKF velocity innovation `v̂ − v` at each measurement update, m/s.
    EkfInnovation,
    /// Per-trip mean Eq-6 fusion weight of the GPS track.
    FusionWeightGps,
    /// Per-trip mean Eq-6 fusion weight of the speedometer track.
    FusionWeightSpeedometer,
    /// Per-trip mean Eq-6 fusion weight of the CAN-bus track.
    FusionWeightCanBus,
    /// Per-trip mean Eq-6 fusion weight of the accelerometer track.
    FusionWeightAccelerometer,
    /// Absolute Eq-1 horizontal displacement of accepted lane changes, m.
    LaneChangeDisplacement,
    /// Per-worker busy fraction over the worker's lifetime, 0..1.
    FleetWorkerUtilization,
    /// Per-track windowed mean NIS at trip end (consistency statistic
    /// of the `InnovationMonitor`; ~1 when the filter is honest).
    EkfMeanNis,
    /// Length of each detected GPS dropout, seconds.
    GpsGapSeconds,
}

impl Histogram {
    /// Every histogram, in report order.
    pub const ALL: [Histogram; 9] = [
        Histogram::EkfInnovation,
        Histogram::FusionWeightGps,
        Histogram::FusionWeightSpeedometer,
        Histogram::FusionWeightCanBus,
        Histogram::FusionWeightAccelerometer,
        Histogram::LaneChangeDisplacement,
        Histogram::FleetWorkerUtilization,
        Histogram::EkfMeanNis,
        Histogram::GpsGapSeconds,
    ];

    /// Number of histograms (array-slot count for recorders).
    pub const COUNT: usize = Self::ALL.len();

    /// Stable report name.
    pub fn name(self) -> &'static str {
        match self {
            Histogram::EkfInnovation => "ekf-innovation",
            Histogram::FusionWeightGps => "fusion-weight:gps",
            Histogram::FusionWeightSpeedometer => "fusion-weight:speedometer",
            Histogram::FusionWeightCanBus => "fusion-weight:can-bus",
            Histogram::FusionWeightAccelerometer => "fusion-weight:accelerometer",
            Histogram::LaneChangeDisplacement => "lane-change-displacement",
            Histogram::FleetWorkerUtilization => "fleet-worker-utilization",
            Histogram::EkfMeanNis => "ekf-mean-nis",
            Histogram::GpsGapSeconds => "gps-gap-seconds",
        }
    }
}

/// A velocity source feeding one EKF track (Section III-C3: "vehicle
/// velocity can be obtained through different ways such as GPS data,
/// speedometer and accelerometer", plus CAN-bus over Bluetooth).
///
/// The one statement of the source list: `ALL[i]` is lane `i` of the
/// fused track sweep and slot `i` of the
/// [`TraceEvent::FusionWeights`](crate::trace::TraceEvent::FusionWeights)
/// array, and each source names its own telemetry ids.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum VelocitySource {
    /// GPS Doppler speed (1 Hz, outage-prone).
    Gps,
    /// Speedometer app (10 Hz, slight scale bias).
    Speedometer,
    /// CAN-bus wheel speed (20 Hz, quantized).
    CanBus,
    /// Velocity integrated from the accelerometer, drift-corrected toward
    /// GPS with a slow complementary filter.
    Accelerometer,
}

impl VelocitySource {
    /// All four sources, in the paper's order (`ALL[i] as usize == i`).
    pub const ALL: [VelocitySource; 4] = [
        VelocitySource::Gps,
        VelocitySource::Speedometer,
        VelocitySource::CanBus,
        VelocitySource::Accelerometer,
    ];

    /// Stable label: the track label, and the suffix of the source's
    /// span, counter and histogram names.
    pub fn label(self) -> &'static str {
        match self {
            VelocitySource::Gps => "gps",
            VelocitySource::Speedometer => "speedometer",
            VelocitySource::CanBus => "can-bus",
            VelocitySource::Accelerometer => "accelerometer",
        }
    }

    /// The span of the source's track staging (`track:<label>`).
    pub fn span(self) -> Span {
        match self {
            VelocitySource::Gps => Span::TrackGps,
            VelocitySource::Speedometer => Span::TrackSpeedometer,
            VelocitySource::CanBus => Span::TrackCanBus,
            VelocitySource::Accelerometer => Span::TrackAccelerometer,
        }
    }

    /// The counter of the source's EKF updates (`ekf-updates:<label>`).
    pub fn update_counter(self) -> Counter {
        match self {
            VelocitySource::Gps => Counter::EkfUpdatesGps,
            VelocitySource::Speedometer => Counter::EkfUpdatesSpeedometer,
            VelocitySource::CanBus => Counter::EkfUpdatesCanBus,
            VelocitySource::Accelerometer => Counter::EkfUpdatesAccelerometer,
        }
    }

    /// The histogram of the source track's per-trip mean Eq-6 fusion
    /// weight (`fusion-weight:<label>`); `const`, so the drift monitor
    /// names its canary histogram through it.
    pub const fn fusion_weight(self) -> Histogram {
        match self {
            VelocitySource::Gps => Histogram::FusionWeightGps,
            VelocitySource::Speedometer => Histogram::FusionWeightSpeedometer,
            VelocitySource::CanBus => Histogram::FusionWeightCanBus,
            VelocitySource::Accelerometer => Histogram::FusionWeightAccelerometer,
        }
    }
}

/// Health verdict of a monitored filter (`gradest_core`'s NIS
/// innovation monitor), ordered by severity: the worst of several
/// verdicts is their `max`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub enum FilterHealth {
    /// Innovations are consistent with the filter's covariance.
    #[default]
    Healthy,
    /// Innovations run persistently hot (underestimated noise or model
    /// mismatch) — estimates remain usable but variances are optimistic.
    Inconsistent,
    /// Innovations are far outside bounds; estimates should be discarded
    /// and the filter re-initialized.
    Diverged,
}

impl FilterHealth {
    /// Stable name (trace lines and trace-event arguments).
    pub fn name(self) -> &'static str {
        match self {
            FilterHealth::Healthy => "healthy",
            FilterHealth::Inconsistent => "inconsistent",
            FilterHealth::Diverged => "diverged",
        }
    }

    /// The counter of tracks that finish their trip with this verdict.
    pub fn track_counter(self) -> Counter {
        match self {
            FilterHealth::Healthy => Counter::TracksHealthy,
            FilterHealth::Inconsistent => Counter::TracksDegraded,
            FilterHealth::Diverged => Counter::TracksDiverged,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique() {
        let mut names: Vec<&str> = Span::ALL.iter().map(|s| s.name()).collect();
        names.extend(Counter::ALL.iter().map(|c| c.name()));
        names.extend(Histogram::ALL.iter().map(|h| h.name()));
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "duplicate metric name");
    }

    #[test]
    fn span_forest_is_acyclic_and_shallow() {
        for s in Span::ALL {
            assert!(s.depth() <= 2, "{} unexpectedly deep", s.name());
            if let Some(p) = s.parent() {
                assert!(Span::ALL.contains(&p));
            }
        }
        assert_eq!(Span::Trip.depth(), 0);
        assert_eq!(Span::TrackGps.depth(), 2);
        assert_eq!(Span::TrackGps.parent(), Some(Span::Tracks));
    }

    #[test]
    fn stage_nanos_total() {
        let s = StageNanos { steering: 1, detection: 2, tracks: 3, fusion: 4 };
        assert_eq!(s.total(), 10);
    }

    #[test]
    fn each_source_and_verdict_names_its_own_ids() {
        for (i, source) in VelocitySource::ALL.into_iter().enumerate() {
            assert_eq!(i, source as usize, "VelocitySource::ALL out of declaration order");
            let label = source.label();
            assert_eq!(source.span().name(), format!("track:{label}"));
            assert_eq!(source.update_counter().name(), format!("ekf-updates:{label}"));
            assert_eq!(source.fusion_weight().name(), format!("fusion-weight:{label}"));
        }
        let verdicts = [
            (FilterHealth::Healthy, "healthy", "tracks-healthy"),
            (FilterHealth::Inconsistent, "inconsistent", "tracks-degraded"),
            (FilterHealth::Diverged, "diverged", "tracks-diverged"),
        ];
        for (health, name, counter) in verdicts {
            assert_eq!(health.name(), name);
            assert_eq!(health.track_counter().name(), counter);
        }
        assert!(FilterHealth::Healthy < FilterHealth::Inconsistent);
        assert!(FilterHealth::Inconsistent < FilterHealth::Diverged);
        assert_eq!(FilterHealth::default(), FilterHealth::Healthy);
    }

    #[test]
    fn enum_discriminants_match_all_order() {
        for (i, s) in Span::ALL.iter().enumerate() {
            assert_eq!(*s as usize, i, "Span::ALL out of declaration order");
        }
        for (i, c) in Counter::ALL.iter().enumerate() {
            assert_eq!(*c as usize, i, "Counter::ALL out of declaration order");
        }
        for (i, h) in Histogram::ALL.iter().enumerate() {
            assert_eq!(*h as usize, i, "Histogram::ALL out of declaration order");
        }
    }
}
