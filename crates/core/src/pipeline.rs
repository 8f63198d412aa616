//! The end-to-end gradient estimation pipeline (paper Figure 1).
//!
//! [`GradientEstimator::estimate`] consumes one trip's [`SensorLog`] and
//! produces per-source [`GradientTrack`]s plus their Eq-6 fusion:
//!
//! 1. steering profile from the coordinate alignment system (+ LOWESS);
//! 2. lane-change detection (Algorithm 1) and Eq-2 velocity correction;
//! 3. one EKF per velocity source (GPS, speedometer, CAN, accelerometer),
//!    predicting with the measured longitudinal acceleration at IMU rate
//!    and updating with that source's velocity measurements;
//! 4. track fusion by convex combination.

use crate::diagnostics::{FilterHealth, InnovationMonitor};
use crate::ekf::EkfConfig;
use crate::ekf_lanes::{EkfLanes, MAX_LANES};
use crate::fusion::fuse_tracks_into;
use crate::lane_change::{Bump, LaneChangeConfig, LaneChangeDetection, LaneChangeDetector};
use crate::smoother::{rts_step, RtsStep};
use crate::steering::{smooth_profile_into, SmoothedProfile};
use crate::track::GradientTrack;
use gradest_geo::Route;
use gradest_math::lowess::LowessScratch;
use gradest_math::{Mat2, Vec2};
use gradest_obs::{
    Counter, Histogram, NoopRecorder, Recorder, Span, SpanTimer, TraceEvent, TraceHealth,
    TraceSource,
};
use gradest_sensors::alignment::{steering_rate_profile_into, MapMatcher, WRoadScratch};
use gradest_sensors::columnar::ImuColumns;
use gradest_sensors::samples::SpeedSample;
use gradest_sensors::suite::SensorLog;
use serde::{Deserialize, Serialize};
use std::time::Instant;

/// A velocity source feeding one EKF track (Section III-C3: "vehicle
/// velocity can be obtained through different ways such as GPS data,
/// speedometer and accelerometer", plus CAN-bus over Bluetooth).
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
    /// All four sources, in the paper's order.
    pub const ALL: [VelocitySource; 4] = [
        VelocitySource::Gps,
        VelocitySource::Speedometer,
        VelocitySource::CanBus,
        VelocitySource::Accelerometer,
    ];

    /// Human-readable label used on tracks.
    pub fn label(self) -> &'static str {
        match self {
            VelocitySource::Gps => "gps",
            VelocitySource::Speedometer => "speedometer",
            VelocitySource::CanBus => "can-bus",
            VelocitySource::Accelerometer => "accelerometer",
        }
    }
}

/// Pipeline configuration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EstimatorConfig {
    /// EKF model and tuning.
    pub ekf: EkfConfig,
    /// Lane-change detector thresholds.
    pub lane_change: LaneChangeConfig,
    /// Which velocity sources to run (one EKF track each).
    pub sources: Vec<VelocitySource>,
    /// Arc spacing of the fused output grid, metres.
    pub track_ds: f64,
    /// Measurement variance for GPS speed, (m/s)².
    pub r_gps: f64,
    /// Measurement variance for the speedometer, (m/s)².
    pub r_speedometer: f64,
    /// Measurement variance for CAN wheel speed, (m/s)².
    pub r_can: f64,
    /// Measurement variance for accelerometer-integrated velocity,
    /// (m/s)².
    pub r_accelerometer: f64,
    /// Complementary-filter time constant pulling the integrated
    /// accelerometer velocity toward GPS, seconds.
    pub accel_blend_tau_s: f64,
    /// Disable the Eq-2 lane-change velocity correction (ablation).
    pub disable_lane_correction: bool,
    /// Apply a backward RTS smoothing pass over each track (batch-mode
    /// accuracy; the paper's filter is forward-only — disable for strict
    /// paper fidelity or causal comparisons).
    pub rts_smoothing: bool,
}

impl Default for EstimatorConfig {
    fn default() -> Self {
        EstimatorConfig {
            ekf: EkfConfig::default(),
            lane_change: LaneChangeConfig::default(),
            sources: VelocitySource::ALL.to_vec(),
            track_ds: 5.0,
            r_gps: 0.15,
            r_speedometer: 0.04,
            r_can: 0.01,
            r_accelerometer: 1.5,
            accel_blend_tau_s: 3.0,
            disable_lane_correction: false,
            rts_smoothing: true,
        }
    }
}

impl EstimatorConfig {
    /// Measurement variance of one velocity source's EKF updates.
    fn source_variance(&self, source: VelocitySource) -> f64 {
        match source {
            VelocitySource::Gps => self.r_gps,
            VelocitySource::Speedometer => self.r_speedometer,
            VelocitySource::CanBus => self.r_can,
            VelocitySource::Accelerometer => self.r_accelerometer,
        }
    }
}

/// Wall-clock nanoseconds per pipeline stage of the most recent
/// [`GradientEstimator::estimate_into`] call (stored in the scratch).
///
/// The type itself lives in `gradest-obs` (re-exported here for
/// compatibility): it is the same stage split the observability span
/// taxonomy aggregates, and the bench reports embed it as JSON.
pub use gradest_obs::StageNanos;

/// Per-source working set for one EKF track: measurement staging, filter
/// history, and the track under construction.
#[derive(Debug, Clone, Default)]
struct TrackScratch {
    measurements: Vec<(f64, f64)>,
    history: Vec<RtsStep>,
    track: GradientTrack,
    // Lazily built on the first *recorded* trip and then reset-and-
    // reused (reset keeps the window's capacity), so the warm recorded
    // path monitors filter consistency without allocating. Never
    // touched by un-recorded runs.
    monitor: Option<InnovationMonitor>,
}

/// Reusable working memory for [`GradientEstimator::estimate_into`].
///
/// Every intermediate of the per-trip pipeline lives here: columnar IMU
/// views, the steering/LOWESS buffers, lane-change staging, per-source
/// track scratch, and the fusion staging. The first trip grows the
/// buffers; every subsequent trip of similar size runs without touching
/// the allocator (the `pipeline_hotpath` experiment asserts exactly
/// zero warm-path allocations).
#[derive(Debug, Clone, Default)]
pub struct EstimatorScratch {
    imu_cols: ImuColumns,
    wroad: WRoadScratch,
    w_raw: Vec<f64>,
    lowess: LowessScratch,
    profile: SmoothedProfile,
    bumps: Vec<Bump>,
    detections: Vec<LaneChangeDetection>,
    alpha: Vec<f64>,
    speed_t: Vec<f64>,
    speed_v: Vec<f64>,
    matched_s: Vec<f64>,
    tracks: Vec<TrackScratch>,
    // A recorded trip's EKF innovations in observation order, handed to
    // the recorder in one batch after the lane sweep. Never touched by
    // un-recorded runs.
    innovations: Vec<f64>,
    distances: Vec<f64>,
    stages: StageNanos,
}

impl EstimatorScratch {
    /// Creates an empty scratch (buffers grow on first use).
    pub fn new() -> Self {
        EstimatorScratch::default()
    }

    /// Per-stage wall-clock timings of the most recent estimate run
    /// through this scratch.
    pub fn stages(&self) -> StageNanos {
        self.stages
    }
}

/// Output of one trip's estimation.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct GradientEstimate {
    /// Per-source tracks, aligned on the fused grid.
    pub tracks: Vec<GradientTrack>,
    /// The Eq-6 fusion of all tracks.
    pub fused: GradientTrack,
    /// Detected lane changes.
    pub detections: Vec<LaneChangeDetection>,
    /// Estimated distance travelled, metres (median across sources).
    pub distance_m: f64,
}

/// The end-to-end estimator.
///
/// [`Self::new`] is the only constructor, so every estimator holds a
/// configuration the fused track sweep can run.
#[derive(Debug, Clone, PartialEq)]
pub struct GradientEstimator {
    config: EstimatorConfig,
}

impl GradientEstimator {
    /// Creates an estimator. A source that `config.sources` repeats runs
    /// once, at its first position, so there is at most one lane of the
    /// fused track sweep per [`VelocitySource`].
    pub fn new(mut config: EstimatorConfig) -> Self {
        let mut sources = Vec::with_capacity(MAX_LANES);
        for source in config.sources {
            if !sources.contains(&source) {
                sources.push(source);
            }
        }
        config.sources = sources;
        GradientEstimator { config }
    }

    /// The active configuration.
    pub fn config(&self) -> &EstimatorConfig {
        &self.config
    }

    /// Runs the full pipeline over one trip.
    ///
    /// `map` is the known road geometry used to derive `w_road` for the
    /// steering profile; pass `None` on unmapped roads (lane-change
    /// detection then relies entirely on the Eq-1 displacement test).
    ///
    /// A log outside the accepted domain ([`SensorLog::validate`]) gives
    /// the empty estimate: no tracks or detections, an empty `"fused"`
    /// track and zero distance.
    ///
    /// Allocating convenience over [`Self::estimate_into`] — it builds a
    /// fresh [`EstimatorScratch`] per call. Batch callers should hold one
    /// scratch per worker instead.
    pub fn estimate(&self, log: &SensorLog, map: Option<&Route>) -> GradientEstimate {
        let mut out = GradientEstimate::default();
        self.estimate_into(log, map, &mut EstimatorScratch::new(), &mut out);
        out
    }

    /// The fully in-place pipeline: reads `log`, stages everything in
    /// `scratch`, overwrites `out`. With both warm (from a previous trip
    /// of similar size) the entire call runs without heap allocation —
    /// the property the `pipeline_hotpath` experiment gates on.
    ///
    /// Instantiates [`Self::estimate_into_recorded`] with the
    /// [`NoopRecorder`], whose monomorphized instrumentation compiles
    /// to nothing — same machine code as the pre-observability
    /// pipeline, bit-identical output.
    pub fn estimate_into(
        &self,
        log: &SensorLog,
        map: Option<&Route>,
        scratch: &mut EstimatorScratch,
        out: &mut GradientEstimate,
    ) {
        self.estimate_into_recorded(log, map, scratch, out, &NoopRecorder);
    }

    /// [`Self::estimate_into`] reporting to an observability
    /// [`Recorder`]. All instrumentation-only work (extra clock reads,
    /// derived statistics) sits behind `rec.enabled()`, and the
    /// recording sinks themselves are allocation-free, so the warm-path
    /// zero-allocation invariant holds for the no-op recorder *and* for
    /// `gradest_obs::RunRecorder` — `pipeline_hotpath_smoke` gates both.
    /// A log outside the accepted domain records nothing.
    pub fn estimate_into_recorded<R: Recorder>(
        &self,
        log: &SensorLog,
        map: Option<&Route>,
        scratch: &mut EstimatorScratch,
        out: &mut GradientEstimate,
        rec: &R,
    ) {
        if log.validate().is_err() {
            out.tracks.clear();
            clear_fused(&mut out.fused);
            out.detections.clear();
            out.distance_m = 0.0;
            scratch.stages = StageNanos::default();
            return;
        }
        if rec.enabled() {
            rec.event(TraceEvent::TripStart);
            record_gps_gaps(rec, log);
        }
        let cfg = &self.config;
        let dt = log.imu_dt();
        // Split the scratch into disjoint borrows so stage outputs can be
        // read while later stages fill their own buffers.
        let EstimatorScratch {
            imu_cols,
            wroad,
            w_raw,
            lowess,
            profile,
            bumps,
            detections,
            alpha,
            speed_t,
            speed_v,
            matched_s,
            tracks: track_scratch,
            innovations,
            distances,
            stages,
        } = scratch;
        let t0 = Instant::now();

        // 1. Steering profile, columnar: transpose the IMU once, then
        //    every pass reads contiguous slices.
        imu_cols.fill_from(&log.imu);
        steering_rate_profile_into(&imu_cols.t, &imu_cols.gyro_z, &log.gps, map, wroad, w_raw);
        smooth_profile_into(
            &imu_cols.t,
            w_raw,
            cfg.lane_change.smoothing_window_s,
            lowess,
            profile,
        );
        let t1 = Instant::now();

        // 2. Lane-change detection; Eq 1 uses the speedometer (fallback:
        //    GPS, then a constant urban speed).
        fill_speed_series(log, speed_t, speed_v);
        let v_lookup = SpeedLookup::new(speed_t, speed_v);
        let detector = LaneChangeDetector::new(cfg.lane_change);
        let lc_stats =
            detector.detect_into_recorded(profile, &|t| v_lookup.at(t), bumps, detections, rec);
        if rec.enabled() {
            rec.incr(Counter::LaneChangesDetected, lc_stats.detected);
            rec.incr(Counter::LaneChangesRejected, lc_stats.scurve_rejected);
            for det in detections.iter() {
                rec.observe(Histogram::LaneChangeDisplacement, det.displacement_m.abs());
            }
        }
        // Steering angle α(t) within detection windows (zero elsewhere),
        // for the Eq-2 correction of arbitrary-time measurements.
        steering_angle_series_into(profile, detections, alpha);
        let t2 = Instant::now();

        // 3. One EKF per source, all advanced together by the fused SoA
        //    sweep ([`crate::ekf_lanes`]): one pass over the columnar IMU
        //    with one transcendental set per sample instead of one per
        //    sample per source. `new` keeps each source once, so the
        //    sources fit the lanes.
        let n_src = cfg.sources.len();
        if track_scratch.len() < n_src {
            track_scratch.resize_with(n_src, TrackScratch::default);
        }
        // Map-match the GPS fixes once for the whole trip: `match_s` is a
        // function of the fix positions and the matcher's own sequential
        // state only, so every source track would recompute the identical
        // arc sequence (~40 route probes per fix each). Invalid fixes
        // hold a NaN placeholder to keep indices aligned and do not
        // advance the matcher; the sweep skips them.
        matched_s.clear();
        if let Some(route) = map {
            matched_s.reserve(log.gps.len());
            let mut matcher = MapMatcher::new(route);
            for fix in &log.gps {
                matched_s.push(if fix.valid { matcher.match_s(fix.position) } else { f64::NAN });
            }
        }
        self.run_ekf_lanes_into(
            log,
            imu_cols,
            profile,
            alpha,
            dt,
            matched_s,
            &mut track_scratch[..n_src],
            innovations,
            rec,
        );
        let t3 = Instant::now();

        // 4. Fuse on a common grid.
        distances.clear();
        distances.extend(track_scratch[..n_src].iter().filter_map(|ts| ts.track.s.last().copied()));
        // Insertion sort: at most one distance per source, and
        // `slice::sort_by` allocates its merge buffer.
        for i in 1..distances.len() {
            let mut j = i;
            // lint:allow(hot-index) j > 0 on the left of && bounds j - 1
            while j > 0 && distances[j - 1] > distances[j] {
                distances.swap(j - 1, j);
                j -= 1;
            }
        }
        let length = distances.first().copied().unwrap_or(0.0);
        // A fusion grid with more points than the trip has IMU samples
        // (or a non-finite length) means the odometer ran away on a
        // hostile log, e.g. a huge IMU time gap stepped at the first
        // interval: give the empty estimate instead of resampling onto
        // it. Honest trips stay below 250 m/s at 50 Hz and 5 m spacing.
        if length.is_nan() || length > cfg.track_ds * log.imu.len() as f64 {
            distances.clear();
        }
        // One distance per non-empty track.
        out.tracks.resize_with(distances.len(), GradientTrack::default);
        let aligned = track_scratch[..n_src].iter().filter(|ts| !ts.track.is_empty());
        for (ts, track) in aligned.zip(out.tracks.iter_mut()) {
            ts.track.resample_into(length, cfg.track_ds, track);
        }
        if fuse_tracks_into(&out.tracks, &mut out.fused).is_err() {
            clear_fused(&mut out.fused);
        }
        out.detections.clear();
        out.detections.extend_from_slice(detections);
        // lint:allow(hot-index) len / 2 < len on the nonempty branch
        out.distance_m = if distances.is_empty() { 0.0 } else { distances[distances.len() / 2] };
        let t4 = Instant::now();
        *stages = StageNanos {
            steering: (t1 - t0).as_nanos() as u64,
            detection: (t2 - t1).as_nanos() as u64,
            tracks: (t3 - t2).as_nanos() as u64,
            fusion: (t4 - t3).as_nanos() as u64,
        };
        if rec.enabled() {
            // Stage spans reuse the timestamps taken for `stages` — the
            // enabled path adds no clock reads here.
            rec.record_span(Span::Steering, stages.steering);
            rec.record_span(Span::Detection, stages.detection);
            rec.record_span(Span::Tracks, stages.tracks);
            rec.record_span(Span::Fusion, stages.fusion);
            rec.record_span(Span::Trip, stages.total());
            rec.incr(Counter::TripsProcessed, 1);
            record_fusion_weights(rec, &out.tracks, &out.fused);
            rec.event(TraceEvent::TripEnd { detections: out.detections.len() as u32 });
        }
    }

    /// Builds the `(t, v)` measurement series for one source into a
    /// caller-owned buffer (overwritten).
    fn measurement_series_into(
        &self,
        log: &SensorLog,
        source: VelocitySource,
        out: &mut Vec<(f64, f64)>,
    ) {
        out.clear();
        match source {
            VelocitySource::Gps => out.extend(gps_speeds(log)),
            VelocitySource::Speedometer => out.extend(speeds(&log.speedometer)),
            VelocitySource::CanBus => out.extend(speeds(&log.can)),
            VelocitySource::Accelerometer => self.integrate_accel_velocity_into(log, out),
        }
    }

    /// Velocity from the accelerometer: raw integration of the
    /// longitudinal specific force, drift-corrected toward the latest GPS
    /// speed with time constant `accel_blend_tau_s`. Emitted at 10 Hz into
    /// a caller-owned buffer (already cleared by the caller).
    fn integrate_accel_velocity_into(&self, log: &SensorLog, out: &mut Vec<(f64, f64)>) {
        let tau = self.config.accel_blend_tau_s.max(1.0);
        let mut gps_iter = gps_speeds(log).peekable();
        let mut latest_gps: Option<f64> = None;
        let mut v = gps_speeds(log).next().map(|(_, v)| v).unwrap_or(10.0);
        let mut last_t = log.imu.first().map(|s| s.t).unwrap_or(0.0);
        let mut next_emit = last_t;
        for imu in &log.imu {
            let dt = (imu.t - last_t).max(0.0);
            last_t = imu.t;
            while let Some(&(t, speed)) = gps_iter.peek() {
                if t <= imu.t {
                    latest_gps = Some(speed);
                    gps_iter.next();
                } else {
                    break;
                }
            }
            // Integrate the specific force (contains the g·sinθ leak —
            // that is exactly why this is the worst source) and bleed
            // toward GPS.
            v += imu.accel_long * dt;
            if let Some(g) = latest_gps {
                v += (g - v) * (dt / tau);
            }
            v = v.max(0.0);
            if imu.t >= next_emit {
                out.push((imu.t, v));
                next_emit += 0.1;
            }
        }
    }

    /// Fused SoA track stage: runs up to [`MAX_LANES`] source tracks
    /// through one [`EkfLanes`] filter in a single pass over the columnar
    /// IMU, then smooths all lanes with one interleaved backward RTS
    /// recursion, leaving one arc-indexed track per source in
    /// `lanes[l].track`. Per lane this executes the operation sequence of
    /// one scalar filter per source (same predict/update arithmetic, same
    /// cursor advances, same anchor order), so each lane's track is
    /// bit-identical to that filter's;
    /// `fused_lanes_bit_identical_to_scalar_tracks` pins the lanes
    /// against the scalar oracle run per source in the tests.
    ///
    /// Arc positioning integrates the EKF velocity (odometry) and, when
    /// map-matched GPS arc positions are available (`matched_s`, one entry
    /// per GPS fix, NaN for an invalid fix, empty without a map),
    /// anchors the odometer to them — the phone records a position with
    /// every estimate, so pure dead-reckoning drift (≈1 % of distance from
    /// the speedometer's scale error) would be an artificial handicap.
    ///
    /// The shared sweep halves the dominating per-sample cost: the
    /// `sin`/`cos` pair and the GPS cursor advance are computed once per
    /// sample instead of once per sample per source, and the covariance
    /// propagation runs as one unrolled loop across lanes.
    ///
    /// Per-source spans (`track:gps`, …) cover only the staging work here
    /// (measurement series + buffer resets); the shared sweep and RTS
    /// pass are attributed to the `tracks` stage span. DESIGN.md §11
    /// records this semantics change.
    ///
    /// A live recorder gets the trip's EKF innovations in one
    /// `observe_many` batch after the sweep, staged in `innovations` in
    /// the order the updates ran, so a sink pays its per-call cost (the
    /// live ring's lock and clock read) once per trip, not per update.
    #[allow(clippy::too_many_arguments)]
    fn run_ekf_lanes_into<R: Recorder>(
        &self,
        log: &SensorLog,
        imu_cols: &ImuColumns,
        profile: &SmoothedProfile,
        alpha: &[f64],
        dt: f64,
        matched_s: &[f64],
        lanes: &mut [TrackScratch],
        innovations: &mut Vec<f64>,
        rec: &R,
    ) {
        let cfg = &self.config;
        debug_assert!(lanes.len() <= MAX_LANES);
        let n_imu = imu_cols.len();
        // Per-lane staging: measurement series, buffer resets, monitor
        // reset, and the R / initial-velocity capture the sweep reads.
        let mut srcs = [VelocitySource::Gps; MAX_LANES];
        let mut rs = [1.0f64; MAX_LANES];
        let mut v0 = [10.0f64; MAX_LANES];
        for (l, (ts, &source)) in lanes.iter_mut().zip(&cfg.sources).enumerate() {
            let timer = SpanTimer::start(rec);
            self.measurement_series_into(log, source, &mut ts.measurements);
            srcs[l] = source;
            rs[l] = cfg.source_variance(source);
            v0[l] = ts.measurements.first().map(|m| m.1).unwrap_or(10.0);
            if rec.enabled() {
                let mon = ts.monitor.get_or_insert_with(InnovationMonitor::default);
                mon.reset();
            }
            ts.track.label.clear();
            ts.track.label.push_str(source.label());
            ts.track.s.clear();
            ts.track.theta.clear();
            ts.track.variance.clear();
            ts.history.clear();
            timer.finish(rec, track_span(source));
        }
        if rec.enabled() {
            // Each update consumes one staged measurement, so the sweep
            // never grows the buffer past this.
            innovations.clear();
            innovations.reserve(lanes.iter().map(|ts| ts.measurements.len()).sum());
        }
        let mut ekf = EkfLanes::new(cfg.ekf, v0);
        let rts = cfg.rts_smoothing;
        let mut s_arc = [0.0f64; MAX_LANES];
        let mut m_idx = [0usize; MAX_LANES];
        // Measurement times are non-decreasing, so the α lookup advances
        // a per-lane cursor exactly as the scalar path does.
        let mut a_idx = [0usize; MAX_LANES];
        let mut updates = [0u64; MAX_LANES];
        let mut gps_idx = 0usize;
        for i in 0..n_imu {
            let ti = imu_cols.t[i];
            // One shared predict advances every lane (inactive lanes ride
            // along; their state is never read).
            ekf.predict(imu_cols.accel_long[i], dt);
            // GPS fixes crossing this sample anchor every lane, so the
            // cursor advances once and the lanes replay the range.
            let gps_lo = gps_idx;
            while log.gps.get(gps_idx).is_some_and(|fix| fix.t <= ti) {
                gps_idx += 1;
            }
            for (l, ts) in lanes.iter_mut().enumerate() {
                let x_pred = ekf.state(l);
                let p_pred = ekf.covariance(l);
                let f = ekf.jacobian(l);
                let measurements: &[(f64, f64)] = &ts.measurements;
                let mut mi = m_idx[l];
                let mut ai = a_idx[l];
                while mi < measurements.len() && measurements[mi].0 <= ti {
                    let (mt, mv) = measurements[mi];
                    // Eq 2: longitudinal velocity during lane changes;
                    // α is exactly 0.0 outside detection windows, and
                    // `mv * cos(0) == mv` bit-for-bit — skip the cosine.
                    let corrected = if cfg.disable_lane_correction {
                        mv
                    } else {
                        let a = alpha_at_cursor(profile, alpha, mt, &mut ai);
                        if a == 0.0 {
                            mv
                        } else {
                            mv * a.cos()
                        }
                    };
                    if rec.enabled() {
                        let innovation = corrected - ekf.velocity(l);
                        innovations.push(innovation);
                        if let Some(mon) = ts.monitor.as_mut() {
                            let before = mon.health();
                            mon.record(innovation, ekf.innovation_variance(l, rs[l]));
                            let after = mon.health();
                            if after != before {
                                record_health_transition(rec, srcs[l], before, after);
                            }
                        }
                    }
                    ekf.update(l, corrected, rs[l]);
                    updates[l] += 1;
                    mi += 1;
                }
                m_idx[l] = mi;
                a_idx[l] = ai;
                let mut s = s_arc[l] + ekf.velocity(l) * dt;
                for fix_idx in gps_lo..gps_idx {
                    if !log.gps[fix_idx].valid {
                        continue;
                    }
                    if let Some(&s_gps) = matched_s.get(fix_idx) {
                        s += 0.35 * (s_gps - s);
                    }
                }
                // Track arc positions must not regress.
                if let Some(&last) = ts.track.s.last() {
                    s = s.max(last);
                }
                s_arc[l] = s;
                ts.track.push(s, ekf.theta(l), ekf.theta_variance(l).max(1e-12));
                if rts {
                    ts.history.push(RtsStep {
                        x_pred,
                        p_pred,
                        x_filt: gradest_math::Vec2::new(ekf.velocity(l), ekf.theta(l)),
                        p_filt: ekf.covariance(l),
                        f,
                    });
                }
            }
        }
        if rts {
            smooth_lanes(lanes);
        }
        if rec.enabled() {
            rec.observe_many(Histogram::EkfInnovation, innovations);
            for (l, ts) in lanes.iter().enumerate() {
                rec.incr(Counter::EkfPredicts, n_imu as u64);
                rec.incr(update_counter(srcs[l]), updates[l]);
                if let Some(mon) = ts.monitor.as_ref() {
                    if updates[l] > 0 {
                        rec.observe(Histogram::EkfMeanNis, mon.mean_nis());
                    }
                    let verdict = mon.health();
                    rec.incr(track_health_counter(verdict), 1);
                    if verdict == FilterHealth::Diverged {
                        rec.event(TraceEvent::TrackDiverged { source: trace_source(srcs[l]) });
                    }
                }
            }
        }
    }
}

/// The backward RTS pass over every lane's history, written straight
/// into the lanes' tracks. The recursions are interleaved — step `k` of
/// every lane before step `k − 1` — so the lanes' independent dependency
/// chains (each serialized on a `Mat2` inverse and three small matrix
/// products) overlap instead of running back to back. Every lane records
/// one step per IMU sample, so the histories have equal lengths. Each
/// lane carries its smoothed `(x, P)` from step `k + 1` to step `k`; the
/// last step's is its filtered state, already in the track. Per lane the
/// operation sequence is [`crate::smoother::rts_smooth_into`]'s.
fn smooth_lanes(lanes: &mut [TrackScratch]) {
    let mut carry: [Option<(Vec2, Mat2)>; MAX_LANES] = [None; MAX_LANES];
    for (carried, ts) in carry.iter_mut().zip(lanes.iter()) {
        *carried = ts.history.last().map(|s| (s.x_filt, s.p_filt));
    }
    let steps = lanes.iter().map(|ts| ts.history.len()).max().unwrap_or(0);
    for k in (0..steps.saturating_sub(1)).rev() {
        for (ts, carried) in lanes.iter_mut().zip(carry.iter_mut()) {
            let (Some(cur), Some(next), Some((x_next, p_next))) =
                (ts.history.get(k), ts.history.get(k + 1), *carried)
            else {
                continue;
            };
            let (x, p) = rts_step(cur, next, x_next, p_next).unwrap_or((cur.x_filt, cur.p_filt));
            *carried = Some((x, p));
            if let (Some(theta), Some(variance)) =
                (ts.track.theta.get_mut(k), ts.track.variance.get_mut(k))
            {
                *theta = x.y;
                *variance = p.m[1][1].max(1e-12);
            }
        }
    }
}

/// The per-track span of a velocity source.
fn track_span(source: VelocitySource) -> Span {
    match source {
        VelocitySource::Gps => Span::TrackGps,
        VelocitySource::Speedometer => Span::TrackSpeedometer,
        VelocitySource::CanBus => Span::TrackCanBus,
        VelocitySource::Accelerometer => Span::TrackAccelerometer,
    }
}

/// The EKF-update counter of a velocity source.
fn update_counter(source: VelocitySource) -> Counter {
    match source {
        VelocitySource::Gps => Counter::EkfUpdatesGps,
        VelocitySource::Speedometer => Counter::EkfUpdatesSpeedometer,
        VelocitySource::CanBus => Counter::EkfUpdatesCanBus,
        VelocitySource::Accelerometer => Counter::EkfUpdatesAccelerometer,
    }
}

/// The trace-event identity of a velocity source.
fn trace_source(source: VelocitySource) -> TraceSource {
    match source {
        VelocitySource::Gps => TraceSource::Gps,
        VelocitySource::Speedometer => TraceSource::Speedometer,
        VelocitySource::CanBus => TraceSource::CanBus,
        VelocitySource::Accelerometer => TraceSource::Accelerometer,
    }
}

/// The trace-event spelling of a filter-health verdict.
fn trace_health(health: FilterHealth) -> TraceHealth {
    match health {
        FilterHealth::Healthy => TraceHealth::Healthy,
        FilterHealth::Inconsistent => TraceHealth::Inconsistent,
        FilterHealth::Diverged => TraceHealth::Diverged,
    }
}

/// The end-of-track verdict counter of a filter-health state.
fn track_health_counter(health: FilterHealth) -> Counter {
    match health {
        FilterHealth::Healthy => Counter::TracksHealthy,
        FilterHealth::Inconsistent => Counter::TracksDegraded,
        FilterHealth::Diverged => Counter::TracksDiverged,
    }
}

/// Counts an in-flight health transition and emits the typed event.
/// Recovery is a transition *to* Healthy; anything else degrades.
fn record_health_transition<R: Recorder>(
    rec: &R,
    source: VelocitySource,
    from: FilterHealth,
    to: FilterHealth,
) {
    let counter = if to == FilterHealth::Healthy {
        Counter::EkfHealthRecovered
    } else {
        Counter::EkfHealthDegraded
    };
    rec.incr(counter, 1);
    rec.event(TraceEvent::EkfHealth {
        source: trace_source(source),
        from: trace_health(from),
        to: trace_health(to),
    });
}

/// A GPS outage long enough to matter: the nominal fix cadence is 1 Hz,
/// so anything past a couple of missed fixes is a real dropout rather
/// than jitter.
const GPS_GAP_THRESHOLD_S: f64 = 2.5;

/// Scans the valid GPS fixes for dropouts longer than
/// [`GPS_GAP_THRESHOLD_S`], counting each and emitting a typed event.
fn record_gps_gaps<R: Recorder>(rec: &R, log: &SensorLog) {
    let mut prev_t: Option<f64> = None;
    for fix in log.gps.iter().filter(|g| g.valid) {
        if let Some(prev) = prev_t {
            let gap = fix.t - prev;
            if gap > GPS_GAP_THRESHOLD_S {
                rec.incr(Counter::GpsGaps, 1);
                rec.observe(Histogram::GpsGapSeconds, gap);
                rec.event(TraceEvent::GpsGap { t_start_s: prev, duration_s: gap });
            }
        }
        prev_t = Some(fix.t);
    }
}

/// The fusion-weight histogram of a source track, by label.
fn fusion_weight_hist(label: &str) -> Option<Histogram> {
    match label {
        "gps" => Some(Histogram::FusionWeightGps),
        "speedometer" => Some(Histogram::FusionWeightSpeedometer),
        "can-bus" => Some(Histogram::FusionWeightCanBus),
        "accelerometer" => Some(Histogram::FusionWeightAccelerometer),
        _ => None,
    }
}

/// Observes each source track's mean Eq-6 fusion weight: at grid point
/// `i` the convex-combination weight of track `k` is
/// `(1/P_k[i]) / Σ_j (1/P_j[i])`, and the fused variance is the
/// reciprocal of that sum, so the weight equals
/// `fused.variance[i] / track.variance[i]`.
fn record_fusion_weights<R: Recorder>(rec: &R, tracks: &[GradientTrack], fused: &GradientTrack) {
    // Snapshot slots follow `TraceSource::ALL` order; absent sources
    // stay at 0.0 so the event shape is fixed.
    let mut weights = [0.0f64; 4];
    let mut any = false;
    for track in tracks {
        let Some(hist) = fusion_weight_hist(&track.label) else {
            continue;
        };
        let mut sum = 0.0;
        let mut n = 0u64;
        for (tv, fv) in track.variance.iter().zip(&fused.variance) {
            if *tv > 0.0 {
                sum += fv / tv;
                n += 1;
            }
        }
        if n > 0 {
            let mean = sum / n as f64;
            rec.observe(hist, mean);
            let slot = match hist {
                Histogram::FusionWeightGps => 0usize,
                Histogram::FusionWeightSpeedometer => 1,
                Histogram::FusionWeightCanBus => 2,
                _ => 3,
            };
            if let Some(w) = weights.get_mut(slot) {
                *w = mean;
            }
            any = true;
        }
    }
    if any {
        rec.event(TraceEvent::FusionWeights { weights });
    }
}

/// Overwrites `fused` with the empty fused track.
fn clear_fused(fused: &mut GradientTrack) {
    fused.label.clear();
    fused.label.push_str("fused");
    fused.s.clear();
    fused.theta.clear();
    fused.variance.clear();
}

/// `(t, v)` of the speed samples.
fn speeds(samples: &[SpeedSample]) -> impl Iterator<Item = (f64, f64)> + '_ {
    samples.iter().map(|s| (s.t, s.speed_mps))
}

/// `(t, v)` of the valid GPS fixes.
fn gps_speeds(log: &SensorLog) -> impl Iterator<Item = (f64, f64)> + '_ {
    log.gps.iter().filter(|g| g.valid).map(|g| (g.t, g.speed_mps))
}

/// Stages the best available speed stream into `(ts, vs)` columns:
/// speedometer when present, else valid GPS fixes.
fn fill_speed_series(log: &SensorLog, ts: &mut Vec<f64>, vs: &mut Vec<f64>) {
    ts.clear();
    vs.clear();
    let mut push = |(t, v): (f64, f64)| {
        ts.push(t);
        vs.push(v);
    };
    if !log.speedometer.is_empty() {
        speeds(&log.speedometer).for_each(&mut push);
    } else {
        gps_speeds(log).for_each(&mut push);
    }
}

/// A `v(t)` lookup borrowing staged speed columns: the same clamped
/// linear interpolation as [`gradest_math::interp::Interpolant::at`]
/// (fewer than two knots, or a non-increasing series, falls back to a
/// constant urban 10 m/s — the behaviour the boxed-`Interpolant` lookup
/// it replaces had at construction time), with no owned buffers so the
/// per-trip hot path allocates nothing.
struct SpeedLookup<'a> {
    ts: &'a [f64],
    vs: &'a [f64],
    valid: bool,
}

impl<'a> SpeedLookup<'a> {
    fn new(ts: &'a [f64], vs: &'a [f64]) -> Self {
        // Mirror `Interpolant::new` validation once at construction; a
        // validated log's times are finite.
        let valid = ts.len() >= 2 && ts.windows(2).all(|w| w[1] > w[0]);
        SpeedLookup { ts, vs, valid }
    }

    fn at(&self, x: f64) -> f64 {
        if !self.valid {
            return 10.0;
        }
        let (ts, vs) = (self.ts, self.vs);
        if x.is_nan() || x <= ts[0] {
            return vs[0];
        }
        // lint:allow(hot-index) self.valid guarantees nonempty series
        if x >= ts[ts.len() - 1] {
            return vs[vs.len() - 1]; // lint:allow(hot-index) vs.len() == ts.len() >= 1 when valid
        }
        let idx = ts.partition_point(|&v| v < x);
        if ts[idx] == x {
            return vs[idx];
        }
        // lint:allow(hot-index) ts[0] < x < ts[last] here, so 1 <= idx <= len - 1
        let (x0, x1) = (ts[idx - 1], ts[idx]);
        let u = (x - x0) / (x1 - x0);
        vs[idx - 1] + (vs[idx] - vs[idx - 1]) * u // lint:allow(hot-index) same idx bounds as x0/x1 above
    }
}

/// Steering angle α(t) aligned with the profile: accumulated `w·Ω` inside
/// each detection window, zero elsewhere (the Eq-2 integrand). Overwrites
/// the caller-owned `alpha` buffer.
fn steering_angle_series_into(
    profile: &SmoothedProfile,
    detections: &[LaneChangeDetection],
    alpha: &mut Vec<f64>,
) {
    alpha.clear();
    alpha.resize(profile.len(), 0.0);
    if profile.len() < 2 {
        return;
    }
    let dt = profile.dt();
    for det in detections {
        let mut acc = 0.0;
        for (a, (&t, &w)) in alpha.iter_mut().zip(profile.t.iter().zip(&profile.w)) {
            if t < det.t_start || t > det.t_end {
                continue;
            }
            acc += w * dt;
            *a = acc;
        }
    }
}

/// Nearest-sample α lookup at measurement time `t` — the binary-search
/// reference that [`alpha_at_cursor`] is pinned against in tests.
#[cfg(test)]
fn alpha_at(profile: &SmoothedProfile, alpha: &[f64], t: f64) -> f64 {
    if profile.is_empty() {
        return 0.0;
    }
    let idx = profile.t.partition_point(|&pt| pt < t);
    let idx = idx.min(alpha.len() - 1);
    alpha[idx]
}

/// [`alpha_at`] for non-decreasing query times: `cursor` carries the scan
/// position across calls and lands on the exact index the binary search
/// would return (the first profile time ≥ `t`).
fn alpha_at_cursor(profile: &SmoothedProfile, alpha: &[f64], t: f64, cursor: &mut usize) -> f64 {
    if profile.is_empty() {
        return 0.0;
    }
    // lint:allow(hot-index) deref, not arithmetic; bounded by the && left operand
    while *cursor < profile.t.len() && profile.t[*cursor] < t {
        *cursor += 1;
    }
    alpha[(*cursor).min(alpha.len() - 1)]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ekf::oracle::GradientEkf;
    use gradest_geo::generate::{red_road, straight_road, two_lane_straight};
    use gradest_geo::Route;
    use gradest_sensors::samples::{GpsSample, ImuSample};
    use gradest_sensors::suite::{InputError, SensorConfig, SensorSuite};
    use gradest_sim::driver::DriverProfile;
    use gradest_sim::trip::{simulate_trip, TripConfig};

    fn run(route: &Route, trip_seed: u64, sensor_seed: u64, lc_rate: f64) -> GradientEstimate {
        let cfg = TripConfig {
            driver: DriverProfile { lane_change_rate_per_km: lc_rate, ..Default::default() },
            ..Default::default()
        };
        let traj = simulate_trip(route, &cfg, trip_seed);
        let log = SensorSuite::new(SensorConfig::default()).run(&traj, sensor_seed);
        GradientEstimator::new(EstimatorConfig::default()).estimate(&log, Some(route))
    }

    /// Per-source scalar track loop, the oracle the fused lane sweep
    /// is pinned to: one [`GradientEkf`] over the trip for one source's
    /// staged `ts.measurements`, producing that source's arc-indexed
    /// track in `ts.track` with the recorder output the sweep emits per
    /// lane.
    #[allow(clippy::too_many_arguments)]
    fn scalar_track_into<R: Recorder>(
        cfg: &EstimatorConfig,
        log: &SensorLog,
        source: VelocitySource,
        profile: &SmoothedProfile,
        alpha: &[f64],
        dt: f64,
        matched_s: &[f64],
        ts: &mut TrackScratch,
        rec: &R,
    ) {
        let r = cfg.source_variance(source);
        let TrackScratch { measurements, history, track, monitor } = ts;
        let measurements: &[(f64, f64)] = measurements;
        let v0 = measurements.first().map(|m| m.1).unwrap_or(10.0);
        let mut ekf = GradientEkf::new(cfg.ekf, v0);
        let mut updates = 0u64;
        // NIS consistency monitoring only runs when a recorder listens;
        // the monitor is built once (first recorded trip) and reset
        // thereafter, so warm recorded trips stay allocation-free.
        let mut mon = if rec.enabled() {
            let mon = monitor.get_or_insert_with(InnovationMonitor::default);
            mon.reset();
            Some(mon)
        } else {
            None
        };
        track.label.clear();
        track.label.push_str(source.label());
        track.s.clear();
        track.theta.clear();
        track.variance.clear();
        history.clear();
        let mut s = 0.0;
        let mut m_idx = 0usize;
        let mut gps_idx = 0usize;
        // Measurement times are non-decreasing, so the α lookup advances a
        // cursor instead of re-running `partition_point` per measurement;
        // the cursor lands on the same index the binary search would.
        let mut a_idx = 0usize;
        for imu in &log.imu {
            let f = ekf.predict_returning_jacobian(imu.accel_long, dt);
            let x_pred = gradest_math::Vec2::new(ekf.velocity(), ekf.theta());
            let p_pred = ekf.covariance();
            while m_idx < measurements.len() && measurements[m_idx].0 <= imu.t {
                let (mt, mv) = measurements[m_idx];
                // Eq 2: longitudinal velocity during detected lane changes.
                let corrected = if cfg.disable_lane_correction {
                    mv
                } else {
                    // α is exactly 0.0 outside detection windows, and
                    // `mv * cos(0) == mv` bit-for-bit — skip the cosine.
                    let a = alpha_at_cursor(profile, alpha, mt, &mut a_idx);
                    if a == 0.0 {
                        mv
                    } else {
                        mv * a.cos()
                    }
                };
                if rec.enabled() {
                    // Innovation as the update will see it: measurement
                    // minus the predicted velocity state.
                    let innovation = corrected - ekf.velocity();
                    rec.observe(Histogram::EkfInnovation, innovation);
                    if let Some(mon) = mon.as_deref_mut() {
                        let before = mon.health();
                        mon.record(innovation, ekf.innovation_variance(r));
                        let after = mon.health();
                        if after != before {
                            record_health_transition(rec, source, before, after);
                        }
                    }
                }
                ekf.update(corrected, r);
                updates += 1;
                m_idx += 1;
            }
            s += ekf.velocity() * dt;
            // Anchor the odometer to the pre-matched GPS arc positions.
            while log.gps.get(gps_idx).is_some_and(|fix| fix.t <= imu.t) {
                let valid = log.gps[gps_idx].valid;
                let fix_idx = gps_idx;
                gps_idx += 1;
                if !valid {
                    continue;
                }
                if let Some(&s_gps) = matched_s.get(fix_idx) {
                    s += 0.35 * (s_gps - s);
                }
            }
            // Track arc positions must not regress.
            if let Some(&last) = track.s.last() {
                s = s.max(last);
            }
            track.push(s, ekf.theta(), ekf.theta_variance().max(1e-12));
            if cfg.rts_smoothing {
                history.push(RtsStep {
                    x_pred,
                    p_pred,
                    x_filt: gradest_math::Vec2::new(ekf.velocity(), ekf.theta()),
                    p_filt: ekf.covariance(),
                    f,
                });
            }
        }
        if cfg.rts_smoothing {
            let mut smoothed = Vec::new();
            crate::smoother::rts_smooth_into(history, &mut smoothed);
            for (i, (x, p)) in smoothed.iter().enumerate() {
                track.theta[i] = x.y;
                track.variance[i] = p.m[1][1].max(1e-12);
            }
        }
        if rec.enabled() {
            rec.incr(Counter::EkfPredicts, log.imu.len() as u64);
            rec.incr(update_counter(source), updates);
            if let Some(mon) = mon {
                if updates > 0 {
                    rec.observe(Histogram::EkfMeanNis, mon.mean_nis());
                }
                let verdict = mon.health();
                rec.incr(track_health_counter(verdict), 1);
                if verdict == FilterHealth::Diverged {
                    rec.event(TraceEvent::TrackDiverged { source: trace_source(source) });
                }
            }
        }
    }

    /// Recomputes every configured source's raw track with the scalar
    /// oracle from the inputs `estimate_into` staged in `scratch`
    /// (smoothed profile, steering angle α, map-matched GPS arcs).
    fn scalar_oracle_tracks<R: Recorder>(
        estimator: &GradientEstimator,
        log: &SensorLog,
        scratch: &EstimatorScratch,
        rec: &R,
    ) -> Vec<GradientTrack> {
        estimator
            .config
            .sources
            .iter()
            .map(|&source| {
                let mut ts = TrackScratch::default();
                estimator.measurement_series_into(log, source, &mut ts.measurements);
                scalar_track_into(
                    &estimator.config,
                    log,
                    source,
                    &scratch.profile,
                    &scratch.alpha,
                    log.imu_dt(),
                    &scratch.matched_s,
                    &mut ts,
                    rec,
                );
                ts.track
            })
            .collect()
    }

    /// A track as raw bit patterns, so equality is bit-identity.
    fn track_bits(t: &GradientTrack) -> (String, Vec<u64>, Vec<u64>, Vec<u64>) {
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        (t.label.clone(), bits(&t.s), bits(&t.theta), bits(&t.variance))
    }

    /// A red-road trip with lane changes, so the Eq-2 correction runs.
    fn lane_change_trip() -> (Route, SensorLog) {
        let route = Route::new(vec![red_road()]).unwrap();
        let trip = TripConfig {
            driver: DriverProfile { lane_change_rate_per_km: 2.0, ..Default::default() },
            ..Default::default()
        };
        let traj = simulate_trip(&route, &trip, 23);
        let log = SensorSuite::new(SensorConfig::default()).run(&traj, 23);
        (route, log)
    }

    /// The lane occupancies the oracle tests cover: all four sources
    /// with a map and without one, and a two-source subset.
    fn oracle_cases(route: &Route) -> [(GradientEstimator, Option<&Route>); 3] {
        let all = GradientEstimator::new(EstimatorConfig::default());
        let subset = GradientEstimator::new(EstimatorConfig {
            sources: vec![VelocitySource::CanBus, VelocitySource::Accelerometer],
            ..Default::default()
        });
        [(all.clone(), Some(route)), (all, None), (subset, Some(route))]
    }

    #[test]
    fn fused_lanes_bit_identical_to_scalar_tracks() {
        let (route, log) = lane_change_trip();
        for (estimator, map) in oracle_cases(&route) {
            let mut scratch = EstimatorScratch::new();
            let mut out = GradientEstimate::default();
            estimator.estimate_into(&log, map, &mut scratch, &mut out);
            assert!(!out.detections.is_empty(), "the Eq-2 correction must be exercised");
            let oracle = scalar_oracle_tracks(&estimator, &log, &scratch, &NoopRecorder);
            let n_src = estimator.config.sources.len();
            assert_eq!(oracle.len(), n_src);
            for (lane, scalar) in scratch.tracks[..n_src].iter().zip(&oracle) {
                assert!(!scalar.is_empty());
                assert_eq!(track_bits(&lane.track), track_bits(scalar), "track {}", scalar.label);
            }
        }
    }

    /// A recorded estimate run on its own thread, so a hang fails the
    /// test after 30 s instead of hanging the suite: the estimate plus
    /// the recorder's integer snapshot.
    fn recorded_estimate_or_fail(
        estimator: &GradientEstimator,
        log: &SensorLog,
        map: Option<&Route>,
    ) -> (GradientEstimate, String) {
        use std::sync::mpsc::RecvTimeoutError;
        let with_map = map.is_some();
        let (estimator, log, map) = (estimator.clone(), log.clone(), map.cloned());
        let (tx, rx) = std::sync::mpsc::channel();
        let worker = std::thread::spawn(move || {
            let rec = gradest_obs::RunRecorder::new();
            let mut out = GradientEstimate::default();
            let mut scratch = EstimatorScratch::new();
            estimator.estimate_into_recorded(&log, map.as_ref(), &mut scratch, &mut out, &rec);
            let _ = tx.send((out, rec.snapshot_string()));
        });
        // A hung estimate cannot be stopped, so its thread is left
        // behind; it ends with the test process.
        let got = match rx.recv_timeout(std::time::Duration::from_secs(30)) {
            Ok(got) => got,
            Err(RecvTimeoutError::Timeout) => panic!("estimate (map: {with_map}) hung"),
            Err(RecvTimeoutError::Disconnected) => panic!("estimate (map: {with_map}) panicked"),
        };
        worker.join().expect("the estimate thread ends after sending");
        got
    }

    /// Tracks, fused track, and detections of two estimates agree bit
    /// for bit.
    fn assert_same_estimate(got: &GradientEstimate, want: &GradientEstimate) {
        assert_eq!(got.tracks.len(), want.tracks.len());
        for (g, w) in
            got.tracks.iter().chain([&got.fused]).zip(want.tracks.iter().chain([&want.fused]))
        {
            assert_eq!(track_bits(g), track_bits(w), "track {}", w.label);
        }
        assert_eq!(got.detections, want.detections);
    }

    /// The IMU sample half way through the trip.
    fn mid_imu(log: &mut SensorLog) -> &mut ImuSample {
        let mid = log.imu.len() / 2;
        &mut log.imu[mid]
    }

    /// The first valid GPS fix from half way through the trip on.
    fn mid_valid_fix(log: &mut SensorLog) -> &mut GpsSample {
        let mid = log.gps.len() / 2;
        log.gps[mid..].iter_mut().find(|g| g.valid).unwrap()
    }

    #[test]
    fn out_of_domain_logs_give_the_empty_estimate() {
        let (route, clean) = lane_change_trip();
        // Each rule broken once. Before the estimator validated its
        // input, a 1-sample log and swapped or NaN IMU times panicked it,
        // and a NaN `accel_long` made every fused θ NaN.
        type Corrupt = fn(&mut SensorLog);
        let cases: [(InputError, Corrupt); 11] = [
            (InputError::TooFewImuSamples, |log| log.imu.truncate(1)),
            (InputError::ImuTimes, |log| {
                let mid = log.imu.len() / 2;
                log.imu.swap(mid, mid + 1);
            }),
            (InputError::ImuTimes, |log| mid_imu(log).t = f64::NAN),
            // In order, so only the finiteness check can catch it.
            (InputError::ImuTimes, |log| log.imu.last_mut().unwrap().t = f64::INFINITY),
            (InputError::ImuReading, |log| mid_imu(log).accel_long = f64::NAN),
            (InputError::ImuReading, |log| mid_imu(log).gyro_z = f64::INFINITY),
            (InputError::GpsFix, |log| mid_valid_fix(log).t = f64::NAN),
            (InputError::GpsFix, |log| mid_valid_fix(log).position.x = f64::NAN),
            (InputError::GpsFix, |log| mid_valid_fix(log).speed_mps = f64::NAN),
            (InputError::SpeedSample, |log| log.can[100].speed_mps = f64::NAN),
            (InputError::SpeedSample, |log| log.speedometer[0].t = f64::INFINITY),
        ];
        let empty = GradientEstimate { fused: GradientTrack::new("fused"), ..Default::default() };
        let nothing_recorded = gradest_obs::RunRecorder::new().snapshot_string();
        let estimator = GradientEstimator::new(EstimatorConfig::default());
        for map in [Some(&route), None] {
            let want = estimator.estimate(&clean, map);
            let mut scratch = EstimatorScratch::new();
            let mut out = GradientEstimate::default();
            for (rule, corrupt) in cases {
                let mut hostile = clean.clone();
                corrupt(&mut hostile);
                assert_eq!(hostile.validate(), Err(rule));
                let (got, got_obs) = recorded_estimate_or_fail(&estimator, &hostile, map);
                assert_eq!(got, empty, "{rule}, map: {}", map.is_some());
                assert_eq!(got_obs, nothing_recorded, "{rule}, map: {}", map.is_some());
                // A warm scratch refuses the log and then estimates the
                // clean one as a fresh scratch does.
                estimator.estimate_into(&hostile, map, &mut scratch, &mut out);
                assert_eq!(out, empty);
                estimator.estimate_into(&clean, map, &mut scratch, &mut out);
                assert_same_estimate(&out, &want);
            }
        }
    }

    #[test]
    fn fused_lanes_record_the_same_counters_as_scalar_tracks() {
        let (route, log) = lane_change_trip();
        for (estimator, map) in oracle_cases(&route) {
            let lanes_rec = gradest_obs::RunRecorder::new();
            let mut scratch = EstimatorScratch::new();
            let mut out = GradientEstimate::default();
            estimator.estimate_into_recorded(&log, map, &mut scratch, &mut out, &lanes_rec);
            let scalar_rec = gradest_obs::RunRecorder::new();
            scalar_oracle_tracks(&estimator, &log, &scratch, &scalar_rec);
            let (lanes, scalar) = (lanes_rec.report(), scalar_rec.report());
            assert!(scalar.counter("ekf-predicts").unwrap_or(0) > 0);
            for counter in [
                "ekf-predicts",
                "ekf-updates:gps",
                "ekf-updates:speedometer",
                "ekf-updates:can-bus",
                "ekf-updates:accelerometer",
                "tracks-healthy",
                "tracks-degraded",
                "tracks-diverged",
            ] {
                assert_eq!(lanes.counter(counter), scalar.counter(counter), "counter {counter}");
            }
        }
    }

    #[test]
    fn a_repeated_source_runs_once() {
        let route = Route::new(vec![straight_road(400.0, 2.0)]).unwrap();
        let traj = simulate_trip(&route, &TripConfig::default(), 6);
        let log = SensorSuite::new(SensorConfig::default()).run(&traj, 6);
        let mut sources = VelocitySource::ALL.to_vec();
        sources.push(VelocitySource::Gps);
        let repeated = GradientEstimator::new(EstimatorConfig { sources, ..Default::default() });
        let all = GradientEstimator::new(EstimatorConfig::default());
        assert_eq!(repeated, all);
        assert_same_estimate(
            &repeated.estimate(&log, Some(&route)),
            &all.estimate(&log, Some(&route)),
        );
    }

    #[test]
    fn a_huge_imu_gap_gives_the_empty_estimate() {
        // Every sample is stepped at the first IMU interval, so a 1e6 s
        // gap after the first of four samples runs the odometer to a
        // 4,000,001-point fusion grid unless the estimate refuses it.
        let imu = [0.0, 1e6 + 0.02, 1e6 + 0.04, 1e6 + 0.06].map(|t| ImuSample {
            t,
            accel_long: 0.0,
            accel_lat: 0.0,
            gyro_z: 0.0,
        });
        let log = SensorLog { imu: imu.to_vec(), ..Default::default() };
        let est = GradientEstimator::new(EstimatorConfig::default()).estimate(&log, None);
        assert!(est.tracks.is_empty());
        assert_eq!(est.fused.label, "fused");
        assert!(est.fused.is_empty(), "{} fused points from 4 samples", est.fused.len());
        assert_eq!(est.distance_m, 0.0);
    }

    #[test]
    fn no_sources_give_the_empty_estimate() {
        let route = Route::new(vec![straight_road(400.0, 2.0)]).unwrap();
        let traj = simulate_trip(&route, &TripConfig::default(), 6);
        let log = SensorSuite::new(SensorConfig::default()).run(&traj, 6);
        let estimator =
            GradientEstimator::new(EstimatorConfig { sources: vec![], ..Default::default() });
        let est = estimator.estimate(&log, Some(&route));
        assert!(est.tracks.is_empty());
        assert_eq!(est.fused.label, "fused");
        assert!(est.fused.is_empty());
        assert_eq!(est.distance_m, 0.0);
        // A warm scratch that last ran four lanes gives the same answer.
        let mut scratch = EstimatorScratch::new();
        let mut out = GradientEstimate::default();
        GradientEstimator::new(EstimatorConfig::default()).estimate_into(
            &log,
            Some(&route),
            &mut scratch,
            &mut out,
        );
        estimator.estimate_into(&log, Some(&route), &mut scratch, &mut out);
        assert_eq!(out, est);
    }

    #[test]
    fn warm_scratch_matches_cold_estimate() {
        let route = Route::new(vec![straight_road(800.0, 2.0)]).unwrap();
        let traj = simulate_trip(&route, &TripConfig::default(), 11);
        let log = SensorSuite::new(SensorConfig::default()).run(&traj, 11);
        let estimator = GradientEstimator::new(EstimatorConfig::default());
        let cold = estimator.estimate(&log, Some(&route));
        let mut scratch = EstimatorScratch::new();
        let mut first = GradientEstimate::default();
        estimator.estimate_into(&log, Some(&route), &mut scratch, &mut first);
        let mut warm = GradientEstimate::default();
        estimator.estimate_into(&log, Some(&route), &mut scratch, &mut warm);
        assert_eq!(cold, first);
        assert_eq!(cold, warm);
        assert!(scratch.stages().total() > 0);
    }

    #[test]
    fn recorded_estimate_is_bit_identical_and_counts() {
        let route = Route::new(vec![straight_road(800.0, 2.0)]).unwrap();
        let traj = simulate_trip(&route, &TripConfig::default(), 5);
        let log = SensorSuite::new(SensorConfig::default()).run(&traj, 5);
        let estimator = GradientEstimator::new(EstimatorConfig::default());
        let plain = estimator.estimate(&log, Some(&route));
        let rec = gradest_obs::RunRecorder::new();
        let mut scratch = EstimatorScratch::new();
        let mut recorded = GradientEstimate::default();
        estimator.estimate_into_recorded(&log, Some(&route), &mut scratch, &mut recorded, &rec);
        assert_eq!(plain, recorded, "recording must not perturb the estimate");
        let report = rec.report();
        assert_eq!(report.counter("trips-processed"), Some(1));
        assert_eq!(report.counter("ekf-predicts"), Some(4 * log.imu.len() as u64));
        for span in ["trip", "steering", "detection", "tracks", "fusion", "track:gps"] {
            assert!(report.span(span).is_some(), "span {span} missing");
        }
        // Eq-6 weights are a convex combination: the per-source mean
        // weights sum to 1 across the four tracks.
        let weight_sum: f64 = [
            "fusion-weight:gps",
            "fusion-weight:speedometer",
            "fusion-weight:can-bus",
            "fusion-weight:accelerometer",
        ]
        .iter()
        .map(|h| report.histogram(h).expect("weight recorded").mean)
        .sum();
        assert!((weight_sum - 1.0).abs() < 1e-9, "weights sum to {weight_sum}");
        // EKF innovations were observed for every applied update.
        let innovations = report.histogram("ekf-innovation").expect("innovations");
        let updates: u64 = [
            "ekf-updates:gps",
            "ekf-updates:speedometer",
            "ekf-updates:can-bus",
            "ekf-updates:accelerometer",
        ]
        .iter()
        .filter_map(|c| report.counter(c))
        .sum();
        assert!(updates > 0);
        assert_eq!(innovations.count, updates);
    }

    #[test]
    fn alpha_cursor_matches_binary_search() {
        let profile = SmoothedProfile { t: vec![0.0, 0.5, 1.0, 1.5, 2.0], w: vec![0.0; 5] };
        let alpha = vec![0.1, 0.2, 0.3, 0.4, 0.5];
        let mut cursor = 0usize;
        // Non-decreasing queries: before, between, exactly on, repeated,
        // and past the last knot.
        for &t in &[-1.0, 0.2, 0.5, 0.5, 0.75, 1.5, 1.9, 2.0, 7.0] {
            let reference = alpha_at(&profile, &alpha, t);
            let scanned = alpha_at_cursor(&profile, &alpha, t, &mut cursor);
            assert_eq!(reference, scanned, "t={t}");
        }
        let empty = SmoothedProfile::default();
        let mut c = 0usize;
        assert_eq!(alpha_at(&empty, &[], 1.0), 0.0);
        assert_eq!(alpha_at_cursor(&empty, &[], 1.0, &mut c), 0.0);
    }

    #[test]
    fn fast_lowess_tracks_generic_reference() {
        // The steering profile the pipeline smooths on its uniform IMU
        // grid agrees with the generic LOWESS reference within 1e-12.
        let route = Route::new(vec![straight_road(1200.0, 2.0)]).unwrap();
        let traj = simulate_trip(&route, &TripConfig::default(), 12);
        let log = SensorSuite::new(SensorConfig::default()).run(&traj, 12);
        let cfg = EstimatorConfig::default();
        let mut scratch = EstimatorScratch::new();
        let mut out = GradientEstimate::default();
        GradientEstimator::new(cfg.clone()).estimate_into(
            &log,
            Some(&route),
            &mut scratch,
            &mut out,
        );
        let t = &scratch.imu_cols.t;
        assert!(gradest_math::lowess::detect_uniform_step(t).is_some());
        let span = t[t.len() - 1] - t[0];
        let fraction = (cfg.lane_change.smoothing_window_s / span).clamp(1e-4, 1.0);
        let reference =
            gradest_math::lowess::lowess_reference(t, &scratch.w_raw, fraction).unwrap();
        assert_eq!(scratch.profile.w.len(), reference.len());
        for (a, b) in scratch.profile.w.iter().zip(&reference) {
            assert!((a - b).abs() < 1e-12, "fast {a} vs reference {b}");
        }
    }

    #[test]
    fn constant_gradient_recovered() {
        let route = Route::new(vec![straight_road(2000.0, 3.0)]).unwrap();
        let est = run(&route, 1, 1, 0.0);
        assert_eq!(est.tracks.len(), 4);
        // Fused estimate over the second half of the road ≈ 3°.
        let late: Vec<f64> = est
            .fused
            .s
            .iter()
            .zip(&est.fused.theta)
            .filter(|(s, _)| **s > 1000.0)
            .map(|(_, th)| th.to_degrees())
            .collect();
        assert!(!late.is_empty());
        let mean = late.iter().sum::<f64>() / late.len() as f64;
        assert!((mean - 3.0).abs() < 0.5, "fused mean {mean}°");
    }

    #[test]
    fn distance_estimate_close_to_route_length() {
        let route = Route::new(vec![straight_road(1500.0, 1.0)]).unwrap();
        let est = run(&route, 2, 2, 0.0);
        assert!((est.distance_m - 1500.0).abs() < 60.0, "distance {}", est.distance_m);
    }

    #[test]
    fn tracks_are_aligned_for_fusion() {
        let route = Route::new(vec![straight_road(800.0, 2.0)]).unwrap();
        let est = run(&route, 3, 3, 0.0);
        for t in &est.tracks {
            assert_eq!(t.s.len(), est.fused.s.len());
        }
        // Fused variance never exceeds the best individual track.
        for i in 0..est.fused.len() {
            let best = est.tracks.iter().map(|t| t.variance[i]).fold(f64::MAX, f64::min);
            assert!(est.fused.variance[i] <= best + 1e-15);
        }
    }

    #[test]
    fn lane_changes_detected_on_multilane_road() {
        let route = Route::new(vec![two_lane_straight(6000.0)]).unwrap();
        let cfg = TripConfig {
            driver: DriverProfile { lane_change_rate_per_km: 1.0, ..Default::default() },
            ..Default::default()
        };
        let traj = simulate_trip(&route, &cfg, 5);
        assert!(!traj.events().is_empty(), "simulation produced no maneuvers");
        let log = SensorSuite::new(SensorConfig::default()).run(&traj, 5);
        let est = GradientEstimator::new(EstimatorConfig::default()).estimate(&log, Some(&route));
        assert!(
            !est.detections.is_empty(),
            "expected detections for {} events",
            traj.events().len()
        );
        // Directions match ground truth for matched events.
        for det in &est.detections {
            let matched = traj
                .events()
                .iter()
                .find(|e| det.t_start < e.end_t + 1.0 && det.t_end > e.start_t - 1.0);
            if let Some(e) = matched {
                assert_eq!(det.direction, e.direction, "direction mismatch at {}", det.t_start);
            }
        }
    }

    #[test]
    fn red_road_fused_beats_worst_track() {
        let route = Route::new(vec![red_road()]).unwrap();
        let est = run(&route, 7, 7, 0.224);
        let truth_err = |t: &GradientTrack| {
            let errs: Vec<f64> =
                t.s.iter()
                    .zip(&t.theta)
                    .filter(|(s, _)| **s > 100.0)
                    .map(|(s, th)| (th - route.gradient_at(*s)).abs())
                    .collect();
            errs.iter().sum::<f64>() / errs.len() as f64
        };
        let fused_err = truth_err(&est.fused);
        let worst = est.tracks.iter().map(truth_err).fold(0.0f64, f64::max);
        assert!(fused_err < worst, "fused {fused_err} vs worst {worst}");
        // And it is decent in absolute terms (< 0.8° mean on a road whose
        // sections average ±2.4°).
        assert!(fused_err.to_degrees() < 0.8, "fused err {}°", fused_err.to_degrees());
    }

    #[test]
    fn subset_of_sources_supported() {
        let route = Route::new(vec![straight_road(600.0, 2.0)]).unwrap();
        let cfg_trip = TripConfig {
            driver: DriverProfile { lane_change_rate_per_km: 0.0, ..Default::default() },
            ..Default::default()
        };
        let traj = simulate_trip(&route, &cfg_trip, 8);
        let log = SensorSuite::new(SensorConfig::default()).run(&traj, 8);
        let cfg = EstimatorConfig { sources: vec![VelocitySource::CanBus], ..Default::default() };
        let est = GradientEstimator::new(cfg).estimate(&log, Some(&route));
        assert_eq!(est.tracks.len(), 1);
        assert_eq!(est.tracks[0].label, "can-bus");
        assert!(!est.fused.is_empty());
    }

    #[test]
    fn works_without_map() {
        let route = Route::new(vec![straight_road(800.0, -2.0)]).unwrap();
        let cfg_trip = TripConfig {
            driver: DriverProfile { lane_change_rate_per_km: 0.0, ..Default::default() },
            ..Default::default()
        };
        let traj = simulate_trip(&route, &cfg_trip, 9);
        let log = SensorSuite::new(SensorConfig::default()).run(&traj, 9);
        let est = GradientEstimator::new(EstimatorConfig::default()).estimate(&log, None);
        let late: Vec<f64> = est
            .fused
            .s
            .iter()
            .zip(&est.fused.theta)
            .filter(|(s, _)| **s > 400.0)
            .map(|(_, th)| th.to_degrees())
            .collect();
        let mean = late.iter().sum::<f64>() / late.len() as f64;
        assert!((mean + 2.0).abs() < 0.5, "fused mean {mean}°");
    }
}
