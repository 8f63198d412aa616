//! Fleet-scale batch estimation: a worker pool fanning trips across
//! threads.
//!
//! The paper's cloud service (Section III-C3) ingests tracks from many
//! vehicles; reproducing its experiments means estimating hundreds of
//! independent trips, which the single-trip pipeline
//! ([`GradientEstimator::estimate`]) only exercises one core at a time.
//! [`FleetEngine`] closes that gap: submit a batch of [`SensorLog`]s, a
//! pool of workers drains a shared job channel, and results stream back
//! in **submission order** regardless of which worker finishes first —
//! so a 1-worker and an N-worker run produce bit-identical output.
//!
//! Work distribution uses MPMC channels (`crossbeam::channel`): the main
//! thread enqueues job indices, each worker loops `recv → estimate →
//! send (index, result)`, and the main thread reorders results through a
//! hold-back buffer. Slow trips therefore never stall workers, only the
//! in-order delivery point.

use crate::cloud::CloudAggregator;
use crate::pipeline::{GradientEstimate, GradientEstimator};
use crossbeam::channel;
use gradest_geo::index::NetworkIndex;
use gradest_geo::network::RoadNetwork;
use gradest_geo::Route;
use gradest_obs::{
    saturating_ns, Counter, Histogram, NoopRecorder, Recorder, Span, SpanTimer, TraceEvent,
};
use gradest_sensors::suite::SensorLog;
use gradest_sensors::NetworkMatcher;
use std::collections::BTreeMap;
use std::time::Instant;

/// How batch trips obtain their map geometry.
#[derive(Debug, Clone, Copy)]
enum MapMode<'a> {
    /// Every trip shares one known route (or drives unmapped).
    Shared(Option<&'a Route>),
    /// Each trip is free-space map-matched against a whole network
    /// through its spatial index; the recovered route is its map.
    Network(&'a RoadNetwork, &'a NetworkIndex),
}

/// A multi-trip estimation engine running a fixed worker pool.
///
/// # Example
///
/// ```no_run
/// use gradest_core::fleet::FleetEngine;
/// use gradest_core::pipeline::{EstimatorConfig, GradientEstimator};
/// # let logs: Vec<gradest_sensors::suite::SensorLog> = Vec::new();
/// let engine = FleetEngine::new(GradientEstimator::new(EstimatorConfig::default()), 4);
/// let estimates = engine.process_batch(&logs, None);
/// assert_eq!(estimates.len(), logs.len());
/// ```
#[derive(Debug, Clone)]
pub struct FleetEngine {
    estimator: GradientEstimator,
    workers: usize,
}

impl FleetEngine {
    /// Creates an engine with an explicit worker count (clamped to at
    /// least one).
    pub fn new(estimator: GradientEstimator, workers: usize) -> Self {
        FleetEngine { estimator, workers: workers.max(1) }
    }

    /// The configured worker count.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// The underlying per-trip estimator.
    pub fn estimator(&self) -> &GradientEstimator {
        &self.estimator
    }

    /// Estimates every trip in the batch, returning results in
    /// submission order. Output is bit-identical for any worker count.
    pub fn process_batch(&self, logs: &[SensorLog], map: Option<&Route>) -> Vec<GradientEstimate> {
        let mut out = Vec::with_capacity(logs.len());
        self.process_streaming(logs, map, |_, est| out.push(est));
        out
    }

    /// Estimates every trip in the batch with **network matching**: no
    /// shared route is supplied; instead each worker free-space
    /// map-matches its trip's GPS trace against `net` through `index`
    /// (exact nearest-edge queries, Dijkstra route recovery) and runs
    /// estimation with the recovered route as the trip's map. Results
    /// come back in submission order, bit-identical for any worker
    /// count.
    pub fn process_batch_network(
        &self,
        logs: &[SensorLog],
        net: &RoadNetwork,
        index: &NetworkIndex,
    ) -> Vec<GradientEstimate> {
        self.process_batch_network_recorded(logs, net, index, &NoopRecorder)
    }

    /// [`Self::process_batch_network`] reporting to an observability
    /// [`Recorder`]: the per-trip pipeline records through it, and the
    /// pool adds batch/worker spans, job counters, hold-back depth, and
    /// per-worker utilization. Each trip's match time is recorded under
    /// the `network-match-trip` span.
    pub fn process_batch_network_recorded<R: Recorder>(
        &self,
        logs: &[SensorLog],
        net: &RoadNetwork,
        index: &NetworkIndex,
        rec: &R,
    ) -> Vec<GradientEstimate> {
        let mut out = Vec::with_capacity(logs.len());
        self.run_pool(logs, MapMode::Network(net, index), None, rec, |_, est| out.push(est));
        out
    }

    /// Estimates every trip in the batch, invoking `on_result(index,
    /// estimate)` for each trip strictly in submission order, as soon as
    /// that trip *and all earlier ones* have finished. Out-of-order
    /// completions wait in a hold-back buffer, so the callback sees the
    /// exact sequence a serial loop would produce.
    fn process_streaming<F>(&self, logs: &[SensorLog], map: Option<&Route>, on_result: F)
    where
        F: FnMut(usize, GradientEstimate),
    {
        self.run_pool(logs, MapMode::Shared(map), None, &NoopRecorder, on_result);
    }

    /// [`Self::process_batch`] with cloud fan-in, reporting to an
    /// observability [`Recorder`]: each worker uploads its trip's fused
    /// track to `cloud` under `road_ids[index]` the moment estimation
    /// finishes, exercising the aggregator's concurrent (lock-striped)
    /// upload path. Returned estimates are in submission order and
    /// bit-identical for any worker count; the cloud's per-cell sums
    /// accumulate the same multiset of uploads in a worker-dependent
    /// order, so they match a sequential run up to floating-point
    /// summation order.
    ///
    /// The per-trip pipeline and the cloud uploads record through `rec`,
    /// and the pool adds batch/worker spans, job counters, hold-back
    /// depth, and per-worker utilization. Pass [`NoopRecorder`] to
    /// record nothing.
    ///
    /// # Panics
    ///
    /// Panics if `road_ids.len() != logs.len()`.
    pub fn process_batch_to_cloud_recorded<R: Recorder>(
        &self,
        logs: &[SensorLog],
        road_ids: &[u64],
        map: Option<&Route>,
        cloud: &CloudAggregator,
        rec: &R,
    ) -> Vec<GradientEstimate> {
        assert_eq!(road_ids.len(), logs.len(), "one road id per trip");
        let mut out = Vec::with_capacity(logs.len());
        self.run_pool(logs, MapMode::Shared(map), Some((road_ids, cloud)), rec, |_, est| {
            out.push(est)
        });
        out
    }

    fn run_pool<R, F>(
        &self,
        logs: &[SensorLog],
        map: MapMode<'_>,
        cloud: Option<(&[u64], &CloudAggregator)>,
        rec: &R,
        mut on_result: F,
    ) where
        R: Recorder,
        F: FnMut(usize, GradientEstimate),
    {
        if logs.is_empty() {
            return;
        }
        let batch_timer = SpanTimer::start(rec);
        let workers = self.workers.min(logs.len());
        let (job_tx, job_rx) = channel::unbounded::<usize>();
        let (res_tx, res_rx) = channel::unbounded::<(usize, GradientEstimate)>();
        for i in 0..logs.len() {
            // lint:allow(no-panic) job_rx lives until the scope below; unbounded send cannot fail
            job_tx.send(i).expect("receiver alive");
        }
        rec.incr(Counter::FleetJobsSubmitted, logs.len() as u64);
        // Closing the job channel is what terminates the workers: each
        // drains until `recv` reports disconnection.
        drop(job_tx);

        std::thread::scope(|scope| {
            for _ in 0..workers {
                let job_rx = job_rx.clone();
                let res_tx = res_tx.clone();
                let estimator = &self.estimator;
                scope.spawn(move || {
                    // One warm scratch per worker: after the first trip,
                    // estimation reuses its buffers instead of the heap.
                    let mut scratch = crate::pipeline::EstimatorScratch::new();
                    // Network mode keeps one matcher per worker so its
                    // query scratch stays warm across trips.
                    let mut net_matcher = match map {
                        MapMode::Network(net, index) => Some(NetworkMatcher::new(net, index)),
                        MapMode::Shared(_) => None,
                    };
                    // Worker lifetime + busy time feed the utilization
                    // histogram; clock reads only when recording.
                    let spawned = if rec.enabled() { Some(Instant::now()) } else { None };
                    let mut busy_ns = 0u64;
                    while let Ok(i) = job_rx.recv() {
                        let t0 = if rec.enabled() { Some(Instant::now()) } else { None };
                        if rec.enabled() {
                            rec.event(TraceEvent::FleetJobStart { job: i as u32 });
                        }
                        let matched;
                        let route = if let Some(matcher) = net_matcher.as_mut() {
                            let tm = if rec.enabled() { Some(Instant::now()) } else { None };
                            matched = matcher.match_trip(&logs[i].gps);
                            if let Some(tm) = tm {
                                rec.record_span(Span::NetworkMatchTrip, saturating_ns(tm));
                            }
                            matched.route.as_ref()
                        } else {
                            match map {
                                MapMode::Shared(r) => r,
                                MapMode::Network(..) => None,
                            }
                        };
                        let mut est = GradientEstimate::default();
                        estimator.estimate_into_recorded(
                            &logs[i],
                            route,
                            &mut scratch,
                            &mut est,
                            rec,
                        );
                        if let Some((road_ids, cloud)) = cloud {
                            cloud.upload_recorded(road_ids[i], &est.fused, rec);
                        }
                        if let Some(t0) = t0 {
                            let ns = saturating_ns(t0);
                            busy_ns += ns;
                            rec.record_span(Span::FleetWorkerTrip, ns);
                            rec.event(TraceEvent::FleetJobEnd { job: i as u32 });
                        }
                        rec.incr(Counter::FleetJobsCompleted, 1);
                        if res_tx.send((i, est)).is_err() {
                            break;
                        }
                    }
                    if let Some(spawned) = spawned {
                        let lifetime_ns = saturating_ns(spawned).max(1);
                        rec.observe(
                            Histogram::FleetWorkerUtilization,
                            busy_ns as f64 / lifetime_ns as f64,
                        );
                    }
                });
            }
            drop(res_tx);
            drop(job_rx);

            // Hold-back reordering: emit index `next` only once every
            // earlier trip has been emitted.
            let mut next = 0usize;
            let mut pending: BTreeMap<usize, GradientEstimate> = BTreeMap::new();
            for (i, est) in res_rx.iter() {
                pending.insert(i, est);
                if rec.enabled() && i != next {
                    // A result arrived out of order: sample how much is
                    // parked awaiting earlier trips.
                    rec.observe(Histogram::FleetHoldbackDepth, pending.len() as f64);
                }
                while let Some(est) = pending.remove(&next) {
                    on_result(next, est);
                    next += 1;
                }
            }
            assert_eq!(next, logs.len(), "worker pool dropped a job");
        });
        batch_timer.finish(rec, Span::FleetBatch);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::EstimatorConfig;
    use gradest_geo::generate::straight_road;
    use gradest_geo::Route;
    use gradest_sensors::suite::{SensorConfig, SensorSuite};
    use gradest_sim::trip::{simulate_trip, TripConfig};

    fn batch(route: &Route, n: u64) -> Vec<SensorLog> {
        (0..n)
            .map(|seed| {
                let traj = simulate_trip(route, &TripConfig::default(), 40 + seed);
                SensorSuite::new(SensorConfig::default()).run(&traj, 40 + seed)
            })
            .collect()
    }

    #[test]
    fn one_worker_and_many_workers_are_bit_identical() {
        let route = Route::new(vec![straight_road(500.0, 2.0)]).unwrap();
        let logs = batch(&route, 6);
        let estimator = GradientEstimator::new(EstimatorConfig::default());
        let serial = FleetEngine::new(estimator.clone(), 1).process_batch(&logs, Some(&route));
        let parallel = FleetEngine::new(estimator, 4).process_batch(&logs, Some(&route));
        assert_eq!(serial.len(), parallel.len());
        // PartialEq over every track sample: bit-identical, not close.
        assert_eq!(serial, parallel);
    }

    #[test]
    fn streaming_preserves_submission_order() {
        let route = Route::new(vec![straight_road(400.0, 1.0)]).unwrap();
        let logs = batch(&route, 5);
        let engine = FleetEngine::new(GradientEstimator::new(EstimatorConfig::default()), 3);
        let mut seen = Vec::new();
        engine.process_streaming(&logs, Some(&route), |i, est| {
            assert!(!est.fused.is_empty());
            seen.push(i);
        });
        assert_eq!(seen, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn empty_batch_is_a_no_op() {
        let engine = FleetEngine::new(GradientEstimator::new(EstimatorConfig::default()), 4);
        assert!(engine.process_batch(&[], None).is_empty());
    }

    #[test]
    fn an_out_of_domain_log_gets_the_empty_estimate_and_spares_its_batch() {
        use crate::track::GradientTrack;
        let route = Route::new(vec![straight_road(400.0, 1.0)]).unwrap();
        let logs = batch(&route, 2);
        let engine = FleetEngine::new(GradientEstimator::new(EstimatorConfig::default()), 2);
        let clean = engine.process_batch(&logs, Some(&route));
        let empty = GradientEstimate { fused: GradientTrack::new("fused"), ..Default::default() };
        let hostile: [fn(&mut SensorLog); 3] = [
            |log| log.imu.truncate(1),
            |log| log.imu.swap(100, 101),
            |log| log.imu[100].accel_long = f64::NAN,
        ];
        for corrupt in hostile {
            let mut bad = logs[0].clone();
            corrupt(&mut bad);
            let batch = [logs[0].clone(), bad, logs[1].clone()];
            let got = engine.process_batch(&batch, Some(&route));
            assert_eq!(got, [clean[0].clone(), empty.clone(), clean[1].clone()]);
        }
    }

    #[test]
    fn worker_count_is_clamped_to_one() {
        let engine = FleetEngine::new(GradientEstimator::new(EstimatorConfig::default()), 0);
        assert_eq!(engine.workers(), 1);
    }

    #[test]
    fn recorded_batch_matches_plain_and_reports_pool_activity() {
        let route = Route::new(vec![straight_road(500.0, 2.0)]).unwrap();
        let logs = batch(&route, 6);
        let road_ids = vec![3u64; logs.len()];
        let cloud = CloudAggregator::new(5.0);
        let engine = FleetEngine::new(GradientEstimator::new(EstimatorConfig::default()), 3);
        let plain = engine.process_batch(&logs, Some(&route));
        let rec = gradest_obs::RunRecorder::new();
        let recorded =
            engine.process_batch_to_cloud_recorded(&logs, &road_ids, Some(&route), &cloud, &rec);
        assert_eq!(plain, recorded, "recording must not perturb batch output");
        let report = rec.report();
        assert_eq!(report.counter("fleet-jobs-submitted"), Some(6));
        assert_eq!(report.counter("fleet-jobs-completed"), Some(6));
        assert_eq!(report.counter("trips-processed"), Some(6));
        assert_eq!(report.counter("cloud-uploads"), Some(6));
        assert_eq!(report.span("fleet-batch").map(|s| s.count), Some(1));
        assert_eq!(report.span("fleet-worker-trip").map(|s| s.count), Some(6));
        assert_eq!(report.span("cloud-upload").map(|s| s.count), Some(6));
        // One utilization sample per worker (3 workers for 6 trips).
        assert_eq!(report.histogram("fleet-worker-utilization").map(|h| h.count), Some(3));
    }

    #[test]
    fn network_mode_matches_trips_and_is_bit_identical_across_workers() {
        use gradest_geo::generate::city_network;
        use gradest_geo::index::NetworkIndex;
        let net = city_network(13);
        let index = NetworkIndex::build(&net);
        // Trips on distinct network routes, simulated without telling the
        // engine which route each trip drove.
        let logs: Vec<SensorLog> = [(0usize, 25usize), (40, 70), (15, 88)]
            .iter()
            .enumerate()
            .map(|(k, &(a, b))| {
                let route = net.route_between(a, b, |r| r.length()).expect("grid is connected");
                let traj = simulate_trip(&route, &TripConfig::default(), 60 + k as u64);
                SensorSuite::new(SensorConfig::default()).run(&traj, 60 + k as u64)
            })
            .collect();
        let estimator = GradientEstimator::new(EstimatorConfig::default());
        let serial =
            FleetEngine::new(estimator.clone(), 1).process_batch_network(&logs, &net, &index);
        let parallel = FleetEngine::new(estimator, 4).process_batch_network(&logs, &net, &index);
        assert_eq!(serial.len(), logs.len());
        assert_eq!(serial, parallel, "network matching must stay deterministic");
        for est in &serial {
            assert!(!est.fused.is_empty());
        }
        // Recorded run reports one match span per trip.
        let rec = gradest_obs::RunRecorder::new();
        let engine = FleetEngine::new(GradientEstimator::new(EstimatorConfig::default()), 2);
        let recorded = engine.process_batch_network_recorded(&logs, &net, &index, &rec);
        assert_eq!(recorded, serial, "recording must not perturb network-mode output");
        let report = rec.report();
        assert_eq!(report.span("network-match-trip").map(|s| s.count), Some(3));
        assert_eq!(report.span("fleet-worker-trip").map(|s| s.count), Some(3));
    }

    #[test]
    fn cloud_uploads_arrive_from_all_workers() {
        let route = Route::new(vec![straight_road(400.0, 1.5)]).unwrap();
        let logs = batch(&route, 6);
        let road_ids = vec![7u64; logs.len()];
        let cloud = CloudAggregator::new(5.0);
        let engine = FleetEngine::new(GradientEstimator::new(EstimatorConfig::default()), 3);
        let ests = engine.process_batch_to_cloud_recorded(
            &logs,
            &road_ids,
            Some(&route),
            &cloud,
            &NoopRecorder,
        );
        assert_eq!(ests.len(), logs.len());
        assert_eq!(cloud.uploads(), logs.len() as u64);
        assert!(cloud.road_profile(7).is_some());
    }
}
