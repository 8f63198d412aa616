//! Fleet-scale batch estimation: a worker pool fanning trips across
//! threads.
//!
//! The paper's cloud service (Section III-C3) ingests tracks from many
//! vehicles; reproducing its experiments means estimating hundreds of
//! independent trips, which the single-trip pipeline
//! ([`GradientEstimator::estimate`]) only exercises one core at a time.
//! [`FleetEngine`] closes that gap. A batch is a slice of [`SensorLog`]s,
//! fully known before any worker starts: workers claim trips from one
//! atomic ticket counter until the slice runs out, so a long trip never
//! holds the other workers back, and each keeps its own
//! `(index, estimate)` pairs. Joining the workers hands the pairs back,
//! and the batch returns the estimates in **submission order** — so a
//! 1-worker and an N-worker run produce bit-identical output.
//!
//! Tickets hand the trips out **longest first**: ticket `k` claims the
//! `k`-th trip of the batch stably sorted by descending IMU sample
//! count. Estimate work grows with the sample count, and match work
//! with the GPS fixes, which grow with the same duration; so the batch
//! ends on short trips instead of one worker running the longest trip
//! while the others idle (greedy longest-first finishes within
//! 4/3 − 1/(3m) of the optimal time on `m` workers). Which worker runs
//! which trip does not change any estimate.
//!
//! Each worker estimates its trips through one [`EstimatorScratch`],
//! taken from the engine's pool before the workers spawn and returned
//! when they are joined. The pool keeps at most one scratch per worker,
//! so a scratch stays warm across batches: a later batch of similar
//! trips reuses its buffers instead of growing them again.

use crate::cloud::CloudAggregator;
use crate::pipeline::{EstimatorScratch, GradientEstimate, GradientEstimator};
use crate::sync::{AtomicUsize, Mutex, Ordering};
use gradest_geo::index::NetworkIndex;
use gradest_geo::network::RoadNetwork;
use gradest_geo::Route;
use gradest_obs::{
    saturating_ns, Counter, Histogram, NoopRecorder, Recorder, Span, SpanTimer, TraceEvent,
};
use gradest_sensors::suite::SensorLog;
use gradest_sensors::NetworkMatcher;
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
#[derive(Debug)]
pub struct FleetEngine {
    estimator: GradientEstimator,
    workers: usize,
    // sync: the warm scratches between batches, at most `workers`. A
    // batch pops one per worker before spawning them and pushes them
    // back after joining them; the lock is held for those pops or
    // those pushes only, never across an estimate.
    scratches: Mutex<Vec<EstimatorScratch>>,
}

impl FleetEngine {
    /// Creates an engine with an explicit worker count (clamped to at
    /// least one).
    pub fn new(estimator: GradientEstimator, workers: usize) -> Self {
        FleetEngine { estimator, workers: workers.max(1), scratches: Mutex::default() }
    }

    /// The underlying per-trip estimator.
    pub fn estimator(&self) -> &GradientEstimator {
        &self.estimator
    }

    /// Estimates every trip in the batch, returning results in
    /// submission order. Output is bit-identical for any worker count.
    pub fn process_batch(&self, logs: &[SensorLog], map: Option<&Route>) -> Vec<GradientEstimate> {
        self.run_pool(logs, MapMode::Shared(map), None, &NoopRecorder)
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
    /// pool adds batch/worker spans, job counters and per-worker
    /// utilization. Each trip's match time is recorded under the
    /// `network-match-trip` span.
    pub fn process_batch_network_recorded<R: Recorder>(
        &self,
        logs: &[SensorLog],
        net: &RoadNetwork,
        index: &NetworkIndex,
        rec: &R,
    ) -> Vec<GradientEstimate> {
        self.run_pool(logs, MapMode::Network(net, index), None, rec)
    }

    /// [`Self::process_batch`] with cloud fan-in, reporting to an
    /// observability [`Recorder`]: once the workers are joined, the
    /// batch uploads each trip's fused track to `cloud` under
    /// `road_ids[index]`, in submission order. Returned estimates and
    /// the cloud's per-cell sums are therefore bit-identical for any
    /// worker count, and equal to a serial upload in submission order,
    /// even when trips share a road id. (`fleet_bench`'s
    /// `cloud_upload_contention` row drives the aggregator's concurrent
    /// upload path with threads of its own.)
    ///
    /// The per-trip pipeline and the cloud uploads record through `rec`,
    /// and the pool adds batch/worker spans, job counters and per-worker
    /// utilization. Pass [`NoopRecorder`] to record nothing.
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
        self.run_pool(logs, MapMode::Shared(map), Some((road_ids, cloud)), rec)
    }

    fn run_pool<R: Recorder>(
        &self,
        logs: &[SensorLog],
        map: MapMode<'_>,
        cloud: Option<(&[u64], &CloudAggregator)>,
        rec: &R,
    ) -> Vec<GradientEstimate> {
        if logs.is_empty() {
            return Vec::new();
        }
        let batch_timer = SpanTimer::start(rec);
        let workers = self.workers.min(logs.len());
        rec.incr(Counter::FleetJobsSubmitted, logs.len() as u64);

        // One warm scratch per worker, kept in the pool across batches:
        // estimation reuses its buffers instead of the heap.
        let taken: Vec<EstimatorScratch> = {
            let mut pool = self.scratches.lock();
            (0..workers).map(|_| pool.pop().unwrap_or_default()).collect()
        };
        // The claim order: longest trip (most IMU samples) first, so the
        // batch does not end on one worker running its longest trip
        // alone. The sort is stable, so equal lengths keep submission
        // order.
        let mut order: Vec<(usize, &SensorLog)> = logs.iter().enumerate().collect();
        order.sort_by_key(|&(_, log)| std::cmp::Reverse(log.imu.len()));
        // sync: the ticket counter. Each `fetch_add` claims one slot of
        // `order`, so every index goes to exactly one worker. Relaxed is
        // enough: the slice and the order are shared before the spawn
        // and the pairs come back through the join, and both
        // synchronise.
        let next = AtomicUsize::new(0);
        let joined: Vec<_> = std::thread::scope(|scope| {
            let handles: Vec<_> = taken
                .into_iter()
                .map(|scratch| {
                    let (next, order) = (&next, &order);
                    scope.spawn(move || self.work(order, map, rec, next, scratch))
                })
                .collect();
            // A worker's panic resumes here, as the scope would.
            handles
                .into_iter()
                .map(|h| h.join().unwrap_or_else(|panic| std::panic::resume_unwind(panic)))
                .collect()
        });

        let mut estimates = Vec::with_capacity(logs.len());
        {
            let mut pool = self.scratches.lock();
            for (done, scratch) in joined {
                estimates.extend(done);
                // Concurrent batches on one engine run more workers
                // than `workers`; the pool keeps only that many.
                if pool.len() < self.workers {
                    pool.push(scratch);
                }
            }
        }
        // Every index was claimed exactly once, so sorting by it gives
        // the submission order. Uploading in that order keeps every
        // cell's sums independent of which worker finished first.
        estimates.sort_unstable_by_key(|&(i, _)| i);
        if let Some((road_ids, cloud)) = cloud {
            for ((_, est), &road_id) in estimates.iter().zip(road_ids) {
                cloud.upload_recorded(road_id, &est.fused, rec);
            }
        }
        batch_timer.finish(rec, Span::FleetBatch);
        estimates.into_iter().map(|(_, est)| est).collect()
    }

    /// One worker: claims `(index, trip)` slots of `order` from `next`
    /// until the batch runs out, estimates each trip through `scratch`,
    /// and hands its `(index, estimate)` pairs back with the scratch.
    fn work<R: Recorder>(
        &self,
        order: &[(usize, &SensorLog)],
        map: MapMode<'_>,
        rec: &R,
        // sync: the batch's ticket counter, see `run_pool`.
        next: &AtomicUsize,
        mut scratch: EstimatorScratch,
    ) -> (Vec<(usize, GradientEstimate)>, EstimatorScratch) {
        // Network mode keeps one matcher per worker so its query scratch
        // stays warm across trips.
        let mut net_matcher = match map {
            MapMode::Network(net, index) => Some(NetworkMatcher::new(net, index)),
            MapMode::Shared(_) => None,
        };
        // Worker lifetime + busy time feed the utilization histogram;
        // clock reads only when recording.
        let spawned = if rec.enabled() { Some(Instant::now()) } else { None };
        let mut busy_ns = 0u64;
        let mut done = Vec::new();
        loop {
            // sync: Relaxed ticket claim, see `run_pool`.
            let ticket = next.fetch_add(1, Ordering::Relaxed);
            let Some(&(i, log)) = order.get(ticket) else {
                break;
            };
            let t0 = if rec.enabled() { Some(Instant::now()) } else { None };
            if rec.enabled() {
                rec.event(TraceEvent::FleetJobStart { job: i as u32 });
            }
            let matched;
            let route = if let Some(matcher) = net_matcher.as_mut() {
                let tm = if rec.enabled() { Some(Instant::now()) } else { None };
                matched = matcher.match_trip(&log.gps);
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
            self.estimator.estimate_into_recorded(log, route, &mut scratch, &mut est, rec);
            if let Some(t0) = t0 {
                let ns = saturating_ns(t0);
                busy_ns += ns;
                rec.record_span(Span::FleetWorkerTrip, ns);
                rec.event(TraceEvent::FleetJobEnd { job: i as u32 });
            }
            rec.incr(Counter::FleetJobsCompleted, 1);
            done.push((i, est));
        }
        if let Some(spawned) = spawned {
            let lifetime_ns = saturating_ns(spawned).max(1);
            rec.observe(Histogram::FleetWorkerUtilization, busy_ns as f64 / lifetime_ns as f64);
        }
        (done, scratch)
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
    use std::sync::atomic::AtomicUsize;
    use std::sync::Barrier;

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
        assert_eq!(engine.workers, 1);
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

    /// A serial `estimate_into` loop through one scratch, the reference
    /// a batch must reproduce; `route_of` gives each trip's map.
    fn serial<'a>(
        estimator: &GradientEstimator,
        logs: &'a [SensorLog],
        mut route_of: impl FnMut(&'a SensorLog) -> Option<Route>,
    ) -> Vec<GradientEstimate> {
        let mut scratch = EstimatorScratch::new();
        logs.iter()
            .map(|log| {
                let mut out = GradientEstimate::default();
                estimator.estimate_into(log, route_of(log).as_ref(), &mut scratch, &mut out);
                out
            })
            .collect()
    }

    /// The scratches an engine keeps between batches.
    fn pooled(engine: &FleetEngine) -> usize {
        engine.scratches.lock().len()
    }

    #[test]
    fn pooled_scratches_stay_warm_and_bit_identical_across_batches() {
        use gradest_geo::generate::city_network;
        use gradest_geo::index::NetworkIndex;
        let estimator = GradientEstimator::new(EstimatorConfig::default());
        // Shared-route batches: the second drives a longer road, so the
        // pooled scratches must grow.
        let short = Route::new(vec![straight_road(300.0, 1.0)]).unwrap();
        let long = Route::new(vec![straight_road(900.0, -2.0)]).unwrap();
        let shared = [(batch(&short, 3), short), (batch(&long, 3), long)];
        // Network batches, the second again on longer trips.
        let net = city_network(13);
        let index = NetworkIndex::build(&net);
        let network: Vec<Vec<SensorLog>> = [[(40usize, 50usize), (41, 42)], [(40, 70), (0, 2)]]
            .iter()
            .map(|pairs| {
                pairs
                    .iter()
                    .map(|&(a, b)| {
                        let route = net.route_between(a, b, |r| r.length()).expect("connected");
                        let traj = simulate_trip(&route, &TripConfig::default(), 70 + a as u64);
                        SensorSuite::new(SensorConfig::default()).run(&traj, 70 + a as u64)
                    })
                    .collect()
            })
            .collect();
        let longest = |logs: &[SensorLog]| logs.iter().map(|l| l.imu.len()).max().unwrap_or(0);
        assert!(longest(&shared[1].0) > longest(&shared[0].0));
        assert!(longest(&network[1]) > longest(&network[0]));
        let mut matcher = NetworkMatcher::new(&net, &index);
        for workers in [1, 2] {
            let engine = FleetEngine::new(estimator.clone(), workers);
            for (logs, route) in &shared {
                let got = engine.process_batch(logs, Some(route));
                let fresh = FleetEngine::new(estimator.clone(), workers);
                assert_eq!(got, fresh.process_batch(logs, Some(route)), "{workers} workers");
                assert_eq!(got, serial(&estimator, logs, |_| Some(route.clone())));
                assert_eq!(pooled(&engine), workers, "one warm scratch per worker");
            }
            for logs in &network {
                let got = engine.process_batch_network(logs, &net, &index);
                let fresh = FleetEngine::new(estimator.clone(), workers);
                assert_eq!(got, fresh.process_batch_network(logs, &net, &index));
                let want = serial(&estimator, logs, |log| matcher.match_trip(&log.gps).route);
                assert_eq!(got, want, "{workers} workers, network");
                assert_eq!(pooled(&engine), workers);
            }
        }
        // Two 2-trip batches at once on a 2-worker engine run four
        // workers, each holding a scratch until every job has started;
        // the pool still keeps at most two.
        let engine = FleetEngine::new(estimator, 2);
        let rec = StartTogether { started: AtomicUsize::new(0), all: Barrier::new(4) };
        std::thread::scope(|scope| {
            for _ in 0..2 {
                scope.spawn(|| {
                    engine.process_batch_network_recorded(&network[0], &net, &index, &rec)
                });
            }
        });
        assert_eq!(rec.started.into_inner(), 4);
        assert_eq!(pooled(&engine), 2);
    }

    /// A recorder that holds the first four fleet jobs to start until all
    /// four have started, so the workers running them overlap.
    struct StartTogether {
        // sync: counts job starts; the barrier, not this count, orders
        // the workers.
        started: AtomicUsize,
        all: Barrier,
    }

    impl Recorder for StartTogether {
        fn enabled(&self) -> bool {
            true
        }

        fn event(&self, ev: TraceEvent) {
            // sync: Relaxed — a count of arrivals, read after the join.
            let first_four = matches!(ev, TraceEvent::FleetJobStart { .. })
                && self.started.fetch_add(1, std::sync::atomic::Ordering::Relaxed) < 4;
            if first_four {
                self.all.wait();
            }
        }
    }

    /// A recorder that starts fleet job `i` of `jobs` only after every
    /// higher-index job has ended, so the workers finish in reverse
    /// index order.
    struct ReverseFinish {
        jobs: usize,
        // sync: jobs ended so far; `wake` tells the held-back starts.
        ended: std::sync::Mutex<usize>,
        wake: std::sync::Condvar,
    }

    impl Recorder for ReverseFinish {
        fn enabled(&self) -> bool {
            true
        }

        fn event(&self, ev: TraceEvent) {
            match ev {
                TraceEvent::FleetJobStart { job } => {
                    let later = self.jobs - 1 - job as usize;
                    let ended = self.ended.lock().unwrap();
                    drop(self.wake.wait_while(ended, |ended| *ended < later).unwrap());
                }
                TraceEvent::FleetJobEnd { .. } => {
                    *self.ended.lock().unwrap() += 1;
                    self.wake.notify_all();
                }
                _ => {}
            }
        }
    }

    #[test]
    fn cloud_cells_equal_a_serial_upload_when_workers_finish_in_reverse() {
        let route = Route::new(vec![straight_road(400.0, 1.5)]).unwrap();
        let logs = batch(&route, 4);
        // Every trip on one road, one worker per trip.
        let road_ids = vec![7u64; logs.len()];
        let engine =
            FleetEngine::new(GradientEstimator::new(EstimatorConfig::default()), logs.len());
        let rec = ReverseFinish {
            jobs: logs.len(),
            ended: std::sync::Mutex::new(0),
            wake: std::sync::Condvar::new(),
        };
        let cloud = CloudAggregator::new(5.0);
        let ests =
            engine.process_batch_to_cloud_recorded(&logs, &road_ids, Some(&route), &cloud, &rec);
        assert_eq!(*rec.ended.lock().unwrap(), logs.len());
        let serial = CloudAggregator::new(5.0);
        for est in &ests {
            serial.upload(7, &est.fused);
        }
        let (got, want) = (cloud.road_profile(7).unwrap(), serial.road_profile(7).unwrap());
        assert_eq!(got.s, want.s);
        let bits = |x: &f64| x.to_bits();
        let differ = |a: &[f64], b: &[f64]| {
            a.iter().map(bits).zip(b.iter().map(bits)).filter(|(x, y)| x != y).count()
        };
        assert_eq!(
            (differ(&got.theta, &want.theta), differ(&got.variance, &want.variance)),
            (0, 0),
            "cells (θ, variance) that differ from a serial upload, of {}",
            got.len()
        );
    }

    /// A recorder that keeps the order fleet jobs start in.
    #[derive(Default)]
    struct JobStarts(std::sync::Mutex<Vec<usize>>);

    impl Recorder for JobStarts {
        fn enabled(&self) -> bool {
            true
        }

        fn event(&self, ev: TraceEvent) {
            if let TraceEvent::FleetJobStart { job } = ev {
                self.0.lock().unwrap().push(job as usize);
            }
        }
    }

    #[test]
    fn workers_claim_the_longest_trips_first() {
        // Submitted in no order of length, with one length twice.
        let lengths = [300.0, 700.0, 450.0, 700.0, 200.0, 550.0];
        let logs: Vec<SensorLog> = lengths
            .iter()
            .map(|&m| {
                let route = Route::new(vec![straight_road(m, 1.0)]).unwrap();
                let traj = simulate_trip(&route, &TripConfig::default(), 80);
                SensorSuite::new(SensorConfig::default()).run(&traj, 80)
            })
            .collect();
        let samples: Vec<usize> = logs.iter().map(|log| log.imu.len()).collect();
        assert_eq!(samples[1], samples[3], "the tie");
        let estimator = GradientEstimator::new(EstimatorConfig::default());
        let rec = JobStarts::default();
        let one = FleetEngine::new(estimator.clone(), 1).run_pool(
            &logs,
            MapMode::Shared(None),
            None,
            &rec,
        );
        // Descending sample count, ties in submission order.
        let started = rec.0.into_inner().unwrap();
        assert_eq!(started, [1, 3, 5, 2, 0, 4], "samples per trip: {samples:?}");
        // Estimates still come back in submission order, and equal
        // every worker count's bit for bit.
        assert_eq!(one, serial(&estimator, &logs, |_| None));
        for workers in [2, 3] {
            let many = FleetEngine::new(estimator.clone(), workers).process_batch(&logs, None);
            assert_eq!(many, one, "{workers} workers");
        }
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
