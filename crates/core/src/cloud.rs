//! Cloud-side multi-vehicle track aggregation.
//!
//! Section III-C3 closes with: "After a vehicle obtains the road gradient
//! of a road, it can upload it to the cloud and the cloud can use the
//! track fusion algorithm to fuse road gradient results from different
//! vehicles, which produces more accurate road gradient." This module is
//! that service: vehicles upload per-road [`GradientTrack`]s; the
//! aggregator keeps, per road and per arc cell, the running
//! inverse-variance (convex combination) fusion — mathematically identical
//! to batching Eq (6) over all uploads.
//!
//! # Concurrency
//!
//! A fleet uploads from many trips at once, so `upload` takes `&self` and
//! the road table is split across a fixed set of lock stripes (shards),
//! each guarding the roads whose id hashes to it. Uploads for different
//! roads proceed in parallel; uploads for the same road serialise on one
//! stripe's write lock, keeping the per-cell running sums exact. Reads
//! (`road_profile`, `coverage_at`) take a shared lock on a single stripe.
//!
//! # Read path
//!
//! Vehicles read the map far more often than they write it, so the
//! fused profile of a road is computed where it changes: every upload
//! rebuilds its road's profile under the same write lock as the merge,
//! and a profile read is a copy.
//! A reader therefore sees either the profile before an upload or the
//! profile after it, never a mix.

use crate::sync::{AtomicU64, Ordering, RwLock};
use crate::track::GradientTrack;
use gradest_obs::{Counter, NoopRecorder, Recorder, Span, SpanTimer, TraceEvent};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// Number of lock stripes the road table is sharded over. More stripes
/// than worker threads keeps same-stripe collisions rare without making
/// whole-table scans (`road_count`) expensive.
const STRIPES: usize = 16;

/// Per-cell running fusion state: `Σ θ/P` and `Σ 1/P`.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
struct Cell {
    weighted_theta: f64,
    inv_variance: f64,
    uploads: u32,
}

/// One road's accumulated profile.
#[derive(Debug, Clone, PartialEq, Default)]
struct RoadAccumulator {
    /// Arc cells at `grid_ds` spacing, indexed by `floor(s/ds)`.
    cells: Vec<Cell>,
    /// The fused `(s, θ, P)` of the cells with weight, in cell order
    /// (label unused), rebuilt from `cells` by every upload that
    /// changes them.
    profile: GradientTrack,
}

impl RoadAccumulator {
    /// Recomputes `profile` from `cells`: `s = (i + ½)·ds`,
    /// `θ = Σθ/P ÷ Σ1/P` and `P = 1 ÷ Σ1/P`, skipping cells with
    /// `Σ1/P ≤ 0`. Field pushes, not `GradientTrack::push`: an
    /// overflowed `Σ1/P` gives `P = 0`, which its debug assert refuses.
    ///
    /// Eq 6 apart from `fusion`'s sum: a cell's sums persist across
    /// uploads, and `Σθ/P ÷ Σ1/P` rounds differently from its `U·Σθ/P`.
    fn rebuild_profile(&mut self, grid_ds: f64) {
        let p = &mut self.profile;
        p.s.clear();
        p.theta.clear();
        p.variance.clear();
        for (i, cell) in self.cells.iter().enumerate() {
            if cell.inv_variance <= 0.0 {
                continue;
            }
            p.s.push((i as f64 + 0.5) * grid_ds);
            p.theta.push(cell.weighted_theta / cell.inv_variance);
            p.variance.push(1.0 / cell.inv_variance);
        }
    }
}

/// The cloud aggregation service.
///
/// Shared-state concurrent: `upload` takes `&self`, so a `CloudAggregator`
/// behind an `Arc` (or borrowed across scoped threads) ingests tracks from
/// many vehicles in parallel.
///
/// Each road keeps its fused profile beside its cell sums: an upload
/// rebuilds it under the stripe write lock (O(cells of the road), the
/// order of the merge itself), and [`Self::road_profile_into`] copies it
/// under the read lock instead of recomputing it.
///
/// # Example
///
/// ```
/// use gradest_core::cloud::CloudAggregator;
/// use gradest_core::track::GradientTrack;
///
/// let cloud = CloudAggregator::new(5.0);
/// let mut t = GradientTrack::new("vehicle-1");
/// t.push(0.0, 0.03, 1e-4);
/// t.push(5.0, 0.035, 1e-4);
/// cloud.upload(17, &t);
/// let profile = cloud.road_profile(17).expect("road known");
/// assert_eq!(profile.len(), 2);
/// ```
#[derive(Debug)]
pub struct CloudAggregator {
    grid_ds: f64,
    // sync: each stripe's write lock guards the accumulators of the
    // roads hashing to it; all reads and writes of cell sums happen
    // under it. No thread ever holds two stripes at once, so there is
    // no lock order to get wrong.
    stripes: Box<[RwLock<HashMap<u64, RoadAccumulator>>]>,
    // sync: standalone monotonic statistic, incremented before taking
    // the stripe lock; Relaxed is sufficient (see `uploads()`).
    uploads: AtomicU64,
}

/// Point-in-time operational counters of a [`CloudAggregator`],
/// reported by fleet runs (`BENCH_fleet.json`) so upload volume is
/// visible in diagnostics output.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct CloudSnapshot {
    /// Total uploads received ([`CloudAggregator::uploads`]).
    pub uploads: u64,
    /// Roads with at least one upload ([`CloudAggregator::road_count`]).
    pub roads: usize,
}

impl CloudAggregator {
    /// Creates an aggregator with the given arc-cell spacing (metres).
    ///
    /// # Panics
    ///
    /// Panics if `grid_ds <= 0`.
    pub fn new(grid_ds: f64) -> Self {
        assert!(grid_ds > 0.0, "grid spacing must be positive");
        let stripes: Vec<_> = (0..STRIPES).map(|_| RwLock::new(HashMap::new())).collect();
        CloudAggregator { grid_ds, stripes: stripes.into_boxed_slice(), uploads: AtomicU64::new(0) }
    }

    fn stripe(&self, road_id: u64) -> &RwLock<HashMap<u64, RoadAccumulator>> {
        // Mix the high bits in so sequential road ids still spread when
        // callers batch them in aligned blocks.
        let h = road_id ^ (road_id >> 7);
        let idx = (h as usize) % STRIPES;
        &self.stripes[idx]
    }

    /// Number of roads with at least one upload.
    pub fn road_count(&self) -> usize {
        self.stripes.iter().map(|s| s.read().len()).sum()
    }

    /// Total uploads received.
    ///
    /// `Relaxed` is sufficient for this counter on both ends: it is a
    /// pure statistic — no other memory is published through it, and
    /// no caller branches on it to infer that a track's cells are
    /// visible (that guarantee comes from the stripe locks). Atomicity
    /// alone makes the count exact; ordering would add nothing.
    pub fn uploads(&self) -> u64 {
        // sync: Relaxed — standalone counter, exactness comes from
        // fetch_add atomicity, not ordering (see doc above).
        self.uploads.load(Ordering::Relaxed)
    }

    /// Operational counters for diagnostics reporting.
    pub fn snapshot(&self) -> CloudSnapshot {
        CloudSnapshot { uploads: self.uploads(), roads: self.road_count() }
    }

    /// Ingests one vehicle's track for a road. Each estimate lands in the
    /// arc cell containing its position and joins the running convex
    /// combination. Estimates whose variance is not finite and positive,
    /// or whose θ or arc position is not finite, are skipped, and a
    /// track with no valid estimate creates no road.
    ///
    /// Takes `&self`: concurrent uploads are safe, and uploads to
    /// different roads rarely contend (they serialise only when both
    /// roads hash to the same stripe).
    pub fn upload(&self, road_id: u64, track: &GradientTrack) {
        self.upload_recorded(road_id, track, &NoopRecorder);
    }

    /// [`Self::upload`] reporting to an observability [`Recorder`]: a
    /// `cloud-upload` span around the stripe-locked merge, plus upload
    /// and touched-cell counters.
    pub fn upload_recorded<R: Recorder>(&self, road_id: u64, track: &GradientTrack, rec: &R) {
        if track.is_empty() {
            return;
        }
        let timer = SpanTimer::start(rec);
        // sync: Relaxed — counting only; the track data itself is
        // published to readers by the stripe write lock below.
        self.uploads.fetch_add(1, Ordering::Relaxed);
        let mut cells_touched = 0u64;
        // A NaN variance fails `> 0.0` (it would turn the cell's sums to
        // NaN for good); an infinite one fails `is_finite` (it would
        // count as coverage with no weight).
        let mut valid = track
            .s
            .iter()
            .zip(&track.theta)
            .zip(&track.variance)
            .map(|((&s, &theta), &var)| (s, theta, var))
            .filter(|&(s, theta, var)| {
                var > 0.0 && var.is_finite() && theta.is_finite() && s.is_finite() && s >= 0.0
            })
            .peekable();
        if valid.peek().is_some() {
            let mut shard = self.stripe(road_id).write();
            let acc = shard.entry(road_id).or_default();
            for (s, theta, var) in valid {
                let idx = (s / self.grid_ds) as usize;
                if acc.cells.len() <= idx {
                    acc.cells.resize(idx + 1, Cell::default());
                }
                let cell = &mut acc.cells[idx];
                cell.weighted_theta += theta / var;
                cell.inv_variance += 1.0 / var;
                cell.uploads += 1;
                cells_touched += 1;
            }
            acc.rebuild_profile(self.grid_ds);
        }
        timer.finish(rec, Span::CloudUpload);
        rec.incr(Counter::CloudUploads, 1);
        rec.incr(Counter::CloudCellsTouched, cells_touched);
        if rec.enabled() {
            rec.event(TraceEvent::CloudUpload { road_id, cells: cells_touched as u32 });
        }
    }

    /// The fused profile of a road, labelled `cloud-road-{id}`, or
    /// `None` if the road is unknown. Cells that never received an
    /// estimate are skipped.
    pub fn road_profile(&self, road_id: u64) -> Option<GradientTrack> {
        let mut track = GradientTrack::new(format!("cloud-road-{road_id}"));
        self.road_profile_into(road_id, &mut track).then_some(track)
    }

    /// [`Self::road_profile`] without the per-call allocations: fills
    /// `out` (cleared first, label untouched) and returns whether the
    /// road produced any fused cells. It copies the profile the road's
    /// last upload kept, so wire encodings built from either read are
    /// byte-identical — this is the ingestion service's warm tile read
    /// path.
    pub fn road_profile_into(&self, road_id: u64, out: &mut GradientTrack) -> bool {
        out.s.clear();
        out.theta.clear();
        out.variance.clear();
        let shard = self.stripe(road_id).read();
        let Some(acc) = shard.get(&road_id) else {
            return false;
        };
        out.s.extend_from_slice(&acc.profile.s);
        out.theta.extend_from_slice(&acc.profile.theta);
        out.variance.extend_from_slice(&acc.profile.variance);
        !out.is_empty()
    }

    /// Number of vehicles' estimates that contributed to the road's cell
    /// containing `s` (coverage diagnostics).
    pub fn coverage_at(&self, road_id: u64, s: f64) -> u32 {
        let shard = self.stripe(road_id).read();
        let Some(acc) = shard.get(&road_id) else {
            return 0;
        };
        let idx = (s.max(0.0) / self.grid_ds) as usize;
        acc.cells.get(idx).map(|c| c.uploads).unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn track(theta: f64, var: f64, n: usize) -> GradientTrack {
        let mut t = GradientTrack::new("v");
        for i in 0..n {
            t.push(i as f64 * 5.0, theta, var);
        }
        t
    }

    fn bits(t: &GradientTrack) -> [Vec<u64>; 3] {
        [&t.s, &t.theta, &t.variance].map(|v| v.iter().map(|x| x.to_bits()).collect())
    }

    /// The read-time fusion the kept profile replaced, verbatim: the
    /// oracle every profile read is pinned to.
    fn read_time_profile(cloud: &CloudAggregator, road_id: u64) -> Option<GradientTrack> {
        let shard = cloud.stripe(road_id).read();
        let acc = shard.get(&road_id)?;
        let mut track = GradientTrack::new(format!("cloud-road-{road_id}"));
        for (i, cell) in acc.cells.iter().enumerate() {
            if cell.inv_variance <= 0.0 {
                continue;
            }
            let s = (i as f64 + 0.5) * cloud.grid_ds;
            track.push(s, cell.weighted_theta / cell.inv_variance, 1.0 / cell.inv_variance);
        }
        if track.is_empty() {
            None
        } else {
            Some(track)
        }
    }

    /// Roads on stripes 0, 1, 7 and 14, plus a second road on stripe 0.
    const ROADS: [u64; 5] = [0, 1, 7, 300, 1 << 40];

    /// One upload to a road of [`ROADS`]: arcs `step` apart from
    /// `start`, so tracks overlap and leave gaps, reversed half the
    /// time. About one sample in ten carries a value the upload filter
    /// skips (a NaN, infinite or non-positive variance, a non-finite θ,
    /// a non-finite or negative `s`), and in one upload in eight every
    /// sample does.
    fn upload() -> impl Strategy<Value = (u64, GradientTrack)> {
        let sample = (-0.15..0.15f64, -6.0..-2.0f64, 0usize..90);
        let samples = prop::collection::vec(sample, 0..30);
        (0..ROADS.len(), 0.0..120.0f64, 0.5..14.0f64, any::<bool>(), 0u32..8, samples).prop_map(
            |(road, start, step, reversed, all_invalid, samples)| {
                let mut t = GradientTrack::new("vehicle");
                for (i, (mut theta, log_var, fault)) in samples.into_iter().enumerate() {
                    let (mut s, mut var) = (start + i as f64 * step, 10f64.powf(log_var));
                    let fault = if all_invalid == 0 { fault % 9 } else { fault };
                    match fault {
                        0 => var = f64::NAN,
                        1 => var = f64::INFINITY,
                        2 => var = 0.0,
                        3 => var = -var,
                        4 => theta = f64::NAN,
                        5 => theta = f64::NEG_INFINITY,
                        6 => s = f64::NAN,
                        7 => s = f64::INFINITY,
                        8 => s = -s - 1.0,
                        _ => {}
                    }
                    // Field pushes: `push` refuses out-of-order arcs and
                    // the values the filter must skip.
                    t.s.push(s);
                    t.theta.push(theta);
                    t.variance.push(var);
                }
                if reversed {
                    t.s.reverse();
                }
                (ROADS[road], t)
            },
        )
    }

    proptest! {
        #[test]
        fn kept_profile_equals_read_time_fusion(uploads in prop::collection::vec(upload(), 1..24)) {
            let cloud = CloudAggregator::new(5.0);
            let mut out = GradientTrack::new("scratch");
            out.push(1.0, 2.0, 3.0);
            for (road, upload) in uploads {
                cloud.upload(road, &upload);
                for road in ROADS.into_iter().chain([404]) {
                    let want = read_time_profile(&cloud, road);
                    let got = cloud.road_profile(road);
                    prop_assert_eq!(got.as_ref().map(|t| &t.label), want.as_ref().map(|t| &t.label));
                    prop_assert_eq!(got.as_ref().map(bits), want.as_ref().map(bits));
                    let found = cloud.road_profile_into(road, &mut out);
                    prop_assert_eq!(found, want.is_some());
                    prop_assert_eq!(out.label.as_str(), "scratch");
                    let empty = GradientTrack::default();
                    prop_assert_eq!(bits(&out), bits(want.as_ref().unwrap_or(&empty)));
                }
            }
        }
    }

    #[test]
    fn single_upload_round_trips() {
        let cloud = CloudAggregator::new(5.0);
        cloud.upload(1, &track(0.04, 1e-4, 10));
        assert_eq!(cloud.road_count(), 1);
        assert_eq!(cloud.uploads(), 1);
        let p = cloud.road_profile(1).unwrap();
        for th in &p.theta {
            assert!((th - 0.04).abs() < 1e-12);
        }
    }

    #[test]
    fn fusion_weights_by_variance() {
        let cloud = CloudAggregator::new(5.0);
        cloud.upload(1, &track(0.00, 1e-2, 10)); // vague vehicle
        cloud.upload(1, &track(0.10, 1e-6, 10)); // confident vehicle
        let p = cloud.road_profile(1).unwrap();
        for th in &p.theta {
            assert!((th - 0.10).abs() < 1e-3, "fused {th}");
        }
        // Fused variance below the best contributor.
        for v in &p.variance {
            assert!(*v < 1e-6);
        }
    }

    #[test]
    fn incremental_equals_batch_mean_for_equal_variances() {
        let cloud = CloudAggregator::new(5.0);
        for theta in [0.02, 0.04, 0.06] {
            cloud.upload(9, &track(theta, 1e-4, 4));
        }
        let p = cloud.road_profile(9).unwrap();
        for th in &p.theta {
            assert!((th - 0.04).abs() < 1e-12);
        }
        assert_eq!(cloud.coverage_at(9, 7.0), 3);
    }

    #[test]
    fn recorded_upload_counts_cells() {
        let cloud = CloudAggregator::new(5.0);
        let rec = gradest_obs::RunRecorder::new();
        cloud.upload_recorded(1, &track(0.04, 1e-4, 10), &rec);
        cloud.upload_recorded(1, &GradientTrack::new("empty"), &rec);
        let report = rec.report();
        assert_eq!(report.counter("cloud-uploads"), Some(1));
        assert_eq!(report.counter("cloud-cells-touched"), Some(10));
        assert_eq!(report.span("cloud-upload").map(|s| s.count), Some(1));
    }

    #[test]
    fn road_profile_into_matches_allocating_read() {
        let cloud = CloudAggregator::new(5.0);
        cloud.upload(1, &track(0.02, 1e-4, 10));
        cloud.upload(1, &track(0.05, 2e-4, 6));
        let alloc = cloud.road_profile(1).unwrap();
        let mut warm = GradientTrack::new("tile");
        assert!(cloud.road_profile_into(1, &mut warm));
        assert_eq!(warm.s, alloc.s);
        assert_eq!(warm.theta, alloc.theta);
        assert_eq!(warm.variance, alloc.variance);
        // Unknown road clears the scratch and reports absence.
        assert!(!cloud.road_profile_into(404, &mut warm));
        assert!(warm.is_empty());
    }

    #[test]
    fn unknown_road_and_empty_inputs() {
        let cloud = CloudAggregator::new(5.0);
        assert!(cloud.road_profile(404).is_none());
        cloud.upload(5, &GradientTrack::new("empty"));
        assert_eq!(cloud.uploads(), 0);
        assert_eq!(cloud.coverage_at(5, 0.0), 0);
    }

    #[test]
    fn sparse_cells_are_skipped() {
        let cloud = CloudAggregator::new(5.0);
        let mut t = GradientTrack::new("v");
        t.push(2.0, 0.01, 1e-4);
        t.push(52.0, 0.02, 1e-4); // gap of 10 cells
        cloud.upload(2, &t);
        let p = cloud.road_profile(2).unwrap();
        assert_eq!(p.len(), 2);
        assert!((p.s[0] - 2.5).abs() < 1e-12);
        assert!((p.s[1] - 52.5).abs() < 1e-12);
    }

    #[test]
    fn invalid_estimates_are_ignored() {
        let cloud = CloudAggregator::new(5.0);
        let mut t = GradientTrack::new("v");
        t.push(0.0, f64::NAN, 1e-4);
        t.s.push(5.0);
        t.theta.push(0.02);
        t.variance.push(-1.0); // corrupted upload
        cloud.upload(3, &t);
        assert!(cloud.road_profile(3).is_none());
    }

    #[test]
    fn all_invalid_upload_creates_no_road() {
        let cloud = CloudAggregator::new(5.0);
        cloud.upload(1, &track(0.01, 1e-4, 4));
        let mut hostile = track(0.02, 1e-4, 6);
        hostile.theta.iter_mut().for_each(|th| *th = f64::NAN);
        cloud.upload(2, &hostile);
        assert_eq!(cloud.road_count(), 1);
        assert!(cloud.road_profile(2).is_none());
        assert_eq!(cloud.uploads(), 2);
    }

    #[test]
    fn non_finite_variances_leave_the_profile_untouched() {
        let clean = track(0.03, 2e-4, 12);
        // `push` refuses such variances, so corrupt the columns directly
        // (a decoded upload carries whatever bits the phone sent).
        let mut hostile = track(-0.5, 1.0, 12);
        for (i, var) in hostile.variance.iter_mut().enumerate() {
            *var = if i % 2 == 0 { f64::NAN } else { f64::INFINITY };
        }
        let both = CloudAggregator::new(5.0);
        both.upload(4, &clean);
        both.upload(4, &hostile);
        let alone = CloudAggregator::new(5.0);
        alone.upload(4, &clean);
        let (got, want) = (both.road_profile(4).unwrap(), alone.road_profile(4).unwrap());
        assert_eq!(bits(&got), bits(&want));
    }

    #[test]
    #[should_panic(expected = "grid spacing")]
    fn zero_grid_rejected() {
        let _ = CloudAggregator::new(0.0);
    }

    #[test]
    fn roads_spread_across_stripes() {
        let cloud = CloudAggregator::new(5.0);
        for road_id in 0..64u64 {
            cloud.upload(road_id, &track(0.01, 1e-4, 2));
        }
        assert_eq!(cloud.road_count(), 64);
        let populated = cloud.stripes.iter().filter(|s| !s.read().is_empty()).count();
        assert!(populated > STRIPES / 2, "only {populated} stripes used");
    }

    /// Concurrent uploads must equal the sequential result for the same
    /// upload multiset. Per-cell additions commute only up to float
    /// rounding, so the inputs here are dyadic (exactly representable
    /// sums) making equality bit-exact; `concurrent_upload_matches_
    /// sequential_tolerance` covers realistic values.
    #[test]
    fn concurrent_upload_matches_sequential_exact() {
        let thetas = [0.25, 0.5, -0.125, 0.0625];
        let var = 0.5; // 1/var and theta/var stay dyadic
        let roads: Vec<u64> = (0..8).collect();

        let sequential = CloudAggregator::new(5.0);
        for &road in &roads {
            for &th in &thetas {
                sequential.upload(road, &track(th, var, 6));
            }
        }

        let concurrent = CloudAggregator::new(5.0);
        std::thread::scope(|scope| {
            // One thread per theta: every road sees all four uploads, in
            // a thread-dependent order.
            for &th in &thetas {
                let concurrent = &concurrent;
                let roads = &roads;
                scope.spawn(move || {
                    for &road in roads {
                        concurrent.upload(road, &track(th, var, 6));
                    }
                });
            }
        });

        assert_eq!(concurrent.uploads(), sequential.uploads());
        assert_eq!(concurrent.road_count(), sequential.road_count());
        for &road in &roads {
            let a = sequential.road_profile(road).unwrap();
            let b = concurrent.road_profile(road).unwrap();
            assert_eq!(a.s, b.s);
            assert_eq!(a.theta, b.theta, "road {road} fused theta differs");
            assert_eq!(a.variance, b.variance);
        }
    }

    #[test]
    fn concurrent_upload_matches_sequential_tolerance() {
        let uploads: Vec<(f64, f64)> =
            (0..16).map(|i| (0.01 + 0.003 * i as f64, 1e-4 * (1.0 + i as f64))).collect();

        let sequential = CloudAggregator::new(5.0);
        for &(th, var) in &uploads {
            sequential.upload(7, &track(th, var, 10));
        }

        let concurrent = CloudAggregator::new(5.0);
        std::thread::scope(|scope| {
            for chunk in uploads.chunks(4) {
                let concurrent = &concurrent;
                scope.spawn(move || {
                    for &(th, var) in chunk {
                        concurrent.upload(7, &track(th, var, 10));
                    }
                });
            }
        });

        let a = sequential.road_profile(7).unwrap();
        let b = concurrent.road_profile(7).unwrap();
        assert_eq!(a.s, b.s);
        for (x, y) in a.theta.iter().zip(&b.theta) {
            assert!((x - y).abs() < 1e-12, "{x} vs {y}");
        }
    }
}
