//! Loom model checks for the concurrency-bearing protocols.
//!
//! Compiled only under `--cfg loom`, which also swaps
//! `gradest_core::sync` (and therefore `CloudAggregator`'s lock
//! stripes and upload counter, and `FleetEngine`'s ticket counter and
//! scratch pool) onto the loom shim's instrumented primitives. Run
//! with:
//!
//! ```text
//! RUSTFLAGS="--cfg loom" cargo test -p gradest-core --test loom
//! ```
//!
//! Each check wraps a small multi-threaded protocol in `loom::model`,
//! which executes it `LOOM_ITERATIONS` times (default 512) with seeded
//! random scheduling noise at every lock/atomic operation. The
//! assertions are the protocol invariants; a single schedule that
//! violates them fails the test. See shims/loom for what this does and
//! does not prove.

#![cfg(loom)]

use gradest_core::cloud::CloudAggregator;
use gradest_core::track::GradientTrack;
use loom::sync::atomic::{AtomicUsize, Ordering};
use loom::sync::{Arc, Mutex};

fn dyadic_track(theta: f64, n: usize) -> GradientTrack {
    let mut t = GradientTrack::new("model-vehicle");
    for i in 0..n {
        // Dyadic values: per-cell sums are exact in f64 regardless of
        // the order concurrent uploads land in, so the fused result
        // must be bit-identical to the sequential one.
        t.push(i as f64 * 5.0, theta, 0.5);
    }
    t
}

/// `CloudAggregator::upload` shard protocol: concurrent uploads to
/// overlapping roads must never lose an upload, never lose a cell
/// contribution, and (for dyadic inputs) fuse to exactly the
/// sequential result — whatever order the stripe locks are won in.
/// A reader running beside them must never see a torn profile: every
/// profile it reads is the sequential profile of some subset of the
/// uploads, because each upload rebuilds its road's kept profile under
/// the write lock of its merge.
#[test]
fn cloud_upload_shard_protocol_holds() {
    let thetas = [0.25, -0.5, 0.125];
    // Reference: the same multiset of uploads applied sequentially.
    let reference = CloudAggregator::new(5.0);
    for &th in &thetas {
        for road in 0..2u64 {
            reference.upload(road, &dyadic_track(th, 4));
        }
    }
    let expected: Vec<_> = (0..2u64).map(|r| reference.road_profile(r).unwrap()).collect();
    // Every subset of one road's uploads, applied sequentially (the
    // empty subset reads as empty columns): the profiles a reader may
    // see while the uploads run. Both roads receive the same uploads.
    let subsets = Arc::new(
        (0..1u32 << thetas.len())
            .map(|mask| {
                let cloud = CloudAggregator::new(5.0);
                for (i, &th) in thetas.iter().enumerate() {
                    if mask & (1 << i) != 0 {
                        cloud.upload(0, &dyadic_track(th, 4));
                    }
                }
                let mut t = GradientTrack::default();
                cloud.road_profile_into(0, &mut t);
                [t.s, t.theta, t.variance]
            })
            .collect::<Vec<_>>(),
    );

    loom::model(move || {
        let cloud = Arc::new(CloudAggregator::new(5.0));
        let reader = {
            let cloud = Arc::clone(&cloud);
            let subsets = Arc::clone(&subsets);
            loom::thread::spawn(move || {
                let mut t = GradientTrack::default();
                for _ in 0..4 {
                    for road in 0..2u64 {
                        cloud.road_profile_into(road, &mut t);
                        let seen = [t.s.clone(), t.theta.clone(), t.variance.clone()];
                        assert!(subsets.contains(&seen), "road {road}: torn profile {seen:?}");
                    }
                }
            })
        };
        let handles: Vec<_> = thetas
            .iter()
            .map(|&th| {
                let cloud = Arc::clone(&cloud);
                loom::thread::spawn(move || {
                    // Each vehicle uploads to both roads; road 0 and
                    // road 1 hash to different stripes, so this
                    // exercises parallel stripes AND same-stripe
                    // contention across vehicles.
                    for road in 0..2u64 {
                        cloud.upload(road, &dyadic_track(th, 4));
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        reader.join().unwrap();
        assert_eq!(cloud.uploads(), (thetas.len() * 2) as u64, "lost an upload");
        assert_eq!(cloud.road_count(), 2, "lost a road");
        for (road, want) in expected.iter().enumerate() {
            let got = cloud.road_profile(road as u64).expect("road fused");
            assert_eq!(got.s, want.s, "road {road}: cell positions diverged");
            assert_eq!(got.theta, want.theta, "road {road}: fused gradient diverged");
            assert_eq!(got.variance, want.variance, "road {road}: fused variance diverged");
        }
    });
}

/// `FleetEngine::run_pool`'s ticket protocol: the batch builds its
/// claim order (a permutation of the trip indices, longest trip first)
/// before it spawns the workers, and each worker claims `order[ticket]`
/// for tickets from one atomic counter until they pass the batch
/// length. Whatever order the claims land in, every index goes to
/// exactly one worker and every worker finishes, so the batch can join
/// them all.
#[test]
fn fleet_tickets_claim_every_trip_once() {
    const JOBS: usize = 6;
    const WORKERS: usize = 3;
    loom::model(|| {
        // Trip lengths in submission order; the order sorts them
        // stably, longest first, as `run_pool` does.
        let lengths = [4usize, 9, 1, 9, 6, 2];
        let mut order: Vec<usize> = (0..JOBS).collect();
        order.sort_by_key(|&i| std::cmp::Reverse(lengths[i]));
        assert_eq!(order, [1, 3, 4, 0, 5, 2]);
        let order = Arc::new(order);
        let next = Arc::new(AtomicUsize::new(0));
        let workers: Vec<_> = (0..WORKERS)
            .map(|_| {
                let (next, order) = (Arc::clone(&next), Arc::clone(&order));
                loom::thread::spawn(move || {
                    let mut mine = Vec::new();
                    loop {
                        // sync: Relaxed, as in `run_pool`: the order is
                        // shared before the spawn, and the join hands
                        // the claimed indices back.
                        let ticket = next.fetch_add(1, Ordering::Relaxed);
                        let Some(&i) = order.get(ticket) else {
                            break mine;
                        };
                        mine.push(i);
                    }
                })
            })
            .collect();
        let mut claims = [0u32; JOBS];
        for w in workers {
            for i in w.join().unwrap() {
                claims[i] += 1;
            }
        }
        assert_eq!(claims, [1; JOBS], "claims per trip");
    });
}

/// `FleetEngine`'s scratch pool under two concurrent batches: each
/// batch pops one scratch per worker before it spawns them (a fresh one
/// when the pool is dry), runs the ticket protocol, and after joining
/// pushes its scratches back while the pool is below the worker count.
/// However the two batches interleave, the pool ends with exactly one
/// scratch per worker.
#[test]
fn fleet_pool_keeps_one_scratch_per_worker() {
    const JOBS: usize = 4;
    const WORKERS: usize = 2;
    loom::model(|| {
        let pool: Arc<Mutex<Vec<usize>>> = Arc::new(Mutex::new(Vec::new()));
        let batches: Vec<_> = (0..2)
            .map(|_| {
                let pool = Arc::clone(&pool);
                loom::thread::spawn(move || {
                    let taken: Vec<usize> = {
                        let mut pool = pool.lock();
                        (0..WORKERS).map(|_| pool.pop().unwrap_or_default()).collect()
                    };
                    let next = Arc::new(AtomicUsize::new(0));
                    let workers: Vec<_> = taken
                        .into_iter()
                        .map(|mut scratch| {
                            let next = Arc::clone(&next);
                            loom::thread::spawn(move || {
                                // sync: Relaxed ticket claims, as above.
                                while next.fetch_add(1, Ordering::Relaxed) < JOBS {
                                    scratch += 1;
                                }
                                scratch
                            })
                        })
                        .collect();
                    let joined: Vec<usize> =
                        workers.into_iter().map(|w| w.join().unwrap()).collect();
                    let mut pool = pool.lock();
                    for scratch in joined {
                        if pool.len() < WORKERS {
                            pool.push(scratch);
                        }
                    }
                })
            })
            .collect();
        for b in batches {
            b.join().unwrap();
        }
        assert_eq!(pool.lock().len(), WORKERS, "one pooled scratch per worker");
    });
}
