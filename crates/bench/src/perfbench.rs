//! Minimal wall-clock micro-benchmark harness.
//!
//! The perf targets used to depend on an external benchmark framework;
//! this harness replaces it with the ~60 lines the experiments actually
//! need: fixed-sample timing with an internal-iteration multiplier, a
//! median-of-samples estimate (robust to scheduler noise), and a
//! serializable report for the machine-readable JSON dumps.

use serde::{Deserialize, Serialize};
use std::time::Instant;

pub mod alloc_counter {
    //! Process-wide allocation counter — the safe half of allocation
    //! tracking.
    //!
    //! This crate forbids `unsafe`, so the `GlobalAlloc` wrapper that
    //! feeds the counter is a macro, [`install_counting_alloc!`], which
    //! expands in the binaries that install it; library code only reads
    //! the atomics. When no counting allocator is installed,
    //! [`is_installed`] stays false and consumers must report "not
    //! measured" rather than zero.
    //!
    //! [`install_counting_alloc!`]: crate::install_counting_alloc

    use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

    // sync: standalone monotonic counter; Relaxed everywhere because no
    // other data is published through it — readers diff it around a
    // single-threaded region of interest.
    static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);
    // sync: write-once latch flipped before any benchmark runs; Relaxed
    // suffices because readers only gate on "was an allocator ever
    // installed", not on ordering relative to counts.
    static INSTALLED: AtomicBool = AtomicBool::new(false);

    /// Records one heap allocation (called from a counting global
    /// allocator's `alloc`/`realloc`).
    #[inline]
    pub fn record() {
        // sync: Relaxed — pure count, carries no dependent data.
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
    }

    /// Declares that a counting global allocator is feeding [`record`].
    pub fn mark_installed() {
        // sync: Relaxed — latch set in main before benchmarks start.
        INSTALLED.store(true, Ordering::Relaxed);
    }

    /// Whether a counting global allocator is active in this process.
    pub fn is_installed() -> bool {
        // sync: Relaxed — see the latch note on INSTALLED.
        INSTALLED.load(Ordering::Relaxed)
    }

    /// Total allocations recorded so far (monotonic; diff around a
    /// region of interest).
    pub fn allocations() -> u64 {
        // sync: Relaxed — monotonic statistic, no ordering dependency.
        ALLOCATIONS.load(Ordering::Relaxed)
    }
}

/// Installs the system allocator, wrapped to count every `alloc` and
/// `realloc` in [`alloc_counter`], as the global allocator of the binary
/// that invokes it at item level. The binary's `main` then calls
/// [`alloc_counter::mark_installed`], so allocation-gated benchmarks
/// report measured counts instead of "not measured".
#[macro_export]
macro_rules! install_counting_alloc {
    () => {
        struct CountingAlloc;

        // SAFETY: delegates every operation unchanged to the system
        // allocator; the counter update is a side effect with no
        // allocator state.
        unsafe impl ::std::alloc::GlobalAlloc for CountingAlloc {
            unsafe fn alloc(&self, layout: ::std::alloc::Layout) -> *mut u8 {
                $crate::perfbench::alloc_counter::record();
                ::std::alloc::GlobalAlloc::alloc(&::std::alloc::System, layout)
            }

            unsafe fn dealloc(&self, ptr: *mut u8, layout: ::std::alloc::Layout) {
                ::std::alloc::GlobalAlloc::dealloc(&::std::alloc::System, ptr, layout)
            }

            unsafe fn realloc(
                &self,
                ptr: *mut u8,
                layout: ::std::alloc::Layout,
                new_size: usize,
            ) -> *mut u8 {
                $crate::perfbench::alloc_counter::record();
                ::std::alloc::GlobalAlloc::realloc(&::std::alloc::System, ptr, layout, new_size)
            }
        }

        #[global_allocator]
        static ALLOC: CountingAlloc = CountingAlloc;
    };
}

/// One benchmark's timing summary.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BenchReport {
    /// Benchmark name.
    pub name: String,
    /// Timed samples taken (after one warm-up sample).
    pub samples: usize,
    /// Operations executed inside each sample.
    pub ops_per_sample: u64,
    /// Median nanoseconds per operation across samples.
    pub median_ns_per_op: f64,
    /// Fastest sample's nanoseconds per operation.
    pub min_ns_per_op: f64,
    /// Throughput implied by the median, operations per second.
    pub ops_per_sec: f64,
}

/// Times `f` over `samples` repetitions (plus one untimed warm-up).
///
/// `f` must execute `ops_per_sample` operations per call; per-op figures
/// divide by it, so cheap kernels should loop internally to amortise the
/// clock overhead. The median across samples is reported.
///
/// # Panics
///
/// Panics if `samples == 0` or `ops_per_sample == 0`.
pub fn run_bench(
    name: &str,
    samples: usize,
    ops_per_sample: u64,
    mut f: impl FnMut(),
) -> BenchReport {
    assert!(samples > 0, "need at least one sample");
    assert!(ops_per_sample > 0, "need at least one op per sample");
    f(); // warm-up: page in code and data
    let per_op: Vec<f64> = (0..samples)
        .map(|_| {
            let start = Instant::now();
            f();
            start.elapsed().as_nanos() as f64 / ops_per_sample as f64
        })
        .collect();
    BenchReport::from_samples(name, ops_per_sample, per_op)
}

impl BenchReport {
    /// The summary of timed samples already taken, given as nanoseconds
    /// per operation, for a benchmark whose samples cannot be one
    /// closure call each (an untimed teardown between them).
    ///
    /// # Panics
    ///
    /// Panics if `per_op` is empty.
    pub fn from_samples(name: &str, ops_per_sample: u64, mut per_op: Vec<f64>) -> BenchReport {
        assert!(!per_op.is_empty(), "need at least one sample");
        per_op.sort_by(f64::total_cmp);
        let median = per_op[per_op.len() / 2];
        BenchReport {
            name: name.to_string(),
            samples: per_op.len(),
            ops_per_sample,
            median_ns_per_op: median,
            min_ns_per_op: per_op[0],
            ops_per_sec: 1e9 / median.max(f64::MIN_POSITIVE),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reports_plausible_timings() {
        let mut acc = 0u64;
        let r = run_bench("spin", 5, 1000, || {
            for i in 0..1000u64 {
                acc = acc.wrapping_add(i);
            }
        });
        assert_eq!(r.samples, 5);
        assert!(r.median_ns_per_op >= 0.0);
        assert!(r.min_ns_per_op <= r.median_ns_per_op);
        assert!(r.ops_per_sec > 0.0);
        assert!(acc > 0);
    }

    #[test]
    #[should_panic(expected = "at least one sample")]
    fn zero_samples_rejected() {
        let _ = run_bench("bad", 0, 1, || {});
    }
}
