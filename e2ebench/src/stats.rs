//! Order statistics, the host's steal timeline, and the result record
//! every workload returns.

use crate::trace::ns_since;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// A latency distribution summarised the way the benchmark reports it:
/// the median and p99 by nearest rank, with the sample count and how
/// many samples lie beyond p99.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Latency {
    /// Median, milliseconds.
    pub p50_ms: f64,
    /// 99th percentile, milliseconds.
    pub p99_ms: f64,
    /// Samples, failed requests included.
    pub n: usize,
    /// Samples strictly beyond the p99 rank.
    pub beyond_p99: usize,
}

impl Latency {
    /// Summarises request times in nanoseconds; each of `failed`
    /// requests counts as an infinite latency.
    pub fn of(ok_ns: &[f64], failed: usize) -> Latency {
        let mut v: Vec<f64> = ok_ns.iter().map(|&ns| ns / 1e6).collect();
        v.extend(std::iter::repeat_n(f64::INFINITY, failed));
        v.sort_by(f64::total_cmp);
        let n = v.len();
        let p99_rank = nearest_rank(n, 0.99);
        Latency {
            p50_ms: quantile_sorted(&v, 0.5),
            p99_ms: quantile_sorted(&v, 0.99),
            n,
            beyond_p99: n.saturating_sub(p99_rank + 1),
        }
    }

    /// The human-readable report line for a metric pair `<name>_p50_ms`
    /// and `<name>_p99_ms`.
    pub fn describe(&self, name: &str) -> String {
        format!(
            "as measured: {name}_p50_ms = {} ms, {name}_p99_ms = {} ms  (n={}, {} beyond p99{})",
            self.p50_ms,
            self.p99_ms,
            self.n,
            self.beyond_p99,
            if self.beyond_p99 < 10 { "; fewer than ten, p99 is not supported" } else { "" }
        )
    }
}

/// Zero-based nearest-rank index of quantile `q` among `n` samples.
fn nearest_rank(n: usize, q: f64) -> usize {
    ((q * n as f64).ceil() as usize).clamp(1, n.max(1)) - 1
}

/// Nearest-rank quantile of an ascending slice (NaN when empty).
pub fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    sorted[nearest_rank(sorted.len(), q)]
}

/// Median of `v` (reorders it; NaN when empty).
pub fn median(v: &mut [f64]) -> f64 {
    v.sort_by(f64::total_cmp);
    quantile_sorted(v, 0.5)
}

/// A closed loop's rate of `weight` per second: each item's median
/// cycle time, summed over the items that ran, divides their summed
/// weight. `cycles` yields `(item, seconds)`; a failed cycle counts as
/// infinitely long. A pool item is run many times, so its median drops
/// the cycles an outside stall hit, and summing over the whole pool
/// keeps any one item from setting the rate.
pub fn pooled_rate(
    cycles: impl IntoIterator<Item = (usize, f64)>,
    weight: impl Fn(usize) -> f64,
) -> f64 {
    let mut by_item: BTreeMap<usize, Vec<f64>> = BTreeMap::new();
    for (item, seconds) in cycles {
        by_item.entry(item).or_default().push(seconds);
    }
    let (mut total_weight, mut total_s) = (0.0, 0.0);
    for (item, mut times) in by_item {
        total_weight += weight(item);
        total_s += median(&mut times);
    }
    if total_s > 0.0 {
        total_weight / total_s
    } else {
        0.0
    }
}

/// The host's CPU time as the first line of `/proc/stat` counts it, in
/// clock ticks summed over CPUs.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CpuTicks {
    /// Time spent running (user, nice, system, irq, softirq).
    busy: u64,
    /// Time the hypervisor ran something else while a virtual CPU of
    /// this machine had work.
    steal: u64,
}

impl CpuTicks {
    /// The counters now (zero where `/proc/stat` is unreadable).
    pub fn now() -> CpuTicks {
        let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
        let ticks: Vec<u64> = stat
            .lines()
            .next()
            .and_then(|l| l.strip_prefix("cpu "))
            .map(|rest| rest.split_whitespace().filter_map(|v| v.parse().ok()).collect())
            .unwrap_or_default();
        let tick = |i: usize| ticks.get(i).copied().unwrap_or(0);
        CpuTicks { busy: tick(0) + tick(1) + tick(2) + tick(5) + tick(6), steal: tick(7) }
    }

    /// The share of the CPU time wanted between `self` and `later` that
    /// the hypervisor stole: steal ÷ (steal + busy), 0 when unknown.
    pub fn steal_share(self, later: CpuTicks) -> f64 {
        let steal = later.steal.saturating_sub(self.steal);
        let busy = later.busy.saturating_sub(self.busy);
        if steal + busy == 0 {
            0.0
        } else {
            steal as f64 / (steal + busy) as f64
        }
    }
}

/// Length of one steal-sampling interval of [`StealTimeline`].
pub const STEAL_INTERVAL: Duration = Duration::from_millis(200);

/// Share of a window's intervals, those with the least steal, that the
/// end-to-end metrics are taken from.
pub const CALM_SHARE: f64 = 0.25;
/// Fewest calm intervals: all of a window this short or shorter.
pub const MIN_CALM: usize = 4;

/// The host's steal share over consecutive [`STEAL_INTERVAL`]s of a
/// timed window.
///
/// Stolen time comes in bursts of a fraction of a millisecond to a few
/// milliseconds. A request shorter than an interval mostly misses them,
/// so its median time grows by less than the interval's mean share, and
/// scaling every request by that share overstates the slowdown. The
/// end-to-end metrics therefore keep only the calm quarter of the
/// intervals, where the share and so any error of the scaling is
/// smallest, and scale each cycle there by its interval's share.
#[derive(Debug, Clone, Default)]
pub struct StealTimeline {
    /// End of each interval, ns since the run epoch.
    ends_ns: Vec<u64>,
    /// Steal share of each interval.
    shares: Vec<f64>,
    /// Whether each interval is among the calm [`CALM_SHARE`].
    calm: Vec<bool>,
}

impl StealTimeline {
    /// Runs `work` while a second thread samples the steal share of
    /// each interval, timed from `epoch`.
    pub fn record<T>(epoch: Instant, work: impl FnOnce() -> T) -> (T, StealTimeline) {
        // sync: a stop flag; the timeline itself comes back through join.
        let done = AtomicBool::new(false);
        let (out, mut timeline) = std::thread::scope(|scope| {
            let sampler = scope.spawn(|| {
                let mut timeline = StealTimeline::default();
                let mut prev = CpuTicks::now();
                loop {
                    let stop = done.load(Ordering::Relaxed);
                    if !stop {
                        std::thread::sleep(STEAL_INTERVAL);
                    }
                    let now = CpuTicks::now();
                    timeline.ends_ns.push(ns_since(epoch));
                    timeline.shares.push(prev.steal_share(now));
                    prev = now;
                    if stop {
                        return timeline;
                    }
                }
            });
            let out = work();
            done.store(true, Ordering::Relaxed);
            (out, sampler.join().expect("steal sampler panicked"))
        });
        timeline.mark_calm();
        (out, timeline)
    }

    /// Marks the [`CALM_SHARE`] of intervals with the least steal, and
    /// at least [`MIN_CALM`]. Ties go to later intervals, away from the
    /// window's first, cold requests.
    fn mark_calm(&mut self) {
        let n = self.shares.len();
        let mut order: Vec<usize> = (0..n).collect();
        order.sort_by(|&a, &b| self.shares[a].total_cmp(&self.shares[b]).then(b.cmp(&a)));
        let keep = ((n as f64 * CALM_SHARE).ceil() as usize).max(MIN_CALM);
        self.calm = vec![false; n];
        for &i in order.iter().take(keep) {
            self.calm[i] = true;
        }
    }

    /// `ns` of a cycle from `start_ns` to `end_ns` scaled to the CPU
    /// time the host delivered: times `1 −` the steal share of the
    /// interval holding its midpoint. `None` when that interval is not
    /// calm.
    pub fn scaled(&self, start_ns: u64, end_ns: u64) -> Option<f64> {
        let mid = start_ns + (end_ns - start_ns) / 2;
        let i = self.ends_ns.partition_point(|&end| end < mid);
        (*self.calm.get(i)?).then(|| (end_ns - start_ns) as f64 * (1.0 - self.shares[i]))
    }

    /// The median share over all intervals.
    pub fn median(&self) -> f64 {
        median(&mut self.shares.clone())
    }

    /// The largest share among the calm intervals, and their count.
    pub fn calm_max(&self) -> (f64, usize) {
        let calm = self.shares.iter().zip(&self.calm).filter(|(_, &c)| c).map(|(s, _)| *s);
        calm.fold((0.0, 0), |(max, n), s| (f64::max(max, s), n + 1))
    }
}

/// Arithmetic mean (0 when empty).
pub fn mean(v: &[f64]) -> f64 {
    if v.is_empty() {
        0.0
    } else {
        v.iter().sum::<f64>() / v.len() as f64
    }
}

/// Peak resident set size of this process (`VmHWM`), megabytes.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// One reported number.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name, as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// The measured value.
    pub value: f64,
    /// Its unit.
    pub unit: &'static str,
}

/// What one benchmark run reports.
#[derive(Debug, Clone, Default)]
pub struct Report {
    /// Whether every correctness check passed.
    pub correct: bool,
    /// Operations attempted: requests (service) or trips (batch).
    pub attempted: u64,
    /// BUSY + ERR + transport errors + wrong ACK echoes + failed checks.
    pub failed: u64,
    /// The metrics of the final JSON line, in order.
    pub metrics: Vec<Metric>,
    /// Human-readable lines printed before the JSON line.
    pub lines: Vec<String>,
}

impl Report {
    /// Appends a metric.
    pub fn push(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push(Metric { name, value, unit });
    }

    /// Appends a human-readable line.
    pub fn line(&mut self, text: impl Into<String>) {
        self.lines.push(text.into());
    }

    /// `failed ÷ attempted`.
    pub fn failed_frac(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    /// The single JSON object the benchmark prints last.
    pub fn json_line(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name,
                    json_num(m.value),
                    m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// A JSON number: finite values with every digit Rust prints, anything
/// else as `null`.
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let ns: Vec<f64> = (1..=1000).map(|i| f64::from(i) * 1e6).collect();
        let l = Latency::of(&ns, 0);
        assert_eq!(l.p50_ms, 500.0);
        assert_eq!(l.p99_ms, 990.0);
        assert_eq!(l.beyond_p99, 10);
        let l = Latency::of(&ns, 20);
        assert!(l.p99_ms.is_infinite(), "failed requests count as infinite latency");
    }

    #[test]
    fn steal_timeline_keeps_the_calm_quarter_and_scales_by_its_share() {
        let ends_ns: Vec<u64> = (1..=20).map(|i| i * 100).collect();
        let mut shares = vec![0.5; 20];
        shares[1] = 0.1;
        shares[3] = 0.2;
        let mut timeline = StealTimeline { ends_ns, shares, calm: Vec::new() };
        timeline.mark_calm();
        // The five calmest of twenty intervals: 0.1, 0.2 and the last
        // three at 0.5.
        assert_eq!(timeline.scaled(110, 190), Some(72.0));
        assert_eq!(timeline.scaled(310, 390), Some(64.0));
        assert_eq!(timeline.scaled(1910, 1990), Some(40.0));
        assert_eq!(timeline.scaled(10, 90), None);
        assert_eq!(timeline.scaled(2010, 2090), None, "past the window");
        assert_eq!(timeline.calm_max(), (0.5, 5));
    }

    #[test]
    fn pooled_rate_takes_each_items_median() {
        // Item 0 takes 1 s (one 9 s stall), item 1 takes 3 s.
        let cycles = [(0, 1.0), (0, 9.0), (0, 1.0), (1, 3.0), (1, 3.0)];
        assert_eq!(pooled_rate(cycles, |_| 1.0), 0.5);
        assert_eq!(pooled_rate(cycles, |i| [2.0, 6.0][i]), 2.0);
        assert_eq!(pooled_rate([(0, f64::INFINITY)], |_| 1.0), 0.0);
    }
}
