//! Process-lifetime telemetry.
//!
//! Per-run [`crate::stats::ExecStats`] and traces (PR 2) die with the
//! call that produced them; an operator watching a long-lived process —
//! the EDA-as-a-service server of the ROADMAP — needs aggregate health:
//! cache hit-rates over thousands of runs, shed rates under load, kernel
//! throughput over time. This module is that layer: a process-wide
//! registry of counters, gauges, and log-linear-bucket histograms,
//! recorded lock-free on hot paths and merged only when a snapshot is
//! taken.
//!
//! Design, mirroring the per-worker span buffers of [`crate::trace`]:
//!
//! * [`Counter`] is sharded: each recording thread owns one cache-line-
//!   aligned shard (assigned round-robin on first use), so a hot-path
//!   increment is one `Relaxed` `fetch_add` with no cross-core traffic
//!   under the shard count. Shards are summed only by [`Counter::get`].
//! * [`Gauge`] is a single atomic with `set` / `set_max` (peaks).
//! * [`Histogram`] uses log-linear buckets — four linear sub-buckets per
//!   power of two, the HdrHistogram layout — so one `Relaxed` add per
//!   observation yields percentile-grade resolution from 1µs to days
//!   without a lock or an allocation.
//!
//! Everything hangs off one [`MetricsRegistry`] singleton ([`global`]).
//! Recording is opt-in per run (`ExecOptions::metrics`, surfaced as the
//! `engine.metrics` knob): when the knob is off the executor never
//! touches the registry, and output stays bit-identical. The registry
//! itself additionally carries an `enabled` latch for recorders that
//! cannot see run options (the kernel morsel probe in `eda-stats`).
//!
//! Snapshots ([`MetricsRegistry::snapshot`]) are plain data and export
//! to Prometheus text exposition format
//! ([`MetricsSnapshot::to_prometheus`], the payload a `/metrics`
//! endpoint serves) and JSON ([`MetricsSnapshot::to_json`]).

use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::OnceLock;
use std::time::Duration;

use crate::stats::ExecStats;

/// Shards per [`Counter`]. A small power of two: enough to keep typical
/// worker pools from bouncing one cache line, cheap enough to sum.
const SHARDS: usize = 8;

/// One cache line per shard so two shards never share a line.
#[repr(align(64))]
#[derive(Default)]
struct Shard(AtomicU64);

/// The calling thread's shard index, assigned round-robin on first use
/// and stable for the thread's lifetime.
fn shard_index() -> usize {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    thread_local! {
        static INDEX: usize = NEXT.fetch_add(1, Ordering::Relaxed) & (SHARDS - 1);
    }
    INDEX.with(|i| *i)
}

/// A monotone counter sharded per recording thread.
///
/// `add` is one `Relaxed` `fetch_add` on the caller's own shard; `get`
/// sums the shards. Totals are exact (every add lands in some shard);
/// only the read is a momentary cut across shards, which is all a
/// monitoring scrape needs.
#[derive(Default)]
pub struct Counter {
    shards: [Shard; SHARDS],
}

impl Counter {
    /// A zeroed counter.
    pub const fn new() -> Counter {
        Counter { shards: [const { Shard(AtomicU64::new(0)) }; SHARDS] }
    }

    /// Add `v` to the calling thread's shard.
    #[inline]
    pub fn add(&self, v: u64) {
        self.shards[shard_index()].0.fetch_add(v, Ordering::Relaxed);
    }

    /// Add one.
    #[inline]
    pub fn incr(&self) {
        self.add(1);
    }

    /// Sum of all shards.
    pub fn get(&self) -> u64 {
        self.shards.iter().map(|s| s.0.load(Ordering::Relaxed)).sum()
    }
}

/// A last-value / high-water-mark gauge.
#[derive(Default)]
pub struct Gauge {
    value: AtomicU64,
}

impl Gauge {
    /// A zeroed gauge.
    pub const fn new() -> Gauge {
        Gauge { value: AtomicU64::new(0) }
    }

    /// Overwrite the value.
    pub fn set(&self, v: u64) {
        self.value.store(v, Ordering::Relaxed);
    }

    /// Raise the value to `v` if it is higher (process high-water mark).
    pub fn set_max(&self, v: u64) {
        self.value.fetch_max(v, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// Linear sub-buckets per power of two: 2 bits → 4 sub-buckets, i.e.
/// ≤25% relative bucket width everywhere.
const SUB_BITS: u32 = 2;
/// `1 << SUB_BITS`.
const SUB: usize = 1 << SUB_BITS;
/// Bucket count including the final overflow bucket. 147 finite buckets
/// cover `[0, 7·2³⁵)` — about 2.8 days in microseconds.
const NBUCKETS: usize = 148;

/// Index of the log-linear bucket holding `v`.
fn bucket_index(v: u64) -> usize {
    if v < SUB as u64 {
        return v as usize;
    }
    let exp = 63 - v.leading_zeros(); // floor(log2 v), >= SUB_BITS
    let shift = exp - SUB_BITS;
    let idx = ((shift as u64 + 1) * SUB as u64 + ((v >> shift) - SUB as u64)) as usize;
    idx.min(NBUCKETS - 1)
}

/// Smallest value landing in bucket `i` (the bucket covers
/// `[lower_bound(i), lower_bound(i+1))`).
fn bucket_lower_bound(i: usize) -> u64 {
    if i < SUB {
        return i as u64;
    }
    let group = i / SUB;
    let sub = (i % SUB) as u64;
    (SUB as u64 + sub) << (group - 1)
}

/// Inclusive upper bound of bucket `i` (`None` for the overflow bucket).
fn bucket_upper_bound(i: usize) -> Option<u64> {
    if i + 1 >= NBUCKETS {
        None
    } else {
        Some(bucket_lower_bound(i + 1) - 1)
    }
}

/// A log-linear-bucket histogram: one `Relaxed` add per observation
/// (plus one for the running sum), percentile-grade resolution, no
/// locks, no allocation.
pub struct Histogram {
    buckets: [AtomicU64; NBUCKETS],
    sum: Counter,
}

impl Default for Histogram {
    fn default() -> Histogram {
        Histogram::new()
    }
}

impl Histogram {
    /// A zeroed histogram.
    pub const fn new() -> Histogram {
        Histogram { buckets: [const { AtomicU64::new(0) }; NBUCKETS], sum: Counter::new() }
    }

    /// Record one observation.
    #[inline]
    pub fn record(&self, v: u64) {
        self.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        self.sum.add(v);
    }

    /// Record a duration in microseconds (saturating past `u64::MAX`).
    #[inline]
    pub fn record_duration(&self, d: Duration) {
        self.record(u64::try_from(d.as_micros()).unwrap_or(u64::MAX));
    }

    /// Total observations.
    pub fn count(&self) -> u64 {
        self.buckets.iter().map(|b| b.load(Ordering::Relaxed)).sum()
    }

    /// Sum of all observed values.
    pub fn sum(&self) -> u64 {
        self.sum.get()
    }

    fn snapshot(&self, name: &'static str, help: &'static str) -> HistogramSnapshot {
        let mut buckets = Vec::new();
        let mut overflow = 0;
        let mut count = 0;
        for (i, b) in self.buckets.iter().enumerate() {
            let n = b.load(Ordering::Relaxed);
            if n == 0 {
                continue;
            }
            count += n;
            match bucket_upper_bound(i) {
                Some(le) => buckets.push((le, n)),
                None => overflow = n,
            }
        }
        HistogramSnapshot { name, help, buckets, overflow, count, sum: self.sum() }
    }
}

/// Frozen view of one [`Histogram`]: per-bucket (not cumulative) counts
/// for the non-empty finite buckets, keyed by inclusive upper bound,
/// plus the overflow bucket.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Metric name (without the `eda_` prefix conventions applied by
    /// exporters — this is already the full exported name).
    pub name: &'static str,
    /// One-line help string.
    pub help: &'static str,
    /// `(inclusive upper bound, count)` for each non-empty finite bucket,
    /// ascending.
    pub buckets: Vec<(u64, u64)>,
    /// Observations above the last finite bucket.
    pub overflow: u64,
    /// Total observations.
    pub count: u64,
    /// Sum of observed values.
    pub sum: u64,
}

impl HistogramSnapshot {
    /// Smallest bucket upper bound with cumulative count ≥ `q·count` —
    /// a bucket-resolution quantile (`q` in `[0,1]`). `None` when empty
    /// or when the quantile lands in the overflow bucket.
    pub fn quantile(&self, q: f64) -> Option<u64> {
        if self.count == 0 {
            return None;
        }
        let target = (q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64;
        let mut cumulative = 0;
        for &(le, n) in &self.buckets {
            cumulative += n;
            if cumulative >= target {
                return Some(le);
            }
        }
        None
    }
}

/// Frozen view of the whole registry at one instant. Plain data:
/// comparable, clonable, renderable.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MetricsSnapshot {
    /// `(name, help, value)` per counter, fixed registry order.
    pub counters: Vec<(&'static str, &'static str, u64)>,
    /// `(name, help, value)` per gauge, fixed registry order.
    pub gauges: Vec<(&'static str, &'static str, u64)>,
    /// One snapshot per histogram, fixed registry order.
    pub histograms: Vec<HistogramSnapshot>,
}

impl MetricsSnapshot {
    /// Value of the named counter, if present.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters.iter().find(|(n, _, _)| *n == name).map(|&(_, _, v)| v)
    }

    /// Value of the named gauge, if present.
    pub fn gauge(&self, name: &str) -> Option<u64> {
        self.gauges.iter().find(|(n, _, _)| *n == name).map(|&(_, _, v)| v)
    }

    /// The named histogram, if present.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.histograms.iter().find(|h| h.name == name)
    }

    /// Export in Prometheus text exposition format (version 0.0.4), the
    /// payload a `/metrics` endpoint serves. Counters end in `_total`,
    /// histograms emit cumulative `_bucket{le="..."}` series plus
    /// `_sum` / `_count`, and every family carries `# HELP` / `# TYPE`.
    pub fn to_prometheus(&self) -> String {
        let mut out = String::new();
        for &(name, help, value) in &self.counters {
            let _ = writeln!(out, "# HELP {name} {help}");
            let _ = writeln!(out, "# TYPE {name} counter");
            let _ = writeln!(out, "{name} {value}");
        }
        for &(name, help, value) in &self.gauges {
            let _ = writeln!(out, "# HELP {name} {help}");
            let _ = writeln!(out, "# TYPE {name} gauge");
            let _ = writeln!(out, "{name} {value}");
        }
        for h in &self.histograms {
            let _ = writeln!(out, "# HELP {} {}", h.name, h.help);
            let _ = writeln!(out, "# TYPE {} histogram", h.name);
            let mut cumulative = 0;
            for &(le, n) in &h.buckets {
                cumulative += n;
                let _ = writeln!(out, "{}_bucket{{le=\"{le}\"}} {cumulative}", h.name);
            }
            let _ = writeln!(out, "{}_bucket{{le=\"+Inf\"}} {}", h.name, h.count);
            let _ = writeln!(out, "{}_sum {}", h.name, h.sum);
            let _ = writeln!(out, "{}_count {}", h.name, h.count);
        }
        out
    }

    /// Export as a JSON object:
    /// `{"counters":{..},"gauges":{..},"histograms":{name:{"count":..,
    /// "sum":..,"overflow":..,"buckets":[[le,count],..]}}}`. Names are
    /// `[a-z0-9_]` by construction, so no escaping is needed.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"counters\":{");
        for (i, &(name, _, value)) in self.counters.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "\"{name}\":{value}");
        }
        out.push_str("},\"gauges\":{");
        for (i, &(name, _, value)) in self.gauges.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "\"{name}\":{value}");
        }
        out.push_str("},\"histograms\":{");
        for (i, h) in self.histograms.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "\"{}\":{{\"count\":{},\"sum\":{},\"overflow\":{},\"buckets\":[",
                h.name, h.count, h.sum, h.overflow
            );
            for (j, &(le, n)) in h.buckets.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                let _ = write!(out, "[{le},{n}]");
            }
            out.push_str("]}");
        }
        out.push_str("}}");
        out
    }
}

/// The process-wide metric registry. One instance lives for the process
/// ([`global`]); constructing others is supported for tests.
///
/// Naming conventions (also DESIGN.md §14): every series is prefixed
/// `eda_`, counters end `_total`, byte-valued series end `_bytes`, and
/// histograms carry their unit as a suffix (`_us`).
#[derive(Default)]
pub struct MetricsRegistry {
    enabled: AtomicBool,

    /// Graph executions folded into this registry.
    pub runs_total: Counter,
    /// Tasks that executed and produced a payload.
    pub tasks_run_total: Counter,
    /// Nodes never dispatched thanks to dead-node pruning.
    pub tasks_pruned_total: Counter,
    /// Tasks that panicked (isolated; the runs continued).
    pub tasks_failed_total: Counter,
    /// Tasks skipped because an upstream dependency failed.
    pub tasks_skipped_total: Counter,
    /// Tasks that finished but blew their per-task deadline.
    pub tasks_timed_out_total: Counter,
    /// Tasks cancelled by a fired run token (request or deadline).
    pub tasks_cancelled_total: Counter,
    /// Tasks re-executed at least once after a transient failure.
    pub tasks_retried_total: Counter,
    /// Tasks whose output charge was refused by a memory gauge.
    pub tasks_budget_exceeded_total: Counter,
    /// Graph insertions answered by common-subexpression elimination.
    pub cse_hits_total: Counter,

    /// Tasks satisfied by the cross-call result cache.
    pub cache_hits_total: Counter,
    /// Cache probes that found nothing.
    pub cache_misses_total: Counter,
    /// Cache entries evicted to respect the byte budget.
    pub cache_evictions_total: Counter,
    /// Estimated payload bytes served from the cache instead of being
    /// recomputed.
    pub cache_bytes_saved_total: Counter,

    /// Runs refused admission (`EdaError::Overloaded`).
    pub admission_shed_total: Counter,
    /// Runs in which the memory budget refused at least one charge.
    pub budget_trip_runs_total: Counter,

    /// Kernel morsels processed (one per interrupt-probe boundary).
    pub morsels_total: Counter,
    /// Rows processed across kernel morsels.
    pub morsel_rows_total: Counter,
    /// Morsels produced by splitting task row ranges for the
    /// work-stealing engine ([`crate::morsel`]).
    pub morsels_split_total: Counter,
    /// Split morsels executed by helper threads (stolen from the back
    /// of the deque) rather than the owning worker.
    pub morsels_stolen_total: Counter,

    /// Process high-water mark of gauge-charged payload bytes.
    pub mem_peak_bytes: Gauge,
    /// Resident bytes in the session result cache at last snapshot.
    pub cache_resident_bytes: Gauge,
    /// Configured byte budget of the session result cache.
    pub cache_budget_bytes: Gauge,

    /// Wall-clock duration of executed tasks, microseconds.
    pub task_duration_us: Histogram,
    /// Ready-to-dispatch queue wait of executed tasks, microseconds
    /// (folded from run traces; populated only on profiled runs).
    pub queue_wait_us: Histogram,
    /// Wall-clock duration of whole graph executions, microseconds.
    pub run_duration_us: Histogram,
}

impl MetricsRegistry {
    /// A fresh, disabled registry (all series zero).
    pub const fn new() -> MetricsRegistry {
        MetricsRegistry {
            enabled: AtomicBool::new(false),
            runs_total: Counter::new(),
            tasks_run_total: Counter::new(),
            tasks_pruned_total: Counter::new(),
            tasks_failed_total: Counter::new(),
            tasks_skipped_total: Counter::new(),
            tasks_timed_out_total: Counter::new(),
            tasks_cancelled_total: Counter::new(),
            tasks_retried_total: Counter::new(),
            tasks_budget_exceeded_total: Counter::new(),
            cse_hits_total: Counter::new(),
            cache_hits_total: Counter::new(),
            cache_misses_total: Counter::new(),
            cache_evictions_total: Counter::new(),
            cache_bytes_saved_total: Counter::new(),
            admission_shed_total: Counter::new(),
            budget_trip_runs_total: Counter::new(),
            morsels_total: Counter::new(),
            morsel_rows_total: Counter::new(),
            morsels_split_total: Counter::new(),
            morsels_stolen_total: Counter::new(),
            mem_peak_bytes: Gauge::new(),
            cache_resident_bytes: Gauge::new(),
            cache_budget_bytes: Gauge::new(),
            task_duration_us: Histogram::new(),
            queue_wait_us: Histogram::new(),
            run_duration_us: Histogram::new(),
        }
    }

    /// Whether out-of-band recorders (the kernel morsel probe) should
    /// record. Scheduler paths are gated by `ExecOptions::metrics`
    /// instead and never consult this.
    #[inline]
    pub fn enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Latch the registry on (or off). Flipped on the first run
    /// configured with `engine.metrics`; telemetry is process-lifetime,
    /// so it normally stays on once on.
    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::Relaxed);
    }

    /// Fold one finished run's [`ExecStats`] into the lifetime series.
    /// Called by the executor after stats are final; per-task series
    /// ([`MetricsRegistry::task_duration_us`]) are recorded live at task
    /// completion instead.
    pub fn record_run(&self, stats: &ExecStats) {
        self.runs_total.incr();
        self.tasks_run_total.add(stats.tasks_run as u64);
        self.tasks_pruned_total.add(stats.pruned() as u64);
        self.tasks_failed_total.add(stats.tasks_failed as u64);
        self.tasks_skipped_total.add(stats.tasks_skipped as u64);
        self.tasks_timed_out_total.add(stats.tasks_timed_out as u64);
        self.tasks_cancelled_total.add(stats.tasks_cancelled as u64);
        self.tasks_retried_total.add(stats.tasks_retried as u64);
        self.tasks_budget_exceeded_total.add(stats.tasks_budget_exceeded as u64);
        self.cse_hits_total.add(stats.cse_hits as u64);
        self.cache_hits_total.add(stats.cache_hits as u64);
        self.cache_misses_total.add(stats.cache_misses as u64);
        self.cache_evictions_total.add(stats.cache_evictions as u64);
        self.cache_bytes_saved_total.add(stats.cache_bytes_saved as u64);
        if stats.tasks_budget_exceeded > 0 {
            self.budget_trip_runs_total.incr();
        }
        self.mem_peak_bytes.set_max(stats.mem_peak_bytes as u64);
        self.run_duration_us.record_duration(stats.elapsed);
        if let Some(trace) = &stats.trace {
            for span in trace.executed() {
                self.queue_wait_us.record_duration(span.queue_wait);
            }
        }
    }

    /// Freeze every series into a [`MetricsSnapshot`].
    pub fn snapshot(&self) -> MetricsSnapshot {
        let counters: &[(&'static str, &'static str, &Counter)] = &[
            ("eda_runs_total", "Graph executions recorded.", &self.runs_total),
            ("eda_tasks_run_total", "Tasks that executed and produced a payload.", &self.tasks_run_total),
            ("eda_tasks_pruned_total", "Nodes never dispatched thanks to dead-node pruning.", &self.tasks_pruned_total),
            ("eda_tasks_failed_total", "Tasks that panicked (isolated; runs continued).", &self.tasks_failed_total),
            ("eda_tasks_skipped_total", "Tasks skipped because an upstream dependency failed.", &self.tasks_skipped_total),
            ("eda_tasks_timed_out_total", "Tasks that blew their per-task deadline.", &self.tasks_timed_out_total),
            ("eda_tasks_cancelled_total", "Tasks cancelled by a fired run token.", &self.tasks_cancelled_total),
            ("eda_tasks_retried_total", "Tasks re-executed after a transient failure.", &self.tasks_retried_total),
            ("eda_tasks_budget_exceeded_total", "Tasks whose output charge was refused by a memory gauge.", &self.tasks_budget_exceeded_total),
            ("eda_cse_hits_total", "Graph insertions answered by common-subexpression elimination.", &self.cse_hits_total),
            ("eda_cache_hits_total", "Tasks satisfied by the cross-call result cache.", &self.cache_hits_total),
            ("eda_cache_misses_total", "Cache probes that found nothing.", &self.cache_misses_total),
            ("eda_cache_evictions_total", "Cache entries evicted to respect the byte budget.", &self.cache_evictions_total),
            ("eda_cache_bytes_saved_total", "Estimated payload bytes served from the cache.", &self.cache_bytes_saved_total),
            ("eda_admission_shed_total", "Runs refused admission under load.", &self.admission_shed_total),
            ("eda_budget_trip_runs_total", "Runs in which the memory budget refused a charge.", &self.budget_trip_runs_total),
            ("eda_morsels_total", "Kernel morsels processed.", &self.morsels_total),
            ("eda_morsel_rows_total", "Rows processed across kernel morsels.", &self.morsel_rows_total),
            ("eda_morsels_split_total", "Morsels produced for the work-stealing engine.", &self.morsels_split_total),
            ("eda_morsels_stolen_total", "Split morsels executed by helper threads.", &self.morsels_stolen_total),
        ];
        let gauges: &[(&'static str, &'static str, &Gauge)] = &[
            ("eda_mem_peak_bytes", "Process high-water mark of gauge-charged payload bytes.", &self.mem_peak_bytes),
            ("eda_cache_resident_bytes", "Resident bytes in the session result cache.", &self.cache_resident_bytes),
            ("eda_cache_budget_bytes", "Configured byte budget of the session result cache.", &self.cache_budget_bytes),
        ];
        MetricsSnapshot {
            counters: counters.iter().map(|&(n, h, c)| (n, h, c.get())).collect(),
            gauges: gauges.iter().map(|&(n, h, g)| (n, h, g.get())).collect(),
            histograms: vec![
                self.task_duration_us.snapshot(
                    "eda_task_duration_us",
                    "Wall-clock duration of executed tasks, microseconds.",
                ),
                self.queue_wait_us.snapshot(
                    "eda_queue_wait_us",
                    "Queue wait of executed tasks, microseconds (profiled runs only).",
                ),
                self.run_duration_us.snapshot(
                    "eda_run_duration_us",
                    "Wall-clock duration of graph executions, microseconds.",
                ),
            ],
        }
    }
}

/// The process-wide registry.
pub fn global() -> &'static MetricsRegistry {
    static GLOBAL: OnceLock<MetricsRegistry> = OnceLock::new();
    GLOBAL.get_or_init(MetricsRegistry::new)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_sums_shards() {
        let c = Counter::new();
        c.add(3);
        c.incr();
        assert_eq!(c.get(), 4);
    }

    #[test]
    fn gauge_set_and_max() {
        let g = Gauge::new();
        g.set(10);
        g.set_max(5);
        assert_eq!(g.get(), 10);
        g.set_max(20);
        assert_eq!(g.get(), 20);
        g.set(1);
        assert_eq!(g.get(), 1);
    }

    #[test]
    fn bucket_index_is_monotone_and_log_linear() {
        let mut last = 0;
        for v in 0..100_000u64 {
            let i = bucket_index(v);
            assert!(i >= last, "index regressed at {v}");
            last = i;
        }
        // Linear region: one bucket per value.
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(3), 3);
        // Log-linear: 4 sub-buckets per octave.
        assert_eq!(bucket_index(4), 4);
        assert_eq!(bucket_index(7), 7);
        assert_eq!(bucket_index(8), 8);
        assert_eq!(bucket_index(15), 11);
        assert_eq!(bucket_index(16), 12);
        // Overflow clamps.
        assert_eq!(bucket_index(u64::MAX), NBUCKETS - 1);
    }

    #[test]
    fn bucket_bounds_invert_the_index() {
        for i in 0..NBUCKETS - 1 {
            let lb = bucket_lower_bound(i);
            assert_eq!(bucket_index(lb), i, "lower bound of {i}");
            if let Some(ub) = bucket_upper_bound(i) {
                assert_eq!(bucket_index(ub), i, "upper bound of {i}");
                assert_eq!(bucket_index(ub + 1), i + 1, "first value past {i}");
            }
        }
    }

    #[test]
    fn histogram_counts_and_quantiles() {
        let h = Histogram::new();
        for v in [1u64, 1, 2, 100, 1000, 10_000] {
            h.record(v);
        }
        assert_eq!(h.count(), 6);
        assert_eq!(h.sum(), 11_104);
        let snap = h.snapshot("t", "t");
        assert_eq!(snap.count, 6);
        assert_eq!(snap.buckets.iter().map(|&(_, n)| n).sum::<u64>(), 6);
        // Median lands in the bucket holding 2; p100 covers 10_000.
        let p50 = snap.quantile(0.5).unwrap();
        assert!((2..100).contains(&p50), "{p50}");
        let p100 = snap.quantile(1.0).unwrap();
        assert!(p100 >= 10_000, "{p100}");
        // Bucket-resolution guarantee: ≤25% relative error.
        assert!(p100 <= 12_500, "{p100}");
    }

    #[test]
    fn histogram_overflow_bucket() {
        let h = Histogram::new();
        h.record(u64::MAX);
        let snap = h.snapshot("t", "t");
        assert_eq!(snap.overflow, 1);
        assert_eq!(snap.count, 1);
        assert_eq!(snap.quantile(0.5), None); // in the overflow bucket
    }

    #[test]
    fn record_run_folds_exec_stats() {
        let m = MetricsRegistry::new();
        let stats = ExecStats {
            tasks_run: 5,
            live_nodes: 5,
            total_nodes: 8,
            tasks_failed: 1,
            tasks_retried: 2,
            tasks_budget_exceeded: 1,
            cache_hits: 3,
            mem_peak_bytes: 1 << 20,
            elapsed: Duration::from_micros(1500),
            ..ExecStats::default()
        };
        m.record_run(&stats);
        m.record_run(&stats);
        let s = m.snapshot();
        assert_eq!(s.counter("eda_runs_total"), Some(2));
        assert_eq!(s.counter("eda_tasks_run_total"), Some(10));
        assert_eq!(s.counter("eda_tasks_pruned_total"), Some(6));
        assert_eq!(s.counter("eda_cache_hits_total"), Some(6));
        assert_eq!(s.counter("eda_budget_trip_runs_total"), Some(2));
        assert_eq!(s.gauge("eda_mem_peak_bytes"), Some(1 << 20));
        let runs = s.histogram("eda_run_duration_us").unwrap();
        assert_eq!(runs.count, 2);
        assert_eq!(runs.sum, 3000);
    }

    #[test]
    fn snapshot_lookup_misses_are_none() {
        let s = MetricsRegistry::new().snapshot();
        assert_eq!(s.counter("nope"), None);
        assert_eq!(s.gauge("nope"), None);
        assert!(s.histogram("nope").is_none());
    }

    #[test]
    fn enabled_latch() {
        let m = MetricsRegistry::new();
        assert!(!m.enabled());
        m.set_enabled(true);
        assert!(m.enabled());
    }

    #[test]
    fn prometheus_output_shape() {
        let m = MetricsRegistry::new();
        m.tasks_run_total.add(7);
        m.task_duration_us.record(100);
        let text = m.snapshot().to_prometheus();
        assert!(text.contains("# TYPE eda_tasks_run_total counter"));
        assert!(text.contains("\neda_tasks_run_total 7\n"));
        assert!(text.contains("# TYPE eda_task_duration_us histogram"));
        assert!(text.contains("eda_task_duration_us_bucket{le=\"+Inf\"} 1"));
        assert!(text.contains("eda_task_duration_us_sum 100"));
        assert!(text.contains("eda_task_duration_us_count 1"));
    }

    #[test]
    fn json_output_shape() {
        let m = MetricsRegistry::new();
        m.cache_hits_total.add(2);
        let json = m.snapshot().to_json();
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"eda_cache_hits_total\":2"));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }
}
