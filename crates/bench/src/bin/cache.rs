//! Cross-call result-cache benchmark: cold vs warm `create_report`.
//!
//! Builds the full report twice over the *same* bitcoin-shaped frame in
//! one process:
//!
//! * **cold** — first call; every derived task executes and populates the
//!   byte-budgeted result cache.
//! * **warm** — repeat calls; derived tasks are served from the cache
//!   keyed by `(frame fingerprint, task key)`, so only the cache-miss
//!   suffix (if any) executes.
//!
//! A run with `engine.cache_budget_bytes = 0` is also taken as the
//! correctness gate: its output must be bit-identical to the cached
//! path's.
//!
//! Usage:
//! `cargo run -p eda-bench --release --bin cache -- --smoke --json /tmp/BENCH_cache.json`
//!
//! * `--smoke` — CI-friendly dataset (200k rows).
//! * `--rows <n>` — explicit row count (default 1,000,000; `--smoke` wins).
//! * `--json <path>` — write `BENCH_cache.json` here.
//!
//! Heap traffic is measured with a counting global allocator (exact
//! bytes, per-stage resettable peak), as in the partition benchmark.

// The counting global allocator below is the one `unsafe` here.
#![allow(unsafe_code)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Duration;

use eda_bench::{arg_f64, arg_flag, arg_str, machine_context, measure, peak_rss_bytes, print_table};
use eda_core::config::Config;
use eda_core::json::intermediates_to_json;
use eda_core::report::Report;
use eda_datagen::bitcoin::bitcoin_spec;
use eda_datagen::generate;

/// Allocator wrapper that tracks live bytes and a resettable high-water
/// mark, so each benchmark stage reports its own peak above the baseline
/// live set.
struct CountingAlloc;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

// SAFETY: every method delegates to `System` with the caller's exact
// `layout`/`ptr` arguments before touching only atomic counters, so the
// GlobalAlloc contract (valid layouts in, valid blocks out, dealloc of
// blocks this allocator returned) is inherited from `System` unchanged.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: `layout` is the caller's, forwarded unmodified.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            let live = LIVE.fetch_add(layout.size(), Ordering::Relaxed) + layout.size();
            PEAK.fetch_max(live, Ordering::Relaxed);
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` (alloc/realloc above forward
        // to it), and `layout` is the one it was allocated with.
        unsafe { System.dealloc(ptr, layout) };
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: `ptr`/`layout` satisfy the dealloc contract as above,
        // and the caller guarantees `new_size` is nonzero.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            if new_size >= layout.size() {
                let grown = new_size - layout.size();
                let live = LIVE.fetch_add(grown, Ordering::Relaxed) + grown;
                PEAK.fetch_max(live, Ordering::Relaxed);
            } else {
                LIVE.fetch_sub(layout.size() - new_size, Ordering::Relaxed);
            }
        }
        p
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Reset the stage peak to the current live set and return the live bytes
/// at the reset point.
fn reset_peak() -> usize {
    let live = LIVE.load(Ordering::Relaxed);
    PEAK.store(live, Ordering::Relaxed);
    live
}

/// Bytes the current stage allocated above its starting live set.
fn stage_peak(live_at_start: usize) -> usize {
    PEAK.load(Ordering::Relaxed).saturating_sub(live_at_start)
}

/// Stable serialization of a report's computed sections, for the
/// bit-identity gate (execution stats excluded — they legitimately
/// differ between cached and uncached runs).
fn report_content(r: &Report) -> String {
    let mut s = intermediates_to_json(&r.overview);
    for v in &r.variables {
        s.push_str(&intermediates_to_json(&v.intermediates));
    }
    for c in &r.correlations {
        s.push_str(&format!("{c:?}"));
    }
    s.push_str(&intermediates_to_json(&r.missing));
    s
}

fn main() {
    let rows = if arg_flag("--smoke") { 200_000 } else { arg_f64("--rows", 1_000_000.0) as usize };
    const ITERS: usize = 5;

    println!("cache bench: create_report over bitcoin[{rows} rows], cold then min of {ITERS} warm runs");
    println!("{}", machine_context());
    println!();

    let df = generate(&bitcoin_spec(rows), 42);
    let cached_cfg = Config::default();
    assert!(cached_cfg.engine.cache_budget_bytes > 0, "cache must be on by default");

    // Cold: first call in the process, nothing cached yet.
    let live = reset_peak();
    let (cold_report, cold_time) = measure(|| Report::create(&df, &cached_cfg).expect("report"));
    let cold_peak = stage_peak(live);
    assert_eq!(cold_report.stats.cache_hits, 0, "first run must be cold");

    // Warm: repeat calls over the same frame hit the cache.
    let live = reset_peak();
    let mut warm_time = Duration::MAX;
    let mut warm_peak = 0usize;
    let mut warm_report = None;
    for i in 0..ITERS {
        let (r, t) = measure(|| Report::create(&df, &cached_cfg).expect("report"));
        if i == 0 {
            warm_peak = stage_peak(live);
        }
        warm_time = warm_time.min(t);
        warm_report = Some(r);
    }
    let warm_report = warm_report.expect("at least one warm run");
    let stats = &warm_report.stats;
    assert!(stats.cache_hits > 0, "warm run must hit the cache");
    let hit_rate = stats.cache_hits as f64 / (stats.cache_hits + stats.cache_misses).max(1) as f64;

    // Correctness gate: the uncached path must produce bit-identical
    // sections to the cache-served report.
    let uncached_cfg = {
        let mut c = Config::default();
        c.set("engine.cache_budget_bytes", "0").expect("valid knob");
        c
    };
    let uncached = Report::create(&df, &uncached_cfg).expect("report");
    assert_eq!(uncached.stats.cache_hits + uncached.stats.cache_misses, 0);
    assert_eq!(
        report_content(&warm_report),
        report_content(&uncached),
        "cached report must be bit-identical to the uncached path"
    );

    let speedup = cold_time.as_secs_f64() / warm_time.as_secs_f64().max(1e-9);

    print_table(
        &["Run", "Time", "Graph time", "Stage peak heap", "Cache"],
        &[
            vec![
                "cold (populates cache)".into(),
                fmt_us(cold_time),
                fmt_us(cold_report.stats.elapsed),
                fmt_bytes(cold_peak),
                format!("{} misses", cold_report.stats.cache_misses),
            ],
            vec![
                "warm (served from cache)".into(),
                fmt_us(warm_time),
                fmt_us(stats.elapsed),
                fmt_bytes(warm_peak),
                format!("{} hits / {} misses", stats.cache_hits, stats.cache_misses),
            ],
        ],
    );
    println!();
    println!(
        "speedup: {speedup:.1}x   hit rate: {:.0}%   bytes served from cache: {}   evictions: {}   process peak RSS: {}",
        hit_rate * 100.0,
        fmt_bytes(stats.cache_bytes_saved),
        stats.cache_evictions,
        fmt_bytes(peak_rss_bytes() as usize)
    );

    if let Some(path) = arg_str("--json") {
        let json = format!(
            concat!(
                "{{\"experiment\":\"cache\",\"rows\":{},",
                "\"cold_us\":{},\"warm_us\":{},\"speedup\":{:.3},",
                "\"cache_hits\":{},\"cache_misses\":{},\"hit_rate\":{:.4},",
                "\"cache_evictions\":{},\"cache_bytes_saved\":{},",
                "\"cold_peak_bytes\":{},\"warm_peak_bytes\":{},",
                "\"peak_rss_bytes\":{}}}"
            ),
            rows,
            cold_time.as_micros(),
            warm_time.as_micros(),
            speedup,
            stats.cache_hits,
            stats.cache_misses,
            hit_rate,
            stats.cache_evictions,
            stats.cache_bytes_saved,
            cold_peak,
            warm_peak,
            peak_rss_bytes(),
        );
        std::fs::write(&path, json).expect("write cache json");
        println!("results written to {path}");
    }
}

fn fmt_us(d: Duration) -> String {
    let us = d.as_micros();
    if us >= 10_000 {
        format!("{:.1}ms", us as f64 / 1000.0)
    } else {
        format!("{us}us")
    }
}

fn fmt_bytes(b: usize) -> String {
    if b >= 1 << 20 {
        format!("{:.1} MiB", b as f64 / (1 << 20) as f64)
    } else if b >= 1 << 10 {
        format!("{:.1} KiB", b as f64 / (1 << 10) as f64)
    } else {
        format!("{b} B")
    }
}
