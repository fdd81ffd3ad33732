//! Partitioning benchmark: zero-copy column views vs deep-copy slicing.
//!
//! Splits the bitcoin-shaped dataset into partitions two ways in the same
//! process and prints/exports the comparison:
//!
//! * **baseline** — the pre-refactor behaviour: `ChunkMeta::precompute`
//!   followed by a `DataFrame::slice_copy` per partition, which duplicates
//!   every row (values + validity) into fresh buffers.
//! * **zero-copy** — `PartitionedFrame::from_frame`, whose partitions are
//!   `Arc`-shared `(offset, len)` windows over the source frame's buffers:
//!   O(columns) pointer bumps per partition, zero row copies.
//!
//! Usage:
//! `cargo run -p eda-bench --release --bin partition -- --smoke --json /tmp/BENCH_partition.json`
//!
//! * `--smoke` — CI-friendly dataset (200k rows).
//! * `--rows <n>` — explicit row count (default 1,000,000; `--smoke` wins).
//! * `--parts <n>` — partition count (default 16).
//! * `--json <path>` — write `BENCH_partition.json` here.
//!
//! Heap traffic is measured with a counting global allocator (exact bytes,
//! per-stage resettable peak), so the memory numbers are deterministic
//! rather than scheduler-dependent RSS samples.

// The counting global allocator below is the one `unsafe` here.
#![allow(unsafe_code)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Duration;

use eda_bench::{arg_f64, arg_flag, arg_str, machine_context, measure, peak_rss_bytes, print_table};
use eda_datagen::bitcoin::bitcoin_spec;
use eda_datagen::generate;
use eda_dataframe::DataFrame;
use eda_taskgraph::{ChunkMeta, PartitionedFrame};

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

/// Pre-refactor partitioning: a deep row copy per partition.
fn partition_deep_copy(df: &DataFrame, parts: usize) -> Vec<DataFrame> {
    let meta = ChunkMeta::precompute(df, parts);
    (0..meta.npartitions())
        .map(|i| {
            let (start, end) = meta.range(i);
            df.slice_copy(start, end - start)
        })
        .collect()
}

fn main() {
    let rows = if arg_flag("--smoke") { 200_000 } else { arg_f64("--rows", 1_000_000.0) as usize };
    let parts = arg_f64("--parts", 16.0) as usize;
    const ITERS: usize = 5;

    println!("partition bench: bitcoin[{rows} rows] into {parts} partitions, min of {ITERS} runs");
    println!("{}", machine_context());
    println!();

    let df = generate(&bitcoin_spec(rows), 42);

    // Correctness gate before timing anything: the zero-copy view must be
    // value- and validity-identical to the deep copy, and must actually
    // share the source buffers.
    let copies = partition_deep_copy(&df, parts);
    let views = PartitionedFrame::from_frame(&df, parts);
    assert_eq!(views.npartitions(), copies.len());
    for (view, copy) in views.partitions.iter().zip(&copies) {
        assert_eq!(view.as_ref(), copy, "zero-copy partition must equal deep copy");
        for name in df.names() {
            let src = df.column(name).expect("source column");
            assert!(
                view.column(name).expect("view column").shares_buffer(src),
                "partition column {name} must share the source buffer"
            );
            assert!(
                !copy.column(name).expect("copy column").shares_buffer(src),
                "deep copy of {name} must not share the source buffer"
            );
        }
    }
    drop((copies, views));

    // Baseline: deep-copy partitioning. Peak is measured on the first
    // iteration (identical work each time); timing takes the min.
    let live = reset_peak();
    let mut baseline_time = Duration::MAX;
    let mut baseline_peak = 0usize;
    for i in 0..ITERS {
        let (out, t) = measure(|| partition_deep_copy(&df, parts));
        if i == 0 {
            baseline_peak = stage_peak(live);
        }
        baseline_time = baseline_time.min(t);
        drop(out);
    }

    // Zero-copy partitioning.
    let live = reset_peak();
    let mut zerocopy_time = Duration::MAX;
    let mut zerocopy_peak = 0usize;
    for i in 0..ITERS {
        let (out, t) = measure(|| PartitionedFrame::from_frame(&df, parts));
        if i == 0 {
            zerocopy_peak = stage_peak(live);
        }
        zerocopy_time = zerocopy_time.min(t);
        drop(out);
    }

    let speedup = baseline_time.as_secs_f64() / zerocopy_time.as_secs_f64().max(1e-9);
    let peak_reduction = 1.0 - zerocopy_peak as f64 / baseline_peak.max(1) as f64;

    print_table(
        &["Strategy", "Time", "Stage peak heap"],
        &[
            vec!["deep copy (baseline)".into(), fmt_us(baseline_time), fmt_bytes(baseline_peak)],
            vec!["zero-copy views".into(), fmt_us(zerocopy_time), fmt_bytes(zerocopy_peak)],
        ],
    );
    println!();
    println!(
        "speedup: {speedup:.1}x   peak-heap reduction: {:.1}%   process peak RSS: {}",
        peak_reduction * 100.0,
        fmt_bytes(peak_rss_bytes() as usize)
    );

    if let Some(path) = arg_str("--json") {
        let json = format!(
            concat!(
                "{{\"experiment\":\"partition\",\"rows\":{},\"parts\":{},",
                "\"baseline_us\":{},\"zerocopy_us\":{},",
                "\"baseline_peak_bytes\":{},\"zerocopy_peak_bytes\":{},",
                "\"speedup\":{:.3},\"peak_reduction\":{:.4},",
                "\"peak_rss_bytes\":{}}}"
            ),
            rows,
            parts,
            baseline_time.as_micros(),
            zerocopy_time.as_micros(),
            baseline_peak,
            zerocopy_peak,
            speedup,
            peak_reduction,
            peak_rss_bytes(),
        );
        std::fs::write(&path, json).expect("write partition json");
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
