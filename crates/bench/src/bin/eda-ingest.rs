//! `eda-ingest` — the ingestion benchmark behind `BENCH_ingest.json`.
//!
//! Measures the chunked CSV pipeline against itself — one worker vs the
//! host's cores, same reader, same chunks — on one synthetic file, plus
//! the two claims the `.edaf` columnar format makes:
//!
//!   1. **Throughput** — rows/sec at `workers = 1` vs `--workers`
//!      (default: the host's cores, recorded as `host_cores`; chunk
//!      budget = file/8 so the file is well beyond 4× one chunk).
//!   2. **Bounded staging** — allocator-counted peak of the full-frame
//!      load per byte of the file (the frame itself, written in place,
//!      plus the chunks in flight), and of the streaming fold
//!      ([`eda_io::fold_csv`], chunks dropped per wave) against it.
//!   3. **O(1) projection** — reading one column out of `.edaf` via the
//!      footer vs re-parsing the whole CSV.
//!
//! It also reports `str_field_allocs`: heap allocations of the one-worker
//! load per field of the file's one string column — at least 1 with a
//! `String` per field, about distinct / rows with a dictionary.
//!
//! ```text
//! eda-ingest [--smoke] [--rows N] [--workers N] [--json out.json]
//! ```
//!
//! The JSON keys are gated by `bench-regress --experiment ingest` on the
//! ratio metrics only (`parallel_speedup`, `load_peak_per_file_byte`,
//! `projection_speedup`); absolute times vary with runner hardware, and
//! `parallel_speedup` is compared only between equal `host_cores`.
//! `staging_reduction` (the load's peak over the fold's) is reported but
//! not gated: a smaller load lowers it.

// The counting global allocator below is the one `unsafe` here.
#![allow(unsafe_code)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::io::Write as _;
use std::sync::atomic::{AtomicBool, AtomicIsize, AtomicUsize, Ordering};
use std::time::Duration;

use eda_bench::{arg_f64, arg_flag, arg_str, machine_context, measure, peak_rss_bytes, print_table};
use eda_io::{fold_csv, read_csv_chunked, read_edaf_columns, write_edaf, IngestOptions};

/// Counting allocator: while [`counted`] runs, tracks the bytes live
/// above its starting point and their high-water mark, so each pipeline
/// stage reports its own staging peak, and how many allocations it made.
struct CountingAlloc;

static COUNTING: AtomicBool = AtomicBool::new(false);
static LIVE: AtomicIsize = AtomicIsize::new(0);
static PEAK: AtomicIsize = AtomicIsize::new(0);
static ALLOCS: AtomicUsize = AtomicUsize::new(0);

/// Record a change of the live set (signed: memory from before the
/// counted run may be freed inside it).
fn record(delta: isize) {
    if COUNTING.load(Ordering::Relaxed) {
        let live = LIVE.fetch_add(delta, Ordering::Relaxed) + delta;
        PEAK.fetch_max(live, Ordering::Relaxed);
        if delta > 0 {
            // A new block, or one grown in place or moved.
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
    }
}

// SAFETY: defers all allocation to `System`; the atomic bookkeeping
// around it performs no allocation and cannot panic.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: forwards the caller's layout to System unchanged.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            record(layout.size() as isize);
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwards the caller's (ptr, layout) contract to System
        // unchanged.
        unsafe { System.dealloc(ptr, layout) };
        record(-(layout.size() as isize));
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: forwards the caller's (ptr, layout, new_size) contract
        // to System unchanged.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            record(new_size as isize - layout.size() as isize);
        }
        p
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// What a [`counted`] run did to the heap.
struct Heap {
    /// The most bytes it had live at once.
    peak: usize,
    /// Blocks it allocated or grew.
    allocs: usize,
}

/// Run `f` with the allocator counting: its result, and its [`Heap`] use. Counting is off everywhere else — two contended
/// atomics per allocation slow a two-worker parse more than a one-worker
/// one (this bench measured a "speedup" of 0.84 counted and 1.23 not), so
/// no timed run carries them.
fn counted<T>(f: impl FnOnce() -> T) -> (T, Heap) {
    LIVE.store(0, Ordering::Relaxed);
    PEAK.store(0, Ordering::Relaxed);
    ALLOCS.store(0, Ordering::Relaxed);
    COUNTING.store(true, Ordering::SeqCst);
    let out = f();
    COUNTING.store(false, Ordering::SeqCst);
    (out, Heap { peak: PEAK.load(Ordering::Relaxed).max(0) as usize, allocs: ALLOCS.load(Ordering::Relaxed) })
}

/// Deterministic xorshift so the file is identical across runs.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x
    }
}

const CITIES: &[&str] =
    &["Vancouver", "Burnaby", "Surrey", "Richmond", "\"North, Van\"", "Coquitlam"];

/// Synthesize a hostile-but-realistic CSV: floats, ints, a quoted
/// categorical with embedded commas, bools, and ~2% NA nulls.
fn write_csv(path: &std::path::Path, rows: usize) -> u64 {
    let file = std::fs::File::create(path).expect("create bench csv");
    let mut w = std::io::BufWriter::new(file);
    w.write_all(b"id,price,qty,city,active\n").expect("write header");
    let mut rng = Rng(0x9e3779b97f4a7c15);
    for i in 0..rows {
        let r = rng.next();
        let price = (r % 900_000) as f64 / 100.0 + 100.0;
        let qty = (r >> 32) % 500;
        let city = CITIES[(r % CITIES.len() as u64) as usize];
        let active = if r & 1 == 0 { "true" } else { "false" };
        if r.is_multiple_of(50) {
            writeln!(w, "{i},NA,{qty},{city},{active}").expect("write row");
        } else {
            writeln!(w, "{i},{price:.2},{qty},{city},{active}").expect("write row");
        }
    }
    w.flush().expect("flush bench csv");
    std::fs::metadata(path).expect("stat bench csv").len()
}

fn rows_per_s(rows: usize, d: Duration) -> f64 {
    rows as f64 / d.as_secs_f64().max(1e-9)
}

fn main() {
    let rows =
        if arg_flag("--smoke") { 100_000 } else { arg_f64("--rows", 500_000.0) as usize };
    let host_cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let workers = arg_f64("--workers", host_cores as f64) as usize;
    const ITERS: usize = 3;

    let dir = std::env::temp_dir().join(format!("eda_ingest_bench_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create bench dir");
    let csv_path = dir.join("ingest.csv");
    let edaf_path = dir.join("ingest.edaf");
    let file_bytes = write_csv(&csv_path, rows);

    // Chunk budget = file/8: at least 8 chunks, so the file is ≥ 4× one
    // chunk and the out-of-core claim is actually exercised.
    let chunk_bytes = (file_bytes as usize / 8).max(4096);

    println!(
        "ingest bench: {rows} rows ({file_bytes} bytes), chunk {chunk_bytes} bytes, \
         {workers} workers, min of {ITERS} runs"
    );
    println!("{}", machine_context());
    println!();

    // Both sides are the one reader over the same chunks; only the
    // worker count differs, so their ratio measures parallelism.
    let seq_opts = IngestOptions { chunk_bytes, workers: 1, ..IngestOptions::default() };
    let par_opts = IngestOptions { chunk_bytes, workers, ..IngestOptions::default() };

    // Correctness gate before timing anything: the parallel load must be
    // bit-identical (logical content fingerprint) to the one-worker load.
    let seq_frame = read_csv_chunked(&csv_path, &seq_opts).expect("one-worker read");
    let par_frame = read_csv_chunked(&csv_path, &par_opts).expect("parallel read");
    assert_eq!(seq_frame, par_frame, "parallel ingest must equal the one-worker load");
    assert_eq!(
        seq_frame.content_fingerprint(),
        par_frame.content_fingerprint(),
        "parallel ingest must be bit-identical to the one-worker load"
    );
    drop(par_frame);

    // Stages 1 and 2: one-worker load (every chunk on the calling
    // thread), then the parallel load. One counted run for the staging
    // peak, then the timed ones.
    let stage = |opts: &IngestOptions| {
        let (out, heap) = counted(|| read_csv_chunked(&csv_path, opts).expect("csv read"));
        drop(out);
        let mut time = Duration::MAX;
        for _ in 0..ITERS {
            let (out, t) = measure(|| read_csv_chunked(&csv_path, opts).expect("csv read"));
            time = time.min(t);
            drop(out);
        }
        (time, heap)
    };
    let (seq_time, Heap { peak: seq_peak, allocs: seq_allocs }) = stage(&seq_opts);
    let (par_time, Heap { peak: par_peak, .. }) = stage(&par_opts);
    // The file has one string column (`city`), so every allocation of the
    // load counts against its fields: one `String` per field would be
    // >= 1, a dictionary-encoded column allocates per distinct value and
    // per buffer growth.
    let str_field_allocs = seq_allocs as f64 / rows as f64;

    // Stage 3: streaming fold — chunks dropped per wave, so the peak
    // must stay O(chunk × workers × wave_factor), not O(file). A tight
    // budget (file/32, 2 workers → 4-chunk waves) keeps at most ~1/8 of
    // the file staged at once; the full-frame loads above stage all of
    // it.
    let stream_opts = IngestOptions {
        chunk_bytes: (file_bytes as usize / 32).max(4096),
        workers: 2,
        ..IngestOptions::default()
    };
    let mut fold_rows = 0u64;
    let (outcome, Heap { peak: stream_peak, .. }) = counted(|| {
        fold_csv(&csv_path, &stream_opts, |chunk| {
            fold_rows += chunk.nrows() as u64;
            Ok(())
        })
        .expect("fold run")
    });
    assert_eq!(fold_rows, rows as u64, "fold must see every row exactly once");
    assert_eq!(outcome.rows, rows as u64);

    // Stage 4: .edaf write, then single-column projection vs a full CSV
    // re-parse — the O(1)-projection claim.
    let info = write_edaf(&edaf_path, &seq_frame).expect("write edaf");
    assert_eq!(info.content_fingerprint, seq_frame.content_fingerprint());
    let mut col_time = Duration::MAX;
    for _ in 0..ITERS {
        let (out, t) =
            measure(|| read_edaf_columns(&edaf_path, &["price"]).expect("projected read"));
        col_time = col_time.min(t);
        assert_eq!(out.ncols(), 1);
        assert_eq!(out.column("price").expect("price column"), seq_frame.column("price").expect("price column"));
        drop(out);
    }
    drop(seq_frame);

    let parallel_speedup = seq_time.as_secs_f64() / par_time.as_secs_f64().max(1e-9);
    let staging_reduction = seq_peak as f64 / stream_peak.max(1) as f64;
    let load_peak_per_file_byte = seq_peak as f64 / file_bytes.max(1) as f64;
    let projection_speedup = seq_time.as_secs_f64() / col_time.as_secs_f64().max(1e-9);

    print_table(
        &["Stage", "Time", "Rows/s", "Stage peak heap"],
        &[
            vec![
                "one-worker parse".into(),
                fmt_us(seq_time),
                fmt_meps(rows_per_s(rows, seq_time)),
                fmt_bytes(seq_peak),
            ],
            vec![
                format!("parallel parse ({workers}w)"),
                fmt_us(par_time),
                fmt_meps(rows_per_s(rows, par_time)),
                fmt_bytes(par_peak),
            ],
            vec![
                "streaming fold".into(),
                "-".into(),
                "-".into(),
                fmt_bytes(stream_peak),
            ],
            vec![
                "edaf 1-col projection".into(),
                fmt_us(col_time),
                "-".into(),
                fmt_bytes(info.file_bytes as usize),
            ],
        ],
    );
    println!();
    println!(
        "parallel speedup: {parallel_speedup:.2}x   load peak per file byte: \
         {load_peak_per_file_byte:.2}   staging reduction (seq peak / fold peak): \
         {staging_reduction:.1}x   projection speedup: {projection_speedup:.1}x"
    );
    println!("allocations per string field of the one-worker load: {str_field_allocs:.5}");
    println!(
        "edaf: {} -> {} bytes   fold chunks: {}   process peak RSS: {}",
        file_bytes,
        info.file_bytes,
        outcome.chunks,
        fmt_bytes(peak_rss_bytes() as usize)
    );

    if let Some(path) = arg_str("--json") {
        let json = format!(
            concat!(
                "{{\"experiment\":\"ingest\",\"rows\":{},\"workers\":{},\"host_cores\":{},",
                "\"file_bytes\":{},\"chunk_bytes\":{},",
                "\"seq_us\":{},\"par_us\":{},",
                "\"seq_rows_per_s\":{:.0},\"par_rows_per_s\":{:.0},",
                "\"parallel_speedup\":{:.3},",
                "\"seq_staging_peak_bytes\":{},\"par_staging_peak_bytes\":{},\"str_field_allocs\":{:.5},",
                "\"stream_peak_bytes\":{},\"staging_reduction\":{:.3},",
                "\"load_peak_per_file_byte\":{:.4},",
                "\"edaf_bytes\":{},\"csv_parse_us\":{},\"edaf_col_us\":{},",
                "\"projection_speedup\":{:.3},\"peak_rss_bytes\":{}}}"
            ),
            rows,
            workers,
            host_cores,
            file_bytes,
            chunk_bytes,
            seq_time.as_micros(),
            par_time.as_micros(),
            rows_per_s(rows, seq_time),
            rows_per_s(rows, par_time),
            parallel_speedup,
            seq_peak,
            par_peak,
            str_field_allocs,
            stream_peak,
            staging_reduction,
            load_peak_per_file_byte,
            info.file_bytes,
            seq_time.as_micros(),
            col_time.as_micros(),
            projection_speedup,
            peak_rss_bytes(),
        );
        std::fs::write(&path, json).expect("write ingest json");
        println!("results written to {path}");
    }

    std::fs::remove_dir_all(&dir).ok();
}

fn fmt_us(d: Duration) -> String {
    let us = d.as_micros();
    if us >= 10_000 {
        format!("{:.1}ms", us as f64 / 1000.0)
    } else {
        format!("{us}us")
    }
}

fn fmt_meps(rps: f64) -> String {
    format!("{:.2}M/s", rps / 1e6)
}

fn fmt_bytes(b: usize) -> String {
    if b >= 1 << 20 {
        format!("{:.1}MiB", b as f64 / (1 << 20) as f64)
    } else if b >= 1 << 10 {
        format!("{:.1}KiB", b as f64 / (1 << 10) as f64)
    } else {
        format!("{b}B")
    }
}
