//! What ingestion holds on the heap, counted by the allocator: the
//! full-frame CSV load, the streaming fold and the `.edaf` projection of
//! one column, on one synthetic file. One test, so nothing else
//! allocates meanwhile. Each bound fails on a planted regression: a load
//! that keeps the file's bytes, a `String` per field, a fold that keeps
//! its chunks, a projection that reads every block.
//!
//! It lives with `payload_bytes.rs` rather than in `eda-io`: a global
//! allocator is an `unsafe impl`, and `eda-io` forbids `unsafe` in every
//! target, its tests included.

// The counting global allocator below is the one `unsafe` here.
#![allow(unsafe_code)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::io::Write as _;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicIsize, AtomicUsize, Ordering};

use eda_dataframe::HeapSize;
use eda_io::{fold_csv, read_csv_chunked, read_edaf_columns, write_edaf, IngestOptions};

/// The system allocator; while [`counted`] runs, it tracks the bytes
/// live above the starting point, their high-water mark, the bytes
/// handed out and the blocks allocated or grown.
struct Counting;

static COUNTING: AtomicBool = AtomicBool::new(false);
static LIVE: AtomicIsize = AtomicIsize::new(0);
static PEAK: AtomicIsize = AtomicIsize::new(0);
static ALLOCATED: AtomicUsize = AtomicUsize::new(0);
static ALLOCS: AtomicUsize = AtomicUsize::new(0);

/// Record a change of the live set (signed: memory from before the
/// counted run may be freed inside it).
fn record(delta: isize) {
    if COUNTING.load(Ordering::Relaxed) {
        let live = LIVE.fetch_add(delta, Ordering::Relaxed) + delta;
        PEAK.fetch_max(live, Ordering::Relaxed);
        if delta > 0 {
            // A new block, or one grown in place or moved.
            ALLOCATED.fetch_add(delta as usize, Ordering::Relaxed);
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
    }
}

// SAFETY: every call is forwarded to `System` unchanged; the atomic
// bookkeeping around it neither allocates nor panics.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            record(layout.size() as isize);
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` with this layout.
        unsafe { System.dealloc(ptr, layout) };
        record(-(layout.size() as isize));
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract,
        // which is `System`'s.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            record(new_size as isize - layout.size() as isize);
        }
        p
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// What a [`counted`] run did to the heap.
struct Heap {
    /// The most bytes it had live at once.
    peak: usize,
    /// Bytes it was handed, in all.
    allocated: usize,
    /// Blocks it allocated or grew.
    allocs: usize,
}

/// Run `f` with the allocator counting: its result, and its [`Heap`] use.
fn counted<T>(f: impl FnOnce() -> T) -> (T, Heap) {
    LIVE.store(0, Ordering::Relaxed);
    PEAK.store(0, Ordering::Relaxed);
    ALLOCATED.store(0, Ordering::Relaxed);
    ALLOCS.store(0, Ordering::Relaxed);
    COUNTING.store(true, Ordering::SeqCst);
    let out = f();
    COUNTING.store(false, Ordering::SeqCst);
    let heap = Heap {
        peak: PEAK.load(Ordering::Relaxed).max(0) as usize,
        allocated: ALLOCATED.load(Ordering::Relaxed),
        allocs: ALLOCS.load(Ordering::Relaxed),
    };
    (out, heap)
}

const CITIES: &[&str] =
    &["Vancouver", "Burnaby", "Surrey", "Richmond", "\"North, Van\"", "Coquitlam"];

/// A deterministic CSV of `rows` rows: an id, a float price (2% `NA`),
/// an int, a quoted categorical with an embedded comma in one of its six
/// values, and a bool. Its size in bytes.
fn write_csv(path: &Path, rows: usize) -> usize {
    let mut w = std::io::BufWriter::new(std::fs::File::create(path).unwrap());
    w.write_all(b"id,price,qty,city,active\n").unwrap();
    let mut state = 0x9e37_79b9_7f4a_7c15u64;
    for i in 0..rows {
        // xorshift64
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        let r = state;
        let price = (r % 900_000) as f64 / 100.0 + 100.0;
        let qty = (r >> 32) % 500;
        let city = CITIES[(r % CITIES.len() as u64) as usize];
        let active = r & 1 == 0;
        if r.is_multiple_of(50) {
            writeln!(w, "{i},NA,{qty},{city},{active}").unwrap();
        } else {
            writeln!(w, "{i},{price:.2},{qty},{city},{active}").unwrap();
        }
    }
    w.flush().unwrap();
    std::fs::metadata(path).unwrap().len() as usize
}

#[test]
fn ingest_holds_one_frame_a_bounded_fold_and_one_projected_column() {
    let rows = 100_000;
    let dir = std::env::temp_dir().join(format!("eda_ingest_heap_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let (csv, edaf) = (dir.join("ingest.csv"), dir.join("ingest.edaf"));
    let file_bytes = write_csv(&csv, rows);

    // The full-frame load, every chunk on the calling thread, chunks of
    // an eighth of the file: the frame, written in place, plus the
    // chunks in flight.
    let load =
        IngestOptions { chunk_bytes: file_bytes / 8, workers: 1, ..IngestOptions::default() };
    let (frame, heap) = counted(|| read_csv_chunked(&csv, &load).unwrap());
    let per_file_byte = heap.peak as f64 / file_bytes as f64;
    assert!(
        per_file_byte <= 1.3,
        "the load holds more than one frame: {per_file_byte:.3} per file byte"
    );
    // `city` is the one string column, six distinct values: a dictionary
    // allocates per distinct value and per buffer growth, a `String` per
    // field at least once per row.
    let per_row = heap.allocs as f64 / rows as f64;
    assert!(per_row < 0.1, "a heap allocation per string field: {per_row:.4} per row");

    // The streaming fold drops every chunk once folded: chunks of a
    // 32nd of the file, two workers, so waves of four chunks hold about
    // an eighth of it.
    let fold =
        IngestOptions { chunk_bytes: file_bytes / 32, workers: 2, ..IngestOptions::default() };
    let mut folded = 0;
    let (outcome, heap) = counted(|| {
        fold_csv(&csv, &fold, |chunk| {
            folded += chunk.nrows();
            Ok(())
        })
        .unwrap()
    });
    assert_eq!((folded, outcome.rows), (rows, rows as u64));
    let of_file = heap.peak as f64 / file_bytes as f64;
    assert!(
        of_file <= 0.3,
        "the streaming fold is not bounded: its peak is {of_file:.3} of the file"
    );

    // Projecting one column reads the footer and that column's block,
    // and decodes the block straight into the column: it allocates about
    // the block plus the column. The file holds the frame and five more
    // float columns, so reading every block would be six times that
    // block at least; a copy of the values between the block and the
    // column, or a byte per row to unpack the nulls into, half as much
    // again.
    let price = frame.column("price").unwrap();
    let mut wide: Vec<(String, eda_dataframe::Column)> =
        frame.iter().map(|(name, column)| (name.to_string(), column.clone())).collect();
    wide.extend((1..=5).map(|k| (format!("price_{k}"), price.clone())));
    let info = write_edaf(&edaf, &eda_dataframe::DataFrame::new(wide).unwrap()).unwrap();
    let (projected, heap) = counted(|| read_edaf_columns(&edaf, &["price"]).unwrap());
    let column = projected.column("price").unwrap();
    assert_eq!(column, price);
    let block = info.columns.iter().find(|c| c.name == "price").unwrap().byte_len as usize;
    let of_both = heap.allocated as f64 / (block + column.heap_bytes()) as f64;
    assert!(
        of_both <= 1.1,
        "the projection of one column allocated {of_both:.3} of its block plus the column"
    );

    std::fs::remove_dir_all(&dir).ok();
}
