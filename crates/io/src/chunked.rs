//! Parallel chunked CSV ingestion.
//!
//! The pipeline (DESIGN.md §16) is `eda_dataframe::csv::chunk`'s — the
//! one CSV reader — with byte access and a worker pool added:
//!
//! ```text
//! bytes ──► boundary scan ──► chunk specs ──► pool: parse chunk i ──► finish
//!           (1 streaming       (offset,len,     write its rows in       (widen → cast/
//!            pass, O(1)         first_record)    place, hand on the      repair the
//!            state, exact       + row count      rest; independent       rest → Str
//!            record count)                       tasks, in waves)        by codes)
//! ```
//!
//! * The **boundary scan** streams the source once through the
//!   quote-aware [`BoundaryScanner`], producing `~chunk_bytes` spans
//!   that end on record boundaries, counting the records, and noting
//!   where the leading records that form the type-inference sample end —
//!   the *same* first `infer_rows` records whatever the chunking, which is
//!   what makes the final frame independent of it.
//! * **Chunk tasks** run on the graph executor
//!   (`eda_taskgraph::scheduler::run`, one run per wave of chunk
//!   sources): each reads its own byte range
//!   (positional `pread` or an in-memory subslice — never a shared
//!   cursor), validates UTF-8, parses to typed columns, and then runs the
//!   caller's per-chunk step on them. Fields are slices of the chunk's
//!   text, so what a task stages is that text and the columns it builds:
//!   O(chunk × workers), not O(file).
//! * `for_each_chunk` is the one driver of those steps; it hands each
//!   chunk's step output, in file order, to a callback.
//!   [`read_csv_chunked`]'s step writes the chunk's numeric and boolean
//!   columns into the frame's final columns at the chunk's row offset
//!   ([`Assembly::write`], under one lock held for the copy alone) and
//!   drops them; it collects what is left (one wave: it keeps it all
//!   anyway) and finishes the frame ([`Assembly::finish`]: schemas joined
//!   under the widening lattice, an `Int64` column some chunk widened cast
//!   to `Float64` where it lies, the rare chunks whose column widened to
//!   `Str` re-read from the source, `Str` columns concatenated by codes in
//!   chunk order). [`crate::stream::fold_csv`]'s step does nothing: it
//!   hands each parsed chunk to the caller's fold and drops it, in bounded
//!   waves; [`crate::stream::read_overview`]'s counts the chunk's column
//!   statistics and drops it.

use std::path::Path;
use std::sync::{Arc, Mutex, MutexGuard};

use eda_dataframe::csv::chunk::{
    parse_chunk, sample_schema, utf8_error, Assembly, BoundaryScanner, ChunkRest, ChunkSpec,
    ParsedChunk, DEFAULT_CHUNK_BYTES,
};
use eda_dataframe::csv::CsvOptions;
use eda_dataframe::{DataFrame, DataType, Error, HeapSize, Result};
use eda_taskgraph::scheduler::{cores, run, ExecOptions};
use eda_taskgraph::{TaskGraph, TaskKey, TaskOutcome};

use crate::source::ByteSource;

/// Block size of the boundary-scan streaming pass.
const SCAN_BLOCK_BYTES: usize = 256 * 1024;

/// Chunks dispatched per worker per wave for a caller that drops each
/// chunk once it has seen it: what bounds such a fold's memory.
pub(crate) const STREAMING_WAVE_FACTOR: usize = 2;

/// Parameters of chunked ingestion.
#[derive(Clone)]
pub struct IngestOptions {
    /// CSV dialect and inference options.
    pub csv: CsvOptions,
    /// Target chunk size in bytes ([`DEFAULT_CHUNK_BYTES`] unless a
    /// caller sizes chunks itself); the frame is the same at any value.
    pub chunk_bytes: usize,
    /// Worker threads for the parse pool (`engine.workers`).
    pub workers: usize,
}

impl Default for IngestOptions {
    fn default() -> Self {
        IngestOptions {
            csv: CsvOptions::default(),
            chunk_bytes: DEFAULT_CHUNK_BYTES,
            workers: cores(),
        }
    }
}

/// What the single boundary-scan pass learned about a stream.
pub(crate) struct Plan {
    pub names: Vec<String>,
    pub hint: Vec<DataType>,
    pub specs: Vec<ChunkSpec>,
    /// Records in the stream, a header included.
    pub records: usize,
}

/// One sequential pass over the source: chunk specs, record count and
/// inference sample. An empty stream has no chunks and no columns.
pub(crate) fn scan(source: &ByteSource, opts: &IngestOptions) -> Result<Plan> {
    let mut scanner = BoundaryScanner::new(opts.chunk_bytes, opts.csv.sample_records());
    let mut specs = Vec::new();
    source.scan_blocks(SCAN_BLOCK_BYTES, |block| scanner.feed(block, &mut specs))?;
    let end = scanner.finish(&mut specs);
    let (names, hint) = source.with_chunk(0, end.sample_len, |bytes| {
        sample_schema(std::str::from_utf8(bytes).map_err(|e| utf8_error(&e, 0))?, &opts.csv)
    })??;
    Ok(Plan { names, hint, specs, records: end.records })
}

/// Parse chunk `spec` straight off the source under `schema`.
fn parse_spec(
    source: &ByteSource,
    spec: ChunkSpec,
    schema: &[DataType],
    names: &[String],
    csv: &CsvOptions,
) -> Result<ParsedChunk> {
    source.with_chunk(spec.offset, spec.len, |bytes| {
        let text = std::str::from_utf8(bytes).map_err(|e| utf8_error(&e, spec.offset))?;
        parse_chunk(text, spec, schema, names, csv)
    })?
}

/// The one chunk driver: parse the chunks of `plan` (a [`scan`] of
/// `source`) on `opts.workers` threads in waves of `workers ×
/// wave_factor`, run `step(index, chunk)` on each in its task, and hand
/// each step's output to `each` in file order; outputs `each` does not
/// keep are freed as it takes them. A wave is one run of the graph
/// executor over a graph of chunk sources. The first error — a chunk's or
/// its step's, by position in the file, or the callback's — stops the run
/// after its wave and is the one reported.
pub(crate) fn for_each_chunk<T: HeapSize + Clone + Send + Sync + 'static>(
    source: &Arc<ByteSource>,
    plan: &Arc<Plan>,
    opts: &IngestOptions,
    wave_factor: usize,
    step: impl Fn(usize, ParsedChunk) -> Result<T> + Send + Sync + 'static,
    mut each: impl FnMut(T) -> Result<()>,
) -> Result<()> {
    // Each task's payload is a `Result<T>`: parse problems travel as
    // data, and panics stay reserved for real faults.
    let job = {
        let (source, plan, csv) = (Arc::clone(source), Arc::clone(plan), opts.csv.clone());
        Arc::new(move |i: usize| -> Result<T> {
            match plan.specs.get(i) {
                Some(&spec) => parse_spec(&source, spec, &plan.hint, &plan.names, &csv)
                    .and_then(|parsed| step(i, parsed)),
                None => Err(Error::Io(format!("chunk {i} out of range"))),
            }
        })
    };
    let count = plan.specs.len();
    let wave = opts.workers.max(1).saturating_mul(wave_factor);
    let mut base = 0;
    while base < count {
        let end = count.min(base.saturating_add(wave));
        // Chunk payloads are positional, not content-addressed: no dedup.
        let mut graph = TaskGraph::without_dedup();
        let outputs: Vec<_> = (base..end)
            .map(|i| {
                let job = Arc::clone(&job);
                graph.source("ingest:csv", TaskKey::leaf("ingest:csv", i as u64), move || job(i))
            })
            .collect();
        let result = run(&graph, &outputs, opts.workers, &ExecOptions::default());
        for (i, outcome) in (base..).zip(result.outcomes) {
            let chunk = match outcome {
                TaskOutcome::Ok(payload) => payload
                    .downcast::<Result<T>>()
                    .map_err(|_| Error::Io(format!("chunk {i} produced a payload of another type")))
                    // Moves the chunk out when this is its last reference.
                    .and_then(Arc::unwrap_or_clone),
                TaskOutcome::Failed(e) => {
                    Err(Error::Io(format!("ingest chunk {i} failed: {}", e.root_description())))
                }
            };
            each(chunk?)?;
        }
        base = end;
    }
    Ok(())
}

/// Read a CSV file through the chunked parallel pipeline.
pub fn read_csv_chunked<P: AsRef<Path>>(path: P, opts: &IngestOptions) -> Result<DataFrame> {
    ingest(&Arc::new(ByteSource::open(path.as_ref())?), opts)
}

/// Chunked ingestion over in-memory CSV text (copies the text once into
/// the shared source buffer; chunk parsing then borrows subslices).
pub fn read_csv_str_chunked(text: &str, opts: &IngestOptions) -> Result<DataFrame> {
    ingest(&Arc::new(ByteSource::from_bytes(text.as_bytes().to_vec())), opts)
}

/// Write every chunk into the frame as it is parsed, collect what is
/// left, then finish the frame. Every chunk's rest is kept, so bounding
/// the wave would bound nothing and only make the workers meet at a
/// barrier per wave (EXPERIMENTS.md, "One CSV reader": 14% of a 41 MB load
/// on two workers): one wave.
fn ingest(source: &Arc<ByteSource>, opts: &IngestOptions) -> Result<DataFrame> {
    let plan = Arc::new(scan(source, opts)?);
    // Pool tasks are `'static`, so they cannot be lent disjoint windows
    // of the columns: the frame sits behind one lock instead, held for a
    // chunk's copy and nothing else.
    let assembly = Arc::new(Mutex::new(Assembly::new(
        &plan.names,
        &plan.hint,
        &plan.specs,
        plan.records,
        &opts.csv,
    )));
    let step = {
        let (assembly, plan) = (Arc::clone(&assembly), Arc::clone(&plan));
        move |i: usize, parsed: ParsedChunk| -> Result<ChunkRest> {
            lock(&assembly)?.write(i, &parsed)?;
            Ok(parsed.into_rest(&plan.hint))
        }
    };
    let mut rests = Vec::with_capacity(plan.specs.len());
    for_each_chunk(source, &plan, opts, usize::MAX, step, |rest| {
        rests.push(rest);
        Ok(())
    })?;
    let assembly = std::mem::take(&mut *lock(&assembly)?);
    assembly.finish(rests, |spec, schema| parse_spec(source, spec, schema, &plan.names, &opts.csv))
}

/// The frame under assembly; a chunk task that panicked while holding it
/// fails the load instead of the caller.
fn lock(assembly: &Mutex<Assembly>) -> Result<MutexGuard<'_, Assembly>> {
    assembly.lock().map_err(|_| Error::Io("a chunk task failed while writing the frame".into()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use eda_dataframe::csv::read_csv_str;
    use std::sync::atomic::{AtomicUsize, Ordering::SeqCst};

    fn tiny(chunk_bytes: usize) -> IngestOptions {
        IngestOptions { chunk_bytes, workers: 4, ..IngestOptions::default() }
    }

    fn assert_frames_identical(a: &DataFrame, b: &DataFrame) {
        assert_eq!(a.names(), b.names());
        assert_eq!(a.nrows(), b.nrows());
        for name in a.names() {
            let ca = a.column(name).unwrap();
            let cb = b.column(name).unwrap();
            assert_eq!(ca.dtype(), cb.dtype(), "column {name}");
            assert_eq!(
                ca.content_fingerprint(),
                cb.content_fingerprint(),
                "column {name} bytes differ"
            );
        }
        assert_eq!(a.content_fingerprint(), b.content_fingerprint());
    }

    #[test]
    fn chunked_matches_sequential_simple() {
        let csv = "a,b,c\n1,x,true\n2,y,false\n3,z,\n4,w,true\n";
        let seq = read_csv_str(csv, &CsvOptions::default()).unwrap();
        for chunk_bytes in [1, 7, 13, 64, 1 << 20] {
            let par = read_csv_str_chunked(csv, &tiny(chunk_bytes)).unwrap();
            assert_frames_identical(&seq, &par);
        }
    }

    #[test]
    fn widening_across_chunks_matches_sequential() {
        // Ints early, a float deep in the stream, a string even deeper:
        // chunks parsed before the contradiction must cast (f64) and
        // repair (str) to match the sequential result.
        let mut csv = String::from("n,s\n");
        for i in 0..50 {
            csv.push_str(&format!("{i},{i}\n"));
        }
        csv.push_str("3.25,x\n");
        for i in 0..10 {
            csv.push_str(&format!("{i},{i}\n"));
        }
        let seq = read_csv_str(&csv, &CsvOptions::default()).unwrap();
        assert_eq!(seq.column("n").unwrap().dtype(), DataType::Float64);
        assert_eq!(seq.column("s").unwrap().dtype(), DataType::Str);
        for chunk_bytes in [8, 32, 100, 1 << 20] {
            let par = read_csv_str_chunked(&csv, &tiny(chunk_bytes)).unwrap();
            assert_frames_identical(&seq, &par);
        }
    }

    #[test]
    fn str_repair_preserves_raw_spelling() {
        // "07" and " 8 " parse as ints in early chunks; the late "oops"
        // widens the column to Str, and the raw spellings must survive.
        let csv = "v\n07\n 8 \n1.50\noops\n";
        let seq = read_csv_str(csv, &CsvOptions::default()).unwrap();
        for chunk_bytes in [1, 4, 6, 1 << 20] {
            let par = read_csv_str_chunked(csv, &tiny(chunk_bytes)).unwrap();
            assert_frames_identical(&seq, &par);
            let vals: Vec<_> = par.column("v").unwrap().str_iter().unwrap().collect();
            assert_eq!(vals, [Some("07"), Some(" 8 "), Some("1.50"), Some("oops")]);
        }
    }

    #[test]
    fn ragged_row_error_matches_sequential_position() {
        let csv = "a,b\n1,2\n3,4\n5\n6,7\n";
        let seq_err = read_csv_str(csv, &CsvOptions::default()).unwrap_err();
        let par_err = read_csv_str_chunked(csv, &tiny(4)).unwrap_err();
        assert_eq!(seq_err, par_err);
        match par_err {
            Error::Malformed { line, offset, .. } => {
                assert_eq!(line, 4);
                assert_eq!(offset, Some(12));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn empty_and_header_only_inputs() {
        let opts = tiny(8);
        let empty = read_csv_str_chunked("", &opts).unwrap();
        assert_eq!(empty.ncols(), 0);
        let header_only = read_csv_str_chunked("a,b\n", &opts).unwrap();
        assert_eq!(header_only.ncols(), 2);
        assert_eq!(header_only.nrows(), 0);
        assert_frames_identical(
            &read_csv_str("a,b\n", &CsvOptions::default()).unwrap(),
            &header_only,
        );
    }

    #[test]
    fn zero_chunk_bytes_is_sequential_golden() {
        // `0` selects nothing: the scanner clamps it to one byte, i.e.
        // one record per chunk.
        let csv = "a,b\n1,x\n2.5,\"y,z\"\n";
        let seq = read_csv_str(csv, &CsvOptions::default()).unwrap();
        let off = read_csv_str_chunked(csv, &tiny(0)).unwrap();
        assert_frames_identical(&seq, &off);
    }

    /// A one-column CSV of `rows` records, scanned into one chunk each.
    fn one_record_chunks(
        rows: usize,
        workers: usize,
    ) -> (Arc<ByteSource>, Arc<Plan>, IngestOptions) {
        let text: String =
            std::iter::once("a\n".to_string()).chain((0..rows).map(|i| format!("{i}\n"))).collect();
        let source = Arc::new(ByteSource::from_bytes(text.into_bytes()));
        let opts = IngestOptions { chunk_bytes: 1, workers, ..IngestOptions::default() };
        let plan = Arc::new(scan(&source, &opts).unwrap());
        assert!(plan.specs.len() >= rows, "{} chunks", plan.specs.len());
        (source, plan, opts)
    }

    #[test]
    fn a_streaming_wave_bounds_the_outputs_alive() {
        for workers in [1, 2, 3] {
            let (source, plan, opts) = one_record_chunks(40, workers);
            // Every step output is a clone of `token`; the test and the
            // step hold the two others.
            let token = Arc::new(());
            let step = {
                let token = Arc::clone(&token);
                move |_, _: ParsedChunk| Ok(Arc::clone(&token))
            };
            let (mut delivered, mut most) = (0, 0);
            for_each_chunk(&source, &plan, &opts, STREAMING_WAVE_FACTOR, step, |output| {
                most = most.max(Arc::strong_count(&token) - 2);
                delivered += 1;
                drop(output);
                Ok(())
            })
            .unwrap();
            assert_eq!(delivered, plan.specs.len());
            // A wave's outputs are all alive once it has run, and no more.
            assert_eq!(most, workers * STREAMING_WAVE_FACTOR, "{workers} workers");
            assert_eq!(Arc::strong_count(&token), 1);
        }
    }

    #[test]
    fn a_callback_error_stops_parsing_after_its_wave() {
        let (source, plan, opts) = one_record_chunks(40, 2);
        let wave = 2 * STREAMING_WAVE_FACTOR;
        let k = wave + 1;
        let parsed = Arc::new(AtomicUsize::new(0));
        let step = {
            let parsed = Arc::clone(&parsed);
            move |i, _: ParsedChunk| {
                parsed.fetch_add(1, SeqCst);
                Ok(i)
            }
        };
        let mut seen = Vec::new();
        let err = for_each_chunk(&source, &plan, &opts, STREAMING_WAVE_FACTOR, step, |i| {
            seen.push(i);
            if i == k {
                return Err(Error::Io("stop".into()));
            }
            Ok(())
        })
        .unwrap_err();
        assert_eq!(err, Error::Io("stop".into()));
        assert_eq!(seen, (0..=k).collect::<Vec<_>>(), "delivered in file order up to chunk {k}");
        assert_eq!(parsed.load(SeqCst), 2 * wave, "parsing stops at the end of chunk {k}'s wave");
    }

    #[test]
    fn a_panicking_step_fails_the_run_naming_its_chunk() {
        for workers in [1, 2] {
            let (source, plan, opts) = one_record_chunks(12, workers);
            let step = |i: usize, _: ParsedChunk| {
                assert!(i != 5, "step failed on purpose");
                Ok(i)
            };
            let err =
                for_each_chunk(&source, &plan, &opts, usize::MAX, step, |_| Ok(())).unwrap_err();
            let Error::Io(message) = &err else { panic!("unexpected {err:?}") };
            assert!(message.contains("chunk 5 ") && message.contains("on purpose"), "{message}");
        }
    }
}
