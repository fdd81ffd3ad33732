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
//! * **Chunk tasks** run on the shared worker pool via
//!   [`eda_taskgraph::ingest`]: each reads its own byte range
//!   (positional `pread` or an in-memory subslice — never a shared
//!   cursor), validates UTF-8, parses to typed columns, and then runs the
//!   caller's per-chunk step on them. Fields are slices of the chunk's
//!   text, so what a task stages is that text and the columns it builds:
//!   O(chunk × workers), not O(file).
//! * [`for_each_chunk`] is the one driver of those steps; it hands each
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
//!   waves.

use std::path::Path;
use std::sync::{Arc, Mutex, MutexGuard};

use eda_dataframe::csv::chunk::{
    parse_chunk, sample_schema, utf8_error, Assembly, BoundaryScanner, ChunkRest, ChunkSpec,
    ParsedChunk, DEFAULT_CHUNK_BYTES,
};
use eda_dataframe::csv::CsvOptions;
use eda_dataframe::{Column, DataFrame, DataType, Error, Result};
use eda_taskgraph::cache::PayloadSizer;
use eda_taskgraph::ingest::{run_chunk_waves, WaveStats};
use eda_taskgraph::scheduler::ExecOptions;
use eda_taskgraph::Payload;

use crate::source::ByteSource;

/// Block size of the boundary-scan streaming pass.
const SCAN_BLOCK_BYTES: usize = 256 * 1024;

/// Chunks dispatched per worker per wave for a caller that drops each
/// chunk once it has seen it: what bounds such a fold's memory.
pub(crate) const STREAMING_WAVE_FACTOR: usize = 2;

/// Parameters of chunked ingestion. `exec` carries the run-level
/// governance (cancel token, memory gauge, tracing) checked at
/// every chunk boundary by the executor.
#[derive(Clone)]
pub struct IngestOptions {
    /// CSV dialect and inference options.
    pub csv: CsvOptions,
    /// Target chunk size in bytes ([`DEFAULT_CHUNK_BYTES`] unless a
    /// caller sizes chunks itself); the frame is the same at any value.
    pub chunk_bytes: usize,
    /// Worker threads for the parse pool (`engine.workers`).
    pub workers: usize,
    /// Scheduler options for the chunk tasks (cancellation, budgets,
    /// tracing).
    pub exec: ExecOptions,
}

impl Default for IngestOptions {
    fn default() -> Self {
        IngestOptions {
            csv: CsvOptions::default(),
            chunk_bytes: DEFAULT_CHUNK_BYTES,
            workers: std::thread::available_parallelism().map_or(4, |n| n.get()),
            exec: ExecOptions::default(),
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

/// What a chunk task hands back after its step. Its payload is a
/// `Result<Self>`, kept as a value so panics stay reserved for real
/// faults and parse problems travel as data.
pub(crate) trait ChunkOutput: Clone + Send + Sync + 'static {
    /// The columns it holds.
    fn columns(&self) -> impl Iterator<Item = &Column>;
}

impl ChunkOutput for ParsedChunk {
    fn columns(&self) -> impl Iterator<Item = &Column> {
        self.columns.iter()
    }
}

impl ChunkOutput for ChunkRest {
    fn columns(&self) -> impl Iterator<Item = &Column> {
        self.columns.iter().flatten()
    }
}

/// A [`PayloadSizer`] that prices chunk payloads by their typed column
/// bytes, so memory budgets ([`ExecOptions::gauge`]) see honest numbers
/// during ingestion.
fn chunk_payload_sizer<T: ChunkOutput>() -> PayloadSizer {
    Arc::new(|payload| {
        payload.downcast_ref::<Result<T>>().map(|r| match r {
            Ok(chunk) => chunk
                .columns()
                .map(|c| match c.dtype() {
                    DataType::Float64 | DataType::Int64 => 8 * c.len(),
                    DataType::Bool => c.len(),
                    DataType::Str => {
                        4 * c.len() + c.str_codes().map_or(0, |(_, dict)| dict.heap_bytes())
                    }
                })
                .sum(),
            Err(_) => 64,
        })
    })
}

/// The one chunk driver: parse the chunks of `plan` (a [`scan`] of
/// `source`) on the worker pool in waves of `workers × wave_factor`, run
/// `step(index, chunk)` on each in its task, and hand each step's output
/// to `each` in file order; outputs `each` does not keep are freed as
/// their wave retires. Cancellation and budgets are enforced by the
/// executor at chunk granularity. The first error — a chunk's or its
/// step's, by position in the file, or the callback's — stops the run and
/// is the one reported.
pub(crate) fn for_each_chunk<T: ChunkOutput>(
    source: &Arc<ByteSource>,
    plan: &Arc<Plan>,
    opts: &IngestOptions,
    wave_factor: usize,
    step: impl Fn(usize, ParsedChunk) -> Result<T> + Send + Sync + 'static,
    mut each: impl FnMut(T) -> Result<()>,
) -> Result<WaveStats> {
    let job = {
        let (source, plan, csv) = (Arc::clone(source), Arc::clone(plan), opts.csv.clone());
        move |i: usize| -> Payload {
            let outcome: Result<T> = match plan.specs.get(i) {
                Some(&spec) => parse_spec(&source, spec, &plan.hint, &plan.names, &csv)
                    .and_then(|parsed| step(i, parsed)),
                None => Err(Error::Io(format!("chunk {i} out of range"))),
            };
            Arc::new(outcome)
        }
    };
    let mut exec = opts.exec.clone();
    if exec.sizer.is_none() {
        exec.sizer = Some(chunk_payload_sizer::<T>());
    }

    let mut failure: Option<Error> = None;
    let count = plan.specs.len();
    let waves = run_chunk_waves("csv", count, job, opts.workers, wave_factor, &exec, |base, outcomes| {
        for (i, outcome) in outcomes.into_iter().enumerate() {
            let delivered = match outcome.payload().and_then(|p| p.downcast_ref::<Result<T>>()) {
                // Cloning a chunk is cheap: columns are Arc-backed buffers.
                Some(Ok(chunk)) => each(chunk.clone()),
                Some(Err(e)) => Err(e.clone()),
                None => {
                    let detail = outcome.error().map_or_else(
                        || "chunk task produced no payload".to_string(),
                        |e| e.root_description(),
                    );
                    Err(Error::Io(format!("ingest chunk {} failed: {detail}", base + i)))
                }
            };
            if let Err(e) = delivered {
                failure = Some(e);
                return false;
            }
        }
        true
    });
    match failure {
        Some(e) => Err(e),
        None => Ok(waves),
    }
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

    #[test]
    fn cancellation_aborts_between_chunks() {
        use eda_taskgraph::govern::CancelToken;
        let token = CancelToken::new();
        token.cancel();
        let mut opts = tiny(4);
        opts.exec.cancel = Some(token);
        let err = read_csv_str_chunked("a\n1\n2\n3\n4\n", &opts).unwrap_err();
        assert!(matches!(err, Error::Io(_)), "cancelled ingest must fail, got {err:?}");
    }
}
