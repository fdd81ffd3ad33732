//! Out-of-core folds: statistics over CSVs that never fit in memory.
//!
//! [`fold_csv`] runs the reader's boundary scan and its one chunk driver
//! (`chunked::for_each_chunk`: parallel parse in bounded waves), but
//! instead of writing chunk columns into one frame it hands each
//! parsed chunk to a fold callback and *drops it*, so peak memory is
//! O(chunk × workers × wave factor) no matter how long the stream is.
//!
//! [`read_overview`] is the canonical fold: a dataset overview — the
//! paper's `plot(df)` entry point — at bounded memory. Each chunk's task
//! builds the partials the graph's `moments` and `freq` tasks build over
//! a partition ([`Moments::of`], [`CatFreq::of`]), with the same `merge`s,
//! and drops the chunk.

use std::path::Path;
use std::sync::Arc;

use eda_dataframe::csv::chunk::{global_schema, needs_text_repair, ParsedChunk};
use eda_dataframe::csv::widen;
use eda_dataframe::{Column, DataFrame, DataType, HeapSize, Result, Selection};
use eda_stats::freq::CatFreq;
use eda_stats::missing::ColMeta;
use eda_stats::moments::Moments;

use crate::chunked::{for_each_chunk, scan, IngestOptions, Plan, STREAMING_WAVE_FACTOR};
use crate::source::ByteSource;

/// How a fold run ended.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FoldOutcome {
    /// Data rows delivered to the fold.
    pub rows: u64,
    /// Chunks delivered to the fold.
    pub chunks: usize,
}

/// Stream a CSV file through `fold`, one parsed chunk at a time, never
/// materialising the whole frame. Chunks arrive in file order. The fold
/// sees each chunk as a bona fide [`DataFrame`] with the chunk-local
/// schema — a column may be `Int64` in one chunk and `Float64` or `Str`
/// in a later one; folds that care must widen as they merge (as
/// [`read_overview`] does).
///
/// The first chunk error aborts the run and is returned.
pub fn fold_csv<P, F>(path: P, opts: &IngestOptions, mut fold: F) -> Result<FoldOutcome>
where
    P: AsRef<Path>,
    F: FnMut(DataFrame) -> Result<()>,
{
    let source = Arc::new(ByteSource::open(path.as_ref())?);
    let plan = Arc::new(scan(&source, opts)?);
    let mut rows = 0u64;
    let mut chunks = 0usize;
    // The chunk's step does nothing: each chunk reaches the fold whole.
    let keep = |_, parsed: ParsedChunk| Ok(parsed);
    for_each_chunk(&source, &plan, opts, STREAMING_WAVE_FACTOR, keep, |parsed| {
        // The chunk as a frame under its chunk-local schema.
        fold(DataFrame::new(plan.names.iter().cloned().zip(parsed.columns).collect())?)?;
        rows += parsed.nrows as u64;
        chunks += 1;
        Ok(())
    })?;
    Ok(FoldOutcome { rows, chunks })
}

/// A dataset overview counted chunk by chunk ([`read_overview`]).
#[derive(Debug, Clone)]
pub struct Overview {
    /// Data rows.
    pub nrows: usize,
    /// Every column's name and statistics, in file order.
    pub columns: Vec<(String, ColumnStats)>,
}

/// One column's statistics: the payload of the graph task that counts
/// the same column of the loaded frame.
#[derive(Debug, Clone)]
pub enum ColumnStats {
    /// An `Int64` or `Float64` column: what a `moments` task holds.
    Numeric(Moments),
    /// A `Bool` or `Str` column: what a `freq` task holds.
    Categorical(CatFreq),
}

impl HeapSize for ColumnStats {
    fn heap_bytes(&self) -> usize {
        match self {
            ColumnStats::Numeric(moments) => moments.heap_bytes(),
            ColumnStats::Categorical(freq) => freq.heap_bytes(),
        }
    }
}

impl Overview {
    /// The statistics of the column called `name`.
    pub fn column(&self, name: &str) -> Option<&ColumnStats> {
        self.columns.iter().find(|(n, _)| n == name).map(|(_, stats)| stats)
    }

    /// The row and null counts of the column called `name`, read off its
    /// statistics the way the graph reads them off its payloads.
    pub fn meta(&self, name: &str) -> Option<ColMeta> {
        Some(match self.column(name)? {
            ColumnStats::Numeric(m) => ColMeta::numeric(self.nrows, m),
            ColumnStats::Categorical(f) => ColMeta::categorical(f.total(), f.nulls()),
        })
    }
}

impl ColumnStats {
    fn of(column: &Column) -> Result<ColumnStats> {
        Ok(match column.dtype() {
            DataType::Int64 | DataType::Float64 => ColumnStats::Numeric(Moments::of(column)?),
            DataType::Bool | DataType::Str => {
                ColumnStats::Categorical(CatFreq::of(column, Selection::All))
            }
        })
    }

    /// The statistics of no row of a `dtype` column.
    fn empty(dtype: DataType) -> ColumnStats {
        match dtype {
            DataType::Int64 | DataType::Float64 => ColumnStats::Numeric(Moments::new()),
            DataType::Bool | DataType::Str => ColumnStats::Categorical(CatFreq::default()),
        }
    }
}

/// One column's statistics over some chunks, and the type they read it at.
type Tally = (DataType, ColumnStats);

/// Merge later chunks' tallies into earlier ones, column by column, under
/// the reader's widening lattice. A column the two sides read at types
/// that join to `Str` (a bool or a number beside text, or a bool beside a
/// number) is text: a side that read it as text keeps what it counted,
/// the other side's count is dropped, and its chunks are re-read as text
/// once every chunk has voted ([`read_overview`]).
fn merge_columns(into: &mut [Tally], from: Vec<Tally>) {
    for ((dtype, stats), (theirs, other)) in into.iter_mut().zip(from) {
        let joined = widen(*dtype, theirs);
        if joined == DataType::Str && *dtype != theirs {
            if theirs == DataType::Str {
                *stats = other;
            } else if *dtype != DataType::Str {
                *stats = ColumnStats::empty(joined);
            }
        } else {
            match (stats, other) {
                (ColumnStats::Numeric(a), ColumnStats::Numeric(b)) => a.merge(&b),
                (ColumnStats::Categorical(a), ColumnStats::Categorical(b)) => a.merge(&b),
                _ => {}
            }
        }
        *dtype = joined;
    }
}

/// Chunk tallies merged pairwise as they arrive, like the carries of a
/// binary counter: O(log chunks) of them are held and each is merged
/// O(log chunks) times. Chunk dictionaries differ, so a merge re-codes
/// every category of both sides; a left fold would re-code the running
/// table once per chunk.
#[derive(Default)]
struct TreeFold(Vec<(u32, Vec<Tally>)>);

impl TreeFold {
    fn push(&mut self, mut part: Vec<Tally>) {
        let mut level = 0;
        while let Some((_, mut earlier)) = self.0.pop_if(|(top, _)| *top == level) {
            merge_columns(&mut earlier, part);
            part = earlier;
            level += 1;
        }
        self.0.push((level, part));
    }

    fn finish(self) -> Vec<Tally> {
        let runs = self.0.into_iter().map(|(_, part)| part);
        runs.reduce(|mut earlier, later| {
            merge_columns(&mut earlier, later);
            earlier
        })
        .unwrap_or_default()
    }
}

/// Count a CSV's overview at bounded memory: every column's statistics
/// as the graph computes them over the frame [`crate::read_csv_chunked`]
/// loads from the same file, without loading it.
///
/// A column some later chunk widened to `Str` is then re-read as text in
/// the chunks that read it narrower, in bounded waves as the first pass
/// ran — the raw spellings of their fields live only in the source — the
/// way the reader's assembly repairs it.
pub fn read_overview<P: AsRef<Path>>(path: P, opts: &IngestOptions) -> Result<Overview> {
    let source = Arc::new(ByteSource::open(path.as_ref())?);
    let plan = Arc::new(scan(&source, opts)?);
    let count = |_, parsed: ParsedChunk| {
        let tally = |column: &Column| Ok((column.dtype(), ColumnStats::of(column)?));
        Ok((parsed.nrows, parsed.columns.iter().map(tally).collect::<Result<Vec<_>>>()?))
    };
    let (mut fold, mut read_as, mut nrows) = (TreeFold::default(), Vec::new(), 0);
    for_each_chunk(&source, &plan, opts, STREAMING_WAVE_FACTOR, count, |(rows, tallies)| {
        nrows += rows;
        read_as.push(tallies.iter().map(|&(dtype, _)| dtype).collect::<Vec<_>>());
        fold.push(tallies);
        Ok(())
    })?;

    let global = global_schema(&plan.hint, &read_as);
    let (specs, stale): (Vec<_>, Vec<Vec<bool>>) = (plan.specs.iter().zip(&read_as))
        .map(|(&spec, have)| {
            (spec, have.iter().zip(&global).map(|(&h, &w)| needs_text_repair(h, w)).collect())
        })
        .filter(|(_, stale): &(_, Vec<bool>)| stale.contains(&true))
        .unzip();
    if !specs.is_empty() {
        let hint = global.clone();
        let reread =
            Arc::new(Plan { names: plan.names.clone(), hint, specs, records: plan.records });
        // Under the global schema: a stale column parses as text.
        let as_text = move |i: usize, parsed: ParsedChunk| {
            let stale = stale.get(i).map_or(&[][..], Vec::as_slice);
            let tally = |(column, &stale): (&Column, &bool)| {
                let dtype = column.dtype();
                Ok((
                    dtype,
                    if stale { ColumnStats::of(column)? } else { ColumnStats::empty(dtype) },
                ))
            };
            parsed.columns.iter().zip(stale).map(tally).collect::<Result<Vec<_>>>()
        };
        for_each_chunk(&source, &reread, opts, STREAMING_WAVE_FACTOR, as_text, |tallies| {
            fold.push(tallies);
            Ok(())
        })?;
    }

    let mut tallies = fold.finish().into_iter();
    let columns = (plan.names.iter().zip(&global))
        .map(|(name, &dtype)| {
            let stats =
                tallies.next().map_or_else(|| ColumnStats::empty(dtype), |(_, stats)| stats);
            (name.clone(), stats)
        })
        .collect();
    Ok(Overview { nrows, columns })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chunked::read_csv_chunked;
    use eda_dataframe::Error;
    use std::io::Write;

    fn temp_csv(name: &str, contents: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("eda_io_stream_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(name);
        let mut f = std::fs::File::create(&path).unwrap();
        f.write_all(contents.as_bytes()).unwrap();
        path
    }

    fn csv_body(rows: usize) -> String {
        let mut s = String::from("x,cat\n");
        for i in 0..rows {
            s.push_str(&format!("{}.5,{}\n", i, if i % 3 == 0 { "a" } else { "b" }));
        }
        s
    }

    /// Every category's count, in `summary(usize::MAX)` order, and the
    /// nulls.
    fn table(freq: &CatFreq) -> (Vec<(String, u64)>, u64) {
        let all =
            freq.summary(usize::MAX).top(usize::MAX).map(|(c, n)| (c.to_string(), n)).collect();
        (all, freq.nulls())
    }

    fn count(freq: &CatFreq, category: &str) -> u64 {
        table(freq).0.into_iter().find(|(c, _)| c == category).map_or(0, |(_, n)| n)
    }

    fn numeric(stats: Option<&ColumnStats>) -> &Moments {
        match stats {
            Some(ColumnStats::Numeric(m)) => m,
            other => panic!("numeric statistics expected, got {other:?}"),
        }
    }

    fn categorical(stats: Option<&ColumnStats>) -> &CatFreq {
        match stats {
            Some(ColumnStats::Categorical(f)) => f,
            other => panic!("categorical statistics expected, got {other:?}"),
        }
    }

    /// The overview of `body` at `chunk_bytes`, and the frame the chunked
    /// reader loads from the same file.
    fn streamed_and_loaded(name: &str, body: &str, chunk_bytes: usize) -> (Overview, DataFrame) {
        let path = temp_csv(name, body);
        let opts = IngestOptions { chunk_bytes, workers: 2, ..IngestOptions::default() };
        let streamed = read_overview(&path, &opts).unwrap();
        let loaded = read_csv_chunked(&path, &opts).unwrap();
        std::fs::remove_file(&path).ok();
        (streamed, loaded)
    }

    #[test]
    fn fold_sees_every_row_once() {
        let body = csv_body(500);
        let path = temp_csv("fold.csv", &body);
        let opts = IngestOptions { chunk_bytes: 256, workers: 2, ..IngestOptions::default() };
        let mut rows = 0usize;
        let outcome = fold_csv(&path, &opts, |chunk| {
            rows += chunk.nrows();
            Ok(())
        })
        .unwrap();
        assert_eq!(rows, 500);
        assert_eq!(outcome.rows, 500);
        assert!(outcome.chunks > 1, "tiny chunk budget must produce many chunks");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn overview_matches_in_memory_sketch() {
        let (streamed, whole) = streamed_and_loaded("overview.csv", &csv_body(300), 128);
        assert_eq!(streamed.nrows, whole.nrows());
        let (a, b) =
            (numeric(streamed.column("x")), &Moments::of(whole.column("x").unwrap()).unwrap());
        assert_eq!(a.count, b.count);
        assert!((a.mean - b.mean).abs() < 1e-9);
        let cat = whole.column("cat").unwrap();
        assert_eq!(
            table(categorical(streamed.column("cat"))),
            table(&CatFreq::of(cat, Selection::All))
        );
        assert_eq!(streamed.meta("cat"), Some(ColMeta { len: 300, nulls: 0 }));
    }

    #[test]
    fn chunked_numeric_merge_equals_single_pass() {
        let mut body = String::from("v\n");
        for i in 0..400 {
            body.push_str(&if i % 9 == 0 {
                "NA\n".to_string()
            } else {
                format!("{}\n", i as f64 * 0.5)
            });
        }
        let (streamed, whole) = streamed_and_loaded("numeric.csv", &body, 64);
        let (a, b) =
            (numeric(streamed.column("v")), &Moments::of(whole.column("v").unwrap()).unwrap());
        assert_eq!((a.count, a.min, a.max, a.zeros), (b.count, b.min, b.max, b.zeros));
        assert!((a.mean - b.mean).abs() < 1e-12);
        assert!((a.m2 - b.m2).abs() < 1e-9 * b.m2.abs().max(1.0));
        assert_eq!(streamed.meta("v"), Some(ColMeta { len: 400, nulls: 45 }));
    }

    #[test]
    fn chunked_categorical_merge_equals_single_pass() {
        let mut body = String::from("c,flag\n");
        for i in 0..300 {
            let c = ["alpha", "beta", ""][i % 3];
            body.push_str(&format!(
                "{c},{}\n",
                if i % 4 == 0 {
                    "NA"
                } else if i % 2 == 0 {
                    "true"
                } else {
                    "False"
                }
            ));
        }
        let (streamed, whole) = streamed_and_loaded("categorical.csv", &body, 48);
        for name in ["c", "flag"] {
            let want = CatFreq::of(whole.column(name).unwrap(), Selection::All);
            assert_eq!(table(categorical(streamed.column(name))), table(&want), "{name}");
        }
        assert_eq!(streamed.meta("c"), Some(ColMeta { len: 300, nulls: 100 }));
        // A bool column counts by its display forms, as the graph does.
        assert_eq!(count(categorical(streamed.column("flag")), "false"), 150);
    }

    #[test]
    fn frame_merge_is_columnwise_and_name_keyed() {
        let (streamed, _) =
            streamed_and_loaded("columns.csv", "b,a,c\n1,x,true\n2,y,false\n3,,true\n", 8);
        let names: Vec<&str> = streamed.columns.iter().map(|(name, _)| name.as_str()).collect();
        assert_eq!(names, ["b", "a", "c"], "file order");
        assert_eq!(numeric(streamed.column("b")).count, 3);
        assert_eq!(streamed.meta("a"), Some(ColMeta { len: 3, nulls: 1 }));
        assert_eq!(categorical(streamed.column("c")).distinct(), 2);
        assert!(streamed.column("absent").is_none() && streamed.meta("absent").is_none());
    }

    #[test]
    fn type_disagreement_widens_to_categorical() {
        // An integer column that turns to text long after the inference
        // sample, and a bool column that does the same: every earlier
        // chunk is counted again as text, spelled as in the file.
        let mut body = String::from("x,flag,n\n");
        for i in 0..5000 {
            let x = if i < 4900 { format!("{}", i % 50) } else { format!("t{i}") };
            let flag =
                if i < 4950 { ["true", "False"][i % 2].to_string() } else { format!("f{}", i % 3) };
            body.push_str(&format!("{x},{flag},{i}\n"));
        }
        let (streamed, whole) = streamed_and_loaded("widened.csv", &body, 128);
        assert_eq!(streamed.nrows, 5000);
        for name in ["x", "flag"] {
            let want = CatFreq::of(whole.column(name).unwrap(), Selection::All);
            let got = categorical(streamed.column(name));
            assert_eq!(table(got), table(&want), "{name}");
            assert_eq!(streamed.meta(name), Some(ColMeta { len: 5000, nulls: 0 }), "{name}");
        }
        assert_eq!(count(categorical(streamed.column("flag")), "False"), 2475);
        assert_eq!(numeric(streamed.column("n")).count, 5000);
    }

    #[test]
    fn fold_error_aborts_run() {
        let path = temp_csv("abort.csv", &csv_body(100));
        let opts = IngestOptions { chunk_bytes: 64, workers: 2, ..IngestOptions::default() };
        let err = fold_csv(&path, &opts, |_| Err(Error::Io("stop".into()))).unwrap_err();
        assert_eq!(err, Error::Io("stop".into()));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn malformed_stream_surfaces_chunk_error() {
        let path = temp_csv("ragged.csv", "a,b\n1,2\n3\n4,5\n");
        let opts = IngestOptions { chunk_bytes: 4, workers: 2, ..IngestOptions::default() };
        let err = fold_csv(&path, &opts, |_| Ok(())).unwrap_err();
        assert!(matches!(err, Error::Malformed { line: 3, .. }), "got {err:?}");
        assert_eq!(read_overview(&path, &opts).unwrap_err(), err);
        std::fs::remove_file(&path).ok();
    }
}
