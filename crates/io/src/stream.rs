//! Out-of-core folds: statistics over CSVs that never fit in memory.
//!
//! [`fold_csv`] runs the reader's boundary scan and its one chunk driver
//! (`chunked::for_each_chunk`: parallel parse in bounded waves), but
//! instead of writing chunk columns into one frame it hands each
//! parsed chunk to a fold callback and *drops it*, so peak memory is
//! O(chunk × workers × wave factor) no matter how long the stream is.
//!
//! [`read_overview`] is the canonical fold: it merges every chunk into
//! an [`eda_stats::FrameSketch`] (mergeable moments + frequency
//! tables), yielding dataset-overview statistics — the paper's
//! `plot(df)` entry point — at bounded memory.

use std::path::Path;
use std::sync::Arc;

use eda_dataframe::csv::chunk::ParsedChunk;
use eda_dataframe::{Column, DataFrame, Result, Selection};
use eda_stats::freq::CodeCounts;
use eda_stats::{ColumnSketch, FrameSketch};

use crate::chunked::{for_each_chunk, scan, IngestOptions, STREAMING_WAVE_FACTOR};
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
/// schema — a column may be `Int64` in one chunk and `Float64` in a
/// later one; folds that care must widen as they merge (the
/// [`FrameSketch`] fold does).
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

/// Fold an entire CSV into a [`FrameSketch`] at bounded memory.
pub fn read_overview<P: AsRef<Path>>(path: P, opts: &IngestOptions) -> Result<FrameSketch> {
    let mut sketch = FrameSketch::new();
    fold_csv(path, opts, |chunk| {
        sketch.merge(&sketch_frame(&chunk));
        Ok(())
    })?;
    Ok(sketch)
}

/// Sketch one column (null-aware; ints and floats go numeric, strings
/// and bools categorical).
pub fn sketch_column(col: &Column) -> ColumnSketch {
    let valid = |i: usize| col.is_valid(i);
    if let Some(values) = col.f64_values() {
        ColumnSketch::from_numeric(
            values.iter().enumerate().map(|(i, &v)| valid(i).then_some(v)),
        )
    } else if let Some(values) = col.i64_values() {
        ColumnSketch::from_numeric(
            values.iter().enumerate().map(|(i, &v)| valid(i).then_some(v as f64)),
        )
    } else if let Some((_, dict)) = col.str_codes() {
        // Counted by code; a string is looked up once per category.
        let mut counts = CodeCounts::new(dict.len());
        // `col` is a string column, so the visit cannot fail.
        let _ = col.for_each_code_in(Selection::All, |code| counts.push(code));
        counts.nulls = col.null_count() as u64;
        ColumnSketch::Categorical { freq: counts.to_table(|code| dict.get(code).unwrap_or_default()) }
    } else if let Some(values) = col.bool_values() {
        ColumnSketch::from_categorical(
            values
                .iter()
                .enumerate()
                .map(|(i, &v)| valid(i).then_some(if v { "true" } else { "false" })),
        )
    } else {
        ColumnSketch::from_categorical(std::iter::empty())
    }
}

/// Sketch every column of a frame.
pub fn sketch_frame(frame: &DataFrame) -> FrameSketch {
    let mut sketch = FrameSketch::new();
    sketch.nrows = frame.nrows() as u64;
    for name in frame.names() {
        if let Ok(col) = frame.column(name) {
            sketch.columns.insert(name.clone(), sketch_column(col));
        }
    }
    sketch
}

#[cfg(test)]
mod tests {
    use super::*;
    use eda_dataframe::csv::read_csv_str;
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
        let body = csv_body(300);
        let path = temp_csv("overview.csv", &body);
        let opts = IngestOptions { chunk_bytes: 128, workers: 2, ..IngestOptions::default() };
        let streamed = read_overview(&path, &opts).unwrap();
        let whole = sketch_frame(&read_csv_str(&body, &opts.csv).unwrap());
        assert_eq!(streamed.nrows, whole.nrows);
        let (ColumnSketch::Numeric { moments: a, .. }, ColumnSketch::Numeric { moments: b, .. }) =
            (&streamed.columns["x"], &whole.columns["x"])
        else {
            panic!("x must sketch numeric");
        };
        assert_eq!(a.count, b.count);
        assert!((a.mean - b.mean).abs() < 1e-9);
        assert_eq!(streamed.columns["cat"], whole.columns["cat"]);
        std::fs::remove_file(&path).ok();
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
        std::fs::remove_file(&path).ok();
    }
}
