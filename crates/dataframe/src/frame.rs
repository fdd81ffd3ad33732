//! The [`DataFrame`]: an ordered collection of equal-length named columns.
//!
//! Columns are held behind `Arc`, so cloning a frame, selecting columns, or
//! building the per-partition views used by `eda-taskgraph` is O(#columns),
//! never O(#rows).

use std::sync::Arc;

use crate::bitmap::{Bitmap, Selection};
use crate::column::Column;
use crate::dtype::DataType;
use crate::error::{Error, Result};
use crate::heap::HeapSize;
use crate::value::Value;

/// An immutable, named, columnar table.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct DataFrame {
    names: Vec<String>,
    columns: Vec<Arc<Column>>,
    nrows: usize,
}

impl DataFrame {
    /// Build a frame from `(name, column)` pairs.
    ///
    /// All columns must share one length and names must be unique.
    pub fn new(pairs: Vec<(String, Column)>) -> Result<Self> {
        let mut names = Vec::with_capacity(pairs.len());
        let mut columns = Vec::with_capacity(pairs.len());
        let mut nrows = None;
        for (name, col) in pairs {
            if names.contains(&name) {
                return Err(Error::DuplicateColumn(name));
            }
            match nrows {
                None => nrows = Some(col.len()),
                Some(expected) if col.len() != expected => {
                    return Err(Error::LengthMismatch {
                        column: name,
                        got: col.len(),
                        expected,
                    });
                }
                _ => {}
            }
            names.push(name);
            columns.push(Arc::new(col));
        }
        Ok(DataFrame { names, columns, nrows: nrows.unwrap_or(0) })
    }

    /// Build from pre-shared columns (used by partitioning code).
    pub fn from_arcs(names: Vec<String>, columns: Vec<Arc<Column>>) -> Result<Self> {
        let mut pairs_len = None;
        for (name, col) in names.iter().zip(&columns) {
            match pairs_len {
                None => pairs_len = Some(col.len()),
                Some(expected) if col.len() != expected => {
                    return Err(Error::LengthMismatch {
                        column: name.clone(),
                        got: col.len(),
                        expected,
                    });
                }
                _ => {}
            }
        }
        Ok(DataFrame { names, columns, nrows: pairs_len.unwrap_or(0) })
    }

    /// An empty frame with zero rows and zero columns.
    pub fn empty() -> Self {
        DataFrame::default()
    }

    // ---- shape ------------------------------------------------------------

    /// Number of rows.
    pub fn nrows(&self) -> usize {
        self.nrows
    }

    /// Number of columns.
    pub fn ncols(&self) -> usize {
        self.columns.len()
    }

    /// Column names in frame order.
    pub fn names(&self) -> &[String] {
        &self.names
    }

    /// `(name, dtype)` pairs in frame order.
    pub fn schema(&self) -> Vec<(&str, DataType)> {
        self.names
            .iter()
            .zip(&self.columns)
            .map(|(n, c)| (n.as_str(), c.dtype()))
            .collect()
    }

    /// O(columns) identity fingerprint of the whole frame: column names
    /// folded with each column's [`Column::fingerprint`]. Two frames built
    /// over the same buffers (clones, full-window views) fingerprint
    /// identically; replacing or copy-on-write-detaching any column
    /// ([`Column::make_unique`]) changes it. This is what keys the
    /// cross-call result cache.
    pub fn fingerprint(&self) -> u64 {
        let mut h = crate::fingerprint::Fnv::new();
        h.write_u64(self.nrows as u64);
        h.write_u64(self.columns.len() as u64);
        for (name, col) in self.names.iter().zip(&self.columns) {
            h.write_u64(name.len() as u64);
            h.write(name.as_bytes());
            col.fingerprint_into(&mut h, false);
        }
        h.finish()
    }

    /// O(rows) content fingerprint: column names plus every value and the
    /// full validity of each column, ignoring buffer identity. Two
    /// logically equal frames fingerprint identically even when built in
    /// different processes — this is what the `.edaf` on-disk format
    /// stores in its footer so a converted file can be matched back to
    /// the frame it came from.
    pub fn content_fingerprint(&self) -> u64 {
        let mut h = crate::fingerprint::Fnv::new();
        h.write_u64(self.nrows as u64);
        h.write_u64(self.columns.len() as u64);
        for (name, col) in self.names.iter().zip(&self.columns) {
            h.write_u64(name.len() as u64);
            h.write(name.as_bytes());
            col.fingerprint_into(&mut h, true);
        }
        h.finish()
    }

    /// Copy-on-write detach of one column: re-packs its window into fresh
    /// uniquely owned buffers (see [`Column::make_unique`]), which changes
    /// the frame's [`DataFrame::fingerprint`]. The step before mutating a
    /// column that may share buffers with other frames or cached results.
    pub fn make_unique(&mut self, name: &str) -> Result<()> {
        let i = self.index_of(name)?;
        let col = Arc::make_mut(&mut self.columns[i]);
        col.make_unique();
        Ok(())
    }

    // ---- access -----------------------------------------------------------

    /// Borrow a column by name.
    pub fn column(&self, name: &str) -> Result<&Column> {
        self.index_of(name).and_then(|i| self.column_at(i))
    }

    /// Borrow a column by position.
    pub fn column_at(&self, i: usize) -> Result<&Column> {
        self.columns
            .get(i)
            .map(|c| c.as_ref())
            .ok_or(Error::IndexOutOfBounds { index: i, len: self.columns.len() })
    }

    /// Position of a named column.
    pub fn index_of(&self, name: &str) -> Result<usize> {
        self.names
            .iter()
            .position(|n| n == name)
            .ok_or_else(|| Error::ColumnNotFound(name.to_string()))
    }

    /// One cell, dynamically typed.
    pub fn get(&self, row: usize, column: &str) -> Result<Value> {
        self.column(column)?.get(row)
    }

    /// Iterate `(name, column)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &Column)> {
        self.names
            .iter()
            .map(String::as_str)
            .zip(self.columns.iter().map(|c| c.as_ref()))
    }

    // ---- transformations ----------------------------------------------------

    /// A frame with only the named columns, in the given order. O(#columns).
    pub fn select(&self, names: &[&str]) -> Result<DataFrame> {
        let mut out_names = Vec::with_capacity(names.len());
        let mut out_cols = Vec::with_capacity(names.len());
        for &name in names {
            let i = self.index_of(name)?;
            out_names.push(self.names[i].clone());
            out_cols.push(Arc::clone(&self.columns[i]));
        }
        DataFrame::from_arcs(out_names, out_cols)
    }

    /// A frame with `column` appended (or replaced when the name exists).
    pub fn with_column(&self, name: &str, column: Column) -> Result<DataFrame> {
        if self.ncols() > 0 && column.len() != self.nrows {
            return Err(Error::LengthMismatch {
                column: name.to_string(),
                got: column.len(),
                expected: self.nrows,
            });
        }
        let mut names = self.names.clone();
        let mut columns = self.columns.clone();
        match self.index_of(name) {
            Ok(i) => columns[i] = Arc::new(column),
            Err(_) => {
                names.push(name.to_string());
                columns.push(Arc::new(column));
            }
        }
        let nrows = columns.first().map_or(0, |c| c.len());
        Ok(DataFrame { names, columns, nrows })
    }

    /// Keep only the rows where `mask` is set. Copies the surviving rows.
    pub fn filter(&self, mask: &Bitmap) -> Result<DataFrame> {
        if mask.len() != self.nrows {
            return Err(Error::LengthMismatch {
                column: "<mask>".into(),
                got: mask.len(),
                expected: self.nrows,
            });
        }
        let columns: Result<Vec<Arc<Column>>> = self
            .columns
            .iter()
            .map(|c| c.filter(mask).map(Arc::new))
            .collect();
        DataFrame::from_arcs(self.names.clone(), columns?)
    }

    /// The first `n` rows (fewer when the frame is shorter).
    pub fn head(&self, n: usize) -> DataFrame {
        let n = n.min(self.nrows);
        self.slice(0, n)
    }

    /// Zero-copy view of rows `[start, start + len)`: O(#columns) pointer
    /// bumps — every column window shares its value and validity buffers
    /// with `self`, so partitioning a frame never duplicates the dataset.
    pub fn slice(&self, start: usize, len: usize) -> DataFrame {
        assert!(start + len <= self.nrows, "slice out of bounds");
        let columns = self
            .columns
            .iter()
            .map(|c| Arc::new(c.slice(start, len)))
            .collect();
        DataFrame { names: self.names.clone(), columns, nrows: len }
    }

    /// Every `k`-th row (deterministic systematic sample), starting at
    /// row 0. `k = 1` returns a clone.
    pub fn stride(&self, k: usize) -> DataFrame {
        let k = k.max(1);
        if k == 1 {
            return self.clone();
        }
        let mask: Bitmap = (0..self.nrows).map(|i| i % k == 0).collect();
        self.filter(&mask).expect("mask length matches")
    }

    /// Total nulls across every column.
    pub fn total_null_count(&self) -> usize {
        self.columns.iter().map(|c| c.null_count()).sum()
    }

    /// Approximate in-memory size in bytes (used for overview stats).
    pub fn memory_size(&self) -> usize {
        self.columns
            .iter()
            .map(|c| match c.as_ref() {
                Column::Float64(_) => 8 * c.len(),
                Column::Int64(_) => 8 * c.len(),
                Column::Bool(_) => c.len(),
                // What the values would take as one `String` each: the
                // figure the overview has always printed, now read off
                // a per-entry table.
                Column::Str(_) => str_value_bytes(c),
            })
            .sum()
    }
}

/// `len + 24` (a `String`'s header) summed over the non-null rows of a
/// string column.
fn str_value_bytes(c: &Column) -> usize {
    let Some((_, dict)) = c.str_codes() else { return 0 };
    let sizes: Vec<usize> = dict.iter().map(|entry| entry.len() + 24).collect();
    let mut total = 0;
    // `c` is a string column, so the visit cannot fail.
    let _ = c.for_each_code_in(Selection::All, |code| total += sizes.get(code as usize).copied().unwrap_or(0));
    total
}

impl HeapSize for DataFrame {
    fn heap_bytes(&self) -> usize {
        self.names.heap_bytes() + self.columns.heap_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> DataFrame {
        DataFrame::new(vec![
            ("a".into(), Column::from_i64(vec![1, 2, 3, 4])),
            (
                "b".into(),
                Column::from_opt_f64(vec![Some(1.5), None, Some(3.5), None]),
            ),
            ("c".into(), Column::from_strs(&["w", "x", "y", "z"])),
        ])
        .unwrap()
    }

    #[test]
    fn shape_and_schema() {
        let df = sample();
        assert_eq!(df.nrows(), 4);
        assert_eq!(df.ncols(), 3);
        assert_eq!(
            df.schema(),
            vec![
                ("a", DataType::Int64),
                ("b", DataType::Float64),
                ("c", DataType::Str)
            ]
        );
    }

    #[test]
    fn duplicate_names_rejected() {
        let r = DataFrame::new(vec![
            ("a".into(), Column::from_i64(vec![1])),
            ("a".into(), Column::from_i64(vec![2])),
        ]);
        assert!(matches!(r, Err(Error::DuplicateColumn(_))));
    }

    #[test]
    fn length_mismatch_rejected() {
        let r = DataFrame::new(vec![
            ("a".into(), Column::from_i64(vec![1, 2])),
            ("b".into(), Column::from_i64(vec![1])),
        ]);
        assert!(matches!(r, Err(Error::LengthMismatch { .. })));
    }

    #[test]
    fn column_access() {
        let df = sample();
        assert_eq!(df.column("a").unwrap().len(), 4);
        assert!(df.column("nope").is_err());
        assert_eq!(df.get(2, "c").unwrap(), Value::Str("y".into()));
        assert_eq!(df.get(1, "b").unwrap(), Value::Null);
        assert!(df.column("b").is_ok());
        assert!(df.column("B").is_err());
    }

    #[test]
    fn select_reorders_and_shares() {
        let df = sample();
        let s = df.select(&["c", "a"]).unwrap();
        assert_eq!(s.names(), &["c".to_string(), "a".to_string()]);
        assert_eq!(s.nrows(), 4);
        // Shared storage: same Arc pointer.
        assert!(std::ptr::eq(df.column("a").unwrap(), s.column("a").unwrap()));
    }

    #[test]
    fn with_column_appends_and_replaces() {
        let df = sample();
        let added = df
            .with_column("d", Column::from_bool(vec![true, false, true, false]))
            .unwrap();
        assert_eq!(added.ncols(), 4);
        let replaced = added
            .with_column("a", Column::from_f64(vec![0.0; 4]))
            .unwrap();
        assert_eq!(replaced.column("a").unwrap().dtype(), DataType::Float64);
        assert!(df
            .with_column("e", Column::from_i64(vec![1]))
            .is_err());
    }

    #[test]
    fn filter_rows() {
        let df = sample();
        let mask = Bitmap::from_iter([true, false, true, false]);
        let f = df.filter(&mask).unwrap();
        assert_eq!(f.nrows(), 2);
        assert_eq!(f.get(1, "a").unwrap(), Value::Int(3));
    }

    #[test]
    fn head_and_slice() {
        let df = sample();
        assert_eq!(df.head(2).nrows(), 2);
        assert_eq!(df.head(100).nrows(), 4);
        let s = df.slice(1, 2);
        assert_eq!(s.get(0, "a").unwrap(), Value::Int(2));
    }

    #[test]
    fn slice_shares_buffers_slice_copy_does_not() {
        let df = sample();
        let view = df.slice(1, 3);
        for name in ["a", "b", "c"] {
            let src = df.column(name).unwrap();
            let copy = src.slice_copy(1, 3);
            assert!(view.column(name).unwrap().shares_buffer(src), "{name} view shares");
            assert!(!copy.shares_buffer(src), "{name} copy owns");
            assert_eq!(view.column(name).unwrap(), &copy);
        }
    }

    #[test]
    fn partition_covers_all_rows() {
        // Contiguous slice windows (the partitions the task graph cuts)
        // cover every row once, in order: rejoined column by column they
        // give back the frame.
        let df = sample();
        let parts = [df.slice(0, 2), df.slice(2, 1), df.slice(3, 1)];
        assert_eq!(parts.iter().map(DataFrame::nrows).sum::<usize>(), 4);
        let columns = df
            .names()
            .iter()
            .map(|name| {
                let windows = parts.iter().map(|p| p.column(name).unwrap().clone()).collect();
                (name.clone(), Column::concat_owned(windows).unwrap())
            })
            .collect();
        assert_eq!(DataFrame::new(columns).unwrap(), df);
    }

    #[test]
    fn partition_of_empty_frame() {
        // A 0-row frame's one partition is an empty window that keeps
        // the schema.
        let df = DataFrame::new(vec![("a".into(), Column::from_i64(vec![]))]).unwrap();
        let part = df.slice(0, 0);
        assert_eq!(part.nrows(), 0);
        assert_eq!(part.schema(), df.schema());
        assert_eq!(part, df);
    }

    #[test]
    fn stride_sampling() {
        let df = sample();
        let s = df.stride(2);
        assert_eq!(s.nrows(), 2);
        assert_eq!(s.get(0, "a").unwrap(), Value::Int(1));
        assert_eq!(s.get(1, "a").unwrap(), Value::Int(3));
        assert_eq!(df.stride(1), df);
        assert_eq!(df.stride(100).nrows(), 1);
    }

    #[test]
    fn total_null_count_sums() {
        assert_eq!(sample().total_null_count(), 2);
    }

    #[test]
    fn memory_size_counts_fixed_widths_and_string_bytes() {
        // 4 × i64 + 4 × f64 + 4 × (1 byte + 24 header).
        assert_eq!(sample().memory_size(), 32 + 32 + 100);
        // Null string cells hold nothing; sliced windows count their rows only.
        let s = Column::from_opt_string(vec![Some("abc".into()), None, Some("de".into())]);
        let df = DataFrame::new(vec![("s".into(), s)]).unwrap();
        assert_eq!(df.memory_size(), 27 + 26);
        assert_eq!(df.slice(1, 2).memory_size(), 26);
    }

    #[test]
    fn frame_fingerprint_tracks_identity() {
        let df = sample();
        assert_eq!(df.fingerprint(), df.fingerprint());
        // Clones share every buffer → same identity.
        assert_eq!(df.clone().fingerprint(), df.fingerprint());
        // A separately built equal frame lives in fresh buffers.
        assert_ne!(sample().fingerprint(), df.fingerprint());
        // Slices are different windows.
        assert_ne!(df.slice(0, 2).fingerprint(), df.fingerprint());
    }

    #[test]
    fn make_unique_changes_frame_fingerprint() {
        let df = sample();
        let mut detached = df.clone();
        let before = detached.fingerprint();
        detached.make_unique("a").unwrap();
        assert_ne!(detached.fingerprint(), before);
        assert_eq!(detached, df, "detaching preserves the logical value");
        assert!(detached.make_unique("nope").is_err());
    }
}
