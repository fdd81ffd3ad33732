//! Typed columnar storage.
//!
//! A [`Column`] is a contiguous vector of one physical type plus an optional
//! validity [`Bitmap`]. Columns are immutable once built; the value buffer
//! lives behind an `Arc` and each column is an `(offset, len)` window over
//! it, so [`Column::slice`] — and therefore dataframe slicing and the whole
//! partitioning stage — is an O(1) pointer bump that never copies rows.
//! Only operations that genuinely rearrange rows (filter/gather/concat)
//! allocate.
//!
//! A string column is the same window over `u32` *codes*, plus the
//! [`StrDict`] the codes index ([`StrData`]): the distinct strings, once,
//! in one arena shared by every window of the column.

use std::collections::HashMap;
use std::hash::Hasher;
use std::sync::Arc;

use crate::bitmap::{Bitmap, Selection};
use crate::dict::{DictBuilder, StrDict};
use crate::dtype::DataType;
use crate::error::{Error, Result};
use crate::fingerprint::Fnv;
use crate::heap::HeapSize;
use crate::value::Value;

/// Values plus optional validity for one physical type: a window over a
/// shared buffer.
#[derive(Debug, Clone)]
pub struct TypedData<T> {
    pub(crate) values: Arc<Vec<T>>,
    pub(crate) offset: usize,
    pub(crate) len: usize,
    /// Validity window aligned with `[offset, offset + len)`; its own
    /// offset bookkeeping lives inside the bitmap.
    pub(crate) validity: Option<Bitmap>,
}

impl<T> TypedData<T> {
    fn new(values: Vec<T>, validity: Option<Bitmap>) -> Self {
        if let Some(v) = &validity {
            assert_eq!(v.len(), values.len(), "validity length must match values");
        }
        let len = values.len();
        TypedData { values: Arc::new(values), offset: 0, len, validity }
    }

    fn len(&self) -> usize {
        self.len
    }

    /// The windowed values as a plain slice.
    #[inline]
    pub(crate) fn as_slice(&self) -> &[T] {
        // The window is inside the buffer by construction.
        self.values.get(self.offset..self.offset + self.len).unwrap_or_default()
    }

    #[inline]
    fn is_valid(&self, i: usize) -> bool {
        self.validity.as_ref().is_none_or(|v| v.get(i))
    }

    fn null_count(&self) -> usize {
        self.validity.as_ref().map_or(0, |v| v.count_unset())
    }

    /// Zero-copy window: shares the value buffer (and validity buffer)
    /// with `self`.
    fn slice(&self, start: usize, len: usize) -> Self {
        assert!(start + len <= self.len, "slice out of bounds");
        TypedData {
            values: Arc::clone(&self.values),
            offset: self.offset + start,
            len,
            validity: self.validity.as_ref().map(|v| v.slice(start, len)),
        }
    }

    /// Iterate the window as `Option<&T>` without per-element bounds or
    /// validity asserts: the no-null path is a plain slice walk.
    pub(crate) fn opt_iter(&self) -> Box<dyn Iterator<Item = Option<&T>> + '_> {
        let vals = self.as_slice();
        match &self.validity {
            None => Box::new(vals.iter().map(Some)),
            Some(bm) => Box::new(vals.iter().zip(bm.iter()).map(|(v, ok)| ok.then_some(v))),
        }
    }

    /// Call `f` with every valid value whose row is in `rows`, in row
    /// order. Whole-window reads without nulls are a tight slice loop;
    /// everything else walks the selection and validity words together.
    fn for_each_in(&self, rows: Selection<'_>, mut f: impl FnMut(&T)) {
        let vals = self.as_slice();
        match (rows, &self.validity) {
            (Selection::All, None) => vals.iter().for_each(f),
            // Sliced windows keep their bitmap even when every surviving
            // row is valid; one popcount pass beats a per-row bit walk on
            // every kernel call.
            (Selection::All, Some(bm)) if bm.all_set() => vals.iter().for_each(f),
            (rows, validity) => rows.for_each(vals.len(), validity.as_ref(), |i| {
                // `for_each` only yields rows of the window.
                if let Some(v) = vals.get(i) {
                    f(v);
                }
            }),
        }
    }
}

/// Equality is logical: two columns are equal when their windows hold the
/// same values and nullity, regardless of buffer sharing or offsets.
impl<T: PartialEq> PartialEq for TypedData<T> {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice() && self.validity == other.validity
    }
}

/// A string column: one code per row into a shared dictionary.
///
/// The code of a valid row is always an entry of `dict`; the code under a
/// null slot means nothing and is never looked up. Slicing, filtering and
/// concatenating windows of one column copy at most codes and keep the
/// `Arc`, so a dictionary may hold entries no row of the window uses.
#[derive(Debug, Clone)]
pub struct StrData {
    pub(crate) codes: TypedData<u32>,
    pub(crate) dict: Arc<StrDict>,
}

impl StrData {
    /// Intern `values` (null slots take code 0 and no entry).
    fn from_values<'a>(values: impl Iterator<Item = Option<&'a str>>, validity: Option<Bitmap>) -> Self {
        let mut dict = DictBuilder::new();
        let codes = values.map(|v| v.map_or(0, |v| dict.intern(v))).collect();
        StrData { codes: TypedData::new(codes, validity), dict: Arc::new(dict.finish()) }
    }

    /// The string of `code`; `""` for the meaningless code of a null slot
    /// that happens to be out of range.
    #[inline]
    fn text(&self, code: u32) -> &str {
        self.dict.get(code).unwrap_or_default()
    }

    /// Every row as `Option<&str>`.
    fn iter(&self) -> impl Iterator<Item = Option<&str>> + '_ {
        self.codes.opt_iter().map(|c| c.map(|&c| self.text(c)))
    }

    /// The same rows over a different window of codes.
    fn with_codes(&self, codes: TypedData<u32>) -> Self {
        StrData { codes, dict: Arc::clone(&self.dict) }
    }
}

/// Logical, like every column's equality: the same strings and nulls row
/// by row. Windows of one dictionary compare codes; foreign dictionaries
/// (another entry order, unused entries) compare strings.
impl PartialEq for StrData {
    fn eq(&self, other: &Self) -> bool {
        self.codes.len() == other.codes.len()
            && if Arc::ptr_eq(&self.dict, &other.dict) {
                self.codes.opt_iter().eq(other.codes.opt_iter())
            } else {
                self.iter().eq(other.iter())
            }
    }
}

/// A single immutable column of data.
#[derive(Debug, Clone, PartialEq)]
pub enum Column {
    /// 64-bit floats.
    Float64(TypedData<f64>),
    /// 64-bit signed integers.
    Int64(TypedData<i64>),
    /// UTF-8 strings, dictionary-encoded.
    Str(StrData),
    /// Booleans.
    Bool(TypedData<bool>),
}

impl Column {
    // ---- constructors -----------------------------------------------------

    /// A non-null float column.
    pub fn from_f64(values: Vec<f64>) -> Self {
        Column::Float64(TypedData::new(values, None))
    }

    /// A float column where `None` marks nulls.
    pub fn from_opt_f64(values: Vec<Option<f64>>) -> Self {
        let validity: Bitmap = values.iter().map(Option::is_some).collect();
        let data = values.into_iter().map(|v| v.unwrap_or(0.0)).collect();
        Column::Float64(TypedData::new(data, some_if_nulls(validity)))
    }

    /// A float column from raw parts: packed values plus an optional
    /// validity bitmap (dropped when it has no nulls). Lets builders
    /// freeze without re-staging values through `Vec<Option<_>>`.
    pub fn from_f64_validity(values: Vec<f64>, validity: Option<Bitmap>) -> Self {
        Column::Float64(TypedData::new(values, validity.and_then(some_if_nulls_opt)))
    }

    /// A non-null integer column.
    pub fn from_i64(values: Vec<i64>) -> Self {
        Column::Int64(TypedData::new(values, None))
    }

    /// An integer column where `None` marks nulls.
    pub fn from_opt_i64(values: Vec<Option<i64>>) -> Self {
        let validity: Bitmap = values.iter().map(Option::is_some).collect();
        let data = values.into_iter().map(|v| v.unwrap_or(0)).collect();
        Column::Int64(TypedData::new(data, some_if_nulls(validity)))
    }

    /// An integer column from raw parts (see [`Column::from_f64_validity`]).
    pub fn from_i64_validity(values: Vec<i64>, validity: Option<Bitmap>) -> Self {
        Column::Int64(TypedData::new(values, validity.and_then(some_if_nulls_opt)))
    }

    /// A non-null string column from owned strings.
    pub fn from_string(values: Vec<String>) -> Self {
        Column::Str(StrData::from_values(values.iter().map(|v| Some(v.as_str())), None))
    }

    /// A non-null string column from string slices.
    pub fn from_strs(values: &[&str]) -> Self {
        Column::Str(StrData::from_values(values.iter().map(|&v| Some(v)), None))
    }

    /// A string column where `None` marks nulls.
    pub fn from_opt_string(values: Vec<Option<String>>) -> Self {
        let validity: Bitmap = values.iter().map(Option::is_some).collect();
        Column::Str(StrData::from_values(values.iter().map(Option::as_deref), some_if_nulls(validity)))
    }

    /// A string column from raw parts: one code per row into `dict`, plus
    /// an optional validity bitmap (dropped when it has no nulls). Errors
    /// when a valid row's code is not an entry of `dict`.
    pub fn from_codes(dict: Arc<StrDict>, codes: Vec<u32>, validity: Option<Bitmap>) -> Result<Self> {
        let data = StrData { codes: TypedData::new(codes, validity.and_then(some_if_nulls_opt)), dict };
        let mut largest = None;
        data.codes.for_each_in(Selection::All, |&c| largest = largest.max(Some(c as usize)));
        if let Some(index) = largest.filter(|&c| c >= data.dict.len()) {
            return Err(Error::IndexOutOfBounds { index, len: data.dict.len() });
        }
        Ok(Column::Str(data))
    }

    /// A non-null boolean column.
    pub fn from_bool(values: Vec<bool>) -> Self {
        Column::Bool(TypedData::new(values, None))
    }

    /// A boolean column where `None` marks nulls.
    pub fn from_opt_bool(values: Vec<Option<bool>>) -> Self {
        let validity: Bitmap = values.iter().map(Option::is_some).collect();
        let data = values.into_iter().map(|v| v.unwrap_or(false)).collect();
        Column::Bool(TypedData::new(data, some_if_nulls(validity)))
    }

    /// A boolean column from raw parts (see [`Column::from_f64_validity`]).
    pub fn from_bool_validity(values: Vec<bool>, validity: Option<Bitmap>) -> Self {
        Column::Bool(TypedData::new(values, validity.and_then(some_if_nulls_opt)))
    }

    // ---- metadata ---------------------------------------------------------

    /// Number of rows, including nulls.
    pub fn len(&self) -> usize {
        match self {
            Column::Float64(d) => d.len(),
            Column::Int64(d) => d.len(),
            Column::Str(d) => d.codes.len(),
            Column::Bool(d) => d.len(),
        }
    }

    /// Whether the column holds zero rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Physical type of the column.
    pub fn dtype(&self) -> DataType {
        match self {
            Column::Float64(_) => DataType::Float64,
            Column::Int64(_) => DataType::Int64,
            Column::Str(_) => DataType::Str,
            Column::Bool(_) => DataType::Bool,
        }
    }

    /// Number of null entries.
    pub fn null_count(&self) -> usize {
        match self {
            Column::Float64(d) => d.null_count(),
            Column::Int64(d) => d.null_count(),
            Column::Str(d) => d.codes.null_count(),
            Column::Bool(d) => d.null_count(),
        }
    }

    /// Whether row `i` is non-null.
    #[inline]
    pub fn is_valid(&self, i: usize) -> bool {
        match self {
            Column::Float64(d) => d.is_valid(i),
            Column::Int64(d) => d.is_valid(i),
            Column::Str(d) => d.codes.is_valid(i),
            Column::Bool(d) => d.is_valid(i),
        }
    }

    /// The validity window, when the column tracks nulls.
    pub fn validity(&self) -> Option<&Bitmap> {
        match self {
            Column::Float64(d) => d.validity.as_ref(),
            Column::Int64(d) => d.validity.as_ref(),
            Column::Str(d) => d.codes.validity.as_ref(),
            Column::Bool(d) => d.validity.as_ref(),
        }
    }

    /// The rows where this column is non-null — the rows
    /// `df.filter(&column.validity_mask())` keeps.
    pub fn valid_rows(&self) -> Selection<'_> {
        self.validity().map_or(Selection::All, Selection::Set)
    }

    /// The rows where this column is null — the rows that same filter
    /// drops.
    pub fn null_rows(&self) -> Selection<'_> {
        self.validity().map_or(Selection::Empty, Selection::Unset)
    }

    /// The validity bitmap as a materialized mask (all-true when absent).
    pub fn validity_mask(&self) -> Bitmap {
        match self.validity() {
            Some(v) => v.clone(),
            None => Bitmap::filled(self.len(), true),
        }
    }

    /// Whether two columns are zero-copy windows over one shared value
    /// buffer (`Arc` pointer identity, not value equality).
    pub fn shares_buffer(&self, other: &Column) -> bool {
        match (self, other) {
            (Column::Float64(a), Column::Float64(b)) => Arc::ptr_eq(&a.values, &b.values),
            (Column::Int64(a), Column::Int64(b)) => Arc::ptr_eq(&a.values, &b.values),
            (Column::Str(a), Column::Str(b)) => Arc::ptr_eq(&a.codes.values, &b.codes.values),
            (Column::Bool(a), Column::Bool(b)) => Arc::ptr_eq(&a.values, &b.values),
            _ => false,
        }
    }

    // ---- fingerprints ------------------------------------------------------

    /// O(1) identity fingerprint: buffer pointer + window + dtype +
    /// validity identity + a small head/tail content sample. Two columns
    /// sharing one buffer window fingerprint identically; any copy-on-write
    /// re-pack ([`Column::make_unique`]) lands in a fresh allocation and so
    /// necessarily changes the fingerprint. The content sample guards
    /// against allocator address reuse. See `crate::fingerprint` for the
    /// scheme's rationale.
    pub fn fingerprint(&self) -> u64 {
        let mut h = Fnv::new();
        self.fingerprint_into(&mut h, false);
        h.finish()
    }

    /// O(rows) content fingerprint: hashes every value and the full
    /// validity window, ignoring buffer identity. Two logically equal
    /// columns fingerprint identically even when their buffers are foreign
    /// to each other (e.g. the same CSV read twice into fresh allocations).
    pub fn content_fingerprint(&self) -> u64 {
        let mut h = Fnv::new();
        self.fingerprint_into(&mut h, true);
        h.finish()
    }

    /// Shared fingerprint walk. `full` selects the content hash; otherwise
    /// identity + sample.
    pub(crate) fn fingerprint_into(&self, h: &mut Fnv, full: bool) {
        fn ident<T>(h: &mut Fnv, d: &TypedData<T>) {
            h.write_u64(Arc::as_ptr(&d.values) as *const u8 as u64);
            h.write_u64(d.offset as u64);
            h.write_u64(d.len as u64);
        }
        /// Hash up to four values from each end of the window (`full`
        /// hashes all of them).
        fn sample<T>(h: &mut Fnv, d: &TypedData<T>, full: bool, mut write: impl FnMut(&mut Fnv, &T)) {
            let vals = d.as_slice();
            if full || vals.len() <= 8 {
                for v in vals {
                    write(h, v);
                }
            } else {
                for v in &vals[..4] {
                    write(h, v);
                }
                for v in &vals[vals.len() - 4..] {
                    write(h, v);
                }
            }
        }
        let tag = match self {
            Column::Float64(_) => 1u64,
            Column::Int64(_) => 2,
            Column::Str(_) => 3,
            Column::Bool(_) => 4,
        };
        h.write_u64(tag);
        match self {
            Column::Float64(d) => {
                if !full {
                    ident(h, d);
                }
                sample(h, d, full, |h, v| h.write_u64(v.to_bits()));
            }
            Column::Int64(d) => {
                if !full {
                    ident(h, d);
                }
                sample(h, d, full, |h, v| h.write_u64(*v as u64));
            }
            Column::Str(d) => {
                // Identity is the codes window and the dictionary they
                // index; content is each row's string (a null slot reads
                // as the empty string, whatever code sits under it), so
                // equal columns hash equally whatever their dictionaries'
                // order or unused entries.
                if !full {
                    ident(h, &d.codes);
                    h.write_u64(Arc::as_ptr(&d.dict) as *const u8 as u64);
                }
                let (codes, len) = (d.codes.as_slice(), d.codes.len());
                let (head, tail) = if full || len <= 8 { (0..len, 0..0) } else { (0..4, len - 4..len) };
                for i in head.chain(tail) {
                    let v = if d.codes.is_valid(i) { d.text(codes[i]) } else { "" };
                    h.write_u64(v.len() as u64);
                    h.write(v.as_bytes());
                }
            }
            Column::Bool(d) => {
                if !full {
                    ident(h, d);
                }
                sample(h, d, full, |h, v| h.write_u64(*v as u64));
            }
        }
        match self.validity() {
            None => h.write_u64(0),
            Some(v) if full => {
                h.write_u64(1);
                h.write_u64(v.len() as u64);
                for (i, bit) in v.iter().enumerate() {
                    if bit {
                        h.write_u64(i as u64);
                    }
                }
            }
            Some(v) => {
                let (ptr, offset, len) = v.identity_parts();
                h.write_u64(1);
                h.write_u64(ptr);
                h.write_u64(offset);
                h.write_u64(len);
            }
        }
    }

    /// Re-pack the window into freshly allocated, uniquely owned buffers
    /// (values and validity). This is the copy-on-write step before
    /// mutating shared data: the new buffers live at new addresses, so the
    /// column's [`Column::fingerprint`] changes and any cache entries
    /// computed from the old identity can no longer match.
    pub fn make_unique(&mut self) {
        *self = self.slice_copy(0, self.len());
    }

    // ---- typed window access ----------------------------------------------

    /// The windowed float values (nulls hold a placeholder; consult
    /// [`Column::validity`]). `None` for non-float columns.
    pub fn f64_values(&self) -> Option<&[f64]> {
        match self {
            Column::Float64(d) => Some(d.as_slice()),
            _ => None,
        }
    }

    /// The windowed float values when every windowed row is valid —
    /// either no bitmap at all, or a sliced window whose bitmap is all-set
    /// (slices keep their parent's bitmap, so [`Column::validity`] alone
    /// under-reports this case). `None` for a float column with a null in
    /// the window, and for non-float columns.
    pub fn dense_f64(&self) -> Option<&[f64]> {
        match self.validity() {
            Some(bm) if !bm.all_set() => None,
            _ => self.f64_values(),
        }
    }

    /// The windowed integer values. `None` for non-integer columns.
    pub fn i64_values(&self) -> Option<&[i64]> {
        match self {
            Column::Int64(d) => Some(d.as_slice()),
            _ => None,
        }
    }

    /// The windowed codes of a string column and the dictionary they
    /// index (the code under a null slot means nothing; consult
    /// [`Column::validity`]). `None` for non-string columns.
    pub fn str_codes(&self) -> Option<(&[u32], &Arc<StrDict>)> {
        match self {
            Column::Str(d) => Some((d.codes.as_slice(), &d.dict)),
            _ => None,
        }
    }

    /// The windowed boolean values. `None` for non-bool columns.
    pub fn bool_values(&self) -> Option<&[bool]> {
        match self {
            Column::Bool(d) => Some(d.as_slice()),
            _ => None,
        }
    }

    // ---- cell access ------------------------------------------------------

    /// Dynamically-typed view of row `i`.
    pub fn get(&self, i: usize) -> Result<Value> {
        if i >= self.len() {
            return Err(Error::IndexOutOfBounds { index: i, len: self.len() });
        }
        Ok(match self {
            Column::Float64(d) if d.is_valid(i) => Value::Float(d.as_slice()[i]),
            Column::Int64(d) if d.is_valid(i) => Value::Int(d.as_slice()[i]),
            Column::Str(d) if d.codes.is_valid(i) => Value::Str(d.text(d.codes.as_slice()[i]).to_string()),
            Column::Bool(d) if d.is_valid(i) => Value::Bool(d.as_slice()[i]),
            _ => Value::Null,
        })
    }

    // ---- typed iteration --------------------------------------------------

    /// Iterate all rows as `Option<f64>` (ints widened); non-numeric columns
    /// yield an error. Walks the windowed buffer directly — the no-null
    /// path is a plain slice iteration.
    pub fn numeric_iter(&self) -> Result<Box<dyn Iterator<Item = Option<f64>> + '_>> {
        match self {
            Column::Float64(d) => Ok(Box::new(d.opt_iter().map(|o| o.copied()))),
            Column::Int64(d) => Ok(Box::new(d.opt_iter().map(|o| o.map(|v| *v as f64)))),
            other => Err(Error::TypeMismatch {
                context: "numeric_iter".into(),
                expected: "numeric",
                got: other.dtype().name(),
            }),
        }
    }

    /// Call `f` with every valid numeric value (ints widened), in row
    /// order. The no-null case is a tight slice loop; with nulls, the
    /// validity bitmap is walked a word at a time (whole zero words are
    /// skipped). Errors on non-numeric columns.
    pub fn for_each_numeric(&self, f: impl FnMut(f64)) -> Result<()> {
        self.for_each_numeric_in(Selection::All, f)
    }

    /// [`Column::for_each_numeric`] restricted to the rows in `rows` —
    /// the values a filtered copy of the column would hold, read in
    /// place.
    pub fn for_each_numeric_in(&self, rows: Selection<'_>, mut f: impl FnMut(f64)) -> Result<()> {
        match self {
            Column::Float64(d) => d.for_each_in(rows, |&v| f(v)),
            Column::Int64(d) => d.for_each_in(rows, |&v| f(v as f64)),
            other => {
                return Err(Error::TypeMismatch {
                    context: "for_each_numeric".into(),
                    expected: "numeric",
                    got: other.dtype().name(),
                })
            }
        }
        Ok(())
    }

    /// Call `f` with the code of every non-null row of a string column in
    /// `rows`, in row order. Errors on non-string columns.
    pub fn for_each_code_in(&self, rows: Selection<'_>, mut f: impl FnMut(u32)) -> Result<()> {
        match self {
            Column::Str(d) => {
                d.codes.for_each_in(rows, |&c| f(c));
                Ok(())
            }
            other => Err(Error::TypeMismatch {
                context: "for_each_code_in".into(),
                expected: "str",
                got: other.dtype().name(),
            }),
        }
    }

    /// Collect valid numeric values (ints widened) into a vector,
    /// dropping nulls. Errors on non-numeric columns.
    pub fn numeric_nonnull(&self) -> Result<Vec<f64>> {
        let mut out = Vec::with_capacity(self.len() - self.null_count());
        self.for_each_numeric(|v| out.push(v))?;
        Ok(out)
    }

    /// Iterate all rows as `Option<&str>`; non-string columns yield an error.
    pub fn str_iter(&self) -> Result<Box<dyn Iterator<Item = Option<&str>> + '_>> {
        match self {
            Column::Str(d) => Ok(Box::new(d.iter())),
            other => Err(Error::TypeMismatch {
                context: "str_iter".into(),
                expected: "str",
                got: other.dtype().name(),
            }),
        }
    }

    /// Iterate all rows as `Option<bool>`; non-bool columns yield an error.
    pub fn bool_iter(&self) -> Result<Box<dyn Iterator<Item = Option<bool>> + '_>> {
        match self {
            Column::Bool(d) => Ok(Box::new(d.opt_iter().map(|o| o.copied()))),
            other => Err(Error::TypeMismatch {
                context: "bool_iter".into(),
                expected: "bool",
                got: other.dtype().name(),
            }),
        }
    }

    /// Every row rendered to its display string (`None` for nulls).
    /// Works for all column types; used by categorical kernels so that a
    /// numeric column explicitly treated as categorical still works.
    pub fn display_iter(&self) -> Box<dyn Iterator<Item = Option<String>> + '_> {
        match self {
            Column::Float64(d) => Box::new(d.opt_iter().map(|o| o.map(|v| format_float(*v)))),
            Column::Int64(d) => Box::new(d.opt_iter().map(|o| o.map(|v| v.to_string()))),
            Column::Str(d) => Box::new(d.iter().map(|o| o.map(str::to_string))),
            Column::Bool(d) => Box::new(d.opt_iter().map(|o| o.map(|v| v.to_string()))),
        }
    }

    /// The column as a string column of its display forms
    /// ([`Column::display_iter`]'s), nulls kept: what lets a categorical
    /// kernel count a bool or a low-cardinality integer column by code.
    /// Each *distinct* value is formatted once. A string column is
    /// returned as it is (sharing its buffers).
    pub fn display_encoded(&self) -> Column {
        /// Codes by first appearance of `key`; `show` formats a value the
        /// first time its key is seen.
        fn encode<T: Copy, K: std::hash::Hash + Eq>(
            d: &TypedData<T>,
            key: impl Fn(T) -> K,
            show: impl Fn(T) -> String,
        ) -> StrData {
            let mut dict = DictBuilder::new();
            let mut seen: HashMap<K, u32> = HashMap::new();
            let codes = d
                .opt_iter()
                .map(|v| v.map_or(0, |&v| *seen.entry(key(v)).or_insert_with(|| dict.intern(&show(v)))))
                .collect();
            StrData { codes: TypedData::new(codes, d.validity.clone()), dict: Arc::new(dict.finish()) }
        }
        Column::Str(match self {
            Column::Float64(d) => encode(d, f64::to_bits, format_float),
            Column::Int64(d) => encode(d, |v| v, |v| v.to_string()),
            Column::Bool(d) => encode(d, |v| v, |v| v.to_string()),
            Column::Str(d) => d.clone(),
        })
    }

    // ---- transformations --------------------------------------------------

    /// Zero-copy view of rows `[start, start + len)`: O(1), shares the
    /// value and validity buffers with `self`.
    pub fn slice(&self, start: usize, len: usize) -> Column {
        assert!(start + len <= self.len(), "slice out of bounds");
        match self {
            Column::Float64(d) => Column::Float64(d.slice(start, len)),
            Column::Int64(d) => Column::Int64(d.slice(start, len)),
            Column::Str(d) => Column::Str(d.with_codes(d.codes.slice(start, len))),
            Column::Bool(d) => Column::Bool(d.slice(start, len)),
        }
    }

    /// Deep-copy rows `[start, start + len)` into a freshly allocated
    /// column: how [`Column::make_unique`] detaches a shared window.
    pub fn slice_copy(&self, start: usize, len: usize) -> Column {
        assert!(start + len <= self.len(), "slice out of bounds");
        fn copy_data<T: Clone>(d: &TypedData<T>, start: usize, len: usize) -> TypedData<T> {
            TypedData::new(
                d.as_slice()[start..start + len].to_vec(),
                d.validity
                    .as_ref()
                    .map(|v| Bitmap::from_iter(v.slice(start, len).iter())),
            )
        }
        match self {
            Column::Float64(d) => Column::Float64(copy_data(d, start, len)),
            Column::Int64(d) => Column::Int64(copy_data(d, start, len)),
            Column::Str(d) => Column::Str(d.with_codes(copy_data(&d.codes, start, len))),
            Column::Bool(d) => Column::Bool(copy_data(d, start, len)),
        }
    }

    /// Keep only the rows where `mask` is set.
    pub fn filter(&self, mask: &Bitmap) -> Result<Column> {
        if mask.len() != self.len() {
            return Err(Error::LengthMismatch {
                column: "<mask>".into(),
                got: mask.len(),
                expected: self.len(),
            });
        }
        fn filter_data<T: Clone>(d: &TypedData<T>, mask: &Bitmap) -> TypedData<T> {
            let vals = d.as_slice();
            let mut values = Vec::with_capacity(mask.count_set());
            let mut validity = d.validity.as_ref().map(|_| Bitmap::new());
            mask.for_each_set(|i| {
                values.push(vals[i].clone());
                if let (Some(out), Some(v)) = (&mut validity, &d.validity) {
                    out.push(v.get(i));
                }
            });
            TypedData::new(values, validity)
        }
        Ok(match self {
            Column::Float64(d) => Column::Float64(filter_data(d, mask)),
            Column::Int64(d) => Column::Int64(filter_data(d, mask)),
            Column::Str(d) => Column::Str(d.with_codes(filter_data(&d.codes, mask))),
            Column::Bool(d) => Column::Bool(filter_data(d, mask)),
        })
    }

    /// Vertically concatenate columns of the same type, taking the parts:
    /// a single part is returned as it is, and string parts are joined by
    /// their codes (see `concat_str`), never string by string.
    pub fn concat_owned(parts: Vec<Column>) -> Result<Column> {
        let first = parts.first().ok_or_else(|| Error::Io("concat of zero columns".into()))?;
        let dtype = first.dtype();
        for p in &parts {
            if p.dtype() != dtype {
                return Err(Error::TypeMismatch {
                    context: "concat".into(),
                    expected: dtype.name(),
                    got: p.dtype().name(),
                });
            }
        }
        let parts = match <[Column; 1]>::try_from(parts) {
            Ok([mut only]) => {
                // One part keeps its buffers instead of copying them. Like
                // the copy below, the result carries a bitmap only when
                // the window has nulls.
                if only.null_count() == 0 {
                    match &mut only {
                        Column::Float64(d) => d.validity = None,
                        Column::Int64(d) => d.validity = None,
                        Column::Str(d) => d.codes.validity = None,
                        Column::Bool(d) => d.validity = None,
                    }
                }
                return Ok(only);
            }
            Err(parts) => parts,
        };
        let total: usize = parts.iter().map(|p| p.len()).sum();
        let any_null = parts.iter().any(|p| p.null_count() > 0);
        macro_rules! windows {
            ($variant:ident) => {
                parts.into_iter().filter_map(|p| if let Column::$variant(d) = p { Some(d) } else { None })
            };
        }
        Ok(match dtype {
            DataType::Float64 => Column::Float64(concat_windows(windows!(Float64), total, any_null)),
            DataType::Int64 => Column::Int64(concat_windows(windows!(Int64), total, any_null)),
            DataType::Str => Column::Str(concat_str(windows!(Str).collect(), total, any_null)),
            DataType::Bool => Column::Bool(concat_windows(windows!(Bool), total, any_null)),
        })
    }

    /// A numeric column as floats with NaN at its nulls.
    pub fn to_f64_nan(&self) -> Result<Vec<f64>> {
        let mut out = Vec::with_capacity(self.len());
        self.extend_f64_nan(&mut out).map(|()| out)
    }

    /// Append [`Column::to_f64_nan`] to `out`: the window's values are
    /// copied (or cast) as one slice, then NaN is written at each null
    /// row, found a validity word at a time.
    pub fn extend_f64_nan(&self, out: &mut Vec<f64>) -> Result<()> {
        let start = out.len();
        match self {
            Column::Float64(d) => out.extend_from_slice(d.as_slice()),
            Column::Int64(d) => out.extend(d.as_slice().iter().map(|&v| v as f64)),
            other => {
                return Err(Error::TypeMismatch {
                    context: "to_f64_nan".into(),
                    expected: "numeric",
                    got: other.dtype().name(),
                })
            }
        }
        if let Some(bm) = self.validity() {
            bm.for_each_unset(|row| {
                if let Some(v) = out.get_mut(start + row) {
                    *v = f64::NAN;
                }
            });
        }
        Ok(())
    }
}

/// The windows' values and validity, one after the other, in a new buffer.
/// Each window is given up as soon as it is copied, so a buffer nothing
/// else holds is freed before the next one is read.
fn concat_windows<T: Clone>(
    windows: impl Iterator<Item = TypedData<T>>,
    total: usize,
    any_null: bool,
) -> TypedData<T> {
    let mut values: Vec<T> = Vec::with_capacity(total);
    let mut validity = any_null.then(Bitmap::new);
    for d in windows {
        if let Some(v) = &mut validity {
            match &d.validity {
                Some(src) => v.extend_from(src),
                None => v.extend_filled(d.len(), true),
            }
        }
        values.extend_from_slice(d.as_slice());
    }
    TypedData::new(values, validity)
}

/// Concatenate string parts. Windows of one column share its dictionary:
/// their codes are copied and the result shares it too. Otherwise the
/// parts are foreign to each other (chunks of a CSV parse, each with its
/// own dictionary) and are first re-coded into one new dictionary — a
/// table lookup per row, and one interning per dictionary entry a part
/// actually uses, so entries no row refers to are left behind.
fn concat_str(parts: Vec<StrData>, total: usize, any_null: bool) -> StrData {
    let Some(first) = parts.first().map(|d| Arc::clone(&d.dict)) else {
        return StrData::from_values(std::iter::empty(), None);
    };
    if parts.iter().all(|d| Arc::ptr_eq(&d.dict, &first)) {
        let codes = concat_windows(parts.into_iter().map(|d| d.codes), total, any_null);
        return StrData { codes, dict: first };
    }
    let mut dict = DictBuilder::new();
    let recoded: Vec<TypedData<u32>> = parts
        .into_iter()
        .map(|d| {
            const UNSEEN: u32 = u32::MAX;
            let mut remap = vec![UNSEEN; d.dict.len()];
            let mut recode = |code: u32| match remap.get_mut(code as usize) {
                Some(new) => {
                    if *new == UNSEEN {
                        *new = dict.intern(d.text(code));
                    }
                    *new
                }
                None => 0,
            };
            let src = d.codes.as_slice();
            let codes = match &d.codes.validity {
                None => src.iter().map(|&c| recode(c)).collect(),
                Some(bm) => src.iter().zip(bm.iter()).map(|(&c, ok)| if ok { recode(c) } else { 0 }).collect(),
            };
            TypedData { values: Arc::new(codes), offset: 0, len: d.codes.len(), validity: d.codes.validity.clone() }
        })
        .collect();
    StrData { codes: concat_windows(recoded.into_iter(), total, any_null), dict: Arc::new(dict.finish()) }
}

/// Format a float the way cells are displayed (no trailing `.0` noise for
/// integral values).
fn format_float(v: f64) -> String {
    let mut out = String::new();
    // Formatting into a `String` cannot fail.
    let _ = write_float(&mut out, v);
    out
}

/// Append [`format_float`]'s text for `v` to `out`.
pub(crate) fn write_float(out: &mut impl std::fmt::Write, v: f64) -> std::fmt::Result {
    if v.fract() == 0.0 && v.abs() < 1e15 {
        write!(out, "{v:.0}")
    } else {
        write!(out, "{v}")
    }
}

/// Drop the bitmap entirely when it has no nulls, the common fast path.
fn some_if_nulls(bm: Bitmap) -> Option<Bitmap> {
    if bm.all_set() {
        None
    } else {
        Some(bm)
    }
}

/// [`some_if_nulls`] shaped for `Option::and_then`.
fn some_if_nulls_opt(bm: Bitmap) -> Option<Bitmap> {
    some_if_nulls(bm)
}

/// The buffers the column alone holds: a window of a shared column (a
/// partition, a slice) owns none of them.
impl HeapSize for Column {
    fn heap_bytes(&self) -> usize {
        fn typed<T: HeapSize>(data: &TypedData<T>) -> usize {
            data.values.heap_bytes() + data.validity.heap_bytes()
        }
        match self {
            Column::Float64(data) => typed(data),
            Column::Int64(data) => typed(data),
            Column::Bool(data) => typed(data),
            Column::Str(data) => typed(&data.codes) + data.dict.heap_bytes(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_float_column() {
        let c = Column::from_f64(vec![1.0, 2.0, 3.0]);
        assert_eq!(c.len(), 3);
        assert_eq!(c.dtype(), DataType::Float64);
        assert_eq!(c.null_count(), 0);
        assert_eq!(c.get(1).unwrap(), Value::Float(2.0));
    }

    #[test]
    fn optional_columns_track_nulls() {
        let c = Column::from_opt_f64(vec![Some(1.0), None, Some(3.0)]);
        assert_eq!(c.null_count(), 1);
        assert!(!c.is_valid(1));
        assert_eq!(c.get(1).unwrap(), Value::Null);
        assert_eq!(c.numeric_nonnull().unwrap(), vec![1.0, 3.0]);
    }

    #[test]
    fn all_some_optional_drops_bitmap() {
        let c = Column::from_opt_i64(vec![Some(1), Some(2)]);
        assert_eq!(c.null_count(), 0);
        // Equivalent to a plain column.
        assert_eq!(c, Column::from_i64(vec![1, 2]));
    }

    #[test]
    fn raw_parts_constructors_match_opt_constructors() {
        let validity = Bitmap::from_iter([true, false, true]);
        assert_eq!(
            Column::from_f64_validity(vec![1.0, 0.0, 3.0], Some(validity.clone())),
            Column::from_opt_f64(vec![Some(1.0), None, Some(3.0)])
        );
        assert_eq!(
            Column::from_i64_validity(vec![1, 0, 3], Some(validity.clone())),
            Column::from_opt_i64(vec![Some(1), None, Some(3)])
        );
        // Codes into a dictionary in another order, with an entry no row
        // uses and a meaningless code under the null.
        let mut dict = DictBuilder::new();
        for entry in ["unused", "c", "a"] {
            dict.intern(entry);
        }
        let dict = Arc::new(dict.finish());
        assert_eq!(
            Column::from_codes(Arc::clone(&dict), vec![2, 9, 1], Some(validity.clone())).unwrap(),
            Column::from_opt_string(vec![Some("a".into()), None, Some("c".into())])
        );
        assert!(matches!(
            Column::from_codes(dict, vec![2, 3, 1], None),
            Err(Error::IndexOutOfBounds { index: 3, len: 3 })
        ));
        assert_eq!(
            Column::from_bool_validity(vec![true, false, true], Some(validity)),
            Column::from_opt_bool(vec![Some(true), None, Some(true)])
        );
        // An all-set bitmap is dropped, same as the Vec<Option<_>> path.
        let c = Column::from_i64_validity(vec![1, 2], Some(Bitmap::filled(2, true)));
        assert_eq!(c, Column::from_i64(vec![1, 2]));
        assert!(c.validity().is_none());
    }

    #[test]
    fn int_column_widens_to_f64() {
        let c = Column::from_opt_i64(vec![Some(1), None, Some(3)]);
        let vals: Vec<Option<f64>> = c.numeric_iter().unwrap().collect();
        assert_eq!(vals, vec![Some(1.0), None, Some(3.0)]);
    }

    #[test]
    fn str_iter_and_type_errors() {
        let c = Column::from_opt_string(vec![Some("a".into()), None]);
        let vals: Vec<Option<&str>> = c.str_iter().unwrap().collect();
        assert_eq!(vals, vec![Some("a"), None]);
        assert!(c.numeric_iter().is_err());
        assert!(Column::from_f64(vec![1.0]).str_iter().is_err());
    }

    #[test]
    fn bool_iter() {
        let c = Column::from_opt_bool(vec![Some(true), None, Some(false)]);
        let vals: Vec<Option<bool>> = c.bool_iter().unwrap().collect();
        assert_eq!(vals, vec![Some(true), None, Some(false)]);
    }

    #[test]
    fn display_iter_formats_all_types() {
        let f = Column::from_f64(vec![1.0, 2.5]);
        assert_eq!(
            f.display_iter().collect::<Vec<_>>(),
            vec![Some("1".to_string()), Some("2.5".to_string())]
        );
        let s = Column::from_opt_string(vec![None, Some("x".into())]);
        assert_eq!(
            s.display_iter().collect::<Vec<_>>(),
            vec![None, Some("x".to_string())]
        );
    }

    #[test]
    fn slice_views_rows_and_validity() {
        let c = Column::from_opt_i64(vec![Some(0), None, Some(2), Some(3), None]);
        let s = c.slice(1, 3);
        assert_eq!(s.len(), 3);
        assert_eq!(s.get(0).unwrap(), Value::Null);
        assert_eq!(s.get(1).unwrap(), Value::Int(2));
        assert_eq!(s.null_count(), 1);
    }

    #[test]
    fn slice_is_zero_copy_and_composes() {
        let c = Column::from_opt_f64((0..100).map(|i| Some(i as f64)).collect());
        let s = c.slice(10, 50);
        assert!(s.shares_buffer(&c));
        let s2 = s.slice(5, 20);
        assert!(s2.shares_buffer(&c));
        assert_eq!(s2.get(0).unwrap(), Value::Float(15.0));
        assert_eq!(s2.f64_values().unwrap(), c.f64_values().unwrap()[15..35].to_vec());
        // A deep copy does not share.
        let deep = c.slice_copy(10, 50);
        assert!(!deep.shares_buffer(&c));
        assert_eq!(deep, s);
    }

    #[test]
    fn slice_copy_matches_slice_with_nulls() {
        let c = Column::from_opt_i64((0..40).map(|i| (i % 3 != 0).then_some(i)).collect());
        let view = c.slice(7, 21);
        let copy = c.slice_copy(7, 21);
        assert_eq!(view, copy);
        assert_eq!(view.null_count(), copy.null_count());
        for i in 0..21 {
            assert_eq!(view.get(i).unwrap(), copy.get(i).unwrap());
        }
    }

    #[test]
    fn for_each_numeric_respects_window_and_nulls() {
        let c = Column::from_opt_i64((0..20).map(|i| (i % 4 != 1).then_some(i)).collect());
        let view = c.slice(3, 10);
        let mut seen = Vec::new();
        view.for_each_numeric(|v| seen.push(v)).unwrap();
        let expected: Vec<f64> = (3..13).filter(|i| i % 4 != 1).map(|i| i as f64).collect();
        assert_eq!(seen, expected);
        assert!(Column::from_strs(&["x"]).for_each_numeric(|_| {}).is_err());
    }

    #[test]
    fn selection_visitors_match_a_filtered_copy() {
        let x = Column::from_opt_i64((0..90).map(|i| (i % 4 != 2).then_some(i)).collect());
        let num = Column::from_opt_f64((0..90).map(|i| (i % 7 != 0).then_some(i as f64 / 2.0)).collect());
        let int = Column::from_opt_i64((0..90).map(|i| (i % 5 != 1).then_some(i % 6)).collect());
        let text = Column::from_opt_string((0..90).map(|i| (i % 9 != 3).then(|| format!("s{}", i % 8))).collect());
        let flag = Column::from_opt_bool((0..90).map(|i| (i % 10 != 4).then_some(i % 3 == 0)).collect());
        // A non-aligned window, as a partition would be.
        let (start, len) = (11, 70);
        let x = x.slice(start, len);
        let kept = x.validity_mask();
        let dropped: Bitmap = kept.iter().map(|b| !b).collect();
        for c in [&num, &int, &text, &flag] {
            let c = c.slice(start, len);
            for (rows, mask) in [(x.valid_rows(), &kept), (x.null_rows(), &dropped)] {
                let copy = c.filter(mask).unwrap();
                // Every type reads as codes of its display forms.
                let encoded = c.display_encoded();
                let (_, dict) = encoded.str_codes().unwrap();
                let mut shown = Vec::new();
                encoded.for_each_code_in(rows, |code| shown.push(dict.get(code).unwrap().to_string())).unwrap();
                assert_eq!(shown, copy.display_iter().flatten().collect::<Vec<_>>());
                assert_eq!(rows.count(len) - shown.len(), copy.null_count());
                if let Ok(expected) = copy.numeric_nonnull() {
                    let mut seen = Vec::new();
                    c.for_each_numeric_in(rows, |v| seen.push(v)).unwrap();
                    assert_eq!(seen, expected);
                }
            }
        }
        assert!(text.for_each_numeric_in(x.null_rows(), |_| {}).is_err());
        assert!(num.for_each_code_in(x.null_rows(), |_| {}).is_err());
        assert!(text.display_encoded().shares_buffer(&text));
        // A column without nulls keeps every row and drops none.
        let full = Column::from_i64(vec![1, 2, 3]);
        assert!(matches!(full.valid_rows(), Selection::All));
        assert!(matches!(full.null_rows(), Selection::Empty));
    }

    #[test]
    fn filter_by_mask() {
        let c = Column::from_i64(vec![10, 20, 30, 40]);
        let mask = Bitmap::from_iter([true, false, false, true]);
        let out = c.filter(&mask).unwrap();
        assert_eq!(out, Column::from_i64(vec![10, 40]));
    }

    #[test]
    fn filter_preserves_nulls() {
        let c = Column::from_opt_string(vec![Some("a".into()), None, Some("c".into())]);
        let mask = Bitmap::from_iter([false, true, true]);
        let out = c.filter(&mask).unwrap();
        assert_eq!(out.len(), 2);
        assert!(!out.is_valid(0));
        assert_eq!(out.get(1).unwrap(), Value::Str("c".into()));
    }

    #[test]
    fn filter_length_mismatch_errors() {
        let c = Column::from_i64(vec![1, 2]);
        let mask = Bitmap::from_iter([true]);
        assert!(c.filter(&mask).is_err());
    }

    #[test]
    fn concat_round_trip() {
        let a = Column::from_opt_f64(vec![Some(1.0), None]);
        let b = Column::from_f64(vec![3.0]);
        let out = Column::concat_owned(vec![a, b]).unwrap();
        assert_eq!(out.len(), 3);
        assert_eq!(out.null_count(), 1);
        assert_eq!(out.get(2).unwrap(), Value::Float(3.0));
    }

    #[test]
    fn concat_of_views_restores_values() {
        let c = Column::from_opt_i64((0..30).map(|i| (i % 5 != 2).then_some(i)).collect());
        let left = c.slice(0, 13);
        let right = c.slice(13, 17);
        let back = Column::concat_owned(vec![left, right]).unwrap();
        assert_eq!(back, c);
    }

    #[test]
    fn concat_of_one_part_shares_its_buffer() {
        let whole = Column::from_opt_string(vec![Some("a".into()), None, Some("c".into())]);
        let same = Column::concat_owned(vec![whole.clone()]).unwrap();
        assert_eq!(same, whole);
        assert_eq!(same.fingerprint(), whole.fingerprint(), "one part must not be copied");
        // A window that left the nulls behind drops its bitmap, exactly
        // as the many-part copy does.
        let tail = whole.slice(2, 1);
        assert!(tail.validity().is_some());
        let shared = Column::concat_owned(vec![tail.clone()]).unwrap();
        assert!(shared.validity().is_none());
        let copied = Column::concat_owned(vec![tail.clone(), tail.slice(0, 0)]).unwrap();
        assert_eq!(shared, copied);
        assert_eq!(shared.content_fingerprint(), copied.content_fingerprint());
    }

    /// The dictionary of a string column, for pointer comparisons.
    fn dict_of(c: &Column) -> &Arc<StrDict> {
        c.str_codes().unwrap().1
    }

    #[test]
    fn windows_of_one_string_column_concatenate_by_codes() {
        let whole = Column::from_opt_string(
            (0..40).map(|i| (i % 7 != 3).then(|| format!("v{}", i % 5))).collect(),
        );
        let (left, right) = (whole.slice(0, 13), whole.slice(13, 27));
        let back = Column::concat_owned(vec![left, right]).unwrap();
        assert_eq!(back, whole);
        assert!(Arc::ptr_eq(dict_of(&back), dict_of(&whole)), "the dictionary is shared, not rebuilt");
        assert!(!back.shares_buffer(&whole), "the codes are a new buffer");
        assert_eq!(back.content_fingerprint(), whole.content_fingerprint());
        // So do a filter and a slice of it: still the one dictionary, now
        // with entries the rows no longer use.
        let few = whole.filter(&(0..40).map(|i| i % 5 == 1).collect()).unwrap();
        assert!(Arc::ptr_eq(dict_of(&few), dict_of(&whole)));
        assert_eq!(few, Column::from_opt_string((0..40).filter(|i| i % 5 == 1).map(|i| (i % 7 != 3).then(|| "v1".to_string())).collect()));
    }

    #[test]
    fn foreign_string_parts_are_recoded_entry_by_entry() {
        let a = Column::from_strs(&["alpha", "beta", "alpha"]);
        let b = Column::from_opt_string(vec![Some("gamma".into()), None, Some("alpha".into())]);
        // A window of a larger column: "cut" and "never" are entries of
        // its dictionary that no row of the window uses.
        let window = Column::from_strs(&["cut", "beta", "delta", "never"]).slice(1, 2);
        let got = Column::concat_owned(vec![a.clone(), b.clone(), window.clone()]).unwrap();
        let want = Column::from_opt_string(
            ["alpha", "beta", "alpha", "gamma", "", "alpha", "beta", "delta"]
                .iter()
                .enumerate()
                .map(|(i, v)| (i != 4).then(|| v.to_string()))
                .collect(),
        );
        assert_eq!(got, want);
        assert_eq!(got.null_count(), 1);
        assert_eq!(got.content_fingerprint(), want.content_fingerprint());
        // One entry per distinct string in use, in first-appearance order.
        let (codes, dict) = got.str_codes().unwrap();
        assert_eq!(dict.iter().collect::<Vec<_>>(), ["alpha", "beta", "gamma", "delta"]);
        assert_eq!(codes, [0, 1, 0, 2, 0, 0, 1, 3]);
        // The parts are untouched.
        assert_eq!(a, Column::from_strs(&["alpha", "beta", "alpha"]));
        assert_eq!(window, Column::from_strs(&["beta", "delta"]));
    }

    #[test]
    fn string_equality_and_content_fingerprints_are_logical() {
        let rows = ["b", "a", "", "b", "ß", "a"];
        let first_seen = Column::from_strs(&rows);
        // The same rows over a sorted dictionary with an unused entry, as
        // an `.edaf` page or a slice would have.
        let mut dict = DictBuilder::new();
        for entry in ["", "a", "b", "unused", "ß"] {
            dict.intern(entry);
        }
        let sorted = Column::from_codes(Arc::new(dict.finish()), vec![2, 1, 0, 2, 4, 1], None).unwrap();
        assert_eq!(first_seen, sorted);
        assert_eq!(first_seen.content_fingerprint(), sorted.content_fingerprint());
        assert_ne!(first_seen.fingerprint(), sorted.fingerprint());
        let other = Column::from_strs(&["b", "a", "", "b", "ss", "a"]);
        assert_ne!(first_seen, other);
        assert_ne!(first_seen.content_fingerprint(), other.content_fingerprint());
        // A null slot reads as the empty string whatever code is under it.
        let validity = Bitmap::from_iter([true, false, true]);
        let (_, dict) = first_seen.str_codes().unwrap();
        let x = Column::from_codes(Arc::clone(dict), vec![0, 1, 2], Some(validity.clone())).unwrap();
        let y = Column::from_codes(Arc::clone(dict), vec![0, 3, 2], Some(validity)).unwrap();
        assert_eq!(x, y);
        assert_eq!(x.content_fingerprint(), y.content_fingerprint());
        assert_eq!(x.content_fingerprint(), Column::from_opt_string(vec![Some("b".into()), None, Some("".into())]).content_fingerprint());
        // Identity covers the dictionary pointer too.
        let (codes, _) = x.str_codes().unwrap();
        let twin = Column::from_codes(Arc::new(StrDict::clone(dict)), codes.to_vec(), None).unwrap();
        assert_ne!(twin.fingerprint(), x.fingerprint());
    }

    #[test]
    fn concat_type_mismatch_errors() {
        let a = Column::from_f64(vec![1.0]);
        let b = Column::from_i64(vec![1]);
        assert!(Column::concat_owned(vec![a, b]).is_err());
    }

    #[test]
    fn to_f64_nan_maps_nulls() {
        let c = Column::from_opt_f64(vec![Some(1.0), None]);
        let v = c.to_f64_nan().unwrap();
        assert_eq!(v[0], 1.0);
        assert!(v[1].is_nan());
    }

    #[test]
    fn to_f64_nan_is_the_numeric_iter_form() {
        let n = 300;
        let null = |i: usize| i % 7 == 3 || (100..140).contains(&i);
        let floats: Vec<Option<f64>> = (0..n)
            .map(|i| (!null(i)).then_some(if i % 11 == 0 { f64::NAN } else { i as f64 * 0.5 - 40.0 }))
            .collect();
        let ints: Vec<Option<i64>> = (0..n).map(|i| (!null(i)).then_some(i as i64 * 3 - 400)).collect();
        let columns = [
            Column::from_opt_f64(floats.clone()),
            Column::from_opt_i64(ints.clone()),
            // No bitmap.
            Column::from_f64(floats.iter().map(|v| v.unwrap_or(2.5)).collect()),
            Column::from_i64(ints.iter().map(|v| v.unwrap_or(9)).collect()),
            // Every row null.
            Column::from_opt_f64(vec![None; 70]),
            Column::from_opt_i64(vec![None; 70]),
        ];
        let by_iter = |c: &Column| -> Vec<u64> {
            c.numeric_iter().unwrap().map(|v| v.unwrap_or(f64::NAN).to_bits()).collect()
        };
        let by_copy = |c: &Column| -> Vec<u64> { c.to_f64_nan().unwrap().iter().map(|v| v.to_bits()).collect() };
        for c in &columns {
            assert_eq!(by_copy(c), by_iter(c), "{:?}", c.dtype());
            // Windows off byte and word boundaries, with offset bitmaps;
            // rows 4..7 hold no null, so that window's bitmap is all-set.
            for (start, len) in [(0, 0), (1, 63), (4, 3), (9, 130), (101, 38), (65, c.len() - 65)] {
                let w = c.slice(start.min(c.len()), len.min(c.len() - start.min(c.len())));
                assert_eq!(by_copy(&w), by_iter(&w), "{:?} [{start}; {len}]", c.dtype());
            }
        }
        let window = columns[0].slice(4, 3);
        assert!(window.validity().is_some_and(Bitmap::all_set));
        assert!(Column::from_strs(&["a"]).to_f64_nan().is_err());
    }

    #[test]
    fn get_out_of_bounds() {
        let c = Column::from_bool(vec![true]);
        assert!(matches!(c.get(1), Err(Error::IndexOutOfBounds { .. })));
    }

    #[test]
    fn validity_mask_defaults_to_all_true() {
        let c = Column::from_i64(vec![1, 2, 3]);
        assert!(c.validity_mask().all_set());
        let c2 = Column::from_opt_i64(vec![Some(1), None]);
        assert_eq!(c2.validity_mask().count_unset(), 1);
    }

    #[test]
    fn fingerprint_stable_for_same_view() {
        let c = Column::from_opt_f64((0..100).map(|i| (i % 9 != 0).then_some(i as f64)).collect());
        assert_eq!(c.fingerprint(), c.fingerprint());
        // A clone shares the buffers, so identity is preserved.
        assert_eq!(c.clone().fingerprint(), c.fingerprint());
        // A shared-buffer slice of the same window fingerprints equally...
        assert_eq!(c.slice(0, c.len()).fingerprint(), c.fingerprint());
        // ...but a different window does not.
        assert_ne!(c.slice(1, 50).fingerprint(), c.fingerprint());
        assert_ne!(c.slice(0, 50).fingerprint(), c.fingerprint());
    }

    #[test]
    fn fingerprint_distinguishes_separate_allocations() {
        // Logically equal but separately constructed columns live in
        // different buffers: identity fingerprints differ, content
        // fingerprints agree.
        let a = Column::from_i64((0..50).collect());
        let b = Column::from_i64((0..50).collect());
        assert_eq!(a, b);
        assert_ne!(a.fingerprint(), b.fingerprint());
        assert_eq!(a.content_fingerprint(), b.content_fingerprint());
        // Content fingerprints see value differences wherever they are.
        let c = Column::from_i64((0..49).chain([99]).collect());
        assert_ne!(b.content_fingerprint(), c.content_fingerprint());
    }

    #[test]
    fn fingerprint_covers_dtype_and_validity() {
        let f = Column::from_f64(vec![1.0, 2.0, 3.0]);
        let i = Column::from_i64(vec![1, 2, 3]);
        assert_ne!(f.content_fingerprint(), i.content_fingerprint());
        let no_null = Column::from_opt_i64(vec![Some(1), Some(2)]);
        let with_null = Column::from_opt_i64(vec![Some(1), None]);
        assert_ne!(no_null.content_fingerprint(), with_null.content_fingerprint());
    }

    #[test]
    fn make_unique_changes_fingerprint_not_value() {
        let c = Column::from_opt_f64((0..40).map(|i| (i % 7 != 0).then_some(i as f64)).collect());
        let before = c.fingerprint();
        let mut copy = c.clone();
        assert_eq!(copy.fingerprint(), before);
        copy.make_unique();
        assert_eq!(copy, c, "copy-on-write must preserve the logical value");
        assert!(!copy.shares_buffer(&c), "make_unique must detach the buffer");
        assert_ne!(copy.fingerprint(), before, "a detached buffer is new identity");
        // Content fingerprints ignore identity and still agree.
        assert_eq!(copy.content_fingerprint(), c.content_fingerprint());
    }
}
