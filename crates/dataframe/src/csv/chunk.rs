//! The CSV → typed-columns pipeline, chunk by chunk: pure (no I/O, no
//! threads), and the only implementation of each of its phases.
//! [`super::read_csv_str`] maps it inline over one text; `eda-io` adds
//! byte access and maps it in parallel.
//!
//! 1. **Boundary scan** ([`BoundaryScanner`] / [`chunk_specs`]): a single
//!    streaming pass over raw bytes that tracks RFC-4180 quote parity and
//!    cuts the stream into ~`chunk_bytes` spans that always end on a
//!    record boundary — a quoted embedded newline never splits a record
//!    across chunks. It also notes where the leading records that form
//!    the type-inference sample end, and counts the stream's records
//!    exactly. Memory is O(#chunks): only `(offset, len, first_record)`
//!    triples are retained, never the bytes.
//! 2. **Schema sample** ([`sample_schema`]): column names and a schema
//!    hint from the header plus the first `infer_rows` data records.
//! 3. **Per-chunk parse** ([`parse_chunk`]): one pass over the chunk's
//!    text — records are found lazily, each field is lent by the
//!    tokenizer as a slice of the text and parsed straight into its
//!    column's typed builder at the hinted type; no field is staged as a
//!    `String`. A numeric column tries the number first, and only a
//!    field that is no number (or is NaN) is null-checked and parsed
//!    again: every field reads as it would with the null check first.
//!    A column with a field that contradicts the hint stops building and
//!    joins types for the rest of the pass, and a second pass over the
//!    same text then builds just those columns at the joined type: one
//!    pass when the sample was right, two when it was not. Chunks are
//!    independent, so this is the step a worker pool parallelizes.
//!    Errors carry absolute 1-based record numbers and absolute byte
//!    offsets.
//! 4. **Assembly in place** ([`Assembly`]): the record count fixes the
//!    frame's length and each chunk's first row (`first_record` − 1,
//!    minus the header), so every `Int64` / `Float64` / `Bool` column of
//!    the hint is allocated once, at its final length. Each parsed chunk
//!    copies the columns that held their hinted type into its own rows
//!    ([`Assembly::write`]) and drops them; a loaded file is held once,
//!    not once in chunks and again in their concatenation. What a chunk
//!    could not write ([`ChunkRest`]) is joined under the widened global
//!    schema by [`Assembly::finish`]: `Str` columns concatenate by codes
//!    in chunk order; an `Int64` column some chunk widened to `Float64`
//!    is cast where it lies — the one lossless numeric promotion,
//!    bit-identical to re-parsing the text (both round half-to-even) but
//!    for `-0`, the integer 0 and the float -0.0, whose chunk is re-read
//!    — and the widened chunks' rows are laid over it; every other
//!    promotion targets `Str` and must re-read the chunk's text to recover
//!    the exact raw field spellings ("widening repair") — rare, and
//!    bounded to the affected chunks.
//!
//! Determinism: the frame is bit-identical for every chunking of a fixed
//! input, because the hint is always sampled from the same leading
//! records and the widening join is chunking-invariant (see
//! [`global_schema`]). That is what makes [`DEFAULT_CHUNK_BYTES`] a free
//! choice.

use std::ops::Range;

use crate::bitmap::Bitmap;
use crate::builder::ColumnBuilder;
use crate::column::Column;
use crate::dtype::DataType;
use crate::error::{Error, Result};
use crate::frame::DataFrame;
use crate::heap::HeapSize;

use super::infer::{infer_dtype, is_null_field, widen};
use super::parser::{self, record_end, Separator};
use super::reader::CsvOptions;

/// Chunk size every reader uses unless a library caller asks otherwise.
/// Measured, not derived (EXPERIMENTS.md, "CSV parse without a `String`
/// per field"): a chunk stages only its own text and typed columns, so on
/// one thread the size is free (512 KiB to 4 MiB read within 2% of each
/// other); what is left is parallelism — at 4 MiB a file of a few
/// megabytes is one or two chunks and two workers load it up to 1.6x
/// slower, while 512 KiB, 1 MiB and 2 MiB cannot be told apart.
pub const DEFAULT_CHUNK_BYTES: usize = 1 << 20;

/// The UTF-8 byte-order mark. Opening the stream, it belongs to no
/// record and no field.
const BOM: &str = "\u{feff}";

/// One chunk of the byte stream: `len` bytes starting at absolute
/// `offset`, guaranteed to begin and end on record boundaries.
/// `first_record` is the 1-based record number (header counts as record 1)
/// of the first record in the chunk.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChunkSpec {
    /// Absolute byte offset of the chunk's first byte.
    pub offset: u64,
    /// Chunk length in bytes.
    pub len: usize,
    /// 1-based record number of the chunk's first record.
    pub first_record: usize,
}

/// Incremental quote-aware chunk-boundary scanner.
///
/// Feed the byte stream in arbitrary blocks; the scanner emits
/// [`ChunkSpec`]s whose spans end at the first record boundary at or past
/// the `chunk_bytes` budget. State is O(1): quote parity, a record
/// counter, the current chunk's and record's starts and the end of the
/// sample. Works on raw bytes — UTF-8 validation happens later, per chunk
/// (safe because `"` and `\n` are ASCII and UTF-8 continuation bytes never
/// collide with ASCII).
#[derive(Debug)]
pub struct BoundaryScanner {
    chunk_bytes: usize,
    sample_records: usize,
    pos: u64,
    in_quotes: bool,
    /// Records completed so far across the whole stream.
    records_done: usize,
    /// Where the open record begins: just past the last newline, or past
    /// a byte-order mark that opens the stream.
    record_start: u64,
    chunk_start: u64,
    chunk_first_record: usize,
    /// Where record number `sample_records` ended, once seen.
    sample_end: Option<u64>,
}

/// What a finished scan knows besides its chunks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScanEnd {
    /// Length of the stream's leading whole-record prefix that holds the
    /// sample: the first `sample_records` records, or everything when
    /// there are fewer.
    pub sample_len: usize,
    /// Records in the stream, a header included: exactly the records
    /// [`parse_chunk`] reads from the chunks, together.
    pub records: usize,
}

impl BoundaryScanner {
    /// A scanner cutting chunks of at least `chunk_bytes` bytes (clamped
    /// to ≥ 1) that also notes where the first `sample_records` records
    /// ([`CsvOptions::sample_records`]) end.
    pub fn new(chunk_bytes: usize, sample_records: usize) -> Self {
        BoundaryScanner {
            chunk_bytes: chunk_bytes.max(1),
            sample_records,
            pos: 0,
            in_quotes: false,
            records_done: 0,
            record_start: 0,
            chunk_start: 0,
            chunk_first_record: 1,
            sample_end: None,
        }
    }

    /// Scan the next block of the stream, appending any completed chunks.
    /// Record ends are found a word at a time (`record_end`): only words
    /// that hold a quote, or lie inside a quoted field, are read byte by
    /// byte.
    pub fn feed(&mut self, block: &[u8], out: &mut Vec<ChunkSpec>) {
        if self.records_done == 0 && self.record_start == self.pos {
            // Every byte so far began a byte-order mark: the first record
            // starts after as much of it as this block carries on.
            let mark = BOM.as_bytes().get(self.pos as usize..).unwrap_or_default();
            let matched = block.iter().zip(mark).take_while(|(byte, want)| byte == want).count();
            if matched == mark.len().min(block.len()) {
                self.record_start += matched as u64;
            }
        }
        let mut rest = block;
        while let Some(newline) = record_end(rest, &mut self.in_quotes) {
            self.pos += newline as u64 + 1;
            self.records_done += 1;
            self.record_start = self.pos;
            if self.records_done == self.sample_records {
                self.sample_end = Some(self.pos);
            }
            if self.pos - self.chunk_start >= self.chunk_bytes as u64 {
                self.close_chunk(self.pos, out);
            }
            rest = rest.get(newline + 1..).unwrap_or_default();
        }
        self.pos += rest.len() as u64;
    }

    /// Flush the trailing partial chunk and say where the sample ends and
    /// how many records there were. A final record without a newline
    /// still ends at end-of-stream; it counts when bytes follow the last
    /// newline, which a stream ending in `\n` has none of.
    pub fn finish(mut self, out: &mut Vec<ChunkSpec>) -> ScanEnd {
        if self.pos > self.record_start {
            self.records_done += 1;
        }
        if self.pos > self.chunk_start {
            self.close_chunk(self.pos, out);
        }
        let sample_len = self.sample_end.unwrap_or(self.pos) as usize;
        ScanEnd { sample_len, records: self.records_done }
    }

    fn close_chunk(&mut self, end: u64, out: &mut Vec<ChunkSpec>) {
        out.push(ChunkSpec {
            offset: self.chunk_start,
            len: (end - self.chunk_start) as usize,
            first_record: self.chunk_first_record,
        });
        self.chunk_start = end;
        self.chunk_first_record = self.records_done + 1;
    }
}

/// Scan an in-memory byte slice in one call: its chunks, the length of
/// its sample prefix and its record count.
pub fn chunk_specs(
    bytes: &[u8],
    chunk_bytes: usize,
    sample_records: usize,
) -> (Vec<ChunkSpec>, ScanEnd) {
    let mut out = Vec::new();
    let mut scanner = BoundaryScanner::new(chunk_bytes, sample_records);
    scanner.feed(bytes, &mut out);
    let end = scanner.finish(&mut out);
    (out, end)
}

/// Typed columns parsed from one chunk, at the chunk's (possibly still
/// narrow) local schema.
#[derive(Debug, Clone)]
pub struct ParsedChunk {
    /// The chunk these columns were parsed from.
    pub spec: ChunkSpec,
    /// Per-column dtypes after widening the hint by this chunk's fields.
    pub dtypes: Vec<DataType>,
    /// One column per schema slot, all of length `nrows`.
    pub columns: Vec<Column>,
    /// Data rows in this chunk.
    pub nrows: usize,
    /// Per schema slot, whether an `Int64` column read a zero spelled
    /// with a minus sign (`-0`): the integer 0 but the float -0.0, so the
    /// column is re-read, not cast, if it widens to `Float64`.
    pub negative_zeros: Vec<bool>,
}

impl ParsedChunk {
    /// What [`Assembly::write`] leaves of this chunk under the sampled
    /// `hint`: every column but those that parsed at their hinted
    /// `Int64`, `Float64` or `Bool` type, which it wrote in place.
    pub fn into_rest(self, hint: &[DataType]) -> ChunkRest {
        let ParsedChunk { spec, dtypes, columns, nrows, negative_zeros } = self;
        let columns = columns
            .into_iter()
            .zip(&dtypes)
            .enumerate()
            .map(|(c, (col, &have))| {
                (!hint.get(c).is_some_and(|&want| written_in_place(want, have))).then_some(col)
            })
            .collect();
        ChunkRest { spec, dtypes, columns, nrows, negative_zeros }
    }
}

/// A parsed chunk once its in-place columns are written: what
/// [`Assembly::finish`] still needs from it.
#[derive(Debug, Clone)]
pub struct ChunkRest {
    /// The chunk these columns were parsed from.
    pub spec: ChunkSpec,
    /// Per-column dtypes after widening the hint by this chunk's fields.
    pub dtypes: Vec<DataType>,
    /// Per schema slot, the chunk's column; `None` where it was written
    /// in place.
    pub columns: Vec<Option<Column>>,
    /// Data rows in this chunk.
    pub nrows: usize,
    /// As [`ParsedChunk::negative_zeros`].
    pub negative_zeros: Vec<bool>,
}

/// The records of one chunk as `(record number, byte offset, text)`,
/// numbered and positioned absolutely in the stream. A UTF-8 byte-order
/// mark opening the stream belongs to no field and is skipped here, the
/// one place the header record is read from.
fn records(text: &str, spec: ChunkSpec) -> impl Iterator<Item = (usize, u64, &str)> {
    let (text, base) = match text.strip_prefix(BOM) {
        Some(rest) if spec.offset == 0 => (rest, BOM.len() as u64),
        _ => (text, spec.offset),
    };
    parser::records(text)
        .enumerate()
        .map(move |(i, (offset, record))| (spec.first_record + i, base + offset, record))
}

impl HeapSize for ParsedChunk {
    fn heap_bytes(&self) -> usize {
        self.dtypes.heap_bytes() + self.columns.heap_bytes() + self.negative_zeros.heap_bytes()
    }
}

impl HeapSize for ChunkRest {
    fn heap_bytes(&self) -> usize {
        self.dtypes.heap_bytes() + self.columns.heap_bytes() + self.negative_zeros.heap_bytes()
    }
}

#[cfg(test)]
thread_local! {
    /// Records tokenized on this thread: how tests count a chunk's passes.
    static RECORDS_TOKENIZED: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

/// Tokenize one record, lending `each` every field with its column
/// index (indices past `ncols` included), and check that there were
/// exactly `ncols`. A quoting error anywhere in the record is reported
/// before a wrong field count.
fn for_each_field(
    record: (usize, u64, &str),
    ncols: usize,
    sep: Separator,
    mut each: impl FnMut(usize, &str) -> Result<()>,
) -> Result<()> {
    #[cfg(test)]
    RECORDS_TOKENIZED.with(|n| n.set(n.get() + 1));
    let (line, offset, text) = record;
    let mut found = 0;
    for field in parser::fields(text, sep, line) {
        each(found, &field?)?;
        found += 1;
    }
    if found != ncols {
        return Err(Error::Malformed {
            line,
            offset: Some(offset),
            column: None,
            message: format!("expected {ncols} fields, found {found}"),
        });
    }
    Ok(())
}

/// Column names and a sampled schema hint from the leading bytes of the
/// stream. `sample_text` must span whole records (the scanner's sample
/// prefix does) and should contain the header plus up to
/// `opts.infer_rows` data records; extra records are ignored.
///
/// The schema is inferred from the first `infer_rows` data records
/// regardless of where chunk boundaries later fall, which is what makes
/// the final widened schema (and thus the output frame) independent of
/// the chunking. A column whose sample is entirely null is hinted `Str`.
/// Empty text has no columns.
pub fn sample_schema(sample_text: &str, opts: &CsvOptions) -> Result<(Vec<String>, Vec<DataType>)> {
    let spec = ChunkSpec { offset: 0, len: sample_text.len(), first_record: 1 };
    let sep = Separator::new(opts.separator);
    let mut records = records(sample_text, spec).peekable();
    let Some(&(_, _, first)) = records.peek() else {
        return Ok((Vec::new(), Vec::new()));
    };
    let first = parser::fields(first, sep, 1)
        .map(|field| field.map(|f| f.into_owned()))
        .collect::<Result<Vec<String>>>()?;
    let names: Vec<String> = if opts.has_header {
        records.next();
        first
    } else {
        (0..first.len()).map(|i| format!("column_{i}")).collect()
    };
    let mut sampled: Vec<Option<DataType>> = vec![None; names.len()];
    for record in records.take(opts.infer_rows) {
        for_each_field(record, names.len(), sep, |c, field| {
            if let (Some(seen), Some(t)) = (sampled.get_mut(c), infer_dtype(field, &opts.extra_nulls)) {
                *seen = Some(seen.map_or(t, |prev| widen(prev, t)));
            }
            Ok(())
        })?;
    }
    let hint = sampled.into_iter().map(|t| t.unwrap_or(DataType::Str)).collect();
    Ok((names, hint))
}

/// One column of a chunk during the typed pass.
struct Slot {
    /// The schema's type for the column, joined with the type of every
    /// field read since one contradicted it.
    dtype: DataType,
    /// The column so far; `None` from the first field that does not parse
    /// as `dtype`, after which the pass only joins types for this column.
    builder: Option<ColumnBuilder>,
    /// Whether the `Int64` builder took a zero spelled `-0`.
    negative_zero: bool,
}

impl Slot {
    fn push(&mut self, field: &str, extra_nulls: &[String]) {
        let Some(builder) = &mut self.builder else {
            if self.dtype != DataType::Str {
                if let Some(t) = infer_dtype(field, extra_nulls) {
                    self.dtype = widen(self.dtype, t);
                }
            }
            return;
        };
        if extra_nulls.is_empty() && builder.push_number(field) {
            return;
        }
        if !push_checked(builder, field, extra_nulls) {
            // Every earlier field parsed as the schema's type, so the join
            // from here on equals the join over the whole column.
            self.dtype = widen(self.dtype, infer_dtype(field, extra_nulls).unwrap_or(DataType::Str));
            self.builder = None;
        } else if self.dtype == DataType::Int64 {
            // `push_number` refuses a `-0`, so only here can one land.
            self.negative_zero |= spells_negative_zero(field);
        }
    }
}

/// Whether an integer field is a zero with a minus sign (`-0`, ` -00`).
fn spells_negative_zero(field: &str) -> bool {
    let digits = field.trim().strip_prefix('-');
    digits.is_some_and(|digits| !digits.is_empty() && digits.bytes().all(|b| b == b'0'))
}

/// Append `field` to `builder` as a null or as a value of its type;
/// `false`, with nothing appended, when it is neither. Numbers first:
/// without extra null spellings no null parses as a number but `nan` /
/// `NaN`, which `push_number` refuses, so the common field skips the trim
/// and the null lexicon.
fn push_field(builder: &mut ColumnBuilder, field: &str, extra_nulls: &[String]) -> bool {
    extra_nulls.is_empty() && builder.push_number(field)
        || push_checked(builder, field, extra_nulls)
}

/// [`push_field`] without the number first: the null check, then the
/// trimmed parse.
fn push_checked(builder: &mut ColumnBuilder, field: &str, extra_nulls: &[String]) -> bool {
    if is_null_field(field, extra_nulls) {
        builder.push_null();
        return true;
    }
    builder.push_parsed(field)
}

/// Parse one chunk's text into typed columns.
///
/// * `spec` — where `text` sits in the source: errors are rebased to its
///   absolute offset and record number, and the chunk that starts at
///   record 1 skips the header row (when there is one).
/// * `schema` — the sampled hint, or the global schema when re-reading a
///   chunk for [`Assembly::finish`]; the chunk widens it locally when its
///   fields contradict it. `names` supplies error context and the column
///   count.
pub fn parse_chunk(
    text: &str,
    spec: ChunkSpec,
    schema: &[DataType],
    names: &[String],
    opts: &CsvOptions,
) -> Result<ParsedChunk> {
    let ncols = names.len();
    let sep = Separator::new(opts.separator);
    let header_rows = usize::from(opts.has_header && spec.first_record == 1);
    let data = || records(text, spec).skip(header_rows);

    // Typed pass: every field goes from the text into its column's
    // builder at the schema's type. A column with a field that contradicts
    // the schema stops building and joins types instead; the pass still
    // reads every record, so the first malformed one is what it reports.
    let mut slots: Vec<Slot> = (0..ncols)
        .map(|c| {
            let dtype = schema.get(c).copied().unwrap_or(DataType::Str);
            Slot { dtype, builder: Some(ColumnBuilder::for_dtype(dtype)), negative_zero: false }
        })
        .collect();
    let mut nrows = 0;
    for record in data() {
        for_each_field(record, ncols, sep, |c, field| {
            if let Some(slot) = slots.get_mut(c) {
                slot.push(field, &opts.extra_nulls);
            }
            Ok(())
        })?;
        nrows += 1;
    }

    // Widening pass, only when the schema was wrong for this chunk: the
    // contradicted columns are built again from the same text at the type
    // they joined to.
    let mut rebuilt: Vec<Option<ColumnBuilder>> = slots
        .iter()
        .map(|slot| slot.builder.is_none().then(|| ColumnBuilder::for_dtype(slot.dtype)))
        .collect();
    if rebuilt.iter().any(Option::is_some) {
        for record in data() {
            for_each_field(record, ncols, sep, |c, field| {
                let Some(Some(builder)) = rebuilt.get_mut(c) else { return Ok(()) };
                if !push_field(builder, field, &opts.extra_nulls) {
                    // The join guarantees parseability; a failure here is
                    // a logic error worth surfacing as a recoverable
                    // error rather than a panic.
                    let dtype = slots.get(c).map_or("?", |slot| slot.dtype.name());
                    return Err(Error::Malformed {
                        line: 0,
                        offset: Some(spec.offset),
                        column: names.get(c).cloned(),
                        message: format!("field {field:?} does not parse as inferred type {dtype}"),
                    });
                }
                Ok(())
            })?;
        }
    }

    let dtypes = slots.iter().map(|slot| slot.dtype).collect();
    let negative_zeros = slots.iter().map(|slot| slot.negative_zero).collect();
    let columns = slots
        .into_iter()
        .zip(rebuilt)
        .filter_map(|(slot, rebuilt)| slot.builder.or(rebuilt))
        .map(ColumnBuilder::finish)
        .collect();
    Ok(ParsedChunk { spec, dtypes, columns, nrows, negative_zeros })
}

/// Join of per-chunk schemas: the widened global schema. Because
/// [`widen`] is an associative, commutative, idempotent join on the
/// bool → i64 → f64 → str lattice, the result is the hint joined with
/// every field's type for any chunking — this is the invariant behind
/// the bit-identical guarantee.
pub fn global_schema<'a>(
    hint: &[DataType],
    chunk_dtypes: impl IntoIterator<Item = &'a Vec<DataType>>,
) -> Vec<DataType> {
    let mut global = hint.to_vec();
    for dts in chunk_dtypes {
        for (g, &d) in global.iter_mut().zip(dts) {
            *g = widen(*g, d);
        }
    }
    global
}

/// Whether a chunk column at `have` can fold into global dtype `want`
/// without re-reading the chunk's text. i64 → f64 is the one lossless
/// in-memory promotion — but for `-0`, the integer 0 and the float
/// -0.0, which [`Assembly::finish`] re-reads
/// ([`ParsedChunk::negative_zeros`]); promotions into `Str` lost the raw
/// spelling (`" 7"`, `"True"`, `"1.50"`) at parse time.
pub fn needs_text_repair(have: DataType, want: DataType) -> bool {
    have != want && !(have == DataType::Int64 && want == DataType::Float64)
}

/// Whether a chunk column that parsed at `have` under the hinted `want`
/// is written in place: it held its hinted type, and that type has a
/// fixed width.
fn written_in_place(want: DataType, have: DataType) -> bool {
    have == want && want != DataType::Str
}

/// Numeric i64 → f64 promotion. `v as f64` rounds half-to-even exactly
/// like parsing the original integer literal as a float, so this is
/// bit-identical to parsing the text as f64. Same-sized elements: the
/// vector is cast where it lies, not copied.
fn int_to_float(ints: Vec<i64>) -> Vec<f64> {
    ints.into_iter().map(|v| v as f64).collect()
}

/// A stream's frame, assembled where it will stay.
///
/// Built once the scan has counted the records ([`ScanEnd::records`]):
/// that fixes the frame's length and which rows each chunk owns. Every
/// column the sampled hint types `Int64`, `Float64` or `Bool` is allocated
/// at its final length; each parsed chunk copies its columns that held
/// their hinted type into its rows ([`Assembly::write`], any order, any
/// thread) and hands the rest on ([`ParsedChunk::into_rest`]).
/// [`Assembly::finish`] joins those under the widened global schema. The
/// frame is the same for every chunking of a stream.
#[derive(Debug, Default)]
pub struct Assembly {
    names: Vec<String>,
    hint: Vec<DataType>,
    /// The scanned chunks; chunk `i` owns rows `starts[i]..starts[i + 1]`.
    specs: Vec<ChunkSpec>,
    starts: Vec<usize>,
    /// Per schema slot, the full-length column of a slot hinted
    /// `Int64`, `Float64` or `Bool`; `None` for `Str`.
    placed: Vec<Option<Placed>>,
}

/// A column written in place.
#[derive(Debug)]
struct Placed {
    values: Values,
    /// All set but the null rows written so far; allocated by the first
    /// chunk with a null.
    validity: Option<Bitmap>,
}

#[derive(Debug)]
enum Values {
    F64(Vec<f64>),
    I64(Vec<i64>),
    Bool(Vec<bool>),
}

impl Placed {
    /// `rows` zeroed values (the placeholder a builder leaves under a
    /// null) of a fixed-width `dtype`; `None` for `Str`.
    fn new(dtype: DataType, rows: usize) -> Option<Placed> {
        let values = match dtype {
            DataType::Float64 => Values::F64(vec![0.0; rows]),
            DataType::Int64 => Values::I64(vec![0; rows]),
            DataType::Bool => Values::Bool(vec![false; rows]),
            DataType::Str => return None,
        };
        Some(Placed { values, validity: None })
    }

    fn len(&self) -> usize {
        match &self.values {
            Values::F64(v) => v.len(),
            Values::I64(v) => v.len(),
            Values::Bool(v) => v.len(),
        }
    }

    /// Copy `col`, of this column's type, into `rows`: its values,
    /// placeholders under nulls included, and its nulls. `false`, with
    /// nothing written, when the type or the length does not fit.
    fn write(&mut self, rows: Range<usize>, col: &Column) -> bool {
        fn copy<T: Copy>(dst: &mut [T], rows: Range<usize>, src: Option<&[T]>) -> bool {
            match (dst.get_mut(rows), src) {
                (Some(dst), Some(src)) if dst.len() == src.len() => {
                    dst.copy_from_slice(src);
                    true
                }
                _ => false,
            }
        }
        let start = rows.start;
        let copied = match &mut self.values {
            Values::F64(dst) => copy(dst, rows, col.f64_values()),
            Values::I64(dst) => copy(dst, rows, col.i64_values()),
            Values::Bool(dst) => copy(dst, rows, col.bool_values()),
        };
        if let (true, Some(nulls)) = (copied, col.validity()) {
            let len = self.len();
            let validity = self.validity.get_or_insert_with(|| Bitmap::filled(len, true));
            nulls.for_each_unset(|row| validity.set(start + row, false));
        }
        copied
    }

    fn finish(self) -> Column {
        match self.values {
            Values::F64(v) => Column::from_f64_validity(v, self.validity),
            Values::I64(v) => Column::from_i64_validity(v, self.validity),
            Values::Bool(v) => Column::from_bool_validity(v, self.validity),
        }
    }
}

/// A chunk that does not fit where the scan placed it: a logic error or
/// a source that changed under the reader, never rows in the wrong place.
fn misplaced(spec: ChunkSpec, message: String) -> Error {
    Error::Malformed { line: spec.first_record, offset: Some(spec.offset), column: None, message }
}

impl Assembly {
    /// The frame of a stream scanned into `specs` holding `records`
    /// records (a header included when `opts.has_header`), sampled as
    /// `names` and `hint`.
    pub fn new(
        names: &[String],
        hint: &[DataType],
        specs: &[ChunkSpec],
        records: usize,
        opts: &CsvOptions,
    ) -> Self {
        let header = usize::from(opts.has_header);
        let rows = records.saturating_sub(header);
        let starts = specs
            .iter()
            .map(|spec| spec.first_record.saturating_sub(1 + header))
            .chain([rows])
            .collect();
        Assembly {
            names: names.to_vec(),
            hint: hint.to_vec(),
            specs: specs.to_vec(),
            starts,
            placed: hint.iter().map(|&dtype| Placed::new(dtype, rows)).collect(),
        }
    }

    /// Write the columns of chunk `index` that parsed at their hinted
    /// type into the chunk's rows. An error, with nothing misplaced, when
    /// the chunk is not the scan's chunk `index` or holds another number
    /// of rows than the scan counted for it.
    pub fn write(&mut self, index: usize, chunk: &ParsedChunk) -> Result<()> {
        let rows = match (self.specs.get(index), self.starts.get(index), self.starts.get(index + 1))
        {
            (Some(&spec), Some(&start), Some(&end)) if spec == chunk.spec => start..end,
            _ => {
                return Err(misplaced(
                    chunk.spec,
                    format!("chunk {index} is not a chunk of the scan"),
                ))
            }
        };
        if (chunk.nrows, chunk.columns.len()) != (rows.len(), self.placed.len()) {
            let message = format!(
                "chunk {index} parsed {} rows of {} columns where the scan counted {} of {}",
                chunk.nrows,
                chunk.columns.len(),
                rows.len(),
                self.placed.len()
            );
            return Err(misplaced(chunk.spec, message));
        }
        let slots = self.placed.iter_mut().zip(&self.hint);
        for ((placed, &want), (col, &have)) in slots.zip(chunk.columns.iter().zip(&chunk.dtypes)) {
            if let Some(placed) = placed.as_mut().filter(|_| written_in_place(want, have)) {
                if !placed.write(rows.clone(), col) {
                    return Err(misplaced(
                        chunk.spec,
                        format!("chunk {index} has a column of another shape"),
                    ));
                }
            }
        }
        Ok(())
    }

    /// The frame, from every chunk's [`ChunkRest`] in chunk order.
    /// `reparse(spec, schema)` re-reads one chunk's text and parses it
    /// again under `schema` (a [`parse_chunk`] call over wherever the
    /// caller keeps the bytes).
    pub fn finish(
        self,
        mut rests: Vec<ChunkRest>,
        mut reparse: impl FnMut(ChunkSpec, &[DataType]) -> Result<ParsedChunk>,
    ) -> Result<DataFrame> {
        let Assembly { names, hint, specs, starts, placed } = self;
        if rests.len() != specs.len()
            || rests.iter().zip(&specs).any(|(rest, &spec)| rest.spec != spec)
        {
            return Err(Error::Io(format!(
                "{} chunks to assemble where the scan cut {}",
                rests.len(),
                specs.len()
            )));
        }
        let global = global_schema(&hint, rests.iter().map(|rest| &rest.dtypes));
        for rest in &mut rests {
            // Widening repair: this chunk parsed a column as a narrower
            // type before some other chunk forced Str, or as integers
            // with a `-0` among them (-0.0 as a float) before some other
            // chunk forced Float64; the exact raw spellings only exist in
            // the source text.
            let stale: Vec<bool> = (rest.dtypes.iter().zip(&global).zip(&rest.negative_zeros))
                .map(|((&have, &want), &negative_zero)| {
                    needs_text_repair(have, want)
                        || negative_zero && (have, want) == (DataType::Int64, DataType::Float64)
                })
                .collect();
            if stale.contains(&true) {
                let fresh = reparse(rest.spec, &global)?;
                if fresh.nrows != rest.nrows {
                    return Err(misplaced(
                        rest.spec,
                        format!("re-read {} rows of {}", fresh.nrows, rest.nrows),
                    ));
                }
                for ((slot, col), stale) in rest.columns.iter_mut().zip(fresh.columns).zip(stale) {
                    if stale {
                        *slot = Some(col);
                    }
                }
            }
        }
        let chunk_rows: Vec<Range<usize>> =
            starts.iter().zip(starts.iter().skip(1)).map(|(&start, &end)| start..end).collect();
        let mut pairs = Vec::with_capacity(names.len());
        for (c, ((name, placed), (&hinted, &want))) in
            names.into_iter().zip(placed).zip(hint.iter().zip(&global)).enumerate()
        {
            // Column by column, the parts move out of the chunks.
            let parts = rests.iter_mut().map(|rest| rest.columns.get_mut(c).and_then(Option::take));
            let column = match placed {
                Some(placed) if want == hinted => placed.finish(),
                Some(Placed { values: Values::I64(ints), validity })
                    if want == DataType::Float64 =>
                {
                    // Some chunk read a float: the integer rows are cast
                    // where they lie, the widened chunks' rows laid over.
                    let mut placed = Placed { values: Values::F64(int_to_float(ints)), validity };
                    for (part, rows) in parts.zip(&chunk_rows) {
                        match part {
                            Some(col) if !placed.write(rows.clone(), &col) => {
                                return Err(Error::Io(format!(
                                    "column {name}: a {} part of a Float64 column",
                                    col.dtype().name()
                                )));
                            }
                            _ => {}
                        }
                    }
                    placed.finish()
                }
                placed if want == DataType::Str => {
                    // Every chunk's text is in its rest; rows written in
                    // place are stale and go first.
                    drop(placed);
                    let parts = parts.map(|part| {
                        part.ok_or_else(|| {
                            Error::Io(format!("column {name}: a chunk lost its text"))
                        })
                    });
                    Column::concat_owned(parts.collect::<Result<_>>()?)?
                }
                _ => {
                    return Err(Error::Io(format!(
                        "column {name}: {} cannot widen to {}",
                        hinted.name(),
                        want.name()
                    )))
                }
            };
            pairs.push((name, column));
        }
        DataFrame::new(pairs)
    }
}

/// The canonical invalid-UTF-8 error for a failed validation whose input
/// started at absolute byte `base` of the source, so the reported byte is
/// absolute in the file.
pub fn utf8_error(e: &std::str::Utf8Error, base: u64) -> Error {
    let offset = base + e.valid_up_to() as u64;
    Error::Malformed {
        line: 0,
        offset: Some(offset),
        column: None,
        message: format!("file is not valid UTF-8 (first bad byte at offset {offset})"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::csv::read_csv_str;

    /// The rows of a string column (a null reads as `""`, as its slot
    /// always has).
    fn texts(col: &Column) -> Vec<&str> {
        col.str_iter().unwrap().map(Option::unwrap_or_default).collect()
    }

    fn specs_of(text: &str, chunk_bytes: usize) -> Vec<ChunkSpec> {
        chunk_specs(text.as_bytes(), chunk_bytes, 1).0
    }

    fn specs_cover(text: &str, specs: &[ChunkSpec]) {
        let mut pos = 0u64;
        for s in specs {
            assert_eq!(s.offset, pos, "chunks must tile the stream");
            pos += s.len as u64;
        }
        assert_eq!(pos, text.len() as u64);
    }

    #[test]
    fn scanner_cuts_on_record_boundaries() {
        let text = "a,b\n1,2\n3,4\n5,6\n";
        let specs = specs_of(text, 5);
        specs_cover(text, &specs);
        assert!(specs.len() > 1);
        for s in &specs {
            // Every chunk ends just after a newline (or at EOF).
            let end = (s.offset as usize + s.len - 1).min(text.len() - 1);
            assert_eq!(text.as_bytes()[end], b'\n');
        }
        assert_eq!(specs[0].first_record, 1);
    }

    #[test]
    fn scanner_never_cuts_inside_quotes() {
        let text = "h\n\"long\nquoted\nfield\",x\ntail\n";
        for budget in 1..text.len() + 1 {
            let specs = specs_of(text, budget);
            specs_cover(text, &specs);
            for s in &specs {
                let span = &text[s.offset as usize..s.offset as usize + s.len];
                // Quote parity must be even inside every chunk.
                assert_eq!(span.bytes().filter(|&b| b == b'"').count() % 2, 0, "budget {budget}");
            }
        }
    }

    #[test]
    fn scanner_incremental_feed_matches_whole_slice() {
        let text = "a,b\n\"x\ny\",2\nlast";
        let whole = chunk_specs(text.as_bytes(), 4, 2);
        for block in 1..6 {
            let mut out = Vec::new();
            let mut sc = BoundaryScanner::new(4, 2);
            for chunk in text.as_bytes().chunks(block) {
                sc.feed(chunk, &mut out);
            }
            let end = sc.finish(&mut out);
            assert_eq!((out, end), whole, "block size {block}");
        }
    }

    /// The scanner as it was before it took words: one `match` per byte,
    /// with the record count made exact.
    fn per_byte_reference(
        bytes: &[u8],
        chunk_bytes: usize,
        sample_records: usize,
    ) -> (Vec<ChunkSpec>, ScanEnd) {
        let (mut out, mut in_quotes, mut records_done) = (Vec::new(), false, 0);
        let (mut chunk_start, mut chunk_first_record, mut sample_end) = (0, 1, None);
        let mut last_record_end = 0;
        let mut close = |end: usize, records_done: usize, out: &mut Vec<ChunkSpec>| {
            out.push(ChunkSpec {
                offset: chunk_start as u64,
                len: end - chunk_start,
                first_record: chunk_first_record,
            });
            chunk_start = end;
            chunk_first_record = records_done + 1;
        };
        for (i, &b) in bytes.iter().enumerate() {
            match b {
                b'"' => in_quotes = !in_quotes,
                b'\n' if !in_quotes => {
                    records_done += 1;
                    last_record_end = i + 1;
                    if records_done == sample_records {
                        sample_end = Some(i + 1);
                    }
                    if i + 1 - out.last().map_or(0, |s: &ChunkSpec| s.offset as usize + s.len)
                        >= chunk_bytes
                    {
                        close(i + 1, records_done, &mut out);
                    }
                }
                _ => {}
            }
        }
        let closed = out.last().map_or(0, |s| s.offset as usize + s.len);
        if bytes.len() > closed {
            close(bytes.len(), records_done + 1, &mut out);
        }
        // Bytes after the last record's newline are one more record.
        let records = records_done + usize::from(bytes.len() > last_record_end);
        (out, ScanEnd { sample_len: sample_end.unwrap_or(bytes.len()), records })
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(96))]

        /// Soups dense in quotes and newlines, long enough to span many
        /// words, fed in blocks of every size 1..=17 after a first block
        /// of 0..8 bytes, so words start at every offset of the stream
        /// and every quote and newline meets every lane of a word.
        #[test]
        fn word_at_a_time_feed_matches_the_per_byte_scanner(
            soup in "[ab\"\n\r]{0,160}",
            chunk_bytes in 1usize..40,
            sample_records in 1usize..12,
        ) {
            use proptest::prop_assert_eq;
            let bytes = soup.as_bytes();
            let want = per_byte_reference(bytes, chunk_bytes, sample_records);
            prop_assert_eq!(&chunk_specs(bytes, chunk_bytes, sample_records), &want);
            for block in 1..=17 {
                for lead in 0..8usize.min(bytes.len() + 1) {
                    let mut out = Vec::new();
                    let mut scanner = BoundaryScanner::new(chunk_bytes, sample_records);
                    let (head, rest) = bytes.split_at(lead);
                    scanner.feed(head, &mut out);
                    rest.chunks(block).for_each(|b| scanner.feed(b, &mut out));
                    let end = scanner.finish(&mut out);
                    prop_assert_eq!(&(out, end), &want, "block {} after {}", block, lead);
                }
            }
        }
    }

    #[test]
    fn scanner_first_record_numbers() {
        let text = "h\na\nb\nc\nd\n";
        let specs = specs_of(text, 2);
        // Chunks of "h\n", "a\n", ... records 1..=5.
        let firsts: Vec<usize> = specs.iter().map(|s| s.first_record).collect();
        assert_eq!(firsts, vec![1, 2, 3, 4, 5]);
    }

    #[test]
    fn scanner_notes_where_the_sample_ends() {
        // Records: header, a quoted two-line record, "2", unterminated "3".
        let text = "h\n\"x\ny\"\n2\n3";
        for chunk_bytes in [1, 4, 100] {
            let sample =
                |records| &text[..chunk_specs(text.as_bytes(), chunk_bytes, records).1.sample_len];
            assert_eq!(sample(1), "h\n");
            assert_eq!(sample(2), "h\n\"x\ny\"\n");
            assert_eq!(sample(3), "h\n\"x\ny\"\n2\n");
            // The unterminated last record ends with the stream, and so
            // does a sample that wants more records than there are.
            assert_eq!(sample(4), text);
            assert_eq!(sample(1000), text);
        }
        assert_eq!(chunk_specs(b"", 4, 3), (Vec::new(), ScanEnd { sample_len: 0, records: 0 }));
    }

    #[test]
    fn scanner_counts_records_exactly() {
        let quoted = "h\n\"x\ny\"\n2\n";
        let crlf = "h\r\n1\r\n2\r\n";
        for (text, want) in [
            ("h\n1\n", 2),
            ("h\n1", 2),
            ("", 0),
            ("\n", 1),
            ("h\n\n\n", 3),
            (quoted, 3),
            (&quoted[..quoted.len() - 1], 3),
            (crlf, 3),
            (&crlf[..crlf.len() - 1], 3),
            (&crlf[..crlf.len() - 2], 3),
            // A byte-order mark opens no record; text after it does.
            ("\u{feff}", 0),
            ("\u{feff}h", 1),
            ("\u{feff}h\n1\n", 2),
            ("\u{feff}\n", 1),
        ] {
            // Whatever the chunk budget, so that a stream ending in a
            // newline is also seen with its last chunk still open, and
            // however the stream is fed.
            for chunk_bytes in [1, 3, 1 << 20] {
                let whole = chunk_specs(text.as_bytes(), chunk_bytes, 1);
                assert_eq!(whole.1.records, want, "{text:?} in chunks of {chunk_bytes}");
                for block in 1..4 {
                    let mut scanner = BoundaryScanner::new(chunk_bytes, 1);
                    let mut out = Vec::new();
                    text.as_bytes().chunks(block).for_each(|b| scanner.feed(b, &mut out));
                    let end = scanner.finish(&mut out);
                    assert_eq!((out, end), whole, "{text:?} fed {block} bytes at a time");
                }
                // The count is what the chunks' parses read.
                let read: usize = whole
                    .0
                    .iter()
                    .map(|&spec| records(&text[spec.offset as usize..][..spec.len], spec).count())
                    .sum();
                assert_eq!(read, want, "{text:?} in chunks of {chunk_bytes}");
            }
        }
    }

    #[test]
    fn parse_chunk_matches_sequential_on_single_chunk() {
        let text = "a,b,c\n1,x,true\n2.5,y,false\n,z,\n";
        let opts = CsvOptions::default();
        let (names, hint) = sample_schema(text, &opts).unwrap();
        let whole = ChunkSpec { offset: 0, len: text.len(), first_record: 1 };
        let parsed = parse_chunk(text, whole, &hint, &names, &opts).unwrap();
        let seq = read_csv_str(text, &opts).unwrap();
        assert_eq!(parsed.nrows, seq.nrows());
        for (c, name) in names.iter().enumerate() {
            let col = seq.column(name).unwrap();
            assert_eq!(parsed.dtypes[c], col.dtype());
            assert_eq!(parsed.columns[c].content_fingerprint(), col.content_fingerprint());
        }
    }

    #[test]
    fn parse_chunk_errors_carry_absolute_position() {
        // Chunk starting at absolute offset 100, first record number 11.
        let text = "1,2\n3\n";
        let opts = CsvOptions::default();
        let spec = ChunkSpec { offset: 100, len: text.len(), first_record: 11 };
        let names = ["a".to_string(), "b".to_string()];
        let err = parse_chunk(text, spec, &[DataType::Int64; 2], &names, &opts).unwrap_err();
        match err {
            Error::Malformed { line, offset, .. } => {
                assert_eq!(line, 12);
                assert_eq!(offset, Some(104));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    /// `parse_chunk` over all of `text` under `hint`, and how many times
    /// it tokenized a record.
    fn parse_counting(text: &str, hint: &[DataType], opts: &CsvOptions) -> (Result<ParsedChunk>, usize) {
        let names: Vec<String> = (0..hint.len()).map(|i| format!("c{i}")).collect();
        let spec = ChunkSpec { offset: 0, len: text.len(), first_record: 1 };
        let before = RECORDS_TOKENIZED.with(|n| n.get());
        let parsed = parse_chunk(text, spec, hint, &names, opts);
        (parsed, RECORDS_TOKENIZED.with(|n| n.get()) - before)
    }

    #[test]
    fn one_pass_when_the_hint_holds_two_when_it_does_not() {
        use DataType::*;
        let opts = CsvOptions { has_header: false, ..CsvOptions::default() };
        let text = "1,x,true\n2,,false\nNA,z,\n4,w,TRUE\n";
        let (parsed, tokenized) = parse_counting(text, &[Int64, Str, Bool], &opts);
        let parsed = parsed.unwrap();
        assert_eq!((parsed.nrows, tokenized), (4, 4), "right hint: every record read once");
        assert_eq!(parsed.dtypes, [Int64, Str, Bool]);

        // A hint that is merely narrower than needed still costs one pass
        // when it holds for a column, and a second one only for the chunk
        // that contradicts it: ints then a float, bools then text.
        let (parsed, tokenized) = parse_counting("1,true\n2,false\n2.5,no\n3,true\n", &[Int64, Bool], &opts);
        let parsed = parsed.unwrap();
        assert_eq!((parsed.nrows, tokenized), (4, 8), "contradicted hint: every record read twice");
        assert_eq!(parsed.dtypes, [Float64, Str]);
        assert_eq!(parsed.columns[0].f64_values().unwrap(), [1.0, 2.0, 2.5, 3.0]);
        assert_eq!(texts(&parsed.columns[1]), ["true", "false", "no", "true"]);
    }

    #[test]
    fn widened_columns_join_every_field_and_keep_raw_spellings() {
        use DataType::*;
        let opts = CsvOptions { has_header: false, ..CsvOptions::default() };
        // Column 0: the contradiction (1.5) comes first and text later, so
        // the join must keep going after the builder stopped. Column 1:
        // bool against int is `Str`, not a numeric promotion. Column 2
        // holds; column 3 widens on its last field; nulls join nothing.
        let text = "07,true,1,1\n1.5,NA,2,2\n,3,3,\n x ,false,4,4.25\n";
        let (parsed, tokenized) = parse_counting(text, &[Int64, Bool, Int64, Int64], &opts);
        let parsed = parsed.unwrap();
        assert_eq!(tokenized, 8);
        assert_eq!(parsed.dtypes, [Str, Str, Int64, Float64]);
        assert_eq!(texts(&parsed.columns[0]), ["07", "1.5", "", " x "]);
        assert_eq!(parsed.columns[0].null_count(), 1);
        assert_eq!(texts(&parsed.columns[1]), ["true", "", "3", "false"]);
        assert_eq!(parsed.columns[2].i64_values().unwrap(), [1, 2, 3, 4]);
        assert_eq!(parsed.columns[3].f64_values().unwrap(), [1.0, 2.0, 0.0, 4.25]);
        assert_eq!(parsed.columns[3].null_count(), 1);
    }

    #[test]
    fn a_contradiction_does_not_mask_a_later_malformed_record() {
        use DataType::*;
        let opts = CsvOptions { has_header: false, ..CsvOptions::default() };
        // Record 2 contradicts the hint; record 4 is ragged; record 5 has
        // a quoting error. The first in file order is the one reported,
        // in one pass.
        let text = "1,2\noops,3\n4,5\n6\n7,\"8\n";
        let (parsed, tokenized) = parse_counting(text, &[Int64, Int64], &opts);
        assert_eq!(tokenized, 4);
        match parsed.unwrap_err() {
            Error::Malformed { line: 4, offset: Some(15), column: None, message } => {
                assert_eq!(message, "expected 2 fields, found 1");
            }
            other => panic!("unexpected {other:?}"),
        }
        // Within one record a quoting error is reported before its count.
        let (parsed, _) = parse_counting("1,2\nx,y,\"z\n", &[Int64, Int64], &opts);
        assert_eq!(
            parsed.unwrap_err(),
            Error::Csv { line: 2, message: "unterminated quoted field".into() }
        );
    }

    #[test]
    fn global_schema_is_chunking_invariant() {
        use DataType::*;
        let hint = vec![Int64, Bool];
        let a = global_schema(&hint, &[vec![Int64, Bool], vec![Float64, Str]]);
        let b = global_schema(&hint, &[vec![Float64, Str], vec![Int64, Bool]]);
        assert_eq!(a, b);
        assert_eq!(a, vec![Float64, Str]);
    }

    #[test]
    fn int_to_float_cast_matches_reparse() {
        let ints: Vec<i64> = vec![0, 1, -7, i64::MAX, i64::MIN, 1 << 53];
        let reparsed: Vec<f64> =
            ints.iter().map(|v| v.to_string().parse::<f64>().unwrap()).collect();
        assert_eq!(int_to_float(ints), reparsed);
    }

    /// The text cut into chunks of `chunk_bytes` and parsed under its
    /// sampled hint, and an assembly for it.
    fn scanned(
        text: &str,
        chunk_bytes: usize,
        opts: &CsvOptions,
    ) -> (Vec<ParsedChunk>, Vec<DataType>, Assembly) {
        let (specs, end) = chunk_specs(text.as_bytes(), chunk_bytes, opts.sample_records());
        let (names, hint) = sample_schema(&text[..end.sample_len], opts).unwrap();
        let parsed = specs
            .iter()
            .map(|&spec| {
                parse_chunk(&text[spec.offset as usize..][..spec.len], spec, &hint, &names, opts)
                    .unwrap()
            })
            .collect();
        let assembly = Assembly::new(&names, &hint, &specs, end.records, opts);
        (parsed, hint, assembly)
    }

    #[test]
    fn chunks_write_their_own_rows_in_any_order() {
        // `i` widens to Float64 in a late chunk, `s` to Str in another;
        // `f` and `b` hold their hints and have nulls; `t` is text.
        let mut text = String::from("i,f,b,s,t\n");
        for k in 0..40 {
            let f = if k % 7 == 3 { "NA".to_string() } else { format!("{k}.25") };
            let b = ["true", "false", ""][k % 3];
            let i = if k == 31 {
                "2.5".to_string()
            } else if k % 9 == 4 {
                String::new()
            } else {
                k.to_string()
            };
            let s = if k == 35 { "oops".to_string() } else { format!("0{k}") };
            text.push_str(&format!("{i},{f},{b},{s},w{}\n", k % 4));
        }
        let opts = CsvOptions { infer_rows: 5, ..CsvOptions::default() };
        let want = read_csv_str(&text, &opts).unwrap();
        assert_eq!(want.column("i").unwrap().dtype(), DataType::Float64);
        assert_eq!(want.column("s").unwrap().dtype(), DataType::Str);
        for chunk_bytes in [1, 30, 100, 1 << 20] {
            let (parsed, hint, mut assembly) = scanned(&text, chunk_bytes, &opts);
            let mut rests: Vec<Option<ChunkRest>> = vec![None; parsed.len()];
            // Last chunk first, then the rest: rows land by position.
            let order = (0..parsed.len())
                .rev()
                .step_by(2)
                .chain((0..parsed.len()).rev().skip(1).step_by(2));
            for i in order {
                assembly.write(i, &parsed[i]).unwrap();
                rests[i] = Some(parsed[i].clone().into_rest(&hint));
            }
            let reparse = |spec: ChunkSpec, schema: &[DataType]| {
                let names = want.names();
                parse_chunk(&text[spec.offset as usize..][..spec.len], spec, schema, names, &opts)
            };
            let got =
                assembly.finish(rests.into_iter().map(Option::unwrap).collect(), reparse).unwrap();
            assert_eq!(got, want, "chunks of {chunk_bytes}");
            assert_eq!(
                got.content_fingerprint(),
                want.content_fingerprint(),
                "chunks of {chunk_bytes}"
            );
        }
    }

    #[test]
    fn a_chunk_that_does_not_fit_its_rows_is_an_error() {
        let opts = CsvOptions::default();
        let text = "a,b\n1,x\n2,y\n3,z\n";
        let (parsed, _, mut assembly) = scanned(text, 4, &opts);
        assert_eq!(parsed.len(), 4);
        // Another chunk's index, an index past the scan, a chunk one row
        // short: each refused, none of them written.
        assert!(matches!(assembly.write(2, &parsed[1]), Err(Error::Malformed { .. })));
        assert!(matches!(assembly.write(9, &parsed[1]), Err(Error::Malformed { .. })));
        let mut short = parsed[1].clone();
        short.nrows = 0;
        let Error::Malformed { message, .. } = assembly.write(1, &short).unwrap_err() else {
            panic!("a short chunk must be malformed");
        };
        let want = "parsed 0 rows of 2 columns where the scan counted 1 of 2";
        assert!(message.contains(want), "{message}");
        // A scan that miscounted the file fails the same way.
        let (specs, end) = chunk_specs(text.as_bytes(), 4, opts.sample_records());
        let (names, hint) = sample_schema(text, &opts).unwrap();
        let mut miscounted = Assembly::new(&names, &hint, &specs, end.records + 1, &opts);
        assert!(miscounted.write(3, &parsed[3]).is_err());
        // Too few chunks to finish.
        let rests = vec![parsed[0].clone().into_rest(&hint)];
        assert!(assembly.finish(rests, |_, _| unreachable!()).is_err());
    }

    #[test]
    fn repair_recovers_raw_spelling() {
        // "07" infers as Int64 (parses as 7) and "1.50" as Float64, but
        // the raw spellings must survive the column's widening to Str:
        // the assembly re-reads exactly the chunk that parsed them
        // narrower.
        let chunks = ["07,x\n1.50,y\n", "oops,z\n"];
        let opts = CsvOptions { has_header: false, ..CsvOptions::default() };
        let names = ["a".to_string(), "b".to_string()];
        let hint = [DataType::Int64, DataType::Str];
        let specs = [
            ChunkSpec { offset: 0, len: chunks[0].len(), first_record: 1 },
            ChunkSpec { offset: chunks[0].len() as u64, len: chunks[1].len(), first_record: 3 },
        ];
        let parse = |k: usize, schema: &[DataType]| {
            parse_chunk(chunks[k], specs[k], schema, &names, &opts)
        };
        let parsed = vec![parse(0, &hint).unwrap(), parse(1, &hint).unwrap()];
        assert_eq!(parsed[0].dtypes, [DataType::Float64, DataType::Str]);
        let mut assembly = Assembly::new(&names, &hint, &specs, 3, &opts);
        let mut rests = Vec::new();
        for (i, chunk) in parsed.into_iter().enumerate() {
            assembly.write(i, &chunk).unwrap();
            rests.push(chunk.into_rest(&hint));
        }
        let mut reread = Vec::new();
        let df = assembly
            .finish(rests, |spec, schema| {
                reread.push(spec);
                parse(usize::from(spec != specs[0]), schema)
            })
            .unwrap();
        assert_eq!(reread, [specs[0]]);
        assert_eq!(texts(df.column("a").unwrap()), ["07", "1.50", "oops"]);
    }

    #[test]
    fn needs_repair_table() {
        use DataType::*;
        assert!(!needs_text_repair(Int64, Int64));
        assert!(!needs_text_repair(Int64, Float64));
        assert!(needs_text_repair(Int64, Str));
        assert!(needs_text_repair(Bool, Str));
        assert!(needs_text_repair(Float64, Str));
    }
}
