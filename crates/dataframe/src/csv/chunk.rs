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
//!    the type-inference sample end. Memory is O(#chunks): only
//!    `(offset, len, first_record)` triples are retained, never the bytes.
//! 2. **Schema sample** ([`sample_schema`]): column names and a schema
//!    hint from the header plus the first `infer_rows` data records.
//! 3. **Per-chunk parse** ([`parse_chunk`]): one pass over the chunk's
//!    text — records are found lazily, each field is lent by the
//!    tokenizer as a slice of the text, null-checked once and parsed
//!    straight into its column's typed builder at the hinted type; no
//!    field is staged as a `String`. A column with a field that
//!    contradicts the hint stops building and joins types for the rest
//!    of the pass, and a second pass over the same text then builds just
//!    those columns at the joined type: one pass when the sample was
//!    right, two when it was not. Chunks are independent, so this is the
//!    step a worker pool parallelizes. Errors carry absolute 1-based
//!    record numbers and absolute byte offsets.
//! 4. **Fold** ([`fold_chunks`]): per-chunk columns are joined under the
//!    widened global schema in chunk order. The only lossless numeric
//!    promotion is i64 → f64 (bit-identical to re-parsing the text, both
//!    round half-to-even); every other promotion targets `Str` and must
//!    re-read the chunk's text to recover the exact raw field spellings
//!    ("widening repair") — rare, and bounded to the affected chunks.
//!
//! Determinism: the frame is bit-identical for every chunking of a fixed
//! input, because the hint is always sampled from the same leading
//! records and the widening join is chunking-invariant (see
//! [`global_schema`]). That is what makes [`DEFAULT_CHUNK_BYTES`] a free
//! choice.

use crate::builder::ColumnBuilder;
use crate::column::Column;
use crate::dtype::DataType;
use crate::error::{Error, Result};
use crate::frame::DataFrame;

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
/// counter, the current chunk's start and the end of the sample. Works on
/// raw bytes — UTF-8 validation happens later, per chunk (safe because
/// `"` and `\n` are ASCII and UTF-8 continuation bytes never collide with
/// ASCII).
#[derive(Debug)]
pub struct BoundaryScanner {
    chunk_bytes: usize,
    sample_records: usize,
    pos: u64,
    in_quotes: bool,
    /// Records completed so far across the whole stream.
    records_done: usize,
    chunk_start: u64,
    chunk_first_record: usize,
    /// Where record number `sample_records` ended, once seen.
    sample_end: Option<u64>,
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
            chunk_start: 0,
            chunk_first_record: 1,
            sample_end: None,
        }
    }

    /// Scan the next block of the stream, appending any completed chunks.
    /// Record ends are found a word at a time ([`record_end`]): only words
    /// that hold a quote, or lie inside a quoted field, are read byte by
    /// byte.
    pub fn feed(&mut self, block: &[u8], out: &mut Vec<ChunkSpec>) {
        let mut rest = block;
        while let Some(newline) = record_end(rest, &mut self.in_quotes) {
            self.pos += newline as u64 + 1;
            self.records_done += 1;
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

    /// Flush the trailing partial chunk (a final record without a newline
    /// still terminates at end-of-stream) and return the length of the
    /// stream's leading whole-record prefix that holds the sample: the
    /// first `sample_records` records, or everything when there are fewer.
    pub fn finish(mut self, out: &mut Vec<ChunkSpec>) -> u64 {
        if self.pos > self.chunk_start {
            let end = self.pos;
            self.records_done += 1; // the unterminated final record
            self.close_chunk(end, out);
        }
        self.sample_end.unwrap_or(self.pos)
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

/// Scan an in-memory byte slice in one call: its chunks and the length
/// of its sample prefix.
pub fn chunk_specs(
    bytes: &[u8],
    chunk_bytes: usize,
    sample_records: usize,
) -> (Vec<ChunkSpec>, usize) {
    let mut out = Vec::new();
    let mut scanner = BoundaryScanner::new(chunk_bytes, sample_records);
    scanner.feed(bytes, &mut out);
    let sample_len = scanner.finish(&mut out) as usize;
    (out, sample_len)
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
}

/// The records of one chunk as `(record number, byte offset, text)`,
/// numbered and positioned absolutely in the stream. A UTF-8 byte-order
/// mark opening the stream belongs to no field and is skipped here, the
/// one place the header record is read from.
fn records(text: &str, spec: ChunkSpec) -> impl Iterator<Item = (usize, u64, &str)> {
    const BOM: char = '\u{feff}';
    let (text, base) = match text.strip_prefix(BOM) {
        Some(rest) if spec.offset == 0 => (rest, BOM.len_utf8() as u64),
        _ => (text, spec.offset),
    };
    parser::records(text)
        .enumerate()
        .map(move |(i, (offset, record))| (spec.first_record + i, base + offset, record))
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
        if is_null_field(field, extra_nulls) {
            builder.push_null();
        } else if !builder.push_parsed(field) {
            // Every earlier field parsed as the schema's type, so the join
            // from here on equals the join over the whole column.
            self.dtype = widen(self.dtype, infer_dtype(field, extra_nulls).unwrap_or(DataType::Str));
            self.builder = None;
        }
    }
}

/// Parse one chunk's text into typed columns.
///
/// * `spec` — where `text` sits in the source: errors are rebased to its
///   absolute offset and record number, and the chunk that starts at
///   record 1 skips the header row (when there is one).
/// * `schema` — the sampled hint, or the global schema when re-reading a
///   chunk for [`fold_chunks`]; the chunk widens it locally when its
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
            Slot { dtype, builder: Some(ColumnBuilder::for_dtype(dtype)) }
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
                if is_null_field(field, &opts.extra_nulls) {
                    builder.push_null();
                } else if !builder.push_parsed(field) {
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
    let columns = slots
        .into_iter()
        .zip(rebuilt)
        .filter_map(|(slot, rebuilt)| slot.builder.or(rebuilt))
        .map(ColumnBuilder::finish)
        .collect();
    Ok(ParsedChunk { spec, dtypes, columns, nrows })
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
/// in-memory promotion; promotions into `Str` lost the raw spelling
/// (`" 7"`, `"True"`, `"1.50"`) at parse time.
pub fn needs_text_repair(have: DataType, want: DataType) -> bool {
    have != want && !(have == DataType::Int64 && want == DataType::Float64)
}

/// Numeric i64 → f64 promotion, preserving validity. `v as f64` rounds
/// half-to-even exactly like parsing the original integer literal as a
/// float, so this is bit-identical to parsing the text as f64.
pub fn cast_int_to_float(col: &Column) -> Column {
    let vals: Vec<f64> = match col.i64_values() {
        Some(ints) => ints.iter().map(|&v| v as f64).collect(),
        None => Vec::new(),
    };
    Column::from_f64_validity(vals, col.validity().cloned())
}

/// Join parsed chunks, in chunk order, into one frame under the widened
/// global schema. `reparse(spec, schema)` re-reads one chunk's text and
/// parses it again under `schema` (a [`parse_chunk`] call over wherever
/// the caller keeps the bytes).
pub fn fold_chunks(
    names: &[String],
    hint: &[DataType],
    mut chunks: Vec<ParsedChunk>,
    mut reparse: impl FnMut(ChunkSpec, &[DataType]) -> Result<ParsedChunk>,
) -> Result<DataFrame> {
    let global = global_schema(hint, chunks.iter().map(|chunk| &chunk.dtypes));
    for chunk in &mut chunks {
        // Widening repair: this chunk parsed a column as a narrower type
        // before some other chunk forced Str; the exact raw spellings
        // only exist in the source text. Parsed under the global schema
        // every column of the chunk comes out at its final type.
        if chunk.dtypes.iter().zip(&global).any(|(&have, &want)| needs_text_repair(have, want)) {
            *chunk = reparse(chunk.spec, &global)?;
        }
    }
    // Column by column, the parts move out of the consumed chunks into the
    // concatenation and are freed as it goes.
    let mut columns: Vec<_> = chunks.into_iter().map(|chunk| chunk.columns.into_iter()).collect();
    let mut pairs: Vec<(String, Column)> = Vec::with_capacity(names.len());
    for (name, &want) in names.iter().zip(&global) {
        let parts = columns
            .iter_mut()
            .filter_map(Iterator::next)
            .map(|col| if col.dtype() == want { col } else { cast_int_to_float(&col) })
            .collect();
        pairs.push((name.clone(), Column::concat_owned(parts)?));
    }
    DataFrame::new(pairs)
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
            let sample_len = sc.finish(&mut out) as usize;
            assert_eq!((out, sample_len), whole, "block size {block}");
        }
    }

    /// The scanner as it was before it took words: one `match` per byte.
    fn per_byte_reference(
        bytes: &[u8],
        chunk_bytes: usize,
        sample_records: usize,
    ) -> (Vec<ChunkSpec>, usize) {
        let (mut out, mut in_quotes, mut records_done) = (Vec::new(), false, 0);
        let (mut chunk_start, mut chunk_first_record, mut sample_end) = (0, 1, None);
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
        (out, sample_end.unwrap_or(bytes.len()))
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
                    let sample_len = scanner.finish(&mut out) as usize;
                    prop_assert_eq!(&(out, sample_len), &want, "block {} after {}", block, lead);
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
            let sample = |records| &text[..chunk_specs(text.as_bytes(), chunk_bytes, records).1];
            assert_eq!(sample(1), "h\n");
            assert_eq!(sample(2), "h\n\"x\ny\"\n");
            assert_eq!(sample(3), "h\n\"x\ny\"\n2\n");
            // The unterminated last record ends with the stream, and so
            // does a sample that wants more records than there are.
            assert_eq!(sample(4), text);
            assert_eq!(sample(1000), text);
        }
        assert_eq!(chunk_specs(b"", 4, 3), (Vec::new(), 0));
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
        let col = Column::from_opt_i64(ints.iter().map(|&v| Some(v)).collect());
        let cast = cast_int_to_float(&col);
        let reparsed: Vec<f64> =
            ints.iter().map(|v| v.to_string().parse::<f64>().unwrap()).collect();
        assert_eq!(cast.f64_values().unwrap(), &reparsed[..]);
    }

    #[test]
    fn repair_recovers_raw_spelling() {
        // "07" infers as Int64 (parses as 7) and "1.50" as Float64, but
        // the raw spellings must survive the column's widening to Str:
        // the fold re-reads exactly the chunk that parsed them narrower.
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
        let mut reread = Vec::new();
        let df = fold_chunks(&names, &hint, parsed, |spec, schema| {
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
