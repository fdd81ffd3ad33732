//! Test-only oracle: the sequential two-pass CSV reader that
//! `eda_dataframe::csv::read_csv_str` was before the chunked pipeline
//! became the only reader, and the tokenizer it was built on
//! (`split_records`, `split_records_offsets`, `parse_line`: one `String`
//! per field, one `Vec` per record) from before the borrowed-field
//! tokenizer replaced it, all moved here verbatim. The
//! chunking-invariance tests compare production against it bit-for-bit
//! and error-for-error.
//!
//! One thing differs from the moved code: `infer_schema` takes the
//! caller's null lexicon and hands it to `infer_dtype` (which now asks
//! for it), so a custom null spelling inside the sample no longer votes
//! `Str` — the bug production fixed in the same change
//! (`CsvOptions::extra_nulls` was ignored by schema sampling).

use eda_dataframe::csv::{infer_dtype, is_null_field, widen, CsvOptions};
use eda_dataframe::{ColumnBuilder, DataFrame, DataType, Error, Result};

/// Split raw CSV text into logical records, respecting quoted newlines.
///
/// Returns byte ranges into `text`, one per record, excluding the line
/// terminator. Both `\n` and `\r\n` are accepted. A trailing newline does
/// not produce an empty final record.
pub fn split_records(text: &str) -> Vec<&str> {
    split_records_offsets(text).into_iter().map(|(_, r)| r).collect()
}

/// Like [`split_records`], but each record carries the byte offset of its
/// first byte within `text`, so callers (notably the chunked reader) can
/// report absolute file positions in errors.
pub fn split_records_offsets(text: &str) -> Vec<(u64, &str)> {
    let bytes = text.as_bytes();
    let mut records = Vec::new();
    let mut start = 0;
    let mut in_quotes = false;
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'"' => in_quotes = !in_quotes,
            b'\n' if !in_quotes => {
                let mut end = i;
                if end > start && bytes[end - 1] == b'\r' {
                    end -= 1;
                }
                records.push((start as u64, &text[start..end]));
                start = i + 1;
            }
            _ => {}
        }
        i += 1;
    }
    if start < bytes.len() {
        let mut end = bytes.len();
        if end > start && bytes[end - 1] == b'\r' {
            end -= 1;
        }
        records.push((start as u64, &text[start..end]));
    }
    records
}

/// Parse one record into fields.
///
/// `line_no` is used for error reporting only (1-based).
pub fn parse_line(record: &str, sep: char, line_no: usize) -> Result<Vec<String>> {
    let mut fields = Vec::new();
    let mut field = String::new();
    let mut chars = record.chars().peekable();
    loop {
        match chars.next() {
            None => {
                fields.push(field);
                return Ok(fields);
            }
            Some(c) if c == sep => {
                fields.push(std::mem::take(&mut field));
            }
            Some('"') => {
                if !field.is_empty() {
                    return Err(Error::Csv {
                        line: line_no,
                        message: "unexpected quote inside unquoted field".into(),
                    });
                }
                // Quoted field: consume until closing quote.
                loop {
                    match chars.next() {
                        None => {
                            return Err(Error::Csv {
                                line: line_no,
                                message: "unterminated quoted field".into(),
                            });
                        }
                        Some('"') => {
                            if chars.peek() == Some(&'"') {
                                chars.next();
                                field.push('"');
                            } else {
                                break;
                            }
                        }
                        Some(c) => field.push(c),
                    }
                }
                // After a closing quote only a separator or end-of-record
                // is legal.
                match chars.peek() {
                    None => {}
                    Some(&c) if c == sep => {}
                    Some(_) => {
                        return Err(Error::Csv {
                            line: line_no,
                            message: "data after closing quote".into(),
                        });
                    }
                }
            }
            Some(c) => field.push(c),
        }
    }
}

/// Infer a type per column from sampled rows of raw fields.
///
/// Columns whose sample is entirely null default to `Str`.
pub fn infer_schema<'a, R>(rows: R, ncols: usize, extra_nulls: &[String]) -> Vec<DataType>
where
    R: IntoIterator<Item = &'a Vec<String>>,
{
    let mut types: Vec<Option<DataType>> = vec![None; ncols];
    for row in rows {
        for (i, field) in row.iter().enumerate().take(ncols) {
            if let Some(t) = infer_dtype(field, extra_nulls) {
                types[i] = Some(match types[i] {
                    Some(prev) => widen(prev, t),
                    None => t,
                });
            }
        }
    }
    types
        .into_iter()
        .map(|t| t.unwrap_or(DataType::Str))
        .collect()
}

fn ragged_row(line: usize, offset: u64, expected: usize, found: usize) -> Error {
    Error::Malformed {
        line,
        offset: Some(offset),
        column: None,
        message: format!("expected {expected} fields, found {found}"),
    }
}

/// Parse CSV text into a frame (the pre-pipeline sequential reader).
pub fn read_csv_str(text: &str, options: &CsvOptions) -> Result<DataFrame> {
    let records = split_records_offsets(text);
    if records.is_empty() {
        return Ok(DataFrame::empty());
    }

    let (header, data_records, first_data_line) = if options.has_header {
        let header = parse_line(records[0].1, options.separator, 1)?;
        (header, &records[1..], 2usize)
    } else {
        let ncols = parse_line(records[0].1, options.separator, 1)?.len();
        let header = (0..ncols).map(|i| format!("column_{i}")).collect();
        (header, &records[..], 1usize)
    };
    let ncols = header.len();

    // Pass 1: parse a sample and infer types.
    let sample: Result<Vec<Vec<String>>> = data_records
        .iter()
        .take(options.infer_rows)
        .enumerate()
        .map(|(i, (_, rec))| parse_line(rec, options.separator, first_data_line + i))
        .collect();
    let sample = sample?;
    for (i, row) in sample.iter().enumerate() {
        if row.len() != ncols {
            return Err(ragged_row(first_data_line + i, data_records[i].0, ncols, row.len()));
        }
    }
    let mut schema = infer_schema(sample.iter(), ncols, &options.extra_nulls);

    // Pass 2: build columns, widening when a later field contradicts the
    // sampled type. Widening restarts the affected column from raw fields,
    // so all raw fields are retained until the end.
    let mut raw_columns: Vec<Vec<Option<String>>> = vec![Vec::new(); ncols];
    for (i, (rec_offset, rec)) in data_records.iter().enumerate() {
        let row = if i < sample.len() {
            sample[i].clone()
        } else {
            parse_line(rec, options.separator, first_data_line + i)?
        };
        if row.len() != ncols {
            return Err(ragged_row(first_data_line + i, *rec_offset, ncols, row.len()));
        }
        for (c, field) in row.into_iter().enumerate() {
            if is_null_field(&field, &options.extra_nulls) {
                raw_columns[c].push(None);
            } else {
                if let Some(t) = infer_dtype(&field, &options.extra_nulls) {
                    schema[c] = widen(schema[c], t);
                }
                raw_columns[c].push(Some(field));
            }
        }
    }

    let mut pairs = Vec::with_capacity(ncols);
    for (c, name) in header.into_iter().enumerate() {
        let mut builder = ColumnBuilder::for_dtype(schema[c]);
        for field in &raw_columns[c] {
            match field {
                None => builder.push_null(),
                Some(f) => {
                    if !builder.push_parsed(f) {
                        // infer_dtype + widen guarantee parseability; a
                        // failure here is a logic error worth surfacing
                        // as a recoverable error rather than a panic.
                        return Err(Error::Malformed {
                            line: 0,
                            offset: None,
                            column: Some(name),
                            message: format!(
                                "field {f:?} does not parse as inferred type {}",
                                schema[c].name()
                            ),
                        });
                    }
                }
            }
        }
        pairs.push((name, builder.finish()));
    }
    DataFrame::new(pairs)
}
