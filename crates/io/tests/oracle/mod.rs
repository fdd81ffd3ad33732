//! Test-only oracle: the sequential two-pass CSV reader that
//! `eda_dataframe::csv::read_csv_str` was before the chunked pipeline
//! became the only reader, moved here verbatim. The chunking-invariance
//! tests compare production against it bit-for-bit and error-for-error.

use eda_dataframe::csv::{
    infer_dtype, infer_schema, is_null_field, parse_line, split_records_offsets, widen, CsvOptions,
};
use eda_dataframe::{ColumnBuilder, DataFrame, Error, Result};

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
    let mut schema = infer_schema(sample.iter(), ncols);

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
                if let Some(t) = infer_dtype(&field) {
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
