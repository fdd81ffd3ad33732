//! [`DataFrame`] → CSV writer.

use std::fmt::Write as _;
use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::Path;

use crate::bitmap::Bitmap;
use crate::column::write_float;
use crate::dict::StrDict;
use crate::error::{Error, Result};
use crate::frame::DataFrame;

/// Serialize a frame to CSV text.
pub fn write_csv_string(df: &DataFrame) -> String {
    let mut out = String::new();
    for_each_line(df, |line| {
        out.push_str(line);
        Ok(())
    })
    .expect("formatting into a String cannot fail");
    out
}

/// Write a frame to a CSV file, a line at a time: neither the file nor
/// any cell is materialised as a `String` of its own.
pub fn write_csv<P: AsRef<Path>>(df: &DataFrame, path: P) -> Result<()> {
    let mut w = BufWriter::new(File::create(path)?);
    for_each_line(df, |line| Ok(w.write_all(line.as_bytes())?))?;
    w.flush()?;
    Ok(())
}

/// One column's cells, read in place.
enum Cells<'a> {
    F64(&'a [f64]),
    I64(&'a [i64]),
    /// Codes and the dictionary they index.
    Str(&'a [u32], &'a StrDict),
    Bool(&'a [bool]),
}

impl Cells<'_> {
    /// Append the text of the (valid) cell at `row`.
    fn write(&self, line: &mut String, row: usize) -> std::fmt::Result {
        match self {
            Cells::F64(vals) => vals.get(row).map_or(Ok(()), |&v| write_float(line, v)),
            Cells::I64(vals) => vals.get(row).map_or(Ok(()), |v| write!(line, "{v}")),
            Cells::Bool(vals) => vals.get(row).map_or(Ok(()), |v| write!(line, "{v}")),
            Cells::Str(codes, dict) => {
                codes.get(row).and_then(|&c| dict.get(c)).into_iter().for_each(|v| escape_into(line, v));
                Ok(())
            }
        }
    }
}

/// Lend `sink` the header line and then every row's line (terminator
/// included), all formatted into one reused buffer. Columns are walked in
/// lockstep by row index over their buffer windows.
fn for_each_line(df: &DataFrame, mut sink: impl FnMut(&str) -> Result<()>) -> Result<()> {
    let mut line = String::new();
    for (i, name) in df.names().iter().enumerate() {
        if i > 0 {
            line.push(',');
        }
        escape_into(&mut line, name);
    }
    line.push('\n');
    sink(&line)?;

    let cols: Vec<(Cells<'_>, Option<&Bitmap>)> = df
        .iter()
        .map(|(_, col)| {
            let cells = if let Some(vals) = col.f64_values() {
                Cells::F64(vals)
            } else if let Some(vals) = col.i64_values() {
                Cells::I64(vals)
            } else if let Some((codes, dict)) = col.str_codes() {
                Cells::Str(codes, dict)
            } else {
                Cells::Bool(col.bool_values().unwrap_or_default())
            };
            (cells, col.validity())
        })
        .collect();
    for row in 0..df.nrows() {
        line.clear();
        for (i, (cells, validity)) in cols.iter().enumerate() {
            if i > 0 {
                line.push(',');
            }
            if validity.is_none_or(|v| v.get(row)) {
                cells.write(&mut line, row).map_err(|e| Error::Io(e.to_string()))?;
            }
        }
        line.push('\n');
        sink(&line)?;
    }
    Ok(())
}

/// Append `field`, quoted when it contains separators, quotes, or
/// newlines.
fn escape_into(out: &mut String, field: &str) {
    if !field.contains([',', '"', '\n', '\r']) {
        out.push_str(field);
        return;
    }
    out.push('"');
    for (i, segment) in field.split('"').enumerate() {
        if i > 0 {
            out.push_str("\"\"");
        }
        out.push_str(segment);
    }
    out.push('"');
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::column::Column;
    use crate::csv::reader::{read_csv_str, CsvOptions};
    use crate::value::Value;

    fn sample() -> DataFrame {
        DataFrame::new(vec![
            ("n".into(), Column::from_opt_i64(vec![Some(1), None, Some(3)])),
            (
                "s".into(),
                Column::from_opt_string(vec![
                    Some("plain".into()),
                    Some("a,b \"q\"".into()),
                    None,
                ]),
            ),
        ])
        .unwrap()
    }

    #[test]
    fn writes_header_and_rows() {
        let csv = write_csv_string(&sample());
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines[0], "n,s");
        assert_eq!(lines[1], "1,plain");
        assert_eq!(lines[2], ",\"a,b \"\"q\"\"\"");
        assert_eq!(lines[3], "3,");
    }

    #[test]
    fn round_trips_through_reader() {
        let df = sample();
        let csv = write_csv_string(&df);
        let back = read_csv_str(&csv, &CsvOptions::default()).unwrap();
        assert_eq!(back.nrows(), df.nrows());
        assert_eq!(back.column("n").unwrap().null_count(), 1);
        assert_eq!(
            back.get(1, "s").unwrap(),
            Value::Str("a,b \"q\"".into())
        );
    }

    #[test]
    fn text_written_from_a_parsed_file_is_the_file() {
        // Repeated values (one dictionary entry, many rows), quoted
        // separators and quotes, an embedded newline, an empty string
        // next to a null, multi-byte text.
        let records = [
            "id,note,city\n",
            "1,plain,Oslo\n",
            "2,\"a,b \"\"q\"\"\",Oslo\n",
            "3,\"line\nbreak\",Århus\n",
            "4,,Oslo\n",
            "5,plain,\"a,b \"\"q\"\"\"\n",
            "6,\"line\nbreak\",Århus\n",
        ];
        let file = records.concat();
        let df = read_csv_str(&file, &CsvOptions::default()).unwrap();
        assert_eq!(df.column("note").unwrap().null_count(), 1);
        assert_eq!(df.get(2, "note").unwrap(), Value::Str("line\nbreak".into()));
        assert_eq!(write_csv_string(&df), file);
        // A window of it writes its own rows.
        assert_eq!(write_csv_string(&df.slice(1, 4)), [records[0], &records[2..6].concat()].concat());
    }

    #[test]
    fn escape_rules() {
        let escape = |field: &str| {
            let mut out = String::from("x,");
            escape_into(&mut out, field);
            out.split_off(2)
        };
        assert_eq!(escape("plain"), "plain");
        assert_eq!(escape(""), "");
        assert_eq!(escape("a,b"), "\"a,b\"");
        assert_eq!(escape("q\"q"), "\"q\"\"q\"");
        assert_eq!(escape("\"\""), "\"\"\"\"\"\"");
        assert_eq!(escape("l\nl"), "\"l\nl\"");
        assert_eq!(escape("l\rl"), "\"l\rl\"");
    }

    #[test]
    fn file_write() {
        let dir = std::env::temp_dir().join("eda_dataframe_csvw_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("out.csv");
        write_csv(&sample(), &path).unwrap();
        assert!(std::fs::read_to_string(&path).unwrap().starts_with("n,s\n"));
        std::fs::remove_file(&path).ok();
    }
}
