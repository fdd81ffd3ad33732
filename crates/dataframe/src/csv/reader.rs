//! CSV → [`DataFrame`] reader: the chunk pipeline of [`super::chunk`]
//! mapped inline, on the calling thread, over one in-memory text, each
//! chunk written into the frame's columns as soon as it is parsed.

use std::fs;
use std::path::Path;

use crate::dtype::DataType;
use crate::error::{Error, Result};
use crate::frame::DataFrame;

use super::chunk::{
    chunk_specs, parse_chunk, sample_schema, utf8_error, Assembly, ChunkSpec, DEFAULT_CHUNK_BYTES,
};

/// Options controlling CSV ingestion.
#[derive(Debug, Clone)]
pub struct CsvOptions {
    /// Field separator (default `,`).
    pub separator: char,
    /// Whether the first record is a header row (default `true`).
    pub has_header: bool,
    /// How many data rows to sample for type inference (default 1000).
    pub infer_rows: usize,
    /// Additional spellings (after trim) treated as null.
    pub extra_nulls: Vec<String>,
}

impl Default for CsvOptions {
    fn default() -> Self {
        CsvOptions {
            separator: ',',
            has_header: true,
            infer_rows: 1000,
            extra_nulls: Vec::new(),
        }
    }
}

impl CsvOptions {
    /// Leading records the type-inference sample spans: the header plus
    /// `infer_rows` data records, and never fewer than the one record
    /// that fixes the column count.
    pub fn sample_records(&self) -> usize {
        usize::from(self.has_header).saturating_add(self.infer_rows).max(1)
    }
}

/// Read a CSV file from disk with default options.
///
/// Invalid UTF-8 is a recoverable [`Error::Malformed`] naming the byte
/// offset, not a bare I/O failure.
pub fn read_csv<P: AsRef<Path>>(path: P) -> Result<DataFrame> {
    let bytes = fs::read(path)?;
    let text = String::from_utf8(bytes).map_err(|e| utf8_error(&e.utf8_error(), 0))?;
    read_csv_str(&text, &CsvOptions::default())
}

/// Parse CSV text into a frame.
pub fn read_csv_str(text: &str, options: &CsvOptions) -> Result<DataFrame> {
    let (specs, end) = chunk_specs(text.as_bytes(), DEFAULT_CHUNK_BYTES, options.sample_records());
    let (names, hint) = sample_schema(text.get(..end.sample_len).unwrap_or(text), options)?;
    let parse = |spec: ChunkSpec, schema: &[DataType]| {
        let start = spec.offset as usize;
        let span = text
            .get(start..start + spec.len)
            .ok_or_else(|| Error::Io(format!("chunk at byte {start} is not a span of the text")))?;
        parse_chunk(span, spec, schema, &names, options)
    };
    let mut assembly = Assembly::new(&names, &hint, &specs, end.records, options);
    let mut rests = Vec::with_capacity(specs.len());
    for (i, &spec) in specs.iter().enumerate() {
        let parsed = parse(spec, &hint)?;
        assembly.write(i, &parsed)?;
        rests.push(parsed.into_rest(&hint));
    }
    assembly.finish(rests, parse)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DataType;
    use crate::value::Value;

    #[test]
    fn reads_typed_columns() {
        let csv = "a,b,c,d\n1,1.5,x,true\n2,2.5,y,false\n";
        let df = read_csv_str(csv, &CsvOptions::default()).unwrap();
        assert_eq!(df.nrows(), 2);
        assert_eq!(df.column("a").unwrap().dtype(), DataType::Int64);
        assert_eq!(df.column("b").unwrap().dtype(), DataType::Float64);
        assert_eq!(df.column("c").unwrap().dtype(), DataType::Str);
        assert_eq!(df.column("d").unwrap().dtype(), DataType::Bool);
    }

    #[test]
    fn nulls_are_detected() {
        let csv = "a,b\n1,x\n,\n3,NA\n";
        let df = read_csv_str(csv, &CsvOptions::default()).unwrap();
        assert_eq!(df.column("a").unwrap().null_count(), 1);
        assert_eq!(df.column("b").unwrap().null_count(), 2);
        assert_eq!(df.get(1, "a").unwrap(), Value::Null);
    }

    #[test]
    fn widening_beyond_sample() {
        // Sample window sees only ints; a float appears later.
        let mut csv = String::from("a\n");
        for i in 0..5 {
            csv.push_str(&format!("{i}\n"));
        }
        csv.push_str("9.5\n");
        let opts = CsvOptions { infer_rows: 3, ..CsvOptions::default() };
        let df = read_csv_str(&csv, &opts).unwrap();
        assert_eq!(df.column("a").unwrap().dtype(), DataType::Float64);
        assert_eq!(df.nrows(), 6);
    }

    #[test]
    fn widening_to_string() {
        let csv = "a\n1\n2\noops\n";
        let opts = CsvOptions { infer_rows: 2, ..CsvOptions::default() };
        let df = read_csv_str(csv, &opts).unwrap();
        assert_eq!(df.column("a").unwrap().dtype(), DataType::Str);
    }

    #[test]
    fn no_header_generates_names() {
        let csv = "1,2\n3,4\n";
        let opts = CsvOptions { has_header: false, ..CsvOptions::default() };
        let df = read_csv_str(csv, &opts).unwrap();
        assert_eq!(df.names(), &["column_0".to_string(), "column_1".to_string()]);
        assert_eq!(df.nrows(), 2);
    }

    #[test]
    fn quoted_fields_with_separator() {
        let csv = "name,desc\nx,\"a, b\"\ny,\"line\nbreak\"\n";
        let df = read_csv_str(csv, &CsvOptions::default()).unwrap();
        assert_eq!(df.nrows(), 2);
        assert_eq!(df.get(0, "desc").unwrap(), Value::Str("a, b".into()));
        assert_eq!(df.get(1, "desc").unwrap(), Value::Str("line\nbreak".into()));
    }

    #[test]
    fn ragged_rows_error_with_line_number() {
        let csv = "a,b\n1,2\n3\n";
        let err = read_csv_str(csv, &CsvOptions::default()).unwrap_err();
        match err {
            Error::Malformed { line, offset, message, .. } => {
                assert_eq!(line, 3);
                assert_eq!(offset, Some(8), "byte offset of the record \"3\"");
                assert!(message.contains("expected 2 fields"), "{message}");
            }
            other => panic!("expected malformed error, got {other:?}"),
        }
    }

    #[test]
    fn ragged_row_beyond_sample_window_still_recoverable() {
        let mut csv = String::from("a,b\n");
        for i in 0..6 {
            csv.push_str(&format!("{i},{i}\n"));
        }
        csv.push_str("7\n");
        let opts = CsvOptions { infer_rows: 3, ..CsvOptions::default() };
        let err = read_csv_str(&csv, &opts).unwrap_err();
        match err {
            Error::Malformed { line, .. } => assert_eq!(line, 8),
            other => panic!("expected malformed error, got {other:?}"),
        }
    }

    #[test]
    fn unterminated_quote_is_recoverable() {
        let csv = "a,b\n1,\"open\n";
        let err = read_csv_str(csv, &CsvOptions::default()).unwrap_err();
        match err {
            Error::Csv { message, .. } => assert!(message.contains("unterminated"), "{message}"),
            other => panic!("expected csv error, got {other:?}"),
        }
    }

    #[test]
    fn invalid_utf8_file_is_recoverable() {
        let dir = std::env::temp_dir().join("eda_dataframe_csv_test_utf8");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("bad.csv");
        std::fs::write(&path, b"a,b\n1,\xFF\xFE\n").unwrap();
        let err = read_csv(&path).unwrap_err();
        match err {
            Error::Malformed { column: None, offset, message, .. } => {
                assert_eq!(offset, Some(6));
                assert!(message.contains("UTF-8"), "{message}");
                assert!(message.contains("offset 6"), "{message}");
            }
            other => panic!("expected malformed error, got {other:?}"),
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn empty_input() {
        let df = read_csv_str("", &CsvOptions::default()).unwrap();
        assert_eq!(df.ncols(), 0);
        assert_eq!(df.nrows(), 0);
    }

    #[test]
    fn header_only() {
        let df = read_csv_str("a,b\n", &CsvOptions::default()).unwrap();
        assert_eq!(df.ncols(), 2);
        assert_eq!(df.nrows(), 0);
    }

    #[test]
    fn custom_separator_and_nulls() {
        let csv = "a;b\n1;-\n2;x\n";
        let opts = CsvOptions {
            separator: ';',
            extra_nulls: vec!["-".to_string()],
            ..CsvOptions::default()
        };
        let df = read_csv_str(csv, &opts).unwrap();
        assert_eq!(df.column("b").unwrap().null_count(), 1);
    }

    #[test]
    fn file_round_trip() {
        let dir = std::env::temp_dir().join("eda_dataframe_csv_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.csv");
        std::fs::write(&path, "a,b\n1,x\n2,y\n").unwrap();
        let df = read_csv(&path).unwrap();
        assert_eq!(df.nrows(), 2);
        std::fs::remove_file(&path).ok();
    }
}
