//! Golden values: the reader's output on a fixed fixture, pinned field
//! by field on the default options, and the handling of a UTF-8
//! byte-order mark in front of the header.

// Test code asserts freely; the package-level unwrap/expect deny
// targets shipped code.
#![allow(clippy::unwrap_used, clippy::expect_used, clippy::indexing_slicing, clippy::panic)]
use eda_dataframe::csv::chunk::DEFAULT_CHUNK_BYTES;
use eda_dataframe::csv::{read_csv, read_csv_str, CsvOptions};
use eda_dataframe::{DataType, Error, Value};
use eda_io::chunked::{read_csv_chunked, read_csv_str_chunked, IngestOptions};

/// A fixture exercising every dtype, nulls in every column, quoted
/// fields with embedded delimiters/newlines, CRLF endings, and values
/// whose exact spelling matters ("07" must stay text-like if the column
/// is text; 2.50 must parse to the same bits).
const FIXTURE: &str = "id,price,label,active,note\r\n\
1,2.50,alpha,true,\"plain\"\r\n\
2,NA,\"be,ta\",false,\"line\nbreak\"\n\
3,-0.125,gamma,NA,\"quote \"\"q\"\" here\"\n\
4,1e3,delta,true,NA\n\
NA,0.0,NA,false,last\n";

#[test]
fn golden_values_pin_the_fixture_schema() {
    let df = read_csv_str_chunked(FIXTURE, &IngestOptions::default()).unwrap();
    assert_eq!(df.nrows(), 5);
    assert_eq!(df.names(), ["id", "price", "label", "active", "note"]);
    assert_eq!(df.column("id").unwrap().dtype(), DataType::Int64);
    assert_eq!(df.column("price").unwrap().dtype(), DataType::Float64);
    assert_eq!(df.column("label").unwrap().dtype(), DataType::Str);
    assert_eq!(df.column("active").unwrap().dtype(), DataType::Bool);
    assert_eq!(df.column("note").unwrap().dtype(), DataType::Str);

    assert_eq!(df.get(0, "price").unwrap(), Value::Float(2.50));
    assert!(df.get(1, "price").unwrap().is_null());
    assert_eq!(df.get(3, "price").unwrap(), Value::Float(1000.0));
    assert_eq!(df.get(1, "label").unwrap(), Value::Str("be,ta".into()));
    assert_eq!(df.get(1, "note").unwrap(), Value::Str("line\nbreak".into()));
    assert_eq!(df.get(2, "note").unwrap(), Value::Str("quote \"q\" here".into()));
    assert!(df.get(2, "active").unwrap().is_null());
    assert!(df.get(4, "id").unwrap().is_null());
}

/// A byte-order mark is not part of the first column's name (nor, without
/// a header, of the first field), whichever chunk the rest of the header
/// lands in; positions in errors still count it.
#[test]
fn utf8_bom_is_not_part_of_the_first_column_name() {
    const BOM_CSV: &str = "\u{feff}a,b\n1,2\n3,x\n";
    let want = read_csv_str("a,b\n1,2\n3,x\n", &CsvOptions::default()).unwrap();
    assert_eq!(want.names(), ["a", "b"]);
    let dir = std::env::temp_dir().join("eda_io_golden_test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("bom.csv");
    std::fs::write(&path, BOM_CSV).unwrap();

    assert_eq!(read_csv_str(BOM_CSV, &CsvOptions::default()).unwrap(), want);
    assert_eq!(read_csv(&path).unwrap(), want);
    for chunk_bytes in [1, 4, DEFAULT_CHUNK_BYTES] {
        let opts = IngestOptions { chunk_bytes, workers: 2, ..IngestOptions::default() };
        let from_str = read_csv_str_chunked(BOM_CSV, &opts).unwrap();
        let from_file = read_csv_chunked(&path, &opts).unwrap();
        for got in [from_str, from_file] {
            assert_eq!(got, want, "chunk_bytes={chunk_bytes}");
            assert_eq!(got.content_fingerprint(), want.content_fingerprint());
        }

        // The ragged record "5" starts at byte 3 (mark) + 8 of the file.
        let err = read_csv_str_chunked("\u{feff}a,b\n1,2\n5\n", &opts).unwrap_err();
        assert!(
            matches!(err, Error::Malformed { line: 3, offset: Some(11), .. }),
            "chunk_bytes={chunk_bytes}: {err:?}"
        );

        // No header: the mark must not turn the first field into text.
        let headless = CsvOptions { has_header: false, ..CsvOptions::default() };
        let opts = IngestOptions { csv: headless, ..opts };
        let df = read_csv_str_chunked("\u{feff}1,2\n3,4\n", &opts).unwrap();
        assert_eq!(df.column("column_0").unwrap().dtype(), DataType::Int64);
    }
    std::fs::remove_file(&path).ok();
}
