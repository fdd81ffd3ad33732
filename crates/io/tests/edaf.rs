//! `.edaf` format integration tests: round-trips across every dtype
//! (nulls included), O(1) column projection, footer metadata, and
//! corruption handling — hostile footer counts and random byte damage
//! must come back as errors, never as a panic or an absurd allocation.

// Test code asserts freely; the package-level unwrap/expect deny
// targets shipped code.
#![allow(clippy::unwrap_used, clippy::expect_used, clippy::indexing_slicing, clippy::panic)]
use eda_dataframe::csv::{read_csv_str, CsvOptions};
use eda_dataframe::{Column, DataFrame, DataType, Error};
use eda_io::edaf::{edaf_info, read_edaf, read_edaf_columns, write_edaf};
use proptest::prelude::*;
use std::io::Write;

fn temp_path(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join("eda_io_edaf_test");
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(name)
}

/// A frame with all four dtypes and nulls in each.
fn all_types_frame() -> DataFrame {
    DataFrame::new(vec![
        (
            "f".into(),
            Column::from_opt_f64(vec![Some(1.5), None, Some(-0.0), Some(f64::MAX), None]),
        ),
        ("i".into(), Column::from_opt_i64(vec![Some(i64::MIN), Some(0), None, Some(42), Some(42)])),
        (
            "s".into(),
            Column::from_opt_string(vec![
                Some("alpha".into()),
                Some("".into()),
                Some("naïve \"q\"\nline".into()),
                None,
                Some("alpha".into()),
            ]),
        ),
        ("b".into(), Column::from_opt_bool(vec![Some(true), None, Some(false), Some(true), None])),
    ])
    .unwrap()
}

#[test]
fn round_trip_preserves_every_dtype_and_null() {
    let df = all_types_frame();
    let path = temp_path("roundtrip.edaf");
    let info = write_edaf(&path, &df).unwrap();
    let back = read_edaf(&path).unwrap();
    assert_eq!(back, df);
    assert_eq!(back.content_fingerprint(), df.content_fingerprint());
    assert_eq!(info.content_fingerprint, back.content_fingerprint());
    assert_eq!(info.nrows, 5);
    assert_eq!(info.ncols(), 4);
    assert_eq!(info.file_bytes, std::fs::metadata(&path).unwrap().len());
    std::fs::remove_file(&path).ok();
}

#[test]
fn csv_to_edaf_round_trip_is_bit_identical() {
    let csv = "a,b,c\n1,x,2.5\n2,NA,NA\n3,\"y,z\",0.25\n";
    let df = read_csv_str(csv, &CsvOptions::default()).unwrap();
    let path = temp_path("from_csv.edaf");
    write_edaf(&path, &df).unwrap();
    let back = read_edaf(&path).unwrap();
    assert_eq!(back, df);
    assert_eq!(back.content_fingerprint(), df.content_fingerprint());
    std::fs::remove_file(&path).ok();
}

#[test]
fn projection_reads_only_requested_columns() {
    let df = all_types_frame();
    let path = temp_path("project.edaf");
    write_edaf(&path, &df).unwrap();

    let projected = read_edaf_columns(&path, &["s", "f"]).unwrap();
    assert_eq!(projected.names(), ["s", "f"]);
    assert_eq!(projected.nrows(), df.nrows());
    assert_eq!(projected.column("s").unwrap(), df.column("s").unwrap());
    assert_eq!(projected.column("f").unwrap(), df.column("f").unwrap());

    let missing = read_edaf_columns(&path, &["nope"]).unwrap_err();
    assert_eq!(missing, Error::ColumnNotFound("nope".into()));
    std::fs::remove_file(&path).ok();
}

#[test]
fn info_reports_encodings_without_reading_data() {
    // A long constant int column must pick RLE; a two-category string
    // column must pick the dictionary.
    let df = DataFrame::new(vec![
        ("k".into(), Column::from_i64(vec![7; 10_000])),
        (
            "cat".into(),
            Column::from_string((0..10_000).map(|i| if i % 2 == 0 { "yes" } else { "no" }.into()).collect()),
        ),
    ])
    .unwrap();
    let path = temp_path("encodings.edaf");
    let written = write_edaf(&path, &df).unwrap();
    let info = edaf_info(&path).unwrap();
    assert_eq!(info, written);
    let k = &info.columns[0];
    assert_eq!(k.dtype, DataType::Int64);
    assert!(k.byte_len < 100, "RLE page for a constant column must be tiny, got {}", k.byte_len);
    let cat = &info.columns[1];
    assert_eq!(cat.dtype, DataType::Str);
    assert!(
        cat.byte_len < 2 * 10_000,
        "dict page must beat plain strings, got {}",
        cat.byte_len
    );
    // The whole file is far smaller than the naive 8B-per-int layout.
    assert!(info.file_bytes < 40_000, "file_bytes = {}", info.file_bytes);
    std::fs::remove_file(&path).ok();
}

#[test]
fn empty_frame_round_trips() {
    let df = DataFrame::empty();
    let path = temp_path("empty.edaf");
    write_edaf(&path, &df).unwrap();
    let back = read_edaf(&path).unwrap();
    assert_eq!(back.ncols(), 0);
    assert_eq!(back.nrows(), 0);
    std::fs::remove_file(&path).ok();
}

#[test]
fn corrupt_and_foreign_files_error_cleanly() {
    let not_edaf = temp_path("not.edaf");
    std::fs::File::create(&not_edaf).unwrap().write_all(b"a,b\n1,2\n").unwrap();
    assert!(matches!(read_edaf(&not_edaf).unwrap_err(), Error::Malformed { .. }));

    // Truncating a valid file must be detected by the trailer check.
    let valid = temp_path("truncate.edaf");
    write_edaf(&valid, &all_types_frame()).unwrap();
    let bytes = std::fs::read(&valid).unwrap();
    let cut = temp_path("cut.edaf");
    std::fs::File::create(&cut).unwrap().write_all(&bytes[..bytes.len() - 5]).unwrap();
    assert!(matches!(read_edaf(&cut).unwrap_err(), Error::Malformed { .. }));

    for p in [not_edaf, valid, cut] {
        std::fs::remove_file(&p).ok();
    }
}

/// A footer whose counts promise more values than the page holds must be
/// refused before anything is allocated for them: `1 << 40` values once
/// aborted the process in `Vec::with_capacity`, `1 << 61` panicked with
/// a capacity overflow.
#[test]
fn hostile_footer_counts_error_before_allocating() {
    const ROWS: usize = 41;
    // One null-free column per dtype and page encoding the writer picks
    // between; (name, column, encoding id the writer must have chosen).
    let distinct = |i: usize| (i as i64).wrapping_mul(0x5851_f42d_4c95_7f2d) | 1 << 40;
    let cases: Vec<(&str, Column, u8)> = vec![
        ("f64", Column::from_f64((0..ROWS).map(|i| i as f64 + 0.5).collect()), 0),
        ("i64_raw", Column::from_i64((0..ROWS).map(distinct).collect()), 0),
        ("i64_delta", Column::from_i64((0..ROWS).map(|i| 1000 + i as i64).collect()), 1),
        ("i64_rle", Column::from_i64(vec![7; ROWS]), 2),
        ("str_plain", Column::from_string((0..ROWS).map(|i| format!("v{i}")).collect()), 0),
        ("str_dict", Column::from_string((0..ROWS).map(|i| format!("c{}", i % 2)).collect()), 1),
        ("bool", Column::from_bool((0..ROWS).map(|i| i % 3 == 0).collect()), 0),
    ];
    for (name, column, encoding) in cases {
        let df = DataFrame::new(vec![("c".into(), column)]).unwrap();
        let path = temp_path(&format!("hostile_{name}.edaf"));
        let info = write_edaf(&path, &df).unwrap();
        assert_eq!(info.columns[0].encoding, encoding, "{name}: writer picked another encoding");
        assert!(!info.columns[0].has_validity);
        let bytes = std::fs::read(&path).unwrap();
        // The footer of a one-column file ends: ... valid_count:u64
        // nrows:u64 fingerprint:u64, then the 8-byte trailer.
        let nrows_at = bytes.len() - 24;
        let valid_count_at = bytes.len() - 32;
        for at in [nrows_at, valid_count_at] {
            assert_eq!(bytes[at..at + 8], (ROWS as u64).to_le_bytes(), "{name}: footer layout");
        }
        for hostile in [1u64 << 40, 1 << 61, u64::MAX] {
            let mut bad = bytes.clone();
            for at in [nrows_at, valid_count_at] {
                bad[at..at + 8].copy_from_slice(&hostile.to_le_bytes());
            }
            std::fs::write(&path, &bad).unwrap();
            let err = read_edaf(&path).unwrap_err();
            assert!(
                matches!(err, Error::Malformed { offset: Some(_), .. }),
                "{name}, count {hostile}: {err:?}"
            );
        }
        std::fs::remove_file(&path).ok();
    }
}

/// Every single-byte mutation of a small four-dtype file — each of the
/// eight one-bit flips and the all-bits flip of every byte — and every
/// truncation of it reads as an error or as a well-formed frame, never a
/// panic.
#[test]
fn every_byte_flip_and_truncation_reads_or_errors() {
    let path = temp_path("mutated.edaf");
    write_edaf(&path, &all_types_frame()).unwrap();
    let bytes = std::fs::read(&path).unwrap();
    let check = |mutated: &[u8], what: &str| {
        std::fs::write(&path, mutated).unwrap();
        let read = std::panic::catch_unwind(|| read_edaf(&path));
        // Damage the format cannot see (a flipped value bit) still yields
        // a frame, and then a well-formed one.
        if let Ok(df) = read.unwrap_or_else(|_| panic!("{what}: the reader panicked")) {
            assert_eq!(df.ncols(), 4, "{what}");
            for name in df.names() {
                let column = df.column(name).unwrap();
                assert_eq!(column.len(), df.nrows(), "{what}: column {name}");
                assert!(column.null_count() <= column.len(), "{what}: column {name}");
            }
            df.content_fingerprint();
        }
        let info = std::panic::catch_unwind(|| edaf_info(&path));
        assert!(info.is_ok(), "{what}: the footer reader panicked");
    };
    let masks = (0..8).map(|bit| 1u8 << bit).chain([0xFF]);
    for at in 0..bytes.len() {
        for mask in masks.clone() {
            let mut mutated = bytes.clone();
            mutated[at] ^= mask;
            check(&mutated, &format!("byte {at} ^ {mask:#04x}"));
        }
    }
    for len in 0..bytes.len() {
        check(&bytes[..len], &format!("cut to {len} bytes"));
    }
    std::fs::remove_file(&path).ok();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Flip bits anywhere in a four-dtype file (header, validity bitmaps,
    /// pages, footer, trailer), maybe cut it short: reading it is `Ok` or
    /// `Err`, never a panic or an abort.
    #[test]
    fn damaged_files_read_or_error_but_never_panic(
        flips in prop::collection::vec((any::<usize>(), 1u8..=255), 1..4),
        cut in prop::option::of(any::<usize>()),
    ) {
        let path = temp_path("damaged.edaf");
        write_edaf(&path, &all_types_frame()).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        for (at, mask) in flips {
            let at = at % bytes.len();
            bytes[at] ^= mask;
        }
        if let Some(cut) = cut {
            bytes.truncate(cut % (bytes.len() + 1));
        }
        std::fs::write(&path, &bytes).unwrap();
        match read_edaf(&path) {
            // Damage the format cannot see (a flipped value bit) still
            // yields a well-formed frame.
            Ok(df) => prop_assert_eq!(df.ncols(), 4),
            Err(e) => prop_assert!(matches!(e, Error::Malformed { .. } | Error::Io(_)), "{e:?}"),
        }
        let _ = edaf_info(&path);
    }
}
