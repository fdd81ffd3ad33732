//! Chunking-invariance property tests: any valid CSV — embedded
//! newlines, quotes, CRLF endings, a byte-order mark, nulls, mixed types,
//! columns that widen in a late chunk — parses to a bit-identical frame
//! through the inline reader (`read_csv_str`) and the parallel one
//! (`read_csv_str_chunked`) at *any* chunk size and worker count, and
//! that frame is the one the sequential two-pass reader this pipeline
//! replaced produces (kept as the test-only [`oracle`]).
//!
//! The property deliberately compares readers over the *same* text
//! rather than values through a write/read cycle: the invariant under
//! test is that chunk boundaries are unobservable.

// Test code asserts freely; the package-level unwrap/expect deny
// targets shipped code.
#![allow(clippy::unwrap_used, clippy::expect_used, clippy::indexing_slicing, clippy::panic)]
mod oracle;

use eda_dataframe::csv::chunk::{
    chunk_specs, parse_chunk, sample_schema, Assembly, ParsedChunk, DEFAULT_CHUNK_BYTES,
};
use eda_dataframe::csv::{fields, read_csv_str, records, CsvOptions, Separator};
use eda_dataframe::{DataFrame, DataType, Result, Value};
use eda_io::chunked::{read_csv_chunked, read_csv_str_chunked, IngestOptions};
use eda_io::stream::fold_csv;
use proptest::prelude::*;

/// CSV-encode one field: quote (and double inner quotes) whenever the
/// raw text contains a metacharacter.
fn encode_field(raw: &str) -> String {
    if raw.contains(['"', ',', '\n', '\r']) {
        format!("\"{}\"", raw.replace('"', "\"\""))
    } else {
        raw.to_string()
    }
}

/// Raw field text drawn from a hostile alphabet: quotes, commas, bare
/// newlines and carriage returns, null spellings, numbers, booleans.
fn arb_field() -> impl Strategy<Value = String> {
    prop_oneof![
        4 => "[a-z0-9,\" \n\r_.-]{0,10}",
        1 => Just("NA".to_string()),
        1 => Just("3.5".to_string()),
        1 => Just("-17".to_string()),
        1 => Just("true".to_string()),
        1 => Just(String::new()),
    ]
}

/// A null spelling.
fn arb_null() -> impl Strategy<Value = String> {
    prop_oneof![Just(String::new()), Just("NA".to_string())]
}

/// An integer field, or a null.
fn arb_int() -> impl Strategy<Value = String> {
    prop_oneof![3 => (-999i64..999).prop_map(|v| v.to_string()), 1 => arb_null()]
}

/// A float field, or a null.
fn arb_float() -> impl Strategy<Value = String> {
    prop_oneof![
        3 => (-999i64..999, 0u32..100).prop_map(|(whole, cents)| format!("{whole}.{cents:02}")),
        1 => Just("1e3".to_string()),
        1 => arb_null(),
    ]
}

/// A boolean field, or a null.
fn arb_bool() -> impl Strategy<Value = String> {
    prop_oneof![
        Just("true".to_string()),
        Just("FALSE".to_string()),
        Just("True".to_string()),
        arb_null()
    ]
}

/// A field that parses as a number but whose spelling only text keeps
/// ("07", "1.50"), or a null.
fn arb_spelled_number() -> impl Strategy<Value = String> {
    prop_oneof![arb_int(), (0i64..99).prop_map(|v| format!("0{v}")), Just("1.50".to_string())]
}

/// One record's fields: three hostile ones, then `i`, `f`, `b` (ints,
/// floats and bools with nulls), `w` (ints), `s` (spelled numbers) and
/// `n` (always null).
fn arb_row() -> impl Strategy<Value = Vec<String>> {
    (
        prop::collection::vec(arb_field(), 3),
        (arb_int(), arb_float(), arb_bool(), arb_int(), arb_spelled_number(), arb_null()),
    )
        .prop_map(|(mut row, (i, f, b, w, s, n))| {
            row.extend([i, f, b, w, s, n]);
            row
        })
}

/// A CSV text and the `infer_rows` to read it with. The sample is a few
/// records, so a float in `w` or a word in `s` at row `float_at` /
/// `word_at` (when there is such a row) widens the column in a chunk the
/// sample never saw: `w` to `Float64`, `s` to `Str`. Line endings are `\n`
/// or `\r\n` per record, the last one may be missing, and a byte-order
/// mark may open the text.
fn arb_csv() -> impl Strategy<Value = (String, usize)> {
    (
        prop::collection::vec(arb_row(), 0..30),
        prop::collection::vec(any::<bool>(), 0..30),
        (any::<bool>(), any::<bool>()),
        (0usize..40, 0usize..40, 1usize..8),
    )
        .prop_map(|(mut rows, crlf, (trailing_newline, bom), (float_at, word_at, infer_rows))| {
            if let Some(row) = rows.get_mut(float_at) {
                row[6] = "2.5".to_string();
            }
            if let Some(row) = rows.get_mut(word_at) {
                row[7] = "word".to_string();
            }
            let mut text = String::from(if bom { "\u{feff}" } else { "" });
            text.push_str("c0,c1,c2,i,f,b,w,s,n\n");
            let nrows = rows.len();
            for (i, row) in rows.into_iter().enumerate() {
                let encoded: Vec<String> = row.iter().map(|f| encode_field(f)).collect();
                text.push_str(&encoded.join(","));
                if i + 1 < nrows || trailing_newline {
                    if crlf.get(i).copied().unwrap_or(false) {
                        text.push_str("\r\n");
                    } else {
                        text.push('\n');
                    }
                }
            }
            (text, infer_rows)
        })
}

fn assert_bit_identical(a: &DataFrame, b: &DataFrame, context: &str) {
    assert_same_bytes(a, b, context);
    assert_eq!(a, b, "{context}: logical equality");
}

/// Names, dtypes and every column's bytes: equal frames, NaN cells
/// included (which logical equality never calls equal).
fn assert_same_bytes(a: &DataFrame, b: &DataFrame, context: &str) {
    assert_eq!(a.names(), b.names(), "{context}: names");
    assert_eq!(a.nrows(), b.nrows(), "{context}: nrows");
    for name in a.names() {
        let (ca, cb) = (a.column(name).unwrap(), b.column(name).unwrap());
        assert_eq!(ca.dtype(), cb.dtype(), "{context}: dtype of {name}");
        assert_eq!(
            ca.content_fingerprint(),
            cb.content_fingerprint(),
            "{context}: bytes of {name}"
        );
    }
    assert_eq!(a.content_fingerprint(), b.content_fingerprint(), "{context}: frame bytes");
}

fn opts(chunk_bytes: usize, workers: usize) -> IngestOptions {
    IngestOptions { chunk_bytes, workers, ..IngestOptions::default() }
}

fn temp_csv(name: &str, contents: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join("eda_io_roundtrip_test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(name);
    std::fs::write(&path, contents).unwrap();
    path
}

/// The borrowed-field tokenizer's fields, materialised like the oracle's.
fn tokenize(record: &str, sep: char, line_no: usize) -> Result<Vec<String>> {
    fields(record, Separator::new(sep), line_no).map(|f| f.map(|f| f.into_owned())).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2048))]

    /// Hostile records — quotes at field start and mid-field, `""`,
    /// quoted separators and newlines, `\r`, trailing separators, the
    /// empty record, a character sharing the multi-byte separator's lead
    /// byte — tokenize to the fields, or the `Error::Csv`, of the
    /// `String`-per-field tokenizer this one replaced, under every
    /// separator (one of them the quote itself).
    #[test]
    fn tokenizer_matches_the_oracle_on_hostile_records(
        record in "[ab\",;\t§¢ \n\r]{0,14}",
        line_no in 1usize..1000,
    ) {
        for sep in [',', ';', '\t', '§', '"'] {
            prop_assert_eq!(
                tokenize(&record, sep, line_no),
                oracle::parse_line(&record, sep, line_no),
                "separator {:?}", sep
            );
        }
    }

    /// Quote-parity record splitting: same records, same offsets, CRLF
    /// and unterminated or unbalanced tails included.
    #[test]
    fn record_splitting_matches_the_oracle(text in "[a\",\n\r]{0,40}") {
        let want = oracle::split_records_offsets(&text);
        prop_assert_eq!(records(&text).collect::<Vec<_>>(), want.clone());
        let bare: Vec<&str> = want.into_iter().map(|(_, record)| record).collect();
        prop_assert_eq!(oracle::split_records(&text), bare);
    }
}

#[test]
fn tokenizer_matches_the_oracle_on_the_named_cases() {
    for record in [
        "", ",", "a,", ",a", "\"\"", "\"\"\"\"", "\"a\"\"b\",c", "a\"b", "\"a\"b", "\"a", "\"a\"\"",
        "\"a,b\",\"c\nd\"", "a\r", "\"a\"\r", "x,\"y\",", "§", "a§\"b§c\"§", "¢§¢",
    ] {
        for sep in [',', ';', '\t', '§'] {
            assert_eq!(tokenize(record, sep, 7), oracle::parse_line(record, sep, 7), "{record:?} {sep:?}");
        }
    }
}

/// `CsvOptions::extra_nulls` reaches schema sampling: a custom null
/// spelling gives the same column whether or not it falls inside the
/// sample (it used to vote `Str` inside it).
#[test]
fn custom_nulls_do_not_vote_on_the_sampled_type() {
    let text = "a\n1\n-\n2\n";
    let nulls = vec!["-".to_string()];
    let inside = CsvOptions { extra_nulls: nulls.clone(), ..CsvOptions::default() };
    let outside = CsvOptions { extra_nulls: nulls, infer_rows: 1, ..CsvOptions::default() };
    for opts in [&inside, &outside] {
        let df = read_csv_str(text, opts).unwrap();
        let a = df.column("a").unwrap();
        assert_eq!((a.dtype(), a.null_count()), (DataType::Int64, 1), "infer_rows {}", opts.infer_rows);
        assert_eq!(a.i64_values().unwrap(), [1, 0, 2]);
        assert_bit_identical(&oracle::read_csv_str(text, opts).unwrap(), &df, "oracle");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn chunked_reader_is_chunking_invariant(
        (csv, infer_rows) in arb_csv(),
        chunk_bytes in 1usize..200,
        workers in prop::sample::select(vec![1usize, 2, 4]),
    ) {
        let csv_opts = CsvOptions { infer_rows, ..CsvOptions::default() };
        // The oracle predates byte-order marks; a mark changes no value.
        let want = oracle::read_csv_str(csv.trim_start_matches('\u{feff}'), &csv_opts).unwrap();
        let inline = read_csv_str(&csv, &csv_opts).unwrap();
        assert_bit_identical(&want, &inline, "read_csv_str");
        let opts =
            |chunk_bytes| IngestOptions { csv: csv_opts.clone(), ..opts(chunk_bytes, workers) };
        // One chunk large enough to hold everything: the degenerate
        // parallel case, and the size production runs at.
        let one = read_csv_str_chunked(&csv, &opts(DEFAULT_CHUNK_BYTES)).unwrap();
        assert_bit_identical(&want, &one, "1-chunk");
        // Many chunks at an adversarial size (down to 1 byte: every
        // record its own chunk).
        let many = read_csv_str_chunked(&csv, &opts(chunk_bytes)).unwrap();
        assert_bit_identical(&want, &many, &format!("chunk_bytes={chunk_bytes}"));
    }

    #[test]
    fn error_identity_is_chunking_invariant_for_ragged_rows(
        nrows in 1usize..30,
        bad_row in 0usize..30,
        chunk_bytes in 1usize..64,
        workers in prop::sample::select(vec![1usize, 2, 4]),
    ) {
        // Exactly one structural error: every reader must report the
        // same error (line, offset, message) as the sequential oracle.
        let bad_row = bad_row % nrows;
        let mut csv = String::from("a,b\n");
        for i in 0..nrows {
            if i == bad_row {
                csv.push_str("only-one-field\n");
            } else {
                csv.push_str(&format!("{i},{i}\n"));
            }
        }
        let want = oracle::read_csv_str(&csv, &CsvOptions::default()).unwrap_err();
        prop_assert_eq!(&want, &read_csv_str(&csv, &CsvOptions::default()).unwrap_err());
        for chunk_bytes in [chunk_bytes, DEFAULT_CHUNK_BYTES] {
            let par = read_csv_str_chunked(&csv, &opts(chunk_bytes, workers)).unwrap_err();
            prop_assert_eq!(&want, &par);
        }
    }
}

/// One driver, two steps: the chunks `fold_csv` hands out, written into
/// an assembly, finish to the frame `read_csv_chunked` writes as it
/// parses. The input makes the assembly work for its result: column `s`
/// meets a float after its ints (numeric cast), column `n` a float and
/// then text (every earlier chunk is re-read, which is what recovers
/// "07").
#[test]
fn streamed_chunks_fold_to_the_ingested_frame() {
    let mut csv = String::from("n,s\n07,1\n");
    for i in 0..40 {
        csv.push_str(&format!("{i},{i}\n"));
    }
    csv.push_str("2.5,1.5\n");
    for i in 0..10 {
        csv.push_str(&format!("{i},{i}\n"));
    }
    csv.push_str("oops,3\n");
    let path = temp_csv("two_folds.csv", &csv);
    let opts = IngestOptions { csv: CsvOptions { infer_rows: 5, ..CsvOptions::default() }, ..opts(32, 2) };

    let (specs, end) = chunk_specs(csv.as_bytes(), opts.chunk_bytes, opts.csv.sample_records());
    let (names, hint) = sample_schema(&csv[..end.sample_len], &opts.csv).unwrap();
    assert_eq!(hint, [DataType::Int64, DataType::Int64]);
    let mut assembly = Assembly::new(&names, &hint, &specs, end.records, &opts.csv);
    let mut rests = Vec::new();
    let outcome = fold_csv(&path, &opts, |frame| {
        let columns: Vec<_> =
            names.iter().map(|name| frame.column(name).unwrap().clone()).collect();
        let parsed = ParsedChunk {
            spec: specs[rests.len()],
            dtypes: columns.iter().map(|c| c.dtype()).collect(),
            columns,
            nrows: frame.nrows(),
            // No field of this input spells `-0`.
            negative_zeros: vec![false; names.len()],
        };
        assembly.write(rests.len(), &parsed)?;
        rests.push(parsed.into_rest(&hint));
        Ok(())
    })
    .unwrap();
    assert_eq!(outcome.chunks, specs.len());
    assert!(specs.len() > 4, "the input must span several chunks");
    assert_eq!(rests[0].dtypes, [DataType::Int64, DataType::Int64], "chunk-local schema");
    assert!(rests[0].columns.iter().all(Option::is_none), "written in place");

    let mut repaired = 0;
    let streamed = assembly
        .finish(rests, |spec, schema| {
            repaired += 1;
            let start = spec.offset as usize;
            parse_chunk(&csv[start..start + spec.len], spec, schema, &names, &opts.csv)
        })
        .unwrap();
    assert!(repaired > 0, "the input must need a widening repair");

    let ingested = read_csv_chunked(&path, &opts).unwrap();
    assert_bit_identical(&ingested, &streamed, "fold_csv chunks vs read_csv_chunked");
    assert_bit_identical(&oracle::read_csv_str(&csv, &opts.csv).unwrap(), &ingested, "oracle");
    assert_eq!(ingested.column("n").unwrap().str_iter().unwrap().next(), Some(Some("07")));
    assert_eq!(ingested.column("s").unwrap().dtype(), DataType::Float64);
    std::fs::remove_file(&path).ok();
}

/// Chunk edges at the file's own edges: a file of exactly k × chunk_bytes
/// bytes cuts into exactly k chunks with no empty tail, a last record
/// without a newline still ends at end-of-file, and neither `\r\n`
/// endings nor a byte-order mark move a row.
#[test]
fn exact_multiple_and_unterminated_files() {
    // Every record, header included, is 6 bytes (7 with `\r\n`); the
    // first column has a null.
    let mut csv = String::from("aa,bb\n");
    for i in 10..21 {
        let aa = if i == 15 { "NA".to_string() } else { i.to_string() };
        csv.push_str(&format!("{aa},x{}\n", i % 10));
    }
    assert_eq!(csv.len(), 72);
    let unterminated = csv.trim_end().to_string();
    let crlf = csv.replace('\n', "\r\n");
    let crlf_open = crlf.trim_end().to_string();
    // The mark makes the header record 9 bytes.
    let bom = format!("\u{feff}{csv}");
    let bom_open = bom.trim_end().to_string();
    for (name, text, chunk_bytes, want_chunks) in [
        ("exact6.csv", &csv, 6, 12),
        ("exact24.csv", &csv, 24, 3),
        ("exact72.csv", &csv, 72, 1),
        ("open6.csv", &unterminated, 6, 12),
        ("open24.csv", &unterminated, 24, 3),
        ("open71.csv", &unterminated, 71, 1),
        ("crlf7.csv", &crlf, 7, 12),
        ("crlf28.csv", &crlf, 28, 3),
        ("crlf84.csv", &crlf, 84, 1),
        ("crlf_open7.csv", &crlf_open, 7, 12),
        ("crlf_open28.csv", &crlf_open, 28, 3),
        ("bom6.csv", &bom, 6, 12),
        ("bom24.csv", &bom, 24, 3),
        ("bom75.csv", &bom, 75, 1),
        ("bom_open6.csv", &bom_open, 6, 12),
        ("bom_open74.csv", &bom_open, 74, 1),
    ] {
        let path = temp_csv(name, text);
        let bare = text.trim_start_matches('\u{feff}');
        let want = oracle::read_csv_str(bare, &CsvOptions::default()).unwrap();
        assert_eq!(want.nrows(), 11);
        assert_eq!(want.column("aa").unwrap().null_count(), 1);
        assert_bit_identical(&want, &read_csv_str(text, &CsvOptions::default()).unwrap(), name);
        for workers in [1, 2, 4] {
            let opts = opts(chunk_bytes, workers);
            let got = read_csv_chunked(&path, &opts).unwrap();
            assert_bit_identical(&want, &got, &format!("{name}, {workers} workers"));
            let streamed = fold_csv(&path, &opts, |_| Ok(())).unwrap();
            assert_eq!((streamed.chunks, streamed.rows), (want_chunks, 11), "{name}");
        }
        std::fs::remove_file(&path).ok();
    }
}

/// A chunk that read `-0` as the integer 0 is re-read, not cast, when
/// another chunk widens the column to `Float64`: the text reads -0.0, as
/// one chunk over the whole text does.
#[test]
fn a_widened_negative_zero_keeps_its_sign() {
    let csv = "n\n1\n-0\n2.5\n";
    let csv_opts = CsvOptions { infer_rows: 1, ..CsvOptions::default() };
    let want = oracle::read_csv_str(csv, &csv_opts).unwrap();
    for chunk_bytes in [1, 5, DEFAULT_CHUNK_BYTES] {
        let opts = IngestOptions { csv: csv_opts.clone(), ..opts(chunk_bytes, 1) };
        let got = read_csv_str_chunked(csv, &opts).unwrap();
        assert_bit_identical(&want, &got, &format!("chunk_bytes={chunk_bytes}"));
        let n: Vec<u64> =
            got.column("n").unwrap().f64_values().unwrap().iter().map(|v| v.to_bits()).collect();
        assert_eq!(n, [1.0, -0.0, 2.5].map(f64::to_bits));
    }
}

/// Spellings a numeric column reads number first (`push_number` before
/// the null check, when there are no extra null spellings) and must read
/// exactly as the null check first would: the NaN spellings, of which
/// only `nan` and `NaN` are null; infinities; padding, signs and leading
/// zeros; an exponent past `f64::MAX`; integers of 18 digits (the exact
/// fast path), 19 (std's, at and past the `i64` range) and 20; the numbers
/// the extra null lexicon below claims; and what is no number at all.
const SPELLINGS: [&str; 28] = [
    "nan",
    "NaN",
    "NAN",
    "-nan",
    "inf",
    "-infinity",
    " 7 ",
    "+5",
    "-0",
    "007",
    "1e400",
    "123456789012345678",
    "-999999999999999999",
    "1234567890123456789",
    "9223372036854775807",
    "-9223372036854775808",
    "9223372036854775808",
    "12345678901234567890",
    "-999",
    "0",
    "1e3",
    "2.5",
    "",
    "NA",
    "null",
    "+",
    "-",
    "1_000",
];

/// The built-in null lexicon, spelled out here rather than read from the
/// reader: what a field may be when its cell is null.
const NULL_SPELLINGS: [&str; 9] = ["", "NA", "N/A", "na", "null", "NULL", "None", "nan", "NaN"];

/// Numeric extra nulls: each parses as a number, so with them the reader
/// must check for nulls first.
fn numeric_extra_nulls() -> Vec<String> {
    ["-999", "0", "1e3"].map(String::from).to_vec()
}

/// A CSV of columns `i` and `f`, hinted `Int64` and `Float64` by their
/// first `lead` rows (the sample), then rows of drawn spellings, some
/// quoted (the quoting tokenizer) and one row possibly short of a field.
fn arb_spelled_csv() -> impl Strategy<Value = (String, usize, Vec<(String, String)>)> {
    let spelling = || (prop::sample::select(SPELLINGS.to_vec()), any::<bool>());
    (1usize..4, prop::collection::vec((spelling(), spelling()), 0..40), 0usize..60).prop_map(
        |(lead, rows, short_at)| {
            let mut text = String::from("i,f\n");
            for k in 0..lead {
                text.push_str(&format!("{k},{k}.5\n"));
            }
            let quote = |(s, quoted): &(&str, bool)| {
                if *quoted {
                    format!("\"{s}\"")
                } else {
                    s.to_string()
                }
            };
            for (r, (i, f)) in rows.iter().enumerate() {
                if r == short_at {
                    text.push_str(&format!("{}\n", quote(i)));
                } else {
                    text.push_str(&format!("{},{}\n", quote(i), quote(f)));
                }
            }
            let spelled = rows.iter().map(|(i, f)| (i.0.to_string(), f.0.to_string())).collect();
            (text, lead, spelled)
        },
    )
}

/// Every cell of a numeric column against std's own parse of its trimmed
/// spelling: a null only where the spelling is null, and otherwise the
/// value std reads, to the bit.
fn check_against_std(df: &DataFrame, name: &str, lead: usize, spelled: &[&str], nulls: &[String]) {
    for (r, spelling) in spelled.iter().enumerate() {
        let t = spelling.trim();
        let null = NULL_SPELLINGS.contains(&t) || nulls.iter().any(|n| n == t);
        let context = format!("{name}, row {r}: {spelling:?}");
        match df.get(lead + r, name).unwrap() {
            Value::Null => assert!(null, "{context} read as null"),
            Value::Int(v) => {
                assert!(!null, "{context} not null");
                assert_eq!(Ok(v), t.parse::<i64>(), "{context}");
            }
            Value::Float(v) => {
                assert!(!null, "{context} not null");
                assert_eq!(Some(v.to_bits()), t.parse::<f64>().ok().map(f64::to_bits), "{context}");
            }
            Value::Str(_) | Value::Bool(_) => return,
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The numbers-first parse reads every spelling as the oracle (null
    /// check first, then parse) does, frame and error, inline and chunked
    /// at any chunk size, with and without numeric extra nulls — and every
    /// numeric cell is what std reads from its text.
    #[test]
    fn number_spellings_read_as_the_oracle_reads_them(
        (csv, lead, spelled) in arb_spelled_csv(),
        chunk_bytes in 1usize..64,
        workers in prop::sample::select(vec![1usize, 2]),
    ) {
        for extra_nulls in [Vec::new(), numeric_extra_nulls()] {
            let csv_opts = CsvOptions { infer_rows: lead, extra_nulls: extra_nulls.clone(), ..CsvOptions::default() };
            let want = oracle::read_csv_str(&csv, &csv_opts);
            let opts = |chunk_bytes| IngestOptions { csv: csv_opts.clone(), ..opts(chunk_bytes, workers) };
            let readers = [
                ("read_csv_str".to_string(), read_csv_str(&csv, &csv_opts)),
                ("1-chunk".to_string(), read_csv_str_chunked(&csv, &opts(DEFAULT_CHUNK_BYTES))),
                (format!("chunk_bytes={chunk_bytes}"), read_csv_str_chunked(&csv, &opts(chunk_bytes))),
                ("chunk_bytes=1".to_string(), read_csv_str_chunked(&csv, &opts(1))),
            ];
            for (reader, got) in readers {
                let context = format!("{reader}, extra nulls {extra_nulls:?}");
                match (&want, got) {
                    (Ok(want), Ok(got)) => assert_same_bytes(want, &got, &context),
                    (Err(want), Err(got)) => prop_assert_eq!(want, &got, "{}", context),
                    (want, got) => prop_assert!(false, "{}: {:?} vs {:?}", context, want.is_ok(), got.is_ok()),
                }
            }
            if let Ok(df) = &want {
                let (i, f): (Vec<&str>, Vec<&str>) = spelled.iter().map(|(i, f)| (i.as_str(), f.as_str())).unzip();
                check_against_std(df, "i", lead, &i, &extra_nulls);
                check_against_std(df, "f", lead, &f, &extra_nulls);
            }
        }
    }
}
