//! Property-based tests for the dataframe substrate: CSV round-trips,
//! bitmap invariants, and slice/concat inverses.

use eda_dataframe::csv::{read_csv_str, write_csv_string, CsvOptions};
use eda_dataframe::{Bitmap, Column, DataFrame};
use proptest::prelude::*;

/// Strings that survive a CSV round-trip unchanged: anything not in the
/// null lexicon and not pure whitespace (the reader trims before matching
/// nulls, so leading/trailing spaces are not preserved either).
/// CSV text is untyped: a string that *looks* like a number ("0",
/// "1.5"), a boolean, or a null spelling legitimately round-trips as that
/// type, so the generator avoids such strings.
fn csv_safe_string() -> impl Strategy<Value = String> {
    "[a-zA-Z0-9 ,\"_-]{1,12}".prop_filter("unambiguously textual", |s| {
        let t = s.trim();
        t == s
            && !t.is_empty()
            && !["NA", "N/A", "na", "null", "NULL", "None", "nan", "NaN"].contains(&t)
            && t.parse::<f64>().is_err()
            && !["true", "True", "TRUE", "false", "False", "FALSE"].contains(&t)
    })
}

fn arb_opt_i64() -> impl Strategy<Value = Option<i64>> {
    prop_oneof![3 => any::<i64>().prop_map(Some), 1 => Just(None)]
}

fn arb_opt_string() -> impl Strategy<Value = Option<String>> {
    prop_oneof![3 => csv_safe_string().prop_map(Some), 1 => Just(None)]
}

proptest! {
    #[test]
    fn bitmap_push_get_roundtrip(bits in prop::collection::vec(any::<bool>(), 0..200)) {
        let bm: Bitmap = bits.iter().copied().collect();
        prop_assert_eq!(bm.len(), bits.len());
        for (i, b) in bits.iter().enumerate() {
            prop_assert_eq!(bm.get(i), *b);
        }
        prop_assert_eq!(bm.count_set(), bits.iter().filter(|b| **b).count());
    }

    #[test]
    fn bitmap_slice_matches_vec_slice(
        bits in prop::collection::vec(any::<bool>(), 1..100),
        start_frac in 0.0f64..1.0,
        len_frac in 0.0f64..1.0,
    ) {
        let bm: Bitmap = bits.iter().copied().collect();
        let start = ((bits.len() as f64) * start_frac) as usize;
        let maxlen = bits.len() - start;
        let len = ((maxlen as f64) * len_frac) as usize;
        let s = bm.slice(start, len);
        let expected: Vec<bool> = bits[start..start + len].to_vec();
        prop_assert_eq!(s.iter().collect::<Vec<_>>(), expected);
    }

    #[test]
    fn column_filter_keeps_exactly_masked_rows(
        vals in prop::collection::vec(arb_opt_i64(), 0..100),
        seed in any::<u64>(),
    ) {
        let mask: Bitmap = vals
            .iter()
            .enumerate()
            .map(|(i, _)| (seed >> (i % 64)) & 1 == 1)
            .collect();
        let col = Column::from_opt_i64(vals.clone());
        let out = col.filter(&mask).unwrap();
        let expected: Vec<Option<i64>> = vals
            .iter()
            .enumerate()
            .filter(|(i, _)| mask.get(*i))
            .map(|(_, v)| *v)
            .collect();
        prop_assert_eq!(out.len(), expected.len());
        for (i, e) in expected.iter().enumerate() {
            let got = out.get(i).unwrap();
            match e {
                None => prop_assert!(got.is_null()),
                Some(v) => prop_assert_eq!(got.as_f64(), Some(*v as f64)),
            }
        }
    }

    #[test]
    fn csv_roundtrip_preserves_frame(
        ints in prop::collection::vec(arb_opt_i64(), 1..40),
        texts in prop::collection::vec(arb_opt_string(), 1..40),
    ) {
        let n = ints.len().min(texts.len());
        let df = DataFrame::new(vec![
            ("num".into(), Column::from_opt_i64(ints[..n].to_vec())),
            ("txt".into(), Column::from_opt_string(texts[..n].to_vec())),
        ]).unwrap();
        let csv = write_csv_string(&df);
        let back = read_csv_str(&csv, &CsvOptions::default()).unwrap();
        prop_assert_eq!(back.nrows(), df.nrows());
        for row in 0..n {
            prop_assert_eq!(back.get(row, "num").unwrap(), df.get(row, "num").unwrap());
            prop_assert_eq!(back.get(row, "txt").unwrap(), df.get(row, "txt").unwrap());
        }
    }

    #[test]
    fn zero_copy_slice_equals_copying_slice(
        floats in prop::collection::vec(
            prop_oneof![3 => any::<f64>().prop_filter("finite", |v| v.is_finite()).prop_map(Some),
                        1 => Just(None)],
            1..100,
        ),
        ints in prop::collection::vec(arb_opt_i64(), 1..100),
        texts in prop::collection::vec(arb_opt_string(), 1..100),
        start_frac in 0.0f64..1.0,
        len_frac in 0.0f64..1.0,
    ) {
        let n = floats.len().min(ints.len()).min(texts.len());
        let df = DataFrame::new(vec![
            ("f".into(), Column::from_opt_f64(floats[..n].to_vec())),
            ("i".into(), Column::from_opt_i64(ints[..n].to_vec())),
            ("s".into(), Column::from_opt_string(texts[..n].to_vec())),
        ]).unwrap();
        let start = ((n as f64) * start_frac) as usize;
        let len = (((n - start) as f64) * len_frac) as usize;

        let view = df.slice(start, len);

        // The zero-copy view is value- and validity-equivalent to the
        // deep copy (logical equality covers both).
        for name in ["f", "i", "s"] {
            let copy = df.column(name).unwrap().slice_copy(start, len);
            prop_assert_eq!(view.column(name).unwrap(), &copy);
        }
        for row in 0..len {
            for name in ["f", "i", "s"] {
                prop_assert_eq!(
                    view.get(row, name).unwrap(),
                    df.get(start + row, name).unwrap()
                );
            }
        }

        // ...but only the view shares the source buffers (Arc identity);
        // the copy owns fresh ones.
        for name in ["f", "i", "s"] {
            let src = df.column(name).unwrap();
            prop_assert!(view.column(name).unwrap().shares_buffer(src));
            prop_assert!(!src.slice_copy(start, len).shares_buffer(src));
        }
    }

    #[test]
    fn slice_composition(
        vals in prop::collection::vec(any::<f64>().prop_filter("finite", |v| v.is_finite()), 2..60),
    ) {
        let col = Column::from_f64(vals.clone());
        let mid = vals.len() / 2;
        let left = col.slice(0, mid);
        let right = col.slice(mid, vals.len() - mid);
        let back = Column::concat_owned(vec![left, right]).unwrap();
        prop_assert_eq!(back, col);
    }
}
