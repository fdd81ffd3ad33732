//! Pinned outputs across the change of `Column::Str` from one `String` per
//! row to dictionary codes: the FNV digest of the intermediates' JSON of
//! every call that reads a string column, on the two string-heavy
//! `eda-e2e` shapes (`conflicts`: 15 categorical + text columns, 10%
//! missing; `adult`: 9 categorical), recorded at the commit before the
//! change. The frames go through `write_csv` -> `read_csv_str`, so the
//! digests cover the tokenizer's dictionary, and again through `.edaf`,
//! whose dictionary is sorted rather than in first-appearance order.
//! The two report digests were re-pinned once since, when a Pearson or
//! Spearman cell touching a column with nulls became one masked lane pass
//! (EXPERIMENTS.md, "Pearson: one lane pass": only those cells, their
//! vectors and the pair fits moved, by at most 1.4e-12). Both were
//! re-pinned again when `Moments` became a block-wise two-pass
//! (EXPERIMENTS.md, "Both per-value loops of `bigfile_overview`": only
//! two `skewed` insight values moved, by 5.8e-15 relative). All three
//! report digests were re-pinned when the Q-Q plot came to fit the
//! moments of the column's finite values (only the `qq_plot` theoretical
//! quantiles moved, by at most 1.4e-13 relative). The N×N
//! `plot(df, x, y)` digests were recorded later, at the commit before
//! hexbin and the binned boxes came to read the pair gather.
//!
//! The partition count is pinned (it otherwise follows the host's core
//! count), so the digests are the same on every machine.

use std::hash::Hasher;

use dataprep_eda::core::json::{insights_to_json, inter_to_json, intermediates_to_json};
use dataprep_eda::core::Analysis;
use dataprep_eda::dataframe::csv::{read_csv_str, write_csv_string, CsvOptions};
use dataprep_eda::datagen::{generate, kaggle_spec_by_name};
use dataprep_eda::io::edaf::{read_edaf, write_edaf};
use dataprep_eda::prelude::*;
use dataprep_eda::taskgraph::key::Fnv1a;

const ROWS: usize = 17_000;
const SEED: u64 = 42;

fn shape(name: &str) -> DataFrame {
    let mut spec = kaggle_spec_by_name(name).unwrap();
    spec.rows = ROWS;
    let csv = write_csv_string(&generate(&spec, SEED));
    read_csv_str(&csv, &CsvOptions::default()).unwrap()
}

fn config(workers: usize) -> Config {
    Config::from_pairs(vec![
        ("engine.workers", workers.to_string().as_str()),
        // Every call computes: a digest must not depend on what an earlier
        // test left in the session cache.
        ("engine.cache_budget_bytes", "0"),
    ])
    .unwrap()
}

struct Digest(Fnv1a);

impl Digest {
    fn feed(&mut self, json: String) {
        self.0.write(json.as_bytes());
    }

    fn analysis(&mut self, a: &Analysis) {
        assert!(a.status.is_ok(), "{:?}", a.status);
        self.feed(intermediates_to_json(&a.intermediates));
        self.feed(insights_to_json(&a.insights));
    }
}

/// Everything the issue lists: the whole report, `plot(df)`, `plot(df, x)`
/// for a categorical and a text `x`, `plot(df, x, y)` for CC / CN / NC and
/// `plot_missing(df, x)` for a numeric and a categorical `x`.
fn digest(df: &DataFrame, cfg: &Config) -> u64 {
    let mut d = Digest(Fnv1a::new());
    let r = create_report(df, cfg).unwrap();
    assert!(r.failed_sections().is_empty());
    d.feed(intermediates_to_json(&r.overview));
    for v in &r.variables {
        d.feed(v.name.clone());
        d.feed(intermediates_to_json(&v.intermediates));
    }
    for m in &r.correlations {
        d.feed(inter_to_json(&Inter::Correlation(m.clone())));
    }
    d.feed(intermediates_to_json(&r.missing));
    d.feed(insights_to_json(&r.insights));

    d.analysis(&plot(df, &[], cfg).unwrap());
    // cat1 is categorical with nulls, cat4 free text.
    for cols in [
        &["cat1"][..],
        &["cat4"],
        &["cat0", "cat2"],
        &["cat1", "num1"],
        &["num0", "cat3"],
    ] {
        d.analysis(&plot(df, cols, cfg).unwrap());
    }
    for x in ["num0", "cat1"] {
        d.analysis(&plot_missing(df, &[x], cfg).unwrap());
    }
    d.0.finish()
}

/// `plot(df, x, y)` for N×N pairs (scatter, hexbin, binned boxes), pinned
/// apart from [`digest`]: float and integer columns, with and without
/// nulls, and no infinity.
fn numeric_pairs_digest(df: &DataFrame, cfg: &Config) -> u64 {
    let mut d = Digest(Fnv1a::new());
    for cols in [["num0", "num1"], ["num2", "num3"], ["num3", "num0"]] {
        d.analysis(&plot(df, &cols, cfg).unwrap());
    }
    d.0.finish()
}

fn pinned(name: &str, (want, want_pairs): (u64, u64), want_file: u64) {
    let df = shape(name);
    for workers in [1, 2, 4, 7] {
        let got = digest(&df, &config(workers));
        assert_eq!(got, want, "{name}, engine.workers = {workers}: {got:#018x}");
        let got = numeric_pairs_digest(&df, &config(workers));
        assert_eq!(got, want_pairs, "{name} N×N, engine.workers = {workers}: {got:#018x}");
    }
    // The same frame from `.edaf`.
    let path = std::env::temp_dir().join(format!("strings_as_codes_{name}.edaf"));
    write_edaf(&path, &df).unwrap();
    let loaded = read_edaf(&path).unwrap();
    // The file itself, footer fingerprint included, is the parent's byte
    // for byte: its dictionary pages are sorted whatever the column's
    // own dictionary order is.
    let mut file = Fnv1a::new();
    file.write(&std::fs::read(&path).unwrap());
    std::fs::remove_file(&path).ok();
    assert_eq!(file.finish(), want_file, "{name}.edaf: {:#018x}", file.finish());
    assert_eq!(loaded, df);
    assert_eq!(digest(&loaded, &config(2)), want, "{name} from .edaf");
    assert_eq!(numeric_pairs_digest(&loaded, &config(2)), want_pairs, "{name} N×N from .edaf");
}

#[test]
fn conflicts_outputs_are_pinned() {
    pinned("conflicts", (0x00c6_669f_85cd_0321, 0x5786_b92e_309b_6d73), 0xae39_f769_76ba_f6bb);
}

#[test]
fn adult_outputs_are_pinned() {
    pinned("adult", (0xa576_9c79_8064_8a80, 0xee30_6275_ffc9_5d7a), 0xb560_d983_6791_1fd7);
}

/// Categorical columns that are not strings (a bool, a low-cardinality
/// integer) take the same kernels through their display forms.
#[test]
fn non_string_categoricals_are_pinned() {
    let n = 20_000;
    let df = DataFrame::new(vec![
        ("flag".into(), Column::from_opt_bool((0..n).map(|i| (i % 11 != 3).then_some(i % 3 == 0)).collect())),
        ("grade".into(), Column::from_opt_i64((0..n).map(|i| (i % 13 != 5).then_some((i * 7 % 5) as i64 - 2)).collect())),
        ("x".into(), Column::from_opt_f64((0..n).map(|i| (i % 17 != 0).then_some((i * 31 % 1000) as f64 / 8.0)).collect())),
        ("city".into(), Column::from_string((0..n).map(|i| format!("city {}", i * 13 % 9)).collect())),
    ])
    .unwrap();
    let mut want = None;
    for workers in [1, 2, 4, 7] {
        let cfg = config(workers);
        let mut d = Digest(Fnv1a::new());
        let r = create_report(&df, &cfg).unwrap();
        assert!(r.failed_sections().is_empty());
        d.feed(intermediates_to_json(&r.overview));
        for v in &r.variables {
            d.feed(intermediates_to_json(&v.intermediates));
        }
        for cols in [&["flag", "grade"][..], &["grade", "x"], &["x", "flag"], &["city", "flag"]] {
            d.analysis(&plot(&df, cols, &cfg).unwrap());
        }
        d.analysis(&plot_missing(&df, &["x"], &cfg).unwrap());
        let got = d.0.finish();
        assert_eq!(*want.get_or_insert(got), got, "engine.workers = {workers}");
    }
    assert_eq!(want, Some(0x22f9_d615_fbb4_90e0), "{:#018x}", want.unwrap());
}

// ---------------------------------------------------------------------------
// Differential tests: per-row counts by name are the oracle
// ---------------------------------------------------------------------------

/// Name-keyed counts and per-row tokens, shared with the kernel crate's
/// own tests.
#[path = "../crates/stats/tests/oracle/mod.rs"]
mod counts_oracle;

mod differential {
    use dataprep_eda::core::compute::cat;
    use dataprep_eda::core::compute::ctx::un;
    use dataprep_eda::core::compute::kernels::{self, Rows};
    use dataprep_eda::core::compute::ComputeContext;
    use dataprep_eda::dataframe::csv::{read_csv_str, write_csv_string, CsvOptions};
    use dataprep_eda::dataframe::Selection;
    use dataprep_eda::io::edaf::{read_edaf, write_edaf};
    use dataprep_eda::prelude::*;
    use dataprep_eda::stats::freq::{CatFreq, FreqSummary};
    use dataprep_eda::stats::hypothesis::chi_square_uniform;
    use dataprep_eda::stats::moments::Moments;
    use dataprep_eda::stats::text::TextStats;
    use proptest::prelude::*;

    use super::counts_oracle::{word_counts, Counts};

    /// Empty and whitespace-only values, multi-byte characters, characters
    /// whose lower-case form is longer than they are, values that differ
    /// only in case or punctuation (same words, different categories).
    const POOL: [&str; 14] = [
        "",
        " ",
        "\t \u{a0}",
        "Red apple",
        "red  APPLE",
        "red-apple",
        "İstanbul",
        "STRASSE straße ß",
        "Crème brûlée",
        "ǅ ǆ Ǆ",
        "日本語 テキスト",
        "a",
        "b",
        "year2024, Year2024!",
    ];

    /// One generated column: `None` is a null, `Some(i)` picks from the
    /// pool (so values repeat) or, past it, is a value of its own.
    fn value(pick: Option<usize>) -> Option<String> {
        pick.map(|i| POOL.get(i).map_or_else(|| format!("only {i}"), |s| s.to_string()))
    }

    #[derive(Debug, Clone)]
    struct Case {
        values: Vec<Option<String>>,
        /// The column whose nulls select rows (`Rows::NullIn` / `ValidIn`).
        x: Vec<Option<i64>>,
        /// Two cut points: the column is read as three unaligned windows.
        cuts: (usize, usize),
    }

    fn arb_case() -> impl Strategy<Value = Case> {
        let rows = prop::collection::vec(
            (prop::option::of(0usize..40), prop::option::of(0i64..3)),
            1..150,
        );
        (rows, 0usize..150, 0usize..150, 0u8..8).prop_map(|(rows, a, b, kind)| {
            let n = rows.len();
            let values = rows
                .iter()
                .enumerate()
                .map(|(i, (pick, _))| match kind {
                    // Every row null; every row distinct; as generated.
                    0 => None,
                    1 => Some(format!("row {i}")),
                    _ => value(*pick),
                })
                .collect();
            let (a, b) = (a % (n + 1), b % (n + 1));
            Case { values, x: rows.iter().map(|(_, x)| *x).collect(), cuts: (a.min(b), a.max(b)) }
        })
    }

    /// Text statistics row by row: words from owned tokens, lengths
    /// handed over one at a time.
    #[derive(Debug, Clone)]
    struct Text {
        words: Counts,
        lengths: Moments,
        blank: u64,
        count: u64,
    }

    impl Text {
        fn merge(&mut self, other: &Text) {
            self.words.merge(&other.words);
            self.lengths.merge(&other.lengths);
            self.blank += other.blank;
            self.count += other.count;
        }
    }

    /// The rows of `[lo, hi)` that `keep` selects, counted row by row.
    fn oracle(case: &Case, lo: usize, hi: usize, keep: impl Fn(usize) -> bool) -> (Counts, Text) {
        let rows = || (lo..hi).filter(|&i| keep(i)).map(|i| case.values[i].as_deref());
        let mut lengths = Moments::new();
        lengths.extend(rows().flatten().map(|v| v.chars().count() as f64));
        let text = Text {
            words: word_counts(rows()),
            lengths,
            blank: rows().flatten().filter(|v| v.trim().is_empty()).count() as u64,
            count: rows().flatten().count() as u64,
        };
        (Counts::of(rows()), text)
    }

    /// The partials merged left to right, from the first.
    fn merged<'a, T: Clone + 'a>(parts: impl IntoIterator<Item = &'a T>, merge: impl Fn(&mut T, &T)) -> T {
        let mut parts = parts.into_iter();
        let mut all = parts.next().unwrap().clone();
        parts.for_each(|p| merge(&mut all, p));
        all
    }

    fn assert_same_table(got: &CatFreq, want: &Counts) -> Result<(), String> {
        // Every category's count, read in `summary(usize::MAX)` order.
        let all = Counts::from_entries(got.summary(usize::MAX).top(usize::MAX), got.nulls());
        prop_assert_eq!(&all, want);
        prop_assert_eq!(got.nulls(), want.nulls);
        prop_assert_eq!(got.distinct(), want.distinct(), "unused dictionary entries are not categories");
        prop_assert_eq!(got.total(), want.total());
        // What a finish reads is the `freq_summary` payload: taken with
        // any `k`, it is the name-keyed table's answer.
        for k in [0, 1, 2, 3, 7, usize::MAX] {
            let summary = got.summary(k);
            let top: Vec<(String, u64)> = summary.top(k).map(|(c, n)| (c.to_string(), n)).collect();
            prop_assert_eq!(top, want.top_k(k), "top {}", k);
            let counts = (summary.distinct, summary.total, summary.nulls);
            prop_assert_eq!(counts, (want.distinct(), want.total(), want.nulls));
            prop_assert_eq!(summary.entropy.to_bits(), want.entropy().to_bits());
            prop_assert_eq!(summary.chi_square, chi_square_uniform(&want.counts_desc()));
            if k > 0 {
                prop_assert_eq!(summary.mode().map(|(c, n)| (c.to_string(), n)), want.mode());
            }
        }
        Ok(())
    }

    fn assert_same_text(got: &TextStats, want: &Text) -> Result<(), String> {
        // Every word's count, in `top_words` order.
        prop_assert_eq!(got.top_words(usize::MAX), want.words.ranked());
        prop_assert_eq!((got.total_words(), got.distinct_words()), (want.words.total(), want.words.distinct()));
        prop_assert_eq!((got.blank, got.count), (want.blank, want.count));
        prop_assert_eq!(&got.lengths, &want.lengths);
        for (a, b) in [(got.lengths.mean, want.lengths.mean), (got.lengths.m2, want.lengths.m2)] {
            prop_assert_eq!(a.to_bits(), b.to_bits());
        }
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        #[test]
        fn code_kernels_equal_the_per_row_kernels(case in arb_case()) {
            let n = case.values.len();
            let column = Column::from_opt_string(case.values.clone());
            let x = Column::from_opt_i64(case.x.clone());
            let bounds = [0, case.cuts.0, case.cuts.1, n];
            let windows: Vec<(usize, usize)> = bounds.windows(2).map(|w| (w[0], w[1])).collect();
            // Windows of the one column (shared dictionary, entries a
            // window does not use) and the same rows as columns of their
            // own (foreign dictionaries, merged by name).
            let shared: Vec<Column> = windows.iter().map(|&(lo, hi)| column.slice(lo, hi - lo)).collect();
            let foreign: Vec<Column> =
                windows.iter().map(|&(lo, hi)| Column::from_opt_string(case.values[lo..hi].to_vec())).collect();
            let xs: Vec<Column> = windows.iter().map(|&(lo, hi)| x.slice(lo, hi - lo)).collect();

            type Select = for<'c> fn(&'c Column) -> Selection<'c>;
            type Keep = fn(&Case, usize) -> bool;
            let selections: [(Select, Keep); 3] = [
                (|_| Selection::All, |_, _| true),
                (|x| x.null_rows(), |case, i| case.x[i].is_none()),
                (|x| x.valid_rows(), |case, i| case.x[i].is_some()),
            ];
            for (select, keep) in selections {
                let want: Vec<Counts> =
                    windows.iter().map(|&(lo, hi)| oracle(&case, lo, hi, |i| keep(&case, i)).0).collect();
                for parts in [&shared, &foreign] {
                    let got: Vec<CatFreq> =
                        parts.iter().zip(&xs).map(|(part, x)| CatFreq::of(part, select(x))).collect();
                    for (got, want) in got.iter().zip(&want) {
                        assert_same_table(got, want)?;
                    }
                    let all = merged(&want, Counts::merge);
                    assert_same_table(&merged(&got, CatFreq::merge), &all)?;
                    assert_same_table(&merged(got.iter().rev(), CatFreq::merge), &all)?;
                }
            }

            // What `compare_bars` reads, through the graph at one, two and
            // three partitions: the rows a column drops, counted in the
            // categories the *before* summary shows, are the *before* count
            // less the count in the rows it keeps. `s` has one dictionary;
            // `x`, an integer column, is encoded per partition.
            let x_shown: Vec<Option<String>> = case.x.iter().map(|v| v.map(|v| v.to_string())).collect();
            let df = DataFrame::new(vec![("s".into(), column.clone()), ("x".into(), x.clone())]).unwrap();
            let cfg = Config::from_pairs(vec![("engine.cache_budget_bytes", "0")]).unwrap();
            for (y, by, values, drops) in [("s", "x", &case.values, &x_shown), ("x", "s", &x_shown, &case.values)] {
                let before = Counts::of(values.iter().map(Option::as_deref));
                let kept = values.iter().zip(drops).filter(|(_, d)| d.is_some()).map(|(v, _)| v.as_deref());
                let kept = Counts::of(kept);
                let want: Vec<u64> = before.top_k(cfg.bar.ngroups).iter().map(|(c, n)| n - kept.count(c)).collect();
                for parts in 1..=3 {
                    let mut ctx = ComputeContext::partitioned(&df, &cfg, parts);
                    let summary = kernels::freq_summary(&mut ctx, y);
                    let dropped = kernels::top_counts(&mut ctx, y, Rows::NullIn(by.into()), summary);
                    let outs = ctx.execute_checked(&[dropped]).unwrap();
                    prop_assert_eq!(un::<Vec<u64>>(&outs[0]), &want, "{} at {} partitions", y, parts);
                }
            }

            // Text statistics: per window, and merged in both orders —
            // against per-row partials merged in the same order, since a
            // float merge depends on it.
            let want: Vec<Text> = windows.iter().map(|&(lo, hi)| oracle(&case, lo, hi, |_| true).1).collect();
            for parts in [&shared, &foreign] {
                let got: Vec<TextStats> = parts.iter().map(cat::text_stats).collect();
                for (got, want) in got.iter().zip(&want) {
                    assert_same_text(got, want)?;
                }
                assert_same_text(&merged(&got, TextStats::merge), &merged(&want, Text::merge))?;
                assert_same_text(
                    &merged(got.iter().rev(), TextStats::merge),
                    &merged(want.iter().rev(), Text::merge),
                )?;
            }
        }
    }

    #[test]
    fn one_row_and_no_row_columns() {
        for values in [vec![], vec![None], vec![Some("İ ß".to_string())]] {
            let case = Case { x: vec![None; values.len()], cuts: (0, 0), values };
            let column = Column::from_opt_string(case.values.clone());
            let (counts, text) = oracle(&case, 0, case.values.len(), |_| true);
            assert_same_table(&CatFreq::of(&column, Selection::All), &counts).unwrap();
            assert_same_text(&cat::text_stats(&column), &text).unwrap();
        }
    }

    /// The "entropy" row is the same to the last bit however the frame was
    /// loaded: from CSV the dictionary is in first-appearance order, from
    /// `.edaf` it is sorted.
    #[test]
    fn entropy_is_bit_equal_between_csv_and_edaf_loads() {
        let n = 3_000;
        let city = |i: usize| format!("city {}", (i * i + 7 * i) % 61 % (1 + i % 13));
        let df = DataFrame::new(vec![
            ("id".into(), Column::from_i64((0..n as i64).collect())),
            ("city".into(), Column::from_opt_string((0..n).map(|i| (i % 17 != 4).then(|| city(i))).collect())),
        ])
        .unwrap();
        let from_csv = read_csv_str(&write_csv_string(&df), &CsvOptions::default()).unwrap();
        let path = std::env::temp_dir().join(format!("strings_as_codes_entropy_{}.edaf", std::process::id()));
        write_edaf(&path, &from_csv).unwrap();
        let from_edaf = read_edaf(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(from_csv, from_edaf);
        let order = |df: &DataFrame| -> Vec<String> {
            cat::codes(df.column("city").unwrap()).1.iter().map(str::to_string).collect()
        };
        assert_ne!(order(&from_csv), order(&from_edaf), "the two dictionaries differ in order");

        let cfg = Config::from_pairs(vec![("engine.cache_budget_bytes", "0")]).unwrap();
        let entropy = |df: &DataFrame| {
            let mut ctx = ComputeContext::new(df, &cfg);
            let node = kernels::freq_summary(&mut ctx, "city");
            let bits = un::<FreqSummary>(&ctx.execute_checked(&[node]).unwrap()[0]).entropy.to_bits();
            let stats = plot(df, &["city"], &cfg).unwrap();
            let Some(Inter::StatsTable(rows)) = stats.get("stats") else { panic!("stats table") };
            (bits, rows.iter().find(|r| r.label == "entropy").unwrap().value.clone())
        };
        assert_eq!(entropy(&from_csv), entropy(&from_edaf));
        assert_eq!(entropy(&df), entropy(&from_csv));
    }
}
