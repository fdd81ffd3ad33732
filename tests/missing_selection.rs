//! `plot_missing(df, x[, y])` reads the rows `x` drops in place and derives
//! `after = before − dropped`; nothing in it copies a filtered frame any
//! more. These tests hold it to the implementation it replaced, kept here
//! as the oracle: materialise the rows where `x` is non-null, run the plain
//! whole-column kernels on the copy, assemble the same charts. Every
//! comparison is on the intermediates' JSON, byte for byte.
//!
//! Every histogram puts a value in the bin its printed edges bound
//! (`Grid::bin`), whether its window is read as a slice or row by row,
//! so a value on a bin edge leaves `before` from the bin it was counted
//! in; `edge_values_stay_in_their_before_bin` checks that by itself.

use std::sync::Arc;

use dataprep_eda::core::compute::ctx::un;
use dataprep_eda::core::compute::kernels::{self, Rows};
use dataprep_eda::core::compute::missing::{compute_missing_impact, compute_missing_pair};
use dataprep_eda::core::compute::ComputeContext;
use dataprep_eda::core::dtype::detect;
use dataprep_eda::core::insights::similarity_insight;
use dataprep_eda::core::json::{insights_to_json, intermediates_to_json};
use dataprep_eda::core::Intermediates;
use dataprep_eda::datagen::{generate, kaggle_spec_by_name};
use dataprep_eda::prelude::*;
use dataprep_eda::stats::freq::CatFreq;
use dataprep_eda::stats::histogram::Histogram;
use dataprep_eda::stats::hypothesis::ks_distance;
use dataprep_eda::stats::moments::Moments;
use dataprep_eda::stats::quantile::BoxPlot;
use dataprep_eda::taskgraph::key::TaskKey;
use dataprep_eda::taskgraph::trace::SpanStatus;
use dataprep_eda::taskgraph::ResultCache;
use proptest::prelude::*;

/// The name-keyed frequency table the kernel crate's tests hold code
/// tables against.
#[path = "../crates/stats/tests/oracle/mod.rs"]
mod counts_oracle;
use counts_oracle::Counts;

/// A table as the oracle holds it: every category's count, read in
/// `summary(usize::MAX)` order, and the nulls.
fn table(freq: &CatFreq) -> Counts {
    Counts::from_entries(freq.summary(usize::MAX).top(usize::MAX), freq.nulls())
}

// ---------------------------------------------------------------------------
// The oracle
// ---------------------------------------------------------------------------

/// The frame with and without the rows where `x` is null, and the plain
/// kernels over each.
struct Oracle<'a> {
    df: &'a DataFrame,
    kept: DataFrame,
    cfg: Config,
}

impl<'a> Oracle<'a> {
    fn new(df: &'a DataFrame, x: &str, cfg: &Config) -> Self {
        let mut cfg = cfg.clone();
        // The copy is a new frame every time; caching it only fills the
        // session cache with entries nothing can hit.
        cfg.set("engine.cache_budget_bytes", "0").unwrap();
        let kept = df.filter(&df.column(x).unwrap().validity_mask()).unwrap();
        Oracle { df, kept, cfg }
    }

    /// `y`'s histogram over every row and over the kept rows, both on
    /// the range of the former.
    fn histograms(&self, y: &str) -> (Histogram, Histogram) {
        let mut ctx = ComputeContext::new(self.df, &self.cfg);
        let m = kernels::moments(&mut ctx, y);
        let h = kernels::histogram_with_range(&mut ctx, y, Rows::All, m);
        let outs = ctx.execute_checked(&[m, h]).unwrap();
        let mut kept = ComputeContext::new(&self.kept, &self.cfg);
        let before = un::<Moments>(&outs[0]).clone();
        let range = kept.graph.value("before_range", TaskKey::unique(), before);
        let h = kernels::histogram_with_range(&mut kept, y, Rows::All, range);
        let after = kept.execute_checked(&[h]).unwrap();
        (un::<Histogram>(&outs[1]).clone(), un::<Histogram>(&after[0]).clone())
    }

    fn freqs(&self, y: &str) -> (Counts, Counts) {
        let counts = |df: &DataFrame| {
            let mut ctx = ComputeContext::new(df, &self.cfg);
            let node = kernels::freq(&mut ctx, y);
            table(un::<CatFreq>(&ctx.execute_checked(&[node]).unwrap()[0]))
        };
        (counts(self.df), counts(&self.kept))
    }

    fn sorted(&self, y: &str) -> (Vec<f64>, Vec<f64>) {
        let values = |df: &DataFrame| {
            let mut ctx = ComputeContext::new(df, &self.cfg);
            let node = kernels::sorted_values(&mut ctx, y, Rows::All);
            un::<Vec<f64>>(&ctx.execute_checked(&[node]).unwrap()[0]).clone()
        };
        (values(self.df), values(&self.kept))
    }

    fn is_numeric(&self, y: &str) -> bool {
        let col = self.df.column(y).unwrap();
        detect(col, self.cfg.types.low_cardinality) == SemanticType::Numerical
    }

    /// `plot_missing(df, [x])`.
    fn impact(&self, x: &str) -> (Intermediates, Vec<Insight>) {
        let mut ims = Intermediates::new();
        let mut insights = Vec::new();
        for name in self.df.names().iter().filter(|n| n.as_str() != x) {
            if self.is_numeric(name) {
                let (before, after) = self.histograms(name);
                insights.extend(
                    histogram_ks(&before, &after)
                        .and_then(|ks| similarity_insight(name, ks, &self.cfg.insight)),
                );
                ims.push(format!("compare_histogram:{name}"), compare_histogram(&before, &after));
            } else {
                let (before, after) = self.freqs(name);
                ims.push(format!("compare_bars:{name}"), self.compare_bars(&before, &after));
            }
        }
        (ims, insights)
    }

    /// `plot_missing(df, [x, y])`.
    fn pair(&self, y: &str) -> (Intermediates, Vec<Insight>) {
        let mut ims = Intermediates::new();
        if !self.is_numeric(y) {
            let (before, after) = self.freqs(y);
            ims.push("compare_bars", self.compare_bars(&before, &after));
            return (ims, Vec::new());
        }
        let (hb, ha) = self.histograms(y);
        let (sb, sa) = self.sorted(y);
        ims.push("compare_histogram", compare_histogram(&hb, &ha));
        let centers: Vec<f64> = hb.edges().windows(2).map(|w| (w[0] + w[1]) / 2.0).collect();
        for (label, hist) in [("before", &hb), ("after", &ha)] {
            let dens = hist.density();
            let mut cum = 0.0;
            let cdf = dens
                .iter()
                .map(|d| {
                    cum += d;
                    cum
                })
                .collect();
            ims.push(format!("pdf:{label}"), Inter::Line { xs: centers.clone(), ys: dens });
            ims.push(format!("cdf:{label}"), Inter::Line { xs: centers.clone(), ys: cdf });
        }
        let boxes = [("before", &sb), ("after", &sa)]
            .into_iter()
            .filter_map(|(label, sorted)| {
                BoxPlot::from_sorted(sorted, self.cfg.box_plot.max_outliers)
                    .map(|bp| (label.to_string(), bp))
            })
            .collect();
        ims.push("box_plot", Inter::Boxes(boxes));
        let insights = ks_distance(&sb, &sa)
            .and_then(|ks| similarity_insight(y, ks, &self.cfg.insight))
            .into_iter()
            .collect();
        (ims, insights)
    }

    fn compare_bars(&self, before: &Counts, after: &Counts) -> Inter {
        let top = before.top_k(self.cfg.bar.ngroups);
        Inter::CompareBars {
            before: top.iter().map(|(_, n)| *n).collect(),
            after: top.iter().map(|(c, _)| after.count(c)).collect(),
            categories: top.into_iter().map(|(c, _)| c).collect(),
        }
    }
}

fn compare_histogram(before: &Histogram, after: &Histogram) -> Inter {
    Inter::CompareHistogram {
        edges: before.edges(),
        before: before.counts.clone(),
        after: after.counts.clone(),
    }
}

fn histogram_ks(a: &Histogram, b: &Histogram) -> Option<f64> {
    if a.total() == 0 || b.total() == 0 {
        return None;
    }
    let (ta, tb) = (a.total() as f64, b.total() as f64);
    let (mut ca, mut cb, mut d) = (0.0, 0.0, 0.0f64);
    for (x, y) in a.counts.iter().zip(&b.counts) {
        ca += *x as f64 / ta;
        cb += *y as f64 / tb;
        d = d.max((ca - cb).abs());
    }
    Some(d)
}

/// `plot_missing(df, columns)`'s intermediates and insights: the public
/// call, or with `parts`, its plan on the frame cut into that many
/// partitions.
fn missing(
    df: &DataFrame,
    columns: &[&str],
    cfg: &Config,
    parts: Option<usize>,
) -> (Intermediates, Vec<Insight>) {
    let what = format!("plot_missing(df, {columns:?})");
    let Some(parts) = parts else {
        let got = plot_missing(df, columns, cfg).unwrap();
        assert!(got.status.is_ok(), "{what}: {:?}", got.status);
        return (got.intermediates, got.insights);
    };
    let mut ctx = ComputeContext::partitioned(df, cfg, parts);
    let node = match columns {
        [x] => compute_missing_impact(&mut ctx, x),
        [x, y] => compute_missing_pair(&mut ctx, x, y),
        _ => panic!("{what}: one or two columns"),
    };
    node.and_then(|node| ctx.run_section(node)).unwrap_or_else(|e| panic!("{what}: {e}"))
}

/// `plot_missing(df, [x])` and `plot_missing(df, [x, y])` for every `y`
/// in `ys` equal the oracle, and the payloads underneath subtract to it:
/// `y`'s dropped rows in each category the bars show (`top_counts`, for
/// a numeric `y` too) are its *before* count less its count in the kept
/// rows. With `parts`, both run on the frame cut into that many
/// partitions ([`missing`]).
fn assert_matches_oracle(df: &DataFrame, x: &str, ys: &[&str], cfg: &Config, parts: Option<usize>) {
    let oracle = Oracle::new(df, x, cfg);
    let (got, got_insights) = missing(df, &[x], cfg, parts);
    let (ims, insights) = oracle.impact(x);
    assert_eq!(intermediates_to_json(&got), intermediates_to_json(&ims), "plot_missing(df, {x})");
    assert_eq!(insights_to_json(&got_insights), insights_to_json(&insights), "plot_missing(df, {x})");
    for &y in ys.iter().filter(|&&y| y != x) {
        let (got, got_insights) = missing(df, &[x, y], cfg, parts);
        let (ims, insights) = oracle.pair(y);
        assert_eq!(
            intermediates_to_json(&got),
            intermediates_to_json(&ims),
            "plot_missing(df, {x}, {y})"
        );
        assert_eq!(
            insights_to_json(&got_insights),
            insights_to_json(&insights),
            "plot_missing(df, {x}, {y})"
        );

        let mut ctx = match parts {
            Some(parts) => ComputeContext::partitioned(df, &oracle.cfg, parts),
            None => ComputeContext::new(df, &oracle.cfg),
        };
        let summary = kernels::freq_summary(&mut ctx, y);
        let dropped = kernels::top_counts(&mut ctx, y, Rows::NullIn(x.to_string()), summary);
        let outs = ctx.execute_checked(&[dropped]).unwrap();
        let (before, kept) = oracle.freqs(y);
        let want: Vec<u64> = before.top_k(cfg.bar.ngroups).iter().map(|(c, n)| n - kept.count(c)).collect();
        assert_eq!(un::<Vec<u64>>(&outs[0]), &want, "top_counts({y}) over the rows {x} drops");
    }
}

fn config(pairs: &[(&str, &str)]) -> Config {
    Config::from_pairs(pairs.iter().copied()).unwrap()
}

// ---------------------------------------------------------------------------
// Generated shapes
// ---------------------------------------------------------------------------

fn shape(name: &str, rows: usize, seed: u64) -> DataFrame {
    let mut spec = kaggle_spec_by_name(name).unwrap();
    spec.rows = rows;
    generate(&spec, seed)
}

#[test]
fn datagen_shapes_match_the_oracle_for_every_x() {
    // adult: 6 numeric / 9 categorical incl. near-unique text, 2% missing
    // in four columns; conflicts: 10 / 15, 10% missing in eight.
    for (name, rows, ys) in [
        ("adult", 700, ["num0", "num1", "num3", "cat1", "cat4"]),
        ("conflicts", 500, ["num0", "num2", "num3", "cat1", "cat9"]),
    ] {
        for seed in [1, 2] {
            let df = shape(name, rows, seed);
            let cfg = Config::default();
            for x in df.names() {
                assert_matches_oracle(&df, x, &ys, &cfg, None);
            }
        }
    }
}

#[test]
fn partition_count_does_not_change_the_comparison() {
    // Four partitions of 8,250 rows, each with its own share of every
    // column's nulls.
    let df = shape("adult", 33_000, 7);
    let cfg = Config::default();
    let (base, _) = missing(&df, &["num0"], &cfg, Some(1));
    for parts in [1, 4] {
        for x in ["num0", "cat1", "num2"] {
            assert_matches_oracle(&df, x, &["num3", "num1", "cat5", "cat4"], &cfg, Some(parts));
        }
        let (again, _) = missing(&df, &["num0"], &cfg, Some(parts));
        assert_eq!(intermediates_to_json(&again), intermediates_to_json(&base), "{parts} partitions");
    }
}

// ---------------------------------------------------------------------------
// Hostile frames
// ---------------------------------------------------------------------------

/// A frame with the target columns the hostile cases need; `x_null(i)`
/// says which rows of `x` are null.
fn hostile(n: usize, x_null: impl Fn(usize) -> bool) -> DataFrame {
    let specials = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -0.5, 1e300, -1e300];
    DataFrame::new(vec![
        ("x".into(), Column::from_opt_f64((0..n).map(|i| (!x_null(i)).then_some(i as f64)).collect())),
        // Null-free float: read as a slice before the drop.
        ("f".into(), Column::from_f64((0..n).map(|i| ((i * 37) % 101) as f64 * 0.25).collect())),
        // Float with nulls of its own, some inside and some outside x's.
        (
            "g".into(),
            Column::from_opt_f64((0..n).map(|i| (i % 5 != 3).then_some(((i * 13) % 64) as f64)).collect()),
        ),
        // NaN and ±inf are values, not nulls: ignored by histograms, NaN
        // dropped and infinities kept by the order statistics.
        (
            "weird".into(),
            Column::from_opt_f64(
                (0..n).map(|i| (i % 7 != 6).then_some(if i % 3 == 0 { specials[i / 3 % 6] } else { i as f64 })).collect(),
            ),
        ),
        ("int".into(), Column::from_opt_i64((0..n).map(|i| (i % 6 != 1).then_some((i * 7919 % 1000) as i64)).collect())),
        ("few".into(), Column::from_i64((0..n).map(|i| (i % 4) as i64).collect())),
        ("cat".into(), Column::from_opt_string((0..n).map(|i| (i % 8 != 2).then(|| format!("c{}", i % 5))).collect())),
        ("flag".into(), Column::from_opt_bool((0..n).map(|i| (i % 9 != 0).then_some(i % 2 == 0)).collect())),
        ("void_num".into(), Column::from_opt_f64(vec![None; n])),
        ("void_cat".into(), Column::from_opt_string(vec![None; n])),
    ])
    .unwrap()
}

const HOSTILE_YS: [&str; 9] = ["f", "g", "weird", "int", "few", "cat", "flag", "void_num", "void_cat"];

#[test]
fn hostile_frames_match_the_oracle() {
    let cfg = Config::default();
    // x all-null, without nulls, a scattered third missing, a leading run.
    let masks: [&dyn Fn(usize) -> bool; 4] = [&|_| true, &|_| false, &|i| i % 3 == 1, &|i| i < 70];
    for x_null in masks {
        let df = hostile(200, x_null);
        assert_matches_oracle(&df, "x", &HOSTILE_YS, &cfg, None);
        // All-null columns as x drop every row of everything else.
        assert_matches_oracle(&df, "void_cat", &HOSTILE_YS, &cfg, None);
        // A categorical x with nulls of its own.
        assert_matches_oracle(&df, "cat", &HOSTILE_YS, &cfg, None);
    }
    // One row, null in x and not.
    for x_is_null in [true, false] {
        let df = hostile(1, |_| x_is_null);
        assert_matches_oracle(&df, "x", &HOSTILE_YS, &cfg, None);
    }
}

#[test]
fn values_on_bin_edges_match_the_oracle() {
    // 0, 0.5, …, 64 over [0, 64]: with 8, 16 or 64 bins every value sits
    // exactly on an edge and every width is a power of two, so dividing
    // by the width and multiplying by its reciprocal agree to the bit.
    let n = 129 * 3;
    let on_edges = |i: usize| (i % 129) as f64 * 0.5;
    let df = DataFrame::new(vec![
        ("x".into(), Column::from_opt_i64((0..n).map(|i| (i % 4 != 0).then_some(i as i64)).collect())),
        ("full".into(), Column::from_f64((0..n).map(on_edges).collect())),
        // Nulls only where x is null too: null-bearing before the drop,
        // null-free after it.
        ("nested".into(), Column::from_opt_f64((0..n).map(|i| (i % 8 != 0).then_some(on_edges(i))).collect())),
        ("mixed".into(), Column::from_opt_f64((0..n).map(|i| (i % 5 != 0).then_some(on_edges(i))).collect())),
        ("ints".into(), Column::from_i64((0..n).map(|i| (i % 129) as i64).collect())),
    ])
    .unwrap();
    for bins in ["8", "16", "64"] {
        let cfg = config(&[("hist.bins", bins)]);
        assert_matches_oracle(&df, "x", &["full", "nested", "mixed", "ints"], &cfg, None);
    }
}

#[test]
fn edge_values_stay_in_their_before_bin() {
    // Hundredths over [0, 1] in 10 or 20 bins: 0.3, 0.6, 0.7, … sit on
    // edges, where rounding decides the bin. `nested` has nulls before the
    // drop and none after it; whatever bin a value was counted in before,
    // the drop must take it out of that bin.
    let n = 101 * 4;
    let hundredths = |i: usize| (i % 101) as f64 / 100.0;
    let df = DataFrame::new(vec![
        ("x".into(), Column::from_opt_i64((0..n).map(|i| (i % 4 != 0).then_some(i as i64)).collect())),
        ("full".into(), Column::from_f64((0..n).map(hundredths).collect())),
        ("nested".into(), Column::from_opt_f64((0..n).map(|i| (i % 8 != 0).then_some(hundredths(i))).collect())),
    ])
    .unwrap();
    for bins in [10usize, 20] {
        let cfg = config(&[("hist.bins", &bins.to_string())]);
        let got = plot_missing(&df, &["x"], &cfg).unwrap();
        for y in ["full", "nested"] {
            let Some(Inter::CompareHistogram { before, after, .. }) =
                got.get(&format!("compare_histogram:{y}"))
            else {
                panic!("no histogram for {y}")
            };
            // Bin by bin, the drop removes exactly the values of the
            // dropped rows that the same classifier put there.
            let col = df.column(y).unwrap();
            let whole = |keep: &dyn Fn(usize) -> bool| {
                let mut h = Histogram::new(0.0, 1.0, bins);
                h.extend((0..n).filter(|&i| col.is_valid(i) && keep(i)).map(hundredths));
                h.counts
            };
            assert_eq!(before, &whole(&|_| true), "{y} before, {bins} bins");
            assert_eq!(after, &whole(&|i| i % 4 != 0), "{y} after, {bins} bins");
            assert!(before.iter().zip(after).all(|(b, a)| a <= b));
        }
    }
}

// ---------------------------------------------------------------------------
// Random null masks
// ---------------------------------------------------------------------------

/// `x` plus a float, an integer, a low-cardinality integer and a string
/// column, each with its own random null mask; one time in three `x` has
/// no nulls at all, or nothing else.
fn arb_frame() -> impl Strategy<Value = DataFrame> {
    let len = 1..90usize;
    let x = prop::collection::vec(prop::option::of(0i64..1000), len.clone());
    let f = prop::collection::vec(prop::option::of(-1.0e4..1.0e4f64), len.clone());
    let i = prop::collection::vec(prop::option::of(-500i64..500), len.clone());
    let few = prop::collection::vec(prop::option::of(0i64..4), len.clone());
    let s = prop::collection::vec(prop::option::of(0u8..7), len);
    (x, f, i, few, s, 0u8..6).prop_map(|(x, f, i, few, s, x_mask)| {
        let n = [x.len(), f.len(), i.len(), few.len(), s.len()].into_iter().min().unwrap();
        let x = x[..n].iter().map(|v| match x_mask {
            0 => Some(v.unwrap_or(0)),
            1 => None,
            _ => *v,
        });
        DataFrame::new(vec![
            ("x".into(), Column::from_opt_i64(x.collect())),
            ("f".into(), Column::from_opt_f64(f[..n].to_vec())),
            ("i".into(), Column::from_opt_i64(i[..n].to_vec())),
            ("few".into(), Column::from_opt_i64(few[..n].to_vec())),
            ("s".into(), Column::from_opt_string(s[..n].iter().map(|v| v.map(|c| format!("s{c}"))).collect())),
        ])
        .unwrap()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn random_null_masks_match_the_oracle(df in arb_frame()) {
        let cfg = Config::default();
        for x in ["x", "f", "s"] {
            assert_matches_oracle(&df, x, &["x", "f", "i", "few", "s"], &cfg, None);
        }
    }
}

// ---------------------------------------------------------------------------
// Result cache
// ---------------------------------------------------------------------------

#[test]
fn second_x_reuses_every_before_node_and_no_dropped_one() {
    let df = shape("adult", 900, 3);
    let cfg = config(&[("engine.profile", "true")]);
    let cache = Arc::new(ResultCache::new(64 << 20));
    // Spans of one `plot_missing(df, [x])` over the shared cache, as
    // (task name, served from the cache).
    let run = |x: &str| -> Vec<(String, bool)> {
        let mut ctx = ComputeContext::new(&df, &cfg).with_cache(Arc::clone(&cache));
        let node = compute_missing_impact(&mut ctx, x).unwrap();
        ctx.run_section(node).unwrap();
        let trace = ctx.last_stats.unwrap().trace.expect("profiled run");
        trace
            .spans
            .iter()
            .filter(|s| s.name != "partition")
            .map(|s| (s.name.clone(), s.status == SpanStatus::Cached))
            .collect()
    };
    let column_of = |name: &str| {
        let rest = name.split_once(':').unwrap().1;
        rest.split('|').next().unwrap().to_string()
    };

    let first = run("num0");
    assert!(first.iter().all(|(_, cached)| !cached), "cold cache");
    let second = run("cat1");
    // Every before node of the first call answers from the cache; the
    // only before work left is num0's own, which the first call skipped.
    for (name, cached) in &second {
        if name.starts_with("section:") {
            assert_eq!(name, "section:missing_impact:cat1");
            assert!(!cached, "{name}");
        } else if name.contains("|nullsof:") {
            assert!(name.ends_with("|nullsof:cat1"), "{name}");
            assert!(!cached, "{name}: rows dropped by cat1 were never computed before");
        } else {
            assert_eq!(*cached, column_of(name) != "num0", "{name}");
        }
    }
    let hits = second.iter().filter(|(_, cached)| *cached).count();
    // 13 columns shared by both calls, plus the moments node each of
    // their dropped-row histograms reads its range from.
    assert!(hits >= df.ncols() - 2, "{hits} hits");
    // Going back to the first x finds its section intact — cat1's never
    // overwrote it — and computes nothing at all.
    let third = run("num0");
    assert!(third.iter().all(|(_, cached)| *cached), "{third:?}");

    // The keys themselves: same kernel, same column, different rows.
    let mut ctx = ComputeContext::new(&df, &cfg);
    let summary = kernels::freq_summary(&mut ctx, "cat2");
    let nodes = [Rows::All, Rows::NullIn("num0".into()), Rows::NullIn("cat1".into()), Rows::ValidIn("num0".into())]
        .map(|rows| kernels::top_counts(&mut ctx, "cat2", rows, summary));
    let keys: std::collections::HashSet<_> = nodes.iter().map(|&n| ctx.graph.task(n).key).collect();
    assert_eq!(keys.len(), nodes.len());
}

#[test]
fn a_dropped_side_is_priced_by_the_bars_it_draws() {
    // 12,000 distinct names over two partitions, a sixth of them dropped
    // by `x`: the dropped side of `name` holds one count per bar, not one
    // per dictionary entry.
    let n = 12_000;
    let df = DataFrame::new(vec![
        ("x".into(), Column::from_opt_f64((0..n).map(|i| (i % 6 != 0).then_some(i as f64)).collect())),
        ("name".into(), Column::from_string((0..n).map(|i| format!("name {i}")).collect())),
    ])
    .unwrap();
    let cfg = config(&[("engine.profile", "true")]);
    let cache = Arc::new(ResultCache::new(64 << 20));
    let mut ctx = ComputeContext::partitioned(&df, &cfg, 2).with_cache(cache);
    let node = compute_missing_impact(&mut ctx, "x").unwrap();
    ctx.run_section(node).unwrap();
    let trace = ctx.last_stats.unwrap().trace.expect("profiled run");
    let dropped: Vec<_> = trace.spans.iter().filter(|s| s.name.contains(":name|nullsof:x")).collect();
    assert!(dropped.iter().any(|s| s.name.ends_with("/reduce")), "{dropped:?}");
    // A payload's price is its value and its heap: here a `Vec<u64>`.
    let bound = size_of::<Vec<u64>>() + 8 * cfg.bar.ngroups;
    for span in dropped {
        assert!(span.payload_bytes <= bound, "{}: {} bytes, over {bound}", span.name, span.payload_bytes);
    }
}
