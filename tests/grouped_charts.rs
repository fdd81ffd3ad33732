//! The grouped charts of `plot(df, x, y)` against a per-row oracle: the
//! N×C categorical box plot and multi-line chart, and the C×C heat map.
//!
//! The oracle reads each categorical column row by row through
//! `Column::display_iter`, ranks its categories with the name-keyed
//! `Counts::top_k` (most frequent first, ties by name) and collects the
//! numeric values, bin counts or cell counts of the kept groups itself.
//! The frame is large enough for three partitions, has more categories
//! than every chart keeps, ties at each cut, and nulls on both sides;
//! a Bool and a low-cardinality Int64 column are categorical too.

use eda_core::compute::bivariate::compute_bivariate;
use eda_core::compute::ComputeContext;
use eda_core::{plot, Config, Inter, Intermediates, SemanticType, TaskKind};
use eda_dataframe::{Column, DataFrame};
use eda_stats::quantile::BoxPlot;

#[path = "../crates/stats/tests/oracle/mod.rs"]
mod counts_oracle;
use counts_oracle::Counts;

/// Rows of the frame, cut into [`PARTITIONS`].
const ROWS: usize = 30_000;
const PARTITIONS: usize = 3;

/// Each row's index into `counts` (`None` once the counts run out),
/// spread over the rows by a stride coprime with `ROWS`, so every
/// category lands in every partition.
fn spread(counts: &[usize]) -> Vec<Option<usize>> {
    let mut planned: Vec<Option<usize>> =
        counts.iter().enumerate().flat_map(|(j, &n)| std::iter::repeat_n(Some(j), n)).collect();
    assert!(planned.len() <= ROWS);
    planned.resize(ROWS, None);
    (0..ROWS).map(|i| planned[i * 7_919 % ROWS]).collect()
}

/// Category names whose alphabetical order is not their count order, so
/// a tie is broken by name and not by position.
fn names(prefix: &str, k: usize) -> Vec<String> {
    (0..k).map(|j| format!("{}{prefix}{j}", (b'a' + (j * 7 % 26) as u8) as char)).collect()
}

struct Data {
    df: DataFrame,
    price: Vec<Option<f64>>,
}

fn data() -> Data {
    // 40 cities: ranks 4–6 tie (the line and crosstab-y cut at 5) and
    // ranks 9–12 tie (the box and crosstab-x cut at 10); 2,600 rows null.
    let mut city_counts = vec![2_400, 2_200, 2_000, 1_500, 1_500, 1_500, 1_300, 1_200];
    city_counts.extend([1_000; 4]);
    city_counts.extend([350; 28]);
    let city_names = names("city", city_counts.len());
    let city: Vec<Option<String>> =
        spread(&city_counts).into_iter().map(|j| j.map(|j| city_names[j].clone())).collect();
    // 12 shops: ranks 5–7 tie; 2,000 rows null.
    let shop_counts =
        [4_000, 3_500, 3_000, 2_800, 2_500, 2_500, 2_500, 2_000, 2_000, 1_500, 800, 900];
    let shop_names = names("shop", shop_counts.len());
    let shop: Vec<Option<String>> =
        spread(&shop_counts).into_iter().map(|j| j.map(|j| shop_names[j].clone())).collect();
    let price: Vec<Option<f64>> = (0..ROWS)
        .map(|i| match i % 17 {
            0 => None,
            // A few far values, so boxes have outliers.
            1 if i % 340 == 1 => Some(50_000.0 + i as f64),
            _ => Some((i * 37 % 1_000) as f64 + 0.25 * (i % 4) as f64),
        })
        .collect();
    let flag: Vec<Option<bool>> =
        (0..ROWS).map(|i| (i % 23 != 0).then_some(i * 13 % 7 < 3)).collect();
    // Eight distinct values, fewer than `types.low_cardinality`, more than
    // `line.ngroups`; ranks 5 and 6 tie; 3,000 rows null.
    let rating: Vec<Option<i64>> =
        spread(&[6_000, 5_000, 4_000, 3_000, 2_500, 2_500, 2_000, 1_500])
            .into_iter()
            .map(|j| j.map(|j| 10 * j as i64 - 20))
            .collect();
    let df = DataFrame::new(vec![
        ("city".into(), Column::from_opt_string(city)),
        ("shop".into(), Column::from_opt_string(shop)),
        ("price".into(), Column::from_opt_f64(price.clone())),
        ("flag".into(), Column::from_opt_bool(flag)),
        ("rating".into(), Column::from_opt_i64(rating)),
    ])
    .unwrap();
    Data { df, price }
}

fn config() -> Config {
    Config::from_pairs(vec![("engine.cache_budget_bytes", "0")]).unwrap()
}

/// Every row's display form of `column`.
fn display(df: &DataFrame, column: &str) -> Vec<Option<String>> {
    df.column(column).unwrap().display_iter().collect()
}

fn counts(rows: &[Option<String>]) -> Counts {
    Counts::of(rows.iter().map(Option::as_deref))
}

/// The `k` categories the oracle keeps, most frequent first.
fn top(rows: &[Option<String>], k: usize) -> Vec<String> {
    counts(rows).top_k(k).into_iter().map(|(c, _)| c).collect()
}

/// Whether keeping `k` categories of `rows` cuts through a tie: the
/// last kept category has the count of the first dropped one.
fn tie_at_cut(rows: &[Option<String>], k: usize) -> bool {
    let ranked = counts(rows).ranked();
    matches!((ranked.get(k - 1), ranked.get(k)), (Some(kept), Some(dropped)) if kept.1 == dropped.1)
}

/// The charts of `plot(df, [x, y])`, planned on the frame cut into
/// [`PARTITIONS`].
fn charts(d: &Data, x: &str, y: &str, cfg: &Config) -> Intermediates {
    let mut ctx = ComputeContext::partitioned(&d.df, cfg, PARTITIONS);
    assert_eq!(ctx.pf.npartitions(), PARTITIONS);
    let node = compute_bivariate(&mut ctx, x, y).unwrap();
    let (intermediates, _) = ctx.run_section(node).unwrap_or_else(|e| panic!("{x} × {y}: {e}"));
    intermediates
}

fn check_numeric_categorical(d: &Data, cat: &str, num_first: bool, cfg: &Config) {
    let ims = if num_first { charts(d, "price", cat, cfg) } else { charts(d, cat, "price", cfg) };
    let rows = display(&d.df, cat);
    // A group's non-null values, in row order.
    let in_group = |label: &str| -> Vec<f64> {
        let rows = rows.iter().zip(&d.price);
        rows.filter_map(|(c, v)| if c.as_deref() == Some(label) { *v } else { None }).collect()
    };

    // Box plot: one box per kept category, over its rows' values.
    let mut boxes: Vec<(String, BoxPlot)> = top(&rows, cfg.box_plot.ngroups)
        .into_iter()
        .filter_map(|label| {
            BoxPlot::from_values(&in_group(&label), cfg.box_plot.max_outliers).map(|bp| (label, bp))
        })
        .collect();
    boxes.sort_by(|a, b| a.0.cmp(&b.0));
    assert_eq!(boxes.len(), cfg.box_plot.ngroups.min(counts(&rows).distinct()));
    assert_eq!(ims.get("categorical_box_plot"), Some(&Inter::Boxes(boxes)), "{cat}: box plot");

    // Multi-line: each kept category's values binned over the numeric
    // column's range.
    let (min, max) = (d.price.iter().flatten())
        .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), &v| (lo.min(v), hi.max(v)));
    let bins = cfg.line.bins;
    let width = (max - min) / bins as f64;
    let xs: Vec<f64> = (0..bins)
        .map(|i| (min + width * i as f64 + (min + width * (i + 1) as f64)) / 2.0)
        .collect();
    let mut series: Vec<(String, Vec<u64>)> = top(&rows, cfg.line.ngroups)
        .into_iter()
        .map(|label| {
            let mut counts = vec![0u64; bins];
            for v in in_group(&label) {
                counts[(((v - min) / width) as usize).min(bins - 1)] += 1;
            }
            (label, counts)
        })
        .collect();
    series.sort_by(|a, b| a.0.cmp(&b.0));
    assert_eq!(
        ims.get("multi_line_chart"),
        Some(&Inter::MultiLine { xs, series }),
        "{cat}: multi-line chart"
    );
}

fn check_categorical_categorical(d: &Data, x: &str, y: &str, cfg: &Config) {
    let ims = charts(d, x, y, cfg);
    let (xrows, yrows) = (display(&d.df, x), display(&d.df, y));
    let xlabels = top(&xrows, cfg.crosstab.ngroups_x);
    let ylabels = top(&yrows, cfg.crosstab.ngroups_y);
    let values: Vec<Vec<u64>> = ylabels
        .iter()
        .map(|yl| {
            xlabels
                .iter()
                .map(|xl| {
                    let both = xrows.iter().zip(&yrows);
                    both.filter(|(a, b)| a.as_deref() == Some(xl) && b.as_deref() == Some(yl))
                        .count() as u64
                })
                .collect()
        })
        .collect();
    assert_eq!(
        ims.get("heat_map"),
        Some(&Inter::Heatmap { xlabels, ylabels, values }),
        "{x} × {y}: heat map"
    );
}

#[test]
fn grouped_charts_match_the_row_oracle() {
    let d = data();
    let cfg = config();
    for cat in ["city", "shop", "flag", "rating"] {
        let task = plot(&d.df, &[cat], &cfg).unwrap().task;
        assert!(
            matches!(task, TaskKind::Univariate { semantic: SemanticType::Categorical, .. }),
            "{cat} is categorical"
        );
    }
    // The frame exercises every cut at a tie.
    let (city, shop, rating) =
        (display(&d.df, "city"), display(&d.df, "shop"), display(&d.df, "rating"));
    assert!(tie_at_cut(&city, cfg.box_plot.ngroups));
    assert!(tie_at_cut(&city, cfg.line.ngroups));
    assert!(tie_at_cut(&city, cfg.crosstab.ngroups_x));
    assert!(tie_at_cut(&city, cfg.crosstab.ngroups_y));
    assert!(tie_at_cut(&shop, cfg.crosstab.ngroups_y));
    assert!(tie_at_cut(&rating, cfg.line.ngroups));
    assert_eq!(counts(&display(&d.df, "flag")).distinct(), 2);

    for (cat, num_first) in
        [("city", false), ("city", true), ("shop", false), ("flag", false), ("rating", true)]
    {
        check_numeric_categorical(&d, cat, num_first, &cfg);
    }
    for (x, y) in [
        ("city", "shop"),
        ("shop", "city"),
        ("rating", "city"),
        ("flag", "rating"),
        ("city", "city"),
    ] {
        check_categorical_categorical(&d, x, y, &cfg);
    }
}
