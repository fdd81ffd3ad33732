//! Univariate analysis: `plot(df, col)` (paper Figure 2, row 2).
//!
//! * Numerical column → column statistics, histogram, KDE plot, normal
//!   Q-Q plot, box plot.
//! * Categorical column → column statistics, bar chart, pie chart, word
//!   cloud, word frequencies.
//!
//! [`compute_univariate`] plans the panel's kernels and one section node
//! over them; `plot(df, x)` executes that node, and `create_report` plans
//! the same node per column into its one graph. The section's finish only
//! reads small aggregates and formats them: anything with a per-row or
//! per-sample loop is a kernel node — the KDE curve (each of up to 5000
//! samples spread over the grid points within reach of it) is the `kde`
//! task on the shared sorted-values node. The finish is a node too, so it
//! runs on a worker, parallel across columns, and a repeated `plot(df, x)`
//! or a warm `create_report` gets the whole section from the result cache.

use std::sync::Arc;

use eda_stats::freq::FreqSummary;
use eda_stats::kde::kde_grid;
use eda_stats::missing::ColMeta;
use eda_stats::moments::Moments;
use eda_stats::qq::{normal_quantile, normal_qq_points};
use eda_stats::quantile::{quantile_sorted, BoxPlot};
use eda_stats::text::TextStats;
use eda_taskgraph::graph::Payload;
use eda_taskgraph::key::TaskKey;
use eda_taskgraph::NodeId;

use crate::config::Config;
use crate::dtype::SemanticType;
use crate::error::EdaResult;
use crate::insights::{categorical_insights, numeric_insights, Insight};
use crate::intermediate::{Inter, Intermediates, StatRow};

use super::ctx::{un, ComputeContext, Section};
use super::kernels::{self, Rows};

/// KDE curves are evaluated over at most this many of the sorted values
/// (interactivity: kernel sums over millions of points would defeat the
/// latency goal).
const KDE_SAMPLE: usize = 5000;

/// The numeric panel's kernels: moments (and, with the frame's row
/// count, the column's nulls: [`ColMeta::numeric`]), the fully sorted
/// values (shared by stats, box plot, Q-Q, KDE sample — and the distinct
/// count, the sorted vector's run count), the histogram, and the KDE curve
/// `(xs, densities)` over a stride sample of the sorted values.
fn plan_numeric(ctx: &mut ComputeContext<'_>, column: &str) -> Vec<NodeId> {
    let sorted = kernels::sorted_values(ctx, column, Rows::All);
    let grid = ctx.config.kde.grid;
    let params = ctx.params(TaskKey::params(&format!("kde:{column}")));
    let kde = ctx.graph.op(&format!("kde:{column}"), params, vec![sorted], move |inputs| {
        kde_grid(&stride_sample(un::<Vec<f64>>(&inputs[0]), KDE_SAMPLE), grid)
    });
    let moments = kernels::moments(ctx, column);
    vec![moments, sorted, kernels::histogram(ctx, column, ctx.config.hist.bins), kde]
}

/// Distinct count of an ascending-sorted slice (run count).
pub fn distinct_sorted(sorted: &[f64]) -> usize {
    if sorted.is_empty() {
        return 0;
    }
    1 + sorted.windows(2).filter(|w| w[0] != w[1]).count()
}

/// Plan `plot(df, column)`: detect the type, plan its kernels and the
/// section node over them (`section:univariate:<column>`).
pub fn compute_univariate(ctx: &mut ComputeContext<'_>, column: &str) -> EdaResult<NodeId> {
    let config = Arc::clone(&ctx.config);
    let name = format!("section:univariate:{column}");
    let column = column.to_string();
    Ok(match ctx.semantic(&column)? {
        SemanticType::Numerical => {
            let rows = ctx.pf.nrows();
            let deps = plan_numeric(ctx, &column);
            ctx.section(&name, deps, move |outs| numeric_section(&column, &config, rows, outs))
        }
        SemanticType::Categorical => {
            // What the panel shows of the frequency table (and the
            // column's nulls: [`ColMeta::categorical`]), and the
            // word/length statistics.
            let deps = vec![
                kernels::freq_summary(ctx, &column, Rows::All),
                kernels::text_stats(ctx, &column),
            ];
            ctx.section(&name, deps, move |outs| categorical_section(&column, &config, outs))
        }
    })
}

/// The numeric panel of a column of `rows` rows from the payloads
/// [`plan_numeric`] planned. Every input is already a small aggregate
/// (the sorted vector being the one O(n) exception, exactly as in the
/// paper's quantile pipeline).
fn numeric_section(column: &str, config: &Config, rows: usize, outs: &[Payload]) -> Section {
    let moments = un::<Moments>(&outs[0]);
    let meta = ColMeta::numeric(rows, moments);
    let sorted = un::<Vec<f64>>(&outs[1]);
    let hist = un::<eda_stats::histogram::Histogram>(&outs[2]);
    let (xs, ys) = un::<(Vec<f64>, Vec<f64>)>(&outs[3]);

    let box_plot = BoxPlot::from_sorted(sorted, config.box_plot.max_outliers);
    let insights = numeric_insights(column, &meta, moments, box_plot.as_ref(), &config.insight);

    let mut ims = Intermediates::new();
    ims.push(
        "stats",
        Inter::StatsTable(numeric_stats_rows(&meta, moments, sorted, &insights)),
    );
    ims.push(
        "histogram",
        Inter::Histogram { edges: hist.edges(), counts: hist.counts.clone() },
    );
    if config.violin.enabled {
        // The violin is the same density profile mirrored by the
        // renderer — shared computation, zero extra passes.
        ims.push(
            "violin_plot",
            Inter::Violin { ys: xs.clone(), densities: ys.clone() },
        );
    }
    ims.push("kde_plot", Inter::Kde { xs: xs.clone(), ys: ys.clone() });
    ims.push(
        "qq_plot",
        Inter::QQ(qq_from_sorted(sorted, config.qq.points)),
    );
    if let Some(bp) = box_plot {
        ims.push("box_plot", Inter::Boxes(vec![(column.to_string(), bp)]));
    }
    (ims, insights)
}

/// The categorical panel from the frequency summary and text statistics.
fn categorical_section(column: &str, config: &Config, outs: &[Payload]) -> Section {
    let freq = un::<FreqSummary>(&outs[0]);
    let meta = ColMeta::categorical(freq.total, freq.nulls);
    let text = un::<TextStats>(&outs[1]);

    let insights = categorical_insights(column, &meta, freq, &config.insight);

    let mut ims = Intermediates::new();
    ims.push(
        "stats",
        Inter::StatsTable(categorical_stats_rows(&meta, freq, text, &insights)),
    );
    ims.push("bar_chart", bar_from_freq(freq, config.bar.ngroups));
    ims.push("pie_chart", pie_from_freq(freq, config.pie.slices));
    let words = text.top_words(config.word.top);
    ims.push(
        "word_cloud",
        Inter::WordFreq {
            words: words.clone(),
            total: text.total_words(),
            distinct: text.distinct_words(),
        },
    );
    ims.push(
        "word_frequencies",
        Inter::WordFreq {
            words,
            total: text.total_words(),
            distinct: text.distinct_words(),
        },
    );
    (ims, insights)
}

// ---------------------------------------------------------------------------
// Shared finishing helpers (also used by overview/bivariate)
// ---------------------------------------------------------------------------

/// Bar-chart intermediate from a frequency table's summary.
pub fn bar_from_freq(freq: &FreqSummary, ngroups: usize) -> Inter {
    let counts: Vec<u64> = freq.top(ngroups).map(|(_, n)| n).collect();
    Inter::Bar {
        categories: freq.labels(ngroups),
        other: freq.total - counts.iter().sum::<u64>(),
        counts,
        total_distinct: freq.distinct,
    }
}

/// Pie-chart intermediate from a frequency table's summary.
pub fn pie_from_freq(freq: &FreqSummary, slices: usize) -> Inter {
    let total = freq.total.max(1) as f64;
    Inter::Pie {
        categories: freq.labels(slices),
        fractions: freq.top(slices).map(|(_, n)| n as f64 / total).collect(),
    }
}

/// Scatter points thinned to at most `cap`: every `⌈len / cap⌉`-th pair,
/// so the points kept stride over the whole column, its last rows too.
pub fn thin_scatter(pairs: &[(f64, f64)], cap: usize) -> Vec<(f64, f64)> {
    pairs.iter().copied().step_by(pairs.len().div_ceil(cap).max(1)).collect()
}

/// At most `k` elements of a slice, evenly spaced over its whole length:
/// positions `i·(len-1)/(k-1)`, so the first and the last are always in
/// the sample — of sorted values, the minimum and the maximum.
pub fn stride_sample(values: &[f64], k: usize) -> Vec<f64> {
    if values.len() <= k {
        return values.to_vec();
    }
    let (last, steps) = (values.len() - 1, k.saturating_sub(1).max(1));
    (0..k).filter_map(|i| values.get(i * last / steps).copied()).collect()
}

/// Q-Q points straight from pre-sorted data (avoids re-sorting).
pub fn qq_from_sorted(sorted: &[f64], max_points: usize) -> Vec<(f64, f64)> {
    let n = sorted.len();
    if n < 2 {
        return Vec::new();
    }
    // Reuse the generic implementation on a bounded sample when huge.
    if n > 100_000 {
        return normal_qq_points(&stride_sample(sorted, 50_000), max_points);
    }
    let mean = sorted.iter().sum::<f64>() / n as f64;
    let var = sorted.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / (n - 1) as f64;
    let std = var.sqrt();
    if std <= 0.0 {
        return Vec::new();
    }
    let k = n.min(max_points.max(2));
    (0..k)
        .map(|i| {
            let p = (i as f64 + 0.5) / k as f64;
            (
                mean + std * normal_quantile(p),
                quantile_sorted(sorted, p).expect("non-empty"),
            )
        })
        .collect()
}

/// Compact number formatting for stats tables.
pub fn fmt_num(v: f64) -> String {
    if !v.is_finite() {
        return format!("{v}");
    }
    if v == 0.0 {
        return "0".to_string();
    }
    let a = v.abs();
    if !(1e-3..1e6).contains(&a) {
        format!("{v:.4e}")
    } else if v.fract() == 0.0 {
        format!("{v:.0}")
    } else {
        format!("{v:.4}")
    }
}

fn highlighted(insights: &[Insight], label: &str) -> bool {
    insights.iter().any(|i| match i.kind {
        crate::insights::InsightKind::Missing => label == "missing",
        crate::insights::InsightKind::Skewed => label == "skewness",
        crate::insights::InsightKind::Infinite => label == "infinite",
        crate::insights::InsightKind::Zeros => label == "zeros",
        crate::insights::InsightKind::Negatives => label == "negatives",
        crate::insights::InsightKind::HighCardinality => label == "distinct",
        crate::insights::InsightKind::Outliers => label == "outliers",
        _ => false,
    })
}

fn numeric_stats_rows(
    meta: &ColMeta,
    m: &Moments,
    sorted: &[f64],
    insights: &[Insight],
) -> Vec<StatRow> {
    let q = |p: f64| quantile_sorted(sorted, p).map_or("-".into(), fmt_num);
    let opt = |v: Option<f64>| v.map_or("-".into(), fmt_num);
    let mut rows = vec![
        StatRow::new("count", meta.len.to_string()),
        StatRow::new(
            "missing",
            format!(
                "{} ({:.1}%)",
                meta.nulls,
                100.0 * meta.nulls as f64 / meta.len.max(1) as f64
            ),
        ),
        StatRow::new("distinct", distinct_sorted(sorted).to_string()),
        StatRow::new("mean", fmt_num(m.mean)),
        StatRow::new("std", opt(m.std())),
        StatRow::new("variance", opt(m.variance())),
        StatRow::new("cv", opt(m.cv())),
        StatRow::new("min", fmt_num(m.min)),
        StatRow::new("q1", q(0.25)),
        StatRow::new("median", q(0.5)),
        StatRow::new("q3", q(0.75)),
        StatRow::new("max", fmt_num(m.max)),
        StatRow::new("range", opt(m.range())),
        StatRow::new("sum", fmt_num(m.sum)),
        StatRow::new("skewness", opt(m.skewness())),
        StatRow::new("kurtosis", opt(m.kurtosis())),
        StatRow::new("zeros", m.zeros.to_string()),
        StatRow::new("negatives", m.negatives.to_string()),
        StatRow::new("infinite", m.infinites.to_string()),
    ];
    for r in &mut rows {
        r.highlight = highlighted(insights, &r.label);
    }
    rows
}

fn categorical_stats_rows(
    meta: &ColMeta,
    freq: &FreqSummary,
    text: &TextStats,
    insights: &[Insight],
) -> Vec<StatRow> {
    let mut rows = vec![
        StatRow::new("count", meta.len.to_string()),
        StatRow::new(
            "missing",
            format!(
                "{} ({:.1}%)",
                meta.nulls,
                100.0 * meta.nulls as f64 / meta.len.max(1) as f64
            ),
        ),
        StatRow::new("distinct", freq.distinct.to_string()),
        StatRow::new(
            "mode",
            freq.mode().map_or("-".into(), |(c, n)| format!("{c} ({n})")),
        ),
        StatRow::new("entropy", fmt_num(freq.entropy)),
        StatRow::new("total words", text.total_words().to_string()),
        StatRow::new("distinct words", text.distinct_words().to_string()),
        StatRow::new("mean length", fmt_num(text.lengths.mean)),
        StatRow::new(
            "min length",
            if text.lengths.count > 0 { fmt_num(text.lengths.min) } else { "-".into() },
        ),
        StatRow::new(
            "max length",
            if text.lengths.count > 0 { fmt_num(text.lengths.max) } else { "-".into() },
        ),
        StatRow::new("blank", text.blank.to_string()),
    ];
    for r in &mut rows {
        r.highlight = highlighted(insights, &r.label);
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;
    use eda_dataframe::{Column, DataFrame};

    fn section(ctx: &mut ComputeContext<'_>, column: &str) -> Section {
        let node = compute_univariate(ctx, column).unwrap();
        ctx.run_section(node).unwrap()
    }

    fn frame() -> DataFrame {
        DataFrame::new(vec![
            (
                "price".into(),
                Column::from_opt_f64(
                    (0..500)
                        .map(|i| {
                            if i % 25 == 0 {
                                None
                            } else {
                                Some(100.0 + ((i * 37) % 200) as f64)
                            }
                        })
                        .collect(),
                ),
            ),
            (
                "city".into(),
                Column::from_opt_string(
                    (0..500)
                        .map(|i| {
                            if i % 50 == 0 {
                                None
                            } else {
                                Some(format!("city {}", i % 7))
                            }
                        })
                        .collect(),
                ),
            ),
        ])
        .unwrap()
    }

    #[test]
    fn numeric_panel_has_all_figure2_charts() {
        let df = frame();
        let cfg = Config::default();
        let mut ctx = ComputeContext::new(&df, &cfg);
        let (ims, _insights) = section(&mut ctx, "price");
        assert_eq!(ctx.semantic("price").unwrap(), SemanticType::Numerical);
        for chart in ["stats", "histogram", "kde_plot", "qq_plot", "box_plot"] {
            assert!(ims.get(chart).is_some(), "missing {chart}");
        }
    }

    #[test]
    fn categorical_panel_has_all_figure2_charts() {
        let df = frame();
        let cfg = Config::default();
        let mut ctx = ComputeContext::new(&df, &cfg);
        let (ims, _insights) = section(&mut ctx, "city");
        assert_eq!(ctx.semantic("city").unwrap(), SemanticType::Categorical);
        for chart in ["stats", "bar_chart", "pie_chart", "word_cloud", "word_frequencies"] {
            assert!(ims.get(chart).is_some(), "missing {chart}");
        }
    }

    #[test]
    fn numeric_stats_values_are_correct() {
        let df = frame();
        let cfg = Config::default();
        let mut ctx = ComputeContext::new(&df, &cfg);
        let (ims, _) = section(&mut ctx, "price");
        let Some(Inter::StatsTable(rows)) = ims.get("stats") else {
            panic!("stats table missing")
        };
        let get = |label: &str| {
            rows.iter()
                .find(|r| r.label == label)
                .unwrap_or_else(|| panic!("row {label}"))
                .value
                .clone()
        };
        assert_eq!(get("count"), "500");
        assert!(get("missing").starts_with("20 "));
        // i = 0 (the only index where (i*37)%200 == 0) is null, so the
        // smallest surviving value is 101.
        assert_eq!(get("min"), "101");
    }

    #[test]
    fn histogram_bins_follow_config() {
        let df = frame();
        let cfg = Config::from_pairs(vec![("hist.bins", "7")]).unwrap();
        let mut ctx = ComputeContext::new(&df, &cfg);
        let (ims, _) = section(&mut ctx, "price");
        let Some(Inter::Histogram { counts, edges }) = ims.get("histogram") else {
            panic!()
        };
        assert_eq!(counts.len(), 7);
        assert_eq!(edges.len(), 8);
    }

    #[test]
    fn bar_chart_groups_and_other() {
        let df = frame();
        let cfg = Config::from_pairs(vec![("bar.ngroups", "3")]).unwrap();
        let mut ctx = ComputeContext::new(&df, &cfg);
        let (ims, _) = section(&mut ctx, "city");
        let Some(Inter::Bar { categories, counts, other, total_distinct }) =
            ims.get("bar_chart")
        else {
            panic!()
        };
        assert_eq!(categories.len(), 3);
        assert_eq!(*total_distinct, 7);
        let shown: u64 = counts.iter().sum();
        assert_eq!(shown + other, 490); // 500 - 10 nulls
    }

    #[test]
    fn word_stats_tokenize_values() {
        let df = frame();
        let cfg = Config::default();
        let mut ctx = ComputeContext::new(&df, &cfg);
        let (ims, _) = section(&mut ctx, "city");
        let Some(Inter::WordFreq { words, .. }) = ims.get("word_cloud") else {
            panic!()
        };
        // Every value contains the word "city".
        assert_eq!(words[0].0, "city");
        assert_eq!(words[0].1, 490);
    }

    #[test]
    fn missing_insight_fires_and_highlights() {
        let df = frame();
        let cfg = Config::default(); // 4% nulls < 5% threshold → no insight
        let mut ctx = ComputeContext::new(&df, &cfg);
        let (_, insights) = section(&mut ctx, "price");
        assert!(insights
            .iter()
            .all(|i| i.kind != crate::insights::InsightKind::Missing));

        let strict = Config::from_pairs(vec![("insight.missing", "0.01")]).unwrap();
        let mut ctx = ComputeContext::new(&df, &strict);
        let (ims, insights) = section(&mut ctx, "price");
        assert!(insights
            .iter()
            .any(|i| i.kind == crate::insights::InsightKind::Missing));
        let Some(Inter::StatsTable(rows)) = ims.get("stats") else { panic!() };
        assert!(rows.iter().find(|r| r.label == "missing").unwrap().highlight);
    }

    #[test]
    fn stride_sample_spans_the_whole_column() {
        let v: Vec<f64> = (0..1000).map(|i| i as f64).collect();
        assert_eq!(stride_sample(&v, 10_000), v);
        assert_eq!(stride_sample(&v, 1000), v);
        assert_eq!(stride_sample(&v, 1), vec![0.0]);
        // Lengths that are not a multiple of the sample size used to lose
        // the top of the column (17,000 rows: the largest 2,000 values).
        for len in [5_001usize, 9_999, 17_000, 24_500] {
            let sorted: Vec<f64> = (0..len).map(|i| (i as f64).powi(2) / 1e3).collect();
            let sample = stride_sample(&sorted, KDE_SAMPLE);
            assert_eq!(sample.len(), KDE_SAMPLE, "len {len}");
            assert_eq!((sample[0], sample[KDE_SAMPLE - 1]), (sorted[0], sorted[len - 1]));
            let (median, want) = (quantile_sorted(&sample, 0.5), quantile_sorted(&sorted, 0.5));
            let spacing = sorted[len / 2 + 3] - sorted[len / 2 - 3];
            assert!((median.unwrap() - want.unwrap()).abs() <= spacing, "len {len}: {median:?}");
            // The curve over the sample spans the column's range.
            let h = eda_stats::kde::silverman_bandwidth(&sample).unwrap();
            let (xs, _) = kde_grid(&sample, 200);
            let (lo, hi) = (sorted[0] - 3.0 * h, sorted[len - 1] + 3.0 * h);
            assert!((xs[0] - lo).abs() <= 1e-9 * hi && (xs[199] - hi).abs() <= 1e-9 * hi);
        }
    }

    #[test]
    fn qq_from_sorted_matches_generic() {
        let vals: Vec<f64> = (0..500).map(|i| (i as f64).sqrt() * 3.0).collect();
        let fast = qq_from_sorted(&vals, 50);
        let generic = normal_qq_points(&vals, 50);
        assert_eq!(fast.len(), generic.len());
        for (a, b) in fast.iter().zip(&generic) {
            assert!((a.0 - b.0).abs() < 1e-9);
            assert!((a.1 - b.1).abs() < 1e-9);
        }
    }

    #[test]
    fn violin_is_opt_in() {
        let df = frame();
        let base = Config::default();
        let mut ctx = ComputeContext::new(&df, &base);
        let (ims, _) = section(&mut ctx, "price");
        assert!(ims.get("violin_plot").is_none());

        let cfg = Config::from_pairs(vec![("violin.enabled", "true")]).unwrap();
        let mut ctx = ComputeContext::new(&df, &cfg);
        let (ims, _) = section(&mut ctx, "price");
        let Some(Inter::Violin { ys, densities }) = ims.get("violin_plot") else {
            panic!("violin expected")
        };
        assert_eq!(ys.len(), densities.len());
        assert!(!ys.is_empty());
    }

    #[test]
    fn distinct_from_sorted_runs() {
        assert_eq!(distinct_sorted(&[]), 0);
        assert_eq!(distinct_sorted(&[1.0]), 1);
        assert_eq!(distinct_sorted(&[1.0, 1.0, 2.0, 2.0, 3.0]), 3);
    }

    #[test]
    fn fmt_num_forms() {
        assert_eq!(fmt_num(0.0), "0");
        assert_eq!(fmt_num(42.0), "42");
        assert_eq!(fmt_num(1.23456), "1.2346");
        assert!(fmt_num(1.0e9).contains('e'));
        assert!(fmt_num(f64::INFINITY).contains("inf"));
    }
}
