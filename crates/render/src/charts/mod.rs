//! Chart renderers: one per intermediate kind.
//!
//! Every renderer takes the page under construction, the intermediate and
//! the display configuration, and appends a self-contained HTML fragment
//! (usually an inline SVG; tables render as HTML tables).

mod bars;
mod boxes;
mod curves;
pub mod gantt;
mod matrix;
mod missingviz;
mod points;
mod tables;

use eda_core::config::DisplayConfig;
use eda_core::intermediate::Inter;

/// Append one intermediate's HTML fragment to `out`.
pub fn render_chart(out: &mut String, title: &str, inter: &Inter, display: &DisplayConfig) {
    let (w, h) = (display.width, display.height);
    match inter {
        Inter::StatsTable(rows) => tables::stats_table(out, rows),
        Inter::Histogram { edges, counts } => bars::histogram(out, title, edges, counts, w, h),
        Inter::Bar { categories, counts, other, total_distinct } => {
            bars::bar_chart(out, title, categories, counts, *other, *total_distinct, w, h)
        }
        Inter::Pie { categories, fractions } => bars::pie_chart(out, title, categories, fractions, w, h),
        Inter::Kde { xs, ys } => curves::kde(out, title, xs, ys, w, h),
        Inter::QQ(points) => points::qq_plot(out, title, points, w, h),
        Inter::Boxes(boxes) => boxes::box_plot(out, title, boxes, w, h),
        Inter::Scatter { points, sampled } => points::scatter(out, title, points, *sampled, w, h),
        Inter::RegressionScatter { points, slope, intercept, r2 } => {
            points::regression_scatter(out, title, points, *slope, *intercept, *r2, w, h)
        }
        Inter::Hexbin { centers, counts, radius } => {
            points::hexbin(out, title, centers, counts, *radius, w, h)
        }
        Inter::Heatmap { xlabels, ylabels, values } => {
            matrix::heatmap(out, title, xlabels, ylabels, values, w, h)
        }
        Inter::GroupedBars { xlabels, series, stacked } => {
            bars::grouped_bars(out, title, xlabels, series, *stacked, w, h)
        }
        Inter::MultiLine { xs, series } => curves::multi_line(out, title, xs, series, w, h),
        Inter::Violin { ys, densities } => curves::violin(out, title, ys, densities, w, h),
        Inter::Line { xs, ys } => curves::line(out, title, xs, ys, w, h),
        Inter::Correlation(m) => matrix::correlation(out, title, m, w, h),
        Inter::CorrVectors(vectors) => tables::corr_vectors(out, vectors),
        Inter::MissingBars(bars) => missingviz::missing_bars(out, title, bars, w, h),
        Inter::Spectrum(s) => missingviz::spectrum(out, title, s, w, h),
        Inter::NullityCorr { labels, cells } => {
            matrix::nullity_correlation(out, title, labels, cells, w, h)
        }
        Inter::Dendrogram { labels, merges } => {
            missingviz::dendrogram(out, title, labels, merges, w, h)
        }
        Inter::WordFreq { words, total, distinct } => {
            tables::word_freq(out, title, words, *total, *distinct, w, h)
        }
        Inter::CompareHistogram { edges, before, after } => {
            missingviz::compare_histogram(out, title, edges, before, after, w, h)
        }
        Inter::CompareBars { categories, before, after } => {
            missingviz::compare_bars(out, title, categories, before, after, w, h)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eda_core::config::Config;
    use eda_core::intermediate::StatRow;
    use eda_stats::missing::{DendrogramMerge, MissingSpectrum, MissingSummary};
    use eda_stats::quantile::BoxPlot;

    fn display() -> DisplayConfig {
        Config::default().display
    }

    fn chart(title: &str, inter: &Inter, display: &DisplayConfig) -> String {
        crate::svg::drawn(|out| render_chart(out, title, inter, display))
    }

    fn assert_svg(html: &str) {
        assert!(html.contains("<svg"), "no svg in {html}");
        assert!(html.contains("</svg>"));
        // Well-formedness smoke test: balanced quotes.
        assert_eq!(html.matches('"').count() % 2, 0);
    }

    #[test]
    fn every_variant_renders() {
        let d = display();
        let charts: Vec<(&str, Inter)> = vec![
            (
                "stats",
                Inter::StatsTable(vec![StatRow::new("mean", "4.2"), StatRow {
                    label: "missing".into(),
                    value: "20%".into(),
                    highlight: true,
                }]),
            ),
            (
                "histogram",
                Inter::Histogram { edges: vec![0.0, 1.0, 2.0], counts: vec![3, 7] },
            ),
            (
                "bar_chart",
                Inter::Bar {
                    categories: vec!["a".into(), "b".into()],
                    counts: vec![10, 5],
                    other: 3,
                    total_distinct: 5,
                },
            ),
            (
                "pie_chart",
                Inter::Pie {
                    categories: vec!["a".into(), "b".into()],
                    fractions: vec![0.6, 0.4],
                },
            ),
            ("kde_plot", Inter::Kde { xs: vec![0.0, 1.0, 2.0], ys: vec![0.1, 0.5, 0.1] }),
            (
                "violin_plot",
                Inter::Violin { ys: vec![0.0, 1.0, 2.0], densities: vec![0.1, 0.5, 0.1] },
            ),
            ("qq_plot", Inter::QQ(vec![(0.0, 0.1), (1.0, 1.2)])),
            (
                "box_plot",
                Inter::Boxes(vec![(
                    "x".into(),
                    BoxPlot::from_values(&[1.0, 2.0, 3.0, 4.0, 100.0], 10).unwrap(),
                )]),
            ),
            (
                "scatter_plot",
                Inter::Scatter { points: vec![(0.0, 1.0), (2.0, 3.0)], sampled: true },
            ),
            (
                "regression_scatter",
                Inter::RegressionScatter {
                    points: vec![(0.0, 1.0), (2.0, 5.0)],
                    slope: 2.0,
                    intercept: 1.0,
                    r2: 1.0,
                },
            ),
            (
                "hexbin_plot",
                Inter::Hexbin {
                    centers: vec![(0.0, 0.0), (1.0, 1.0)],
                    counts: vec![3, 9],
                    radius: 0.5,
                },
            ),
            (
                "heat_map",
                Inter::Heatmap {
                    xlabels: vec!["a".into()],
                    ylabels: vec!["y".into()],
                    values: vec![vec![4]],
                },
            ),
            (
                "nested_bar_chart",
                Inter::GroupedBars {
                    xlabels: vec!["a".into(), "b".into()],
                    series: vec![("s1".into(), vec![1, 2]), ("s2".into(), vec![3, 4])],
                    stacked: false,
                },
            ),
            (
                "stacked_bar_chart",
                Inter::GroupedBars {
                    xlabels: vec!["a".into()],
                    series: vec![("s1".into(), vec![1]), ("s2".into(), vec![3])],
                    stacked: true,
                },
            ),
            (
                "multi_line_chart",
                Inter::MultiLine {
                    xs: vec![0.0, 1.0],
                    series: vec![("g".into(), vec![1, 2])],
                },
            ),
            ("cdf", Inter::Line { xs: vec![0.0, 1.0], ys: vec![0.5, 1.0] }),
            (
                "correlation_matrix",
                Inter::Correlation(eda_stats::corr::CorrMatrix::from_upper(
                    vec!["a".into(), "b".into()],
                    eda_stats::corr::CorrMethod::Pearson,
                    [eda_stats::corr::pearson(&[1.0, 2.0, 3.0], &[3.0, 2.0, 1.0])],
                )),
            ),
            (
                "correlation_vectors",
                Inter::CorrVectors(vec![(
                    "Pearson".into(),
                    vec![("b".into(), Some(0.5)), ("c".into(), None)],
                )]),
            ),
            (
                "missing_bar_chart",
                Inter::MissingBars(vec![MissingSummary {
                    label: "a".into(),
                    nulls: 5,
                    total: 50,
                }]),
            ),
            (
                "missing_spectrum",
                Inter::Spectrum(MissingSpectrum {
                    labels: vec!["a".into()],
                    row_ranges: vec![(0, 10), (10, 20)],
                    counts: vec![vec![2], vec![0]],
                }),
            ),
            (
                "nullity_correlation",
                Inter::NullityCorr {
                    labels: vec!["a".into(), "b".into()],
                    cells: vec![vec![Some(1.0), Some(-0.5)], vec![Some(-0.5), Some(1.0)]],
                },
            ),
            (
                "dendrogram",
                Inter::Dendrogram {
                    labels: vec!["a".into(), "b".into(), "c".into()],
                    merges: vec![
                        DendrogramMerge { left: 0, right: 1, distance: 0.1, size: 2 },
                        DendrogramMerge { left: 2, right: 3, distance: 0.6, size: 3 },
                    ],
                },
            ),
            (
                "word_cloud",
                Inter::WordFreq {
                    words: vec![("apple".into(), 10), ("pear".into(), 3)],
                    total: 13,
                    distinct: 2,
                },
            ),
            (
                "compare_histogram",
                Inter::CompareHistogram {
                    edges: vec![0.0, 1.0, 2.0],
                    before: vec![5, 10],
                    after: vec![3, 9],
                },
            ),
            (
                "compare_bars",
                Inter::CompareBars {
                    categories: vec!["a".into()],
                    before: vec![10],
                    after: vec![6],
                },
            ),
        ];
        for (name, inter) in charts {
            let html = chart(name, &inter, &d);
            assert!(!html.is_empty(), "{name} rendered nothing");
            match inter {
                Inter::StatsTable(_) | Inter::CorrVectors(_) => {
                    assert!(html.contains("<table"), "{name} should be a table")
                }
                _ => assert_svg(&html),
            }
        }
    }

    #[test]
    fn stats_table_highlights() {
        let html = chart(
            "stats",
            &Inter::StatsTable(vec![StatRow {
                label: "missing".into(),
                value: "20%".into(),
                highlight: true,
            }]),
            &display(),
        );
        assert!(html.contains("highlight"));
    }

    #[test]
    fn empty_data_renders_placeholders() {
        let d = display();
        let html = chart("kde_plot", &Inter::Kde { xs: vec![], ys: vec![] }, &d);
        assert!(html.contains("no data"));
        let html = chart("qq_plot", &Inter::QQ(vec![]), &d);
        assert!(html.contains("no data"));
        let html = chart("box_plot", &Inter::Boxes(vec![]), &d);
        assert!(html.contains("no data"));
    }
}
