//! JSON export of intermediates.
//!
//! Paper §4.2: separating Compute from Render means "the intermediate
//! computations can be exposed to the user. This allows the user to
//! create the visualizations with her desired plotting library." This
//! module is that export path: every intermediate serializes to plain
//! JSON that any plotting stack (d3, Vega, matplotlib, gnuplot) can
//! consume. Hand-rolled emitter — no serialization dependencies.

use std::fmt::Write as _;

use crate::insights::Insight;
use crate::intermediate::{Inter, Intermediates};

/// A minimal JSON writer (namespace for the emit helpers).
pub struct JsonWriter;

impl JsonWriter {
    /// Escape and quote a string.
    pub fn string(s: &str) -> String {
        let mut out = String::with_capacity(s.len() + 2);
        out.push('"');
        for c in s.chars() {
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                '\n' => out.push_str("\\n"),
                '\r' => out.push_str("\\r"),
                '\t' => out.push_str("\\t"),
                c if (c as u32) < 0x20 => {
                    let _ = write!(out, "\\u{:04x}", c as u32);
                }
                c => out.push(c),
            }
        }
        out.push('"');
        out
    }

    /// Render a float (JSON has no NaN/Infinity: they become null).
    pub fn number(v: f64) -> String {
        if v.is_finite() {
            format!("{v}")
        } else {
            "null".to_string()
        }
    }

    fn opt_number(v: Option<f64>) -> String {
        v.map_or("null".to_string(), Self::number)
    }

    fn array<T, F: Fn(&T) -> String>(items: &[T], f: F) -> String {
        let parts: Vec<String> = items.iter().map(f).collect();
        format!("[{}]", parts.join(","))
    }

    fn object(fields: &[(&str, String)]) -> String {
        let parts: Vec<String> = fields
            .iter()
            .map(|(k, v)| format!("{}:{v}", Self::string(k)))
            .collect();
        format!("{{{}}}", parts.join(","))
    }
}

/// Serialize one intermediate.
pub fn inter_to_json(inter: &Inter) -> String {
    use JsonWriter as W;
    let typed = |kind: &str, fields: Vec<(&str, String)>| {
        let mut all = vec![("type", W::string(kind))];
        all.extend(fields);
        W::object(&all)
    };
    match inter {
        Inter::StatsTable(rows) => typed(
            "stats_table",
            vec![(
                "rows",
                W::array(rows, |r| {
                    W::object(&[
                        ("label", W::string(&r.label)),
                        ("value", W::string(&r.value)),
                        ("highlight", r.highlight.to_string()),
                    ])
                }),
            )],
        ),
        Inter::Histogram { edges, counts } => typed(
            "histogram",
            vec![
                ("edges", W::array(edges, |v| W::number(*v))),
                ("counts", W::array(counts, u64::to_string)),
            ],
        ),
        Inter::Bar { categories, counts, other, total_distinct } => typed(
            "bar",
            vec![
                ("categories", W::array(categories, |c| W::string(c))),
                ("counts", W::array(counts, u64::to_string)),
                ("other", other.to_string()),
                ("total_distinct", total_distinct.to_string()),
            ],
        ),
        Inter::Pie { categories, fractions } => typed(
            "pie",
            vec![
                ("categories", W::array(categories, |c| W::string(c))),
                ("fractions", W::array(fractions, |v| W::number(*v))),
            ],
        ),
        Inter::Kde { xs, ys } | Inter::Line { xs, ys } => typed(
            if matches!(inter, Inter::Kde { .. }) { "kde" } else { "line" },
            vec![
                ("xs", W::array(xs, |v| W::number(*v))),
                ("ys", W::array(ys, |v| W::number(*v))),
            ],
        ),
        Inter::QQ(points) => typed(
            "qq",
            vec![(
                "points",
                W::array(points, |(a, b)| format!("[{},{}]", W::number(*a), W::number(*b))),
            )],
        ),
        Inter::Boxes(boxes) => typed(
            "boxes",
            vec![(
                "boxes",
                W::array(boxes, |(label, b)| {
                    W::object(&[
                        ("label", W::string(label)),
                        ("q1", W::number(b.q1)),
                        ("median", W::number(b.median)),
                        ("q3", W::number(b.q3)),
                        ("whisker_low", W::number(b.whisker_low)),
                        ("whisker_high", W::number(b.whisker_high)),
                        ("outliers", W::array(&b.outliers, |v| W::number(*v))),
                        ("n_outliers", b.n_outliers.to_string()),
                        ("n", b.n.to_string()),
                    ])
                }),
            )],
        ),
        Inter::Scatter { points, sampled } => typed(
            "scatter",
            vec![
                (
                    "points",
                    W::array(points, |(a, b)| {
                        format!("[{},{}]", W::number(*a), W::number(*b))
                    }),
                ),
                ("sampled", sampled.to_string()),
            ],
        ),
        Inter::RegressionScatter { points, slope, intercept, r2 } => typed(
            "regression_scatter",
            vec![
                (
                    "points",
                    W::array(points, |(a, b)| {
                        format!("[{},{}]", W::number(*a), W::number(*b))
                    }),
                ),
                ("slope", W::number(*slope)),
                ("intercept", W::number(*intercept)),
                ("r2", W::number(*r2)),
            ],
        ),
        Inter::Hexbin { centers, counts, radius } => typed(
            "hexbin",
            vec![
                (
                    "centers",
                    W::array(centers, |(a, b)| {
                        format!("[{},{}]", W::number(*a), W::number(*b))
                    }),
                ),
                ("counts", W::array(counts, u64::to_string)),
                ("radius", W::number(*radius)),
            ],
        ),
        Inter::Heatmap { xlabels, ylabels, values } => typed(
            "heatmap",
            vec![
                ("xlabels", W::array(xlabels, |c| W::string(c))),
                ("ylabels", W::array(ylabels, |c| W::string(c))),
                (
                    "values",
                    W::array(values, |row| W::array(row, u64::to_string)),
                ),
            ],
        ),
        Inter::GroupedBars { xlabels, series, stacked } => typed(
            "grouped_bars",
            vec![
                ("xlabels", W::array(xlabels, |c| W::string(c))),
                (
                    "series",
                    W::array(series, |(name, counts)| {
                        W::object(&[
                            ("name", W::string(name)),
                            ("counts", W::array(counts, u64::to_string)),
                        ])
                    }),
                ),
                ("stacked", stacked.to_string()),
            ],
        ),
        Inter::MultiLine { xs, series } => typed(
            "multi_line",
            vec![
                ("xs", W::array(xs, |v| W::number(*v))),
                (
                    "series",
                    W::array(series, |(name, counts)| {
                        W::object(&[
                            ("name", W::string(name)),
                            ("counts", W::array(counts, u64::to_string)),
                        ])
                    }),
                ),
            ],
        ),
        Inter::Correlation(m) => typed(
            "correlation_matrix",
            vec![
                ("method", W::string(m.method.name())),
                ("labels", W::array(&m.labels, |c| W::string(c))),
                ("cells", W::array(&m.cells, |c| W::opt_number(*c))),
            ],
        ),
        Inter::CorrVectors(vectors) => typed(
            "correlation_vectors",
            vec![(
                "methods",
                W::array(vectors, |(method, entries)| {
                    W::object(&[
                        ("method", W::string(method)),
                        (
                            "entries",
                            W::array(entries, |(name, r)| {
                                W::object(&[
                                    ("column", W::string(name)),
                                    ("r", W::opt_number(*r)),
                                ])
                            }),
                        ),
                    ])
                }),
            )],
        ),
        Inter::MissingBars(bars) => typed(
            "missing_bars",
            vec![(
                "columns",
                W::array(bars, |b| {
                    W::object(&[
                        ("label", W::string(&b.label)),
                        ("nulls", b.nulls.to_string()),
                        ("total", b.total.to_string()),
                    ])
                }),
            )],
        ),
        Inter::Spectrum(s) => typed(
            "missing_spectrum",
            vec![
                ("labels", W::array(&s.labels, |c| W::string(c))),
                (
                    "row_ranges",
                    W::array(&s.row_ranges, |(a, b)| format!("[{a},{b}]")),
                ),
                (
                    "counts",
                    W::array(&s.counts, |row| W::array(row, usize::to_string)),
                ),
            ],
        ),
        Inter::NullityCorr { labels, cells } => typed(
            "nullity_correlation",
            vec![
                ("labels", W::array(labels, |c| W::string(c))),
                (
                    "cells",
                    W::array(cells, |row| W::array(row, |c| W::opt_number(*c))),
                ),
            ],
        ),
        Inter::Dendrogram { labels, merges } => typed(
            "dendrogram",
            vec![
                ("labels", W::array(labels, |c| W::string(c))),
                (
                    "merges",
                    W::array(merges, |m| {
                        W::object(&[
                            ("left", m.left.to_string()),
                            ("right", m.right.to_string()),
                            ("distance", W::number(m.distance)),
                            ("size", m.size.to_string()),
                        ])
                    }),
                ),
            ],
        ),
        Inter::Violin { ys, densities } => typed(
            "violin",
            vec![
                ("ys", W::array(ys, |v| W::number(*v))),
                ("densities", W::array(densities, |v| W::number(*v))),
            ],
        ),
        Inter::WordFreq { words, total, distinct } => typed(
            "word_freq",
            vec![
                (
                    "words",
                    W::array(words, |(w, c)| {
                        format!("[{},{c}]", W::string(w))
                    }),
                ),
                ("total", total.to_string()),
                ("distinct", distinct.to_string()),
            ],
        ),
        Inter::CompareHistogram { edges, before, after } => typed(
            "compare_histogram",
            vec![
                ("edges", W::array(edges, |v| W::number(*v))),
                ("before", W::array(before, u64::to_string)),
                ("after", W::array(after, u64::to_string)),
            ],
        ),
        Inter::CompareBars { categories, before, after } => typed(
            "compare_bars",
            vec![
                ("categories", W::array(categories, |c| W::string(c))),
                ("before", W::array(before, u64::to_string)),
                ("after", W::array(after, u64::to_string)),
            ],
        ),
    }
}

/// Serialize a full set of intermediates as `{"name": {...}, ...}` pairs
/// (an array of `[name, value]` to keep repeated names).
pub fn intermediates_to_json(ims: &Intermediates) -> String {
    let entries: Vec<String> = ims
        .iter()
        .map(|(name, inter)| format!("[{},{}]", JsonWriter::string(name), inter_to_json(inter)))
        .collect();
    format!("[{}]", entries.join(","))
}

/// Serialize insights.
pub fn insights_to_json(insights: &[Insight]) -> String {
    JsonWriter::array(insights, |i| {
        JsonWriter::object(&[
            ("kind", JsonWriter::string(i.kind.name())),
            (
                "columns",
                JsonWriter::array(&i.columns, |c| JsonWriter::string(c)),
            ),
            ("value", JsonWriter::number(i.value)),
            ("message", JsonWriter::string(&i.message)),
        ])
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::intermediate::StatRow;

    #[test]
    fn string_escaping() {
        assert_eq!(JsonWriter::string("a\"b\\c\nd"), r#""a\"b\\c\nd""#);
        assert_eq!(JsonWriter::string("\u{1}"), r#""\u0001""#);
    }

    #[test]
    fn numbers_and_non_finite() {
        assert_eq!(JsonWriter::number(1.5), "1.5");
        assert_eq!(JsonWriter::number(f64::NAN), "null");
        assert_eq!(JsonWriter::number(f64::INFINITY), "null");
    }

    #[test]
    fn histogram_roundtrippable_shape() {
        let j = inter_to_json(&Inter::Histogram {
            edges: vec![0.0, 1.0, 2.0],
            counts: vec![3, 4],
        });
        assert_eq!(
            j,
            r#"{"type":"histogram","edges":[0,1,2],"counts":[3,4]}"#
        );
    }

    #[test]
    fn stats_table_json() {
        let j = inter_to_json(&Inter::StatsTable(vec![StatRow {
            label: "missing".into(),
            value: "20%".into(),
            highlight: true,
        }]));
        assert!(j.contains(r#""highlight":true"#));
        assert!(j.contains(r#""type":"stats_table""#));
    }

    #[test]
    fn every_variant_serializes_to_balanced_json() {
        // Reuse the renderer test corpus shape: a few representative
        // variants with tricky content.
        let inters = vec![
            Inter::Bar {
                categories: vec!["a\"b".into()],
                counts: vec![1],
                other: 0,
                total_distinct: 1,
            },
            Inter::QQ(vec![(f64::NAN, 1.0)]),
            Inter::Scatter { points: vec![(1.0, 2.0)], sampled: true },
            Inter::Correlation(eda_stats::corr::CorrMatrix::from_upper(
                vec!["x".into(), "y".into()],
                eda_stats::corr::CorrMethod::Pearson,
                [eda_stats::corr::pearson(&[1.0, 2.0], &[2.0, 1.0])],
            )),
        ];
        for inter in &inters {
            let j = inter_to_json(inter);
            assert_eq!(j.matches('{').count(), j.matches('}').count(), "{j}");
            assert_eq!(j.matches('[').count(), j.matches(']').count(), "{j}");
            assert!(!j.contains("NaN"));
        }
    }

    #[test]
    fn analysis_to_json_end_to_end() {
        use eda_dataframe::{Column, DataFrame};
        let df = DataFrame::new(vec![(
            "x".into(),
            Column::from_f64((0..50).map(|i| i as f64).collect()),
        )])
        .unwrap();
        let a = crate::plot(&df, &["x"], &crate::Config::default()).unwrap();
        let j = intermediates_to_json(&a.intermediates) + &insights_to_json(&a.insights);
        assert!(j.contains("histogram"));
        assert_eq!(j.matches('{').count(), j.matches('}').count());
    }
}
