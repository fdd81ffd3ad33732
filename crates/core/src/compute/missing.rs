//! Missing-value analysis: `plot_missing` (paper Figure 2, rows 8–10).
//!
//! * `plot_missing(df)` → per-column missing bar chart, missing spectrum,
//!   nullity correlation heatmap, dendrogram.
//! * `plot_missing(df, x)` → for every other column, its distribution
//!   before vs after dropping the rows where `x` is null. The paper's
//!   Figure 5 calls this the most expensive fine-grained task because "it
//!   computes two frequency distributions for each column". Here the
//!   second one covers only the rows `x` drops ([`Rows::NullIn`]) and
//!   `after = before − dropped`, exact because counts are integers; the
//!   *before* node is the one `plot(df, x)` and `create_report` plan too.
//! * `plot_missing(df, x, y)` → histogram, PDF, CDF, box plot of `y`
//!   before vs after dropping `x`'s missing rows.

use eda_stats::freq::{CatFreq, FreqSummary};
use eda_stats::histogram::Histogram;
use eda_stats::hypothesis::ks_distance_sorted;
use eda_stats::missing::{spectrum_ranges, MissingSpectrum, MissingSummary, NullCounts};
use eda_stats::quantile::BoxPlot;
use eda_taskgraph::NodeId;

use crate::dtype::{detect, SemanticType};
use crate::error::EdaResult;
use crate::insights::{similarity_insight, Insight};
use crate::intermediate::{Inter, Intermediates};

use super::ctx::{un, ComputeContext};
use super::kernels::{self, Rows};

/// Run `plot_missing(df)`.
pub fn compute_missing_overview(
    ctx: &mut ComputeContext<'_>,
) -> EdaResult<(Intermediates, Vec<Insight>)> {
    let node = plan_missing_overview(ctx);
    let outs = ctx.execute_checked(&[node])?;
    let ims = assemble_missing_overview(ctx.df.names(), ctx.config.spectrum.bins, un(&outs[0]));
    Ok((ims, Vec::new()))
}

/// Plan the nullity overview — `plot_missing(df)` and the report's
/// missing section alike: one node holding the frame's [`NullCounts`].
pub fn plan_missing_overview(ctx: &mut ComputeContext<'_>) -> NodeId {
    kernels::null_counts(ctx, ctx.config.spectrum.bins)
}

/// The four nullity views from the counts [`plan_missing_overview`]
/// planned. Everything here is arithmetic on `columns²` integers.
pub fn assemble_missing_overview(
    names: &[String],
    bins: usize,
    counts: &NullCounts,
) -> Intermediates {
    let mut ims = Intermediates::new();
    let summaries: Vec<MissingSummary> = names
        .iter()
        .zip(&counts.nulls)
        .map(|(n, &nulls)| MissingSummary { label: n.clone(), nulls, total: counts.rows })
        .collect();
    ims.push("missing_bar_chart", Inter::MissingBars(summaries));
    ims.push(
        "missing_spectrum",
        Inter::Spectrum(MissingSpectrum {
            labels: names.to_vec(),
            row_ranges: spectrum_ranges(counts.rows, bins),
            counts: counts.bin_nulls.clone(),
        }),
    );
    ims.push(
        "nullity_correlation",
        Inter::NullityCorr { labels: names.to_vec(), cells: counts.correlation() },
    );
    ims.push(
        "dendrogram",
        Inter::Dendrogram { labels: names.to_vec(), merges: counts.dendrogram() },
    );
    ims
}

/// Plan one column's comparison for dropping `x`'s null rows: its
/// distribution over every row (*before*), and over only the rows `x`
/// drops. Numeric columns bin both on the *before* range so the
/// histograms subtract bin by bin; of a categorical column's *before*
/// table only the summary is read — the node its own panel plans.
fn plan_compare(ctx: &mut ComputeContext<'_>, name: &str, x: &str, sem: SemanticType) -> [NodeId; 2] {
    let sides = [Rows::All, Rows::NullIn(x.to_string())];
    match sem {
        SemanticType::Numerical => {
            let (m, bins) = (kernels::moments(ctx, name), ctx.config.hist.bins);
            sides.map(|rows| kernels::histogram_with_range(ctx, name, bins, rows, m))
        }
        SemanticType::Categorical => {
            let [all, dropped] = sides;
            [kernels::freq_summary(ctx, name, all), kernels::freq(ctx, name, dropped)]
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

/// Bars for the `ngroups` most frequent categories *before*; what remains
/// of each after the drop is its count minus its dropped rows — `ngroups`
/// lookups in the dropped table, whatever the column's cardinality.
fn compare_bars(before: &FreqSummary, dropped: &CatFreq, ngroups: usize) -> Inter {
    let gone = dropped.counts_of(before, ngroups);
    Inter::CompareBars {
        categories: before.labels(ngroups),
        before: before.top(ngroups).map(|(_, n)| n).collect(),
        after: before.top(ngroups).zip(gone).map(|((_, n), gone)| n - gone).collect(),
    }
}

/// Run `plot_missing(df, x)`: before/after distributions for every other
/// column.
pub fn compute_missing_impact(
    ctx: &mut ComputeContext<'_>,
    x: &str,
) -> EdaResult<(Intermediates, Vec<Insight>)> {
    ctx.df.column(x)?; // existence check
    let others: Vec<(String, SemanticType)> = ctx
        .df
        .iter()
        .filter(|(n, _)| *n != x)
        .map(|(n, col)| (n.to_string(), detect(col, ctx.config.types.low_cardinality)))
        .collect();

    // Plan both sides of every column into ONE graph.
    let mut outputs = Vec::with_capacity(others.len() * 2);
    for (name, sem) in &others {
        outputs.extend(plan_compare(ctx, name, x, *sem));
    }
    let outs = ctx.execute_checked(&outputs)?;

    let mut ims = Intermediates::new();
    let mut insights = Vec::new();
    for ((name, sem), sides) in others.iter().zip(outs.chunks_exact(2)) {
        match sem {
            SemanticType::Numerical => {
                let before = un::<Histogram>(&sides[0]);
                let after = before.minus(un::<Histogram>(&sides[1]));
                // Similarity insight via KS over the binned distributions.
                if let Some(ks) = histogram_ks(before, &after) {
                    if let Some(i) = similarity_insight(name, ks, &ctx.config.insight) {
                        insights.push(i);
                    }
                }
                ims.push(format!("compare_histogram:{name}"), compare_histogram(before, &after));
            }
            SemanticType::Categorical => ims.push(
                format!("compare_bars:{name}"),
                compare_bars(un(&sides[0]), un(&sides[1]), ctx.config.bar.ngroups),
            ),
        }
    }
    Ok((ims, insights))
}

/// Run `plot_missing(df, x, y)`.
pub fn compute_missing_pair(
    ctx: &mut ComputeContext<'_>,
    x: &str,
    y: &str,
) -> EdaResult<(Intermediates, Vec<Insight>)> {
    ctx.df.column(x)?;
    let sem = detect(ctx.df.column(y)?, ctx.config.types.low_cardinality);
    let [before, dropped] = plan_compare(ctx, y, x, sem);
    let mut ims = Intermediates::new();
    match sem {
        SemanticType::Categorical => {
            // Categorical y: before/after bars only.
            let outs = ctx.execute_checked(&[before, dropped])?;
            ims.push(
                "compare_bars",
                compare_bars(un(&outs[0]), un(&outs[1]), ctx.config.bar.ngroups),
            );
            Ok((ims, Vec::new()))
        }
        SemanticType::Numerical => {
            // Order statistics do not subtract: the after side keeps the
            // rows of `y`'s one argsort that `x` keeps, and sorts nothing.
            let s_before = kernels::sorted_values(ctx, y, Rows::All);
            let s_after = kernels::sorted_values(ctx, y, Rows::ValidIn(x.to_string()));
            let outs = ctx.execute_checked(&[before, dropped, s_before, s_after])?;
            let hb = un::<Histogram>(&outs[0]);
            let ha = &hb.minus(un::<Histogram>(&outs[1]));
            let sb = un::<Vec<f64>>(&outs[2]);
            let sa = un::<Vec<f64>>(&outs[3]);

            ims.push("compare_histogram", compare_histogram(hb, ha));
            // PDF and CDF curves over the shared bin centers.
            let centers: Vec<f64> = hb.edges().windows(2).map(|w| (w[0] + w[1]) / 2.0).collect();
            for (label, hist) in [("before", hb), ("after", ha)] {
                let dens = hist.density();
                ims.push(
                    format!("pdf:{label}"),
                    Inter::Line { xs: centers.clone(), ys: dens.clone() },
                );
                let mut cum = 0.0;
                let cdf: Vec<f64> = dens
                    .iter()
                    .map(|d| {
                        cum += d;
                        cum
                    })
                    .collect();
                ims.push(
                    format!("cdf:{label}"),
                    Inter::Line { xs: centers.clone(), ys: cdf },
                );
            }
            let mut boxes = Vec::new();
            if let Some(bp) = BoxPlot::from_sorted(sb, ctx.config.box_plot.max_outliers) {
                boxes.push(("before".to_string(), bp));
            }
            if let Some(bp) = BoxPlot::from_sorted(sa, ctx.config.box_plot.max_outliers) {
                boxes.push(("after".to_string(), bp));
            }
            ims.push("box_plot", Inter::Boxes(boxes));

            let mut insights = Vec::new();
            if let Some(ks) = ks_distance_sorted(sb, sa) {
                if let Some(i) = similarity_insight(y, ks, &ctx.config.insight) {
                    insights.push(i);
                }
            }
            Ok((ims, insights))
        }
    }
}

/// KS distance between two histograms over the same grid (approximate KS
/// from binned CDFs — fine for the insight threshold).
fn histogram_ks(a: &Histogram, b: &Histogram) -> Option<f64> {
    if a.total() == 0 || b.total() == 0 {
        return None;
    }
    let (ta, tb) = (a.total() as f64, b.total() as f64);
    let (mut ca, mut cb) = (0.0, 0.0);
    let mut d: f64 = 0.0;
    for (x, y) in a.counts.iter().zip(&b.counts) {
        ca += *x as f64 / ta;
        cb += *y as f64 / tb;
        d = d.max((ca - cb).abs());
    }
    Some(d)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Config;
    use eda_dataframe::{Column, DataFrame};

    /// Frame where `a`'s nulls coincide with LOW values of `b`, so
    /// dropping them visibly shifts `b`'s distribution.
    fn frame() -> DataFrame {
        let n = 300;
        DataFrame::new(vec![
            (
                "a".into(),
                Column::from_opt_f64(
                    (0..n)
                        .map(|i| if i < 60 { None } else { Some(i as f64) })
                        .collect(),
                ),
            ),
            (
                "b".into(),
                Column::from_f64((0..n).map(|i| i as f64).collect()),
            ),
            (
                "cat".into(),
                Column::from_opt_string(
                    (0..n)
                        .map(|i| {
                            if i % 11 == 0 {
                                None
                            } else {
                                Some(format!("g{}", i % 3))
                            }
                        })
                        .collect(),
                ),
            ),
        ])
        .unwrap()
    }

    #[test]
    fn overview_has_four_visualizations() {
        let df = frame();
        let cfg = Config::default();
        let mut ctx = ComputeContext::new(&df, &cfg);
        let (ims, _) = compute_missing_overview(&mut ctx).unwrap();
        for chart in [
            "missing_bar_chart",
            "missing_spectrum",
            "nullity_correlation",
            "dendrogram",
        ] {
            assert!(ims.get(chart).is_some(), "missing {chart}");
        }
        let Some(Inter::MissingBars(bars)) = ims.get("missing_bar_chart") else {
            panic!()
        };
        assert_eq!(bars.len(), 3);
        assert_eq!(bars[0].nulls, 60);
        let Some(Inter::Dendrogram { merges, .. }) = ims.get("dendrogram") else {
            panic!()
        };
        assert_eq!(merges.len(), 2);
    }

    #[test]
    fn impact_compares_before_and_after() {
        let df = frame();
        let cfg = Config::default();
        let mut ctx = ComputeContext::new(&df, &cfg);
        let (ims, _) = compute_missing_impact(&mut ctx, "a").unwrap();
        let Some(Inter::CompareHistogram { before, after, edges }) =
            ims.get("compare_histogram:b")
        else {
            panic!()
        };
        assert_eq!(edges.len(), before.len() + 1);
        let nb: u64 = before.iter().sum();
        let na: u64 = after.iter().sum();
        assert_eq!(nb, 300);
        assert_eq!(na, 240);
        // Low bins lose counts: the first bin must shrink.
        assert!(after[0] < before[0]);
        // Categorical column compared with bars.
        assert!(ims.get("compare_bars:cat").is_some());
    }

    #[test]
    fn pair_numeric_panel() {
        let df = frame();
        let cfg = Config::default();
        let mut ctx = ComputeContext::new(&df, &cfg);
        let (ims, _) = compute_missing_pair(&mut ctx, "a", "b").unwrap();
        for chart in [
            "compare_histogram",
            "pdf:before",
            "pdf:after",
            "cdf:before",
            "cdf:after",
            "box_plot",
        ] {
            assert!(ims.get(chart).is_some(), "missing {chart}");
        }
        let Some(Inter::Boxes(boxes)) = ims.get("box_plot") else { panic!() };
        assert_eq!(boxes.len(), 2);
        // Dropping low values raises the median.
        assert!(boxes[1].1.median > boxes[0].1.median);
        // CDF ends at ~1.
        let Some(Inter::Line { ys, .. }) = ims.get("cdf:before") else { panic!() };
        assert!((ys.last().unwrap() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn pair_categorical_panel() {
        let df = frame();
        let cfg = Config::default();
        let mut ctx = ComputeContext::new(&df, &cfg);
        let (ims, _) = compute_missing_pair(&mut ctx, "a", "cat").unwrap();
        let Some(Inter::CompareBars { before, after, .. }) = ims.get("compare_bars") else {
            panic!()
        };
        assert!(before.iter().sum::<u64>() > after.iter().sum::<u64>());
    }

    #[test]
    fn similarity_insight_when_mcar() {
        // Nulls spread evenly: dropping them preserves the distribution.
        let n = 400;
        let df = DataFrame::new(vec![
            (
                "a".into(),
                Column::from_opt_f64(
                    (0..n)
                        .map(|i| if i % 10 == 0 { None } else { Some(i as f64) })
                        .collect(),
                ),
            ),
            (
                "b".into(),
                Column::from_f64((0..n).map(|i| (i % 50) as f64).collect()),
            ),
        ])
        .unwrap();
        let cfg = Config::default();
        let mut ctx = ComputeContext::new(&df, &cfg);
        let (_, insights) = compute_missing_pair(&mut ctx, "a", "b").unwrap();
        assert!(insights
            .iter()
            .any(|i| i.kind == crate::insights::InsightKind::SimilarDistribution));
    }

    #[test]
    fn histogram_ks_bounds() {
        let mut a = Histogram::new(0.0, 10.0, 5);
        a.extend([1.0, 2.0, 3.0]);
        let mut b = Histogram::new(0.0, 10.0, 5);
        b.extend([9.0, 9.5]);
        let d = histogram_ks(&a, &b).unwrap();
        assert!(d > 0.9);
        assert!(histogram_ks(&a, &a).unwrap() < 1e-12);
        let empty = Histogram::new(0.0, 10.0, 5);
        assert!(histogram_ks(&a, &empty).is_none());
    }
}
