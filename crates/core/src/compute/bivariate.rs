//! Bivariate analysis: `plot(df, x, y)` (paper Figure 2, row 3).
//!
//! * N×N → scatter plot, hexbin plot, binned box plot.
//! * N×C / C×N → categorical box plot, multi-line chart.
//! * C×C → nested bar chart, stacked bar chart, heat map.
//!
//! Every variant ends in one section node, `section:bivariate:<x>:<y>`.
//! In the categorical variants the groups a chart shows depend on data:
//! they are the head of the categorical column's `freq_summary` node. The
//! grouped kernels and the section read that node as a dependency, so the
//! group choice is graph work and planning executes nothing.

use std::collections::HashMap;
use std::sync::Arc;

use eda_stats::freq::FreqSummary;
use eda_stats::histogram::Histogram;
use eda_stats::moments::Moments;
use eda_stats::quantile::BoxPlot;
use eda_taskgraph::NodeId;

use crate::dtype::SemanticType;
use crate::error::EdaResult;
use crate::intermediate::{Inter, Intermediates};

use super::ctx::{un, ComputeContext};
use super::kernels::{self, hex_center, hex_scales, Rows};
use super::univariate::{fmt_num, thin_scatter};

/// Plan `plot(df, x, y)`, dispatching on the semantic type pair.
pub fn compute_bivariate(ctx: &mut ComputeContext<'_>, x: &str, y: &str) -> EdaResult<NodeId> {
    let name = format!("section:bivariate:{x}:{y}");
    match (ctx.semantic(x)?, ctx.semantic(y)?) {
        (SemanticType::Numerical, SemanticType::Numerical) => Ok(numeric_numeric(ctx, &name, x, y)),
        (SemanticType::Numerical, SemanticType::Categorical) => {
            Ok(numeric_categorical(ctx, &name, y, x))
        }
        (SemanticType::Categorical, SemanticType::Numerical) => {
            Ok(numeric_categorical(ctx, &name, x, y))
        }
        (SemanticType::Categorical, SemanticType::Categorical) => {
            Ok(categorical_categorical(ctx, &name, x, y))
        }
    }
}

/// N×N: scatter, hexbin, binned box plot.
fn numeric_numeric(ctx: &mut ComputeContext<'_>, name: &str, x: &str, y: &str) -> NodeId {
    let deps = vec![
        kernels::pair_values(ctx, x, y),
        kernels::hexbin(ctx, x, y, ctx.config.hexbin.gridsize),
        kernels::binned_numeric(ctx, x, y, ctx.config.box_plot.bins),
        kernels::moments(ctx, x),
        kernels::moments(ctx, y),
    ];
    let config = Arc::clone(&ctx.config);
    ctx.section(name, deps, move |outs| {
        let pairs = un::<Vec<(f64, f64)>>(&outs[0]);
        let hex_cells = un::<HashMap<(i64, i64), u64>>(&outs[1]);
        let binned = un::<Vec<Vec<f64>>>(&outs[2]);
        let momx = un::<Moments>(&outs[3]);
        let momy = un::<Moments>(&outs[4]);

        let mut ims = Intermediates::new();

        // Scatter: deterministic stride thinning to the configured cap.
        let cap = config.scatter.sample;
        let sampled = pairs.len() > cap;
        ims.push("scatter_plot", Inter::Scatter { points: thin_scatter(pairs, cap), sampled });

        // Hexbin: axial cells back to data coordinates.
        let (sx, sy) = hex_scales(momx, momy, config.hexbin.gridsize);
        let mut cells: Vec<((i64, i64), u64)> = hex_cells.iter().map(|(k, v)| (*k, *v)).collect();
        cells.sort_unstable_by_key(|(k, _)| *k);
        let mut centers = Vec::with_capacity(cells.len());
        let mut counts = Vec::with_capacity(cells.len());
        for ((q, r), c) in cells {
            let (nx, ny) = hex_center(q, r);
            centers.push((momx.min + nx * sx, momy.min + ny * sy));
            counts.push(c);
        }
        ims.push(
            "hexbin_plot",
            Inter::Hexbin { centers, counts, radius: sx },
        );

        // Binned box plot: one box per x-bin, labelled with the bin range.
        let bins = binned.len().max(1);
        let width = (momx.max - momx.min) / bins as f64;
        let boxes: Vec<(String, BoxPlot)> = binned
            .iter()
            .enumerate()
            .filter_map(|(i, ys)| {
                let label = format!(
                    "[{}, {})",
                    fmt_num(momx.min + width * i as f64),
                    fmt_num(momx.min + width * (i + 1) as f64)
                );
                BoxPlot::from_values(ys, config.box_plot.max_outliers).map(|bp| (label, bp))
            })
            .collect();
        ims.push("binned_box_plot", Inter::Boxes(boxes));
        (ims, Vec::new())
    })
}

/// N×C (either order): categorical box plot + multi-line chart.
/// `cat`/`num` are already disambiguated by the caller.
fn numeric_categorical(ctx: &mut ComputeContext<'_>, name: &str, cat: &str, num: &str) -> NodeId {
    // The groups are the head of the summary's top list.
    let summary = kernels::freq_summary(ctx, cat, Rows::All);
    let (box_groups, line_groups) = (ctx.config.box_plot.ngroups, ctx.config.line.ngroups);
    let deps = vec![
        kernels::grouped_numeric(ctx, cat, num, summary, box_groups),
        kernels::multi_line(ctx, cat, num, summary, line_groups, ctx.config.line.bins),
        summary,
    ];
    let config = Arc::clone(&ctx.config);
    ctx.section(name, deps, move |outs| {
        let groups = un::<Vec<Vec<f64>>>(&outs[0]);
        let line_hists = un::<Vec<Histogram>>(&outs[1]);
        let freq = un::<FreqSummary>(&outs[2]);
        let (box_top, line_top) = (freq.labels(box_groups), freq.labels(line_groups));

        let mut ims = Intermediates::new();
        let mut boxes: Vec<(String, BoxPlot)> = box_top
            .into_iter()
            .zip(groups)
            .filter_map(|(c, v)| {
                BoxPlot::from_values(v, config.box_plot.max_outliers).map(|bp| (c, bp))
            })
            .collect();
        boxes.sort_by(|a, b| a.0.cmp(&b.0));
        ims.push("categorical_box_plot", Inter::Boxes(boxes));

        // Multi-line chart: shared bin centers, one count series per category.
        let mut xs: Vec<f64> = Vec::new();
        let mut series: Vec<(String, Vec<u64>)> = Vec::new();
        for (c, h) in line_top.into_iter().zip(line_hists) {
            if xs.is_empty() {
                xs = h
                    .edges()
                    .windows(2)
                    .map(|w| (w[0] + w[1]) / 2.0)
                    .collect();
            }
            series.push((c, h.counts.clone()));
        }
        series.sort_by(|a, b| a.0.cmp(&b.0));
        ims.push("multi_line_chart", Inter::MultiLine { xs, series });
        (ims, Vec::new())
    })
}

/// C×C: nested bars, stacked bars, heat map from one crosstab.
fn categorical_categorical(ctx: &mut ComputeContext<'_>, name: &str, x: &str, y: &str) -> NodeId {
    let fx = kernels::freq_summary(ctx, x, Rows::All);
    let fy = kernels::freq_summary(ctx, y, Rows::All);
    let ngroups = (ctx.config.crosstab.ngroups_x, ctx.config.crosstab.ngroups_y);
    // One crosstab feeds all three charts (shared computation).
    let ct = kernels::crosstab(ctx, (x, y), (fx, fy), ngroups);
    ctx.section(name, vec![ct, fx, fy], move |outs| {
        // One row of `keep_y.len()` counts per kept x category.
        let counts = un::<Vec<u64>>(&outs[0]);
        let keep_x = un::<FreqSummary>(&outs[1]).labels(ngroups.0);
        let keep_y = un::<FreqSummary>(&outs[2]).labels(ngroups.1);

        let mut ims = Intermediates::new();
        let values: Vec<Vec<u64>> = (0..keep_y.len())
            .map(|y| counts.iter().skip(y).step_by(keep_y.len().max(1)).copied().collect())
            .collect();
        ims.push(
            "heat_map",
            Inter::Heatmap {
                xlabels: keep_x.clone(),
                ylabels: keep_y.clone(),
                values: values.clone(),
            },
        );
        let series: Vec<(String, Vec<u64>)> = keep_y
            .iter()
            .zip(&values)
            .map(|(yc, row)| (yc.clone(), row.clone()))
            .collect();
        ims.push(
            "nested_bar_chart",
            Inter::GroupedBars {
                xlabels: keep_x.clone(),
                series: series.clone(),
                stacked: false,
            },
        );
        ims.push(
            "stacked_bar_chart",
            Inter::GroupedBars { xlabels: keep_x, series, stacked: true },
        );
        (ims, Vec::new())
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Config;
    use crate::compute::ctx::Section;
    use eda_dataframe::{Column, DataFrame};

    fn section(ctx: &mut ComputeContext<'_>, x: &str, y: &str) -> Section {
        let node = compute_bivariate(ctx, x, y).unwrap();
        ctx.run_section(node).unwrap()
    }

    fn frame() -> DataFrame {
        let n = 400;
        DataFrame::new(vec![
            (
                "size".into(),
                Column::from_f64((0..n).map(|i| 50.0 + (i % 100) as f64).collect()),
            ),
            (
                "price".into(),
                Column::from_f64((0..n).map(|i| 1000.0 + 3.0 * (i % 100) as f64).collect()),
            ),
            (
                "city".into(),
                Column::from_string((0..n).map(|i| format!("c{}", i % 4)).collect()),
            ),
            (
                "type".into(),
                Column::from_string((0..n).map(|i| format!("t{}", i % 3)).collect()),
            ),
        ])
        .unwrap()
    }

    #[test]
    fn nn_panel_charts() {
        let df = frame();
        let cfg = Config::default();
        let mut ctx = ComputeContext::new(&df, &cfg);
        let (ims, _) = section(&mut ctx, "size", "price");
        let types = (ctx.semantic("size").unwrap(), ctx.semantic("price").unwrap());
        assert_eq!(types, (SemanticType::Numerical, SemanticType::Numerical));
        for chart in ["scatter_plot", "hexbin_plot", "binned_box_plot"] {
            assert!(ims.get(chart).is_some(), "missing {chart}");
        }
        let Some(Inter::Scatter { points, .. }) = ims.get("scatter_plot") else {
            panic!()
        };
        assert!(points.len() <= cfg.scatter.sample);
        assert!(!points.is_empty());
        let Some(Inter::Hexbin { centers, counts, .. }) = ims.get("hexbin_plot") else {
            panic!()
        };
        assert_eq!(centers.len(), counts.len());
        assert_eq!(counts.iter().sum::<u64>(), 400);
    }

    #[test]
    fn nc_panel_charts() {
        let df = frame();
        let cfg = Config::default();
        let mut ctx = ComputeContext::new(&df, &cfg);
        let (ims, _) = section(&mut ctx, "price", "city");
        let types = (ctx.semantic("price").unwrap(), ctx.semantic("city").unwrap());
        assert_eq!(types, (SemanticType::Numerical, SemanticType::Categorical));
        let Some(Inter::Boxes(boxes)) = ims.get("categorical_box_plot") else {
            panic!()
        };
        assert_eq!(boxes.len(), 4);
        let Some(Inter::MultiLine { xs, series }) = ims.get("multi_line_chart") else {
            panic!()
        };
        assert_eq!(xs.len(), cfg.line.bins);
        assert_eq!(series.len(), 4);
    }

    #[test]
    fn cn_order_gives_same_charts() {
        let df = frame();
        let cfg = Config::default();
        let mut ctx = ComputeContext::new(&df, &cfg);
        let (ims, _) = section(&mut ctx, "city", "price");
        let types = (ctx.semantic("city").unwrap(), ctx.semantic("price").unwrap());
        assert_eq!(types, (SemanticType::Categorical, SemanticType::Numerical));
        assert!(ims.get("categorical_box_plot").is_some());
        assert!(ims.get("multi_line_chart").is_some());
    }

    #[test]
    fn cc_panel_charts() {
        let df = frame();
        let cfg = Config::default();
        let mut ctx = ComputeContext::new(&df, &cfg);
        let (ims, _) = section(&mut ctx, "city", "type");
        let types = (ctx.semantic("city").unwrap(), ctx.semantic("type").unwrap());
        assert_eq!(
            types,
            (SemanticType::Categorical, SemanticType::Categorical)
        );
        let Some(Inter::Heatmap { xlabels, ylabels, values }) = ims.get("heat_map") else {
            panic!()
        };
        assert_eq!(xlabels.len(), 4);
        assert_eq!(ylabels.len(), 3);
        let total: u64 = values.iter().flatten().sum();
        assert_eq!(total, 400);
        assert!(matches!(
            ims.get("nested_bar_chart"),
            Some(Inter::GroupedBars { stacked: false, .. })
        ));
        assert!(matches!(
            ims.get("stacked_bar_chart"),
            Some(Inter::GroupedBars { stacked: true, .. })
        ));
    }

    #[test]
    fn crosstab_groups_follow_config() {
        let df = frame();
        let cfg = Config::from_pairs(vec![
            ("crosstab.ngroups_x", "2"),
            ("crosstab.ngroups_y", "2"),
        ])
        .unwrap();
        let mut ctx = ComputeContext::new(&df, &cfg);
        let (ims, _) = section(&mut ctx, "city", "type");
        let Some(Inter::Heatmap { xlabels, ylabels, .. }) = ims.get("heat_map") else {
            panic!()
        };
        assert_eq!(xlabels.len(), 2);
        assert_eq!(ylabels.len(), 2);
    }

    #[test]
    fn binned_box_covers_x_range() {
        let df = frame();
        let cfg = Config::default();
        let mut ctx = ComputeContext::new(&df, &cfg);
        let (ims, _) = section(&mut ctx, "size", "price");
        let Some(Inter::Boxes(boxes)) = ims.get("binned_box_plot") else { panic!() };
        assert_eq!(boxes.len(), cfg.box_plot.bins);
        // Labels are bin ranges.
        assert!(boxes[0].0.starts_with('['));
    }
}
