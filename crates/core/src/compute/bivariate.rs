//! Bivariate analysis: `plot(df, x, y)` (paper Figure 2, row 3).
//!
//! * N×N → scatter plot, hexbin plot, binned box plot.
//! * N×C / C×N → categorical box plot, multi-line chart.
//! * C×C → nested bar chart, stacked bar chart, heat map.
//!
//! Every variant ends in one section node, `section:bivariate:<x>:<y>`.
//! Each reads the rows once per column statistic (`moments`, `freq`) and
//! once for what the pair's charts share: the complete pairs (N×N), the
//! numeric values grouped by category (N×C) or the crosstab (C×C). Every
//! other chart is derived from those payloads and reads no row.
//! In the categorical variants the groups a chart shows depend on data:
//! they are the head of the categorical column's `freq_summary` node. The
//! grouped kernels and the section read that node as a dependency, so the
//! group choice is graph work and planning executes nothing.

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

/// N×N: scatter, hexbin, binned box plot, all from the one pair gather.
fn numeric_numeric(ctx: &mut ComputeContext<'_>, name: &str, x: &str, y: &str) -> NodeId {
    let deps = vec![
        kernels::pair_values(ctx, x, y),
        kernels::hexbin(ctx, x, y),
        kernels::binned_numeric(ctx, x, y),
        kernels::moments(ctx, x),
        kernels::moments(ctx, y),
    ];
    let config = Arc::clone(&ctx.config);
    ctx.section(name, deps, move |outs| {
        let pairs = un::<Vec<(f64, f64)>>(&outs[0]);
        let hex_cells = un::<Vec<((i64, i64), u64)>>(&outs[1]);
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
        let (centers, counts) = (hex_cells.iter())
            .map(|&((q, r), count)| {
                let (nx, ny) = hex_center(q, r);
                ((momx.min + nx * sx, momy.min + ny * sy), count)
            })
            .unzip();
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
    // The groups are the head of the summary's top list: one grouping as
    // wide as the wider chart, of which each chart takes its head.
    let summary = kernels::freq_summary(ctx, cat, Rows::All);
    let (box_groups, line_groups) = (ctx.config.box_plot.ngroups, ctx.config.line.ngroups);
    let grouped = kernels::grouped_numeric(ctx, cat, num, summary);
    let deps = vec![grouped, kernels::multi_line(ctx, (cat, num), grouped), summary];
    let config = Arc::clone(&ctx.config);
    ctx.section(name, deps, move |outs| {
        let groups = un::<Vec<Vec<f64>>>(&outs[0]);
        let line_hists = un::<Vec<Histogram>>(&outs[1]);
        let freq = un::<FreqSummary>(&outs[2]);
        let (box_top, line_top) = (freq.labels(box_groups), freq.labels(line_groups));

        let mut ims = Intermediates::new();
        // The zip stops at the box chart's `box_groups` labels.
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
    let ct = kernels::crosstab(ctx, (x, y), (fx, fy));
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
    use std::collections::BTreeMap;

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

    /// How many partition reads the planned tasks of each name make — a
    /// (task, partition) pair each — for `plot(df, x, y)` over two
    /// partitions.
    fn row_readers(df: &DataFrame, x: &str, y: &str) -> BTreeMap<String, usize> {
        let cfg = Config::default();
        let mut ctx = ComputeContext::partitioned(df, &cfg, 2);
        compute_bivariate(&mut ctx, x, y).unwrap();
        let mut readers = BTreeMap::new();
        for task in (0..ctx.graph.len()).map(|id| ctx.graph.task(id)) {
            let reads = task.deps.iter().filter(|dep| ctx.sources.contains(dep)).count();
            if reads > 0 {
                *readers.entry(task.name.clone()).or_insert(0) += reads;
            }
        }
        readers
    }

    #[test]
    fn each_pair_view_reads_its_rows_once() {
        let df = frame();
        let once = |names: &[&str]| names.iter().map(|n| (n.to_string(), 2)).collect();
        let nn = ["moments:price", "moments:size", "pair_values:size:price"];
        assert_eq!(row_readers(&df, "size", "price"), once(&nn));
        let nc = ["freq:city", "grouped_numeric:city:price", "moments:price"];
        assert_eq!(row_readers(&df, "price", "city"), once(&nc));
        assert_eq!(row_readers(&df, "city", "price"), once(&nc));
        let cc = ["crosstab:city:type", "freq:city", "freq:type"];
        assert_eq!(row_readers(&df, "city", "type"), once(&cc));
    }

    #[test]
    fn grid_views_skip_infinite_pairs() {
        // Scatter and the pair list keep the two infinite x; hexbin and
        // the binned boxes bin the 198 finite pairs only.
        let n = 200;
        let x = |i: usize| match i {
            7 => f64::INFINITY,
            9 => f64::NEG_INFINITY,
            _ => (i * 37 % 101) as f64,
        };
        let df = DataFrame::new(vec![
            ("x".into(), Column::from_f64((0..n).map(x).collect())),
            ("y".into(), Column::from_f64((0..n).map(|i| (i % 50) as f64 * 0.5).collect())),
        ])
        .unwrap();
        let cfg = Config::default();
        let mut ctx = ComputeContext::new(&df, &cfg);
        let (ims, _) = section(&mut ctx, "x", "y");
        let Some(Inter::Scatter { points, .. }) = ims.get("scatter_plot") else { panic!() };
        assert_eq!(points.iter().filter(|(a, _)| a.is_infinite()).count(), 2);
        let Some(Inter::Hexbin { centers, counts, radius }) = ims.get("hexbin_plot") else {
            panic!()
        };
        assert_eq!(counts.iter().sum::<u64>(), 198);
        let (ymin, ymax) = (0.0, 24.5);
        let (_, sy) = hex_scales(
            &Moments::from_slice(&[0.0, 100.0]),
            &Moments::from_slice(&[ymin, ymax]),
            cfg.hexbin.gridsize,
        );
        for &(cx, cy) in centers {
            assert!((-radius..=100.0 + radius).contains(&cx), "center x {cx}");
            assert!((ymin - sy..=ymax + sy).contains(&cy), "center y {cy}");
        }
        let Some(Inter::Boxes(boxes)) = ims.get("binned_box_plot") else { panic!() };
        assert_eq!(boxes.iter().map(|(_, b)| b.n).sum::<usize>(), 198);
    }
}
