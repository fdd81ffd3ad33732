//! Overview analysis: `plot(df)` (paper Figure 2, row 1).
//!
//! Dataset statistics plus one small distribution chart per column — a
//! histogram for numerical columns, a bar chart for categorical ones.

use std::sync::Arc;

use eda_stats::freq::FreqSummary;
use eda_stats::histogram::Histogram;
use eda_stats::missing::ColMeta;
use eda_stats::moments::Moments;
use eda_taskgraph::NodeId;

use crate::dtype::SemanticType;
use crate::intermediate::{Inter, Intermediates, StatRow};

use super::ctx::{un, ComputeContext};
use super::kernels;
use super::univariate::bar_from_freq;

/// Per-column plan entry of the overview. A column's null count is read
/// off the payloads it already needs ([`ColMeta`]), not counted again.
pub enum OverviewColumnPlan {
    /// Numeric column: moments (the histogram's range, and the column's
    /// nulls) + histogram.
    Numeric {
        /// Column name.
        name: String,
        /// Moments node.
        moments: NodeId,
        /// Histogram node.
        hist: NodeId,
    },
    /// Categorical column: frequency summary.
    Categorical {
        /// Column name.
        name: String,
        /// Frequency-summary node.
        freq: NodeId,
    },
}

/// The overview plan across all columns.
pub struct OverviewPlan {
    /// One entry per column, in frame order.
    pub columns: Vec<OverviewColumnPlan>,
}

impl OverviewPlan {
    /// The output nodes to request, flattened.
    pub fn outputs(&self) -> Vec<NodeId> {
        self.columns
            .iter()
            .flat_map(|c| match c {
                OverviewColumnPlan::Numeric { moments, hist, .. } => vec![*moments, *hist],
                OverviewColumnPlan::Categorical { freq, .. } => vec![*freq],
            })
            .collect()
    }
}

/// Add the overview plan for every column.
pub fn plan_overview(ctx: &mut ComputeContext<'_>) -> OverviewPlan {
    let names: Vec<String> = ctx.df.names().to_vec();
    let columns = names
        .into_iter()
        .map(|name| match ctx.semantic(&name).expect("iterating frame names") {
            SemanticType::Numerical => OverviewColumnPlan::Numeric {
                moments: kernels::moments(ctx, &name),
                hist: kernels::histogram(ctx, &name),
                name,
            },
            SemanticType::Categorical => OverviewColumnPlan::Categorical {
                freq: kernels::freq_summary(ctx, &name),
                name,
            },
        })
        .collect();
    OverviewPlan { columns }
}

/// Plan `plot(df)`: the overview kernels and the section node over them.
pub fn compute_overview(ctx: &mut ComputeContext<'_>) -> NodeId {
    let plan = plan_overview(ctx);
    // The frame's columns are shared, so the section owns a cheap copy:
    // its memory size reads every string value's length.
    let (df, config) = (ctx.df.clone(), Arc::clone(&ctx.config));
    let outputs = plan.outputs();
    ctx.section("section:overview", outputs, move |outs| {
        let (nrows, ncols) = (df.nrows(), df.ncols());
        let mut total_missing = 0usize;
        let mut n_numeric = 0usize;
        let mut n_categorical = 0usize;
        let mut cursor = 0usize;
        let mut column_charts: Vec<(String, Inter)> = Vec::new();
        for c in &plan.columns {
            match c {
                OverviewColumnPlan::Numeric { name, .. } => {
                    total_missing += ColMeta::numeric(nrows, un::<Moments>(&outs[cursor])).nulls;
                    let hist = un::<Histogram>(&outs[cursor + 1]);
                    cursor += 2;
                    n_numeric += 1;
                    column_charts.push((
                        format!("histogram:{name}"),
                        Inter::Histogram { edges: hist.edges(), counts: hist.counts.clone() },
                    ));
                }
                OverviewColumnPlan::Categorical { name, .. } => {
                    let freq = un::<FreqSummary>(&outs[cursor]);
                    cursor += 1;
                    total_missing += ColMeta::categorical(freq.total, freq.nulls).nulls;
                    n_categorical += 1;
                    let chart = bar_from_freq(freq, config.bar.ngroups);
                    column_charts.push((format!("bar_chart:{name}"), chart));
                }
            }
        }

        let mut ims = Intermediates::new();
        let cells = nrows * ncols;
        ims.push(
            "stats",
            Inter::StatsTable(vec![
                StatRow::new("rows", nrows.to_string()),
                StatRow::new("columns", ncols.to_string()),
                StatRow::new("numerical columns", n_numeric.to_string()),
                StatRow::new("categorical columns", n_categorical.to_string()),
                StatRow::new("missing cells", total_missing.to_string()),
                StatRow::new(
                    "missing cells (%)",
                    format!("{:.1}%", 100.0 * total_missing as f64 / cells.max(1) as f64),
                ),
                StatRow::new("memory size", format!("{:.1} KB", df.memory_size() as f64 / 1024.0)),
            ]),
        );
        for (name, chart) in column_charts {
            ims.push(name, chart);
        }
        (ims, Vec::new())
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Config;
    use eda_dataframe::{Column, DataFrame};

    fn frame() -> DataFrame {
        DataFrame::new(vec![
            ("size".into(), Column::from_f64((0..50).map(|i| i as f64).collect())),
            (
                "year_built".into(),
                Column::from_i64((0..50).map(|i| 1960 + (i * 7) % 60).collect()),
            ),
            (
                "city".into(),
                Column::from_opt_string(
                    (0..50)
                        .map(|i| if i % 10 == 0 { None } else { Some(format!("c{}", i % 3)) })
                        .collect(),
                ),
            ),
            (
                "house_type".into(),
                Column::from_strs(&["detached"; 50]),
            ),
        ])
        .unwrap()
    }

    #[test]
    fn one_chart_per_column() {
        let df = frame();
        let cfg = Config::default();
        let mut ctx = ComputeContext::new(&df, &cfg);
        let node = compute_overview(&mut ctx);
        let (ims, _) = ctx.run_section(node).unwrap();
        assert!(ims.get("histogram:size").is_some());
        assert!(ims.get("histogram:year_built").is_some());
        assert!(ims.get("bar_chart:city").is_some());
        assert!(ims.get("bar_chart:house_type").is_some());
    }

    #[test]
    fn dataset_stats_table() {
        let df = frame();
        let cfg = Config::default();
        let mut ctx = ComputeContext::new(&df, &cfg);
        let node = compute_overview(&mut ctx);
        let (ims, _) = ctx.run_section(node).unwrap();
        let Some(Inter::StatsTable(rows)) = ims.get("stats") else { panic!() };
        let get = |label: &str| {
            rows.iter().find(|r| r.label == label).unwrap().value.clone()
        };
        assert_eq!(get("rows"), "50");
        assert_eq!(get("columns"), "4");
        assert_eq!(get("numerical columns"), "2");
        assert_eq!(get("categorical columns"), "2");
        assert_eq!(get("missing cells"), "5");
    }

    #[test]
    fn overview_histograms_share_with_univariate() {
        // The report builds overview + univariate into one graph; the
        // histogram nodes must be shared (CSE) because bins match.
        let df = frame();
        let cfg = Config::default();
        let mut ctx = ComputeContext::new(&df, &cfg);
        let plan = plan_overview(&mut ctx);
        let before = ctx.graph.len();
        let uni = super::super::univariate::compute_univariate(&mut ctx, "size").unwrap();
        // The univariate plan re-adds moments/hist for "size": all of
        // those must dedupe onto the overview's nodes...
        let OverviewColumnPlan::Numeric { hist, .. } = &plan.columns[0] else {
            panic!()
        };
        assert_eq!(ctx.graph.task(uni).deps[2], *hist);
        // ...so only genuinely new work (sorted, freq) and the section
        // node add nodes.
        let added = ctx.graph.len() - before;
        let fresh_kernels = 2; // sorted_values + freq
        let per_kernel_max = ctx.pf.npartitions() * 2; // map + reduce layers
        assert!(
            added <= fresh_kernels * per_kernel_max + 1,
            "univariate after overview added {added} nodes"
        );
    }
}
