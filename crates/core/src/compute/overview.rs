//! Overview analysis: `plot(df)` (paper Figure 2, row 1).
//!
//! Dataset statistics plus one small distribution chart per column — a
//! histogram for numerical columns, a bar chart for categorical ones.

use eda_stats::freq::FreqSummary;
use eda_stats::histogram::Histogram;
use eda_stats::missing::ColMeta;
use eda_stats::moments::Moments;
use eda_taskgraph::NodeId;

use crate::dtype::{detect, SemanticType};
use crate::error::EdaResult;
use crate::insights::Insight;
use crate::intermediate::{Inter, Intermediates, StatRow};

use super::ctx::{un, ComputeContext};
use super::kernels::{self, Rows};
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
        .map(|name| {
            let col = ctx.df.column(&name).expect("iterating frame names");
            match detect(col, ctx.config.types.low_cardinality) {
                SemanticType::Numerical => OverviewColumnPlan::Numeric {
                    moments: kernels::moments(ctx, &name),
                    hist: kernels::histogram(ctx, &name, ctx.config.hist.bins),
                    name,
                },
                SemanticType::Categorical => OverviewColumnPlan::Categorical {
                    freq: kernels::freq_summary(ctx, &name, Rows::All),
                    name,
                },
            }
        })
        .collect();
    OverviewPlan { columns }
}

/// Run `plot(df)`: plan, execute, assemble.
pub fn compute_overview(
    ctx: &mut ComputeContext<'_>,
) -> EdaResult<(Intermediates, Vec<Insight>)> {
    let plan = plan_overview(ctx);
    let outs = ctx.execute_checked(&plan.outputs())?;
    Ok(assemble_overview(ctx, &plan, &outs))
}

/// Assemble the overview from executed payloads.
pub fn assemble_overview(
    ctx: &ComputeContext<'_>,
    plan: &OverviewPlan,
    outs: &[eda_taskgraph::graph::Payload],
) -> (Intermediates, Vec<Insight>) {
    let mut ims = Intermediates::new();
    let insights = Vec::new();

    let mut total_missing = 0usize;
    let mut n_numeric = 0usize;
    let mut n_categorical = 0usize;
    let mut cursor = 0usize;
    let mut column_charts: Vec<(String, Inter)> = Vec::new();

    for c in &plan.columns {
        match c {
            OverviewColumnPlan::Numeric { name, .. } => {
                let meta = ColMeta::numeric(ctx.pf.nrows(), un::<Moments>(&outs[cursor]));
                let hist = un::<Histogram>(&outs[cursor + 1]);
                cursor += 2;
                total_missing += meta.nulls;
                n_numeric += 1;
                column_charts.push((
                    format!("histogram:{name}"),
                    Inter::Histogram { edges: hist.edges(), counts: hist.counts.clone() },
                ));
            }
            OverviewColumnPlan::Categorical { name, .. } => {
                let freq = un::<FreqSummary>(&outs[cursor]);
                let meta = ColMeta::categorical(freq.total, freq.nulls);
                cursor += 1;
                total_missing += meta.nulls;
                n_categorical += 1;
                column_charts.push((
                    format!("bar_chart:{name}"),
                    bar_from_freq(freq, ctx.config.bar.ngroups),
                ));
            }
        }
    }

    let nrows = ctx.df.nrows();
    let ncols = ctx.df.ncols();
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
            StatRow::new(
                "memory size",
                format!("{:.1} KB", ctx.df.memory_size() as f64 / 1024.0),
            ),
        ]),
    );
    for (name, chart) in column_charts {
        ims.push(name, chart);
    }
    (ims, insights)
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
        let (ims, _) = compute_overview(&mut ctx).unwrap();
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
        let (ims, _) = compute_overview(&mut ctx).unwrap();
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
        let uni = super::super::univariate::plan_numeric(&mut ctx, "size");
        // The univariate plan re-adds moments/hist for "size": all of
        // those must dedupe onto the overview's nodes...
        let OverviewColumnPlan::Numeric { hist, .. } = &plan.columns[0] else {
            panic!()
        };
        assert_eq!(*hist, uni.hist);
        // ...so only genuinely new work (sorted, freq) adds nodes.
        let added = ctx.graph.len() - before;
        let fresh_kernels = 2; // sorted_values + freq
        let per_kernel_max = ctx.pf.npartitions() * 2; // map + reduce layers
        assert!(
            added <= fresh_kernels * per_kernel_max,
            "univariate after overview added {added} nodes"
        );
    }
}
