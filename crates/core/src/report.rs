//! `create_report(df)`: the full profile report.
//!
//! The report covers what a Pandas-profiling report covers — overview,
//! per-variable sections, correlations, missing values — but is computed
//! the DataPrep.EDA way: **every section's statistics are planned into one
//! lazy graph**, shared subcomputations collapse (a column's histogram is
//! computed once even though the overview and its variable section both
//! show it), and the optimized graph executes once. That single-graph
//! construction is what the paper credits for the 4–20× speedups of
//! Table 2.

use std::sync::Arc;

use eda_dataframe::DataFrame;
use eda_taskgraph::graph::Payload;
use eda_taskgraph::outcome::{root_failure, TaskOutcome};
use eda_taskgraph::ExecStats;

use crate::api::SectionStatus;
use crate::compute::correlation::{self, numeric_columns};
use crate::compute::ctx::{un, ComputeContext};
use crate::compute::missing::{assemble_missing_overview, plan_missing_overview};
use crate::compute::overview::{assemble_overview, plan_overview};
use crate::compute::univariate::{
    assemble_categorical, assemble_numeric, plan_categorical, plan_numeric, CategoricalPlan,
    NumericPlan,
};
use crate::config::Config;
use crate::dtype::{detect, SemanticType};
use crate::error::EdaResult;
use crate::insights::Insight;
use crate::intermediate::Intermediates;

use eda_stats::corr::CorrMatrix;

/// One variable section of the report.
#[derive(Debug)]
pub struct VariableSection {
    /// Column name.
    pub name: String,
    /// Detected semantic type.
    pub semantic: SemanticType,
    /// The column's charts and stats (empty when the section failed).
    pub intermediates: Intermediates,
    /// The column's insights.
    pub insights: Vec<Insight>,
    /// Whether this column's statistics computed fully; `Failed` sections
    /// render as a diagnostics panel instead of charts.
    pub status: SectionStatus,
}

/// The full profile report.
///
/// Fault tolerant: a kernel panicking (or blowing its deadline) on one
/// pathological column degrades only the sections that needed that
/// kernel — everything else computes, and failed sections carry
/// diagnostics instead of charts.
#[derive(Debug)]
pub struct Report {
    /// Dataset-level overview (stats + per-column mini charts).
    pub overview: Intermediates,
    /// Health of the overview section.
    pub overview_status: SectionStatus,
    /// One section per column.
    pub variables: Vec<VariableSection>,
    /// Correlation matrices (empty when < 2 numeric columns).
    pub correlations: Vec<CorrMatrix>,
    /// Health of the correlations section.
    pub correlations_status: SectionStatus,
    /// Missing-value section.
    pub missing: Intermediates,
    /// Health of the missing-values section.
    pub missing_status: SectionStatus,
    /// All insights across sections.
    pub insights: Vec<Insight>,
    /// Execution statistics of the single shared graph (`tasks_failed`,
    /// `tasks_skipped`, and `tasks_timed_out` are non-zero on degraded
    /// runs).
    pub stats: ExecStats,
}

/// Split a section's outcomes: all payloads, or the status describing
/// its [`root_failure`] (the scheduler already attributed skips to their
/// root cause).
fn section_payloads(outcomes: &[TaskOutcome]) -> Result<Vec<Payload>, SectionStatus> {
    match root_failure(outcomes) {
        Some(err) => Err(SectionStatus::Failed(Arc::clone(err))),
        None => Ok(outcomes
            .iter()
            .map(|o| Arc::clone(o.payload().expect("no failures in section")))
            .collect()),
    }
}

impl Report {
    /// Build the report over one shared graph.
    pub fn create(df: &DataFrame, config: &Config) -> EdaResult<Report> {
        Report::from_context(ComputeContext::new(df, config))
    }

    /// Plan every section into `ctx`'s graph, execute it once and
    /// assemble the report.
    pub fn from_context(mut ctx: ComputeContext<'_>) -> EdaResult<Report> {
        let (df, config) = (ctx.df, ctx.config);

        // ---- plan EVERYTHING into one graph --------------------------------
        let overview_plan = plan_overview(&mut ctx);

        enum VarPlan {
            Numeric(String, NumericPlan),
            Categorical(String, CategoricalPlan),
        }
        let names: Vec<String> = df.names().to_vec();
        let var_plans: Vec<VarPlan> = names
            .iter()
            .map(|name| {
                let col = df.column(name).expect("frame names");
                match detect(col, config.types.low_cardinality) {
                    SemanticType::Numerical => {
                        VarPlan::Numeric(name.clone(), plan_numeric(&mut ctx, name))
                    }
                    SemanticType::Categorical => {
                        VarPlan::Categorical(name.clone(), plan_categorical(&mut ctx, name))
                    }
                }
            })
            .collect();

        let corr_names = numeric_columns(&ctx);
        // One assembled matrix per method over tiled cell tasks; only
        // insight filtering stays eager.
        let corr_nodes: Vec<_> = if corr_names.len() >= 2 {
            correlation::plan_matrix_nodes(&mut ctx, &corr_names)
        } else {
            Vec::new()
        };

        let missing_node = plan_missing_overview(&mut ctx);

        // ---- execute once ---------------------------------------------------
        let mut outputs = overview_plan.outputs();
        let var_ranges: Vec<(usize, usize)> = var_plans
            .iter()
            .map(|p| {
                let start = outputs.len();
                match p {
                    VarPlan::Numeric(_, plan) => outputs.extend(plan.outputs()),
                    VarPlan::Categorical(_, plan) => outputs.extend(plan.outputs()),
                }
                (start, outputs.len())
            })
            .collect();
        let corr_start = outputs.len();
        outputs.extend(&corr_nodes);
        let missing_start = outputs.len();
        outputs.push(missing_node);

        let outcomes = ctx.execute_outcomes(&outputs);
        let stats = ctx.last_stats.clone().expect("executed");

        // ---- assemble (Pandas phase), degrading per section ----------------
        // A failed kernel only takes down the sections that needed it;
        // each section checks its own slice of outcomes.
        let overview_len = overview_plan.outputs().len();
        let (overview, mut insights, overview_status) =
            match section_payloads(&outcomes[..overview_len]) {
                Ok(outs) => {
                    let (o, i) = assemble_overview(&ctx, &overview_plan, &outs);
                    (o, i, SectionStatus::Ok)
                }
                Err(status) => (Intermediates::new(), Vec::new(), status),
            };

        let mut variables = Vec::with_capacity(var_plans.len());
        for (plan, (start, end)) in var_plans.iter().zip(&var_ranges) {
            let (name, semantic) = match plan {
                VarPlan::Numeric(name, _) => (name, SemanticType::Numerical),
                VarPlan::Categorical(name, _) => (name, SemanticType::Categorical),
            };
            match section_payloads(&outcomes[*start..*end]) {
                Ok(outs) => {
                    let (ims, ins) = match plan {
                        VarPlan::Numeric(name, _) => {
                            assemble_numeric(name, config, ctx.pf.nrows(), &outs)
                        }
                        VarPlan::Categorical(name, _) => {
                            assemble_categorical(name, config, &outs)
                        }
                    };
                    insights.extend(ins.iter().cloned());
                    variables.push(VariableSection {
                        name: name.clone(),
                        semantic,
                        intermediates: ims,
                        insights: ins,
                        status: SectionStatus::Ok,
                    });
                }
                Err(status) => variables.push(VariableSection {
                    name: name.clone(),
                    semantic,
                    intermediates: Intermediates::new(),
                    insights: Vec::new(),
                    status,
                }),
            }
        }

        let (correlations, correlations_status) = if corr_names.len() >= 2 {
            match section_payloads(&outcomes[corr_start..corr_start + corr_nodes.len()]) {
                Ok(outs) => {
                    let matrices: Vec<CorrMatrix> =
                        outs.iter().map(|p| un::<CorrMatrix>(p).clone()).collect();
                    for m in &matrices {
                        for (a, b, r) in m.strong_pairs(config.insight.correlation) {
                            if let Some(i) = crate::insights::correlation_insight(
                                &a,
                                &b,
                                m.method.name(),
                                r,
                                &config.insight,
                            ) {
                                insights.push(i);
                            }
                        }
                    }
                    (matrices, SectionStatus::Ok)
                }
                Err(status) => (Vec::new(), status),
            }
        } else {
            (Vec::new(), SectionStatus::Ok)
        };

        let (missing, missing_status) = match section_payloads(&outcomes[missing_start..]) {
            Ok(outs) => (
                assemble_missing_overview(&names, config.spectrum.bins, un(&outs[0])),
                SectionStatus::Ok,
            ),
            Err(status) => (Intermediates::new(), status),
        };

        Ok(Report {
            overview,
            overview_status,
            variables,
            correlations,
            correlations_status,
            missing,
            missing_status,
            insights,
            stats,
        })
    }

    /// Names and statuses of every degraded section (empty on a fully
    /// healthy report). Variable sections are named `"variable:<column>"`.
    pub fn failed_sections(&self) -> Vec<(String, &SectionStatus)> {
        let mut out = Vec::new();
        if !self.overview_status.is_ok() {
            out.push(("overview".to_string(), &self.overview_status));
        }
        for v in &self.variables {
            if !v.status.is_ok() {
                out.push((format!("variable:{}", v.name), &v.status));
            }
        }
        if !self.correlations_status.is_ok() {
            out.push(("correlations".to_string(), &self.correlations_status));
        }
        if !self.missing_status.is_ok() {
            out.push(("missing".to_string(), &self.missing_status));
        }
        out
    }

}

#[cfg(test)]
mod tests {
    use super::*;
    use eda_dataframe::Column;

    fn frame() -> DataFrame {
        let n = 300;
        DataFrame::new(vec![
            (
                "price".into(),
                Column::from_opt_f64(
                    (0..n)
                        .map(|i| {
                            if i % 30 == 0 {
                                None
                            } else {
                                Some(100_000.0 + ((i * 97) % 5000) as f64)
                            }
                        })
                        .collect(),
                ),
            ),
            (
                "size".into(),
                Column::from_f64((0..n).map(|i| 30.0 + ((i * 13) % 200) as f64).collect()),
            ),
            (
                "city".into(),
                Column::from_string((0..n).map(|i| format!("city{}", i % 6)).collect()),
            ),
        ])
        .unwrap()
    }

    #[test]
    fn report_covers_all_sections() {
        let df = frame();
        let cfg = Config::default();
        let report = Report::create(&df, &cfg).unwrap();
        assert_eq!(report.variables.len(), 3);
        assert_eq!(report.correlations.len(), 3);
        assert!(report.overview.get("stats").is_some());
        assert!(report.missing.get("dendrogram").is_some());
        let charts: usize = report.variables.iter().map(|v| v.intermediates.len()).sum();
        assert!(
            report.overview.len() + charts + report.correlations.len() + report.missing.len() > 15
        );
    }

    #[test]
    fn report_variable_sections_match_types() {
        let df = frame();
        let cfg = Config::default();
        let report = Report::create(&df, &cfg).unwrap();
        let price = &report.variables[0];
        assert_eq!(price.semantic, SemanticType::Numerical);
        assert!(price.intermediates.get("qq_plot").is_some());
        let city = &report.variables[2];
        assert_eq!(city.semantic, SemanticType::Categorical);
        assert!(city.intermediates.get("word_cloud").is_some());
    }

    #[test]
    fn poisoned_column_degrades_only_its_sections() {
        let df = frame();
        let cfg = Config::default();
        // Kill every kernel touching the `city` column; price/size stay up.
        let _guard = eda_taskgraph::inject::arm(eda_taskgraph::FaultInjector::panic_on(
            "freq:city",
        ));
        let report = Report::create(&df, &cfg).unwrap();
        assert!(report.stats.tasks_failed >= 1, "{:?}", report.stats);
        let city = report.variables.iter().find(|v| v.name == "city").unwrap();
        assert!(!city.status.is_ok());
        if let SectionStatus::Failed(err) = &city.status {
            assert!(err.name.contains("freq:city"), "{err}");
        }
        // Other variable sections are intact, with real content.
        let price = report.variables.iter().find(|v| v.name == "price").unwrap();
        assert!(price.status.is_ok());
        assert!(price.intermediates.get("qq_plot").is_some());
        // Correlations and missing never consume `freq:city`.
        assert!(report.correlations_status.is_ok());
        assert_eq!(report.correlations.len(), 3);
        assert!(report.missing_status.is_ok());
        let failed = report.failed_sections();
        assert!(failed.iter().any(|(n, _)| n == "variable:city"), "{failed:?}");
    }

    #[test]
    fn each_numeric_column_is_sorted_once() {
        // Three partitions, so a sort per partition would show as three
        // `sorted_values` tasks and a reduce.
        let n = 3 * 8192 + 5;
        let df = DataFrame::new(vec![
            ("a".into(), Column::from_f64((0..n).map(|i| ((i * 37) % 1009) as f64).collect())),
            ("b".into(), Column::from_opt_f64((0..n).map(|i| (i % 9 != 0).then_some(i as f64 * -0.5)).collect())),
            ("c".into(), Column::from_i64((0..n).map(|i| (i * 7919 % 10_007) as i64).collect())),
            ("city".into(), Column::from_string((0..n).map(|i| format!("city{}", i % 6)).collect())),
        ])
        .unwrap();
        let cfg = Config::from_pairs(vec![
            ("engine.npartitions", "3"),
            ("engine.profile", "true"),
            ("engine.cache_budget_bytes", "0"),
        ])
        .unwrap();
        let report = Report::create(&df, &cfg).unwrap();
        assert!(report.failed_sections().is_empty());
        let trace = report.stats.trace.as_ref().expect("profiled run");
        let ran = |name: &str| trace.spans.iter().filter(|s| s.name == name).count();
        assert_eq!(ran("numeric_gather:a"), 3, "one gather per partition");
        assert_eq!(ran("corr_prep"), 3, "one argsort per numeric column");
        for column in ["a", "b", "c"] {
            assert_eq!(ran(&format!("sorted_values:{column}")), 1, "{column}");
        }
        assert!(trace.spans.iter().all(|s| !s.name.starts_with("sorted_values/reduce")));
    }

    #[test]
    fn fully_healthy_report_has_no_failed_sections() {
        let report = Report::create(&frame(), &Config::default()).unwrap();
        assert!(report.failed_sections().is_empty());
        assert!(report.stats.fully_succeeded());
    }

    #[test]
    fn report_detects_correlation_insights() {
        // size and price correlated by construction? Use a frame where
        // they are.
        let n = 200;
        let df = DataFrame::new(vec![
            ("a".into(), Column::from_f64((0..n).map(|i| i as f64).collect())),
            (
                "b".into(),
                Column::from_f64((0..n).map(|i| 3.0 * i as f64 + 7.0).collect()),
            ),
        ])
        .unwrap();
        let cfg = Config::default();
        let report = Report::create(&df, &cfg).unwrap();
        assert!(report
            .insights
            .iter()
            .any(|i| i.kind == crate::insights::InsightKind::HighCorrelation));
    }
}
