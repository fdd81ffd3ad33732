//! `create_report(df)`: the full profile report.
//!
//! The report covers what a Pandas-profiling report covers — overview,
//! per-variable sections, correlations, missing values — but is computed
//! the DataPrep.EDA way: **every section is planned into one lazy graph**,
//! shared subcomputations collapse (a column's histogram is computed once
//! even though the overview and its variable section both show it), and
//! the optimized graph executes once. That single-graph construction is
//! what the paper credits for the 4–20× speedups of Table 2.
//!
//! Each section is the section node the matching call plans — `plot(df)`,
//! `plot(df, x)` per column, `plot_correlation(df)` and `plot_missing(df)`
//! — so a section a call computed earlier, or a whole warm report, is a
//! cache hit.

use std::sync::Arc;

use eda_dataframe::DataFrame;
use eda_taskgraph::{ExecStats, TaskOutcome};

use crate::api::SectionStatus;
use crate::compute::correlation::{compute_correlation_overview, numeric_columns};
use crate::compute::ctx::{un, ComputeContext, Section};
use crate::compute::missing::compute_missing_overview;
use crate::compute::overview::compute_overview;
use crate::compute::univariate::compute_univariate;
use crate::config::Config;
use crate::dtype::SemanticType;
use crate::error::EdaResult;
use crate::insights::Insight;
use crate::intermediate::{Inter, Intermediates};

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

/// A section node's outcome as a section: its content, or no content and
/// the root failure — the first direct failure behind it, else a skip's
/// root.
fn section(outcome: &TaskOutcome) -> (Intermediates, Vec<Insight>, SectionStatus) {
    match outcome {
        TaskOutcome::Ok(payload) => {
            let (intermediates, insights) = un::<Section>(payload).clone();
            (intermediates, insights, SectionStatus::Ok)
        }
        TaskOutcome::Failed(err) => {
            (Intermediates::new(), Vec::new(), SectionStatus::Failed(Arc::clone(err.root())))
        }
    }
}

impl Report {
    /// Build the report over one shared graph.
    pub fn create(df: &DataFrame, config: &Config) -> EdaResult<Report> {
        Report::from_context(ComputeContext::new(df, config))
    }

    /// Plan every section node into `ctx`'s graph, execute them once and
    /// map each outcome to its section.
    pub fn from_context(mut ctx: ComputeContext<'_>) -> EdaResult<Report> {
        let names: Vec<String> = ctx.df.names().to_vec();
        let mut nodes = vec![compute_overview(&mut ctx)];
        for name in &names {
            nodes.push(compute_univariate(&mut ctx, name)?);
        }
        let correlated = numeric_columns(&ctx).len() >= 2;
        if correlated {
            nodes.push(compute_correlation_overview(&mut ctx)?);
        }
        nodes.push(compute_missing_overview(&mut ctx));

        let outcomes = ctx.execute_outcomes(&nodes);
        let stats = ctx.last_stats.clone().expect("executed");
        let mut sections = outcomes.iter().map(section);
        let mut next = || sections.next().expect("one outcome per section node");

        let (overview, mut insights, overview_status) = next();
        let mut variables = Vec::with_capacity(names.len());
        for name in names {
            let (intermediates, section_insights, status) = next();
            insights.extend(section_insights.iter().cloned());
            let semantic = ctx.semantic(&name)?;
            variables.push(VariableSection {
                name,
                semantic,
                intermediates,
                insights: section_insights,
                status,
            });
        }
        let (correlations, correlations_status) = if correlated {
            let (ims, section_insights, status) = next();
            insights.extend(section_insights);
            let matrices = ims.iter().filter_map(|(_, chart)| match chart {
                Inter::Correlation(m) => Some(m.clone()),
                _ => None,
            });
            (matrices.collect(), status)
        } else {
            (Vec::new(), SectionStatus::Ok)
        };
        let (missing, _, missing_status) = next();

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
            ("engine.profile", "true"),
            ("engine.cache_budget_bytes", "0"),
        ])
        .unwrap();
        let report = Report::from_context(ComputeContext::partitioned(&df, &cfg, 3)).unwrap();
        assert!(report.failed_sections().is_empty());
        let trace = report.stats.trace.as_ref().expect("profiled run");
        let ran = |name: &str| trace.spans.iter().filter(|s| s.name == name).count();
        assert_eq!(ran("numeric_gather:a"), 1, "one gather over the partitions");
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
