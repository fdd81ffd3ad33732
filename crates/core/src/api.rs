//! The task-centric public API (paper §3.2).
//!
//! `plot_tasktype(df, col_list, config)`: the function name picks the task
//! family, the column count picks the granularity — zero columns is the
//! overview, one is detailed single-column analysis, two is pair analysis.

use std::sync::Arc;

use eda_dataframe::DataFrame;
use eda_taskgraph::{ExecStats, NodeId, TaskError};

use crate::compute::{
    bivariate, correlation, ctx::ComputeContext, missing, overview, timeseries, univariate,
};
use crate::config::{howto_for, Config, HowToGuide};
use crate::dtype::SemanticType;
use crate::error::{EdaError, EdaResult};
use crate::insights::Insight;
use crate::intermediate::{Inter, Intermediates};
use crate::report::Report;

/// Which EDA task an [`Analysis`] answers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TaskKind {
    /// `plot(df)`.
    Overview,
    /// `plot(df, x)`.
    Univariate {
        /// The analyzed column.
        column: String,
        /// Its detected semantic type.
        semantic: SemanticType,
    },
    /// `plot(df, x, y)`.
    Bivariate {
        /// The column pair.
        columns: (String, String),
        /// Their detected semantic types.
        semantics: (SemanticType, SemanticType),
    },
    /// `plot_correlation(df)`.
    CorrelationOverview,
    /// `plot_correlation(df, x)`.
    CorrelationVector(String),
    /// `plot_correlation(df, x, y)`.
    CorrelationPair(String, String),
    /// `plot_missing(df)`.
    MissingOverview,
    /// `plot_missing(df, x)`.
    MissingImpact(String),
    /// `plot_missing(df, x, y)`.
    MissingPair(String, String),
    /// `plot_timeseries(df, time, value)` (the §7 extension task).
    TimeSeries(String, String),
}

/// Health of one section of an [`Analysis`] or a
/// [`crate::report::Report`].
///
/// A failing kernel no longer poisons a whole run: the scheduler isolates
/// the panic (or deadline overrun), the section that needed it degrades to
/// `Failed` with diagnostics, and everything else completes normally.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SectionStatus {
    /// Every task behind the section produced its payload.
    Ok,
    /// The section's computation failed. Carries the scheduler's error
    /// for the task that broke (a skip is followed to its root): the
    /// diagnostics panel reads its text, task and elapsed time from it.
    Failed(Arc<TaskError>),
}

impl SectionStatus {
    /// `true` when the section computed fully.
    pub fn is_ok(&self) -> bool {
        matches!(self, SectionStatus::Ok)
    }
}

/// The result of one EDA call: intermediates, insights, execution stats.
#[derive(Debug)]
pub struct Analysis {
    /// The task that was run.
    pub task: TaskKind,
    /// Everything the Render module needs.
    pub intermediates: Intermediates,
    /// Auto-detected insights.
    pub insights: Vec<Insight>,
    /// What the call's one graph run did (tasks run, CSE hits, wall
    /// time): planning executes nothing, so this covers the whole call.
    pub stats: Option<ExecStats>,
    /// Whether the analysis computed fully. `Failed` analyses have empty
    /// intermediates and render as a diagnostics panel instead of charts.
    pub status: SectionStatus,
}

impl Analysis {
    /// Shortcut to one intermediate by name.
    pub fn get(&self, name: &str) -> Option<&Inter> {
        self.intermediates.get(name)
    }

    /// The how-to guide for one of this analysis' charts (paper Figure 1,
    /// part D).
    pub fn howto(&self, chart: &str) -> HowToGuide {
        // Per-column chart names carry a `:column` suffix.
        let base = chart.split(':').next().unwrap_or(chart);
        howto_for(base)
    }

    /// Names of all produced charts/tables.
    pub fn chart_names(&self) -> Vec<&str> {
        self.intermediates.names()
    }
}

/// The one sampler: a systematic sample of about `target` rows (every
/// k-th row), plus the [`crate::insights::InsightKind::Approximated`]
/// notice for the output. `None` when the frame has no more rows than
/// that.
fn stride_sample(df: &DataFrame, target: usize) -> Option<(DataFrame, Insight)> {
    if target == 0 || df.nrows() <= target {
        return None;
    }
    let sampled = df.stride(df.nrows().div_ceil(target));
    let note = crate::insights::approximated_insight(sampled.nrows(), df.nrows());
    Some((sampled, note))
}

/// Every public call's path around its compute step `run`: when
/// `engine.sample_rows` is set and the frame is larger, analyze the
/// sample and put its notice first among the result's `insights`;
/// otherwise analyze the frame. Either way `run` runs once.
fn sampled<T>(
    df: &DataFrame,
    config: &Config,
    insights: impl FnOnce(&mut T) -> &mut Vec<Insight>,
    run: impl FnOnce(&DataFrame) -> EdaResult<T>,
) -> EdaResult<T> {
    let Some((sample, note)) = stride_sample(df, config.engine.sample_rows) else {
        return run(df);
    };
    let mut out = run(&sample)?;
    insights(&mut out).insert(0, note);
    Ok(out)
}

/// What a `plot*` call's compute step returns: the task it answers and
/// the section node that answers it.
type Computed = (TaskKind, EdaResult<NodeId>);

/// The one path of the `plot*` calls: sample ([`sampled`]), then one
/// [`ComputeContext`], `compute` on it, and one execute of the section
/// node it planned. A task failure degrades into an `Analysis` with a
/// `Failed` status (the caller still gets stats and a renderable
/// diagnostics panel); planning errors — unknown column, bad config —
/// pass through as `Err`.
fn analyze(
    df: &DataFrame,
    config: &Config,
    compute: impl FnOnce(&mut ComputeContext<'_>) -> EdaResult<Computed>,
) -> EdaResult<Analysis> {
    let run = |df: &DataFrame| {
        let mut ctx = ComputeContext::new(df, config);
        let (task, node) = compute(&mut ctx)?;
        let (intermediates, insights, status) = match node.and_then(|n| ctx.run_section(n)) {
            Ok((intermediates, insights)) => (intermediates, insights, SectionStatus::Ok),
            Err(EdaError::Task(err)) => {
                (Intermediates::new(), Vec::new(), SectionStatus::Failed(err))
            }
            Err(e) => return Err(e),
        };
        Ok(Analysis { task, intermediates, insights, stats: ctx.last_stats, status })
    };
    sampled(df, config, |a: &mut Analysis| &mut a.insights, run)
}

fn check_columns(function: &'static str, columns: &[&str], max: usize) -> EdaResult<()> {
    if columns.len() > max {
        return Err(EdaError::TooManyColumns { function, max, got: columns.len() });
    }
    Ok(())
}

/// `plot(df, cols, config)`: overview (0 columns), univariate (1), or
/// bivariate (2) analysis.
pub fn plot(df: &DataFrame, columns: &[&str], config: &Config) -> EdaResult<Analysis> {
    check_columns("plot", columns, 2)?;
    analyze(df, config, |ctx| {
        // Detect up front so a degraded analysis still knows its task.
        Ok(match columns {
            [] => (TaskKind::Overview, Ok(overview::compute_overview(ctx))),
            [x] => (
                TaskKind::Univariate { column: x.to_string(), semantic: ctx.semantic(x)? },
                univariate::compute_univariate(ctx, x),
            ),
            [x, y] => (
                TaskKind::Bivariate {
                    columns: (x.to_string(), y.to_string()),
                    semantics: (ctx.semantic(x)?, ctx.semantic(y)?),
                },
                bivariate::compute_bivariate(ctx, x, y),
            ),
            _ => unreachable!("checked above"),
        })
    })
}

/// `plot_correlation(df, cols, config)`: matrix overview (0 columns),
/// one-vs-rest vectors (1), or pair regression (2).
pub fn plot_correlation(
    df: &DataFrame,
    columns: &[&str],
    config: &Config,
) -> EdaResult<Analysis> {
    check_columns("plot_correlation", columns, 2)?;
    analyze(df, config, |ctx| {
        Ok(match columns {
            [] => (
                TaskKind::CorrelationOverview,
                correlation::compute_correlation_overview(ctx),
            ),
            [x] => (
                TaskKind::CorrelationVector(x.to_string()),
                correlation::compute_correlation_vector(ctx, x),
            ),
            [x, y] => (
                TaskKind::CorrelationPair(x.to_string(), y.to_string()),
                correlation::compute_correlation_pair(ctx, x, y),
            ),
            _ => unreachable!("checked above"),
        })
    })
}

/// `plot_missing(df, cols, config)`: nullity overview (0 columns), impact
/// of one column's missing rows on the rest (1), or on one column (2).
pub fn plot_missing(df: &DataFrame, columns: &[&str], config: &Config) -> EdaResult<Analysis> {
    check_columns("plot_missing", columns, 2)?;
    analyze(df, config, |ctx| {
        Ok(match columns {
            [] => (TaskKind::MissingOverview, Ok(missing::compute_missing_overview(ctx))),
            [x] => (
                TaskKind::MissingImpact(x.to_string()),
                missing::compute_missing_impact(ctx, x),
            ),
            [x, y] => (
                TaskKind::MissingPair(x.to_string(), y.to_string()),
                missing::compute_missing_pair(ctx, x, y),
            ),
            _ => unreachable!("checked above"),
        })
    })
}

/// `plot_timeseries(df, time, value, config)`: time-series analysis —
/// resampled line, rolling mean, autocorrelation, trend detection. This
/// implements the first future-work task of the paper's §7 with the same
/// task-centric architecture as the built-in calls.
pub fn plot_timeseries(
    df: &DataFrame,
    time: &str,
    value: &str,
    config: &Config,
) -> EdaResult<Analysis> {
    analyze(df, config, |ctx| {
        let task = TaskKind::TimeSeries(time.to_string(), value.to_string());
        Ok((task, timeseries::compute_timeseries(ctx, time, value)))
    })
}

/// `create_report(df, config)`: the full profile report. See
/// [`crate::report`].
///
/// Sampled like the `plot*` calls.
pub fn create_report(df: &DataFrame, config: &Config) -> EdaResult<Report> {
    sampled(df, config, |r: &mut Report| &mut r.insights, |df| Report::create(df, config))
}

#[cfg(test)]
mod tests {
    use super::*;
    use eda_dataframe::Column;

    fn frame() -> DataFrame {
        DataFrame::new(vec![
            (
                "price".into(),
                Column::from_opt_f64(
                    (0..200)
                        .map(|i| if i % 20 == 0 { None } else { Some(100.0 + (i % 50) as f64) })
                        .collect(),
                ),
            ),
            (
                "size".into(),
                Column::from_f64((0..200).map(|i| 30.0 + (i % 70) as f64).collect()),
            ),
            (
                "city".into(),
                Column::from_string((0..200).map(|i| format!("c{}", i % 5)).collect()),
            ),
        ])
        .unwrap()
    }

    #[test]
    fn plot_dispatches_by_arity() {
        let df = frame();
        let cfg = Config::default();
        assert_eq!(plot(&df, &[], &cfg).unwrap().task, TaskKind::Overview);
        assert!(matches!(
            plot(&df, &["price"], &cfg).unwrap().task,
            TaskKind::Univariate { .. }
        ));
        assert!(matches!(
            plot(&df, &["price", "city"], &cfg).unwrap().task,
            TaskKind::Bivariate { .. }
        ));
        assert!(matches!(
            plot(&df, &["a", "b", "c"], &cfg),
            Err(EdaError::TooManyColumns { .. })
        ));
    }

    #[test]
    fn plot_unknown_column_errors() {
        let df = frame();
        let cfg = Config::default();
        assert!(matches!(
            plot(&df, &["nope"], &cfg),
            Err(EdaError::Frame(_))
        ));
    }

    #[test]
    fn correlation_dispatches() {
        let df = frame();
        let cfg = Config::default();
        assert_eq!(
            plot_correlation(&df, &[], &cfg).unwrap().task,
            TaskKind::CorrelationOverview
        );
        assert!(matches!(
            plot_correlation(&df, &["price"], &cfg).unwrap().task,
            TaskKind::CorrelationVector(_)
        ));
        assert!(matches!(
            plot_correlation(&df, &["price", "size"], &cfg).unwrap().task,
            TaskKind::CorrelationPair(..)
        ));
    }

    #[test]
    fn missing_dispatches() {
        let df = frame();
        let cfg = Config::default();
        assert_eq!(
            plot_missing(&df, &[], &cfg).unwrap().task,
            TaskKind::MissingOverview
        );
        assert!(matches!(
            plot_missing(&df, &["price"], &cfg).unwrap().task,
            TaskKind::MissingImpact(_)
        ));
        assert!(matches!(
            plot_missing(&df, &["price", "size"], &cfg).unwrap().task,
            TaskKind::MissingPair(..)
        ));
    }

    #[test]
    fn analysis_exposes_stats_and_howto() {
        let df = frame();
        let cfg = Config::default();
        let a = plot(&df, &["price"], &cfg).unwrap();
        let stats = a.stats.as_ref().unwrap();
        assert!(stats.tasks_run > 0);
        let guide = a.howto("histogram");
        assert!(guide.entries.iter().any(|e| e.spec.key == "hist.bins"));
        // Suffixed chart names resolve to their base guide.
        let g2 = a.howto("histogram:price");
        assert_eq!(g2.entries.len(), guide.entries.len());
        assert!(!a.chart_names().is_empty());
    }

    #[test]
    fn timeseries_task() {
        let n = 300;
        let df = DataFrame::new(vec![
            ("t".into(), Column::from_f64((0..n).map(|i| i as f64).collect())),
            (
                "v".into(),
                Column::from_f64((0..n).map(|i| 10.0 + 0.1 * i as f64).collect()),
            ),
        ])
        .unwrap();
        let cfg = Config::default();
        let a = plot_timeseries(&df, "t", "v", &cfg).unwrap();
        assert!(matches!(a.task, TaskKind::TimeSeries(..)));
        for chart in ["line", "rolling_mean", "acf", "stats"] {
            assert!(a.get(chart).is_some(), "missing {chart}");
        }
        // A pure trend must be flagged.
        assert!(a
            .insights
            .iter()
            .any(|i| i.kind == crate::insights::InsightKind::Trend));
    }

    #[test]
    fn sampling_extension_flags_approximation() {
        let df = frame();
        // frame() has 200 rows; sample down to ~50.
        let cfg = Config::from_pairs(vec![("engine.sample_rows", "50")]).unwrap();
        let a = plot(&df, &["price"], &cfg).unwrap();
        let note = a
            .insights
            .iter()
            .find(|i| i.kind == crate::insights::InsightKind::Approximated)
            .expect("approximation notice");
        assert!(note.message.contains("50 of 200"));
        // Stats reflect the sample, not the full frame.
        let Some(Inter::StatsTable(rows)) = a.get("stats") else { panic!() };
        let count = rows.iter().find(|r| r.label == "count").unwrap();
        assert_eq!(count.value, "50");
        // Without the option, no notice.
        let exact = plot(&df, &["price"], &Config::default()).unwrap();
        assert!(exact
            .insights
            .iter()
            .all(|i| i.kind != crate::insights::InsightKind::Approximated));
    }

    /// `engine.sample_rows` holds for every call, not only `plot` and
    /// `plot_timeseries`: on a frame larger than the target,
    /// `plot_correlation`, `plot_missing` and `create_report` compute over
    /// the sample and put its notice first.
    #[test]
    fn sample_rows_applies_to_every_call() {
        let df = frame();
        let cfg = Config::from_pairs(vec![("engine.sample_rows", "50")]).unwrap();
        let exact = Config::default();
        let (sample, note) = stride_sample(&df, 50).expect("200 rows shrink");
        let calls = [
            (plot_correlation(&df, &[], &cfg), plot_correlation(&sample, &[], &exact)),
            (plot_missing(&df, &["price"], &cfg), plot_missing(&sample, &["price"], &exact)),
        ];
        for (sampled, on_sample) in calls {
            let (sampled, on_sample) = (sampled.unwrap(), on_sample.unwrap());
            assert_eq!(sampled.insights.first(), Some(&note), "{:?}", sampled.task);
            assert_eq!(sampled.intermediates, on_sample.intermediates, "{:?}", sampled.task);
        }
        let report = create_report(&df, &cfg).unwrap();
        let on_sample = create_report(&sample, &exact).unwrap();
        assert_eq!(report.insights.first(), Some(&note));
        assert_eq!(report.insights[1..], on_sample.insights[..]);
        assert_eq!(report.overview, on_sample.overview);
    }

    #[test]
    fn sampling_noop_when_frame_small_enough() {
        let df = frame();
        let cfg = Config::from_pairs(vec![("engine.sample_rows", "100000")]).unwrap();
        let a = plot(&df, &["price"], &cfg).unwrap();
        assert!(a
            .insights
            .iter()
            .all(|i| i.kind != crate::insights::InsightKind::Approximated));
    }

    #[test]
    fn fine_grained_call_avoids_unrelated_work() {
        // plot(df, price) must not compute city's frequency table: the
        // graph contains only price-related kernels.
        let df = frame();
        let cfg = Config::default();
        let a = plot(&df, &["price"], &cfg).unwrap();
        let stats = a.stats.unwrap();
        // Rough bound: 5 kernels × (npartitions maps + reduces) + sources.
        let nparts = ComputeContext::new(&df, &cfg).pf.npartitions();
        assert!(
            stats.tasks_run <= 5 * (2 * nparts) + nparts,
            "ran {} tasks",
            stats.tasks_run
        );
    }

    #[test]
    fn repeated_plot_reuses_cached_intermediates() {
        let df = frame();
        let cfg = Config::default();
        let cold = plot(&df, &["price"], &cfg).unwrap();
        let warm = plot(&df, &["price"], &cfg).unwrap();
        assert_eq!(cold.intermediates, warm.intermediates);
        let cold_stats = cold.stats.unwrap();
        let warm_stats = warm.stats.unwrap();
        assert!(warm_stats.cache_hits > 0, "second call over the same frame must hit");
        assert!(
            warm_stats.tasks_run < cold_stats.tasks_run,
            "warm {} vs cold {}",
            warm_stats.tasks_run,
            cold_stats.tasks_run
        );
        assert!(warm_stats.cache_bytes_saved > 0);
    }

    /// `freq_summary` is a task like any other: the categories
    /// `plot(df, x)` selected serve `plot_missing(df, y)`, and a re-issued
    /// call finds every node in the cache — nothing runs, and its finish
    /// selects nothing (the summaries taken are counted on this thread,
    /// where one worker runs every task).
    #[test]
    fn reissued_plot_missing_runs_no_task_and_selects_nothing() {
        use crate::compute::kernels::SUMMARIES;
        let df = frame();
        let cfg = Config::from_pairs(vec![("engine.workers", "1")]).unwrap();
        let summaries = || SUMMARIES.with(|n| n.get());

        let before = summaries();
        plot(&df, &["city"], &cfg).unwrap();
        assert_eq!(summaries() - before, 1, "plot(df, city) summarises city once");
        let first = plot_missing(&df, &["price"], &cfg).unwrap();
        assert_eq!(summaries() - before, 1, "city's summary came from the cache");
        assert!(first.stats.as_ref().unwrap().tasks_run > 0, "the dropped rows were not counted yet");

        let again = plot_missing(&df, &["price"], &cfg).unwrap();
        assert_eq!(again.intermediates, first.intermediates);
        assert_eq!(again.stats.unwrap().tasks_run, 0);
        assert_eq!(summaries() - before, 1);
    }

    /// A section's key carries every insight threshold: on a warm cache,
    /// calls differing in one `insight.*` value each get what their own
    /// cold call gets.
    #[test]
    fn warm_sections_keep_their_own_insight_thresholds() {
        let df = frame();
        // price is 5% null: flagged under 0.01, not under the default.
        let thresholds = ["0.05", "0.01"];
        let cold: Vec<Analysis> = thresholds
            .iter()
            .map(|t| {
                let pairs = vec![("insight.missing", *t), ("engine.cache_budget_bytes", "0")];
                plot(&df, &["price"], &Config::from_pairs(pairs).unwrap()).unwrap()
            })
            .collect();
        assert_ne!(cold[0].insights, cold[1].insights);
        for _ in 0..2 {
            for (t, cold) in thresholds.iter().zip(&cold) {
                let cfg = Config::from_pairs(vec![("insight.missing", *t)]).unwrap();
                let warm = plot(&df, &["price"], &cfg).unwrap();
                assert_eq!(warm.insights, cold.insights, "insight.missing = {t}");
                assert_eq!(warm.intermediates, cold.intermediates, "insight.missing = {t}");
            }
        }
    }

    /// Thinning 1,999 complete pairs to `scatter.sample` = 1000 keeps
    /// every second pair, through the last rows: the last point plotted
    /// comes from the last stride.
    #[test]
    fn scatter_thinning_reaches_the_last_rows() {
        let n: usize = 1999;
        let df = DataFrame::new(vec![
            ("x".into(), Column::from_f64((0..n).map(|i| i as f64).collect())),
            ("y".into(), Column::from_f64((0..n).map(|i| 2.0 * i as f64 + 1.0).collect())),
        ])
        .unwrap();
        let cfg = Config::default();
        let last_stride = (n - n.div_ceil(cfg.scatter.sample)) as f64;
        let scatter = plot(&df, &["x", "y"], &cfg).unwrap();
        let Some(Inter::Scatter { points, sampled: true }) = scatter.get("scatter_plot") else {
            panic!("a thinned scatter plot")
        };
        let pair = plot_correlation(&df, &["x", "y"], &cfg).unwrap();
        let Some(Inter::RegressionScatter { points: fitted, .. }) = pair.get("regression_scatter")
        else {
            panic!("a regression scatter")
        };
        for points in [points, fitted] {
            assert!(points.len() <= cfg.scatter.sample, "{}", points.len());
            assert!(points.last().unwrap().0 >= last_stride, "{:?}", points.last());
        }
    }

    #[test]
    fn make_unique_invalidates_cached_results() {
        let mut df = frame();
        let cfg = Config::default();
        plot(&df, &["size"], &cfg).unwrap();
        // Copy-on-write: the column moves to fresh buffers, so the frame
        // fingerprint changes and none of the warm entries may serve.
        df.make_unique("size").unwrap();
        let after = plot(&df, &["size"], &cfg).unwrap();
        let stats = after.stats.unwrap();
        assert_eq!(stats.cache_hits, 0, "stale entries must not survive make_unique");
    }

    #[test]
    fn disabled_cache_output_is_identical() {
        let df = frame();
        let cached_cfg = Config::default();
        let uncached_cfg =
            Config::from_pairs(vec![("engine.cache_budget_bytes", "0")]).unwrap();
        // Warm the cache, then compare a cache-served analysis against the
        // uncached path bit for bit.
        plot(&df, &["price", "size"], &cached_cfg).unwrap();
        let cached = plot(&df, &["price", "size"], &cached_cfg).unwrap();
        let uncached = plot(&df, &["price", "size"], &uncached_cfg).unwrap();
        assert_eq!(
            crate::json::intermediates_to_json(&cached.intermediates),
            crate::json::intermediates_to_json(&uncached.intermediates)
        );
        let stats = uncached.stats.unwrap();
        assert_eq!(stats.cache_hits, 0);
        assert_eq!(stats.cache_misses, 0);
    }

    #[test]
    fn cache_spans_sections_of_create_report() {
        // plot() warms per-column intermediates; the full report then
        // reuses them — the cross-call sharing the cache exists for.
        let df = frame();
        let cfg = Config::default();
        plot(&df, &["price"], &cfg).unwrap();
        let report = crate::report::Report::create(&df, &cfg).unwrap();
        assert!(
            report.stats.cache_hits > 0,
            "report must reuse intermediates computed by the earlier plot call"
        );
    }
}
