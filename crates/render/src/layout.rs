//! HTML layouts: the tabbed panel of the paper's Figure 1 and the full
//! report page.
//!
//! Layouts are self-contained (inline CSS, CSS-only tabs via radio
//! inputs) so the output opens offline in any browser — the same
//! requirement that pushed the paper's authors to a custom HTML/JS layout
//! over stock plotting-library layouts.

use eda_core::api::{Analysis, SectionStatus};
use eda_core::config::DisplayConfig;
use eda_core::intermediate::Inter;
use eda_core::report::Report;
use eda_core::Insight;
use eda_taskgraph::ExecStats;

use crate::charts::gantt::{fmt_bytes, fmt_dur, gantt, top_k_table};
use crate::charts::render_chart;
use crate::svg::Svg;

const STYLE: &str = r#"<style>
body { font-family: ui-sans-serif, system-ui, sans-serif; margin: 16px; color: #333; }
h1 { font-size: 20px; } h2 { font-size: 16px; margin-top: 28px; border-bottom: 1px solid #ddd; }
.eda-stats { border-collapse: collapse; margin: 8px 0; font-size: 12px; }
.eda-stats td, .eda-stats th { border: 1px solid #e0e0e0; padding: 3px 10px; }
.eda-stats tr.highlight td { color: #C0392B; font-weight: 600; }
.eda-tabs { margin: 10px 0; }
.eda-tabs input[type=radio] { display: none; }
.eda-tabs label { display: inline-block; padding: 5px 12px; border: 1px solid #ccc;
  border-bottom: none; border-radius: 4px 4px 0 0; cursor: pointer; font-size: 12px;
  background: #f5f5f5; margin-right: 2px; }
.eda-tabs input:checked + label { background: #fff; font-weight: 600; }
.eda-panel { display: none; border: 1px solid #ccc; padding: 10px; }
.eda-tabs input:checked + label + .eda-panel { display: block; }
.eda-insights { background: #FFF7F5; border: 1px solid #E8C4BC; padding: 8px 12px;
  border-radius: 4px; font-size: 12px; }
.eda-insights li { margin: 2px 0; }
.eda-grid { display: flex; flex-wrap: wrap; gap: 12px; }
.eda-error { background: #FDF0EF; border: 1px solid #C0392B; border-radius: 4px;
  padding: 8px 12px; font-size: 12px; color: #7B241C; margin: 8px 0; }
.eda-error b { color: #C0392B; }
.eda-approx { background: #FFF8E6; border: 1px solid #D4A017; border-radius: 4px;
  padding: 8px 12px; font-size: 12px; color: #7A5C00; margin: 8px 0; }
.eda-approx b { color: #B8860B; }
</style>"#;

/// A tabbed panel: one tab per `(title, html)` pair.
///
/// `group` must be unique per panel on a page (radio-input namespace).
pub fn tab_panel(group: &str, tabs: &[(String, String)]) -> String {
    if tabs.is_empty() {
        return String::new();
    }
    let mut html = String::from(r#"<div class="eda-tabs">"#);
    for (i, (title, body)) in tabs.iter().enumerate() {
        let id = format!("{group}-{i}");
        let checked = if i == 0 { " checked" } else { "" };
        html.push_str(&format!(
            r#"<input type="radio" name="{group}" id="{id}"{checked}><label for="{id}">{}</label><div class="eda-panel">{body}</div>"#,
            Svg::escape(title)
        ));
    }
    html.push_str("</div>");
    html
}

/// The insights box shown above the tabs.
pub fn insights_list(insights: &[Insight]) -> String {
    if insights.is_empty() {
        return String::new();
    }
    let mut html = String::from(r#"<ul class="eda-insights">"#);
    for i in insights {
        html.push_str(&format!(
            "<li><b>[{}]</b> {}</li>",
            Svg::escape(i.kind.name()),
            Svg::escape(&i.message)
        ));
    }
    html.push_str("</ul>");
    html
}

/// The "approximate" banner shown when an analysis was computed on a
/// sample — either the `engine.sample_rows` extension or the memory
/// budget's degradation ladder. Empty when the output is exact.
pub fn approx_banner(insights: &[Insight]) -> String {
    match insights.iter().find(|i| i.kind == eda_core::InsightKind::Approximated) {
        Some(note) => format!(
            r#"<div class="eda-approx"><b>approximate</b> — {}</div>"#,
            Svg::escape(&note.message)
        ),
        None => String::new(),
    }
}

/// Diagnostics panel for a degraded section: the error, the task that
/// originally failed, and how long it ran before failing. Empty for
/// healthy sections.
pub fn diagnostics_panel(status: &SectionStatus) -> String {
    match status {
        SectionStatus::Ok => String::new(),
        SectionStatus::Failed { error, root_task, elapsed } => format!(
            r#"<div class="eda-error"><b>section unavailable</b> — {}<br><small>root cause: task <code>{}</code>, failed after {:.3}s; other sections were computed normally</small></div>"#,
            Svg::escape(error),
            Svg::escape(root_task),
            elapsed.as_secs_f64()
        ),
    }
}

/// The "Performance" panel of a profiled run: worker Gantt, top-K
/// slowest tasks, and the derived metrics (critical path, utilization,
/// queue-wait histogram, estimated CSE/prune savings). Empty when the
/// run carried no trace (`engine.profile` off).
pub fn performance_panel(stats: &ExecStats, display: &DisplayConfig) -> String {
    let Some(trace) = &stats.trace else {
        return String::new();
    };
    let mut html = String::new();
    html.push_str(&gantt(trace, display.width.max(600), display.height.max(120)));
    html.push_str("<h4>Slowest tasks</h4>");
    html.push_str(&top_k_table(trace, 10));

    let cp = trace.critical_path();
    let avoided = stats.cse_hits + stats.pruned();
    let mut rows = format!(
        "<h4>Run metrics</h4><table class=\"eda-stats\">\
         <tr><td>critical path</td><td>{} across {} tasks</td></tr>\
         <tr><td>estimated CSE/prune savings</td><td>{} ({} tasks avoided)</td></tr>",
        fmt_dur(cp.total),
        cp.tasks.len(),
        fmt_dur(trace.estimated_savings(avoided)),
        avoided,
    );
    // Governance rows only appear when governance actually did something,
    // keeping ungoverned output identical to the pre-governance layout.
    if stats.tasks_cancelled > 0 {
        rows.push_str(&format!(
            "<tr class=\"highlight\"><td>tasks cancelled</td><td>{}</td></tr>",
            stats.tasks_cancelled
        ));
    }
    if stats.tasks_budget_exceeded > 0 {
        rows.push_str(&format!(
            "<tr class=\"highlight\"><td>tasks over memory budget</td><td>{}</td></tr>",
            stats.tasks_budget_exceeded
        ));
    }
    if stats.mem_peak_bytes > 0 {
        rows.push_str(&format!(
            "<tr><td>peak charged memory</td><td>{}</td></tr>",
            fmt_bytes(stats.mem_peak_bytes)
        ));
    }
    if stats.cache_hits + stats.cache_misses > 0 {
        rows.push_str(&format!(
            "<tr><td>result cache</td><td>{} hits / {} misses ({:.0}% hit rate)</td></tr>\
             <tr><td>cache bytes served</td><td>{}</td></tr>\
             <tr><td>cache evictions</td><td>{}</td></tr>",
            stats.cache_hits,
            stats.cache_misses,
            100.0 * stats.cache_hits as f64
                / (stats.cache_hits + stats.cache_misses) as f64,
            fmt_bytes(stats.cache_bytes_saved),
            stats.cache_evictions,
        ));
    }
    for (w, util) in trace.worker_utilization().iter().enumerate() {
        rows.push_str(&format!(
            "<tr><td>worker w{w} utilization</td><td>{:.0}%</td></tr>",
            util * 100.0
        ));
    }
    rows.push_str("</table>");
    html.push_str(&rows);

    html.push_str("<h4>Queue wait</h4><table class=\"eda-stats\">");
    for (bucket, count) in trace.queue_wait_histogram() {
        html.push_str(&format!("<tr><td>{bucket}</td><td>{count}</td></tr>"));
    }
    html.push_str("</table>");
    html
}

/// Human-readable tab title from an intermediate name
/// (`compare_histogram:price` → `Compare Histogram: price`).
fn tab_title(name: &str) -> String {
    let (base, suffix) = match name.split_once(':') {
        Some((b, s)) => (b, Some(s)),
        None => (name, None),
    };
    let pretty: String = base
        .split('_')
        .map(|w| {
            let mut cs = w.chars();
            match cs.next() {
                Some(f) => f.to_uppercase().chain(cs).collect::<String>(),
                None => String::new(),
            }
        })
        .collect::<Vec<_>>()
        .join(" ");
    match suffix {
        Some(s) => format!("{pretty}: {s}"),
        None => pretty,
    }
}

/// Render one analysis as a standalone HTML page (title, insights box,
/// tabbed charts — the front end of the paper's Figure 1).
pub fn render_analysis_html(analysis: &Analysis, display: &DisplayConfig) -> String {
    let mut tabs: Vec<(String, String)> = analysis
        .intermediates
        .iter()
        .map(|(name, inter)| (tab_title(name), render_chart(name, inter, display)))
        .collect();
    if let Some(stats) = &analysis.stats {
        let perf = performance_panel(stats, display);
        if !perf.is_empty() {
            tabs.push(("Performance".to_string(), perf));
        }
    }
    format!(
        "<!DOCTYPE html><html><head><meta charset=\"utf-8\"><title>{:?}</title>{STYLE}</head><body><h1>{:?}</h1>{}{}{}{}</body></html>",
        analysis.task,
        analysis.task,
        approx_banner(&analysis.insights),
        diagnostics_panel(&analysis.status),
        insights_list(&analysis.insights),
        tab_panel("analysis", &tabs)
    )
}

/// Render a full report as a standalone HTML page with Overview,
/// Variables, Correlations, and Missing Values sections (the
/// Pandas-profiling-equivalent output, computed the DataPrep way).
pub fn render_report_html(report: &Report, display: &DisplayConfig) -> String {
    let mut body = String::new();
    body.push_str("<h1>DataPrep.EDA Report</h1>");
    body.push_str(&approx_banner(&report.insights));
    body.push_str(&insights_list(&report.insights));

    body.push_str("<h2>Overview</h2>");
    body.push_str(&diagnostics_panel(&report.overview_status));
    body.push_str("<div class=\"eda-grid\">");
    for (name, inter) in report.overview.iter() {
        body.push_str(&render_chart(name, inter, display));
    }
    body.push_str("</div>");

    body.push_str("<h2>Variables</h2>");
    for (vi, var) in report.variables.iter().enumerate() {
        body.push_str(&format!(
            "<h3>{} <small>({})</small></h3>",
            Svg::escape(&var.name),
            var.semantic
        ));
        body.push_str(&diagnostics_panel(&var.status));
        body.push_str(&insights_list(&var.insights));
        let tabs: Vec<(String, String)> = var
            .intermediates
            .iter()
            .map(|(name, inter)| (tab_title(name), render_chart(name, inter, display)))
            .collect();
        body.push_str(&tab_panel(&format!("var{vi}"), &tabs));
    }

    if !report.correlations.is_empty() || !report.correlations_status.is_ok() {
        body.push_str("<h2>Correlations</h2>");
        body.push_str(&diagnostics_panel(&report.correlations_status));
        let tabs: Vec<(String, String)> = report
            .correlations
            .iter()
            .map(|m| {
                (
                    m.method.name().to_string(),
                    render_chart("correlation_matrix", &Inter::Correlation(m.clone()), display),
                )
            })
            .collect();
        body.push_str(&tab_panel("corr", &tabs));
    }

    body.push_str("<h2>Missing Values</h2>");
    body.push_str(&diagnostics_panel(&report.missing_status));
    let tabs: Vec<(String, String)> = report
        .missing
        .iter()
        .map(|(name, inter)| (tab_title(name), render_chart(name, inter, display)))
        .collect();
    body.push_str(&tab_panel("missing", &tabs));

    let perf = performance_panel(&report.stats, display);
    if !perf.is_empty() {
        body.push_str("<h2>Performance</h2>");
        body.push_str(&perf);
    }

    body.push_str(&format!(
        "<p><small>computed {} tasks ({} shared away) in {:.3}s on {} workers</small></p>",
        report.stats.tasks_run,
        report.stats.cse_hits,
        report.stats.elapsed.as_secs_f64(),
        report.stats.workers
    ));
    format!(
        "<!DOCTYPE html><html><head><meta charset=\"utf-8\"><title>DataPrep.EDA Report</title>{STYLE}</head><body>{body}</body></html>"
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use eda_core::{create_report, plot, Config};
    use eda_dataframe::{Column, DataFrame};

    fn frame() -> DataFrame {
        DataFrame::new(vec![
            (
                "price".into(),
                Column::from_opt_f64(
                    (0..150)
                        .map(|i| if i % 10 == 0 { None } else { Some(100.0 + (i % 40) as f64) })
                        .collect(),
                ),
            ),
            (
                "city".into(),
                Column::from_string((0..150).map(|i| format!("c{}", i % 4)).collect()),
            ),
            (
                "size".into(),
                Column::from_f64((0..150).map(|i| 20.0 + (i % 60) as f64).collect()),
            ),
        ])
        .unwrap()
    }

    #[test]
    fn tab_titles_prettified() {
        assert_eq!(tab_title("box_plot"), "Box Plot");
        assert_eq!(tab_title("compare_histogram:price"), "Compare Histogram: price");
    }

    #[test]
    fn tab_panel_structure() {
        let html = tab_panel("g", &[("A".into(), "<p>a</p>".into()), ("B".into(), "<p>b</p>".into())]);
        assert_eq!(html.matches("type=\"radio\"").count(), 2);
        assert_eq!(html.matches("checked").count(), 1);
        assert!(tab_panel("g", &[]).is_empty());
    }

    #[test]
    fn analysis_page_is_complete_html() {
        let df = frame();
        let cfg = Config::default();
        let a = plot(&df, &["price"], &cfg).unwrap();
        let html = render_analysis_html(&a, &cfg.display);
        assert!(html.starts_with("<!DOCTYPE html>"));
        assert!(html.contains("<svg"));
        assert!(html.contains("Histogram"));
        assert!(html.contains("Qq Plot"));
        assert!(html.ends_with("</html>"));
    }

    #[test]
    fn report_page_has_all_sections() {
        let df = frame();
        let cfg = Config::default();
        let r = create_report(&df, &cfg).unwrap();
        let html = render_report_html(&r, &cfg.display);
        for section in ["Overview", "Variables", "Correlations", "Missing Values"] {
            assert!(html.contains(section), "missing section {section}");
        }
        assert!(html.contains("price"));
        assert!(html.contains("city"));
        assert!(html.matches("<svg").count() > 10);
        assert!(html.contains("shared away"));
    }

    #[test]
    fn degraded_report_renders_diagnostics_panel() {
        let df = frame();
        let cfg = Config::default();
        let _guard = eda_taskgraph::inject::arm(eda_taskgraph::FaultInjector::panic_on(
            "moments:price",
        ));
        let r = create_report(&df, &cfg).unwrap();
        let html = render_report_html(&r, &cfg.display);
        assert!(html.contains("eda-error"), "diagnostics panel missing");
        assert!(html.contains("section unavailable"));
        assert!(html.contains("moments:price"));
        assert!(html.contains("root cause"));
        // Healthy sections still render their charts.
        assert!(html.contains("city"));
        assert!(html.matches("<svg").count() > 5);
    }

    #[test]
    fn diagnostics_panel_empty_for_ok_and_escaped_for_failed() {
        assert!(diagnostics_panel(&SectionStatus::Ok).is_empty());
        let html = diagnostics_panel(&SectionStatus::Failed {
            error: "task <x> panicked".into(),
            root_task: "freq:city".into(),
            elapsed: std::time::Duration::from_millis(12),
        });
        assert!(html.contains("task &lt;x&gt; panicked"));
        assert!(html.contains("freq:city"));
        assert!(html.contains("0.012"));
    }

    #[test]
    fn profiled_analysis_gets_performance_tab() {
        let df = frame();
        let cfg = Config::from_pairs(vec![("engine.profile", "true")]).unwrap();
        let a = plot(&df, &["price"], &cfg).unwrap();
        let html = render_analysis_html(&a, &cfg.display);
        assert!(html.contains("Performance"));
        assert!(html.contains("Worker timeline"));
        assert!(html.contains("Slowest tasks"));
        assert!(html.contains("critical path"));
        // One Gantt lane label per worker.
        let workers = a.stats.as_ref().unwrap().workers;
        for w in 0..workers {
            assert!(html.contains(&format!(">w{w}<")), "missing lane w{w}");
        }
        // Unprofiled runs carry no trace and get no tab.
        let plain = plot(&df, &["price"], &Config::default()).unwrap();
        assert!(plain.stats.as_ref().unwrap().trace.is_none());
        assert!(!render_analysis_html(&plain, &cfg.display).contains("Performance"));
    }

    #[test]
    fn performance_tab_reports_cache_counters() {
        let df = frame();
        let cfg = Config::from_pairs(vec![("engine.profile", "true")]).unwrap();
        // Warm call, then a profiled warm call that must show hits.
        plot(&df, &["price"], &cfg).unwrap();
        let warm = plot(&df, &["price"], &cfg).unwrap();
        assert!(warm.stats.as_ref().unwrap().cache_hits > 0);
        let html = render_analysis_html(&warm, &cfg.display);
        assert!(html.contains("result cache"), "cache row missing");
        assert!(html.contains("hit rate"));
        assert!(html.contains("cache bytes served"));
        assert!(html.contains("cache evictions"));
        // Disabled cache: no probes, so the rows disappear.
        let off = Config::from_pairs(vec![
            ("engine.profile", "true"),
            ("engine.cache_budget_bytes", "0"),
        ])
        .unwrap();
        let plain = plot(&df, &["price"], &off).unwrap();
        let html = render_analysis_html(&plain, &off.display);
        assert!(!html.contains("result cache"));
    }

    #[test]
    fn profiled_report_gets_performance_section() {
        let df = frame();
        let cfg = Config::from_pairs(vec![("engine.profile", "true")]).unwrap();
        let r = create_report(&df, &cfg).unwrap();
        let html = render_report_html(&r, &cfg.display);
        assert!(html.contains("<h2>Performance</h2>"));
        assert!(html.contains("Worker timeline"));
        assert!(html.contains("Queue wait"));
    }

    #[test]
    fn approx_banner_appears_only_for_sampled_output() {
        let df = frame();
        // frame() has 150 rows; sample to ~40 → approximated insight.
        let cfg = Config::from_pairs(vec![("engine.sample_rows", "40")]).unwrap();
        let a = plot(&df, &["price"], &cfg).unwrap();
        let html = render_analysis_html(&a, &cfg.display);
        assert!(html.contains("eda-approx"), "banner missing");
        assert!(html.contains("statistics are approximate"));
        // Exact runs carry no banner.
        let exact = plot(&df, &["price"], &Config::default()).unwrap();
        let html = render_analysis_html(&exact, &Config::default().display);
        assert!(!html.contains("eda-approx\""));
    }

    #[test]
    fn performance_tab_reports_governance_counters_only_when_active() {
        let df = frame();
        let cfg = Config::from_pairs(vec![("engine.profile", "true")]).unwrap();
        let a = plot(&df, &["price"], &cfg).unwrap();
        let html = render_analysis_html(&a, &cfg.display);
        // Ungoverned runs: no governance rows at all.
        for row in ["tasks cancelled", "tasks over memory budget", "peak charged memory"] {
            assert!(!html.contains(row), "unexpected row {row:?}");
        }
        // A profiled run with a memory budget shows the gauge peak.
        // Cache off so tasks really execute (cache-served payloads are
        // never charged — they are already resident).
        let governed = Config::from_pairs(vec![
            ("engine.profile", "true"),
            ("engine.cache_budget_bytes", "0"),
            ("engine.memory_budget_bytes", "1073741824"),
        ])
        .unwrap();
        let a = plot(&df, &["price"], &governed).unwrap();
        let html = render_analysis_html(&a, &governed.display);
        assert!(html.contains("peak charged memory"), "gauge row missing");
    }

    #[test]
    fn insights_box_escapes() {
        use eda_core::insights::{Insight, InsightKind};
        let html = insights_list(&[Insight {
            kind: InsightKind::Missing,
            columns: vec!["a".into()],
            value: 0.2,
            message: "a <has> nulls".into(),
        }]);
        assert!(html.contains("a &lt;has&gt; nulls"));
        assert!(insights_list(&[]).is_empty());
    }
}
