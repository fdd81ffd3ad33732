//! HTML layouts: the tabbed panel of the paper's Figure 1 and the full
//! report page.
//!
//! Layouts are self-contained (inline CSS, CSS-only tabs via radio
//! inputs) so the output opens offline in any browser — the same
//! requirement that pushed the paper's authors to a custom HTML/JS layout
//! over stock plotting-library layouts.

use std::fmt::Write as _;

use eda_core::api::{Analysis, SectionStatus};
use eda_core::config::DisplayConfig;
use eda_core::intermediate::{Inter, Intermediates};
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

/// A tabbed panel being appended to a page, one [`Tabs::tab`] at a time.
///
/// `group` must be unique per panel on a page (radio-input namespace). A
/// panel without tabs appends nothing.
pub struct Tabs<'a> {
    out: &'a mut String,
    group: &'a str,
    count: usize,
}

impl<'a> Tabs<'a> {
    /// A panel at the end of `out`.
    pub fn new(out: &'a mut String, group: &'a str) -> Tabs<'a> {
        Tabs { out, group, count: 0 }
    }

    /// Add a tab whose panel `body` appends.
    pub fn tab(&mut self, title: &str, body: impl FnOnce(&mut String)) {
        let (out, group, i) = (&mut *self.out, self.group, self.count);
        let (open, checked) = if i == 0 { (r#"<div class="eda-tabs">"#, " checked") } else { ("", "") };
        // A page has a few dozen tabs: this is not where its numbers are.
        let _ = write!(
            out,
            r#"{open}<input type="radio" name="{group}" id="{group}-{i}"{checked}><label for="{group}-{i}">"#
        );
        Svg::escape(out, title);
        out.push_str(r#"</label><div class="eda-panel">"#);
        body(out);
        out.push_str("</div>");
        self.count += 1;
    }

    /// One tab per intermediate, titled by its name.
    fn charts(&mut self, intermediates: &Intermediates, display: &DisplayConfig) {
        for (name, inter) in intermediates.iter() {
            self.tab(&tab_title(name), |out| render_chart(out, name, inter, display));
        }
    }

    /// Close the panel.
    pub fn finish(self) {
        if self.count > 0 {
            self.out.push_str("</div>");
        }
    }
}

/// The insights box shown above the tabs.
pub fn insights_list(out: &mut String, insights: &[Insight]) {
    if insights.is_empty() {
        return;
    }
    out.push_str(r#"<ul class="eda-insights">"#);
    for i in insights {
        out.push_str("<li><b>[");
        Svg::escape(out, i.kind.name());
        out.push_str("]</b> ");
        Svg::escape(out, &i.message);
        out.push_str("</li>");
    }
    out.push_str("</ul>");
}

/// The "approximate" banner shown when an analysis was computed on a
/// sample (`engine.sample_rows`). Nothing when the output is exact.
pub fn approx_banner(out: &mut String, insights: &[Insight]) {
    if let Some(note) = insights.iter().find(|i| i.kind == eda_core::InsightKind::Approximated) {
        out.push_str(r#"<div class="eda-approx"><b>approximate</b> — "#);
        Svg::escape(out, &note.message);
        out.push_str("</div>");
    }
}

/// Diagnostics panel for a degraded section: the error, the task that
/// originally failed, and how long it ran before failing. Nothing for
/// healthy sections.
pub fn diagnostics_panel(out: &mut String, status: &SectionStatus) {
    if let SectionStatus::Failed(err) = status {
        out.push_str(r#"<div class="eda-error"><b>section unavailable</b> — "#);
        Svg::escape(out, &err.to_string());
        out.push_str("<br><small>root cause: task <code>");
        Svg::escape(out, err.root_cause().1);
        let _ = write!(
            out,
            "</code>, failed after {:.3}s; other sections were computed normally</small></div>",
            err.elapsed.as_secs_f64()
        );
    }
}

/// The "Performance" panel of a profiled run: worker Gantt, top-K
/// slowest tasks, and the derived metrics (critical path, utilization,
/// queue-wait histogram, estimated CSE/prune savings). Nothing when the
/// run carried no trace (`engine.profile` off).
pub fn performance_panel(out: &mut String, stats: &ExecStats, display: &DisplayConfig) {
    let Some(trace) = &stats.trace else {
        return;
    };
    gantt(out, trace, display.width.max(600), display.height.max(120));
    out.push_str("<h4>Slowest tasks</h4>");
    top_k_table(out, trace, 10);

    let cp = trace.critical_path();
    let avoided = stats.cse_hits + stats.pruned();
    let _ = write!(
        out,
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
        let _ = write!(
            out,
            "<tr class=\"highlight\"><td>tasks cancelled</td><td>{}</td></tr>",
            stats.tasks_cancelled
        );
    }
    if stats.tasks_timed_out > 0 {
        let _ = write!(
            out,
            "<tr class=\"highlight\"><td>tasks timed out</td><td>{}</td></tr>",
            stats.tasks_timed_out
        );
    }
    if stats.cache_hits + stats.cache_misses > 0 {
        let _ = write!(
            out,
            "<tr><td>result cache</td><td>{} hits / {} misses ({:.0}% hit rate)</td></tr>\
             <tr><td>cache bytes served</td><td>{}</td></tr>\
             <tr><td>cache evictions</td><td>{}</td></tr>",
            stats.cache_hits,
            stats.cache_misses,
            100.0 * stats.cache_hits as f64
                / (stats.cache_hits + stats.cache_misses) as f64,
            fmt_bytes(stats.cache_bytes_saved),
            stats.cache_evictions,
        );
    }
    for (w, util) in trace.worker_utilization().iter().enumerate() {
        let _ = write!(out, "<tr><td>worker w{w} utilization</td><td>{:.0}%</td></tr>", util * 100.0);
    }
    out.push_str("</table>");

    out.push_str("<h4>Queue wait</h4><table class=\"eda-stats\">");
    for (bucket, count) in trace.queue_wait_histogram() {
        let _ = write!(out, "<tr><td>{bucket}</td><td>{count}</td></tr>");
    }
    out.push_str("</table>");
}

/// Human-readable tab title from an intermediate name
/// (`compare_histogram:price` → `Compare Histogram: price`).
fn tab_title(name: &str) -> String {
    let (base, suffix) = match name.split_once(':') {
        Some((b, s)) => (b, Some(s)),
        None => (name, None),
    };
    let mut pretty = String::with_capacity(name.len() + 1);
    for (i, word) in base.split('_').enumerate() {
        if i > 0 {
            pretty.push(' ');
        }
        let mut cs = word.chars();
        pretty.extend(cs.next().into_iter().flat_map(char::to_uppercase));
        pretty.push_str(cs.as_str());
    }
    if let Some(s) = suffix {
        pretty.push_str(": ");
        pretty.push_str(s);
    }
    pretty
}

/// Render one analysis as a standalone HTML page (title, insights box,
/// tabbed charts — the front end of the paper's Figure 1).
pub fn render_analysis_html(analysis: &Analysis, display: &DisplayConfig) -> String {
    let mut out = String::new();
    // A column name is part of the task and may hold markup.
    let task = format!("{:?}", analysis.task);
    out.push_str("<!DOCTYPE html><html><head><meta charset=\"utf-8\"><title>");
    Svg::escape_text(&mut out, &task);
    out.push_str("</title>");
    out.push_str(STYLE);
    out.push_str("</head><body><h1>");
    Svg::escape_text(&mut out, &task);
    out.push_str("</h1>");
    approx_banner(&mut out, &analysis.insights);
    diagnostics_panel(&mut out, &analysis.status);
    insights_list(&mut out, &analysis.insights);
    let mut tabs = Tabs::new(&mut out, "analysis");
    tabs.charts(&analysis.intermediates, display);
    if let Some(stats) = analysis.stats.as_ref().filter(|stats| stats.trace.is_some()) {
        tabs.tab("Performance", |out| performance_panel(out, stats, display));
    }
    tabs.finish();
    out.push_str("</body></html>");
    out
}

/// Render a full report as a standalone HTML page with Overview,
/// Variables, Correlations, and Missing Values sections (the
/// Pandas-profiling-equivalent output, computed the DataPrep way).
pub fn render_report_html(report: &Report, display: &DisplayConfig) -> String {
    let mut page = String::new();
    let out = &mut page;
    out.push_str("<!DOCTYPE html><html><head><meta charset=\"utf-8\"><title>DataPrep.EDA Report</title>");
    out.push_str(STYLE);
    out.push_str("</head><body><h1>DataPrep.EDA Report</h1>");
    approx_banner(out, &report.insights);
    insights_list(out, &report.insights);

    out.push_str("<h2>Overview</h2>");
    diagnostics_panel(out, &report.overview_status);
    out.push_str("<div class=\"eda-grid\">");
    for (name, inter) in report.overview.iter() {
        render_chart(out, name, inter, display);
    }
    out.push_str("</div>");

    out.push_str("<h2>Variables</h2>");
    for (vi, var) in report.variables.iter().enumerate() {
        out.push_str("<h3>");
        Svg::escape(out, &var.name);
        let _ = write!(out, " <small>({})</small></h3>", var.semantic);
        diagnostics_panel(out, &var.status);
        insights_list(out, &var.insights);
        let group = format!("var{vi}");
        let mut tabs = Tabs::new(out, &group);
        tabs.charts(&var.intermediates, display);
        tabs.finish();
    }

    if !report.correlations.is_empty() || !report.correlations_status.is_ok() {
        out.push_str("<h2>Correlations</h2>");
        diagnostics_panel(out, &report.correlations_status);
        let mut tabs = Tabs::new(out, "corr");
        for m in &report.correlations {
            let inter = Inter::Correlation(m.clone());
            tabs.tab(m.method.name(), |out| render_chart(out, "correlation_matrix", &inter, display));
        }
        tabs.finish();
    }

    out.push_str("<h2>Missing Values</h2>");
    diagnostics_panel(out, &report.missing_status);
    let mut tabs = Tabs::new(out, "missing");
    tabs.charts(&report.missing, display);
    tabs.finish();

    if report.stats.trace.is_some() {
        out.push_str("<h2>Performance</h2>");
        performance_panel(out, &report.stats, display);
    }

    let _ = write!(
        out,
        "<p><small>computed {} tasks ({} shared away) in {:.3}s on {} workers</small></p></body></html>",
        report.stats.tasks_run,
        report.stats.cse_hits,
        report.stats.elapsed.as_secs_f64(),
        report.stats.workers
    );
    page
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::svg::drawn;
    use eda_core::{create_report, plot, plot_correlation, plot_missing, Config};
    use eda_dataframe::{Column, DataFrame};
    use eda_taskgraph::{inject, FaultInjector};
    use std::time::Duration;

    fn frame() -> DataFrame {
        frame_named("price")
    }

    /// `frame()` with its numeric column with nulls under another name.
    fn frame_named(price: &str) -> DataFrame {
        DataFrame::new(vec![
            (
                price.into(),
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
        let html = drawn(|out| {
            let mut tabs = Tabs::new(out, "g");
            tabs.tab("A", |out| out.push_str("<p>a</p>"));
            tabs.tab("B<", |out| out.push_str("<p>b</p>"));
            tabs.finish();
        });
        assert_eq!(
            html,
            concat!(
                r#"<div class="eda-tabs"><input type="radio" name="g" id="g-0" checked><label for="g-0">A</label>"#,
                r#"<div class="eda-panel"><p>a</p></div><input type="radio" name="g" id="g-1"><label for="g-1">B&lt;</label>"#,
                r#"<div class="eda-panel"><p>b</p></div></div>"#
            )
        );
        assert!(drawn(|out| Tabs::new(out, "g").finish()).is_empty());
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

    /// A CSV header is user input: it must not reach the page as markup.
    #[test]
    fn hostile_column_name_is_escaped_in_title_and_heading() {
        let df = frame_named("a<script>&b");
        let cfg = Config::default();
        let hostile = ["a<script>&b"];
        let pages = [
            plot(&df, &hostile, &cfg).unwrap(),
            plot_correlation(&df, &hostile, &cfg).unwrap(),
            plot_missing(&df, &hostile, &cfg).unwrap(),
        ];
        for a in &pages {
            let html = render_analysis_html(a, &cfg.display);
            assert!(!html.contains("<script>"), "{:?}: markup in the page", a.task);
            // Once in <title>, once in <h1>; a quote is text there and stays.
            assert_eq!(html.matches("\"a&lt;script&gt;&amp;b\"").count(), 2, "{:?}", a.task);
        }
        // An ordinary name's page reads as it always has.
        let html = render_analysis_html(&plot(&frame(), &["size"], &cfg).unwrap(), &cfg.display);
        assert!(html.contains("<title>Univariate { column: \"size\", semantic: Numerical }</title>"));
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
        assert!(drawn(|out| diagnostics_panel(out, &SectionStatus::Ok)).is_empty());
        let failed = SectionStatus::Failed(std::sync::Arc::new(eda_taskgraph::TaskError {
            task: 4,
            name: "freq:city".into(),
            failure: eda_taskgraph::TaskFailure::Panicked("<x>".into()),
            elapsed: std::time::Duration::from_millis(12),
        }));
        let html = drawn(|out| diagnostics_panel(out, &failed));
        assert!(html.contains("panicked: &lt;x&gt;"));
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
        for row in ["tasks cancelled", "tasks timed out"] {
            assert!(!html.contains(row), "unexpected row {row:?}");
        }
        // A profiled run whose task blows its deadline shows the count.
        // Cache off so the stalled task really executes.
        let governed = Config::from_pairs(vec![
            ("engine.profile", "true"),
            ("engine.cache_budget_bytes", "0"),
            ("engine.task_deadline_ms", "5"),
        ])
        .unwrap();
        let stall = FaultInjector::stall_on("moments:price", Duration::from_millis(30));
        let a = {
            let _armed = inject::arm(stall);
            plot(&df, &["price"], &governed).unwrap()
        };
        let timed_out = a.stats.as_ref().expect("stats").tasks_timed_out;
        assert!(timed_out >= 1, "{:?}", a.stats);
        let html = render_analysis_html(&a, &governed.display);
        let row = format!("<td>tasks timed out</td><td>{timed_out}</td>");
        assert!(html.contains(&row), "timed-out row missing");
        assert!(!html.contains("tasks cancelled"));
    }

    #[test]
    fn insights_box_escapes() {
        use eda_core::insights::{Insight, InsightKind};
        let insight = Insight {
            kind: InsightKind::Missing,
            columns: vec!["a".into()],
            value: 0.2,
            message: "a <has> nulls".into(),
        };
        let html = drawn(|out| insights_list(out, &[insight]));
        assert!(html.contains("a &lt;has&gt; nulls"));
        assert!(drawn(|out| insights_list(out, &[])).is_empty());
    }
}
