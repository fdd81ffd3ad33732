//! Profiling acceptance tests: `plot(df)` with `engine.profile = true`
//! on the bitcoin-shaped dataset yields a Performance tab (one Gantt row
//! per worker, a top-K slowest table) and a Chrome-trace export whose
//! complete-span count equals the executed-task count.

use eda_core::{create_report, plot, plot_missing, Config};
use eda_datagen::bitcoin::bitcoin_spec;
use eda_datagen::generate;
use eda_render::layout::{render_analysis_html, render_report_html};

fn bitcoin_df() -> eda_dataframe::DataFrame {
    generate(&bitcoin_spec(20_000), 42)
}

#[test]
fn profiled_plot_produces_performance_tab_and_chrome_trace() {
    let df = bitcoin_df();
    let cfg = Config::from_pairs(vec![("engine.profile", "true")]).unwrap();
    let analysis = plot(&df, &[], &cfg).expect("overview analysis");
    let stats = analysis.stats.as_ref().expect("stats recorded");
    let trace = stats.trace.as_ref().expect("profiled run carries a trace");

    // --- HTML surface ---------------------------------------------------
    let html = render_analysis_html(&analysis, &cfg.display);
    assert!(html.contains("Performance"), "missing Performance tab");
    assert!(html.contains("Worker timeline"), "missing Gantt chart");
    assert!(html.contains("Slowest tasks"), "missing top-K table");
    // ≥ 1 Gantt row (lane label) per worker.
    for w in 0..stats.workers {
        assert!(html.contains(&format!(">w{w}<")), "missing Gantt lane w{w}");
    }

    // --- Chrome trace ---------------------------------------------------
    let json = trace.to_chrome_trace();
    assert!(!json.is_empty());
    let executed = stats.tasks_run + stats.tasks_failed + stats.tasks_timed_out;
    assert_eq!(
        json.matches("\"ph\":\"X\"").count(),
        executed,
        "complete-event count must equal executed task count"
    );
    // Skipped tasks appear as instants, never as complete events.
    assert_eq!(json.matches("\"ph\":\"i\"").count(), stats.tasks_skipped);
}

#[test]
fn profiled_report_exports_consistent_trace() {
    let df = bitcoin_df();
    let cfg = Config::from_pairs(vec![("engine.profile", "true")]).unwrap();
    let report = create_report(&df, &cfg).expect("report");
    let trace = report.stats.trace.as_ref().expect("trace attached");

    assert_eq!(trace.spans.len(), report.stats.live_nodes, "one span per live node");
    let html = render_report_html(&report, &cfg.display);
    assert!(html.contains("<h2>Performance</h2>"));
    assert!(html.contains("critical path"));

    let executed =
        report.stats.tasks_run + report.stats.tasks_failed + report.stats.tasks_timed_out;
    assert_eq!(trace.to_chrome_trace().matches("\"ph\":\"X\"").count(), executed);
}

#[test]
fn profile_off_keeps_reports_trace_free() {
    let df = bitcoin_df();
    let cfg = Config::default();
    let report = create_report(&df, &cfg).expect("report");
    assert!(report.stats.trace.is_none(), "untraced run must not allocate spans");
    let html = render_report_html(&report, &cfg.display);
    assert!(!html.contains("<h2>Performance</h2>"));
}

/// A reduce task is named `<op>/reduce`, so its span counts in its
/// kernel's family — the name up to its first `:`, as `eda-e2e` buckets
/// task time: `histogram:open/reduce` is a `histogram` span, `nulls:…`
/// a `nulls` one.
#[test]
fn reduce_spans_fall_in_their_kernels_family() {
    let df = bitcoin_df();
    let cfg = Config::from_pairs(vec![
        ("engine.profile", "true"),
        ("engine.npartitions", "4"),
        ("engine.cache_budget_bytes", "0"),
    ])
    .unwrap();
    let report = create_report(&df, &cfg).expect("report").stats;
    let missing = plot_missing(&df, &[], &cfg).expect("missing").stats.expect("stats");
    let pair = plot(&df, &["open", "close"], &cfg).expect("N×N plot").stats.expect("stats");
    for (call, stats) in [("create_report", report), ("plot_missing", missing), ("plot", pair)] {
        let trace = stats.trace.expect("profiled run carries a trace");
        let reduces = trace.spans.iter().filter(|s| s.name.ends_with("/reduce")).count();
        assert!(reduces > 0, "{call}: no reduce task ran");
        for span in &trace.spans {
            let family = span.name.split(':').next().unwrap_or("");
            assert!(
                !family.contains("/reduce"),
                "{call}: span {} is in family {family}",
                span.name
            );
        }
    }
}
