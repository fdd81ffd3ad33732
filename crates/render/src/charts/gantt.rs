//! The profiling charts of the "Performance" tab: a workers × time Gantt
//! of one traced run, and the top-K slowest-tasks table.
//!
//! Both consume the [`RunTrace`] a profiled run
//! (`("engine.profile", "true")`) attaches to `ExecStats`.

use std::fmt::Write as _;
use std::time::Duration;

use eda_taskgraph::{RunTrace, SpanStatus, TaskSpan};

use crate::svg::Svg;
use crate::theme;

/// Fill color of a span rectangle by outcome.
fn status_fill(status: SpanStatus) -> &'static str {
    match status {
        SpanStatus::Ok => theme::PRIMARY,
        SpanStatus::Failed => theme::HIGHLIGHT,
        SpanStatus::TimedOut => theme::SECONDARY,
        SpanStatus::Skipped => theme::GRID,
        // Zero-width in the Gantt anyway; the axis color keeps the legend
        // distinct from executed/failed work if one ever gets painted.
        SpanStatus::Cached | SpanStatus::Cancelled => theme::AXIS,
    }
}

/// Format a duration compactly for labels (`412µs`, `3.1ms`, `1.24s`).
pub fn fmt_dur(d: Duration) -> String {
    let us = d.as_micros();
    if us < 1_000 {
        format!("{us}µs")
    } else if us < 1_000_000 {
        format!("{:.1}ms", us as f64 / 1_000.0)
    } else {
        format!("{:.2}s", d.as_secs_f64())
    }
}

/// Workers × time Gantt chart of one traced run: one labeled lane per
/// worker, one rectangle per executed span, colored by outcome. Every
/// worker gets a lane even if it ran nothing (idle workers are part of
/// the utilization story).
pub fn gantt(out: &mut String, trace: &RunTrace, width: usize, height: usize) {
    let workers = trace.workers.max(1);
    let left = 44.0;
    let top = 24.0;
    let bottom = 20.0;
    let right = 10.0;
    // Grow with worker count so lanes stay readable on big machines.
    let height = height.max(top as usize + bottom as usize + 18 * workers);
    let mut svg = Svg::new(out, width, height);
    let plot_w = width as f64 - left - right;
    let lane_h = (height as f64 - top - bottom) / workers as f64;
    let total = trace.elapsed.max(Duration::from_micros(1)).as_secs_f64();

    svg.text(
        width as f64 / 2.0,
        14.0,
        &format!("Worker timeline ({} spans, {})", trace.spans.len(), fmt_dur(trace.elapsed)),
        12.0,
        "middle",
        theme::TEXT,
    );

    for w in 0..workers {
        let y = top + w as f64 * lane_h;
        // Lane separator + label; the label row is what the "one Gantt
        // row per worker" checks read.
        svg.line(left, y + lane_h, width as f64 - right, y + lane_h, theme::GRID, 1.0);
        svg.text(left - 6.0, y + lane_h / 2.0 + 3.0, &format!("w{w}"), 10.0, "end", theme::TEXT);
    }

    for span in trace.executed() {
        let x0 = left + plot_w * span.start.as_secs_f64() / total;
        let x1 = left + plot_w * span.end.as_secs_f64() / total;
        let y = top + span.worker.min(workers - 1) as f64 * lane_h + 2.0;
        // Sub-pixel spans still deserve a visible sliver.
        let w = (x1 - x0).max(0.75);
        svg.rect(x0, y, w, lane_h - 4.0, status_fill(span.status));
    }

    // Time axis.
    svg.line(left, height as f64 - bottom, width as f64 - right, height as f64 - bottom, theme::AXIS, 1.0);
    svg.text(left, height as f64 - 6.0, "0", 9.0, "start", theme::TEXT);
    svg.text(
        width as f64 - right,
        height as f64 - 6.0,
        &fmt_dur(trace.elapsed),
        9.0,
        "end",
        theme::TEXT,
    );
    svg.finish();
}

/// HTML table of the `k` slowest executed tasks: name, worker, duration,
/// queue wait, and payload estimate.
pub fn top_k_table(out: &mut String, trace: &RunTrace, k: usize) {
    let rows: Vec<&TaskSpan> = trace.top_k(k);
    if rows.is_empty() {
        return out.push_str("<p><small>no executed tasks recorded</small></p>");
    }
    out.push_str(
        r#"<table class="eda-stats"><tr><th>#</th><th>task</th><th>worker</th><th>duration</th><th>queue wait</th><th>payload</th><th>status</th></tr>"#,
    );
    for (i, span) in rows.iter().enumerate() {
        let class = if span.status == SpanStatus::Ok { "" } else { r#" class="highlight""# };
        let _ = write!(out, "<tr{class}><td>{}</td><td>", i + 1);
        Svg::escape(out, &span.name);
        let _ = write!(
            out,
            "</td><td>w{}</td><td>{}</td><td>{}</td><td>{}</td><td>{}</td></tr>",
            span.worker,
            fmt_dur(span.duration()),
            fmt_dur(span.queue_wait),
            fmt_bytes(span.payload_bytes),
            span.status.label(),
        );
    }
    out.push_str("</table>");
}

/// Format an estimated payload size (`640 B`, `12.5 KB`, `3.2 MB`).
pub fn fmt_bytes(bytes: usize) -> String {
    if bytes < 1024 {
        format!("{bytes} B")
    } else if bytes < 1024 * 1024 {
        format!("{:.1} KB", bytes as f64 / 1024.0)
    } else {
        format!("{:.1} MB", bytes as f64 / (1024.0 * 1024.0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::svg::drawn;
    use eda_taskgraph::NodeId;

    fn span(node: NodeId, name: &str, worker: usize, start_us: u64, end_us: u64) -> TaskSpan {
        TaskSpan {
            node,
            name: name.into(),
            worker,
            start: Duration::from_micros(start_us),
            end: Duration::from_micros(end_us),
            queue_wait: Duration::ZERO,
            status: SpanStatus::Ok,
            payload_bytes: 800,
            deps: vec![],
        }
    }

    fn trace() -> RunTrace {
        RunTrace {
            spans: vec![
                span(0, "src", 0, 0, 100),
                span(1, "hist:price", 1, 120, 900),
                span(2, "kde:price", 0, 150, 400),
            ],
            workers: 2,
            elapsed: Duration::from_micros(1_000),
        }
    }

    #[test]
    fn gantt_has_one_lane_label_per_worker() {
        let html = drawn(|out| gantt(out, &trace(), 600, 200));
        assert!(html.contains("<svg"));
        assert!(html.contains(">w0<"));
        assert!(html.contains(">w1<"));
        assert_eq!(html.matches("<rect").count(), 3);
    }

    #[test]
    fn gantt_renders_idle_workers_and_empty_traces() {
        let t = RunTrace { spans: vec![], workers: 4, elapsed: Duration::ZERO };
        let html = drawn(|out| gantt(out, &t, 600, 120));
        for w in 0..4 {
            assert!(html.contains(&format!(">w{w}<")), "missing lane w{w}");
        }
        assert_eq!(html.matches("<rect").count(), 0);
    }

    #[test]
    fn top_k_table_ranks_by_duration() {
        let html = drawn(|out| top_k_table(out, &trace(), 2));
        assert!(html.contains("<table"));
        // hist:price (780µs) outranks kde:price (250µs); src drops out at k=2.
        let hist = html.find("hist:price").unwrap();
        let kde = html.find("kde:price").unwrap();
        assert!(hist < kde);
        assert!(!html.contains(">src<"));
    }

    #[test]
    fn top_k_table_handles_empty_trace() {
        let t = RunTrace { spans: vec![], workers: 1, elapsed: Duration::ZERO };
        assert!(drawn(|out| top_k_table(out, &t, 5)).contains("no executed tasks"));
    }

    #[test]
    fn duration_and_byte_formats() {
        assert_eq!(fmt_dur(Duration::from_micros(412)), "412µs");
        assert_eq!(fmt_dur(Duration::from_micros(3_100)), "3.1ms");
        assert_eq!(fmt_dur(Duration::from_millis(1_240)), "1.24s");
        assert_eq!(fmt_bytes(640), "640 B");
        assert_eq!(fmt_bytes(12 * 1024 + 512), "12.5 KB");
        assert!(fmt_bytes(3 * 1024 * 1024).ends_with("MB"));
    }
}
