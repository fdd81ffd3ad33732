//! The measured program: what one fresh process does for one op. Mirrors
//! `src/bin/dataprep.rs` — `load_data` -> API call -> `render_*_html` ->
//! `fs::write` — and then reports what it saw to the parent.

use std::collections::BTreeMap;
use std::hash::Hasher;
use std::path::Path;
use std::time::Duration;

use dataprep_eda::core::json::{insights_to_json, inter_to_json, intermediates_to_json};
use dataprep_eda::core::{Inter, Report};
use dataprep_eda::dataframe::DataFrame;
use dataprep_eda::prelude::*;
use dataprep_eda::taskgraph::key::Fnv1a;
use dataprep_eda::taskgraph::ExecStats;

use crate::proto::{CallSample, OpReport};
use crate::session::{script, Call, Func};
use crate::span::Recorder;
use crate::workload::{Api, Workload};

/// What an API call returned.
enum Output {
    Report(Report),
    Analysis(Analysis),
}

fn call_api(call: &Call, df: &DataFrame, config: &Config) -> Result<Output, String> {
    let columns: Vec<&str> = call.columns.iter().map(String::as_str).collect();
    let analysis = match call.func {
        Func::Report => {
            return create_report(df, config)
                .map(Output::Report)
                .map_err(|e| e.to_string())
        }
        Func::Plot => plot(df, &columns, config),
        Func::Correlation => plot_correlation(df, &columns, config),
        Func::Missing => plot_missing(df, &columns, config),
    };
    analysis.map(Output::Analysis).map_err(|e| e.to_string())
}

impl Output {
    fn html(&self, config: &Config) -> String {
        match self {
            Output::Report(r) => render_report_html(r, &config.display),
            Output::Analysis(a) => render_analysis_html(a, &config.display),
        }
    }

    fn stats(&self) -> Option<&ExecStats> {
        match self {
            Output::Report(r) => Some(&r.stats),
            Output::Analysis(a) => a.stats.as_ref(),
        }
    }

    /// Sections that did not compute fully (a missing variable section
    /// counts as one).
    fn sections_failed(&self, ncols: usize) -> usize {
        match self {
            Output::Report(r) => r.failed_sections().len() + ncols.abs_diff(r.variables.len()),
            Output::Analysis(a) => usize::from(!a.status.is_ok()),
        }
    }

    fn ok(&self, ncols: usize) -> bool {
        self.sections_failed(ncols) == 0 && self.stats().is_none_or(ExecStats::fully_succeeded)
    }

    /// Feed the JSON of everything the call computed to `digest`. The HTML
    /// is left out: it embeds the elapsed time.
    fn digest(&self, digest: &mut Fnv1a) {
        let mut feed = |json: String| digest.write(json.as_bytes());
        match self {
            Output::Report(r) => {
                feed(intermediates_to_json(&r.overview));
                for v in &r.variables {
                    feed(v.name.clone());
                    feed(intermediates_to_json(&v.intermediates));
                }
                for m in &r.correlations {
                    feed(inter_to_json(&Inter::Correlation(m.clone())));
                }
                feed(intermediates_to_json(&r.missing));
                feed(insights_to_json(&r.insights));
            }
            Output::Analysis(a) => {
                feed(intermediates_to_json(&a.intermediates));
                feed(insights_to_json(&a.insights));
            }
        }
    }
}

/// Sums of `ExecStats` counters over the calls of one op, plus the task
/// spans of profiled calls as Chrome events.
#[derive(Default)]
struct Tally {
    stats: BTreeMap<String, f64>,
    task_events: Vec<String>,
}

impl Tally {
    fn add(&mut self, key: &str, value: f64) {
        *self.stats.entry(key.to_string()).or_insert(0.0) += value;
    }

    /// `call_start_us`: where the API call began on the parent's clock;
    /// the task spans, whose times count from the scheduler's own start,
    /// are placed from there. Task time is bucketed by the task family
    /// (the name up to `:`); the before/after comparison of
    /// `plot_missing(df, x[, y])` has no family of its own — it plans
    /// histogram and freq tasks over filtered rows — so all task time of
    /// those calls is also summed as `compare_us`.
    fn add_stats(&mut self, call: &Call, s: &ExecStats, call_start_us: u64) {
        let us = |d: Duration| d.as_secs_f64() * 1e6;
        self.add("tasks_run", s.tasks_run as f64);
        self.add("cse_hits", s.cse_hits as f64);
        self.add("pruned", s.pruned() as f64);
        self.add("cache_hits", s.cache_hits as f64);
        self.add("cache_misses", s.cache_misses as f64);
        self.add("cache_evictions", s.cache_evictions as f64);
        self.add("tasks_failed", s.tasks_failed as f64);
        self.add("exec_us", us(s.elapsed));
        self.add("worker_us", us(s.elapsed) * s.workers.max(1) as f64);
        let Some(trace) = &s.trace else { return };
        self.add("critical_path_us", us(trace.critical_path().total));
        for span in trace.executed() {
            self.add("busy_us", us(span.duration()));
            self.add("queue_wait_us", us(span.queue_wait));
            let family = span.name.split(':').next().unwrap_or("");
            self.add(&format!("task_us.{family}"), us(span.duration()));
            if call.func == Func::Missing && !call.columns.is_empty() {
                self.add("compare_us", us(span.duration()));
            }
        }
        let mut shifted = (**trace).clone();
        for span in &mut shifted.spans {
            span.start += Duration::from_micros(call_start_us);
            span.end += Duration::from_micros(call_start_us);
        }
        let doc = shifted.to_chrome_trace();
        if let (Some(open), Some(close)) = (doc.find('['), doc.rfind(']')) {
            self.task_events.push(doc[open + 1..close].to_string());
        }
    }
}

/// `VmHWM` of this process in KiB (0 where `/proc` has none).
fn peak_rss_kb() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .unwrap_or(0)
}

fn config_for(trace: bool) -> Result<Config, String> {
    let mut config = Config::default();
    if trace {
        config
            .set("engine.profile", "true")
            .map_err(|e| e.to_string())?;
    }
    Ok(config)
}

/// Run one op of `w` in this process. `base_us` is the parent's clock at
/// spawn; `html_out` is where a cold op writes its page.
pub fn run(
    w: &Workload,
    input: &Path,
    html_out: &Path,
    seed: u64,
    trace: bool,
    base_us: u64,
) -> Result<OpReport, String> {
    let mut rec = Recorder::new(base_us);
    let root = rec.enter("child");
    let config = config_for(trace)?;

    let load = rec.enter("io.load");
    let df = load_data(input, &config).map_err(|e| format!("reading {}: {e}", input.display()))?;
    rec.exit(load);

    let calls = match w.api {
        Api::Report => vec![Call::new(Func::Report, &[])],
        Api::Overview => vec![Call::new(Func::Plot, &[])],
        Api::Session => {
            let (numeric, categorical) = w.column_names();
            script(seed, &numeric, &categorical)
        }
    };

    let mut report = OpReport {
        ok: true,
        ..OpReport::default()
    };
    let mut digest = Fnv1a::new();
    let mut tally = Tally::default();
    for call in &calls {
        let op = rec.enter(&format!("call.{}", call.kind()));
        let span = rec.enter("core.call");
        let call_start_us = rec.start_of(span);
        let output = call_api(call, &df, &config);
        let call_us = rec.exit(span);
        let mut render_us = 0;
        let mut html = String::new();
        if let Ok(output) = &output {
            let span = rec.enter("render.html");
            html = output.html(&config);
            render_us = rec.exit(span);
            if w.api != Api::Session {
                let span = rec.enter("render.write");
                std::fs::write(html_out, &html)
                    .map_err(|e| format!("writing {}: {e}", html_out.display()))?;
                rec.exit(span);
            }
        }
        rec.exit(op);

        // Outside the op: what the benchmark adds to check the output.
        let span = rec.enter("bench.check");
        let ok = match &output {
            Ok(output) => {
                output.digest(&mut digest);
                report.html_bytes += html.len() as u64;
                tally.add("sections_failed", output.sections_failed(df.ncols()) as f64);
                if let Some(stats) = output.stats() {
                    tally.add_stats(call, stats, call_start_us);
                }
                output.ok(df.ncols()) && !html.is_empty()
            }
            Err(e) => {
                eprintln!("eda-e2e: {} {:?} failed: {e}", call.kind(), call.columns);
                false
            }
        };
        rec.exit(span);
        let span = rec.enter("drop");
        drop(output);
        rec.exit(span);
        report.ok &= ok;
        report.calls.push(CallSample {
            kind: call.kind().to_string(),
            call_us,
            render_us,
            reissue: call.reissue,
            ok,
        });
    }
    let span = rec.enter("drop");
    drop(df);
    rec.exit(span);
    rec.exit(root);

    report.digest = digest.finish();
    report.rss_kb = peak_rss_kb();
    report.stats = tally.stats;
    if trace {
        report.spans = rec.spans().to_vec();
        report.task_events = tally.task_events;
    }
    Ok(report)
}
