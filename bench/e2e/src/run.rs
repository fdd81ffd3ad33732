//! One run of one workload: set up the inputs, drive ops closed-loop with
//! one client for the measuring time, check every output, and turn the
//! samples into metrics.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::Instant;

use crate::calib::host_slowdown;
use crate::metrics::{Metric, END_TO_END, PER_LAYER};
use crate::probe;
use crate::proto::OpReport;
use crate::session::script;
use crate::span::{chrome_trace, self_times_us, total_us, Recorder, Span};
use crate::summary::{median, percentile};
use crate::workload::{setup, Api, Inputs, SetupTimes, Workload};

/// Figure 5's interactivity threshold.
const INTERACTIVE_US: u64 = 500_000;

pub struct RunOptions {
    pub seed: u64,
    /// Measuring time; the run ends with the first op that finishes after it.
    pub seconds: f64,
    /// Per-layer run (profiled ops alternating with plain ones, then layer
    /// probes) instead of an end-to-end run.
    pub trace: bool,
    /// Row-count factor (`--quick` uses 1/20).
    pub scale: f64,
    /// Stop after this many measured ops even if time remains.
    pub max_ops: Option<usize>,
    /// How often the set-up is repeated; the median is reported.
    pub setup_reps: usize,
}

pub struct RunResult {
    pub workload: &'static str,
    pub correct: bool,
    pub attempted: usize,
    pub failed: usize,
    pub metrics: Vec<Metric>,
    /// Latency samples behind the percentiles.
    pub samples: usize,
    pub rows: usize,
}

/// Where generated data and traces go: `bench/e2e/target/`, ignored by git.
fn scratch_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("target")
}

/// `num / den`, or 0 when there is nothing to divide by.
fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Time the reference loop; the host's slowdown right now.
fn calibrate(rec: &mut Recorder) -> f64 {
    let span = rec.enter("bench.calibrate");
    let slowdown = host_slowdown();
    rec.exit(span);
    slowdown
}

/// The run's private data directory, removed when the run ends.
struct RunDir(PathBuf);

impl Drop for RunDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// One finished op, as the parent saw it.
struct Op {
    id: usize,
    traced: bool,
    /// Parent-measured, from just before spawn to exit.
    wall_ms: f64,
    /// Host slowdown around the op: the mean of the reference loop just
    /// before and just after it.
    slowdown: f64,
    /// `None` when the child failed or printed no result.
    report: Option<OpReport>,
    /// Output check passed (exit code, section statuses, HTML, digest).
    passed: bool,
}

struct Runner<'a> {
    w: &'a Workload,
    seed: u64,
    exe: PathBuf,
    dir: PathBuf,
    inputs: Inputs,
    rec: Recorder,
    /// API calls one op makes (1 for a cold op, the script's length for a session).
    calls_per_op: usize,
    /// Digest of the first op that passed; every later op must match it.
    reference_digest: Option<u64>,
    /// Ops started so far, the discarded warm-up included.
    started: usize,
    /// The latest host-slowdown measurement.
    slowdown: f64,
    ops: Vec<Op>,
}

impl Runner<'_> {
    fn run_op(&mut self, traced: bool) -> &Op {
        let id = self.started;
        self.started += 1;
        let html = self.dir.join("out.html");
        let _ = std::fs::remove_file(&html);
        let (input, _) = self.inputs.for_api(self.w.api);

        self.rec.set_op(id);
        let span = self.rec.enter("op");
        let output = Command::new(&self.exe)
            .arg("--child")
            .arg(self.w.name)
            .arg("--input")
            .arg(input)
            .arg("--html")
            .arg(&html)
            .args(["--seed", &self.seed.to_string()])
            .args(["--trace", if traced { "1" } else { "0" }])
            .args(["--base-us", &self.rec.start_of(span).to_string()])
            .stdin(Stdio::null())
            .stderr(Stdio::inherit())
            .output();
        let wall_ms = self.rec.exit(span) as f64 / 1e3;
        let before = self.slowdown;
        self.slowdown = calibrate(&mut self.rec);
        let slowdown = (before + self.slowdown) / 2.0;

        let report = match output {
            Ok(out) if out.status.success() => {
                match OpReport::parse(&String::from_utf8_lossy(&out.stdout)) {
                    Ok(report) => Some(report),
                    Err(e) => {
                        eprintln!("eda-e2e: op {id} of {}: {e}", self.w.name);
                        None
                    }
                }
            }
            Ok(out) => {
                eprintln!(
                    "eda-e2e: op {id} of {} exited with {}",
                    self.w.name, out.status
                );
                None
            }
            Err(e) => {
                eprintln!("eda-e2e: spawning op {id} of {}: {e}", self.w.name);
                None
            }
        };

        let mut passed = false;
        if let Some(r) = &report {
            self.rec.adopt(span, &r.spans);
            let wrote_html =
                self.w.api == Api::Session || std::fs::metadata(&html).is_ok_and(|m| m.len() > 0);
            let digest = *self.reference_digest.get_or_insert(r.digest);
            passed = r.ok && wrote_html && r.calls.len() == self.calls_per_op && r.digest == digest;
            if r.digest != digest {
                eprintln!(
                    "eda-e2e: op {id} of {}: digest {:016x} != {digest:016x}",
                    self.w.name, r.digest
                );
            }
        }
        eprintln!(
            "eda-e2e: {} op {id}: {wall_ms:.1} ms at host slowdown {slowdown:.3}, peak RSS {:.1} MiB{}{}",
            self.w.name,
            report.as_ref().map_or(0.0, |r| r.rss_kb as f64 / 1024.0),
            if traced { ", traced" } else { "" },
            if passed { "" } else { ", FAILED" }
        );
        self.ops.push(Op {
            id,
            traced,
            wall_ms,
            slowdown,
            report,
            passed,
        });
        self.ops.last().expect("just pushed")
    }

    /// Ops attempted and failed, counted in API calls: a cold op is one, a
    /// session is as many as its script is long.
    fn attempts(&self) -> (usize, usize) {
        let attempted = self.ops.len() * self.calls_per_op;
        let failed = self
            .ops
            .iter()
            .map(|op| match &op.report {
                Some(r) if op.passed => r.calls.iter().filter(|c| !c.ok).count(),
                _ => self.calls_per_op,
            })
            .sum();
        (attempted, failed)
    }

    /// Latency samples of `ops` in milliseconds at nominal host speed: the
    /// parent-measured wall of each cold op, or the in-process wall of each
    /// call of a session, over the op's host slowdown. A failed op
    /// contributes none.
    fn walls_ms(&self, ops: &[&Op]) -> Vec<f64> {
        let passed = ops.iter().filter(|op| op.passed);
        match self.w.api {
            Api::Session => passed
                .filter_map(|op| op.report.as_ref().map(|r| (op, r)))
                .flat_map(|(op, r)| {
                    r.calls
                        .iter()
                        .filter(|c| c.ok)
                        .map(|c| c.wall_ms() / op.slowdown)
                })
                .collect(),
            Api::Report | Api::Overview => passed.map(|op| op.wall_ms / op.slowdown).collect(),
        }
    }

    fn end_to_end(&self, setup_s: &[f64]) -> (Vec<Metric>, usize) {
        let ops: Vec<&Op> = self.ops.iter().collect();
        let walls = self.walls_ms(&ops);
        let total_s: f64 = walls.iter().sum::<f64>() / 1e3;
        let rss_mb: Vec<f64> = ops
            .iter()
            .filter_map(|op| op.report.as_ref())
            .map(|r| r.rss_kb as f64 / 1024.0)
            .collect();
        let value = |name: &str| match name {
            "wall_ms_p50" => median(&walls),
            "wall_ms_p90" => percentile(&walls, 0.9).unwrap_or(0.0),
            "rows_per_s" => {
                (self.inputs.rows * walls.len()) as f64 / total_s.max(f64::MIN_POSITIVE)
            }
            "peak_rss_mb" => median(&rss_mb),
            "setup_s" => median(setup_s),
            other => unreachable!("no value for end-to-end metric {other}"),
        };
        let metrics = END_TO_END
            .iter()
            .map(|m| Metric {
                name: m.name.into(),
                value: value(m.name),
                unit: m.unit,
            })
            .collect();
        (metrics, walls.len())
    }

    /// Per-layer values of one traced op.
    fn layer_values(
        &self,
        op: &Op,
        report: &OpReport,
        spans: &[Span],
        self_us: &[u64],
    ) -> BTreeMap<&'static str, f64> {
        let ms = |name: &str| total_us(spans, op.id, name) as f64 / 1e3;
        let stat = |key: &str| report.stats.get(key).copied().unwrap_or(0.0);
        let task_ms = |families: &[&str]| {
            families
                .iter()
                .map(|f| stat(&format!("task_us.{f}")))
                .sum::<f64>()
                / 1e3
        };
        let self_ms_of = |name: &str| {
            spans
                .iter()
                .zip(self_us)
                .filter(|(s, _)| s.op_id == op.id && s.name == name)
                .map(|(_, t)| *t as f64 / 1e3)
                .sum::<f64>()
        };

        let (_, input_bytes) = self.inputs.for_api(self.w.api);
        let (load_ms, call_ms, exec_ms) = (ms("io.load"), ms("core.call"), stat("exec_us") / 1e3);
        let within = report
            .calls
            .iter()
            .filter(|c| c.call_us <= INTERACTIVE_US)
            .count();
        BTreeMap::from([
            ("io.load_ms", load_ms),
            (
                "io.load_mb_per_s",
                ratio(input_bytes as f64 / 1e6, load_ms / 1e3),
            ),
            ("core.call_ms", call_ms),
            ("core.outside_graph_ms", call_ms - exec_ms),
            ("core.outside_graph_frac", ratio(call_ms - exec_ms, call_ms)),
            ("core.sections_failed", stat("sections_failed")),
            (
                "core.within_500ms_frac",
                ratio(within as f64, report.calls.len() as f64),
            ),
            ("taskgraph.exec_ms", exec_ms),
            ("taskgraph.tasks_run", stat("tasks_run")),
            ("taskgraph.cse_hits", stat("cse_hits")),
            ("taskgraph.pruned", stat("pruned")),
            (
                "taskgraph.cache_hit_rate",
                ratio(
                    stat("cache_hits"),
                    stat("cache_hits") + stat("cache_misses"),
                ),
            ),
            ("taskgraph.cache_evictions", stat("cache_evictions")),
            ("taskgraph.tasks_failed", stat("tasks_failed")),
            ("taskgraph.busy_ms", stat("busy_us") / 1e3),
            ("taskgraph.queue_wait_ms", stat("queue_wait_us") / 1e3),
            (
                "taskgraph.worker_util",
                ratio(stat("busy_us"), stat("worker_us")),
            ),
            ("taskgraph.critical_path_ms", stat("critical_path_us") / 1e3),
            ("stats.corrprep_ms", task_ms(&["corr_prep"])),
            ("stats.corrmatrix_ms", task_ms(&["corr_matrix"])),
            ("stats.moments_ms", task_ms(&["moments"])),
            ("stats.histogram_ms", task_ms(&["histogram"])),
            ("stats.sorted_ms", task_ms(&["sorted", "sorted_values"])),
            ("stats.freq_ms", task_ms(&["freq"])),
            ("stats.text_ms", task_ms(&["text", "text_stats"])),
            (
                "stats.nullity_ms",
                task_ms(&["null_indicator", "nulls", "col_meta"]),
            ),
            // The before/after comparison is planned as plain histogram and
            // freq tasks; the child sums it by the call that planned it.
            ("stats.compare_ms", stat("compare_us") / 1e3),
            ("render.html_ms", ms("render.html")),
            ("render.html_bytes", report.html_bytes as f64),
            ("render.write_ms", ms("render.write")),
            // The op span's self time: parent wall minus the child's own span.
            ("process.overhead_ms", self_ms_of("op")),
            // Everything but the child's unnamed in-process time.
            (
                "bench.attributed_frac",
                1.0 - ratio(self_ms_of("child"), op.wall_ms),
            ),
        ])
    }

    fn per_layer(&self, setup: &SetupTimes, probes: &probe::Probes) -> Vec<Metric> {
        let spans = self.rec.spans();
        let self_us = self_times_us(spans);
        let traced: Vec<(&Op, &OpReport)> = self
            .ops
            .iter()
            .filter(|op| op.traced && op.passed)
            .filter_map(|op| op.report.as_ref().map(|r| (op, r)))
            .collect();

        // Median over the traced ops of each per-op value.
        let mut per_op: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
        for (op, report) in &traced {
            for (name, value) in self.layer_values(op, report, spans, &self_us) {
                per_op.entry(name).or_default().push(value);
            }
        }
        let mut values: BTreeMap<String, f64> = per_op
            .iter()
            .map(|(name, v)| (name.to_string(), median(v)))
            .collect();

        // Session calls by kind: first issues by what they call, repeats together.
        if self.w.api == Api::Session {
            let mut by_kind: BTreeMap<String, Vec<f64>> = BTreeMap::new();
            for call in traced.iter().flat_map(|(_, r)| &r.calls).filter(|c| c.ok) {
                let kind = if call.reissue {
                    "reissue"
                } else {
                    call.kind.as_str()
                };
                by_kind
                    .entry(format!("core.{kind}_ms"))
                    .or_default()
                    .push(call.call_us as f64 / 1e3);
            }
            values.extend(by_kind.iter().map(|(name, v)| (name.clone(), median(v))));
        }

        values.extend(probes.values.iter().map(|(name, v)| (name.to_string(), *v)));
        let probe = |name: &str| probes.values.get(name).copied().unwrap_or(0.0);
        values.insert(
            "io.csv_parallel_speedup".into(),
            ratio(probe("dataframe.read_csv_ms"), probe("io.load_csv_ms")),
        );
        values.insert(
            "baseline.speedup".into(),
            ratio(probe("baseline.profile_ms"), probe("core.report_ms")),
        );
        values.insert("io.convert_ms".into(), setup.convert_ms);
        values.insert("dataframe.write_csv_ms".into(), setup.write_csv_ms);
        values.insert(
            "io.edaf_bytes_per_csv_byte".into(),
            ratio(self.inputs.edaf_bytes as f64, self.inputs.csv_bytes as f64),
        );

        let subset = |traced: bool| -> Vec<&Op> {
            self.ops.iter().filter(|op| op.traced == traced).collect()
        };
        let p50 = |traced: bool| median(&self.walls_ms(&subset(traced)));
        values.insert(
            "bench.trace_overhead_frac".into(),
            ratio(p50(true), p50(false)) - 1.0,
        );
        values.insert("bench.ops_traced".into(), traced.len() as f64);
        let slowdowns: Vec<f64> = self.ops.iter().map(|op| op.slowdown).collect();
        values.insert("bench.host_slowdown".into(), median(&slowdowns));

        PER_LAYER
            .iter()
            .map(|(name, unit, _)| Metric {
                name: name.to_string(),
                value: values.get(*name).copied().unwrap_or(0.0),
                unit,
            })
            .collect()
    }

    fn write_trace(&self) -> Result<PathBuf, String> {
        let dir = scratch_root().join("trace");
        let path = dir.join(format!("{}.json", self.w.name));
        let task_events: Vec<&str> = self
            .ops
            .iter()
            .filter_map(|op| op.report.as_ref())
            .flat_map(|r| r.task_events.iter().map(String::as_str))
            .collect();
        std::fs::create_dir_all(&dir)
            .and_then(|()| std::fs::write(&path, chrome_trace(self.rec.spans(), &task_events)))
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
        Ok(path)
    }
}

pub fn run_workload(w: &Workload, opts: &RunOptions) -> Result<RunResult, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating the benchmark binary: {e}"))?;
    let dir = scratch_root().join("data").join(format!(
        "{}-{}-{}",
        w.name,
        opts.seed,
        std::process::id()
    ));
    std::fs::create_dir_all(&dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    let _cleanup = RunDir(dir.clone());

    let mut rec = Recorder::new(0);
    let mut slowdown = calibrate(&mut rec);
    let mut setup_s = Vec::new();
    let mut last_setup = None;
    for _ in 0..opts.setup_reps.max(1) {
        let span = rec.enter("setup");
        let (inputs, times) = setup(w, opts.seed, opts.scale, &dir)?;
        rec.exit(span);
        let before = slowdown;
        slowdown = calibrate(&mut rec);
        setup_s.push(times.total_s() / ((before + slowdown) / 2.0));
        last_setup = Some((inputs, times));
    }
    let (inputs, setup_times) = last_setup.expect("set up at least once");

    let calls_per_op = match w.api {
        Api::Session => {
            let (numeric, categorical) = w.column_names();
            script(opts.seed, &numeric, &categorical).len()
        }
        Api::Report | Api::Overview => 1,
    };
    let mut runner = Runner {
        w,
        seed: opts.seed,
        exe,
        dir,
        inputs,
        rec,
        calls_per_op,
        reference_digest: None,
        started: 0,
        slowdown,
        ops: Vec::new(),
    };

    // One discarded op: fills the OS page cache and fixes the reference digest.
    if !runner.run_op(false).passed {
        return Err(format!("warm-up op of {} failed its output check", w.name));
    }
    runner.ops.clear();

    let started = Instant::now();
    let enough = |ops: usize| opts.max_ops.is_some_and(|max| ops >= max);
    let mut rounds = 0;
    while started.elapsed().as_secs_f64() < opts.seconds && !enough(rounds) {
        runner.run_op(false);
        if opts.trace {
            runner.run_op(true);
        }
        rounds += 1;
    }

    let (attempted, failed) = runner.attempts();
    let mut correct = failed == 0;
    let (metrics, samples) = if opts.trace {
        let probes = probe::run(&mut runner.rec, &runner.inputs)?;
        for e in &probes.oracle_errors {
            eprintln!("eda-e2e: {}: oracle: {e}", w.name);
        }
        correct &= probes.oracle_errors.is_empty();
        let trace = runner.write_trace()?;
        eprintln!("eda-e2e: {}: trace written to {}", w.name, trace.display());
        let traced = runner.ops.iter().filter(|op| op.traced).count();
        (runner.per_layer(&setup_times, &probes), traced)
    } else {
        runner.end_to_end(&setup_s)
    };
    Ok(RunResult {
        workload: w.name,
        correct,
        attempted,
        failed,
        metrics,
        samples,
        rows: runner.inputs.rows,
    })
}
