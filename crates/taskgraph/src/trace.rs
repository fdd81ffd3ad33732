//! Per-task tracing and run metrics.
//!
//! The paper's performance claim rests on *which* tasks a run executes
//! and how well the pool keeps its workers busy; aggregate
//! [`crate::stats::ExecStats`] counters cannot show either. This module
//! records one [`TaskSpan`] per dispatched task — node, name, worker,
//! start/end offsets from the run origin, outcome, payload-size
//! estimate. Whoever executes a task times it; the executor's calling
//! thread collects the spans in a plain `Vec` (recording takes no
//! lock), turns them into a [`RunTrace`] attached to `ExecStats`, and
//! this module derives everything a perf PR needs to attribute a
//! speedup:
//!
//! * one exporter — Chrome `trace_event` JSON ([`RunTrace::to_chrome_trace`],
//!   loadable in `chrome://tracing` / Perfetto);
//! * derived metrics — critical path, per-worker utilization, queue-wait
//!   histogram, top-K slowest tasks, CSE/prune savings in estimated task
//!   time;
//! * structured logs — a `RUST_LOG`-style `EDA_LOG` env filter gating
//!   compact `key=value` lines from the executor.
//!
//! Tracing is off unless [`crate::scheduler::ExecOptions::trace`] is set:
//! the executor branches around every recording site, so untraced runs
//! pay one predictable-false branch per task and allocate nothing.

use std::collections::HashMap;
use std::fmt::Write as _;
use std::sync::OnceLock;
use std::time::Duration;

use crate::graph::NodeId;
use crate::outcome::{TaskFailure, TaskOutcome};

/// How a span's task ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpanStatus {
    /// The task produced a payload.
    Ok,
    /// The task panicked.
    Failed,
    /// The task finished but blew its deadline.
    TimedOut,
    /// The task never ran (upstream failure); zero-duration span.
    Skipped,
    /// The task's payload came from the cross-call result cache; the
    /// task body never ran. Zero-width span.
    Cached,
    /// The run's cancel token fired before the task dispatched (or while
    /// it ran); zero-width span when short-circuited.
    Cancelled,
    /// The task ran but its output charge was refused by the run's
    /// memory gauge; the payload was dropped.
    BudgetExceeded,
}

impl SpanStatus {
    /// Stable lowercase label used by exporters and logs.
    pub fn label(&self) -> &'static str {
        match self {
            SpanStatus::Ok => "ok",
            SpanStatus::Failed => "failed",
            SpanStatus::TimedOut => "timed_out",
            SpanStatus::Skipped => "skipped",
            SpanStatus::Cached => "cached",
            SpanStatus::Cancelled => "cancelled",
            SpanStatus::BudgetExceeded => "budget_exceeded",
        }
    }

    /// Whether the task actually dispatched (ran on a worker). Skips,
    /// cache hits, and cancellation short-circuits are bookkeeping, not
    /// execution (a budget-exceeded task *did* run — only its output was
    /// refused).
    pub fn executed(&self) -> bool {
        !matches!(self, SpanStatus::Skipped | SpanStatus::Cached | SpanStatus::Cancelled)
    }

    /// Classify a task outcome.
    pub fn of(outcome: &TaskOutcome) -> SpanStatus {
        match outcome {
            TaskOutcome::Ok(_) => SpanStatus::Ok,
            TaskOutcome::Failed(err) => match err.failure {
                TaskFailure::Panicked(_) | TaskFailure::Internal(_) => SpanStatus::Failed,
                TaskFailure::TimedOut { .. } => SpanStatus::TimedOut,
                TaskFailure::Skipped(_) => SpanStatus::Skipped,
                TaskFailure::Cancelled => SpanStatus::Cancelled,
                TaskFailure::BudgetExceeded { .. } => SpanStatus::BudgetExceeded,
            },
        }
    }
}

/// One dispatched task, as seen by the scheduler.
///
/// All times are offsets from the run origin (the instant the scheduler
/// started), so spans from different workers share one clock.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TaskSpan {
    /// Graph node.
    pub node: NodeId,
    /// Task name (op label), e.g. `"histogram:price"`.
    pub name: String,
    /// Worker that ran the task (`0` when the calling thread ran it).
    pub worker: usize,
    /// Offset from run origin at which the task started.
    pub start: Duration,
    /// Offset from run origin at which the task ended.
    pub end: Duration,
    /// Time the task spent ready but waiting for a worker: start minus
    /// the latest dependency completion (or run origin for sources).
    pub queue_wait: Duration,
    /// How the task ended.
    pub status: SpanStatus,
    /// The produced payload's price in bytes ([`crate::graph::Task::price`];
    /// 0 when none).
    pub payload_bytes: usize,
    /// Dependency nodes (for critical-path and queue-wait derivation).
    pub deps: Vec<NodeId>,
}

impl TaskSpan {
    /// Wall-clock duration of the span.
    pub fn duration(&self) -> Duration {
        self.end.saturating_sub(self.start)
    }
}

/// The merged trace of one run: every span plus run-level context.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct RunTrace {
    /// All spans, sorted by node id (which is also topological order).
    pub spans: Vec<TaskSpan>,
    /// Worker count the run was configured with.
    pub workers: usize,
    /// Wall-clock time of the whole run.
    pub elapsed: Duration,
}

/// The critical path through a run: the dependency chain whose span
/// durations sum highest.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct CriticalPath {
    /// Summed task time along the path.
    pub total: Duration,
    /// Task names along the path, dependencies first.
    pub tasks: Vec<String>,
}

/// Upper edges (exclusive) of the queue-wait histogram buckets; the last
/// bucket is unbounded. Log-scaled: waits span micro- to milliseconds.
pub const QUEUE_WAIT_EDGES: [(Duration, &str); 6] = [
    (Duration::from_micros(10), "<10µs"),
    (Duration::from_micros(100), "<100µs"),
    (Duration::from_millis(1), "<1ms"),
    (Duration::from_millis(10), "<10ms"),
    (Duration::from_millis(100), "<100ms"),
    (Duration::MAX, "≥100ms"),
];

impl RunTrace {
    /// Build a run's trace from its spans (in any order), deriving each
    /// span's queue wait from its dependencies' completion times.
    pub fn from_spans(mut spans: Vec<TaskSpan>, workers: usize, elapsed: Duration) -> RunTrace {
        spans.sort_by_key(|s| s.node);
        let ends: HashMap<NodeId, Duration> =
            spans.iter().map(|s| (s.node, s.end)).collect();
        for span in &mut spans {
            let ready = span
                .deps
                .iter()
                .filter_map(|d| ends.get(d).copied())
                .max()
                .unwrap_or(Duration::ZERO);
            span.queue_wait = span.start.saturating_sub(ready);
        }
        RunTrace { spans, workers, elapsed }
    }

    /// Spans that actually dispatched (everything but skips).
    pub fn executed(&self) -> impl Iterator<Item = &TaskSpan> {
        self.spans.iter().filter(|s| s.status.executed())
    }

    /// The span of the named task, if present (first match).
    pub fn span_named(&self, name: &str) -> Option<&TaskSpan> {
        self.spans.iter().find(|s| s.name == name)
    }

    /// The `k` slowest executed tasks, longest first.
    pub fn top_k(&self, k: usize) -> Vec<&TaskSpan> {
        let mut spans: Vec<&TaskSpan> = self.executed().collect();
        spans.sort_by_key(|s| std::cmp::Reverse(s.duration()));
        spans.truncate(k);
        spans
    }

    /// Busy fraction per worker id (`busy task time / run elapsed`),
    /// indexed `0..workers`.
    pub fn worker_utilization(&self) -> Vec<f64> {
        let mut busy = vec![Duration::ZERO; self.workers.max(1)];
        for span in self.executed() {
            if let Some(b) = busy.get_mut(span.worker) {
                *b += span.duration();
            }
        }
        let total = self.elapsed.as_secs_f64().max(f64::MIN_POSITIVE);
        busy.iter().map(|b| (b.as_secs_f64() / total).min(1.0)).collect()
    }

    /// Queue-wait histogram over the fixed log-scaled
    /// [`QUEUE_WAIT_EDGES`] buckets: `(label, count)` per bucket.
    pub fn queue_wait_histogram(&self) -> Vec<(&'static str, usize)> {
        let mut counts = vec![0usize; QUEUE_WAIT_EDGES.len()];
        for span in self.executed() {
            let bucket = QUEUE_WAIT_EDGES
                .iter()
                .position(|(edge, _)| span.queue_wait < *edge)
                .unwrap_or(QUEUE_WAIT_EDGES.len() - 1);
            if let Some(count) = counts.get_mut(bucket) {
                *count += 1;
            }
        }
        QUEUE_WAIT_EDGES.iter().map(|(_, l)| *l).zip(counts).collect()
    }

    /// The critical path: longest dependency chain by summed span
    /// duration. Node ids ascend in dependency order, so one forward
    /// pass suffices.
    pub fn critical_path(&self) -> CriticalPath {
        let mut best: HashMap<NodeId, (Duration, NodeId)> = HashMap::new();
        let mut tail: Option<NodeId> = None;
        let mut tail_total = Duration::ZERO;
        for span in &self.spans {
            let (dep_total, dep) = span
                .deps
                .iter()
                .filter_map(|d| best.get(d).map(|&(t, _)| (t, *d)))
                .max_by_key(|&(t, _)| t)
                .unwrap_or((Duration::ZERO, span.node));
            let total = dep_total + span.duration();
            best.insert(span.node, (total, dep));
            if total >= tail_total {
                tail_total = total;
                tail = Some(span.node);
            }
        }
        let names: HashMap<NodeId, &str> =
            self.spans.iter().map(|s| (s.node, s.name.as_str())).collect();
        let mut tasks = Vec::new();
        let mut cursor = tail;
        while let Some(node) = cursor {
            tasks.push(names.get(&node).copied().unwrap_or("?").to_string());
            cursor = best.get(&node).map(|&(_, dep)| dep).filter(|&dep| dep != node);
        }
        tasks.reverse();
        CriticalPath { total: tail_total, tasks }
    }

    /// Mean duration of executed spans (zero when none ran).
    pub fn mean_task_time(&self) -> Duration {
        let (mut sum, mut n) = (Duration::ZERO, 0u32);
        for span in self.executed() {
            sum += span.duration();
            n += 1;
        }
        if n == 0 {
            Duration::ZERO
        } else {
            sum / n
        }
    }

    /// Estimated task time the optimizer saved, in wall-task-seconds:
    /// `avoided_tasks × mean task time`. This turns the node-count
    /// `cse_hits` / pruned counters into the paper's actual currency —
    /// computation time not spent.
    pub fn estimated_savings(&self, avoided_tasks: usize) -> Duration {
        let mean = self.mean_task_time();
        mean.checked_mul(avoided_tasks as u32).unwrap_or(Duration::MAX)
    }

    /// Export as Chrome `trace_event` JSON (the object form with a
    /// `traceEvents` array), loadable in `chrome://tracing` or Perfetto.
    ///
    /// Executed spans become complete (`"ph":"X"`) events — one per task
    /// that ran, failed, or timed out — with worker as the thread id.
    /// Cache hits also export as `"ph":"X"` events, but zero-width and
    /// tagged `"status":"cached"`, so the viewer shows what the cache
    /// short-circuited. Skipped and cancelled tasks become instant
    /// (`"ph":"i"`) events tagged with their status, so the viewer still
    /// shows where the graph was cut (or where a cancellation drained
    /// it).
    pub fn to_chrome_trace(&self) -> String {
        let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
        let mut first = true;
        for span in &self.spans {
            if !first {
                out.push(',');
            }
            first = false;
            let name = json_escape(&span.name);
            let ts = span.start.as_micros();
            if span.status.executed() || span.status == SpanStatus::Cached {
                let _ = write!(
                    out,
                    "{{\"name\":\"{name}\",\"cat\":\"task\",\"ph\":\"X\",\"ts\":{ts},\
                     \"dur\":{dur},\"pid\":1,\"tid\":{tid},\"args\":{{\"node\":{node},\
                     \"status\":\"{status}\",\"queue_wait_us\":{qw},\"payload_bytes\":{pb}}}}}",
                    dur = span.duration().as_micros(),
                    tid = span.worker,
                    node = span.node,
                    status = span.status.label(),
                    qw = span.queue_wait.as_micros(),
                    pb = span.payload_bytes,
                );
            } else {
                let _ = write!(
                    out,
                    "{{\"name\":\"{name}\",\"cat\":\"task\",\"ph\":\"i\",\"ts\":{ts},\
                     \"s\":\"t\",\"pid\":1,\"tid\":{tid},\"args\":{{\"node\":{node},\
                     \"status\":\"{status}\"}}}}",
                    tid = span.worker,
                    node = span.node,
                    status = span.status.label(),
                );
            }
        }
        out.push_str("]}");
        out
    }
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

// ---------------------------------------------------------------------------
// Structured logging with a RUST_LOG-style env filter.
// ---------------------------------------------------------------------------

/// Allocate a process-unique run id. The executor stamps one on every
/// structured log line (`run_id=<n>`) so the interleaved stderr of
/// concurrent runs can be correlated back into per-run streams.
pub fn next_run_id() -> u64 {
    static NEXT: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
    NEXT.fetch_add(1, std::sync::atomic::Ordering::Relaxed) + 1
}

/// Log verbosity, ordered. Controlled by the `EDA_LOG` environment
/// variable (`error`..`trace`, or `target=level` items separated by
/// commas, of which the level parts apply); unset or `off` disables.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum LogLevel {
    /// Logging disabled.
    Off = 0,
    /// Failures only.
    Error = 1,
    /// Suspicious but recoverable conditions.
    Warn = 2,
    /// One line per run.
    Info = 3,
    /// One line per task.
    Debug = 4,
    /// Everything.
    Trace = 5,
}

impl LogLevel {
    fn parse(s: &str) -> Option<LogLevel> {
        match s.trim().to_ascii_lowercase().as_str() {
            "off" => Some(LogLevel::Off),
            "error" => Some(LogLevel::Error),
            "warn" => Some(LogLevel::Warn),
            "info" => Some(LogLevel::Info),
            "debug" => Some(LogLevel::Debug),
            "trace" => Some(LogLevel::Trace),
            _ => None,
        }
    }

    fn label(&self) -> &'static str {
        match self {
            LogLevel::Off => "off",
            LogLevel::Error => "error",
            LogLevel::Warn => "warn",
            LogLevel::Info => "info",
            LogLevel::Debug => "debug",
            LogLevel::Trace => "trace",
        }
    }
}

fn max_level() -> LogLevel {
    static LEVEL: OnceLock<LogLevel> = OnceLock::new();
    *LEVEL.get_or_init(|| {
        let Ok(spec) = std::env::var("EDA_LOG") else { return LogLevel::Off };
        // RUST_LOG-style: comma-separated `level` or `target=level`
        // items; the most verbose level wins (targets all live in this
        // workspace, so per-target filtering adds nothing here).
        spec.split(',')
            .filter_map(|item| {
                let level = item.rsplit('=').next().unwrap_or(item);
                LogLevel::parse(level)
            })
            .max()
            .unwrap_or(LogLevel::Off)
    })
}

/// Whether a message at `level` would be emitted. Callers use this to
/// skip formatting entirely on the hot path.
pub fn log_enabled(level: LogLevel) -> bool {
    level <= max_level() && level != LogLevel::Off
}

/// Emit one compact structured line to stderr:
/// `eda level=<level> target=<target> <message>`, where `message` is
/// `key=value` pairs by convention.
pub fn log(level: LogLevel, target: &str, message: std::fmt::Arguments<'_>) {
    if log_enabled(level) {
        eprintln!("eda level={} target={} {}", level.label(), target, message);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Instant;

    fn span(node: NodeId, name: &str, worker: usize, start_us: u64, end_us: u64, deps: Vec<NodeId>) -> TaskSpan {
        TaskSpan {
            node,
            name: name.into(),
            worker,
            start: Duration::from_micros(start_us),
            end: Duration::from_micros(end_us),
            queue_wait: Duration::ZERO,
            status: SpanStatus::Ok,
            payload_bytes: 0,
            deps,
        }
    }

    fn diamond_trace() -> RunTrace {
        // a(0..100) -> b(110..300 on w0), c(120..200 on w1) -> d(310..400)
        RunTrace::from_spans(
            vec![
                span(0, "a", 0, 0, 100, vec![]),
                span(1, "b", 0, 110, 300, vec![0]),
                span(2, "c", 1, 120, 200, vec![0]),
                span(3, "d", 1, 310, 400, vec![1, 2]),
            ],
            2,
            Duration::from_micros(400),
        )
    }

    #[test]
    fn queue_wait_derived_from_dep_ends() {
        let t = diamond_trace();
        let by_name = |n: &str| t.span_named(n).unwrap();
        assert_eq!(by_name("a").queue_wait, Duration::ZERO);
        assert_eq!(by_name("b").queue_wait, Duration::from_micros(10));
        assert_eq!(by_name("c").queue_wait, Duration::from_micros(20));
        assert_eq!(by_name("d").queue_wait, Duration::from_micros(10)); // after b at 300
    }

    #[test]
    fn critical_path_follows_slow_branch() {
        let t = diamond_trace();
        let cp = t.critical_path();
        assert_eq!(cp.tasks, vec!["a", "b", "d"]);
        // 100 + 190 + 90
        assert_eq!(cp.total, Duration::from_micros(380));
    }

    #[test]
    fn top_k_is_sorted_desc() {
        let t = diamond_trace();
        let top = t.top_k(2);
        assert_eq!(top[0].name, "b"); // 190us
        assert_eq!(top[1].name, "a"); // 100us
    }

    #[test]
    fn utilization_per_worker() {
        let t = diamond_trace();
        let u = t.worker_utilization();
        assert_eq!(u.len(), 2);
        // w0 busy 100+190 of 400; w1 busy 80+90 of 400.
        assert!((u[0] - 290.0 / 400.0).abs() < 1e-9, "{u:?}");
        assert!((u[1] - 170.0 / 400.0).abs() < 1e-9, "{u:?}");
    }

    #[test]
    fn queue_wait_histogram_buckets() {
        let t = diamond_trace();
        let hist = t.queue_wait_histogram();
        assert_eq!(hist.len(), QUEUE_WAIT_EDGES.len());
        assert_eq!(hist.iter().map(|(_, c)| c).sum::<usize>(), 4);
        // All waits are 0-20us: first two buckets.
        assert_eq!(hist[0].1 + hist[1].1, 4);
    }

    #[test]
    fn chrome_trace_shape() {
        let t = diamond_trace();
        let json = t.to_chrome_trace();
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"traceEvents\":["));
        assert_eq!(json.matches("\"ph\":\"X\"").count(), 4);
        assert_eq!(json.matches("\"ph\":\"i\"").count(), 0);
        // Balanced braces (hand-rolled JSON sanity).
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }

    #[test]
    fn skipped_spans_export_as_instants() {
        let mut t = diamond_trace();
        t.spans[3].status = SpanStatus::Skipped;
        let json = t.to_chrome_trace();
        assert_eq!(json.matches("\"ph\":\"X\"").count(), 3);
        assert_eq!(json.matches("\"ph\":\"i\"").count(), 1);
    }

    #[test]
    fn cached_spans_export_as_zero_width_complete_events() {
        let mut t = diamond_trace();
        t.spans[1].status = SpanStatus::Cached;
        t.spans[1].end = t.spans[1].start; // hits are zero-width
        let json = t.to_chrome_trace();
        // Still a complete event (timeline-visible), tagged cached, dur 0.
        assert_eq!(json.matches("\"ph\":\"X\"").count(), 4);
        assert!(json.contains("\"status\":\"cached\""));
        assert!(json.contains("\"dur\":0"));
        // Cache hits are not "executed": they add no worker busy time.
        assert!(!SpanStatus::Cached.executed());
        assert_eq!(SpanStatus::Cached.label(), "cached");
    }

    #[test]
    fn cancelled_spans_export_as_tagged_instants() {
        let mut t = diamond_trace();
        t.spans[2].status = SpanStatus::Cancelled;
        t.spans[2].end = t.spans[2].start;
        let json = t.to_chrome_trace();
        assert_eq!(json.matches("\"ph\":\"i\"").count(), 1);
        assert!(json.contains("\"status\":\"cancelled\""), "{json}");
        assert!(!SpanStatus::Cancelled.executed());
    }

    #[test]
    fn budget_exceeded_spans_export_as_complete_events() {
        let mut t = diamond_trace();
        t.spans[1].status = SpanStatus::BudgetExceeded;
        let json = t.to_chrome_trace();
        // It ran on a worker: a timeline-visible complete event.
        assert_eq!(json.matches("\"ph\":\"X\"").count(), 4);
        assert!(json.contains("\"status\":\"budget_exceeded\""), "{json}");
        assert!(SpanStatus::BudgetExceeded.executed());
    }

    #[test]
    fn run_ids_are_unique_and_nonzero() {
        let a = next_run_id();
        let b = next_run_id();
        assert!(a > 0);
        assert_ne!(a, b);
    }

    #[test]
    fn savings_scale_with_mean_task_time() {
        let t = diamond_trace();
        // mean = (100+190+80+90)/4 = 115us
        assert_eq!(t.mean_task_time(), Duration::from_micros(115));
        assert_eq!(t.estimated_savings(3), Duration::from_micros(345));
    }

    #[test]
    fn json_escaping() {
        assert_eq!(json_escape("a\"b\\c"), "a\\\"b\\\\c");
        assert_eq!(json_escape("x\ny"), "x\\ny");
    }

    #[test]
    fn log_levels_ordered_and_parse() {
        assert!(LogLevel::Error < LogLevel::Debug);
        assert_eq!(LogLevel::parse("DEBUG"), Some(LogLevel::Debug));
        assert_eq!(LogLevel::parse("nope"), None);
    }

    /// The collector-side clock helper: offsets are measured from one
    /// origin Instant.
    #[test]
    fn spans_nest_within_elapsed_by_construction() {
        let origin = Instant::now();
        std::thread::sleep(Duration::from_millis(1));
        let start = origin.elapsed();
        let end = origin.elapsed();
        assert!(start <= end);
    }
}
