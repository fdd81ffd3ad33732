//! # eda-bench
//!
//! The experiment harness: one binary, `eda-paper`, prints every table of
//! the paper's evaluation that one host can run (see DESIGN.md §4 for the
//! full index), in this order:
//!
//! | section | reproduces |
//! |---------|------------|
//! | Table 2 | report time, baseline vs DataPrep, 15 datasets |
//! | user-study shapes | a fine-grained task vs the baseline report on the BirdStrike and DelayedFlights shapes (Figure 7's measured input) |
//! | Figure 5 | % of fine-grained tasks within 0.5/1/2/5 s |
//! | Figure 6(a) | engine comparison on the bitcoin shape ([`EnginePolicy`]) |
//! | Figure 6(b) | report time vs data size, both tools |
//! | Figure 6(c) stand-in | the largest 6(b) report on 1 → host-core workers |
//! | ablations | CSE on/off ([`unshared_context`]), [`CorrTiling`], the partition count (`ComputeContext::partitioned`) |
//!
//! Every timed call goes through [`time_arms`], which rotates the
//! order of the compared arms, reports medians and refuses a call the
//! result cache served.

#![warn(missing_docs)]

use std::time::{Duration, Instant};

use eda_baseline::BaselineReport;
use eda_core::compute::correlation;
use eda_core::compute::ctx::{un, ComputeContext};
use eda_core::error::EdaResult;
use eda_core::{Analysis, Config, Report};
use eda_dataframe::DataFrame;
use eda_stats::corr::CorrMatrix;
use eda_taskgraph::scheduler::{run, ExecOptions};
use eda_taskgraph::{ExecStats, NodeId, TaskGraph, TaskOutcome};

/// The execution models of the paper's Figure 6(a) that run here. The
/// paper explains its ranking structurally (§5.1): Dask evaluates one
/// shared lazy graph; Modin evaluates eagerly per operation, so nothing
/// is shared across visualizations. Its third model, Koalas/PySpark (a
/// lazy graph paying JVM driver overhead per task), needs a Spark
/// runtime and is not reproduced. Every policy drives the same
/// [`TaskGraph`] through the one executor ([`run`]), so the comparison
/// isolates the scheduling model.
#[derive(Debug, Clone, Copy)]
pub enum EnginePolicy {
    /// One shared lazy graph over the worker threads (the Dask model —
    /// DataPrep.EDA's choice).
    LazyParallel,
    /// One run per requested output, recomputing any shared dependencies
    /// (the Modin model: no cross-visualization optimization).
    EagerPerOp,
    /// One shared lazy graph on the calling thread (the plain-Pandas model).
    SingleThread,
}

impl EnginePolicy {
    /// Execute `outputs` of `graph` under this policy with `workers`
    /// threads: the outcomes in output order, and the run's statistics
    /// (`EagerPerOp` sums `tasks_run` and `cache_hits` over its runs).
    pub fn execute(
        self,
        graph: &TaskGraph,
        outputs: &[NodeId],
        workers: usize,
    ) -> (Vec<TaskOutcome>, ExecStats) {
        let shared = |outputs: &[NodeId], workers: usize| {
            let r = run(graph, outputs, workers, &ExecOptions::default());
            (r.outcomes, r.stats)
        };
        match self {
            EnginePolicy::LazyParallel => shared(outputs, workers),
            EnginePolicy::SingleThread => shared(outputs, 1),
            EnginePolicy::EagerPerOp => {
                let mut all = (Vec::with_capacity(outputs.len()), ExecStats::default());
                for out in outputs {
                    let (outcomes, stats) = shared(std::slice::from_ref(out), workers);
                    all.0.extend(outcomes);
                    all.1.tasks_run += stats.tasks_run;
                    all.1.cache_hits += stats.cache_hits;
                }
                all
            }
        }
    }
}

/// How finely `plot_correlation(df)`'s cells are cut into tasks — the
/// two-phase boundary ablation (paper §5.2). Both policies drive the one
/// planner, [`eda_core::compute::correlation::plan_matrix_tiles`], and
/// produce identical matrices; only the task count differs.
#[derive(Debug, Clone, Copy)]
pub enum CorrTiling {
    /// The engine's own choice: a few tiles per worker.
    PerWorker,
    /// One task per (method, column pair): with `n >> m` every task is
    /// far smaller than its scheduling cost.
    PerPair,
}

impl CorrTiling {
    /// The three correlation matrices of `df` under this tiling, and the
    /// statistics of the run that computed them.
    pub fn matrices(
        self,
        df: &DataFrame,
        config: &Config,
    ) -> EdaResult<(Vec<CorrMatrix>, ExecStats)> {
        let mut ctx = ComputeContext::new(df, config);
        let names = correlation::numeric_columns(&ctx);
        let nodes = match self {
            CorrTiling::PerWorker => correlation::plan_matrix_nodes(&mut ctx, &names),
            CorrTiling::PerPair => correlation::plan_matrix_tiles(&mut ctx, &names, usize::MAX),
        };
        let outs = ctx.execute_checked(&nodes)?;
        let stats = ctx.last_stats.unwrap_or_default();
        Ok((outs.iter().map(|p| un::<CorrMatrix>(p).clone()).collect(), stats))
    }
}

/// A context whose graph never shares a task: every plan inserts its own
/// copy of each subcomputation, as if each visualization had its own
/// graph. The sharing ablation's opponent (paper §5.1); the engine itself
/// always shares.
pub fn unshared_context<'a>(df: &'a DataFrame, config: &'a Config) -> ComputeContext<'a> {
    let mut ctx = ComputeContext::new(df, config);
    ctx.graph = TaskGraph::without_dedup();
    ctx.sources = ctx.pf.source_nodes(&mut ctx.graph);
    ctx
}

/// What [`time_arms`] reads off a timed call's result.
pub trait Executed {
    /// The statistics of the call's graph run; `None` for a call that
    /// runs no graph (the baseline profiler, which keeps no cache).
    fn exec_stats(&self) -> Option<&ExecStats>;
}

impl Executed for Analysis {
    fn exec_stats(&self) -> Option<&ExecStats> {
        self.stats.as_ref()
    }
}

impl Executed for Report {
    fn exec_stats(&self) -> Option<&ExecStats> {
        Some(&self.stats)
    }
}

impl Executed for BaselineReport {
    fn exec_stats(&self) -> Option<&ExecStats> {
        None
    }
}

/// A result paired with its run's statistics ([`EnginePolicy::execute`],
/// [`CorrTiling::matrices`]).
impl<T> Executed for (T, ExecStats) {
    fn exec_stats(&self) -> Option<&ExecStats> {
        Some(&self.1)
    }
}

/// One arm of a timed comparison: a named call, timed on its own.
pub struct Arm<'a> {
    name: String,
    call: Box<dyn FnMut() -> (Duration, Option<ExecStats>) + 'a>,
}

impl<'a> Arm<'a> {
    /// An arm that times `call`; dropping its result is not timed.
    pub fn new<T: Executed>(name: impl Into<String>, mut call: impl FnMut() -> T + 'a) -> Self {
        let call = move || {
            let (out, elapsed) = measure(&mut call);
            (elapsed, out.exec_stats().cloned())
        };
        Arm { name: name.into(), call: Box::new(call) }
    }
}

/// An arm's result over its repetitions.
#[derive(Debug)]
pub struct Timing {
    /// The arm's name.
    pub name: String,
    /// The median wall time of one call.
    pub median: Duration,
    /// The last call's run statistics (`None` for the baseline).
    pub stats: Option<ExecStats>,
}

impl Timing {
    /// Tasks the last call ran (0 for the baseline).
    pub fn tasks_run(&self) -> usize {
        self.stats.as_ref().map_or(0, |s| s.tasks_run)
    }
}

/// Time every arm `reps` times and return each arm's median, in arm
/// order. Repetition `r` runs arm `(r + k) mod n` in position `k`, so
/// over a multiple of `n` repetitions every arm runs in every position
/// equally often. Fails
/// on the first call whose run reports a result-cache hit: its time
/// would be partly a lookup, not the work it stands for.
pub fn time_arms(reps: usize, mut arms: Vec<Arm<'_>>) -> Result<Vec<Timing>, String> {
    let n = arms.len();
    let mut times = vec![Vec::with_capacity(reps); n];
    let mut stats = vec![None; n];
    for rep in 0..reps {
        for k in 0..n {
            let i = (rep + k) % n;
            let (elapsed, run) = (arms[i].call)();
            let hits = run.as_ref().map_or(0, |s| s.cache_hits);
            if hits > 0 {
                return Err(format!(
                    "{}: {hits} task(s) served by the result cache; a timed call must run on a fresh frame or with engine.cache_budget_bytes=0",
                    arms[i].name
                ));
            }
            times[i].push(elapsed);
            stats[i] = run;
        }
    }
    let timings = arms.into_iter().zip(times).zip(stats);
    Ok(timings
        .map(|((arm, t), stats)| Timing { name: arm.name, median: median(t), stats })
        .collect())
}

/// The median of `times` (the mean of the middle two for an even count).
fn median(mut times: Vec<Duration>) -> Duration {
    times.sort_unstable();
    match times.len() {
        0 => Duration::ZERO,
        n if n % 2 == 1 => times[n / 2],
        n => (times[n / 2 - 1] + times[n / 2]) / 2,
    }
}

/// Time one invocation.
fn measure<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed())
}

/// The driver's options: `--scale <f64>` (default 1) and `--commit
/// <label>`.
#[derive(Debug, PartialEq)]
pub struct Args {
    /// Multiplies every section's size; at 1 each runs at its default.
    pub scale: f64,
    /// Names the tree the numbers were taken at, for the header.
    pub commit: Option<String>,
}

impl Args {
    /// Parse the arguments after the program name. Any other option, or
    /// a missing or unparsable value, is an error.
    pub fn parse(args: impl IntoIterator<Item = String>) -> Result<Args, String> {
        let mut out = Args { scale: 1.0, commit: None };
        let mut args = args.into_iter();
        while let Some(name) = args.next() {
            let value = args.next().ok_or_else(|| format!("{name} needs a value"))?;
            match name.as_str() {
                "--scale" => match value.parse::<f64>() {
                    Ok(scale) if scale > 0.0 => out.scale = scale,
                    _ => return Err(format!("--scale {value}: expected a positive number")),
                },
                "--commit" => out.commit = Some(value),
                _ => return Err(format!("unknown option {name} (expected --scale or --commit)")),
            }
        }
        Ok(out)
    }
}

/// Format a duration as seconds with sensible precision.
pub fn fmt_secs(d: Duration) -> String {
    let s = d.as_secs_f64();
    if s >= 100.0 {
        format!("{s:.0}s")
    } else if s >= 1.0 {
        format!("{s:.1}s")
    } else {
        format!("{:.0}ms", s * 1000.0)
    }
}

/// Print an aligned text table.
pub fn print_table(headers: &[&str], rows: &[Vec<String>]) {
    let ncols = headers.len();
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate().take(ncols) {
            widths[i] = widths[i].max(cell.chars().count());
        }
    }
    let line = |cells: &[String]| {
        let mut out = String::new();
        for (i, cell) in cells.iter().enumerate().take(ncols) {
            if i > 0 {
                out.push_str("  ");
            }
            out.push_str(cell);
            out.extend(std::iter::repeat_n(' ', widths[i].saturating_sub(cell.chars().count())));
        }
        println!("{}", out.trim_end());
    };
    line(&headers.iter().map(|h| h.to_string()).collect::<Vec<_>>());
    println!("{}", "-".repeat(widths.iter().sum::<usize>() + 2 * (ncols - 1)));
    for row in rows {
        line(row);
    }
}

/// One-line machine context printed in the driver's header.
pub fn machine_context() -> String {
    let cores = eda_taskgraph::scheduler::cores();
    format!(
        "host_cores: {cores}; paper testbed: 8-core E7-4830, 64 GB — absolute times differ, shapes should hold"
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use eda_taskgraph::{Payload, TaskKey};
    use std::cell::RefCell;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    const POLICIES: [EnginePolicy; 3] =
        [EnginePolicy::LazyParallel, EnginePolicy::EagerPerOp, EnginePolicy::SingleThread];

    fn get(p: &Payload) -> i64 {
        *eda_taskgraph::un::<i64>(p)
    }

    /// A graph with one expensive shared node feeding two outputs, where
    /// the expensive node counts its executions.
    fn shared_graph(counter: Arc<AtomicUsize>) -> (TaskGraph, Vec<NodeId>) {
        let mut g = TaskGraph::new();
        let src = g.source("src", TaskKey::leaf("src", 0), move || {
            counter.fetch_add(1, Ordering::SeqCst);
            7i64
        });
        let o1 = g.op("a", 0, vec![src], |d| get(&d[0]) + 1);
        let o2 = g.op("b", 0, vec![src], |d| get(&d[0]) + 2);
        (g, vec![o1, o2])
    }

    #[test]
    fn all_engines_agree_on_results() {
        for policy in POLICIES {
            let (g, outs) = shared_graph(Arc::default());
            let (outcomes, _) = policy.execute(&g, &outs, 2);
            assert_eq!(get(outcomes[0].payload().expect("a ok")), 8, "{policy:?}");
            assert_eq!(get(outcomes[1].payload().expect("b ok")), 9, "{policy:?}");
        }
    }

    #[test]
    fn lazy_shares_eager_recomputes() {
        for (policy, source_runs) in
            [(EnginePolicy::LazyParallel, 1), (EnginePolicy::EagerPerOp, 2)]
        {
            let counter = Arc::new(AtomicUsize::new(0));
            let (g, outs) = shared_graph(Arc::clone(&counter));
            policy.execute(&g, &outs, 2);
            assert_eq!(counter.load(Ordering::SeqCst), source_runs, "{policy:?}");
        }
    }

    #[test]
    fn eager_runs_more_tasks() {
        let (g, outs) = shared_graph(Arc::default());
        let (_, lazy) = EnginePolicy::LazyParallel.execute(&g, &outs, 1);
        let (g2, outs2) = shared_graph(Arc::default());
        let (_, eager) = EnginePolicy::EagerPerOp.execute(&g2, &outs2, 1);
        assert_eq!(lazy.tasks_run, 3); // src, a, b
        assert_eq!(eager.tasks_run, 4); // (src, a), (src, b)
    }

    #[test]
    fn every_engine_isolates_a_panicking_node() {
        for policy in POLICIES {
            let mut g = TaskGraph::new();
            let bad = g.source("bad", TaskKey::leaf("bad", 0), || -> i64 { panic!("kernel bug") });
            let good = g.source("good", TaskKey::leaf("good", 0), || 5i64);
            let (outcomes, stats) = policy.execute(&g, &[bad, good], 2);
            assert!(!outcomes[0].is_ok(), "{policy:?}");
            assert_eq!(get(outcomes[1].payload().expect("good ok")), 5, "{policy:?}");
            assert_eq!(stats.tasks_run, 1, "{policy:?}");
        }
    }

    fn frame(offset: f64) -> DataFrame {
        DataFrame::new(vec![(
            "x".into(),
            eda_dataframe::Column::from_f64((0..100).map(|i| f64::from(i) + offset).collect()),
        )])
        .expect("frame")
    }

    #[test]
    fn an_unshared_context_inserts_duplicates() {
        let df = frame(0.0);
        let cfg = Config::default();
        let mut ctx = unshared_context(&df, &cfg);
        let before = ctx.graph.len();
        assert_eq!(before, ctx.sources.len(), "only the fresh sources");
        let again = ctx.pf.source_nodes(&mut ctx.graph);
        assert_eq!(ctx.graph.len(), before + again.len());
        assert_eq!(ctx.graph.cse_hits(), 0);
    }

    /// Timing the same frame twice with the result cache on measures a
    /// lookup the second time: the helper refuses it, and accepts the
    /// same calls with the cache off.
    #[test]
    fn a_repeated_frame_timed_with_the_cache_on_is_refused() {
        let df = frame(0.5);
        let on = Config::default();
        let served = time_arms(2, vec![Arm::new("plot(df, x)", || plot(&df, &on))]);
        let served = served.expect_err("the second call is served by the cache");
        assert!(served.starts_with("plot(df, x): "), "{served}");

        let off = Config::from_pairs(vec![("engine.cache_budget_bytes", "0")]).expect("config");
        let timed = time_arms(2, vec![Arm::new("plot(df, x)", || plot(&df, &off))]).expect("cold");
        assert!(timed[0].tasks_run() > 0);
    }

    fn plot(df: &DataFrame, cfg: &Config) -> Analysis {
        eda_core::plot(df, &["x"], cfg).expect("plot")
    }

    #[test]
    fn arms_alternate_and_report_medians() {
        let order = RefCell::new(Vec::new());
        let arm = |name: &'static str| {
            let order = &order;
            Arm::new(name, move || {
                order.borrow_mut().push(name);
                ((), ExecStats { tasks_run: 1, ..Default::default() })
            })
        };
        let timed = time_arms(3, vec![arm("a"), arm("b")]).expect("no cache");
        assert_eq!(*order.borrow(), ["a", "b", "b", "a", "a", "b"]);
        assert_eq!(timed.len(), 2);
        assert_eq!((timed[1].name.as_str(), timed[1].tasks_run()), ("b", 1));

        let ms = Duration::from_millis;
        assert_eq!(median(vec![ms(5), ms(1), ms(3)]), ms(3));
        assert_eq!(median(vec![ms(4), ms(1), ms(2), ms(3)]), Duration::from_micros(2500));
    }

    #[test]
    fn every_arm_runs_in_every_position_equally_often() {
        let order = RefCell::new(Vec::new());
        let arms = (0..5)
            .map(|i| {
                let order = &order;
                Arm::new(format!("{i}"), move || {
                    order.borrow_mut().push(i);
                    ((), ExecStats::default())
                })
            })
            .collect();
        time_arms(10, arms).expect("no cache");
        let mut runs = [[0; 5]; 5];
        for (slot, &arm) in order.borrow().iter().enumerate() {
            runs[arm][slot % 5] += 1;
        }
        assert_eq!(runs, [[2; 5]; 5], "runs[arm][position]");
    }

    #[test]
    fn measure_returns_value_and_time() {
        let (v, d) = measure(|| 2 + 2);
        assert_eq!(v, 4);
        assert!(d >= Duration::ZERO);
    }

    #[test]
    fn fmt_secs_ranges() {
        assert_eq!(fmt_secs(Duration::from_millis(5)), "5ms");
        assert_eq!(fmt_secs(Duration::from_secs_f64(2.34)), "2.3s");
        assert_eq!(fmt_secs(Duration::from_secs(150)), "150s");
    }

    #[test]
    fn args_default_when_absent() {
        let parse = |args: &[&str]| Args::parse(args.iter().map(|a| a.to_string()));
        assert_eq!(parse(&[]), Ok(Args { scale: 1.0, commit: None }));
        assert_eq!(
            parse(&["--commit", "abc", "--scale", "0.01"]),
            Ok(Args { scale: 0.01, commit: Some("abc".into()) })
        );
        assert!(parse(&["--rows", "20000"]).is_err(), "only --scale and --commit");
        assert!(parse(&["--scale"]).is_err());
        assert!(parse(&["--scale", "0"]).is_err());
    }

    #[test]
    fn machine_context_mentions_cores() {
        assert!(machine_context().contains("core"));
    }
}
