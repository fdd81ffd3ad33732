//! # eda-bench
//!
//! The experiment harness: one binary per table/figure of the paper's
//! evaluation (see DESIGN.md §4 for the full index) plus the Criterion
//! ablations under `benches/`.
//!
//! | binary | reproduces |
//! |--------|------------|
//! | `table2` | Table 2: report time, baseline vs DataPrep, 15 datasets; then a fine-grained task vs the baseline report on the user-study shapes (Figure 7's measured input) |
//! | `figure5` | Figure 5: % of fine-grained tasks within 0.5/1/2/5 s |
//! | `figure6a` | Figure 6(a): engine comparison on the bitcoin shape ([`EnginePolicy`]) |
//! | `figure6b` | Figure 6(b): report time vs data size, both tools; then the largest report on 1 → host-core workers (Figure 6(c)'s stand-in) |
//!
//! All binaries accept `--scale <f64>` (default chosen per experiment) to
//! shrink workloads for small machines, and print the machine context
//! next to their results so EXPERIMENTS.md can quote them honestly.

#![warn(missing_docs)]

use std::time::{Duration, Instant};

use eda_core::compute::correlation;
use eda_core::compute::ctx::{un, ComputeContext};
use eda_core::error::EdaResult;
use eda_core::Config;
use eda_dataframe::DataFrame;
use eda_stats::corr::CorrMatrix;
use eda_taskgraph::scheduler::{run, ExecOptions};
use eda_taskgraph::{NodeId, TaskGraph, TaskOutcome};

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
    /// threads: the outcomes in output order, and how many tasks ran.
    pub fn execute(
        self,
        graph: &TaskGraph,
        outputs: &[NodeId],
        workers: usize,
    ) -> (Vec<TaskOutcome>, usize) {
        let shared = |graph: &TaskGraph, outputs: &[NodeId], workers: usize| {
            let r = run(graph, outputs, workers, &ExecOptions::default());
            (r.outcomes, r.stats.tasks_run)
        };
        match self {
            EnginePolicy::LazyParallel => shared(graph, outputs, workers),
            EnginePolicy::SingleThread => shared(graph, outputs, 1),
            EnginePolicy::EagerPerOp => {
                let mut all = (Vec::with_capacity(outputs.len()), 0);
                for out in outputs {
                    let (outcomes, tasks_run) = shared(graph, std::slice::from_ref(out), workers);
                    all.0.extend(outcomes);
                    all.1 += tasks_run;
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
    /// The three correlation matrices of `df` under this tiling, and how
    /// many tasks ran.
    pub fn matrices(self, df: &DataFrame, config: &Config) -> EdaResult<(Vec<CorrMatrix>, usize)> {
        let mut ctx = ComputeContext::new(df, config);
        let names = correlation::numeric_columns(&ctx);
        let nodes = match self {
            CorrTiling::PerWorker => correlation::plan_matrix_nodes(&mut ctx, &names),
            CorrTiling::PerPair => correlation::plan_matrix_tiles(&mut ctx, &names, usize::MAX),
        };
        let outs = ctx.execute_checked(&nodes)?;
        let tasks_run = ctx.last_stats.as_ref().map_or(0, |s| s.tasks_run);
        Ok((outs.iter().map(|p| un::<CorrMatrix>(p).clone()).collect(), tasks_run))
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

/// Time one invocation.
pub fn measure<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed())
}

/// Parse `--scale <f64>` (or `--rows <usize>`-style pairs) from argv.
pub fn arg_f64(name: &str, default: f64) -> f64 {
    let mut args = std::env::args();
    while let Some(a) = args.next() {
        if a == name {
            if let Some(v) = args.next() {
                if let Ok(v) = v.parse() {
                    return v;
                }
            }
        }
    }
    default
}

/// Parse a `--name <value>` string argument.
pub fn arg_str(name: &str) -> Option<String> {
    let mut args = std::env::args();
    while let Some(a) = args.next() {
        if a == name {
            return args.next();
        }
    }
    None
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

/// One-line machine context printed by every experiment.
pub fn machine_context() -> String {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    format!(
        "host_cores: {cores}; paper testbed: 8-core E7-4830, 64 GB — absolute times differ, shapes should hold"
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use eda_taskgraph::{Payload, TaskKey};
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
        for (policy, source_runs) in [(EnginePolicy::LazyParallel, 1), (EnginePolicy::EagerPerOp, 2)] {
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
        assert_eq!(lazy, 3); // src, a, b
        assert_eq!(eager, 4); // (src, a), (src, b)
    }

    #[test]
    fn every_engine_isolates_a_panicking_node() {
        for policy in POLICIES {
            let mut g = TaskGraph::new();
            let bad = g.source("bad", TaskKey::leaf("bad", 0), || -> i64 {
                panic!("kernel bug")
            });
            let good = g.source("good", TaskKey::leaf("good", 0), || 5i64);
            let (outcomes, tasks_run) = policy.execute(&g, &[bad, good], 2);
            assert!(!outcomes[0].is_ok(), "{policy:?}");
            assert_eq!(get(outcomes[1].payload().expect("good ok")), 5, "{policy:?}");
            assert_eq!(tasks_run, 1, "{policy:?}");
        }
    }

    #[test]
    fn an_unshared_context_inserts_duplicates() {
        let df = DataFrame::new(vec![(
            "x".into(),
            eda_dataframe::Column::from_f64((0..100).map(f64::from).collect()),
        )])
        .expect("frame");
        let cfg = Config::default();
        let mut ctx = unshared_context(&df, &cfg);
        let before = ctx.graph.len();
        assert_eq!(before, ctx.sources.len(), "only the fresh sources");
        let again = ctx.pf.source_nodes(&mut ctx.graph);
        assert_eq!(ctx.graph.len(), before + again.len());
        assert_eq!(ctx.graph.cse_hits(), 0);
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
        assert_eq!(arg_f64("--definitely-not-passed", 1.5), 1.5);
        assert_eq!(arg_str("--definitely-not-passed"), None);
    }

    #[test]
    fn machine_context_mentions_cores() {
        assert!(machine_context().contains("core"));
    }
}
