//! The per-call compute context.
//!
//! A [`ComputeContext`] owns the lazy graph for one (or several) EDA calls
//! over one dataframe: the precomputed partition layout, the graph under
//! construction, and the engine settings. `create_report` reuses a single
//! context across every section, so the whole report is *one* optimized
//! graph — the paper's headline optimization.
//!
//! Every call ends in one *section node* ([`ComputeContext::section`]):
//! the finish that turns its statistics into a [`Section`] is a task like
//! any other, so it is cached, traced and shared.
//!
//! A planned task's identity is formed here and nowhere else: its key is
//! its name, the config hash and its inputs' keys ([`ComputeContext::op`],
//! [`ComputeContext::map_reduce`], [`ComputeContext::gather`]). A kernel
//! reads its settings from [`ComputeContext::config`], so what the config
//! holds is in the key once, and the name carries only what neither the
//! config nor the inputs say. A kernel reads rows only as the frames these
//! hand it, never from a partition source.

use std::cell::OnceCell;
use std::sync::Arc;

use eda_dataframe::{DataFrame, HeapSize};
use eda_taskgraph::graph::Payload;
use eda_taskgraph::outcome::{root_failure, TaskOutcome};
use eda_taskgraph::scheduler::{self, ExecOptions};
use eda_taskgraph::govern::{self, CancelToken};
use eda_taskgraph::ops;
use eda_taskgraph::partition::payload_frame;
use eda_taskgraph::{CacheHandle, ExecStats, NodeId, PartitionedFrame, ResultCache, TaskGraph};

use crate::config::Config;
use crate::dtype::{detect, SemanticType};
use crate::error::{EdaError, EdaResult};
use crate::insights::Insight;
use crate::intermediate::Intermediates;

/// A section's content — the payload of its section node: the charts and
/// stats a call or a report section shows, and its insights.
pub type Section = (Intermediates, Vec<Insight>);

/// The process-wide result cache shared by every EDA call. Entries are
/// keyed by `(frame fingerprint, task key)`, so a second `plot` or
/// `create_report` over the same frame reuses the first call's
/// intermediates. Changing `engine.cache_budget_bytes` replaces the cache
/// with a fresh one of the new budget.
fn session_cache(budget: usize) -> Arc<ResultCache> {
    static CACHE: std::sync::Mutex<Option<(usize, Arc<ResultCache>)>> =
        std::sync::Mutex::new(None);
    // Recover a poisoned registry lock: the map is a (budget, cache)
    // pair that is valid at every store, so a thread that panicked while
    // holding the lock cannot have left it torn. Degrading to the
    // existing cache beats cascading the panic into every later call.
    let mut guard = CACHE.lock().unwrap_or_else(|poisoned| poisoned.into_inner());
    match &*guard {
        Some((b, cache)) if *b == budget => Arc::clone(cache),
        _ => {
            let cache = Arc::new(ResultCache::new(budget));
            *guard = Some((budget, Arc::clone(&cache)));
            cache
        }
    }
}

/// Graph-building and execution state for one dataframe.
pub struct ComputeContext<'a> {
    /// The source frame.
    pub df: &'a DataFrame,
    /// Resolved configuration: one copy per context, which every section
    /// node's finish shares.
    pub config: Arc<Config>,
    /// Partitioned view (precompute stage already done).
    pub pf: PartitionedFrame,
    /// The lazy graph under construction.
    pub graph: TaskGraph,
    /// Partition source nodes.
    pub sources: Vec<NodeId>,
    /// Stats of the last `execute_outcomes` run.
    pub last_stats: Option<ExecStats>,
    /// Result cache override; `None` uses the process-wide session cache.
    /// Tests inject a private cache here for deterministic warm/cold runs.
    pub cache_override: Option<Arc<ResultCache>>,
    /// Run-wide cancel token: present when `engine.run_deadline_ms` is
    /// set. Shared by every `execute_outcomes` call of this context, so
    /// the whole report run stops together.
    pub cancel: Option<CancelToken>,
    /// Each column's semantic type, detected on first use
    /// ([`ComputeContext::semantic`]).
    semantics: Vec<OnceCell<SemanticType>>,
    /// `config.compute_hash()`, taken once: the parameter slot of every
    /// planned task's key ([`ComputeContext::op`]).
    config_hash: u64,
}

/// Rows per partition: a frame is cut into `rows / ROWS_PER_PARTITION`
/// partitions, at least one and at most [`MAX_PARTITIONS`]. The count
/// follows the frame alone, never the host or `engine.workers`: where a
/// partition ends decides the order partials merge in, so a count that
/// followed the cores printed another skewness on 4 cores than on 2.
/// And "Dask is slow on tiny data" (§5.2): a small frame stays whole.
pub const ROWS_PER_PARTITION: usize = 8192;

/// The most partitions a frame is cut into. Two: the digest-pinned tests
/// (`tests/render_pages.rs`, `tests/strings_as_codes.rs`) always ran at
/// two, and one moves the skewness they print at 17,000 rows; on two
/// cores the 300,000-row overview costs the same at two as at four, in
/// under half the tasks (EXPERIMENTS.md, "Partition count from the
/// rows"); a wider host still runs columns and kernels side by side.
pub const MAX_PARTITIONS: usize = 2;

impl<'a> ComputeContext<'a> {
    /// Precompute the partition layout ([`ROWS_PER_PARTITION`]) and set
    /// up an empty graph.
    pub fn new(df: &'a DataFrame, config: &Config) -> Self {
        Self::partitioned(df, config, (df.nrows() / ROWS_PER_PARTITION).clamp(1, MAX_PARTITIONS))
    }

    /// [`Self::new`] with the frame cut into `n` partitions whatever its
    /// size (fewer only when its rows run out first): for tests of the
    /// cut, and the partition ablation.
    pub fn partitioned(df: &'a DataFrame, config: &Config, n: usize) -> Self {
        // Hook the stats kernels, which do not know the scheduler, up to its
        // cooperative-cancellation probe, once per process. With no
        // governed run active the probe reads a thread-local `None` and
        // answers false, so ungoverned runs are unaffected.
        static HOOK: std::sync::Once = std::sync::Once::new();
        HOOK.call_once(|| eda_stats::interrupt::register(govern::interrupted));
        // Stage 1 of Figure 4: precompute chunk-size information.
        let pf = PartitionedFrame::from_frame(df, n);
        let mut graph = TaskGraph::new();
        // Stage 2 begins: partition sources enter the graph.
        let sources = pf.source_nodes(&mut graph);
        // The run token is the whole-run deadline, anchored here: context
        // creation is the start of the run.
        let cancel = match config.engine.run_deadline_ms {
            0 => None,
            ms => Some(CancelToken::with_deadline(std::time::Duration::from_millis(ms))),
        };
        ComputeContext {
            df,
            config: Arc::new(config.clone()),
            pf,
            graph,
            sources,
            last_stats: None,
            cache_override: None,
            cancel,
            semantics: vec![OnceCell::new(); df.ncols()],
            config_hash: config.compute_hash(),
        }
    }

    /// The semantic type of `column`, detected once per context: every
    /// later ask — the report's overview, its variable section and its
    /// correlation columns alike — reads the first answer.
    pub fn semantic(&self, column: &str) -> EdaResult<SemanticType> {
        let index = self.df.index_of(column)?;
        let col = self.df.column_at(index)?;
        let low_cardinality = self.config.types.low_cardinality;
        Ok(*self.semantics[index].get_or_init(|| detect(col, low_cardinality)))
    }

    /// Use a private result cache instead of the process-wide one.
    pub fn with_cache(mut self, cache: Arc<ResultCache>) -> Self {
        self.cache_override = Some(cache);
        self
    }

    /// Cache handle for this frame, or `None` when caching is disabled
    /// (`engine.cache_budget_bytes = 0`). The fingerprint is the frame's
    /// identity hash — already computed as the partition dataset id.
    fn cache_handle(&self) -> Option<CacheHandle> {
        match self.config.engine.cache_budget_bytes {
            0 => None,
            budget => {
                let cache = self
                    .cache_override
                    .as_ref().map_or_else(|| session_cache(budget), Arc::clone);
                Some(CacheHandle::new(cache, self.pf.dataset_id))
            }
        }
    }

    /// Whether the result cache holds every one of `nodes` for this frame,
    /// so executing them dispatches no task. Asking counts no hit or miss
    /// ([`ResultCache::contains`]); false when caching is off.
    pub fn cached(&self, nodes: &[NodeId]) -> bool {
        self.cache_handle().is_some_and(|handle| {
            nodes.iter().all(|&n| handle.cache.contains(handle.fingerprint, self.graph.task(n).key))
        })
    }

    /// Plan one task named `name`: `f` turns the payloads of `deps`, in
    /// order, into its result. Its key is the name, the config hash and
    /// the keys of `deps` (`TaskKey::derived`), so two plans of the same
    /// statistic share one node and a differently configured plan never
    /// does.
    pub fn op<T, F>(&mut self, name: &str, deps: Vec<NodeId>, f: F) -> NodeId
    where
        T: HeapSize + Send + Sync + 'static,
        F: Fn(&[Payload]) -> T + Send + Sync + 'static,
    {
        self.graph.op(name, self.config_hash, deps, f)
    }

    /// Plan a partition kernel named `name`: `map` over every partition
    /// (with the payloads of `extra`), the partials tree-reduced by
    /// `merge` in tasks named `<name>/reduce`. Keyed as [`Self::op`].
    pub fn map_reduce<T, M, C>(&mut self, name: &str, extra: &[NodeId], map: M, merge: C) -> NodeId
    where
        T: HeapSize + Clone + Send + Sync + 'static,
        M: Fn(&DataFrame, &[Payload]) -> T + Send + Sync + 'static,
        C: Fn(&mut T, &T) + Send + Sync + 'static,
    {
        ops::map_reduce(&mut self.graph, name, self.config_hash, &self.sources, extra, map, merge)
    }

    /// Plan a gather named `name`: one task that `f`s the partitions'
    /// frames, in row order, and the payloads of `extra` — no partial, no
    /// reduce. Keyed as [`Self::op`].
    pub fn gather<T, F>(&mut self, name: &str, extra: &[NodeId], f: F) -> NodeId
    where
        T: HeapSize + Send + Sync + 'static,
        F: Fn(&[&DataFrame], &[Payload]) -> T + Send + Sync + 'static,
    {
        let parts = self.sources.len();
        let deps = self.sources.iter().chain(extra).copied().collect();
        self.op(name, deps, move |inputs| {
            let (frames, extra) = inputs.split_at(parts);
            f(&frames.iter().map(payload_frame).collect::<Vec<_>>(), extra)
        })
    }

    /// Plan a section node named `name`: `finish` turns the payloads of
    /// `deps`, in order, into the [`Section`]. Keyed as [`Self::op`] with
    /// every `insight.*` threshold mixed in, so a cached section never
    /// serves insights found under other thresholds.
    pub fn section(
        &mut self,
        name: &str,
        deps: Vec<NodeId>,
        finish: impl Fn(&[Payload]) -> Section + Send + Sync + 'static,
    ) -> NodeId {
        let params = self.config_hash ^ self.config.thresholds_hash().rotate_left(17);
        self.graph.op(name, params, deps, finish)
    }

    /// The per-task deadline from `engine.task_deadline_ms` (0 = off).
    fn deadline(&self) -> Option<std::time::Duration> {
        match self.config.engine.task_deadline_ms {
            0 => None,
            ms => Some(std::time::Duration::from_millis(ms)),
        }
    }

    /// Execute the graph for `outputs` with the configured workers
    /// (stage 3 of Figure 4) and record stats. Returns one outcome per
    /// output; failed tasks don't poison the rest of the graph.
    pub fn execute_outcomes(&mut self, outputs: &[NodeId]) -> Vec<TaskOutcome> {
        let opts = ExecOptions {
            deadline: self.deadline(),
            trace: self.config.engine.profile,
            cache: self.cache_handle(),
            cancel: self.cancel,
        };
        // workers <= 1 (and the first milliseconds of any run) executes
        // on this thread: nothing to spin up, and fault-tolerance
        // behaviour stays identical.
        let result = scheduler::run(&self.graph, outputs, self.config.engine.workers, &opts);
        self.last_stats = Some(result.stats);
        result.outcomes
    }

    /// Execute one section node and clone its [`Section`] out; a failure
    /// surfaces as in [`Self::execute_checked`].
    pub fn run_section(&mut self, node: NodeId) -> EdaResult<Section> {
        let outs = self.execute_checked(&[node])?;
        Ok(un::<Section>(&outs[0]).clone())
    }

    /// Execute and surface the [`root_failure`] as [`EdaError::Task`]
    /// instead of panicking — the recoverable path for `plot*` calls.
    pub fn execute_checked(&mut self, outputs: &[NodeId]) -> EdaResult<Vec<Payload>> {
        let outcomes = self.execute_outcomes(outputs);
        if let Some(err) = root_failure(&outcomes) {
            return Err(EdaError::Task(Arc::clone(err)));
        }
        Ok(outcomes.into_iter().map(TaskOutcome::unwrap).collect())
    }
}

/// Borrow a typed value out of a payload (`eda_taskgraph::un`).
pub use eda_taskgraph::un;

#[cfg(test)]
mod tests {
    use super::*;
    use eda_dataframe::Column;

    fn frame() -> DataFrame {
        DataFrame::new(vec![(
            "x".into(),
            Column::from_f64((0..100).map(|i| i as f64).collect()),
        )])
        .unwrap()
    }

    #[test]
    fn the_partition_count_follows_the_rows_alone() {
        let expected = [(0, 1), (8_191, 1), (16_384, 2), (24_576, 2), (1_000_000, 2)];
        let frames: Vec<(DataFrame, usize)> = expected
            .iter()
            .map(|&(rows, parts)| {
                let x = Column::from_f64(vec![0.5; rows]);
                (DataFrame::new(vec![("x".into(), x)]).unwrap(), parts)
            })
            .collect();
        for workers in ["1", "2", "64"] {
            let cfg = Config::from_pairs(vec![("engine.workers", workers)]).unwrap();
            for (df, parts) in &frames {
                let ctx = ComputeContext::new(df, &cfg);
                let what = format!("{} rows, {workers} workers", df.nrows());
                assert_eq!(ctx.pf.npartitions(), *parts, "{what}");
                assert_eq!(ctx.sources.len(), *parts, "{what}");
            }
        }
    }

    #[test]
    fn context_precomputes_partitions() {
        let df = frame();
        let cfg = Config::default();
        let ctx = ComputeContext::new(&df, &cfg);
        assert_eq!(ctx.pf.nrows(), 100);
        assert_eq!(ctx.sources.len(), ctx.pf.npartitions());
        assert!(!ctx.graph.is_empty());
    }

    /// What a `corr_prep` payload is priced at: the prep and its heap.
    fn prep_price(payload: &Payload) -> usize {
        use eda_dataframe::HeapSize;
        use eda_stats::corr::ColumnPrep;
        std::mem::size_of::<ColumnPrep>() + un::<ColumnPrep>(payload).heap_bytes()
    }

    #[test]
    fn the_sizer_prices_cache_entries_with_the_gauge_off() {
        let df = frame();
        let cfg = Config::default();
        let cache = Arc::new(ResultCache::new(1 << 20));
        let mut ctx = ComputeContext::new(&df, &cfg).with_cache(Arc::clone(&cache));
        let (_, prep) = crate::compute::kernels::plan_corr_prep(&mut ctx, "x");
        let payload = ctx.execute_checked(&[prep]).unwrap().remove(0);
        let key = ctx.graph.task(prep).key;
        let (_, charged) = cache.get(ctx.pf.dataset_id, key).expect("corr_prep is cached");
        assert_eq!(charged, prep_price(&payload));
    }

    #[test]
    fn a_profiled_span_shows_the_sizer_price_with_the_cache_off() {
        let df = frame();
        let cfg =
            Config::from_pairs(vec![("engine.profile", "true"), ("engine.cache_budget_bytes", "0")])
                .unwrap();
        let mut ctx = ComputeContext::new(&df, &cfg);
        let (_, prep) = crate::compute::kernels::plan_corr_prep(&mut ctx, "x");
        let payload = ctx.execute_checked(&[prep]).unwrap().remove(0);
        let trace =
            ctx.last_stats.as_ref().and_then(|s| s.trace.clone()).expect("profiled run is traced");
        let span = trace.spans.iter().find(|s| s.node == prep).expect("corr_prep span");
        assert_eq!(span.payload_bytes, prep_price(&payload));
    }

    #[test]
    fn execute_records_stats() {
        let df = frame();
        let cfg = Config::default();
        let mut ctx = ComputeContext::new(&df, &cfg);
        let outs: Vec<NodeId> = ctx.sources.clone();
        let payloads = ctx.execute_checked(&outs).unwrap();
        assert_eq!(payloads.len(), outs.len());
        assert!(ctx.last_stats.as_ref().unwrap().tasks_run >= outs.len());
    }

    #[test]
    fn execute_checked_surfaces_task_failures_as_errors() {
        let df = frame();
        let cfg = Config::default();
        let mut ctx = ComputeContext::new(&df, &cfg);
        let bad = ctx.graph.op("explode", 0, vec![ctx.sources[0]], |_| -> i64 {
            panic!("kernel bug")
        });
        let good = ctx.sources[0];
        let err = ctx.execute_checked(&[bad]).unwrap_err();
        assert!(
            matches!(&err, crate::error::EdaError::Task(e) if e.name == "explode"),
            "{err}"
        );
        // The same context still executes healthy outputs.
        assert!(ctx.execute_checked(&[good]).is_ok());
    }

    #[test]
    fn execute_outcomes_isolates_failures_per_output() {
        let df = frame();
        let cfg = Config::default();
        let mut ctx = ComputeContext::new(&df, &cfg);
        let bad = ctx.graph.op("explode", 0, vec![ctx.sources[0]], |_| -> i64 {
            panic!("kernel bug")
        });
        let outcomes = ctx.execute_outcomes(&[bad, ctx.sources[0]]);
        assert!(!outcomes[0].is_ok());
        assert!(outcomes[1].is_ok());
        let stats = ctx.last_stats.as_ref().unwrap();
        assert_eq!(stats.tasks_failed, 1);
    }

    #[test]
    fn config_deadline_times_out_slow_tasks() {
        let df = frame();
        let mut cfg = Config::default();
        cfg.set("engine.task_deadline_ms", "2").unwrap();
        let mut ctx = ComputeContext::new(&df, &cfg);
        let slow = ctx.graph.op("slow", 0, vec![ctx.sources[0]], |d| {
            std::thread::sleep(std::time::Duration::from_millis(20));
            d.len()
        });
        let err = ctx.execute_checked(&[slow]).unwrap_err();
        assert!(
            matches!(&err, crate::error::EdaError::Task(e)
                if matches!(e.failure, eda_taskgraph::TaskFailure::TimedOut { .. })),
            "{err}"
        );
        assert_eq!(ctx.last_stats.as_ref().unwrap().tasks_timed_out, 1);
    }

    #[test]
    fn params_mixes_config() {
        let df = frame();
        let a_cfg = Config::default();
        let mut ctx = ComputeContext::new(&df, &a_cfg);
        let mut b_cfg = Config::default();
        b_cfg.set("hist.bins", "99").unwrap();
        let mut ctx2 = ComputeContext::new(&df, &b_cfg);
        let key = |ctx: &mut ComputeContext<'_>, name: &str| {
            let node = ctx.op(name, ctx.sources.clone(), |inputs| inputs.len());
            ctx.graph.task(node).key
        };
        assert_ne!(key(&mut ctx, "a"), key(&mut ctx2, "a"));
        assert_ne!(key(&mut ctx, "a"), key(&mut ctx, "b"));
    }

    /// Planning only adds nodes: whichever call is planned, no run has
    /// happened yet, so the call's one run is all its stats cover.
    #[test]
    fn planning_any_call_executes_nothing() {
        use crate::compute::{bivariate, correlation, missing, overview, timeseries, univariate};
        type Plan = fn(&mut ComputeContext<'_>) -> EdaResult<NodeId>;
        let n = 300;
        let df = DataFrame::new(vec![
            (
                "x".into(),
                Column::from_opt_f64((0..n).map(|i| (i % 7 != 0).then_some(i as f64)).collect()),
            ),
            ("y".into(), Column::from_f64((0..n).map(|i| (i * i % 97) as f64).collect())),
            ("c".into(), Column::from_string((0..n).map(|i| format!("c{}", i % 5)).collect())),
            ("d".into(), Column::from_string((0..n).map(|i| format!("d{}", i % 3)).collect())),
        ])
        .unwrap();
        let plans: [(&str, Plan); 14] = [
            ("plot(df)", |ctx| Ok(overview::compute_overview(ctx))),
            ("plot(df, N)", |ctx| univariate::compute_univariate(ctx, "x")),
            ("plot(df, C)", |ctx| univariate::compute_univariate(ctx, "c")),
            ("plot(df, N, N)", |ctx| bivariate::compute_bivariate(ctx, "x", "y")),
            ("plot(df, N, C)", |ctx| bivariate::compute_bivariate(ctx, "x", "c")),
            ("plot(df, C, N)", |ctx| bivariate::compute_bivariate(ctx, "c", "x")),
            ("plot(df, C, C)", |ctx| bivariate::compute_bivariate(ctx, "c", "d")),
            ("plot_correlation(df)", correlation::compute_correlation_overview),
            ("plot_correlation(df, x)", |ctx| correlation::compute_correlation_vector(ctx, "x")),
            ("plot_correlation(df, x, y)", |ctx| {
                correlation::compute_correlation_pair(ctx, "x", "y")
            }),
            ("plot_missing(df)", |ctx| Ok(missing::compute_missing_overview(ctx))),
            ("plot_missing(df, x)", |ctx| missing::compute_missing_impact(ctx, "x")),
            ("plot_missing(df, x, c)", |ctx| missing::compute_missing_pair(ctx, "x", "c")),
            ("plot_timeseries(df, y, x)", |ctx| timeseries::compute_timeseries(ctx, "y", "x")),
        ];
        let cfg = Config::default();
        for (call, plan) in plans {
            let mut ctx = ComputeContext::new(&df, &cfg);
            let node = plan(&mut ctx).unwrap_or_else(|e| panic!("{call}: {e}"));
            assert!(ctx.last_stats.is_none(), "{call} executed while planning");
            ctx.run_section(node).unwrap_or_else(|e| panic!("{call}: {e}"));
            assert!(ctx.last_stats.is_some());
        }
    }

    #[test]
    fn payload_roundtrip() {
        let p: Payload = Arc::new(42i64);
        assert_eq!(*un::<i64>(&p), 42);
    }

    #[test]
    #[should_panic(expected = "type mismatch")]
    fn payload_type_mismatch_panics() {
        let p: Payload = Arc::new(42i64);
        un::<String>(&p);
    }
}
