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

use std::cell::OnceCell;
use std::sync::Arc;

use eda_dataframe::DataFrame;
use eda_taskgraph::graph::Payload;
use eda_taskgraph::outcome::{root_failure, TaskOutcome};
use eda_taskgraph::scheduler::{self, ExecOptions};
use eda_taskgraph::govern::{self, CancelToken, MemoryGauge};
use eda_taskgraph::key::TaskKey;
use eda_taskgraph::{
    CacheHandle, ExecStats, NodeId, PartitionedFrame, PayloadSizer, ResultCache, TaskGraph,
};

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

/// Domain sizer for the byte-budgeted cache, the run memory gauge and the
/// bytes a traced span shows: the taskgraph's structural estimate only
/// knows primitive containers and charges a pointer-sized floor for
/// opaque payloads, so the correlation, KDE, frequency, text, histogram,
/// grouped, nullity, validity and section payloads would be billed ~16 bytes
/// each, never evict, never trip `engine.memory_budget_bytes` and show 16
/// bytes in a trace. Each arm charges the heap bytes the payload owns (a
/// `corr_prep` borrows its column from the gather payload, which is
/// charged on its own).
pub fn payload_sizer() -> PayloadSizer {
    use eda_dataframe::Bitmap;
    use eda_stats::corr::{ColumnPrep, CorrMatrix};
    use eda_stats::freq::{map_heap_bytes, CatFreq, FreqSummary};
    use eda_stats::histogram::Histogram;
    use eda_stats::missing::NullCounts;
    use eda_stats::text::TextStats;
    use std::collections::HashMap;
    use std::mem::size_of;
    Arc::new(|p: &Payload| {
        if let Some(prep) = p.downcast_ref::<ColumnPrep>() {
            return Some(prep.heap_bytes());
        }
        if let Some(cells) = p.downcast_ref::<Vec<Option<f64>>>() {
            return Some(cells.capacity() * 16);
        }
        if let Some((xs, ys)) = p.downcast_ref::<(Vec<f64>, Vec<f64>)>() {
            return Some((xs.capacity() + ys.capacity()) * 8);
        }
        if let Some(m) = p.downcast_ref::<CorrMatrix>() {
            let labels: usize = m.labels.iter().map(|l| l.capacity() + 24).sum();
            return Some(m.cells.capacity() * 16 + labels);
        }
        if let Some(freq) = p.downcast_ref::<CatFreq>() {
            return Some(freq.heap_bytes());
        }
        if let Some(summary) = p.downcast_ref::<FreqSummary>() {
            return Some(summary.heap_bytes());
        }
        if let Some(text) = p.downcast_ref::<TextStats>() {
            return Some(text.heap_bytes());
        }
        if let Some(h) = p.downcast_ref::<Histogram>() {
            return Some(h.heap_bytes());
        }
        if let Some(hists) = p.downcast_ref::<Vec<Histogram>>() {
            let counts: usize = hists.iter().map(|h| h.counts.capacity() * 8).sum();
            return Some(hists.capacity() * size_of::<Histogram>() + counts);
        }
        if let Some(groups) = p.downcast_ref::<Vec<Vec<f64>>>() {
            let values: usize = groups.iter().map(|g| g.capacity() * 8).sum();
            return Some(groups.capacity() * size_of::<Vec<f64>>() + values);
        }
        if let Some(cells) = p.downcast_ref::<HashMap<(i64, i64), u64>>() {
            return Some(map_heap_bytes(cells.capacity(), size_of::<((i64, i64), u64)>()));
        }
        if let Some(counts) = p.downcast_ref::<NullCounts>() {
            return Some(counts.heap_bytes());
        }
        if let Some(validity) = p.downcast_ref::<Bitmap>() {
            return Some(validity.heap_bytes());
        }
        if let Some((ims, insights)) = p.downcast_ref::<Section>() {
            let notes: usize = insights.iter().map(Insight::heap_bytes).sum();
            return Some(ims.heap_bytes() + insights.capacity() * size_of::<Insight>() + notes);
        }
        None
    })
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
    /// Run-wide memory gauge (`engine.memory_budget_bytes`), `None` when
    /// the budget is off. Charges accumulate across `execute_outcomes` calls.
    pub gauge: Option<MemoryGauge>,
    /// Each column's semantic type, detected on first use
    /// ([`ComputeContext::semantic`]).
    semantics: Vec<OnceCell<SemanticType>>,
}

impl<'a> ComputeContext<'a> {
    /// Precompute the partition layout and set up an empty graph.
    pub fn new(df: &'a DataFrame, config: &Config) -> ComputeContext<'a> {
        // Hook the stats kernels, which do not know the scheduler, up to its
        // cooperative-cancellation probe, once per process. With no
        // governed run active the probe reads a thread-local `None` and
        // answers false, so ungoverned runs are unaffected.
        static HOOK: std::sync::Once = std::sync::Once::new();
        HOOK.call_once(|| eda_stats::interrupt::register(govern::interrupted));
        // Stage 1 of Figure 4: precompute chunk-size information.
        // "Dask is slow on tiny data" (§5.2): scheduling many partitions
        // of a small frame is pure overhead, so the partition count is
        // capped at one partition per ~8K rows.
        let npartitions = config
            .engine
            .npartitions
            .min((df.nrows() / 8192).max(1));
        let pf = PartitionedFrame::from_frame(df, npartitions);
        let mut graph = TaskGraph::new();
        // Stage 2 begins: partition sources enter the graph.
        let sources = pf.source_nodes(&mut graph);
        // The run token is the whole-run deadline, anchored here: context
        // creation is the start of the run.
        let cancel = match config.engine.run_deadline_ms {
            0 => None,
            ms => Some(CancelToken::with_deadline(std::time::Duration::from_millis(ms))),
        };
        let gauge = match config.engine.memory_budget_bytes {
            0 => None,
            budget => Some(MemoryGauge::new(budget)),
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
            gauge,
            semantics: vec![OnceCell::new(); df.ncols()],
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

    /// Parameter-hash base mixing in the config, so config changes never
    /// share nodes with differently-configured builds.
    pub fn params(&self, extra: u64) -> u64 {
        self.config.compute_hash() ^ extra.rotate_left(17)
    }

    /// Plan a section node named `name`: `finish` turns the payloads of
    /// `deps`, in order, into the [`Section`]. Its key mixes every
    /// `insight.*` threshold besides [`Self::params`], so a cached section
    /// never serves insights found under other thresholds.
    pub fn section(
        &mut self,
        name: &str,
        deps: Vec<NodeId>,
        finish: impl Fn(&[Payload]) -> Section + Send + Sync + 'static,
    ) -> NodeId {
        let params = self.params(TaskKey::params(&name) ^ self.config.insight.thresholds_hash());
        self.graph.op(name, params, deps, move |inputs| pl(finish(inputs)))
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
        let cache = self.cache_handle();
        // Both byte budgets and the trace's spans price payloads by their
        // real footprint, so the domain sizer goes along whenever one is on.
        let trace = self.config.engine.profile;
        let sizer = (cache.is_some() || self.gauge.is_some() || trace).then(payload_sizer);
        let opts = ExecOptions {
            deadline: self.deadline(),
            trace,
            cache,
            cancel: self.cancel,
            gauge: self.gauge.clone(),
            sizer,
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

/// Wrap a value as a task payload.
pub fn pl<T: Send + Sync + 'static>(value: T) -> Payload {
    Arc::new(value)
}

/// Borrow a typed value out of a payload.
///
/// Panics on type mismatch — payload types are fixed by the kernel that
/// produced the node, so a mismatch is a plan-construction bug.
pub fn un<T: Send + Sync + 'static>(p: &Payload) -> &T {
    p.downcast_ref::<T>()
        .unwrap_or_else(|| panic!("payload type mismatch: expected {}", std::any::type_name::<T>()))
}

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
    fn context_precomputes_partitions() {
        let df = frame();
        let cfg = Config::default();
        let ctx = ComputeContext::new(&df, &cfg);
        assert_eq!(ctx.pf.nrows(), 100);
        assert_eq!(ctx.sources.len(), ctx.pf.npartitions());
        assert!(!ctx.graph.is_empty());
    }

    #[test]
    fn the_sizer_prices_cache_entries_with_the_gauge_off() {
        use eda_stats::corr::ColumnPrep;
        let df = frame();
        let cfg = Config::default();
        assert_eq!(cfg.engine.memory_budget_bytes, 0, "the gauge is off");
        let cache = Arc::new(ResultCache::new(1 << 20));
        let mut ctx = ComputeContext::new(&df, &cfg).with_cache(Arc::clone(&cache));
        let (_, prep) = crate::compute::kernels::plan_corr_prep(&mut ctx, "x");
        let payload = ctx.execute_checked(&[prep]).unwrap().remove(0);
        let key = ctx.graph.task(prep).key;
        let (_, charged) = cache.get(ctx.pf.dataset_id, key).expect("corr_prep is cached");
        let heap = un::<ColumnPrep>(&payload).heap_bytes();
        assert!(heap > eda_taskgraph::trace::estimate_payload_bytes(&payload), "{heap}");
        assert_eq!(charged, heap);
    }

    #[test]
    fn a_profiled_span_shows_the_sizer_price_with_the_cache_off() {
        use eda_stats::corr::ColumnPrep;
        let df = frame();
        let cfg =
            Config::from_pairs(vec![("engine.profile", "true"), ("engine.cache_budget_bytes", "0")])
                .unwrap();
        assert_eq!(cfg.engine.memory_budget_bytes, 0, "the gauge is off");
        let mut ctx = ComputeContext::new(&df, &cfg);
        let (_, prep) = crate::compute::kernels::plan_corr_prep(&mut ctx, "x");
        let payload = ctx.execute_checked(&[prep]).unwrap().remove(0);
        let heap = un::<ColumnPrep>(&payload).heap_bytes();
        assert!(heap > eda_taskgraph::trace::estimate_payload_bytes(&payload), "{heap}");
        let trace =
            ctx.last_stats.as_ref().and_then(|s| s.trace.clone()).expect("profiled run is traced");
        let span = trace.spans.iter().find(|s| s.node == prep).expect("corr_prep span");
        assert_eq!(span.payload_bytes, heap);
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
        let bad = ctx.graph.op("explode", 0, vec![ctx.sources[0]], |_| -> Payload {
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
        let bad = ctx.graph.op("explode", 0, vec![ctx.sources[0]], |_| -> Payload {
            panic!("kernel bug")
        });
        let outcomes = ctx.execute_outcomes(&[bad, ctx.sources[0]]);
        assert!(outcomes[0].is_failed());
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
            Arc::clone(&d[0])
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
        let ctx = ComputeContext::new(&df, &a_cfg);
        let mut b_cfg = Config::default();
        b_cfg.set("hist.bins", "99").unwrap();
        let ctx2 = ComputeContext::new(&df, &b_cfg);
        assert_ne!(ctx.params(1), ctx2.params(1));
        assert_ne!(ctx.params(1), ctx.params(2));
    }

    #[test]
    fn payload_roundtrip() {
        let p = pl(42i64);
        assert_eq!(*un::<i64>(&p), 42);
    }

    #[test]
    #[should_panic(expected = "type mismatch")]
    fn payload_type_mismatch_panics() {
        let p = pl(42i64);
        un::<String>(&p);
    }
}
