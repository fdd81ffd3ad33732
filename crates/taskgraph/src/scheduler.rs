//! The graph executor.
//!
//! [`run`] is the only entry point: it executes the live subgraph for the
//! requested outputs, dependencies before dependents, and returns one
//! [`TaskOutcome`] per requested output plus [`ExecStats`]. A run is one
//! plan → dispatch → finish sequence:
//!
//! * **plan** — `Plan::build` walks back from the outputs, probing the
//!   cross-run cache on the way. A hit completes its node before
//!   anything dispatches, and its upstream cone never becomes live.
//! * **dispatch** — a task is ready once all its dependencies have
//!   completed; ready tasks leave the ready set smallest id first, and
//!   each completion releases its dependents. The worker count decides
//!   only *who calls `execute_node`*: with `workers <= 1` the calling
//!   thread runs each ready task itself (no thread, no channel — the
//!   "Pandas phase" executor); with `workers = n` it does the same for
//!   the first `POOL_AFTER` of the run, and from then on n threads take
//!   tasks off a channel and send what they produced back. Results,
//!   spans, counters and cache inserts are kept by the
//!   calling thread either way (`Ledger`).
//! * **finish** — the ledger is tallied into [`ExecStats`] once.
//!
//! Execution is fault tolerant: every task body runs under
//! `std::panic::catch_unwind`, so a panicking kernel produces a
//! [`TaskOutcome::Failed`] for its node, its dependents are recorded as
//! `Skipped` without running, and every *other* branch of the graph
//! completes normally. An optional per-task deadline
//! ([`ExecOptions::deadline`]) marks over-budget tasks `TimedOut` with
//! the same skip propagation.

use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap};
use std::panic::{self, AssertUnwindSafe};
use std::sync::Arc;
use std::thread::{Scope, ScopedJoinHandle};
use std::time::{Duration, Instant};

use crossbeam::channel;

use crate::cache::CacheHandle;
use crate::govern::{self, CancelToken, MemoryGauge};
use crate::graph::{NodeId, Payload, TaskGraph};
use crate::inject::{FaultMode, Garbage};
use crate::outcome::{root_failure, TaskError, TaskFailure, TaskOutcome};
use crate::stats::ExecStats;
use crate::trace::{self, LogLevel, RunTrace, SpanStatus, TaskSpan};

/// Knobs of one [`run`].
#[derive(Clone, Default)]
pub struct ExecOptions {
    /// Per-task wall-clock budget. A task that finishes later than this
    /// is recorded as `TimedOut` and its dependents are skipped. `None`
    /// disables the check.
    pub deadline: Option<Duration>,
    /// Record a [`TaskSpan`] per dispatched task and attach the merged
    /// [`RunTrace`] to `ExecStats`. Off by default: untraced runs branch
    /// around every recording site and allocate nothing.
    pub trace: bool,
    /// Cross-run result cache plus the current data fingerprint. When
    /// set, the plan probes the cache before dispatch (a hit
    /// short-circuits the node and transitively satisfies its
    /// dependents) and successful derived results are inserted after.
    /// `None` executes everything, bit-identical to the pre-cache
    /// behaviour.
    pub cache: Option<CacheHandle>,
    /// Run deadline ([`crate::govern`]). Checked before every dispatch
    /// and installed as the thread's current token around each task body
    /// (capped by the per-task `deadline`, if any) so kernels can bail at
    /// their next interruption poll. `None` disables every check,
    /// bit-identical to pre-governance behaviour.
    pub cancel: Option<CancelToken>,
    /// Per-run memory budget gauge: each completed task's payload bytes
    /// are charged against it, and a refused charge fails the task with
    /// `TaskFailure::BudgetExceeded` (dropping the payload) instead of
    /// letting the run's footprint grow unbounded. `None` disables
    /// accounting entirely.
    pub gauge: Option<MemoryGauge>,
}

/// Result of one execution: an outcome per requested output (same
/// order), plus statistics.
pub struct ExecResult {
    /// Per-output outcomes, parallel to the requested output ids.
    pub outcomes: Vec<TaskOutcome>,
    /// What the executor did.
    pub stats: ExecStats,
}

impl ExecResult {
    /// Output payloads for fully successful runs. Panics with the task
    /// error if any requested output failed — the infallible-caller
    /// convenience; fault-aware callers should inspect `outcomes`.
    pub fn outputs(&self) -> Vec<Payload> {
        // TaskOutcome::unwrap: the documented panic.
        self.outcomes.iter().map(|o| o.clone().unwrap()).collect()
    }
}

/// How long a run with `workers > 1` stays on the calling thread before
/// it spawns them. Most interactive calls finish well inside it (cached
/// re-issues, one column's plot): they never pay for a spawn, a join and
/// two cross-thread hand-offs per task, and their latency does not depend
/// on whether a second core happens to be free. A long run loses at most
/// this much parallelism, plus the task in flight when it elapses.
const POOL_AFTER: Duration = Duration::from_millis(5);

/// Execute `outputs` of `graph` with `workers` threads running tasks
/// (`workers <= 1`, or a run over within `POOL_AFTER`: the calling
/// thread runs them itself and nothing is spawned). See the module docs
/// for the plan → dispatch → finish shape.
pub fn run(
    graph: &TaskGraph,
    outputs: &[NodeId],
    workers: usize,
    opts: &ExecOptions,
) -> ExecResult {
    run_after(graph, outputs, workers, opts, POOL_AFTER)
}

/// [`run`], spawning the workers once the run has lasted `pool_after`.
fn run_after(
    graph: &TaskGraph,
    outputs: &[NodeId],
    workers: usize,
    opts: &ExecOptions,
    pool_after: Duration,
) -> ExecResult {
    let workers = workers.max(1);
    let started = Instant::now();
    let run_id = trace::next_run_id();
    let plan = Plan::build(graph, outputs, opts.cache.as_ref());
    let mut ledger = Ledger::open(graph, opts, &plan, started);
    let execute = |id: NodeId, inputs: &[TaskOutcome]| {
        execute_node(graph, id, inputs, opts, started, run_id)
    };
    std::thread::scope(|scope| {
        // The calling thread works alone until the run has lasted
        // `pool_after`: a run that ends sooner (no outputs, every live
        // node answered by the cache, a handful of small tasks) spawns
        // nothing.
        let mut pool = None;
        loop {
            while let Some(Reverse(id)) = ledger.ready.pop() {
                if pool.is_none() && workers > 1 && started.elapsed() >= pool_after {
                    pool = Some(Pool::spawn(scope, workers, &execute));
                }
                let inputs = ledger.inputs(id);
                match &mut pool {
                    Some(pool) => pool.submit(id, inputs),
                    None => ledger.complete(id, 0, execute(id, &inputs)),
                }
            }
            // Inline, an empty ready set means the run is over; with a
            // pool it means waiting for a task in flight to release more.
            let Some((id, worker, executed)) = pool.as_mut().and_then(Pool::next_done) else {
                break;
            };
            ledger.complete(id, worker, executed);
        }
        if let Some(pool) = pool {
            pool.shut_down();
        }
    });
    ledger.finish(outputs, workers, run_id)
}

/// Cache-aware liveness plan: which nodes this run must touch, and which
/// of those are already satisfied by the cross-run cache.
struct Plan {
    /// Nodes this run needs (dead-node pruning: nothing else executes).
    /// The reverse walk from the outputs *stops* at cache hits, so a hit
    /// transitively satisfies its whole upstream cone — those
    /// dependencies are not live and never dispatch.
    live: Vec<bool>,
    /// `(payload, byte estimate)` for live nodes answered by the cache,
    /// in node order.
    hits: BTreeMap<NodeId, (Payload, usize)>,
    /// Number of probed-but-absent derived nodes.
    misses: usize,
}

impl Plan {
    /// Mark what is live along a reverse DFS from `outputs`, probing
    /// `cache` (when one is attached and enabled) on the way. Only
    /// derived nodes (with dependencies) are probed: sources hold their
    /// payload by construction, so caching them buys nothing and would
    /// pin input data in the cache.
    fn build(graph: &TaskGraph, outputs: &[NodeId], cache: Option<&CacheHandle>) -> Plan {
        let mut plan = Plan { live: vec![false; graph.len()], hits: BTreeMap::new(), misses: 0 };
        let cache = cache.filter(|handle| handle.cache.enabled());
        let mut stack: Vec<NodeId> = outputs.to_vec();
        while let Some(id) = stack.pop() {
            match plan.live.get_mut(id) {
                Some(seen) if !*seen => *seen = true,
                _ => continue,
            }
            let task = graph.task(id);
            if let Some(handle) = cache.filter(|_| !task.deps.is_empty()) {
                if let Some(found) = handle.cache.get(handle.fingerprint, task.key) {
                    plan.hits.insert(id, found);
                    continue; // upstream cone satisfied; don't traverse
                }
                plan.misses += 1;
            }
            stack.extend(task.deps.iter().copied());
        }
        plan
    }
}

/// What `execute_node` hands back: the outcome, its payload's price (0
/// for a failure, or when nothing reads prices), and the span timing when
/// the run is traced.
type Executed = (TaskOutcome, usize, Option<SpanTiming>);

/// The calling thread's books for one run: which tasks are ready, what
/// every completed node produced, and the counters the finish reports.
/// Worker threads never touch it — they only turn inputs into an
/// [`Executed`] — so nothing in here is locked or atomic.
struct Ledger<'a> {
    graph: &'a TaskGraph,
    opts: &'a ExecOptions,
    plan: &'a Plan,
    started: Instant,
    live_count: usize,
    /// The consumers of each node that will execute, and how many
    /// dependencies each of them still waits for.
    dependents: Vec<Vec<NodeId>>,
    indegrees: Vec<usize>,
    /// Tasks whose dependencies have all completed. Node ids are a
    /// topological order, so popping the smallest first makes an inline
    /// run visit live nodes in id order — which fixes the order of gauge
    /// charges and cache inserts, hence what a tight budget admits.
    ready: BinaryHeap<Reverse<NodeId>>,
    results: Vec<Option<TaskOutcome>>,
    spans: Vec<TaskSpan>,
    evictions: usize,
}

impl<'a> Ledger<'a> {
    /// Seed the ready set and complete the plan's cache hits: store
    /// their payloads, record zero-width spans, and release their
    /// dependents so a hit transitively satisfies its subtree.
    fn open(
        graph: &'a TaskGraph,
        opts: &'a ExecOptions,
        plan: &'a Plan,
        started: Instant,
    ) -> Ledger<'a> {
        // Only nodes that will execute wait for their dependencies: a
        // cache hit never reads its inputs, even when an upstream cone
        // stays live through a sibling path.
        let executes: Vec<bool> = (plan.live.iter().enumerate())
            .map(|(id, &live)| live && !plan.hits.contains_key(&id))
            .collect();
        let indegrees = graph.live_indegrees(&executes);
        let ready = (executes.iter().zip(&indegrees).enumerate())
            .filter(|&(_, (&executes, &indegree))| executes && indegree == 0)
            .map(|(id, _)| Reverse(id))
            .collect();
        let mut ledger = Ledger {
            graph,
            opts,
            plan,
            started,
            live_count: plan.live.iter().filter(|&&live| live).count(),
            dependents: graph.live_dependents(&executes),
            indegrees,
            ready,
            results: vec![None; graph.len()],
            spans: Vec::new(),
            evictions: 0,
        };
        for (&id, (payload, bytes)) in &plan.hits {
            if opts.trace {
                let now = started.elapsed();
                ledger.spans.push(make_span(graph, id, 0, (now, now), *bytes, SpanStatus::Cached));
            }
            ledger.settle(id, TaskOutcome::Ok(Arc::clone(payload)));
        }
        ledger
    }

    /// What `id` completed with, or — `id` never completed, a broken
    /// executor invariant — an `Internal` failure saying `if_missing`.
    fn outcome_of(&self, id: NodeId, if_missing: &str) -> TaskOutcome {
        let recorded = self.results.get(id).cloned().flatten();
        recorded.unwrap_or_else(|| internal_failure(self.graph, id, if_missing))
    }

    /// The outcomes of `id`'s dependencies, in dependency order. They
    /// completed (with whatever outcome) before `id` became ready; a
    /// missing one flows into the normal skip propagation instead of
    /// panicking.
    fn inputs(&self, id: NodeId) -> Vec<TaskOutcome> {
        let deps = self.graph.task(id).deps.iter();
        deps.map(|&dep| self.outcome_of(dep, "dependency result missing at dispatch")).collect()
    }

    /// Book one executed task: its span, the cache insert and the
    /// evictions it forced, then its outcome.
    fn complete(&mut self, id: NodeId, worker: usize, (outcome, bytes, timing): Executed) {
        if let Some(timing) = timing {
            let status = SpanStatus::of(&outcome);
            self.spans.push(make_span(self.graph, id, worker, timing, bytes, status));
        }
        self.evictions += cache_insert(self.opts, self.graph, id, &outcome, bytes);
        self.settle(id, outcome);
    }

    /// Record `id`'s outcome — failures complete like any other task —
    /// and move dependents that were waiting only for `id` to the ready
    /// set.
    fn settle(&mut self, id: NodeId, outcome: TaskOutcome) {
        if let Some(slot) = self.results.get_mut(id) {
            *slot = Some(outcome);
        }
        for &dep in self.dependents.get(id).into_iter().flatten() {
            let Some(waiting_for) = self.indegrees.get_mut(dep) else { continue };
            *waiting_for -= 1;
            if *waiting_for == 0 {
                self.ready.push(Reverse(dep));
            }
        }
    }

    /// Fold the books into the run's [`ExecResult`]. A node without a
    /// result here means every worker died outside `catch_unwind`: the
    /// run degrades to a partial one with a named cause.
    fn finish(self, outputs: &[NodeId], workers: usize, run_id: u64) -> ExecResult {
        let unfinished = "task never completed (scheduler degraded to a partial run)";
        let outcomes = outputs.iter().map(|&id| self.outcome_of(id, unfinished)).collect();
        let live_outcomes = (self.plan.live.iter().enumerate())
            .filter(|&(_, &live)| live)
            .map(|(id, _)| self.outcome_of(id, unfinished));
        let elapsed = self.started.elapsed();
        let mut stats = tally(live_outcomes, self.live_count, self.graph, workers, elapsed, run_id);
        if self.opts.trace {
            stats.trace = Some(Arc::new(RunTrace::from_spans(self.spans, workers, elapsed)));
        }
        // Hit nodes carry `Ok` outcomes, so `tally` counted them as
        // executed; reclassify them.
        stats.tasks_run = stats.tasks_run.saturating_sub(self.plan.hits.len());
        stats.cache_hits = self.plan.hits.len();
        stats.cache_misses = self.plan.misses;
        stats.cache_bytes_saved = self.plan.hits.values().map(|(_, bytes)| bytes).sum();
        stats.cache_evictions = self.evictions;
        if let Some(gauge) = &self.opts.gauge {
            stats.mem_peak_bytes = gauge.peak();
        }
        ExecResult { outcomes, stats }
    }
}

/// A task on its way to a worker: the node and its dependencies' outcomes.
type Job = (NodeId, Vec<TaskOutcome>);

/// The `workers > 1` way of calling `execute_node`: n scoped threads
/// that take [`Job`]s off one channel and send `(node, worker, result)`
/// back on another.
struct Pool<'scope> {
    jobs: channel::Sender<Job>,
    done: channel::Receiver<(NodeId, usize, Executed)>,
    in_flight: usize,
    handles: Vec<ScopedJoinHandle<'scope, ()>>,
}

impl<'scope> Pool<'scope> {
    fn spawn<'env>(
        scope: &'scope Scope<'scope, 'env>,
        workers: usize,
        execute: &'env (dyn Fn(NodeId, &[TaskOutcome]) -> Executed + Sync),
    ) -> Pool<'scope> {
        let (jobs, jobs_rx) = channel::unbounded::<Job>();
        let (done_tx, done) = channel::unbounded();
        let handles = (0..workers)
            .map(|worker| {
                let (jobs_rx, done_tx) = (jobs_rx.clone(), done_tx.clone());
                scope.spawn(move || {
                    while let Ok((id, inputs)) = jobs_rx.recv() {
                        if done_tx.send((id, worker, execute(id, &inputs))).is_err() {
                            break;
                        }
                    }
                })
            })
            .collect();
        // Workers hold the only senders of `done`: if every worker dies,
        // `next_done` disconnects instead of hanging forever.
        Pool { jobs, done, in_flight: 0, handles }
    }

    /// Queue a task for the next free worker. The send only fails once
    /// every worker is gone; the node then stays without a result and
    /// [`Ledger::finish`] names it.
    fn submit(&mut self, id: NodeId, inputs: Vec<TaskOutcome>) {
        if self.jobs.send((id, inputs)).is_ok() {
            self.in_flight += 1;
        }
    }

    /// Block for the next finished task; `None` when nothing is in
    /// flight, or when every worker is gone — only possible if one died
    /// outside `catch_unwind`.
    fn next_done(&mut self) -> Option<(NodeId, usize, Executed)> {
        if self.in_flight == 0 {
            return None;
        }
        self.in_flight -= 1;
        self.done.recv().ok()
    }

    /// Closing the job channel terminates the workers. Joining them by
    /// hand keeps a lost worker's panic from re-raising out of the scope.
    fn shut_down(self) {
        drop(self.jobs);
        for handle in self.handles {
            let _ = handle.join();
        }
    }
}

/// A `Failed` outcome recording a broken executor invariant at `id`
/// (a dependency result missing at dispatch, a lost worker). [`run`]
/// returns these instead of panicking so a violated invariant degrades
/// to a partial report with a named cause.
fn internal_failure(graph: &TaskGraph, id: NodeId, msg: &str) -> TaskOutcome {
    failed(graph, id, TaskFailure::Internal(msg.to_string()), Duration::ZERO)
}

/// The `Failed` outcome of node `id`.
fn failed(graph: &TaskGraph, id: NodeId, failure: TaskFailure, elapsed: Duration) -> TaskOutcome {
    let name = graph.task(id).name.clone();
    TaskOutcome::Failed(Arc::new(TaskError { task: id, name, failure, elapsed }))
}

/// Insert a successful derived result into the cache, returning the
/// evictions it forced. Only `Ok` outcomes of nodes with dependencies are
/// admitted — failed, timed-out, and skipped tasks never populate the
/// cache, so fault-injected runs cannot poison later ones. A run whose
/// cancel token has fired, or whose memory gauge has refused a charge,
/// stops inserting entirely: kernels may be bailing mid-slice by then,
/// and a degraded run must never seed later healthy ones. `bytes` is the
/// payload's price.
fn cache_insert(
    opts: &ExecOptions,
    graph: &TaskGraph,
    id: NodeId,
    outcome: &TaskOutcome,
    bytes: usize,
) -> usize {
    let Some(handle) = &opts.cache else {
        return 0;
    };
    if opts.cancel.as_ref().is_some_and(CancelToken::is_cancelled)
        || opts.gauge.as_ref().is_some_and(|g| g.denials() > 0)
    {
        return 0;
    }
    let task = graph.task(id);
    if task.deps.is_empty() {
        return 0;
    }
    match outcome {
        TaskOutcome::Ok(payload) => {
            handle.cache.insert(handle.fingerprint, task.key, Arc::clone(payload), bytes)
        }
        TaskOutcome::Failed(_) => 0,
    }
}

/// `(start, end)` of one dispatched task, as offsets from the run origin.
/// Only produced when tracing is on.
type SpanTiming = (Duration, Duration);

/// Run one node given its input outcomes: short-circuit on a fired run
/// token, skip on failed inputs, otherwise execute under `catch_unwind`,
/// applying any injected fault, the optional deadline, and the optional
/// memory gauge. When `opts.trace` is set, the second element carries
/// the span timing for [`make_span`]; it is `None` on untraced runs so
/// the hot path allocates nothing.
fn execute_node(
    graph: &TaskGraph,
    id: NodeId,
    inputs: &[TaskOutcome],
    opts: &ExecOptions,
    origin: Instant,
    run_id: u64,
) -> Executed {
    let task = graph.task(id);
    let zero_width = || {
        opts.trace.then(|| {
            let now = origin.elapsed();
            (now, now)
        })
    };
    // An upstream failure poisons only this subtree: record a skip
    // carrying the root that `root_failure` names for the inputs (the
    // first direct failure, else the first skip's root) and move on. The
    // skip inherits the root's elapsed so diagnostics stay meaningful at
    // any depth. A root the run token short-circuited at dispatch (zero
    // elapsed) is no cause of its own: the token short-circuits this node
    // too.
    let short_circuited =
        |e: &TaskError| e.failure == TaskFailure::Cancelled && e.elapsed.is_zero();
    if let Some(root) = root_failure(inputs).filter(|root| !short_circuited(root)) {
        let (root, elapsed) = (Arc::clone(root), root.elapsed);
        return (failed(graph, id, TaskFailure::Skipped(root), elapsed), 0, zero_width());
    }
    // Otherwise a fired run token beats everything else: record the node
    // as Cancelled without opening a span or touching the body, so a
    // cancelled run drains its remaining dispatches in microseconds.
    if opts.cancel.as_ref().is_some_and(CancelToken::is_cancelled) {
        return (failed(graph, id, TaskFailure::Cancelled, Duration::ZERO), 0, zero_width());
    }
    let span_start = opts.trace.then(|| origin.elapsed());
    // The failed-input check above guarantees every input carries a
    // payload; if that invariant ever breaks, fail this node instead of
    // panicking the worker.
    let Some(payloads) = inputs
        .iter()
        .map(|o| o.payload().map(Arc::clone))
        .collect::<Option<Vec<Payload>>>()
    else {
        let timing = span_start.map(|start| (start, origin.elapsed()));
        return (internal_failure(graph, id, "input outcome lost its payload"), 0, timing);
    };
    let fault = graph.fault_injector().and_then(|inj| inj.decide(id, &task.name));
    // The token the body observes at its interruption polls: the earlier
    // of the run deadline and the per-task one, so a blown task deadline
    // interrupts the body instead of merely being noticed after it
    // returns.
    let task_token = match (opts.cancel, opts.deadline) {
        (Some(t), Some(budget)) => Some(t.capped(budget)),
        (t, budget) => t.or(budget.map(CancelToken::with_deadline)),
    };
    let started = Instant::now();
    let result = {
        let _current = task_token.map(govern::set_current);
        catch_task_panic(|| match &fault {
            Some(FaultMode::Panic) => injected_panic(),
            Some(FaultMode::Stall(d)) => {
                std::thread::sleep(*d);
                (task.run)(&payloads)
            }
            Some(FaultMode::Wedge(max)) => {
                // A wedged task spins observing its token: a fired
                // deadline or cancellation wakes it immediately and
                // the real body then runs (and is classified below),
                // so the worker thread is reclaimed at the deadline
                // instead of being held for the whole wedge.
                govern::wait_interrupted(*max);
                (task.run)(&payloads)
            }
            Some(FaultMode::Garbage) => Arc::new(Garbage) as Payload,
            None => (task.run)(&payloads),
        })
    };
    let elapsed = started.elapsed();
    // The one pricing of this payload, on the thread that ran the body:
    // the gauge charge, the cache insert and the span all read it.
    let priced = opts.trace || opts.cache.is_some() || opts.gauge.is_some();
    let result = result.map(|payload| {
        let bytes = if priced { (task.price)(&payload) } else { 0 };
        (payload, bytes)
    });
    let (outcome, bytes) = classify_result(graph, id, result, elapsed, opts);
    if trace::log_enabled(LogLevel::Debug) {
        trace::log(
            LogLevel::Debug,
            "eda::sched",
            format_args!(
                "run_id={} task={} node={} status={} dur_us={}",
                run_id,
                task.name,
                id,
                SpanStatus::of(&outcome).label(),
                elapsed.as_micros()
            ),
        );
    }
    let timing = span_start.map(|start| (start, origin.elapsed()));
    (outcome, bytes, timing)
}

/// What a task injected with [`FaultMode::Panic`] runs instead of its
/// body; `catch_task_panic` turns the panic into a `Panicked` failure.
#[expect(clippy::panic, reason = "a deliberate injected fault, caught by catch_task_panic")]
fn injected_panic() -> Payload {
    panic!("injected fault: panic")
}

/// Classify a task body's raw result — its payload and that payload's
/// price — into the outcome and the bytes it holds (0 unless `Ok`): a
/// fired run token discards even a completed payload (kernels may have
/// bailed mid-slice, so it cannot be trusted), then the per-task
/// deadline, then the memory gauge.
fn classify_result(
    graph: &TaskGraph,
    id: NodeId,
    result: Result<(Payload, usize), String>,
    elapsed: Duration,
    opts: &ExecOptions,
) -> (TaskOutcome, usize) {
    let fail = |failure: TaskFailure| (failed(graph, id, failure, elapsed), 0);
    match result {
        Ok((payload, bytes)) => {
            if opts.cancel.as_ref().is_some_and(CancelToken::is_cancelled) {
                return fail(TaskFailure::Cancelled);
            }
            if let Some(budget) = opts.deadline {
                if elapsed > budget {
                    return fail(TaskFailure::TimedOut { budget, elapsed });
                }
            }
            if let Some(gauge) = &opts.gauge {
                if let Err(denial) = gauge.try_charge(bytes) {
                    // The payload drops here — the whole point of the
                    // budget is not to keep it.
                    return fail(TaskFailure::BudgetExceeded {
                        budget: denial.budget,
                        used: denial.used,
                        requested: denial.requested,
                    });
                }
            }
            (TaskOutcome::Ok(payload), bytes)
        }
        Err(message) => fail(TaskFailure::Panicked(message)),
    }
}

/// Build the [`TaskSpan`] for one live node. `queue_wait` is derived
/// later (in [`RunTrace::from_spans`]) from dependency completion times,
/// so it is zero here.
fn make_span(
    graph: &TaskGraph,
    id: NodeId,
    worker: usize,
    (start, end): SpanTiming,
    payload_bytes: usize,
    status: SpanStatus,
) -> TaskSpan {
    let task = graph.task(id);
    TaskSpan {
        node: id,
        name: task.name.clone(),
        worker,
        start,
        end,
        queue_wait: Duration::ZERO,
        status,
        payload_bytes,
        deps: task.deps.clone(),
    }
}

thread_local! {
    static SUPPRESS_PANIC_OUTPUT: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

/// Run a task body under `catch_unwind`, silencing the default panic
/// hook for panics we catch (they are expected, recorded outcomes — not
/// crashes worth a backtrace on stderr). Panics elsewhere still report
/// normally.
fn catch_task_panic<F: FnOnce() -> Payload>(f: F) -> Result<Payload, String> {
    static INSTALL: std::sync::Once = std::sync::Once::new();
    INSTALL.call_once(|| {
        let previous = panic::take_hook();
        panic::set_hook(Box::new(move |info| {
            if !SUPPRESS_PANIC_OUTPUT.with(|s| s.get()) {
                previous(info);
            }
        }));
    });
    SUPPRESS_PANIC_OUTPUT.with(|s| s.set(true));
    let result = panic::catch_unwind(AssertUnwindSafe(f));
    SUPPRESS_PANIC_OUTPUT.with(|s| s.set(false));
    result.map_err(|payload| match payload.downcast::<String>() {
        Ok(message) => *message,
        Err(payload) => payload
            .downcast::<&str>()
            .map_or_else(|_| "non-string panic payload".to_string(), |s| s.to_string()),
    })
}

/// Fold per-node outcomes into [`ExecStats`].
fn tally(
    live_outcomes: impl Iterator<Item = TaskOutcome>,
    live_count: usize,
    graph: &TaskGraph,
    workers: usize,
    elapsed: Duration,
    run_id: u64,
) -> ExecStats {
    let mut stats = ExecStats {
        live_nodes: live_count,
        total_nodes: graph.len(),
        cse_hits: graph.cse_hits(),
        workers,
        elapsed,
        ..ExecStats::default()
    };
    for outcome in live_outcomes {
        match SpanStatus::of(&outcome) {
            SpanStatus::Ok | SpanStatus::Cached => stats.tasks_run += 1,
            SpanStatus::Failed => stats.tasks_failed += 1,
            SpanStatus::TimedOut => stats.tasks_timed_out += 1,
            SpanStatus::Skipped => stats.tasks_skipped += 1,
            SpanStatus::Cancelled => stats.tasks_cancelled += 1,
            SpanStatus::BudgetExceeded => stats.tasks_budget_exceeded += 1,
        }
    }
    if trace::log_enabled(LogLevel::Info) {
        trace::log(
            LogLevel::Info,
            "eda::sched",
            format_args!(
                "run_id={} workers={} live={} run={} failed={} skipped={} timed_out={} cancelled={} budget_exceeded={} cse_hits={} elapsed_us={}",
                run_id,
                stats.workers,
                stats.live_nodes,
                stats.tasks_run,
                stats.tasks_failed,
                stats.tasks_skipped,
                stats.tasks_timed_out,
                stats.tasks_cancelled,
                stats.tasks_budget_exceeded,
                stats.cse_hits,
                stats.elapsed.as_micros()
            ),
        );
    }
    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inject::{self, FaultInjector, FaultPlan, FaultTarget};
    use crate::key::TaskKey;
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn get(p: &Payload) -> i64 {
        *crate::graph::un::<i64>(p)
    }

    /// Every test but the one about `POOL_AFTER` wants the workers from
    /// the first task on: these graphs finish in microseconds.
    fn run(
        graph: &TaskGraph,
        outputs: &[NodeId],
        workers: usize,
        opts: &ExecOptions,
    ) -> ExecResult {
        run_after(graph, outputs, workers, opts, Duration::ZERO)
    }

    /// `run` with default options.
    fn run_plain(graph: &TaskGraph, outputs: &[NodeId], workers: usize) -> ExecResult {
        run(graph, outputs, workers, &ExecOptions::default())
    }

    fn diamond() -> (TaskGraph, NodeId) {
        // a -> (b, c) -> d
        let mut g = TaskGraph::new();
        let a = g.source("a", TaskKey::leaf("a", 0), || 10i64);
        let b = g.op("inc", 0, vec![a], |d| get(&d[0]) + 1);
        let c = g.op("dbl", 0, vec![a], |d| get(&d[0]) * 2);
        let d = g.op("sum", 0, vec![b, c], |d| get(&d[0]) + get(&d[1]));
        (g, d)
    }

    #[test]
    fn diamond_runs_at_every_worker_count() {
        let (g, out) = diamond();
        for workers in [0, 1, 2, 4] {
            let r = run_plain(&g, &[out], workers);
            assert_eq!(get(&r.outputs()[0]), 31, "workers={workers}");
            assert_eq!(r.stats.tasks_run, 4);
            // The configured count is reported; 0 means "just me".
            assert_eq!(r.stats.workers, workers.max(1));
            assert!(r.stats.fully_succeeded());
        }
    }

    #[test]
    fn worker_count_decides_which_threads_run_tasks() {
        use std::thread::{current, ThreadId};
        // Three sources that each wait for the other two: with three
        // workers they can only finish on three distinct threads. A
        // `warm` source before them outlasts `POOL_AFTER` when asked to.
        let graph_of = |parties: usize, warm_up: Duration| {
            let seen: Arc<parking_lot::Mutex<Vec<ThreadId>>> = Arc::default();
            let barrier = Arc::new(std::sync::Barrier::new(parties));
            let mut g = TaskGraph::new();
            let warm_seen = Arc::clone(&seen);
            let warm = g.source("warm", TaskKey::leaf("warm", 0), move || {
                warm_seen.lock().push(current().id());
                std::thread::sleep(warm_up);
                0i64
            });
            let mut outs = vec![warm];
            for i in 0..3 {
                let (seen, barrier) = (Arc::clone(&seen), Arc::clone(&barrier));
                outs.push(g.source("who", TaskKey::leaf("who", i), move || {
                    seen.lock().push(current().id());
                    barrier.wait();
                    0i64
                }));
            }
            (g, outs, seen)
        };

        // One worker (or none), or a run shorter than `POOL_AFTER` at any
        // worker count: every body runs on the calling thread.
        for workers in [0, 1, 3] {
            let (g, outs, seen) = graph_of(1, Duration::ZERO);
            let r = super::run(&g, &outs, workers, &ExecOptions::default());
            assert_eq!(*seen.lock(), vec![current().id(); 4], "workers={workers}");
            assert_eq!(r.stats.workers, workers.max(1));
        }

        // Past `POOL_AFTER` the workers take over.
        let (g, outs, seen) = graph_of(3, 2 * POOL_AFTER);
        let r = super::run(&g, &outs, 3, &ExecOptions::default());
        assert_eq!(r.stats.workers, 3);
        let seen = seen.lock();
        assert_eq!(seen.first(), Some(&current().id()));
        let threads: std::collections::HashSet<ThreadId> = seen.iter().skip(1).copied().collect();
        assert_eq!(threads.len(), 3);
        assert!(!threads.contains(&current().id()));
    }

    #[test]
    fn dead_nodes_not_executed() {
        static RUNS: AtomicUsize = AtomicUsize::new(0);
        let mut g = TaskGraph::new();
        let a = g.source("a", TaskKey::leaf("a", 0), || 1i64);
        let _dead = g.source("dead", TaskKey::leaf("dead", 0), || {
            RUNS.fetch_add(1, Ordering::SeqCst);
            99i64
        });
        let b = g.op("inc", 0, vec![a], |d| get(&d[0]) + 1);
        for workers in [1, 2] {
            let r = run_plain(&g, &[b], workers);
            assert_eq!(get(&r.outputs()[0]), 2);
            assert_eq!(RUNS.load(Ordering::SeqCst), 0);
            assert_eq!(r.stats.tasks_run, 2);
            assert_eq!(r.stats.pruned(), 1);
        }
    }

    #[test]
    fn shared_node_runs_once() {
        let counter = Arc::new(AtomicUsize::new(0));
        let mut g = TaskGraph::new();
        let c2 = Arc::clone(&counter);
        let src = g.source("src", TaskKey::leaf("src", 0), move || {
            c2.fetch_add(1, Ordering::SeqCst);
            5i64
        });
        // Two consumers of a CSE-shared expensive node.
        let shared1 = g.op("expensive", 0, vec![src], |d| get(&d[0]) * 10);
        let shared2 = g.op("expensive", 0, vec![src], |d| get(&d[0]) * 10);
        assert_eq!(shared1, shared2);
        let u1 = g.op("plus1", 0, vec![shared1], |d| get(&d[0]) + 1);
        let u2 = g.op("plus2", 0, vec![shared2], |d| get(&d[0]) + 2);
        let r = run_plain(&g, &[u1, u2], 2);
        assert_eq!(get(&r.outputs()[0]), 51);
        assert_eq!(get(&r.outputs()[1]), 52);
        assert_eq!(counter.load(Ordering::SeqCst), 1);
        assert_eq!(r.stats.tasks_run, 4); // src, expensive, plus1, plus2
    }

    #[test]
    fn multiple_outputs_order_preserved() {
        let (g, out) = diamond();
        // Request outputs in reverse creation order.
        let r = run_plain(&g, &[out, 0], 1);
        assert_eq!(get(&r.outputs()[0]), 31);
        assert_eq!(get(&r.outputs()[1]), 10);
    }

    #[test]
    fn empty_outputs() {
        let (g, _) = diamond();
        let r = run_plain(&g, &[], 2);
        assert!(r.outcomes.is_empty());
        assert_eq!(r.stats.tasks_run, 0);

        // An empty run goes through the same finish as any other: with
        // a cache handle and a gauge that earlier work already charged,
        // its stats do not depend on the worker count.
        let gauge = MemoryGauge::new(1 << 10);
        gauge.try_charge(100).expect("within budget");
        let cache = Arc::new(crate::cache::ResultCache::new(1 << 20));
        let opts = ExecOptions { gauge: Some(gauge), ..cache_opts(&cache) };
        let stats_at = |workers: usize| {
            let mut stats = run(&g, &[], workers, &opts).stats;
            stats.elapsed = Duration::ZERO;
            stats.workers = 0;
            stats
        };
        let inline = stats_at(1);
        assert_eq!(inline.mem_peak_bytes, 100);
        for workers in [2, 4] {
            assert_eq!(stats_at(workers), inline, "workers={workers}");
        }
    }

    #[test]
    fn wide_graph_under_pool() {
        // 100 independent sources reduced pairwise: exercises the queue.
        let mut g = TaskGraph::new();
        let leaves: Vec<NodeId> = (0..100)
            .map(|i| g.source("leaf", TaskKey::leaf("leaf", i), move || i as i64))
            .collect();
        let mut layer = leaves;
        while layer.len() > 1 {
            let mut next = Vec::new();
            for pair in layer.chunks(2) {
                if pair.len() == 2 {
                    next.push(g.op("add", 0, vec![pair[0], pair[1]], |d| {
                        get(&d[0]) + get(&d[1])
                    }));
                } else {
                    next.push(pair[0]);
                }
            }
            layer = next;
        }
        let r = run_plain(&g, &[layer[0]], 4);
        assert_eq!(get(&r.outputs()[0]), (0..100).sum::<i64>());
    }

    // ----- fault tolerance -----

    /// a -> (bad, c) -> d, plus an independent healthy branch e -> f.
    /// `bad` panics; d must be skipped, the rest must complete.
    fn faulty_graph() -> (TaskGraph, NodeId, NodeId, NodeId, NodeId) {
        let mut g = TaskGraph::new();
        let a = g.source("a", TaskKey::leaf("a", 0), || 10i64);
        let bad = g.op("bad", 0, vec![a], |_| -> i64 { panic!("kernel exploded") });
        let c = g.op("dbl", 0, vec![a], |d| get(&d[0]) * 2);
        let d = g.op("sum", 0, vec![bad, c], |d| get(&d[0]) + get(&d[1]));
        let e = g.source("e", TaskKey::leaf("e", 0), || 7i64);
        let f = g.op("inc", 0, vec![e], |d| get(&d[0]) + 1);
        (g, bad, c, d, f)
    }

    #[test]
    fn panic_is_isolated() {
        let (g, _bad, c, d, f) = faulty_graph();
        for workers in [1, 2, 4] {
            let r = run_plain(&g, &[d, c, f], workers);
            // d skipped because bad panicked...
            let err = r.outcomes[0].error().expect("d failed");
            assert!(matches!(err.failure, TaskFailure::Skipped { .. }), "workers={workers}: {err}");
            assert_eq!(err.root_cause().1, "bad");
            // ...but the sibling branch and the independent branch completed.
            assert_eq!(get(r.outcomes[1].payload().expect("c ok")), 20);
            assert_eq!(get(r.outcomes[2].payload().expect("f ok")), 8);
            assert_eq!(r.stats.tasks_failed, 1);
            assert_eq!(r.stats.tasks_skipped, 1);
            assert_eq!(r.stats.tasks_run, 4); // a, c, e, f
            assert!(!r.stats.fully_succeeded());
        }
    }

    #[test]
    fn skip_propagates_transitively_with_root_cause() {
        let mut g = TaskGraph::new();
        let a = g.source("a", TaskKey::leaf("a", 0), || 1i64);
        let bad = g.op("bad", 0, vec![a], |_| -> i64 { panic!("boom") });
        let mid = g.op("mid", 0, vec![bad], |d| get(&d[0]));
        let leaf = g.op("leaf", 0, vec![mid], |d| get(&d[0]));
        let r = run_plain(&g, &[leaf], 1);
        let err = r.outcomes[0].error().expect("leaf failed");
        // Root cause is `bad`, not the intermediate skip.
        assert_eq!(err.root_cause(), (bad, "bad"));
        assert_eq!(r.stats.tasks_skipped, 2); // mid and leaf
        assert_eq!(r.stats.tasks_failed, 1);
    }

    /// A skip names the root `root_failure` names for its inputs: a
    /// direct failure beats an earlier input's skip.
    #[test]
    fn skip_root_prefers_a_direct_failure_over_an_earlier_skip() {
        let mut g = TaskGraph::new();
        let a = g.source("a", TaskKey::leaf("a", 0), || 1i64);
        let x = g.op("x", 0, vec![a], |_| -> i64 { panic!("x") });
        let skip_of_x = g.op("after_x", 0, vec![x], |d| get(&d[0]));
        let y = g.op("y", 0, vec![a], |_| -> i64 { panic!("y") });
        let both = g.op("both", 0, vec![skip_of_x, y], |d| get(&d[0]));
        for workers in [1, 2] {
            let r = run_plain(&g, &[both], workers);
            let err = r.outcomes[0].error().expect("both skipped");
            assert!(matches!(err.failure, TaskFailure::Skipped(_)), "{err}");
            assert_eq!(err.root_cause(), (y, "y"));
        }
    }

    #[test]
    fn panic_message_is_captured() {
        let mut g = TaskGraph::new();
        let bad = g.source("bad", TaskKey::leaf("bad", 0), || -> i64 {
            panic!("specific diagnostic {}", 42)
        });
        let r = run_plain(&g, &[bad], 2);
        let err = r.outcomes[0].error().expect("failed");
        assert!(
            matches!(&err.failure, TaskFailure::Panicked(m) if m.contains("specific diagnostic 42")),
            "{err}"
        );
    }

    #[test]
    fn deadline_marks_slow_tasks_timed_out() {
        let mut g = TaskGraph::new();
        let slow = g.source("slow", TaskKey::leaf("slow", 0), || {
            std::thread::sleep(Duration::from_millis(20));
            1i64
        });
        let fast = g.source("fast", TaskKey::leaf("fast", 0), || 2i64);
        let dep = g.op("dep", 0, vec![slow], |d| get(&d[0]));
        let opts = ExecOptions { deadline: Some(Duration::from_millis(2)), ..Default::default() };
        for workers in [1, 2, 4] {
            let r = run(&g, &[dep, fast], workers, &opts);
            let err = r.outcomes[0].error().expect("dep failed");
            assert!(matches!(err.failure, TaskFailure::Skipped { .. }), "{err}");
            assert_eq!(get(r.outcomes[1].payload().expect("fast ok")), 2);
            assert_eq!(r.stats.tasks_timed_out, 1);
            assert_eq!(r.stats.tasks_skipped, 1);
            assert_eq!(r.stats.tasks_run, 1);
        }
    }

    #[test]
    fn no_deadline_means_no_timeouts() {
        let (g, out) = diamond();
        let r = run_plain(&g, &[out], 2);
        assert_eq!(r.stats.tasks_timed_out, 0);
    }

    #[test]
    fn injected_panic_via_graph_injector() {
        let (mut g, out) = diamond();
        g.set_fault_injector(FaultInjector::panic_on("dbl"));
        let r = run_plain(&g, &[out], 2);
        let err = r.outcomes[0].error().expect("sum skipped");
        assert_eq!(err.root_cause().1, "dbl");
        assert_eq!(r.stats.tasks_failed, 1);
    }

    #[test]
    fn injected_garbage_fails_downstream_consumer() {
        let (mut g, out) = diamond();
        g.set_fault_injector(FaultInjector::new(vec![FaultPlan {
            target: FaultTarget::NameContains("inc".into()),
            mode: FaultMode::Garbage,
        }]));
        let r = run_plain(&g, &[out], 1);
        // `inc` returned Garbage; `sum` panicked on the downcast and the
        // failure is attributed to `sum`.
        let err = r.outcomes[0].error().expect("sum failed");
        assert!(matches!(err.failure, TaskFailure::Panicked(_)), "{err}");
        assert_eq!(err.name, "sum");
        assert_eq!(r.stats.tasks_failed, 1);
    }

    #[test]
    fn injected_stall_plus_deadline_times_out() {
        let (mut g, out) = diamond();
        g.set_fault_injector(FaultInjector::stall_on("inc", Duration::from_millis(20)));
        let opts = ExecOptions { deadline: Some(Duration::from_millis(2)), ..Default::default() };
        let r = run(&g, &[out], 2, &opts);
        let err = r.outcomes[0].error().expect("sum skipped");
        assert_eq!(err.root_cause().1, "inc");
        assert_eq!(r.stats.tasks_timed_out, 1);
    }

    fn cache_opts(cache: &Arc<crate::cache::ResultCache>) -> ExecOptions {
        ExecOptions {
            cache: Some(CacheHandle::new(Arc::clone(cache), 0xDA7A)),
            ..Default::default()
        }
    }

    #[test]
    fn warm_run_hits_cache_and_skips_upstream() {
        let cache = Arc::new(crate::cache::ResultCache::new(1 << 20));
        let opts = cache_opts(&cache);

        let (g, out) = diamond();
        let cold = run(&g, &[out], 1, &opts);
        assert_eq!(get(&cold.outputs()[0]), 31);
        assert_eq!(cold.stats.cache_hits, 0);
        assert_eq!(cold.stats.cache_misses, 3); // b, c, d (source not probed)
        assert_eq!(cache.len(), 3);

        // Rebuild the same graph: keys are structural so they match, and
        // the source closure must never fire on the warm run.
        let runs = Arc::new(AtomicUsize::new(0));
        let mut g2 = TaskGraph::new();
        let r2 = Arc::clone(&runs);
        let a = g2.source("a", TaskKey::leaf("a", 0), move || {
            r2.fetch_add(1, Ordering::SeqCst);
            10i64
        });
        let b = g2.op("inc", 0, vec![a], |d| get(&d[0]) + 1);
        let c = g2.op("dbl", 0, vec![a], |d| get(&d[0]) * 2);
        let d = g2.op("sum", 0, vec![b, c], |d| get(&d[0]) + get(&d[1]));

        let warm = run(&g2, &[d], 1, &opts);
        assert_eq!(get(&warm.outputs()[0]), 31);
        // The terminal hit satisfies the whole cone: nothing executes.
        assert_eq!(warm.stats.cache_hits, 1);
        assert_eq!(warm.stats.tasks_run, 0);
        assert!(warm.stats.cache_bytes_saved > 0);
        assert_eq!(runs.load(Ordering::SeqCst), 0);
    }

    #[test]
    fn pool_warm_run_matches_single_thread() {
        let cache = Arc::new(crate::cache::ResultCache::new(1 << 20));
        let opts = cache_opts(&cache);
        let (g, out) = diamond();
        let cold = run(&g, &[out], 3, &opts);
        assert_eq!(get(&cold.outputs()[0]), 31);
        assert_eq!(cold.stats.cache_misses, 3);

        let (g2, out2) = diamond();
        let warm = run(&g2, &[out2], 3, &opts);
        assert_eq!(get(&warm.outputs()[0]), 31);
        assert_eq!(warm.stats.cache_hits, 1);
        assert_eq!(warm.stats.tasks_run, 0);
    }

    #[test]
    fn partial_hit_reruns_only_the_missing_suffix() {
        let cache = Arc::new(crate::cache::ResultCache::new(1 << 20));
        let opts = cache_opts(&cache);
        // Cold run computes only `inc`.
        let mut g = TaskGraph::new();
        let a = g.source("a", TaskKey::leaf("a", 0), || 10i64);
        let b = g.op("inc", 0, vec![a], |d| get(&d[0]) + 1);
        run(&g, &[b], 1, &opts);

        // Warm run wants the full diamond: `inc` hits, `dbl` needs the
        // source so the source re-executes, `sum` is a miss.
        let (g2, out) = diamond();
        let warm = run(&g2, &[out], 1, &opts);
        assert_eq!(get(&warm.outputs()[0]), 31);
        assert_eq!(warm.stats.cache_hits, 1); // inc
        assert_eq!(warm.stats.cache_misses, 2); // dbl, sum
        assert_eq!(warm.stats.tasks_run, 3); // a, dbl, sum
    }

    #[test]
    fn different_fingerprints_do_not_share_entries() {
        let cache = Arc::new(crate::cache::ResultCache::new(1 << 20));
        let (g, out) = diamond();
        let opts_a = ExecOptions {
            cache: Some(CacheHandle::new(Arc::clone(&cache), 1)),
            ..Default::default()
        };
        run(&g, &[out], 1, &opts_a);

        let opts_b = ExecOptions {
            cache: Some(CacheHandle::new(Arc::clone(&cache), 2)),
            ..Default::default()
        };
        let (g2, out2) = diamond();
        let r = run(&g2, &[out2], 1, &opts_b);
        assert_eq!(r.stats.cache_hits, 0, "entries are namespaced by data fingerprint");
        assert_eq!(r.stats.tasks_run, 4);
    }

    #[test]
    fn failed_and_skipped_tasks_never_populate_the_cache() {
        let cache = Arc::new(crate::cache::ResultCache::new(1 << 20));
        let opts = cache_opts(&cache);
        let (mut g, out) = diamond();
        g.set_fault_injector(FaultInjector::panic_on("dbl"));
        let r = run(&g, &[out], 1, &opts);
        assert!(r.outcomes[0].is_failed());
        // `inc` succeeded and was cached; `dbl` failed and `sum` was
        // skipped — neither may be served from the cache later.
        assert_eq!(cache.len(), 1);

        let (g2, out2) = diamond();
        let warm = run(&g2, &[out2], 1, &opts);
        assert_eq!(get(&warm.outputs()[0]), 31, "healthy rerun recomputes the failed cone");
        assert_eq!(warm.stats.cache_hits, 1); // inc only
    }

    #[test]
    fn pool_never_caches_faulted_tasks() {
        let cache = Arc::new(crate::cache::ResultCache::new(1 << 20));
        let opts = cache_opts(&cache);
        let (mut g, out) = diamond();
        g.set_fault_injector(FaultInjector::panic_on("dbl"));
        let r = run(&g, &[out], 2, &opts);
        assert!(r.outcomes[0].is_failed());
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn zero_budget_cache_is_inert() {
        let cache = Arc::new(crate::cache::ResultCache::new(0));
        let opts = cache_opts(&cache);
        let (g, out) = diamond();
        let r1 = run(&g, &[out], 1, &opts);
        let (g2, out2) = diamond();
        let r2 = run(&g2, &[out2], 1, &opts);
        for r in [&r1, &r2] {
            assert_eq!(get(&r.outputs()[0]), 31);
            assert_eq!(r.stats.tasks_run, 4);
            assert_eq!(r.stats.cache_hits, 0);
            assert_eq!(r.stats.cache_misses, 0);
        }
        assert!(cache.is_empty());
    }

    #[test]
    fn cached_tasks_appear_as_cached_spans_in_trace() {
        let cache = Arc::new(crate::cache::ResultCache::new(1 << 20));
        let opts = ExecOptions {
            cache: Some(CacheHandle::new(Arc::clone(&cache), 7)),
            trace: true,
            ..Default::default()
        };
        let (g, out) = diamond();
        run(&g, &[out], 1, &opts);
        let (g2, out2) = diamond();
        let warm = run(&g2, &[out2], 2, &opts);
        let trace = warm.stats.trace.as_ref().expect("traced run");
        let cached: Vec<_> = trace
            .spans
            .iter()
            .filter(|s| s.status == crate::trace::SpanStatus::Cached)
            .collect();
        assert_eq!(cached.len(), 1);
        assert_eq!(cached[0].name, "sum");
        assert_eq!(cached[0].start, cached[0].end, "cached spans are zero-width");
    }

    // ----- governance -----

    #[test]
    fn cancelled_token_short_circuits_whole_run() {
        let token = CancelToken::with_deadline(Duration::ZERO);
        let opts = ExecOptions { cancel: Some(token), ..Default::default() };
        let (g, out) = diamond();
        for workers in [1, 2, 4] {
            let r = run(&g, &[out], workers, &opts);
            let err = r.outcomes[0].error().expect("cancelled");
            assert!(matches!(err.failure, TaskFailure::Cancelled), "{err}");
            assert_eq!(r.stats.tasks_run, 0);
            assert_eq!(r.stats.tasks_cancelled, 4);
            assert!(!r.stats.fully_succeeded());
        }
    }

    #[test]
    fn run_deadline_reclaims_wedged_worker() {
        // Regression for the pre-governance semantics where a TimedOut
        // task's body kept running (sleeping) on the worker for its full
        // duration. A wedged task observes its attempt token, wakes at
        // the deadline, and the worker is reclaimed in milliseconds, not
        // the 30s wedge.
        let (mut g, out) = diamond();
        g.set_fault_injector(FaultInjector::wedge_on("inc", Duration::from_secs(30)));
        let opts = ExecOptions { deadline: Some(Duration::from_millis(30)), ..Default::default() };
        let started = Instant::now();
        let r = run(&g, &[out], 2, &opts);
        let wall = started.elapsed();
        assert!(wall < Duration::from_secs(5), "worker held for {wall:?}");
        assert_eq!(r.stats.tasks_timed_out, 1);
        let err = r.outcomes[0].error().expect("sum skipped");
        assert_eq!(err.root_cause().1, "inc");
    }

    #[test]
    fn cancel_wakes_wedged_task_mid_run() {
        let (mut g, out) = diamond();
        g.set_fault_injector(FaultInjector::wedge_on("inc", Duration::from_secs(30)));
        let token = CancelToken::with_deadline(Duration::from_millis(30));
        let opts = ExecOptions { cancel: Some(token), ..Default::default() };
        let started = Instant::now();
        let r = run(&g, &[out], 2, &opts);
        let wall = started.elapsed();
        assert!(wall < Duration::from_secs(5), "cancel did not reclaim the worker: {wall:?}");
        assert!(r.stats.tasks_cancelled > 0, "{:?}", r.stats);
    }

    #[test]
    fn token_deadline_cancels_in_flight_run() {
        let mut g = TaskGraph::new();
        for i in 0..8 {
            g.source("slowleaf", TaskKey::leaf("slowleaf", i), || {
                std::thread::sleep(Duration::from_millis(20));
                1i64
            });
        }
        let outputs: Vec<NodeId> = (0..8).collect();
        let token = CancelToken::with_deadline(Duration::from_millis(30));
        let opts = ExecOptions { cancel: Some(token), ..Default::default() };
        let r = run(&g, &outputs, 1, &opts);
        // The first task or two complete; once the deadline passes, the
        // rest are recorded Cancelled without running.
        assert!(r.stats.tasks_cancelled > 0, "{:?}", r.stats);
        assert!(r.stats.elapsed < Duration::from_millis(8 * 20), "{:?}", r.stats.elapsed);
        let cancelled = r
            .outcomes
            .iter()
            .filter_map(|o| o.error())
            .filter(|e| matches!(e.failure, TaskFailure::Cancelled))
            .count();
        assert!(cancelled > 0);
    }

    #[test]
    fn budget_denial_fails_task_and_degrades_downstream() {
        // i64 payloads price at 8 bytes each; a 20-byte budget admits
        // two tasks (a=8, inc=16), denies the third (dbl), and skips the
        // dependent sum.
        let (g, out) = diamond();
        let gauge = MemoryGauge::new(20);
        let opts = ExecOptions { gauge: Some(gauge.clone()), ..Default::default() };
        let r = run(&g, &[out], 1, &opts);
        let err = r.outcomes[0].error().expect("sum degraded");
        let root = err.root();
        assert!(matches!(root.failure, TaskFailure::BudgetExceeded { .. }), "{err}");
        assert!(err.to_string().ends_with(&root.to_string()), "{err}");
        assert_eq!(r.stats.tasks_budget_exceeded, 1);
        assert_eq!(r.stats.tasks_skipped, 1);
        assert_eq!(r.stats.tasks_run, 2);
        assert_eq!(r.stats.mem_peak_bytes, 16);
        assert_eq!(gauge.denials(), 1);
        assert!(!r.stats.fully_succeeded());
    }

    /// A payload that counts the times it is priced.
    struct Counted(Arc<AtomicUsize>);

    impl eda_dataframe::HeapSize for Counted {
        fn heap_bytes(&self) -> usize {
            self.0.fetch_add(1, Ordering::SeqCst);
            1000
        }
    }

    #[test]
    fn each_execution_prices_its_payload_once() {
        let priced = Arc::new(AtomicUsize::new(0));
        let mut g = TaskGraph::new();
        let src = g.source("src", TaskKey::leaf("src", 0), || ());
        let counted = Arc::clone(&priced);
        let node = g.op("counted", 0, vec![src], move |_| Counted(Arc::clone(&counted)));
        let price = std::mem::size_of::<Counted>() + 1000;
        for workers in [1, 2] {
            priced.store(0, Ordering::SeqCst);
            let cache = Arc::new(crate::cache::ResultCache::new(1 << 20));
            let gauge = MemoryGauge::new(1 << 20);
            let opts = ExecOptions { trace: true, gauge: Some(gauge), ..cache_opts(&cache) };
            let cold = run(&g, &[node], workers, &opts);
            assert_eq!(priced.load(Ordering::SeqCst), 1, "workers={workers}");
            let (_, charged) = cache.get(0xDA7A, g.task(node).key).expect("cached");
            assert_eq!(charged, price);
            assert_eq!(cold.stats.mem_peak_bytes, price, "the source's `()` prices at 0");
            let span_bytes = |r: &ExecResult| {
                let trace = r.stats.trace.as_ref().expect("traced");
                trace.spans.iter().find(|s| s.node == node).map(|s| s.payload_bytes)
            };
            assert_eq!(span_bytes(&cold), Some(price));
            // A cache hit shows the charge it was stored with, unpriced.
            let warm = run(&g, &[node], workers, &opts);
            assert_eq!(warm.stats.cache_hits, 1);
            assert_eq!(span_bytes(&warm), Some(price));
            assert_eq!(priced.load(Ordering::SeqCst), 1, "workers={workers}");
        }
    }

    #[test]
    fn no_gauge_means_no_budget_failures() {
        let (g, out) = diamond();
        let r = run_plain(&g, &[out], 2);
        assert_eq!(r.stats.tasks_budget_exceeded, 0);
        assert_eq!(r.stats.mem_peak_bytes, 0);
    }

    #[test]
    fn cancelled_run_never_populates_cache() {
        let cache = Arc::new(crate::cache::ResultCache::new(1 << 20));
        let token = CancelToken::with_deadline(Duration::ZERO);
        let opts = ExecOptions { cancel: Some(token), ..cache_opts(&cache) };
        let (g, out) = diamond();
        let r = run(&g, &[out], 2, &opts);
        assert!(r.outcomes[0].is_failed());
        assert!(cache.is_empty(), "cancelled runs must not seed the cache");
    }

    #[test]
    fn budget_failed_run_stops_cache_inserts_under_eviction_pressure() {
        // Cache byte budget and run memory budget interact: Vec<f64>
        // payloads of 824 bytes each (the `Vec` and its 800), a 2000-byte
        // cache (holds two) and a 5000-byte run gauge. Six ops fit the
        // gauge (8 + 6*824 = 4952), the last two are denied; inserts stop
        // at the first denial, and the small cache evicts while admitting
        // the six.
        let vecs = |n: usize| vec![0.0f64; n];
        let mut g = TaskGraph::new();
        let src = g.source("src", TaskKey::leaf("src", 0), || 1i64);
        let ops: Vec<NodeId> =
            (0..8).map(|i| g.op("widen", i, vec![src], move |_| vecs(100))).collect();
        let cache = Arc::new(crate::cache::ResultCache::new(2000));
        let gauge = MemoryGauge::new(5000);
        let opts = ExecOptions { gauge: Some(gauge.clone()), ..cache_opts(&cache) };
        let r = run(&g, &ops, 1, &opts);
        assert_eq!(r.stats.tasks_budget_exceeded, 2, "{:?}", r.stats);
        assert_eq!(r.stats.tasks_run, 7); // src + six ops
        assert!(r.stats.cache_evictions > 0, "{:?}", r.stats);
        assert!(cache.total_bytes() <= 2000);
        assert!(cache.len() < 6, "inserts must stop at the first denial");
        assert_eq!(gauge.denials(), 2);
        assert!(r.stats.mem_peak_bytes <= 5000);
    }

    #[test]
    fn governed_defaults_match_ungoverned_stats() {
        // Knobs at rest (no token, no gauge) must be bit-identical to
        // pre-governance behaviour.
        let (g, out) = diamond();
        let mut plain = run_plain(&g, &[out], 1).stats;
        let (g2, out2) = diamond();
        let mut governed = run(&g2, &[out2], 1, &ExecOptions::default()).stats;
        plain.elapsed = Duration::ZERO;
        governed.elapsed = Duration::ZERO;
        assert_eq!(plain, governed);
        assert_eq!(plain.tasks_cancelled, 0);
        assert_eq!(plain.tasks_budget_exceeded, 0);
    }

    #[test]
    fn thread_local_arming_reaches_graphs_built_elsewhere() {
        let inj = FaultInjector::panic_on("dbl");
        let r = {
            let _guard = inject::arm(Arc::clone(&inj));
            // diamond() constructs its own TaskGraph::new() — the armed
            // injector must reach it, as it must reach graphs built
            // inside create_report.
            let (g, out) = diamond();
            run_plain(&g, &[out], 2)
        };
        assert!(r.outcomes[0].is_failed());
        assert_eq!(inj.triggered(), 1);
    }
}
