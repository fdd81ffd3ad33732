//! Property-based tests for the task-graph engine: every worker count
//! computes the same outcomes and counters on randomly shaped DAGs, CSE
//! never changes results, dead-node pruning never executes unreachable
//! work, and a partitioned frame is zero-copy windows over its rows.

// Test code asserts freely; the package-level unwrap/expect deny
// targets shipped code.
#![allow(clippy::unwrap_used, clippy::expect_used, clippy::indexing_slicing, clippy::panic)]

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use eda_dataframe::{Column, DataFrame};
use eda_taskgraph::graph::{NodeId, Payload, TaskGraph};
use eda_taskgraph::key::TaskKey;
use eda_taskgraph::scheduler::{run, ExecOptions, ExecResult};
use eda_taskgraph::{
    inject, CacheHandle, FaultInjector, FaultMode, FaultPlan, FaultTarget, PartitionedFrame,
    ResultCache, SpanStatus,
};
use proptest::prelude::*;

fn get(p: &Payload) -> i64 {
    *p.downcast_ref::<i64>().expect("i64")
}

/// `run` with default options.
fn run_plain(graph: &TaskGraph, outputs: &[NodeId], workers: usize) -> ExecResult {
    run(graph, outputs, workers, &ExecOptions::default())
}

/// One output: its value, or how it failed and which node caused it.
type OutputSig = Result<i64, (&'static str, NodeId)>;

/// Everything about a run that must not depend on who executed it: every
/// output's signature plus the executor's counters.
fn signature(r: &ExecResult) -> (Vec<OutputSig>, [usize; 6]) {
    let outcomes = r
        .outcomes
        .iter()
        .map(|o| match o.error() {
            None => Ok(get(o.payload().expect("ok outcome"))),
            Some(err) => Err((SpanStatus::of(o).label(), err.root_cause().0)),
        })
        .collect();
    let s = &r.stats;
    let counters = [
        s.tasks_run,
        s.tasks_failed,
        s.tasks_skipped,
        s.tasks_timed_out,
        s.cache_hits,
        s.cache_misses,
    ];
    (outcomes, counters)
}

/// A random DAG spec: `ops[k] = (opcode, dep_a, dep_b)` where deps point
/// at earlier nodes (or sources when the graph is still small).
#[derive(Debug, Clone)]
struct DagSpec {
    sources: Vec<i64>,
    ops: Vec<(u8, usize, usize)>,
}

fn arb_dag() -> impl Strategy<Value = DagSpec> {
    (
        prop::collection::vec(-100i64..100, 1..6),
        prop::collection::vec((0u8..3, any::<usize>(), any::<usize>()), 0..40),
    )
        .prop_map(|(sources, ops)| DagSpec { sources, ops })
}

/// Build the graph; returns all node ids in creation order.
fn build(spec: &DagSpec, dedup: bool) -> (TaskGraph, Vec<NodeId>) {
    let mut g = if dedup { TaskGraph::new() } else { TaskGraph::without_dedup() };
    let mut nodes: Vec<NodeId> = Vec::new();
    for (i, &v) in spec.sources.iter().enumerate() {
        nodes.push(g.source("src", TaskKey::leaf("src", i as u64), move || v));
    }
    for &(code, a, b) in &spec.ops {
        let da = nodes[a % nodes.len()];
        let db = nodes[b % nodes.len()];
        let node = match code % 3 {
            0 => g.op("add", 0, vec![da, db], |d| get(&d[0]).wrapping_add(get(&d[1]))),
            1 => g.op("mul", 0, vec![da, db], |d| {
                get(&d[0]).wrapping_mul(get(&d[1]))
            }),
            _ => g.op("neg", 0, vec![da], |d| -get(&d[0])),
        };
        nodes.push(node);
    }
    (g, nodes)
}

/// A frame of 0 to 120 rows: a nullable int, float and string column.
fn arb_frame() -> impl Strategy<Value = DataFrame> {
    let len = 0..120usize;
    let ints = prop::collection::vec(prop::option::of(-50i64..50), len.clone());
    let floats = prop::collection::vec(prop::option::of(-1.0e3..1.0e3f64), len.clone());
    let words = prop::collection::vec(prop::option::of(0u8..5), len);
    (ints, floats, words).prop_map(|(i, f, w)| {
        let n = i.len().min(f.len()).min(w.len());
        let words = w[..n].iter().map(|v| v.map(|c| format!("w{c}"))).collect();
        DataFrame::new(vec![
            ("i".into(), Column::from_opt_i64(i[..n].to_vec())),
            ("f".into(), Column::from_opt_f64(f[..n].to_vec())),
            ("s".into(), Column::from_opt_string(words)),
        ])
        .expect("equal lengths")
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn all_worker_counts_agree(spec in arb_dag(), poisoned in any::<usize>()) {
        // One node panics on every dispatch; each worker count then runs
        // the graph cold and again warm against its own fresh cache.
        let len = build(&spec, true).0.len();
        let (g, nodes) = {
            let _armed = inject::arm(FaultInjector::new(vec![FaultPlan {
                target: FaultTarget::Node(poisoned % len),
                mode: FaultMode::Panic,
            }]));
            build(&spec, true)
        };
        let outputs = vec![*nodes.last().expect("non-empty"), nodes[0]];
        let cold_and_warm = |workers: usize| {
            let cache = Arc::new(ResultCache::new(1 << 20));
            let opts = ExecOptions {
                cache: Some(CacheHandle::new(cache, 0xDA7A)),
                ..ExecOptions::default()
            };
            let cold = run(&g, &outputs, workers, &opts);
            let warm = run(&g, &outputs, workers, &opts);
            (signature(&cold), signature(&warm))
        };
        let inline = cold_and_warm(1);
        let ((cold_outcomes, cold_counters), (warm_outcomes, warm_counters)) = &inline;
        // The warm run serves the healthy derived nodes it reaches from
        // the cache: same outcomes, never more executions than cold.
        prop_assert_eq!(cold_outcomes, warm_outcomes);
        prop_assert!(warm_counters[0] <= cold_counters[0]);
        for workers in [2, 3] {
            prop_assert_eq!(&cold_and_warm(workers), &inline, "workers={}", workers);
        }
    }

    #[test]
    fn dedup_never_changes_values(spec in arb_dag()) {
        let (g1, n1) = build(&spec, true);
        let (g2, n2) = build(&spec, false);
        let o1 = vec![*n1.last().expect("non-empty")];
        let o2 = vec![*n2.last().expect("non-empty")];
        let r1 = run_plain(&g1, &o1, 1);
        let r2 = run_plain(&g2, &o2, 1);
        prop_assert_eq!(get(&r1.outputs()[0]), get(&r2.outputs()[0]));
        // Dedup can only shrink the graph.
        prop_assert!(g1.len() <= g2.len());
    }

    #[test]
    fn pruning_skips_unreachable_tasks(spec in arb_dag()) {
        // Instrument every source with a counter, request only node 0.
        let counter = Arc::new(AtomicUsize::new(0));
        let mut g = TaskGraph::new();
        let mut nodes: Vec<NodeId> = Vec::new();
        for (i, &v) in spec.sources.iter().enumerate() {
            let c = Arc::clone(&counter);
            nodes.push(g.source("src", TaskKey::leaf("src", i as u64), move || {
                c.fetch_add(1, Ordering::SeqCst);
                v
            }));
        }
        let r = run_plain(&g, &[nodes[0]], 2);
        prop_assert_eq!(get(&r.outputs()[0]), spec.sources[0]);
        prop_assert_eq!(counter.load(Ordering::SeqCst), 1);
        prop_assert_eq!(r.stats.pruned(), g.len() - 1);
    }

    #[test]
    fn repeated_execution_is_deterministic(spec in arb_dag()) {
        let (g, nodes) = build(&spec, true);
        let outputs = vec![*nodes.last().expect("non-empty")];
        let a = run_plain(&g, &outputs, 3);
        let b = run_plain(&g, &outputs, 3);
        prop_assert_eq!(get(&a.outputs()[0]), get(&b.outputs()[0]));
    }

    #[test]
    fn partitions_are_in_order_zero_copy_windows(df in arb_frame(), nparts in 1usize..12) {
        let pf = PartitionedFrame::from_frame(&df, nparts);
        prop_assert!(pf.npartitions() >= 1 && pf.npartitions() <= nparts);
        prop_assert_eq!(pf.nrows(), df.nrows());
        // The partitions cover the rows in order: each starts where the
        // previous one ended, and the last ends at the frame's end.
        let mut next = 0;
        for (i, part) in pf.partitions.iter().enumerate() {
            let (start, end) = pf.meta.range(i);
            prop_assert_eq!(start, next);
            prop_assert_eq!(part.as_ref(), &df.slice(start, end - start));
            for (name, src) in df.iter() {
                let view = part.column(name).unwrap();
                prop_assert!(view.shares_buffer(src), "{} of partition {} is a copy", name, i);
            }
            next = end;
        }
        prop_assert_eq!(next, df.nrows());
    }
}
