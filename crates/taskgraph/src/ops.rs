//! Map / tree-reduce combinators over partitioned data.
//!
//! These are the building blocks `eda-core` uses to phrase every statistic
//! as "map a mergeable kernel over partitions, tree-reduce the partials" —
//! the Dask-phase of the paper's two-phase pipeline. The combinators only
//! *build* graph nodes; nothing executes until an engine runs the graph.

use std::sync::Arc;

use eda_dataframe::DataFrame;

use crate::graph::{NodeId, Payload, TaskGraph};
use crate::partition::payload_frame;

/// Add one task per partition node applying `f` to the partition's frame.
///
/// `op` names the operation and `params` distinguishes configurations
/// (both feed the structural key, so identical maps dedupe).
#[expect(clippy::indexing_slicing, reason = "a task body gets one input per dependency")]
pub fn map_partitions<F>(
    graph: &mut TaskGraph,
    op: &str,
    params: u64,
    partitions: &[NodeId],
    f: F,
) -> Vec<NodeId>
where
    F: Fn(&DataFrame) -> Payload + Send + Sync + 'static,
{
    let f = Arc::new(f);
    partitions
        .iter()
        .map(|&p| {
            let f = Arc::clone(&f);
            graph.op(op, params, vec![p], move |inputs| {
                let frame = payload_frame(&inputs[0]);
                f(&frame)
            })
        })
        .collect()
}

/// Reduce `nodes` pairwise with `combine` until one node remains.
///
/// The combine tasks form a balanced binary tree, so a parallel executor
/// gets log-depth critical paths. A single input is returned unchanged;
/// empty input panics (callers always have ≥1 partition).
#[expect(clippy::indexing_slicing, reason = "a task body gets one input per dependency")]
pub fn tree_reduce<F>(
    graph: &mut TaskGraph,
    op: &str,
    params: u64,
    nodes: &[NodeId],
    combine: F,
) -> NodeId
where
    F: Fn(&Payload, &Payload) -> Payload + Send + Sync + 'static,
{
    assert!(!nodes.is_empty(), "tree_reduce of zero nodes");
    let combine = Arc::new(combine);
    let mut layer: Vec<NodeId> = nodes.to_vec();
    loop {
        if let [root] = *layer {
            return root;
        }
        let mut next = Vec::with_capacity(layer.len().div_ceil(2));
        for pair in layer.chunks(2) {
            match *pair {
                [a, b] => {
                    let c = Arc::clone(&combine);
                    next.push(
                        graph.op(op, params, vec![a, b], move |inputs| c(&inputs[0], &inputs[1])),
                    );
                }
                _ => next.extend_from_slice(pair),
            }
        }
        layer = next;
    }
}

/// Map partitions and tree-reduce in one call — the common shape of every
/// mergeable statistic.
pub fn map_reduce<M, C>(
    graph: &mut TaskGraph,
    op: &str,
    params: u64,
    partitions: &[NodeId],
    map: M,
    combine: C,
) -> NodeId
where
    M: Fn(&DataFrame) -> Payload + Send + Sync + 'static,
    C: Fn(&Payload, &Payload) -> Payload + Send + Sync + 'static,
{
    let mapped = map_partitions(graph, op, params, partitions, map);
    tree_reduce(graph, &format!("{op}/reduce"), params, &mapped, combine)
}

/// A finishing task over already-reduced (small) inputs — the "Pandas
/// phase" boundary: everything upstream is partition-parallel, the closure
/// here sees small aggregates only.
pub fn finish<F>(
    graph: &mut TaskGraph,
    op: &str,
    params: u64,
    deps: Vec<NodeId>,
    f: F,
) -> NodeId
where
    F: Fn(&[Payload]) -> Payload + Send + Sync + 'static,
{
    graph.op(op, params, deps, f)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::partition::PartitionedFrame;
    use crate::scheduler::{run, ExecOptions};
    use eda_dataframe::Column;

    fn frame(n: usize) -> DataFrame {
        DataFrame::new(vec![(
            "x".into(),
            Column::from_i64((0..n as i64).collect()),
        )])
        .unwrap()
    }

    fn sum_payload(p: &Payload) -> i64 {
        *p.downcast_ref::<i64>().expect("i64")
    }

    fn build_sum(
        graph: &mut TaskGraph,
        pf: &PartitionedFrame,
        params: u64,
    ) -> NodeId {
        let sources = pf.source_nodes(graph);
        map_reduce(
            graph,
            "sum_x",
            params,
            &sources,
            |df| {
                let s: i64 = df
                    .column("x")
                    .unwrap()
                    .numeric_nonnull()
                    .unwrap()
                    .iter()
                    .map(|&v| v as i64)
                    .sum();
                Arc::new(s)
            },
            |a, b| Arc::new(sum_payload(a) + sum_payload(b)),
        )
    }

    #[test]
    fn map_reduce_sums_partitions() {
        let pf = PartitionedFrame::from_frame(&frame(100), 7);
        let mut g = TaskGraph::new();
        let out = build_sum(&mut g, &pf, 0);
        let r = run(&g, &[out], 1, &ExecOptions::default());
        assert_eq!(sum_payload(&r.outputs()[0]), (0..100).sum::<i64>());
    }

    #[test]
    fn identical_map_reduce_dedupes_completely() {
        let pf = PartitionedFrame::from_frame(&frame(50), 4);
        let mut g = TaskGraph::new();
        let a = build_sum(&mut g, &pf, 0);
        let before = g.len();
        let b = build_sum(&mut g, &pf, 0);
        assert_eq!(a, b);
        assert_eq!(g.len(), before, "second build must add zero nodes");
    }

    #[test]
    fn different_params_do_not_dedupe() {
        let pf = PartitionedFrame::from_frame(&frame(50), 4);
        let mut g = TaskGraph::new();
        let a = build_sum(&mut g, &pf, 0);
        let b = build_sum(&mut g, &pf, 1);
        assert_ne!(a, b);
    }

    #[test]
    fn tree_reduce_single_node_passthrough() {
        let pf = PartitionedFrame::from_frame(&frame(10), 1);
        let mut g = TaskGraph::new();
        let out = build_sum(&mut g, &pf, 0);
        let r = run(&g, &[out], 1, &ExecOptions::default());
        assert_eq!(sum_payload(&r.outputs()[0]), 45);
    }

    #[test]
    fn tree_reduce_odd_number_of_nodes() {
        let pf = PartitionedFrame::from_frame(&frame(9), 3);
        let mut g = TaskGraph::new();
        let out = build_sum(&mut g, &pf, 0);
        let r = run(&g, &[out], 1, &ExecOptions::default());
        assert_eq!(sum_payload(&r.outputs()[0]), 36);
    }

    #[test]
    #[should_panic(expected = "zero nodes")]
    fn tree_reduce_empty_panics() {
        let mut g = TaskGraph::new();
        tree_reduce(&mut g, "x", 0, &[], |a, _| Arc::clone(a));
    }

    #[test]
    fn finish_runs_on_reduced_data() {
        let pf = PartitionedFrame::from_frame(&frame(20), 4);
        let mut g = TaskGraph::new();
        let sum = build_sum(&mut g, &pf, 0);
        let doubled = finish(&mut g, "double", 0, vec![sum], |d| {
            Arc::new(sum_payload(&d[0]) * 2)
        });
        let r = run(&g, &[doubled], 1, &ExecOptions::default());
        assert_eq!(sum_payload(&r.outputs()[0]), 2 * (0..20).sum::<i64>());
    }
}
