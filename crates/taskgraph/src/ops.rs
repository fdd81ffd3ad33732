//! Map / tree-reduce combinators over partitioned data.
//!
//! These are the building blocks `eda-core` uses to phrase every statistic
//! as "map a mergeable kernel over partitions, tree-reduce the partials" —
//! the Dask-phase of the paper's two-phase pipeline. The combinators only
//! *build* graph nodes; nothing executes until an engine runs the graph.
//! Both are typed: a kernel returns its partial `T` and says how two
//! partials merge, and the combinators wrap, read and price the payloads.

use std::sync::Arc;

use eda_dataframe::{DataFrame, HeapSize};

use crate::graph::{un, NodeId, Payload, TaskGraph};
use crate::partition::payload_frame;

/// Reduce `nodes` pairwise until one node remains: each reduce task
/// clones its left input and `merge`s the right one into it.
///
/// The reduce tasks form a balanced binary tree, so a parallel executor
/// gets log-depth critical paths. A single input is returned unchanged;
/// empty input panics (callers always have ≥1 partition).
#[expect(clippy::indexing_slicing, reason = "a task body gets one input per dependency")]
pub fn tree_reduce<T, C>(
    graph: &mut TaskGraph,
    op: &str,
    params: u64,
    nodes: &[NodeId],
    merge: C,
) -> NodeId
where
    T: HeapSize + Clone + Send + Sync + 'static,
    C: Fn(&mut T, &T) + Send + Sync + 'static,
{
    assert!(!nodes.is_empty(), "tree_reduce of zero nodes");
    let merge = Arc::new(merge);
    let mut layer: Vec<NodeId> = nodes.to_vec();
    loop {
        if let [root] = *layer {
            return root;
        }
        let mut next = Vec::with_capacity(layer.len().div_ceil(2));
        for pair in layer.chunks(2) {
            match *pair {
                [a, b] => {
                    let merge = Arc::clone(&merge);
                    next.push(graph.op(op, params, vec![a, b], move |inputs| {
                        let mut acc = un::<T>(&inputs[0]).clone();
                        merge(&mut acc, un::<T>(&inputs[1]));
                        acc
                    }));
                }
                _ => next.extend_from_slice(pair),
            }
        }
        layer = next;
    }
}

/// Map every partition and tree-reduce the partials — the common shape of
/// every mergeable statistic. `map` gets a partition's frame and the
/// payloads of `extra` (nodes every map task also depends on, such as the
/// reduced moments a bin grid comes from); the reduce tasks are named
/// `<op>/reduce`.
#[expect(clippy::indexing_slicing, reason = "a task body gets one input per dependency")]
pub fn map_reduce<T, M, C>(
    graph: &mut TaskGraph,
    op: &str,
    params: u64,
    partitions: &[NodeId],
    extra: &[NodeId],
    map: M,
    merge: C,
) -> NodeId
where
    T: HeapSize + Clone + Send + Sync + 'static,
    M: Fn(&DataFrame, &[Payload]) -> T + Send + Sync + 'static,
    C: Fn(&mut T, &T) + Send + Sync + 'static,
{
    let map = Arc::new(map);
    let mapped: Vec<NodeId> = partitions
        .iter()
        .map(|&p| {
            let map = Arc::clone(&map);
            let deps = std::iter::once(p).chain(extra.iter().copied()).collect();
            graph.op(op, params, deps, move |inputs| map(payload_frame(&inputs[0]), &inputs[1..]))
        })
        .collect();
    tree_reduce(graph, &format!("{op}/reduce"), params, &mapped, merge)
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
        *un::<i64>(p)
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
            &[],
            |df, _| -> i64 {
                df.column("x")
                    .unwrap()
                    .numeric_nonnull()
                    .unwrap()
                    .iter()
                    .map(|&v| v as i64)
                    .sum()
            },
            |a, b| *a += b,
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
        tree_reduce(&mut g, "x", 0, &[], |_: &mut i64, _| {});
    }

    #[test]
    fn map_tasks_read_the_extra_dependencies() {
        let pf = PartitionedFrame::from_frame(&frame(20), 4);
        let mut g = TaskGraph::new();
        let sources = pf.source_nodes(&mut g);
        let offset = g.source("offset", crate::key::TaskKey::leaf("offset", 0), || 1000i64);
        let out = map_reduce(
            &mut g,
            "shifted_max",
            0,
            &sources,
            &[offset],
            |df, extra| {
                let values = df.column("x").unwrap().numeric_nonnull().unwrap();
                values.iter().copied().fold(f64::MIN, f64::max) as i64 + sum_payload(&extra[0])
            },
            |a, b| *a = (*a).max(*b),
        );
        assert_eq!(g.task(out).name, "shifted_max/reduce");
        let r = run(&g, &[out], 1, &ExecOptions::default());
        assert_eq!(sum_payload(&r.outputs()[0]), 1019);
    }
}
