//! Partitioned dataframes and the chunk-size precompute stage.
//!
//! The paper hit a Dask issue: repartitioning needs chunk sizes at
//! *graph construction* time, but a delayed array doesn't know them
//! (§5.2, "Dask graph fails to build"). Their fix — ours too — is a
//! precompute stage that materializes the chunk metadata **before** the
//! lazy graph is built, then feeds the known sizes into graph
//! construction.
//!
//! [`ChunkMeta`] is that precomputed metadata; [`PartitionedFrame`] is the
//! chunked dataframe whose partitions become source nodes of a
//! [`TaskGraph`].

use std::sync::Arc;

use eda_dataframe::DataFrame;

use crate::graph::{un, NodeId, Payload, TaskGraph};
use crate::key::TaskKey;

/// Chunk-size metadata, precomputed before graph construction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChunkMeta {
    /// Cumulative row offsets: `offsets[i]` is the first row of partition
    /// `i`, and the last offset is the total row count, so there is one
    /// more offset than partitions. Stored at precompute time so
    /// [`ChunkMeta::range`] is O(1).
    pub offsets: Vec<usize>,
}

impl ChunkMeta {
    /// Precompute metadata for splitting `df` into `npartitions` chunks.
    /// This is the stage that runs *before* the lazy graph exists.
    pub fn precompute(df: &DataFrame, npartitions: usize) -> ChunkMeta {
        let n = npartitions.max(1);
        let total = df.nrows();
        if total == 0 {
            return ChunkMeta { offsets: vec![0, 0] };
        }
        let chunk = total.div_ceil(n);
        let mut offsets = vec![0];
        let mut start = 0;
        while start < total {
            start += chunk.min(total - start);
            offsets.push(start);
        }
        ChunkMeta { offsets }
    }

    /// Number of partitions.
    pub fn npartitions(&self) -> usize {
        self.offsets.len().saturating_sub(1)
    }

    /// Total rows across the partitions: the last offset.
    pub fn total_rows(&self) -> usize {
        self.offsets.last().copied().unwrap_or(0)
    }

    /// Half-open row range of partition `i` (empty, at the end, past the
    /// last one). O(1): reads the cumulative offsets stored at
    /// precompute time.
    pub fn range(&self, i: usize) -> (usize, usize) {
        match self.offsets.get(i..=i + 1) {
            Some(&[start, end]) => (start, end),
            _ => (self.total_rows(), self.total_rows()),
        }
    }
}

/// A dataframe split into row-wise partitions, each `Arc`-shared so graph
/// source nodes can hand them out without copying.
#[derive(Debug, Clone)]
pub struct PartitionedFrame {
    /// The partitions.
    pub partitions: Vec<Arc<DataFrame>>,
    /// The precomputed chunk metadata the partitions were built from.
    pub meta: ChunkMeta,
    /// Identity of the underlying dataset, used to key source tasks so two
    /// plot calls over the same frame share partition sources.
    pub dataset_id: u64,
}

impl PartitionedFrame {
    /// Split `df` according to precomputed metadata. Each partition is a
    /// zero-copy window over `df`'s column buffers — O(columns) pointer
    /// bumps per partition, never a row copy.
    pub fn from_meta(df: &DataFrame, meta: ChunkMeta) -> PartitionedFrame {
        let mut partitions = Vec::with_capacity(meta.npartitions());
        for i in 0..meta.npartitions() {
            let (start, end) = meta.range(i);
            partitions.push(Arc::new(df.slice(start, end - start)));
        }
        PartitionedFrame {
            partitions,
            meta,
            // Fingerprint, not a process counter: re-partitioning the same
            // frame in a later call reproduces the same dataset id, so
            // source TaskKeys — and everything derived from them — line up
            // across calls and the cross-call result cache can hit.
            dataset_id: df.fingerprint(),
        }
    }

    /// Precompute chunk sizes and split in one step.
    pub fn from_frame(df: &DataFrame, npartitions: usize) -> PartitionedFrame {
        let meta = ChunkMeta::precompute(df, npartitions);
        PartitionedFrame::from_meta(df, meta)
    }

    /// Number of partitions.
    pub fn npartitions(&self) -> usize {
        self.partitions.len()
    }

    /// Total rows across partitions.
    pub fn nrows(&self) -> usize {
        self.meta.total_rows()
    }

    /// Install one source node per partition into `graph`, returning their
    /// node ids. Keys derive from `(dataset_id, partition index)`, so
    /// repeated calls for the same frame share the same source nodes.
    pub fn source_nodes(&self, graph: &mut TaskGraph) -> Vec<NodeId> {
        self.partitions
            .iter()
            .enumerate()
            .map(|(i, p)| {
                // The key covers the chunk layout, not just the index: the
                // same dataset cut into a different number of partitions
                // yields different partition contents and must not dedupe.
                let key = TaskKey::leaf(
                    "partition",
                    TaskKey::params(&(self.dataset_id, self.meta.npartitions(), i)),
                );
                graph.value("partition", key, Arc::clone(p))
            })
            .collect()
    }
}

/// The frame a partition source's payload holds.
pub fn payload_frame(p: &Payload) -> &DataFrame {
    un::<Arc<DataFrame>>(p)
}

#[cfg(test)]
mod tests {
    use super::*;
    use eda_dataframe::Column;

    fn frame(n: usize) -> DataFrame {
        DataFrame::new(vec![(
            "x".into(),
            Column::from_i64((0..n as i64).collect()),
        )])
        .unwrap()
    }

    /// Rows per partition, read off the offsets.
    fn sizes(meta: &ChunkMeta) -> Vec<usize> {
        (0..meta.npartitions()).map(|i| meta.range(i)).map(|(start, end)| end - start).collect()
    }

    #[test]
    fn precompute_sizes() {
        let meta = ChunkMeta::precompute(&frame(10), 3);
        assert_eq!(sizes(&meta), vec![4, 4, 2]);
        assert_eq!(meta.total_rows(), 10);
        assert_eq!(meta.range(0), (0, 4));
        assert_eq!(meta.range(2), (8, 10));
        assert_eq!(meta.range(3), (10, 10), "empty past the last partition");
    }

    #[test]
    fn precompute_empty_frame() {
        let meta = ChunkMeta::precompute(&frame(0), 4);
        assert_eq!(sizes(&meta), vec![0]);
        assert_eq!(meta.npartitions(), 1);
        assert_eq!(meta.total_rows(), 0);
    }

    #[test]
    fn precompute_more_partitions_than_rows() {
        let meta = ChunkMeta::precompute(&frame(2), 8);
        assert_eq!(sizes(&meta).iter().sum::<usize>(), 2);
        assert!(meta.npartitions() <= 2);
    }

    #[test]
    fn partitions_cover_frame() {
        let df = frame(17);
        let pf = PartitionedFrame::from_frame(&df, 4);
        assert_eq!(pf.nrows(), 17);
        let total: usize = pf.partitions.iter().map(|p| p.nrows()).sum();
        assert_eq!(total, 17);
        // First row of partition 1 continues where partition 0 ended.
        let p0_last = pf.partitions[0]
            .get(pf.partitions[0].nrows() - 1, "x")
            .unwrap();
        let p1_first = pf.partitions[1].get(0, "x").unwrap();
        assert_eq!(p0_last.as_f64().unwrap() + 1.0, p1_first.as_f64().unwrap());
    }

    #[test]
    fn precompute_offsets_are_cumulative() {
        let meta = ChunkMeta::precompute(&frame(10), 3);
        assert_eq!(meta.offsets, vec![0, 4, 8, 10]);
        let sizes = sizes(&meta);
        for (i, size) in sizes.iter().enumerate() {
            let naive: usize = sizes[..i].iter().sum();
            assert_eq!(meta.range(i), (naive, naive + size));
        }
        let empty = ChunkMeta::precompute(&frame(0), 4);
        assert_eq!(empty.range(0), (0, 0));
    }

    #[test]
    fn partitioning_performs_zero_row_copies() {
        // Acceptance: every partition column is an Arc-shared window over
        // the source frame's buffers — pointer identity, not value copies.
        let df = DataFrame::new(vec![
            ("x".into(), Column::from_i64((0..1000).collect())),
            (
                "y".into(),
                Column::from_opt_f64(
                    (0..1000).map(|i| (i % 7 != 0).then_some(i as f64)).collect(),
                ),
            ),
        ])
        .unwrap();
        let pf = PartitionedFrame::from_frame(&df, 8);
        assert_eq!(pf.npartitions(), 8);
        for part in &pf.partitions {
            for name in ["x", "y"] {
                let src = df.column(name).unwrap();
                let view = part.column(name).unwrap();
                assert!(view.shares_buffer(src), "partition column {name} must share the frame's buffer");
            }
        }
    }

    #[test]
    fn source_nodes_shared_across_calls() {
        let pf = PartitionedFrame::from_frame(&frame(8), 2);
        let mut g = TaskGraph::new();
        let first = pf.source_nodes(&mut g);
        let second = pf.source_nodes(&mut g);
        assert_eq!(first, second);
        assert_eq!(g.len(), 2);
        assert_eq!(g.cse_hits(), 2);
    }

    #[test]
    fn different_frames_do_not_share_sources() {
        let pf1 = PartitionedFrame::from_frame(&frame(8), 2);
        let pf2 = PartitionedFrame::from_frame(&frame(8), 2);
        let mut g = TaskGraph::new();
        let a = pf1.source_nodes(&mut g);
        let b = pf2.source_nodes(&mut g);
        assert_ne!(a, b);
        assert_eq!(g.len(), 4);
    }

    #[test]
    fn source_payloads_are_frames() {
        let pf = PartitionedFrame::from_frame(&frame(6), 3);
        let mut g = TaskGraph::new();
        let nodes = pf.source_nodes(&mut g);
        let r = crate::scheduler::run(&g, &nodes, 1, &Default::default());
        assert_eq!(payload_frame(&r.outputs()[0]).nrows(), 2);
    }
}
