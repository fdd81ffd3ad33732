//! Execution statistics.
//!
//! Every run reports what the scheduler actually did — how many tasks ran,
//! how many insertions were shared away, how many tasks the result cache
//! answered, wall time — so the paper driver's ablations can attribute
//! speedups to specific optimizations, and its timing can refuse a call
//! the cache served. Runs
//! executed with [`crate::scheduler::ExecOptions::trace`] additionally
//! carry a full per-task [`RunTrace`].

use std::sync::Arc;
use std::time::Duration;

use crate::trace::RunTrace;

/// Summary of one graph execution.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ExecStats {
    /// Tasks that executed and produced a payload.
    pub tasks_run: usize,
    /// Live nodes after dead-node pruning.
    pub live_nodes: usize,
    /// Total nodes in the graph.
    pub total_nodes: usize,
    /// Insertions answered by CSE during graph construction.
    pub cse_hits: usize,
    /// Configured worker count (with 1, tasks ran on the calling thread).
    pub workers: usize,
    /// Wall-clock execution time.
    pub elapsed: Duration,
    /// Tasks that panicked (the panic was isolated; the run continued).
    pub tasks_failed: usize,
    /// Tasks never run because an upstream dependency failed.
    pub tasks_skipped: usize,
    /// Tasks that finished but blew their per-task deadline.
    pub tasks_timed_out: usize,
    /// Tasks satisfied by the cross-call result cache without executing
    /// ([`crate::cache::ResultCache`]).
    pub cache_hits: usize,
    /// Cache probes that found nothing; the task then executed normally.
    pub cache_misses: usize,
    /// Entries evicted during this run to respect the cache byte budget.
    pub cache_evictions: usize,
    /// Payload bytes served from the cache instead of being recomputed:
    /// the sum of the hits' prices.
    pub cache_bytes_saved: usize,
    /// Tasks recorded `Cancelled` because the run's
    /// deadline ([`crate::govern::CancelToken`]) passed.
    pub tasks_cancelled: usize,
    /// Per-task spans, recorded only when the run was traced
    /// ([`crate::scheduler::ExecOptions::trace`]); `None` otherwise so
    /// untraced runs stay allocation-free.
    pub trace: Option<Arc<RunTrace>>,
}

impl ExecStats {
    /// Nodes skipped by dead-node pruning. Saturating: a caller that
    /// sums the stats of several runs over one graph can push
    /// `live_nodes` past `total_nodes`, and "no pruning" is the honest
    /// answer then — not an underflow panic.
    pub fn pruned(&self) -> usize {
        self.total_nodes.saturating_sub(self.live_nodes)
    }

    /// Whether every live task produced a payload.
    pub fn fully_succeeded(&self) -> bool {
        self.tasks_failed == 0
            && self.tasks_skipped == 0
            && self.tasks_timed_out == 0
            && self.tasks_cancelled == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pruned_counts() {
        let s = ExecStats { live_nodes: 7, total_nodes: 10, ..Default::default() };
        assert_eq!(s.pruned(), 3);
    }

    #[test]
    fn pruned_saturates_when_live_exceeds_total() {
        // Summing live counts across per-output runs counts a shared
        // dependency as "live" more than once.
        let s = ExecStats { live_nodes: 12, total_nodes: 10, ..Default::default() };
        assert_eq!(s.pruned(), 0);
    }
}
