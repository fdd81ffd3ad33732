//! Ingestion fan-out: independent chunk jobs on the graph executor.
//!
//! Chunked readers (the `eda-io` CSV pipeline) need a narrower contract
//! than a full task graph: N index-addressed jobs with no edges between
//! them, executed by [`crate::scheduler::run`] with the usual governance
//! (cancellation checked at every dispatch — i.e. at chunk boundaries —
//! memory budgets, tracing), results handed back in index order
//! regardless of completion interleaving.
//!
//! [`run_chunk_waves`] is the one shape: jobs executed in bounded waves
//! of `workers × wave_factor`, with a fold callback between waves and
//! payloads dropped as each wave retires. Peak memory is O(chunk × wave)
//! however long the stream is, which is what lets streaming statistics
//! run over data larger than RAM; a caller that keeps every payload
//! (building a frame is O(file) anyway) asks for a wave that holds them
//! all and pays for no barrier between waves.

use std::sync::Arc;

use crate::graph::{Payload, TaskGraph};
use crate::key::TaskKey;
use crate::outcome::TaskOutcome;
use crate::scheduler::{run, ExecOptions};

/// Summary of a wave-bounded ingest run.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct WaveStats {
    /// Waves dispatched (including a final short wave).
    pub waves: usize,
    /// Chunk jobs whose outcomes were delivered to the fold callback.
    pub tasks_delivered: usize,
    /// True when the fold callback stopped the run early.
    pub stopped_early: bool,
}

/// Run `count` independent chunk jobs on `workers` threads (the calling
/// thread itself when `workers <= 1`) in waves of `workers × wave_factor`;
/// `job(i)` produces chunk `i`'s payload. After each wave
/// `fold(first_index, outcomes)` receives its outcomes in index order;
/// returning `false` stops the run (error found, token fired, enough
/// data). Jobs run under the full [`ExecOptions`] contract: a fired
/// cancel token stops dispatching at the next chunk boundary, panics
/// isolate to their chunk, and the memory gauge prices every payload.
/// Payloads never outlive their wave unless the fold keeps them, so peak
/// memory is bounded by the wave size.
pub fn run_chunk_waves<F>(
    label: &str,
    count: usize,
    job: F,
    workers: usize,
    wave_factor: usize,
    opts: &ExecOptions,
    mut fold: impl FnMut(usize, Vec<TaskOutcome>) -> bool,
) -> WaveStats
where
    F: Fn(usize) -> Payload + Send + Sync + 'static,
{
    let job = Arc::new(job);
    let name = format!("ingest:{label}");
    let wave = workers.max(1).saturating_mul(wave_factor.max(1));
    let mut stats = WaveStats::default();
    let mut base = 0;
    while base < count {
        let n = wave.min(count - base);
        // Chunk payloads are positional per run, not content-addressed:
        // dedup off so the result cache can never alias two runs' chunks.
        let mut graph = TaskGraph::without_dedup();
        let outputs: Vec<_> = (base..base + n)
            .map(|index| {
                let job = Arc::clone(&job);
                graph.source(&name, TaskKey::leaf(&name, index as u64), move || job(index))
            })
            .collect();
        let result = run(&graph, &outputs, workers, opts);
        stats.waves += 1;
        stats.tasks_delivered += result.outcomes.len();
        if !fold(base, result.outcomes) {
            stats.stopped_early = true;
            break;
        }
        base += n;
    }
    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::govern::CancelToken;

    fn payload(v: usize) -> Payload {
        Arc::new(v)
    }

    fn as_usize(o: &TaskOutcome) -> Option<usize> {
        o.payload().and_then(|p| p.downcast_ref::<usize>()).copied()
    }

    /// Every outcome of a run, kept across its waves.
    fn collect<F>(count: usize, job: F, workers: usize, opts: &ExecOptions) -> Vec<TaskOutcome>
    where
        F: Fn(usize) -> Payload + Send + Sync + 'static,
    {
        let mut all = Vec::new();
        run_chunk_waves("t", count, job, workers, 2, opts, |base, outcomes| {
            assert_eq!(base, all.len(), "waves must arrive in index order");
            all.extend(outcomes);
            true
        });
        all
    }

    #[test]
    fn outcomes_in_index_order() {
        let outcomes = collect(16, |i| payload(i * 10), 4, &ExecOptions::default());
        let got: Vec<_> = outcomes.iter().map(|o| as_usize(o).unwrap()).collect();
        assert_eq!(got, (0..16).map(|i| i * 10).collect::<Vec<_>>());
    }

    #[test]
    fn one_worker_runs_chunks_on_the_calling_thread() {
        let caller = std::thread::current().id();
        let job = move |i| {
            assert_eq!(std::thread::current().id(), caller, "chunk {i} left the calling thread");
            payload(i)
        };
        let outcomes = collect(8, job, 1, &ExecOptions::default());
        assert_eq!(outcomes.len(), 8);
        assert!(outcomes.iter().all(|o| o.is_ok()), "a chunk failed: {outcomes:?}");
    }

    #[test]
    fn panicking_chunk_isolates() {
        let job = |i| {
            assert!(i != 3, "injected chunk failure");
            payload(i)
        };
        let outcomes = collect(8, job, 4, &ExecOptions::default());
        assert!(outcomes[3].is_failed());
        for (i, o) in outcomes.iter().enumerate() {
            if i != 3 {
                assert_eq!(as_usize(o), Some(i), "chunk {i} must survive chunk 3's panic");
            }
        }
    }

    #[test]
    fn fired_token_stops_at_chunk_boundary() {
        let token = CancelToken::new();
        token.cancel();
        let opts = ExecOptions { cancel: Some(token), ..ExecOptions::default() };
        let outcomes = collect(8, payload, 4, &opts);
        assert_eq!(outcomes.len(), 8);
        assert!(outcomes.iter().all(|o| o.is_failed()), "no chunk may run after cancel");
    }

    #[test]
    fn waves_deliver_contiguous_bases() {
        let mut bases = Vec::new();
        let stats = run_chunk_waves(
            "t",
            10,
            payload,
            2,
            2,
            &ExecOptions::default(),
            |base, outcomes| {
                bases.push((base, outcomes.len()));
                true
            },
        );
        assert_eq!(bases, vec![(0, 4), (4, 4), (8, 2)]);
        assert_eq!(stats, WaveStats { waves: 3, tasks_delivered: 10, stopped_early: false });
    }

    #[test]
    fn wave_fold_can_stop_early() {
        let stats =
            run_chunk_waves("t", 100, payload, 2, 1, &ExecOptions::default(), |_, _| false);
        assert!(stats.stopped_early);
        assert_eq!(stats.waves, 1);
        assert_eq!(stats.tasks_delivered, 2);
    }
}
