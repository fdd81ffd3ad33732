//! Resource governance: cancellation tokens and memory gauges.
//!
//! One notebook user's `plot*` call may take the whole machine, but it
//! must still be stoppable and bounded. This module makes a run a
//! *governable unit*:
//!
//! - [`CancelToken`] — a deadline observed between scheduler dispatches
//!   and inside kernels every `eda_stats::interrupt::CHECK_INTERVAL`
//!   elements (via the thread-local [`interrupted`] probe), so
//!   `engine.run_deadline_ms` and `engine.task_deadline_ms` stop
//!   in-flight work instead of merely marking tasks timed out after the
//!   fact.
//! - [`MemoryGauge`] — per-run payload-byte accounting against a budget.
//!   A task whose output would blow the budget fails with
//!   `TaskFailure::BudgetExceeded` and degrades its section; the process
//!   never OOMs.
//!
//! Everything here is panic-free (the crate's clippy denies of unwrap,
//! expect, indexing and `panic!` hold it, see Cargo.toml): governance
//! code runs on the failure path, where a panic would turn a degraded
//! section into a dead process.

use std::cell::RefCell;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

// ---------------------------------------------------------------------------
// Cancellation
// ---------------------------------------------------------------------------

/// Longest budget a token honours: ~136 years, past any run and short
/// enough that adding it to `Instant::now()` cannot overflow.
const MAX_BUDGET: Duration = Duration::from_secs(u32::MAX as u64);

/// A cooperative cancellation token: a deadline.
///
/// The two cancellation sources are `engine.run_deadline_ms` (one token
/// per run) and `engine.task_deadline_ms` (a token per task attempt,
/// [`capped`](CancelToken::capped) by the run's). Checking is one
/// `Instant` comparison, cheap enough for kernel inner loops.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CancelToken {
    deadline: Instant,
}

impl CancelToken {
    /// A token that fires `budget` from now.
    pub fn with_deadline(budget: Duration) -> Self {
        let now = Instant::now();
        CancelToken { deadline: now.checked_add(budget.min(MAX_BUDGET)).unwrap_or(now) }
    }

    /// A token that fires at the earlier of this one's deadline and
    /// `budget` from now.
    pub fn capped(&self, budget: Duration) -> Self {
        CancelToken { deadline: self.deadline.min(Self::with_deadline(budget).deadline) }
    }

    /// Whether the deadline has passed.
    pub fn is_cancelled(&self) -> bool {
        Instant::now() >= self.deadline
    }
}

thread_local! {
    /// Token of the task currently executing on this thread, installed by
    /// the scheduler around the task body so kernels deep in the call
    /// stack can poll it without plumbing.
    static CURRENT: RefCell<Option<CancelToken>> = const { RefCell::new(None) };
}

/// Install `token` as this thread's current task token for the duration
/// of the returned guard (the previous token is restored on drop).
pub fn set_current(token: CancelToken) -> CurrentGuard {
    let prev = CURRENT.with(|c| c.replace(Some(token)));
    CurrentGuard { prev }
}

/// Restores the previously-current token on drop.
pub struct CurrentGuard {
    prev: Option<CancelToken>,
}

impl Drop for CurrentGuard {
    fn drop(&mut self) {
        let prev = self.prev.take();
        CURRENT.with(|c| *c.borrow_mut() = prev);
    }
}

/// Whether the current task's token (if any) has fired. This is the
/// kernels' probe: they call it every few thousand elements and bail
/// early; the scheduler then discards the partial result.
/// Always `false` outside a governed task.
pub fn interrupted() -> bool {
    CURRENT.with(|c| c.borrow().as_ref().is_some_and(CancelToken::is_cancelled))
}

/// Sleep in small steps until the current token fires or `max` elapses.
/// Used by `inject::FaultMode::Wedge` to model a stuck task that still
/// observes cancellation, and usable by any cooperative wait.
pub fn wait_interrupted(max: Duration) {
    let start = Instant::now();
    let step = Duration::from_millis(1);
    while start.elapsed() < max && !interrupted() {
        std::thread::sleep(step);
    }
}

// ---------------------------------------------------------------------------
// Memory accounting
// ---------------------------------------------------------------------------

/// A charge the gauge refused.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BudgetDenial {
    /// The run's byte budget.
    pub budget: usize,
    /// Bytes already charged when the denial happened.
    pub used: usize,
    /// The charge that was refused.
    pub requested: usize,
}

#[derive(Debug, Default)]
struct GaugeInner {
    budget: usize,
    used: AtomicUsize,
    peak: AtomicUsize,
    denials: AtomicUsize,
}

/// Per-run payload-byte accounting against `engine.memory_budget_bytes`.
///
/// This is the task-scoped sibling of the bench binaries' tracking
/// allocator: instead of hooking the global allocator (too invasive for
/// library use), the scheduler charges each task's *output payload*
/// estimate as it completes. Charges are never released mid-run — the
/// gauge bounds the run's cumulative materialized footprint, which is
/// what grows without bound on wide frames.
#[derive(Debug, Clone, Default)]
pub struct MemoryGauge {
    inner: Arc<GaugeInner>,
}

impl MemoryGauge {
    /// A gauge with the given byte budget. A zero budget refuses every
    /// non-zero charge (callers gate on config instead of passing 0).
    pub fn new(budget: usize) -> Self {
        MemoryGauge { inner: Arc::new(GaugeInner { budget, ..Default::default() }) }
    }

    /// Charge `bytes` against the budget, or report the denial without
    /// charging anything.
    pub fn try_charge(&self, bytes: usize) -> Result<(), BudgetDenial> {
        let mut used = self.inner.used.load(Ordering::Relaxed);
        loop {
            let next = used.saturating_add(bytes);
            if next > self.inner.budget {
                self.inner.denials.fetch_add(1, Ordering::Relaxed);
                return Err(BudgetDenial {
                    budget: self.inner.budget,
                    used,
                    requested: bytes,
                });
            }
            match self.inner.used.compare_exchange_weak(
                used,
                next,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => {
                    self.inner.peak.fetch_max(next, Ordering::Relaxed);
                    return Ok(());
                }
                Err(observed) => used = observed,
            }
        }
    }

    /// Bytes currently charged.
    pub fn used(&self) -> usize {
        self.inner.used.load(Ordering::Relaxed)
    }

    /// High-water mark of charged bytes.
    pub fn peak(&self) -> usize {
        self.inner.peak.load(Ordering::Relaxed)
    }

    /// The byte budget this gauge enforces.
    pub fn budget(&self) -> usize {
        self.inner.budget
    }

    /// How many charges have been refused.
    pub fn denials(&self) -> usize {
        self.inner.denials.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn token_deadline_fires() {
        assert!(CancelToken::with_deadline(Duration::ZERO).is_cancelled());
        assert!(!CancelToken::with_deadline(Duration::from_secs(60)).is_cancelled());
        assert!(!CancelToken::with_deadline(Duration::MAX).is_cancelled());
    }

    #[test]
    fn capped_keeps_earlier_deadline() {
        let fired = CancelToken::with_deadline(Duration::ZERO);
        assert!(fired.capped(Duration::from_secs(60)).is_cancelled());
        let live = CancelToken::with_deadline(Duration::from_secs(60));
        assert!(!live.capped(Duration::from_secs(120)).is_cancelled());
        assert!(live.capped(Duration::ZERO).is_cancelled());
    }

    #[test]
    fn current_token_probe() {
        assert!(!interrupted());
        let guard = set_current(CancelToken::with_deadline(Duration::from_millis(100)));
        assert!(!interrupted());
        std::thread::sleep(Duration::from_millis(120));
        assert!(interrupted());
        drop(guard);
        assert!(!interrupted());
    }

    #[test]
    fn current_guard_restores_previous() {
        let _g1 = set_current(CancelToken::with_deadline(Duration::ZERO));
        assert!(interrupted());
        {
            let _g2 = set_current(CancelToken::with_deadline(Duration::from_secs(60)));
            assert!(!interrupted());
        }
        assert!(interrupted());
    }

    #[test]
    fn wait_interrupted_returns_on_cancel() {
        let _g = set_current(CancelToken::with_deadline(Duration::ZERO));
        let start = Instant::now();
        wait_interrupted(Duration::from_secs(5));
        assert!(start.elapsed() < Duration::from_secs(1));
    }

    #[test]
    fn gauge_charges_and_denies() {
        let g = MemoryGauge::new(100);
        assert!(g.try_charge(60).is_ok());
        assert!(g.try_charge(40).is_ok());
        let denial = g.try_charge(1);
        assert_eq!(denial, Err(BudgetDenial { budget: 100, used: 100, requested: 1 }));
        assert_eq!(g.used(), 100);
        assert_eq!(g.peak(), 100);
        assert_eq!(g.denials(), 1);
    }

    #[test]
    fn gauge_is_shared_across_clones() {
        let g = MemoryGauge::new(10);
        let h = g.clone();
        assert!(h.try_charge(10).is_ok());
        assert!(g.try_charge(1).is_err());
    }
}
