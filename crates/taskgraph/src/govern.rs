//! Resource governance: cancellation tokens and memory gauges.
//!
//! One notebook user's `plot*` call may take the whole machine, but it
//! must still be stoppable and bounded. This module makes a run a
//! *governable unit*:
//!
//! - [`CancelToken`] — cooperative cancellation observed between
//!   scheduler dispatches and inside kernels every
//!   `eda_stats::interrupt::CHECK_INTERVAL` elements (via the
//!   thread-local [`interrupted`] probe). A token can carry a
//!   deadline so `engine.run_deadline_ms` actually stops in-flight work
//!   instead of merely marking tasks timed out after the fact.
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
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

// ---------------------------------------------------------------------------
// Cancellation
// ---------------------------------------------------------------------------

/// Why a task observed cancellation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CancelReason {
    /// [`CancelToken::cancel`] was called (e.g. `AnalysisHandle::cancel`).
    Requested,
    /// The token's deadline passed (`engine.run_deadline_ms`).
    DeadlineExceeded,
}

impl std::fmt::Display for CancelReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CancelReason::Requested => write!(f, "cancellation requested"),
            CancelReason::DeadlineExceeded => write!(f, "run deadline exceeded"),
        }
    }
}

/// A cooperative cancellation token.
///
/// Clones share the same flag; [`capped`](CancelToken::capped) derives a
/// token that additionally expires at a deadline while still observing
/// the parent's flag. Checking is wait-free (one atomic load plus an
/// `Instant` comparison), cheap enough for kernel inner loops.
#[derive(Debug, Clone, Default)]
pub struct CancelToken {
    flag: Arc<AtomicBool>,
    deadline: Option<Instant>,
}

impl CancelToken {
    /// A fresh, un-cancelled token with no deadline.
    pub fn new() -> Self {
        Self::default()
    }

    /// A fresh token that auto-cancels after `budget`.
    pub fn with_deadline(budget: Duration) -> Self {
        CancelToken::new().capped(budget)
    }

    /// A token sharing this one's flag that additionally expires
    /// `budget` from now (the earlier of the two deadlines wins).
    pub fn capped(&self, budget: Duration) -> Self {
        let at = Instant::now().checked_add(budget);
        let deadline = match (self.deadline, at) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        };
        CancelToken { flag: Arc::clone(&self.flag), deadline }
    }

    /// Trip the flag. Every clone (and every capped child) observes it.
    pub fn cancel(&self) {
        self.flag.store(true, Ordering::Release);
    }

    /// Why this token is cancelled, or `None` if it is still live.
    /// An explicit request takes precedence over a deadline.
    pub fn cancelled(&self) -> Option<CancelReason> {
        if self.flag.load(Ordering::Acquire) {
            return Some(CancelReason::Requested);
        }
        match self.deadline {
            Some(at) if Instant::now() >= at => Some(CancelReason::DeadlineExceeded),
            _ => None,
        }
    }

    /// Whether the token has fired (request or deadline).
    pub fn is_cancelled(&self) -> bool {
        self.cancelled().is_some()
    }
}

thread_local! {
    /// Token of the task currently executing on this thread, installed by
    /// the scheduler around the task body so kernels deep in the call
    /// stack can poll it without plumbing.
    static CURRENT: RefCell<Option<CancelToken>> = const { RefCell::new(None) };

    /// Token armed for adoption by the next run constructed on this
    /// thread (mirrors `inject::arm` for fault plans): the public API
    /// builds its `ComputeContext` many layers below `AnalysisHandle`,
    /// so the handle arms the token here before calling in.
    static ARMED: RefCell<Option<CancelToken>> = const { RefCell::new(None) };
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

/// Arm `token` for adoption by the next governed run constructed on this
/// thread. Returns a guard that restores the previous armed token.
pub fn arm_token(token: CancelToken) -> TokenArmGuard {
    let prev = ARMED.with(|a| a.replace(Some(token)));
    TokenArmGuard { prev }
}

/// Restores the previously-armed token on drop.
pub struct TokenArmGuard {
    prev: Option<CancelToken>,
}

impl Drop for TokenArmGuard {
    fn drop(&mut self) {
        let prev = self.prev.take();
        ARMED.with(|a| *a.borrow_mut() = prev);
    }
}

/// The token armed on this thread, if any (does not consume it: every
/// run started while the guard lives adopts the same token).
pub fn armed_token() -> Option<CancelToken> {
    ARMED.with(|a| a.borrow().clone())
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
    fn token_cancel_propagates_to_clones_and_children() {
        let t = CancelToken::new();
        let clone = t.clone();
        let child = t.capped(Duration::from_secs(60));
        assert_eq!(t.cancelled(), None);
        clone.cancel();
        assert_eq!(t.cancelled(), Some(CancelReason::Requested));
        assert_eq!(child.cancelled(), Some(CancelReason::Requested));
    }

    #[test]
    fn token_deadline_fires() {
        let t = CancelToken::with_deadline(Duration::ZERO);
        assert_eq!(t.cancelled(), Some(CancelReason::DeadlineExceeded));
        // Explicit request beats deadline in the report.
        t.cancel();
        assert_eq!(t.cancelled(), Some(CancelReason::Requested));
    }

    #[test]
    fn capped_keeps_earlier_deadline() {
        let t = CancelToken::with_deadline(Duration::ZERO);
        let child = t.capped(Duration::from_secs(60));
        assert_eq!(child.cancelled(), Some(CancelReason::DeadlineExceeded));
    }

    #[test]
    fn current_token_probe() {
        assert!(!interrupted());
        let t = CancelToken::new();
        let guard = set_current(t.clone());
        assert!(!interrupted());
        t.cancel();
        assert!(interrupted());
        drop(guard);
        assert!(!interrupted());
    }

    #[test]
    fn current_guard_restores_previous() {
        let outer = CancelToken::new();
        outer.cancel();
        let _g1 = set_current(outer);
        assert!(interrupted());
        {
            let _g2 = set_current(CancelToken::new());
            assert!(!interrupted());
        }
        assert!(interrupted());
    }

    #[test]
    fn armed_token_is_adoptable_and_restored() {
        assert!(armed_token().is_none());
        let t = CancelToken::new();
        {
            let _g = arm_token(t.clone());
            let adopted = armed_token();
            assert!(adopted.is_some());
            t.cancel();
            assert!(adopted.is_some_and(|a| a.is_cancelled()));
        }
        assert!(armed_token().is_none());
    }

    #[test]
    fn wait_interrupted_returns_on_cancel() {
        let t = CancelToken::new();
        t.cancel();
        let _g = set_current(t);
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
