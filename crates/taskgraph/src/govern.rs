//! Resource governance: cancellation tokens.
//!
//! One notebook user's `plot*` call may take the whole machine, but it
//! must still be stoppable. A [`CancelToken`] is a deadline observed
//! between scheduler dispatches and inside kernels every
//! `eda_stats::interrupt::CHECK_INTERVAL` elements (via the thread-local
//! [`interrupted`] probe), so `engine.run_deadline_ms` and
//! `engine.task_deadline_ms` stop in-flight work instead of merely
//! marking tasks timed out after the fact.
//!
//! Everything here is panic-free (the crate's clippy denies of unwrap,
//! expect, indexing and `panic!` hold it, see Cargo.toml): governance
//! code runs on the failure path, where a panic would turn a degraded
//! section into a dead process.

use std::cell::RefCell;
use std::time::{Duration, Instant};

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
}
