//! Cooperative-interruption probe for hot kernels.
//!
//! `eda-stats` is a dependency-free kernel crate, but its kernels run
//! inside governed scheduler tasks that can be cancelled mid-flight
//! (`eda-taskgraph::govern`). Rather than depending on the scheduler,
//! the crate exposes a process-wide probe slot: the runtime layer
//! registers a check function once ([`register`]), and kernels poll
//! [`interrupted`] every [`CHECK_INTERVAL`] elements, bailing early
//! when it fires. The partial result a bailed kernel
//! returns is discarded by the scheduler (the task is recorded
//! `Cancelled`/`TimedOut`), so correctness never depends on it.
//!
//! With nothing registered the probe is a single lock-free load
//! returning `false`, so standalone kernel use pays essentially nothing.

use std::sync::OnceLock;

/// The registered probe: write-once, then lock-free to read.
static PROBE: OnceLock<fn() -> bool> = OnceLock::new();

/// How many elements a kernel processes between probes. Chosen so the
/// probe overhead is invisible (one call per ~4k elements) while
/// cancellation latency stays well under a millisecond for any kernel.
pub const CHECK_INTERVAL: usize = 4096;

/// Register the interruption probe. Only the first registration in a
/// process takes effect (later ones are ignored), so a probe observed
/// once stays valid forever — kernels never race a change.
pub fn register(probe: fn() -> bool) {
    let _ = PROBE.set(probe);
}

/// Whether the current task has been asked to stop. `false` when no
/// probe is registered (standalone kernel use).
#[inline]
pub fn interrupted() -> bool {
    PROBE.get().is_some_and(|probe| probe())
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use std::cell::Cell;

    thread_local! {
        /// Per-thread interruption flag for tests: registering a global
        /// probe would leak into sibling tests running in the same
        /// process, so the test probe consults this thread-local
        /// instead.
        pub static TEST_INTERRUPT: Cell<bool> = const { Cell::new(false) };
    }

    thread_local! {
        /// When `Some(k)`, the `k`-th poll from now sets
        /// [`TEST_INTERRUPT`]: lets a test interrupt a kernel at a chosen
        /// poll instead of before it starts.
        pub static TEST_POLLS_LEFT: Cell<Option<usize>> = const { Cell::new(None) };
    }

    thread_local! {
        /// Polls this thread has made since [`polled`] last reset it.
        pub static TEST_POLLS: Cell<usize> = const { Cell::new(0) };
    }

    /// The probe test code registers: interrupted iff this thread's
    /// flag is set (directly, or by the poll countdown reaching zero).
    pub fn test_probe() -> bool {
        TEST_POLLS.with(|n| n.set(n.get() + 1));
        if let Some(left) = TEST_POLLS_LEFT.with(Cell::take) {
            match left.saturating_sub(1) {
                0 => TEST_INTERRUPT.with(|f| f.set(true)),
                left => TEST_POLLS_LEFT.with(|p| p.set(Some(left))),
            }
        }
        TEST_INTERRUPT.with(Cell::get)
    }

    /// Run `kernel` with the probe firing at its `fire_at`-th poll, and
    /// return its result with the number of polls it made — so a test
    /// sees both where the kernel stopped and that it polled no further.
    pub fn polled<T>(fire_at: usize, kernel: impl FnOnce() -> T) -> (T, usize) {
        register(test_probe);
        TEST_INTERRUPT.with(|f| f.set(false));
        TEST_POLLS.with(|n| n.set(0));
        TEST_POLLS_LEFT.with(|p| p.set(Some(fire_at)));
        let out = kernel();
        TEST_POLLS_LEFT.with(|p| p.set(None));
        TEST_INTERRUPT.with(|f| f.set(false));
        (out, TEST_POLLS.with(Cell::get))
    }

    #[test]
    fn probe_is_consulted_per_thread() {
        register(test_probe);
        assert!(!interrupted());
        TEST_INTERRUPT.with(|f| f.set(true));
        assert!(interrupted());
        TEST_INTERRUPT.with(|f| f.set(false));
        assert!(!interrupted());
    }
}
