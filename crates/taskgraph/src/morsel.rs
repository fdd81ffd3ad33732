//! Morsel-driven intra-task parallelism (DESIGN.md §15).
//!
//! The partition-parallel scheduler balances load only at partition
//! granularity: a skewed partitioning (one partition holding most of the
//! rows) serializes the whole stage behind the worker that claims the
//! giant partition. Following the morsel-driven execution model of
//! HyPer (Leis et al., SIGMOD 2014), this module splits a kernel's row
//! range into cache-sized **morsels** (~256 KiB of payload) published on
//! a shared [`StealDeque`]: the owning worker drains morsels from the
//! front while *idle* pool workers donate their capacity as helper
//! threads stealing from the back. Per-morsel partial results are folded
//! **in morsel-index order**, so the merged result is deterministic
//! regardless of how many helpers joined or which morsels they stole.
//!
//! Integration is two thread-local installs (no signature changes down
//! the kernel stack):
//!
//! * each pool worker installs an [`engage`] context carrying
//!   [`ExecOptions::morsel_bytes`](crate::scheduler::ExecOptions::morsel_bytes)
//!   and the pool's shared [`HelperBudget`]; the budget tracks how many
//!   workers are parked on the empty ready queue,
//! * kernels call [`run_rows`] around their hot loops; it returns `None`
//!   when morsels are disabled (`morsel_bytes == 0`, or the range fits a
//!   single morsel) so the caller falls back to its legacy whole-slice
//!   path — bit-identical to pre-morsel behaviour.
//!
//! Helpers are **elastic**: the owner re-checks the budget at every
//! morsel boundary and spawns another helper the moment a pool worker
//! goes idle, so capacity freed by short tasks flows to the straggler
//! mid-stage instead of only at stage start. Every morsel claim also
//! polls the governed cancellation token ([`crate::govern`]), keeping
//! cancellation latency bounded by one morsel even inside helper
//! threads, and morsel counts feed the process telemetry registry.

use std::cell::RefCell;
use std::ops::Range;
use std::sync::atomic::{AtomicBool, AtomicIsize, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};

use crate::govern::{self, CancelToken};

/// Default morsel size in payload bytes (`engine.morsel_bytes`).
///
/// 256 KiB ≈ half a typical per-core L2: one morsel's input stream plus
/// the kernel's accumulator state stay cache-resident while a stolen
/// morsel is still coarse enough to amortize the claim (one relaxed
/// `fetch_add` + one CAS) and the helper-spawn cost over ~32 K rows.
pub const DEFAULT_MORSEL_BYTES: usize = 256 * 1024;

/// Upper bound on helper threads one stage will spawn. Donated capacity
/// comes from parked pool workers, so this only guards against a
/// pathological budget; real pools stay well below it.
const MAX_HELPERS: usize = 64;

/// Rows per morsel for a row of `row_bytes` under a `morsel_bytes`
/// budget. Zero `morsel_bytes` disables splitting entirely.
pub fn morsel_rows(row_bytes: usize, morsel_bytes: usize) -> usize {
    if morsel_bytes == 0 {
        usize::MAX
    } else {
        (morsel_bytes / row_bytes.max(1)).max(1)
    }
}

// ---------------------------------------------------------------------------
// Work-stealing deque over a morsel index space
// ---------------------------------------------------------------------------

/// A fixed-size work-stealing deque over morsel indices `0..len`.
///
/// The owner claims from the front, thieves from the back. Unlike the
/// Chase-Lev deque this one never reallocates and never spins on a
/// contended slot: `front`/`back` are advisory cursors that may pass
/// each other near exhaustion, and a per-slot CAS flag is the single
/// source of truth for who won a morsel. Each claim loop advances its
/// cursor on every iteration, so every call terminates after at most
/// `len` failed CASes and **every slot is claimed exactly once** across
/// all participants (the loom model in `tests/loom_models.rs` checks
/// this exhaustively).
pub struct StealDeque {
    len: usize,
    /// Next index the owner will try (grows up).
    front: AtomicUsize,
    /// Next index thieves will try (grows down; negative = exhausted).
    back: AtomicIsize,
    /// Claim flags: the slot belongs to whoever flips it first.
    claimed: Vec<AtomicBool>,
    /// Successful claims so far (for `remaining`).
    taken: AtomicUsize,
}

impl StealDeque {
    /// A deque over morsel indices `0..len`.
    pub fn new(len: usize) -> StealDeque {
        StealDeque {
            len,
            front: AtomicUsize::new(0),
            back: AtomicIsize::new(len as isize - 1),
            claimed: (0..len).map(|_| AtomicBool::new(false)).collect(),
            taken: AtomicUsize::new(0),
        }
    }

    /// How many morsels the deque was built over.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the deque was built over zero morsels.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    fn try_claim(&self, i: usize) -> bool {
        let won = self.claimed[i]
            .compare_exchange(false, true, Ordering::AcqRel, Ordering::Acquire)
            .is_ok();
        if won {
            self.taken.fetch_add(1, Ordering::Relaxed);
        }
        won
    }

    /// Claim the next morsel from the front (owner side).
    pub fn claim_front(&self) -> Option<usize> {
        // eda-lint: allow(EDA-L6) each iteration consumes one morsel index; bounded by deque length
        loop {
            let i = self.front.fetch_add(1, Ordering::Relaxed);
            if i >= self.len {
                return None;
            }
            if self.try_claim(i) {
                return Some(i);
            }
        }
    }

    /// Steal the next morsel from the back (helper side).
    pub fn claim_back(&self) -> Option<usize> {
        // eda-lint: allow(EDA-L6) each iteration consumes one morsel index; bounded by deque length
        loop {
            let i = self.back.fetch_sub(1, Ordering::Relaxed);
            if i < 0 {
                return None;
            }
            let i = i as usize;
            if i < self.len && self.try_claim(i) {
                return Some(i);
            }
        }
    }

    /// Morsels not yet claimed (advisory: may be stale by the time the
    /// caller acts on it).
    pub fn remaining(&self) -> usize {
        self.len - self.taken.load(Ordering::Relaxed).min(self.len)
    }
}

// ---------------------------------------------------------------------------
// Idle-worker capacity budget
// ---------------------------------------------------------------------------

/// Tracks how many pool workers are parked on the empty ready queue,
/// i.e. how much capacity a running stage may *donate* to helpers.
///
/// Workers mark themselves idle around the blocking ready-queue receive;
/// a stage acquires one permit per helper it spawns and the helper
/// releases it on exit. The count may dip negative transiently (a parked
/// worker whose permit was taken wakes up for a new task before the
/// helper finishes) — morsels are small, so the oversubscription window
/// is bounded by one morsel's work.
#[derive(Debug, Default)]
pub struct HelperBudget {
    idle: AtomicIsize,
}

impl HelperBudget {
    /// A budget with no idle capacity.
    pub fn new() -> HelperBudget {
        HelperBudget::default()
    }

    /// Mark one worker as parked on the ready queue.
    pub fn enter_idle(&self) {
        self.idle.fetch_add(1, Ordering::Relaxed);
    }

    /// Mark one worker as running again.
    pub fn exit_idle(&self) {
        self.idle.fetch_sub(1, Ordering::Relaxed);
    }

    /// Take one permit if any idle capacity remains.
    pub fn try_acquire(&self) -> bool {
        let mut cur = self.idle.load(Ordering::Relaxed);
        loop {
            if cur <= 0 {
                return false;
            }
            match self.idle.compare_exchange_weak(
                cur,
                cur - 1,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => return true,
                Err(observed) => cur = observed,
            }
        }
    }

    /// Return a permit taken by [`HelperBudget::try_acquire`].
    pub fn release(&self) {
        self.idle.fetch_add(1, Ordering::Relaxed);
    }

    /// Current idle-capacity estimate (may be negative transiently).
    pub fn idle_now(&self) -> isize {
        self.idle.load(Ordering::Relaxed)
    }
}

// ---------------------------------------------------------------------------
// Thread-local morsel context
// ---------------------------------------------------------------------------

#[derive(Clone)]
struct Ctx {
    morsel_bytes: usize,
    budget: Option<Arc<HelperBudget>>,
}

thread_local! {
    /// Morsel context of the run that owns this thread, installed by
    /// [`engage`] around the worker loop (pool) or the dispatch loop
    /// (inline execution). Kernels read it through [`run_rows`] without
    /// any plumbing through the task-graph closures.
    static CTX: RefCell<Option<Ctx>> = const { RefCell::new(None) };
}

/// Install a morsel context on this thread for the duration of the
/// returned guard. `morsel_bytes == 0` still installs (and disables
/// splitting); `budget` is the pool's shared idle-capacity tracker, or
/// `None` when no helpers may be spawned (tasks run on the calling thread).
pub fn engage(morsel_bytes: usize, budget: Option<Arc<HelperBudget>>) -> EngageGuard {
    let prev = CTX.with(|c| c.replace(Some(Ctx { morsel_bytes, budget })));
    EngageGuard { prev }
}

/// Restores the previously-installed morsel context on drop.
pub struct EngageGuard {
    prev: Option<Ctx>,
}

impl Drop for EngageGuard {
    fn drop(&mut self) {
        let prev = self.prev.take();
        CTX.with(|c| *c.borrow_mut() = prev);
    }
}

/// The `morsel_bytes` in effect on this thread (0 when disengaged).
pub fn engaged_bytes() -> usize {
    CTX.with(|c| c.borrow().as_ref().map_or(0, |ctx| ctx.morsel_bytes))
}

// ---------------------------------------------------------------------------
// The morsel stage driver
// ---------------------------------------------------------------------------

/// Run `map` over `0..nrows` split into cache-sized morsels, folding the
/// per-morsel results with `fold` **in morsel-index order**.
///
/// Returns `None` — telling the caller to run its legacy whole-slice
/// path — when no morsel context is engaged, `morsel_bytes` is zero, or
/// the whole range fits in one morsel. Otherwise the calling thread
/// drains morsels from the front of a [`StealDeque`] while elastically
/// spawning scoped helper threads (one per idle pool worker, re-checked
/// at every morsel boundary) that steal from the back. Helpers inherit
/// the caller's governed cancellation token; every claim polls it, so a
/// fired token stops the stage within one morsel and the (partial) fold
/// is discarded by the scheduler's usual cancelled-run classification.
///
/// Determinism: the fold order is the morsel index order, fixed by
/// `nrows` and `morsel_bytes` alone — worker count, helper count, and
/// steal interleavings cannot change the merged result.
pub fn run_rows<T, M, F>(nrows: usize, row_bytes: usize, map: M, mut fold: F) -> Option<T>
where
    T: Send + Sync,
    M: Fn(Range<usize>) -> T + Sync,
    F: FnMut(T, T) -> T,
{
    let ctx = CTX.with(|c| c.borrow().clone())?;
    let per = morsel_rows(row_bytes, ctx.morsel_bytes);
    if per >= nrows || nrows == 0 {
        return None;
    }
    let nm = nrows.div_ceil(per);
    let deque = StealDeque::new(nm);
    let token = govern::current_token();
    let results: Vec<OnceLock<T>> = (0..nm).map(|_| OnceLock::new()).collect();
    let stolen = AtomicUsize::new(0);

    let run_morsel = |i: usize| {
        let start = i * per;
        let end = (start + per).min(nrows);
        let out = map(start..end);
        // Slots are claimed exactly once, so the set cannot collide; if
        // it ever did, dropping the duplicate is sound (first write wins).
        let _ = results[i].set(out);
    };
    let cancelled = || token.as_ref().is_some_and(CancelToken::is_cancelled);

    std::thread::scope(|scope| {
        let mut helpers = 0usize;
        while let Some(i) = deque.claim_front() {
            if cancelled() {
                break;
            }
            // Elastic donation: park-state changes since the last
            // boundary turn into helpers now, while there is still more
            // than the morsel we are about to run left to share.
            while helpers < MAX_HELPERS
                && deque.remaining() > 1
                && ctx.budget.as_ref().is_some_and(|b| b.try_acquire())
            {
                helpers += 1;
                let deque = &deque;
                let stolen = &stolen;
                let run_morsel = &run_morsel;
                let budget = ctx.budget.clone();
                let token = token.clone();
                scope.spawn(move || {
                    let _current = token.map(govern::set_current);
                    while let Some(j) = deque.claim_back() {
                        if govern::interrupted() {
                            break;
                        }
                        run_morsel(j);
                        stolen.fetch_add(1, Ordering::Relaxed);
                    }
                    if let Some(b) = budget {
                        b.release();
                    }
                });
            }
            run_morsel(i);
        }
    });

    let registry = crate::metrics::global();
    if registry.enabled() {
        registry.morsels_split_total.add(nm as u64);
        registry.morsels_stolen_total.add(stolen.load(Ordering::Relaxed) as u64);
    }

    // Deterministic index-order fold. Under cancellation some slots may
    // be empty; the partial fold is discarded upstream, so skipping the
    // holes (rather than erroring) keeps this path panic-free.
    let mut acc: Option<T> = None;
    // eda-lint: allow(EDA-L6) folds one already-computed partial per morsel
    for cell in results {
        if let Some(part) = cell.into_inner() {
            acc = Some(match acc {
                Some(a) => fold(a, part),
                None => part,
            });
        }
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn morsel_rows_bounds() {
        assert_eq!(morsel_rows(8, 0), usize::MAX);
        assert_eq!(morsel_rows(8, DEFAULT_MORSEL_BYTES), 32 * 1024);
        assert_eq!(morsel_rows(0, 1024), 1024);
        assert_eq!(morsel_rows(4096, 1024), 1);
    }

    #[test]
    fn deque_claims_every_slot_exactly_once() {
        let d = StealDeque::new(17);
        let mut seen = vec![false; 17];
        loop {
            let front = d.claim_front();
            let back = d.claim_back();
            if front.is_none() && back.is_none() {
                break;
            }
            for i in [front, back].into_iter().flatten() {
                assert!(!seen[i], "slot {i} claimed twice");
                seen[i] = true;
            }
        }
        assert!(seen.iter().all(|&s| s), "unclaimed slots: {seen:?}");
        assert_eq!(d.remaining(), 0);
    }

    #[test]
    fn deque_concurrent_exactly_once() {
        let d = StealDeque::new(1000);
        let total = AtomicUsize::new(0);
        std::thread::scope(|s| {
            s.spawn(|| {
                while d.claim_front().is_some() {
                    total.fetch_add(1, Ordering::Relaxed);
                }
            });
            for _ in 0..3 {
                s.spawn(|| {
                    while d.claim_back().is_some() {
                        total.fetch_add(1, Ordering::Relaxed);
                    }
                });
            }
        });
        assert_eq!(total.load(Ordering::Relaxed), 1000);
    }

    #[test]
    fn run_rows_disabled_without_context() {
        assert_eq!(run_rows(1_000_000, 8, |r| r.len(), |a, b| a + b), None);
    }

    #[test]
    fn run_rows_disabled_at_zero_bytes() {
        let _g = engage(0, None);
        assert_eq!(run_rows(1_000_000, 8, |r| r.len(), |a, b| a + b), None);
    }

    #[test]
    fn run_rows_single_morsel_falls_back() {
        let _g = engage(DEFAULT_MORSEL_BYTES, None);
        // 100 rows of 8 bytes fit one morsel: caller keeps legacy path.
        assert_eq!(run_rows(100, 8, |r| r.len(), |a, b| a + b), None);
    }

    #[test]
    fn run_rows_covers_every_row_in_order() {
        let _g = engage(1024, None); // 128 rows/morsel at 8 B/row
        let got = run_rows(
            10_000,
            8,
            |r| vec![r],
            |mut a: Vec<Range<usize>>, b| {
                a.extend(b);
                a
            },
        )
        .expect("morsel path engaged");
        assert_eq!(got.len(), 10_000usize.div_ceil(128));
        assert_eq!(got.first().map(|r| r.start), Some(0));
        assert_eq!(got.last().map(|r| r.end), Some(10_000));
        for w in got.windows(2) {
            assert_eq!(w[0].end, w[1].start, "fold out of index order: {w:?}");
        }
    }

    #[test]
    fn run_rows_sum_matches_serial() {
        let _g = engage(256, None);
        let n = 100_003usize;
        let got: u64 = run_rows(
            n,
            8,
            |r| r.map(|i| i as u64).sum::<u64>(),
            |a: u64, b| a + b,
        )
        .expect("morsel path engaged");
        assert_eq!(got, (0..n as u64).sum::<u64>());
    }

    #[test]
    fn run_rows_uses_helpers_when_budget_allows() {
        let budget = Arc::new(HelperBudget::new());
        for _ in 0..3 {
            budget.enter_idle();
        }
        let _g = engage(64, Some(Arc::clone(&budget)));
        let n = 50_000usize;
        let got: u64 = run_rows(
            n,
            8,
            |r| r.map(|i| i as u64).sum::<u64>(),
            |a: u64, b| a + b,
        )
        .expect("morsel path engaged");
        assert_eq!(got, (0..n as u64).sum::<u64>());
        // Helpers released their permits on exit.
        assert_eq!(budget.idle_now(), 3);
    }

    #[test]
    fn run_rows_stops_on_cancellation() {
        let token = CancelToken::new();
        token.cancel();
        let _t = govern::set_current(token);
        let _g = engage(64, None);
        let ran = AtomicUsize::new(0);
        let _ = run_rows(
            100_000,
            8,
            |r| {
                ran.fetch_add(1, Ordering::Relaxed);
                r.len()
            },
            |a, b| a + b,
        );
        // The owner checks the token after each claim: at most the first
        // claim's morsel runs before the stage stops.
        assert!(ran.load(Ordering::Relaxed) <= 1, "ran {} morsels", ran.load(Ordering::Relaxed));
    }

    #[test]
    fn budget_acquire_release_round_trip() {
        let b = HelperBudget::new();
        assert!(!b.try_acquire());
        b.enter_idle();
        assert!(b.try_acquire());
        assert!(!b.try_acquire());
        b.release();
        assert!(b.try_acquire());
        b.exit_idle();
        assert_eq!(b.idle_now(), -1);
    }
}
