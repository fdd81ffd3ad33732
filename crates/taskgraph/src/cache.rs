//! Cross-call result cache: memoized task payloads keyed by
//! `(data fingerprint, TaskKey)`.
//!
//! The paper's single-graph optimization shares intermediates *within* one
//! EDA call; an interactive session is a sequence of calls over the same
//! frame, and without cross-call memory every `plot` re-sorts, re-buckets,
//! and re-ranks from scratch. Because task keys are structural (what is
//! computed) and the data's identity is an O(columns) fingerprint
//! (`eda_dataframe::DataFrame::fingerprint`, pointer + window + sample over
//! the zero-copy buffers), `(fingerprint, key)` fully determines a task's
//! payload — so a [`ResultCache`] can hand back last call's result
//! without running the task, and a copy-on-write mutation
//! (`Column::make_unique`) changes the fingerprint and naturally
//! invalidates every stale entry.
//!
//! The cache is byte-budgeted with LRU eviction: each entry carries its
//! payload's price — the bytes its task's [`crate::graph::Task::price`]
//! read off the value's `eda_dataframe::HeapSize` when the body returned —
//! inserts evict least-recently-used entries until the total fits, and an
//! entry larger than the whole budget is simply not admitted. A budget of
//! zero disables the cache entirely (every probe misses, inserts are
//! dropped), which the executor relies on for bit-identical uncached runs.
//!
//! Schedulers consult the cache before dispatch through a [`CacheHandle`]
//! (cache + the current run's data fingerprint) carried on
//! [`crate::scheduler::ExecOptions`]; only successful outcomes are ever
//! inserted, so `Failed`/`TimedOut`/injected-fault results cannot poison
//! later runs.

use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

use crate::graph::Payload;
use crate::key::TaskKey;

/// A byte-budgeted, LRU-evicting memo of task payloads, safe to share
/// across threads and runs.
pub struct ResultCache {
    budget_bytes: usize,
    inner: Mutex<Inner>,
    // Cumulative since construction, across every run that used this
    // cache (per-run deltas live in `ExecStats`).
    hits: AtomicUsize,
    misses: AtomicUsize,
    evictions: AtomicUsize,
    bytes_saved: AtomicUsize,
}

#[derive(Default)]
struct Inner {
    map: HashMap<(u64, TaskKey), Entry>,
    /// Monotonic access counter backing LRU order.
    tick: u64,
    total_bytes: usize,
}

struct Entry {
    payload: Payload,
    bytes: usize,
    last_used: u64,
}

impl std::fmt::Debug for ResultCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let inner = self.inner.lock();
        f.debug_struct("ResultCache")
            .field("budget_bytes", &self.budget_bytes)
            .field("entries", &inner.map.len())
            .field("total_bytes", &inner.total_bytes)
            .finish()
    }
}

impl ResultCache {
    /// A cache holding at most `budget_bytes` of estimated payload bytes.
    /// A budget of `0` disables the cache: probes always miss (without
    /// counting) and inserts are dropped.
    pub fn new(budget_bytes: usize) -> ResultCache {
        ResultCache {
            budget_bytes,
            inner: Mutex::new(Inner::default()),
            hits: AtomicUsize::new(0),
            misses: AtomicUsize::new(0),
            evictions: AtomicUsize::new(0),
            bytes_saved: AtomicUsize::new(0),
        }
    }

    /// The configured byte budget.
    pub fn budget_bytes(&self) -> usize {
        self.budget_bytes
    }

    /// Whether the cache admits anything at all.
    pub fn enabled(&self) -> bool {
        self.budget_bytes > 0
    }

    /// Look up the payload of `(fingerprint, key)`, refreshing its LRU
    /// position. Returns the payload and its estimated byte size.
    pub fn get(&self, fingerprint: u64, key: TaskKey) -> Option<(Payload, usize)> {
        if !self.enabled() {
            return None;
        }
        let mut inner = self.inner.lock();
        inner.tick += 1;
        let tick = inner.tick;
        match inner.map.get_mut(&(fingerprint, key)) {
            Some(entry) => {
                entry.last_used = tick;
                let found = (Arc::clone(&entry.payload), entry.bytes);
                drop(inner);
                self.hits.fetch_add(1, Ordering::Relaxed);
                self.bytes_saved.fetch_add(found.1, Ordering::Relaxed);
                Some(found)
            }
            None => {
                drop(inner);
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Whether `(fingerprint, key)` is held, without touching the entry:
    /// no hit or miss is counted and its LRU position stays put, so a
    /// planner may ask before it decides what to run and the hit rate
    /// still reports only what runs read.
    pub fn contains(&self, fingerprint: u64, key: TaskKey) -> bool {
        self.enabled() && self.inner.lock().map.contains_key(&(fingerprint, key))
    }

    /// Insert the payload of `(fingerprint, key)`, evicting
    /// least-recently-used entries until the budget holds. Returns how
    /// many entries were evicted. Oversized payloads (`bytes >` budget)
    /// are not admitted; re-inserting an existing key refreshes it.
    pub fn insert(&self, fingerprint: u64, key: TaskKey, payload: Payload, bytes: usize) -> usize {
        if !self.enabled() || bytes > self.budget_bytes {
            return 0;
        }
        let mut inner = self.inner.lock();
        inner.tick += 1;
        let tick = inner.tick;
        if let Some(old) = inner
            .map
            .insert((fingerprint, key), Entry { payload, bytes, last_used: tick })
        {
            inner.total_bytes -= old.bytes;
        }
        inner.total_bytes += bytes;
        let mut evicted = 0usize;
        while inner.total_bytes > self.budget_bytes {
            // O(n) LRU scan: entry counts are small (hundreds of
            // intermediates), and eviction only runs when over budget.
            let Some((&victim, _)) = inner
                .map
                .iter()
                .filter(|(&k, _)| k != (fingerprint, key))
                .min_by_key(|(_, e)| e.last_used)
            else {
                break;
            };
            let Some(entry) = inner.map.remove(&victim) else {
                break;
            };
            inner.total_bytes -= entry.bytes;
            evicted += 1;
        }
        drop(inner);
        if evicted > 0 {
            self.evictions.fetch_add(evicted, Ordering::Relaxed);
        }
        evicted
    }

    /// Number of cached entries.
    pub fn len(&self) -> usize {
        self.inner.lock().map.len()
    }

    /// Whether the cache holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Estimated bytes currently held.
    pub fn total_bytes(&self) -> usize {
        self.inner.lock().total_bytes
    }

    /// Drop every entry (counters are preserved).
    pub fn clear(&self) {
        let mut inner = self.inner.lock();
        inner.map.clear();
        inner.total_bytes = 0;
    }

    /// Cumulative hits since construction.
    pub fn hits(&self) -> usize {
        self.hits.load(Ordering::Relaxed)
    }

    /// Cumulative misses since construction.
    pub fn misses(&self) -> usize {
        self.misses.load(Ordering::Relaxed)
    }

    /// Cumulative evictions since construction.
    pub fn evictions(&self) -> usize {
        self.evictions.load(Ordering::Relaxed)
    }

    /// Cumulative estimated bytes served from cache since construction.
    pub fn bytes_saved(&self) -> usize {
        self.bytes_saved.load(Ordering::Relaxed)
    }
}

/// What a scheduler needs to consult the cache for one run: the shared
/// cache plus the fingerprint of the data this run computes over.
#[derive(Clone, Debug)]
pub struct CacheHandle {
    /// The shared cross-run cache.
    pub cache: Arc<ResultCache>,
    /// Fingerprint of the input data for this run; combined with each
    /// task's structural key to form the cache key.
    pub fingerprint: u64,
}

impl CacheHandle {
    /// Bundle a cache with the current run's data fingerprint.
    pub fn new(cache: Arc<ResultCache>, fingerprint: u64) -> CacheHandle {
        CacheHandle { cache, fingerprint }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn payload(v: i64) -> Payload {
        Arc::new(v)
    }

    fn key(n: u64) -> TaskKey {
        TaskKey::leaf("t", n)
    }

    #[test]
    fn get_after_insert_round_trips() {
        let c = ResultCache::new(1024);
        assert!(c.get(1, key(1)).is_none());
        c.insert(1, key(1), payload(42), 8);
        let (p, bytes) = c.get(1, key(1)).expect("hit");
        assert_eq!(*p.downcast_ref::<i64>().unwrap(), 42);
        assert_eq!(bytes, 8);
        assert_eq!(c.hits(), 1);
        assert_eq!(c.misses(), 1);
        assert_eq!(c.bytes_saved(), 8);
    }

    #[test]
    fn contains_counts_nothing_and_keeps_the_lru_order() {
        let c = ResultCache::new(100);
        c.insert(1, key(1), payload(1), 40);
        c.insert(1, key(2), payload(2), 40);
        assert!(c.contains(1, key(1)));
        assert!(!c.contains(1, key(3)));
        assert!(!c.contains(2, key(1)), "another fingerprint's entry");
        assert_eq!((c.hits(), c.misses(), c.bytes_saved()), (0, 0, 0));
        // Asking after key(1) left it the least recently used: a `get`
        // here would have made key(2) the victim instead.
        assert_eq!(c.insert(1, key(3), payload(3), 40), 1);
        assert!(!c.contains(1, key(1)), "key(1) was still the LRU entry");
        assert!(c.contains(1, key(2)) && c.contains(1, key(3)));
        assert!(!ResultCache::new(0).contains(1, key(1)));
    }

    #[test]
    fn fingerprint_partitions_the_keyspace() {
        let c = ResultCache::new(1024);
        c.insert(1, key(1), payload(10), 8);
        c.insert(2, key(1), payload(20), 8);
        assert_eq!(*c.get(1, key(1)).unwrap().0.downcast_ref::<i64>().unwrap(), 10);
        assert_eq!(*c.get(2, key(1)).unwrap().0.downcast_ref::<i64>().unwrap(), 20);
        assert!(c.get(3, key(1)).is_none());
    }

    #[test]
    fn lru_eviction_respects_budget() {
        let c = ResultCache::new(100);
        c.insert(1, key(1), payload(1), 40);
        c.insert(1, key(2), payload(2), 40);
        // Touch key(1) so key(2) is the LRU victim.
        assert!(c.get(1, key(1)).is_some());
        let evicted = c.insert(1, key(3), payload(3), 40);
        assert_eq!(evicted, 1);
        assert!(c.total_bytes() <= 100, "total {}", c.total_bytes());
        assert!(c.get(1, key(1)).is_some(), "recently used survives");
        assert!(c.get(1, key(2)).is_none(), "LRU entry evicted");
        assert!(c.get(1, key(3)).is_some());
        assert_eq!(c.evictions(), 1);
    }

    #[test]
    fn eviction_can_remove_several_entries() {
        let c = ResultCache::new(100);
        for i in 0..4 {
            c.insert(1, key(i), payload(i as i64), 25);
        }
        assert_eq!(c.len(), 4);
        let evicted = c.insert(1, key(99), payload(99), 75);
        assert_eq!(evicted, 3);
        assert_eq!(c.len(), 2);
        assert!(c.total_bytes() <= 100);
    }

    #[test]
    fn oversized_entries_not_admitted() {
        let c = ResultCache::new(10);
        assert_eq!(c.insert(1, key(1), payload(1), 100), 0);
        assert_eq!(c.len(), 0);
        // And never evicts what's there to make room for something that
        // cannot fit anyway.
        c.insert(1, key(2), payload(2), 5);
        c.insert(1, key(3), payload(3), 100);
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn zero_budget_disables_everything() {
        let c = ResultCache::new(0);
        assert!(!c.enabled());
        c.insert(1, key(1), payload(1), 0);
        assert!(c.get(1, key(1)).is_none());
        assert_eq!(c.len(), 0);
        // Disabled probes don't even count as misses.
        assert_eq!(c.misses(), 0);
    }

    #[test]
    fn reinsert_refreshes_in_place() {
        let c = ResultCache::new(100);
        c.insert(1, key(1), payload(1), 30);
        c.insert(1, key(1), payload(2), 50);
        assert_eq!(c.len(), 1);
        assert_eq!(c.total_bytes(), 50);
        assert_eq!(*c.get(1, key(1)).unwrap().0.downcast_ref::<i64>().unwrap(), 2);
    }

    #[test]
    fn clear_drops_entries_keeps_counters() {
        let c = ResultCache::new(100);
        c.insert(1, key(1), payload(1), 10);
        c.get(1, key(1));
        c.clear();
        assert!(c.is_empty());
        assert_eq!(c.total_bytes(), 0);
        assert_eq!(c.hits(), 1);
    }

    #[test]
    fn cache_is_shareable_across_threads() {
        let c = Arc::new(ResultCache::new(1 << 20));
        std::thread::scope(|s| {
            for t in 0..4 {
                let c = Arc::clone(&c);
                s.spawn(move || {
                    for i in 0..100 {
                        c.insert(t, key(i), payload(i as i64), 64);
                        c.get(t, key(i));
                    }
                });
            }
        });
        assert!(c.total_bytes() <= 1 << 20);
        assert!(c.hits() > 0);
    }
}
