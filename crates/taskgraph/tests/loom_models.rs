//! Concurrency model tests for the scheduler/cache core.
//!
//! Written against the `loom` API (`loom::model`, `loom::thread`) so the
//! same source runs under the real model checker when it is available;
//! the vendored stand-in stress-iterates each model on real threads with
//! staggered starts. Each model asserts the invariants that hold under
//! *every* interleaving:
//!
//! * the byte-budgeted LRU cache never exceeds its budget, never loses
//!   consistency between `len()` and `total_bytes()`, and a `get` only
//!   returns payloads that some `insert` actually admitted;
//! * the pool scheduler's work-queue claims and the cache-plan pruning
//!   agree: concurrent runs over a shared cache always produce the same
//!   payload values, every run's accounting adds up, and cache hits
//!   never serve a payload from a different fingerprint.

// Test code asserts freely; the package-level unwrap/expect deny
// targets shipped code.
#![allow(clippy::unwrap_used, clippy::expect_used, clippy::indexing_slicing, clippy::panic)]

use std::sync::Arc;

use eda_taskgraph::scheduler::{run, ExecOptions};
use eda_taskgraph::{CacheHandle, NodeId, Payload, ResultCache, TaskGraph, TaskKey};
use loom::sync::atomic::{AtomicUsize, Ordering};

fn int(v: i64) -> Payload {
    Arc::new(v)
}

fn get(p: &Payload) -> i64 {
    *p.downcast_ref::<i64>().expect("i64 payload")
}

/// a -> (inc, dbl) -> sum; returns (graph, sum node).
fn diamond() -> (TaskGraph, NodeId) {
    let mut g = TaskGraph::new();
    let a = g.source("a", TaskKey::leaf("a", 0), || int(10));
    let b = g.op("inc", 0, vec![a], |d| int(get(&d[0]) + 1));
    let c = g.op("dbl", 0, vec![a], |d| int(get(&d[0]) * 2));
    let d = g.op("sum", 0, vec![b, c], |d| int(get(&d[0]) + get(&d[1])));
    (g, d)
}

/// Three writers race inserts against one reader under a budget that
/// forces evictions; the budget and len/bytes consistency must hold at
/// every observation point, not just at quiescence.
#[test]
fn cache_insert_evict_hit_under_byte_budget() {
    loom::model(|| {
        // Budget fits ~4 of the 100-byte entries; 3 writers × 4 keys
        // guarantees continuous eviction pressure.
        let cache = Arc::new(ResultCache::new(400));
        let mut handles = Vec::new();
        for writer in 0..3u64 {
            let cache = Arc::clone(&cache);
            handles.push(loom::thread::spawn(move || {
                for k in 0..4u64 {
                    let key = TaskKey::leaf("model", writer * 10 + k);
                    let evicted = cache.insert(7, key, int((writer * 10 + k) as i64), 100);
                    assert!(evicted <= 4, "evicting more than the cache can hold");
                    // Mid-run observation: the budget is a hard cap.
                    assert!(cache.total_bytes() <= 400);
                }
            }));
        }
        {
            let cache = Arc::clone(&cache);
            handles.push(loom::thread::spawn(move || {
                for k in 0..12u64 {
                    let key = TaskKey::leaf("model", k % 4);
                    if let Some((payload, bytes)) = cache.get(7, key) {
                        // Hits only ever serve admitted entries.
                        assert_eq!(bytes, 100);
                        assert_eq!(get(&payload), (k % 4) as i64);
                    }
                    loom::thread::yield_now();
                }
            }));
        }
        for h in handles {
            h.join().expect("model thread");
        }
        assert!(cache.total_bytes() <= 400);
        assert_eq!(cache.total_bytes(), cache.len() * 100, "len/bytes agree");
        assert!(cache.len() <= 4);
        // A wrong-fingerprint probe must never hit.
        assert!(cache.get(8, TaskKey::leaf("model", 0)).is_none());
    });
}

/// An insert that re-admits an existing key refreshes in place: the
/// budget holds and the entry count never double-counts the key.
#[test]
fn cache_concurrent_reinsert_same_key_stays_consistent() {
    loom::model(|| {
        let cache = Arc::new(ResultCache::new(250));
        let key = TaskKey::leaf("shared", 1);
        let mut handles = Vec::new();
        for t in 0..2i64 {
            let cache = Arc::clone(&cache);
            handles.push(loom::thread::spawn(move || {
                for round in 0..4 {
                    cache.insert(1, key, int(t * 100 + round), 100);
                    assert!(cache.total_bytes() <= 250);
                }
            }));
        }
        for h in handles {
            h.join().expect("model thread");
        }
        let (payload, bytes) = cache.get(1, key).expect("key survives re-insertion");
        assert_eq!(bytes, 100);
        let v = get(&payload);
        assert!((0..=3).contains(&v) || (100..=103).contains(&v), "value {v} from neither writer");
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.total_bytes(), 100);
    });
}

/// Two pool runs race over one shared cache: work-queue claims inside
/// each scheduler and cache-plan pruning across them must agree — both
/// runs return the correct payloads no matter which run populates the
/// cache first, and per-run accounting (hits + executed = live) holds.
#[test]
fn scheduler_claims_vs_cache_plan_pruning() {
    loom::model(|| {
        let cache = Arc::new(ResultCache::new(1 << 16));
        let total_ran = Arc::new(AtomicUsize::new(0));
        let mut handles = Vec::new();
        for _ in 0..2 {
            let cache = Arc::clone(&cache);
            let total_ran = Arc::clone(&total_ran);
            handles.push(loom::thread::spawn(move || {
                let (g, out) = diamond();
                let opts = ExecOptions {
                    cache: Some(CacheHandle::new(cache, 0xF00D)),
                    ..Default::default()
                };
                let r = run(&g, &[out], 2, &opts);
                assert_eq!(get(r.outcomes[0].payload().expect("sum ok")), 31);
                // Whatever the interleaving, every live node is either
                // served by the plan or executed exactly once.
                assert_eq!(r.stats.cache_hits + r.stats.tasks_run, r.stats.live_nodes);
                total_ran.fetch_add(r.stats.tasks_run, Ordering::SeqCst);
            }));
        }
        for h in handles {
            h.join().expect("model thread");
        }
        // The racing runs may interleave arbitrarily, but they can never
        // execute more than 2× the cold graph, and the cache ends up
        // with at most the three derived nodes.
        assert!(total_ran.load(Ordering::SeqCst) <= 8);
        assert!(cache.len() <= 3);
        // A third, quiet run sees a fully warm cache.
        let (g, out) = diamond();
        let opts = ExecOptions {
            cache: Some(CacheHandle::new(Arc::clone(&cache), 0xF00D)),
            ..Default::default()
        };
        let r = run(&g, &[out], 2, &opts);
        assert_eq!(get(r.outcomes[0].payload().expect("sum ok")), 31);
        assert_eq!(r.stats.cache_hits, 1, "terminal hit satisfies the cone");
        assert_eq!(r.stats.tasks_run, 0);
    });
}

/// Claim exclusivity: with a zero-budget (disabled) cache, racing pool
/// runs fall back to plain work-queue scheduling and each run executes
/// its full live set exactly once — no double claims, no lost nodes.
#[test]
fn scheduler_work_queue_claims_each_node_once() {
    loom::model(|| {
        let counter = Arc::new(AtomicUsize::new(0));
        let mut g = TaskGraph::new();
        let c2 = Arc::clone(&counter);
        let src = g.source("src", TaskKey::leaf("src", 0), move || {
            c2.fetch_add(1, Ordering::SeqCst);
            int(5)
        });
        let shared = g.op("expensive", 0, vec![src], |d| int(get(&d[0]) * 10));
        let u1 = g.op("plus1", 0, vec![shared], |d| int(get(&d[0]) + 1));
        let u2 = g.op("plus2", 0, vec![shared], |d| int(get(&d[0]) + 2));
        let r = run(&g, &[u1, u2], 3, &ExecOptions::default());
        assert_eq!(get(r.outcomes[0].payload().expect("u1")), 51);
        assert_eq!(get(r.outcomes[1].payload().expect("u2")), 52);
        assert_eq!(counter.load(Ordering::SeqCst), 1, "source claimed twice");
        assert_eq!(r.stats.tasks_run, 4);
    });
}

/// Degradation invariant under concurrency: a panicking kernel inside a
/// racing pool run stays isolated — the healthy sibling branch completes
/// in every interleaving and the failure is attributed to the root.
#[test]
fn pool_panic_isolation_holds_under_stress() {
    loom::model(|| {
        let mut g = TaskGraph::new();
        let a = g.source("a", TaskKey::leaf("a", 0), || int(10));
        let bad = g.op("bad", 0, vec![a], |_| -> Payload { panic!("kernel exploded") });
        let c = g.op("dbl", 0, vec![a], |d| int(get(&d[0]) * 2));
        let d = g.op("sum", 0, vec![bad, c], |d| int(get(&d[0]) + get(&d[1])));
        let r = run(&g, &[d, c], 2, &ExecOptions::default());
        let err = r.outcomes[0].error().expect("sum failed");
        assert_eq!(err.root_cause().1, "bad");
        assert_eq!(get(r.outcomes[1].payload().expect("dbl ok")), 20);
        assert_eq!(r.stats.tasks_failed, 1);
        assert_eq!(r.stats.tasks_skipped, 1);
    });
}

/// A cache hit whose dependency is still live through a sibling path
/// (here: `inc` is warm, but its input `a` stays live because `dbl` is
/// cold) must not be re-dispatched when that dependency completes — the
/// hit's dependents were already released at pre-completion, so a second
/// release double-decrements indegrees. Deterministic regression for the
/// partially-warm-cache topology the racing model below can produce.
#[test]
fn pool_hit_with_live_dependency_is_not_redispatched() {
    let cache = Arc::new(ResultCache::new(1 << 16));
    let opts = ExecOptions {
        cache: Some(CacheHandle::new(Arc::clone(&cache), 0xF00D)),
        ..Default::default()
    };
    // Warm only the `inc` branch.
    let mut g = TaskGraph::new();
    let a = g.source("a", TaskKey::leaf("a", 0), || int(10));
    let b = g.op("inc", 0, vec![a], |d| int(get(&d[0]) + 1));
    run(&g, &[b], 2, &opts);
    // The full diamond now sees `inc` as a hit while `a` is live via `dbl`.
    let (g, out) = diamond();
    let r = run(&g, &[out], 2, &opts);
    assert_eq!(get(r.outcomes[0].payload().expect("sum ok")), 31);
    assert_eq!(r.stats.cache_hits, 1, "inc served from cache");
    assert_eq!(r.stats.cache_hits + r.stats.tasks_run, r.stats.live_nodes);
}
