//! The lazy task graph.
//!
//! A [`TaskGraph`] is a DAG under construction: `eda-core` adds one task
//! per statistic/transform, and shared subcomputations collapse onto a
//! single node through structural-key deduplication. Nothing executes until
//! [`crate::scheduler::run`] is asked for specific output nodes — the
//! same lazy-then-optimize-then-execute flow Dask gives the paper.
//!
//! A task returns a typed value; the graph erases it to a [`Payload`] and
//! keeps, per task, the function that prices it ([`Task::price`]).

use std::collections::HashMap;
use std::mem::size_of;
use std::sync::Arc;

use eda_dataframe::HeapSize;

use crate::inject::{self, FaultInjector};
use crate::key::TaskKey;

/// Type-erased task result, shared between dependents without copying.
pub type Payload = Arc<dyn std::any::Any + Send + Sync>;

/// The function a task runs: inputs arrive in dependency order.
pub type TaskFn = Arc<dyn Fn(&[Payload]) -> Payload + Send + Sync>;

/// Borrow the `T` in a task's payload.
///
/// Panics on a payload of another type: the task that produced it fixes
/// its type, so a mismatch is a plan-construction bug or an injected
/// garbage payload ([`crate::inject`]), and the scheduler records the
/// panic as the failure of the task that read it.
#[expect(clippy::panic, reason = "a mismatch fails the reading task, which the scheduler catches")]
pub fn un<T: 'static>(p: &Payload) -> &T {
    match p.downcast_ref() {
        Some(value) => value,
        None => panic!("payload type mismatch: expected {}", std::any::type_name::<T>()),
    }
}

/// The bytes a payload of a task returning `T` holds: the value and what
/// it owns on the heap ([`Task::price`]). A payload of another type — an
/// injected garbage payload — holds nothing worth charging.
pub fn price<T: HeapSize + 'static>(p: &Payload) -> usize {
    p.downcast_ref::<T>().map_or(0, |value| size_of::<T>() + value.heap_bytes())
}

/// Index of a task within its graph.
pub type NodeId = usize;

/// One node of the DAG.
pub struct Task {
    /// Debug/profiling label (op name).
    pub name: String,
    /// Structural identity used for deduplication.
    pub key: TaskKey,
    /// Dependency nodes, in the order their payloads are passed to `run`.
    pub deps: Vec<NodeId>,
    /// The computation.
    pub run: TaskFn,
    /// What this task's payload holds, in bytes: the size of the type it
    /// returns plus its [`HeapSize`]. The scheduler prices each payload
    /// once, where the body returns, for the cache, the memory gauge and
    /// the trace alike.
    pub price: fn(&Payload) -> usize,
}

impl std::fmt::Debug for Task {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Task")
            .field("name", &self.name)
            .field("key", &self.key)
            .field("deps", &self.deps)
            .finish_non_exhaustive()
    }
}

/// A DAG of lazy tasks with insertion-time common-subexpression
/// elimination.
#[derive(Debug, Default)]
pub struct TaskGraph {
    tasks: Vec<Task>,
    by_key: HashMap<TaskKey, NodeId>,
    /// When `false`, structurally identical tasks are *not* merged — used
    /// by the sharing ablation benchmark.
    dedup: bool,
    /// Number of insertions answered by an existing node.
    cse_hits: usize,
    /// Optional fault-injection hook consulted by the executor at each
    /// dispatch (testing only; `None` in production graphs).
    fault: Option<Arc<FaultInjector>>,
}

impl TaskGraph {
    /// An empty graph with deduplication enabled. Adopts any fault
    /// injector armed on this thread via [`inject::arm`].
    pub fn new() -> Self {
        TaskGraph { dedup: true, fault: inject::armed(), ..Default::default() }
    }

    /// An empty graph with deduplication disabled (ablation mode: every
    /// insertion creates a fresh node, like building one graph per
    /// visualization).
    pub fn without_dedup() -> Self {
        TaskGraph { dedup: false, fault: inject::armed(), ..Default::default() }
    }

    /// Attach a fault injector explicitly.
    pub fn set_fault_injector(&mut self, injector: Arc<FaultInjector>) {
        self.fault = Some(injector);
    }

    /// Remove any attached fault injector.
    pub fn clear_fault_injector(&mut self) {
        self.fault = None;
    }

    /// The attached fault injector, if any.
    pub fn fault_injector(&self) -> Option<&Arc<FaultInjector>> {
        self.fault.as_ref()
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.tasks.len()
    }

    /// Whether the graph has no nodes.
    pub fn is_empty(&self) -> bool {
        self.tasks.is_empty()
    }

    /// How many insertions were deduplicated onto existing nodes.
    pub fn cse_hits(&self) -> usize {
        self.cse_hits
    }

    /// Borrow a task. Panics if this graph did not issue `id`.
    #[expect(clippy::indexing_slicing, reason = "node ids are indices this graph issued")]
    pub fn task(&self, id: NodeId) -> &Task {
        &self.tasks[id]
    }

    /// Add a source task (no dependencies). Returns the node id; when a
    /// task with the same key exists and dedup is on, that node is reused.
    pub fn source<T, F>(&mut self, name: &str, key: TaskKey, f: F) -> NodeId
    where
        T: HeapSize + Send + Sync + 'static,
        F: Fn() -> T + Send + Sync + 'static,
    {
        self.add_task(name, key, Vec::new(), move |_| f())
    }

    /// Add a source task that yields a clone of `value` (an `Arc`, say).
    pub fn value<T>(&mut self, name: &str, key: TaskKey, value: T) -> NodeId
    where
        T: HeapSize + Clone + Send + Sync + 'static,
    {
        self.source(name, key, move || value.clone())
    }

    /// Add a derived task whose key is computed from the op name, a
    /// parameter hash, and the dependency keys, so structurally identical
    /// work shares one node.
    pub fn op<T, F>(&mut self, name: &str, params: u64, deps: Vec<NodeId>, f: F) -> NodeId
    where
        T: HeapSize + Send + Sync + 'static,
        F: Fn(&[Payload]) -> T + Send + Sync + 'static,
    {
        let dep_keys: Vec<TaskKey> = deps.iter().map(|&d| self.task(d).key).collect();
        let key = TaskKey::derived(name, params, &dep_keys);
        self.add_task(name, key, deps, f)
    }

    fn add_task<T, F>(&mut self, name: &str, key: TaskKey, deps: Vec<NodeId>, f: F) -> NodeId
    where
        T: HeapSize + Send + Sync + 'static,
        F: Fn(&[Payload]) -> T + Send + Sync + 'static,
    {
        if self.dedup {
            if let Some(&existing) = self.by_key.get(&key) {
                self.cse_hits += 1;
                return existing;
            }
        }
        for &d in &deps {
            assert!(d < self.tasks.len(), "dependency {d} does not exist yet");
        }
        let id = self.tasks.len();
        let run: TaskFn = Arc::new(move |inputs: &[Payload]| -> Payload { Arc::new(f(inputs)) });
        self.tasks.push(Task { name: name.to_string(), key, deps, run, price: price::<T> });
        if self.dedup {
            self.by_key.insert(key, id);
        }
        id
    }

    /// Indegree (number of dependencies) per live node, zero for the
    /// rest; the executor counts these down as dependencies complete.
    pub fn live_indegrees(&self, live: &[bool]) -> Vec<usize> {
        self.tasks
            .iter()
            .enumerate()
            .map(|(i, t)| if live.get(i) == Some(&true) { t.deps.len() } else { 0 })
            .collect()
    }

    /// Live dependents (reverse edges) per node.
    pub fn live_dependents(&self, live: &[bool]) -> Vec<Vec<NodeId>> {
        let mut out = vec![Vec::new(); self.tasks.len()];
        for ((i, t), _) in self.tasks.iter().enumerate().zip(live).filter(|&(_, &live)| live) {
            for &d in &t.deps {
                if let Some(dependents) = out.get_mut(d) {
                    dependents.push(i);
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn get(p: &Payload) -> i64 {
        *un::<i64>(p)
    }

    #[test]
    fn builds_and_keys_dedup() {
        let mut g = TaskGraph::new();
        let a = g.source("a", TaskKey::leaf("a", 0), || 2i64);
        let a2 = g.source("a", TaskKey::leaf("a", 0), || 2i64);
        assert_eq!(a, a2);
        assert_eq!(g.len(), 1);
        assert_eq!(g.cse_hits(), 1);
    }

    #[test]
    fn without_dedup_duplicates() {
        let mut g = TaskGraph::without_dedup();
        let a = g.source("a", TaskKey::leaf("a", 0), || 2i64);
        let a2 = g.source("a", TaskKey::leaf("a", 0), || 2i64);
        assert_ne!(a, a2);
        assert_eq!(g.len(), 2);
        assert_eq!(g.cse_hits(), 0);
    }

    #[test]
    fn op_shares_structurally_identical_work() {
        let mut g = TaskGraph::new();
        let src = g.source("src", TaskKey::leaf("src", 0), || 10i64);
        // Two visualizations both need "double(src)".
        let d1 = g.op("double", 0, vec![src], |deps| get(&deps[0]) * 2);
        let d2 = g.op("double", 0, vec![src], |deps| get(&deps[0]) * 2);
        assert_eq!(d1, d2);
        // Different params: distinct node.
        let d3 = g.op("double", 1, vec![src], |deps| get(&deps[0]) * 2);
        assert_ne!(d1, d3);
    }

    #[test]
    fn dependents_and_indegrees() {
        let mut g = TaskGraph::new();
        let a = g.source("a", TaskKey::leaf("a", 0), || 1i64);
        let b = g.op("inc", 0, vec![a], |d| get(&d[0]) + 1);
        let c = g.op("dec", 0, vec![a], |d| get(&d[0]) - 1);
        let live = vec![true; g.len()];
        assert_eq!(g.live_indegrees(&live), vec![0, 1, 1]);
        let deps = g.live_dependents(&live);
        assert_eq!(deps[a], vec![b, c]);
        assert!(deps[b].is_empty());
    }

    #[test]
    #[should_panic(expected = "does not exist")]
    fn forward_dependency_panics() {
        let mut g = TaskGraph::new();
        g.add_task("bad", TaskKey::leaf("bad", 0), vec![5], |_| 0i64);
    }
}
