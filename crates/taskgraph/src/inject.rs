//! Fault-injection harness for scheduler hardening.
//!
//! Production EDA runs hit panicking kernels, wedged I/O, and corrupted
//! intermediates; this module manufactures those failures on demand so
//! the fault-tolerance machinery can be tested deterministically, end to
//! end, through the public API.
//!
//! A [`FaultInjector`] holds a list of [`FaultPlan`]s. The executor
//! consults the injector (when one is attached to the graph) at every
//! task dispatch; a matching plan makes that dispatch panic, stall, or
//! return a garbage payload instead of/around running the real task.
//!
//! Graphs built deep inside `eda-core` can be reached via thread-local
//! arming: [`arm`] stores an injector that the next [`TaskGraph::new`]
//! on this thread adopts, so tests can say "make the `moments:price`
//! kernel panic inside `create_report`" without touching core's
//! internals. The injector travels *with the graph*, so pool workers on
//! other threads see it too.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

use crate::graph::NodeId;
#[cfg(doc)]
use crate::graph::TaskGraph;

/// What a matching dispatch does instead of running normally.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FaultMode {
    /// Panic with an "injected fault" message (models a kernel bug).
    Panic,
    /// Sleep for the given duration before running the real task
    /// (models a wedged kernel; combine with a deadline to exercise
    /// timeouts).
    Stall(Duration),
    /// Return a payload of a type no consumer expects (models a
    /// corrupted intermediate; dependents blow up on downcast).
    Garbage,
    /// Wedge the task: spin (observing the current
    /// [`crate::govern::CancelToken`]) for up to the given duration
    /// before running the real task. Unlike [`FaultMode::Stall`], a
    /// wedged task wakes as soon as its token fires, which is exactly
    /// what the deadline-reclamation machinery needs to be tested
    /// against.
    Wedge(Duration),
}

/// Which dispatches a plan applies to.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FaultTarget {
    /// The Nth task dispatch (0-based) counted across the injector's
    /// lifetime, whatever that task is.
    Nth(usize),
    /// A specific node id.
    Node(NodeId),
    /// Every task whose name contains this substring.
    NameContains(String),
}

/// One injection rule.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultPlan {
    /// Which dispatches to sabotage.
    pub target: FaultTarget,
    /// How to sabotage them.
    pub mode: FaultMode,
}

/// A set of fault plans plus dispatch bookkeeping. Shared (`Arc`)
/// between the arming test, the graph, and every scheduler thread.
#[derive(Debug, Default)]
pub struct FaultInjector {
    plans: Vec<FaultPlan>,
    dispatched: AtomicUsize,
    triggered: AtomicUsize,
}

impl FaultInjector {
    /// Build an injector from explicit plans.
    pub fn new(plans: Vec<FaultPlan>) -> Arc<Self> {
        Arc::new(FaultInjector { plans, ..Default::default() })
    }

    /// Convenience: panic every task whose name contains `substr`.
    pub fn panic_on(substr: &str) -> Arc<Self> {
        Self::new(vec![FaultPlan {
            target: FaultTarget::NameContains(substr.to_string()),
            mode: FaultMode::Panic,
        }])
    }

    /// Convenience: stall tasks whose name contains `substr` for `d`.
    pub fn stall_on(substr: &str, d: Duration) -> Arc<Self> {
        Self::new(vec![FaultPlan {
            target: FaultTarget::NameContains(substr.to_string()),
            mode: FaultMode::Stall(d),
        }])
    }

    /// Convenience: wedge tasks whose name contains `substr` for up to
    /// `max` (they wake early if their cancel token fires).
    pub fn wedge_on(substr: &str, max: Duration) -> Arc<Self> {
        Self::new(vec![FaultPlan {
            target: FaultTarget::NameContains(substr.to_string()),
            mode: FaultMode::Wedge(max),
        }])
    }

    /// Called by the executor at each dispatch: returns the fault to
    /// apply, if any, and advances the dispatch counter.
    pub fn decide(&self, node: NodeId, name: &str) -> Option<FaultMode> {
        let n = self.dispatched.fetch_add(1, Ordering::SeqCst);
        for plan in &self.plans {
            let hit = match &plan.target {
                FaultTarget::Nth(k) => *k == n,
                FaultTarget::Node(id) => *id == node,
                FaultTarget::NameContains(s) => name.contains(s.as_str()),
            };
            if hit {
                self.triggered.fetch_add(1, Ordering::SeqCst);
                return Some(plan.mode.clone());
            }
        }
        None
    }

    /// Total task dispatches seen.
    pub fn dispatched(&self) -> usize {
        self.dispatched.load(Ordering::SeqCst)
    }

    /// How many dispatches matched a plan.
    pub fn triggered(&self) -> usize {
        self.triggered.load(Ordering::SeqCst)
    }
}

/// The payload type [`FaultMode::Garbage`] substitutes: intentionally a
/// type no kernel consumes, so downstream downcasts fail.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Garbage;

thread_local! {
    static ARMED: std::cell::RefCell<Option<Arc<FaultInjector>>> =
        const { std::cell::RefCell::new(None) };
}

/// Arm `injector` for this thread: every [`TaskGraph`] constructed on
/// this thread while the returned guard lives adopts it. Lets tests
/// sabotage graphs built deep inside higher layers.
pub fn arm(injector: Arc<FaultInjector>) -> ArmGuard {
    ARMED.with(|a| *a.borrow_mut() = Some(injector));
    ArmGuard { _private: () }
}

/// The injector currently armed on this thread, if any.
pub(crate) fn armed() -> Option<Arc<FaultInjector>> {
    ARMED.with(|a| a.borrow().clone())
}

/// Disarms the thread-local injector when dropped.
pub struct ArmGuard {
    _private: (),
}

impl Drop for ArmGuard {
    fn drop(&mut self) {
        ARMED.with(|a| *a.borrow_mut() = None);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::TaskGraph;

    #[test]
    fn name_target_matches_substring() {
        let inj = FaultInjector::panic_on("moments:price");
        assert_eq!(inj.decide(0, "hist:price"), None);
        assert_eq!(inj.decide(1, "moments:price"), Some(FaultMode::Panic));
        assert_eq!(inj.decide(2, "moments:qty"), None);
        assert_eq!(inj.dispatched(), 3);
        assert_eq!(inj.triggered(), 1);
    }

    #[test]
    fn nth_target_counts_dispatches() {
        let inj = FaultInjector::new(vec![FaultPlan {
            target: FaultTarget::Nth(2),
            mode: FaultMode::Garbage,
        }]);
        assert_eq!(inj.decide(10, "a"), None);
        assert_eq!(inj.decide(11, "b"), None);
        assert_eq!(inj.decide(12, "c"), Some(FaultMode::Garbage));
        assert_eq!(inj.decide(13, "d"), None);
    }

    #[test]
    fn node_target_matches_id() {
        let inj = FaultInjector::new(vec![FaultPlan {
            target: FaultTarget::Node(7),
            mode: FaultMode::Stall(Duration::from_millis(1)),
        }]);
        assert_eq!(inj.decide(6, "x"), None);
        assert!(matches!(inj.decide(7, "x"), Some(FaultMode::Stall(_))));
    }

    #[test]
    fn wedge_plan_matches_by_name() {
        let inj = FaultInjector::wedge_on("slow", Duration::from_secs(3));
        assert!(matches!(inj.decide(0, "slow:x"), Some(FaultMode::Wedge(_))));
        assert_eq!(inj.decide(1, "fast:y"), None);
    }

    #[test]
    fn arming_attaches_to_new_graphs_and_disarms_on_drop() {
        let inj = FaultInjector::panic_on("anything");
        {
            let _guard = arm(Arc::clone(&inj));
            let g = TaskGraph::new();
            assert!(g.fault_injector().is_some());
        }
        let g = TaskGraph::new();
        assert!(g.fault_injector().is_none());
    }
}
