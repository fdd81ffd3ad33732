//! Per-task execution outcomes.
//!
//! Fault tolerance starts here: instead of a bare [`Payload`], every
//! executed node yields a [`TaskOutcome`] — either a payload or a
//! [`TaskError`] describing a panic, a blown deadline, or a skip forced
//! by an upstream failure. Schedulers never poison a whole run because
//! one kernel misbehaved; callers decide per output how to degrade.

use std::fmt;
use std::sync::Arc;
use std::time::Duration;

use crate::govern::CancelReason;
use crate::graph::{NodeId, Payload};

/// Why a task produced no payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TaskFailure {
    /// The task body panicked; the payload message is captured.
    Panicked(String),
    /// The task finished but exceeded its wall-clock budget.
    TimedOut {
        /// The configured per-task budget.
        budget: Duration,
        /// How long the task actually took.
        elapsed: Duration,
    },
    /// The task never ran because an upstream dependency failed.
    Skipped {
        /// The originally failing task (transitive root, not the
        /// immediate dependency).
        root_cause: NodeId,
        /// Name of the originally failing task.
        root_name: String,
        /// Description of the root failure (e.g. `panicked: boom`), so
        /// diagnostics built from a skip still name the actual reason.
        root_failure: String,
    },
    /// The run was cancelled ([`crate::govern::CancelToken`]) before or
    /// while this task executed; any partial result was discarded.
    Cancelled(CancelReason),
    /// Charging this task's output against the run's memory budget
    /// ([`crate::govern::MemoryGauge`]) was refused; the payload was
    /// dropped and the section degrades instead of the process OOMing.
    BudgetExceeded {
        /// The run's byte budget.
        budget: usize,
        /// Bytes already charged by earlier tasks.
        used: usize,
        /// The refused charge (this task's estimated payload bytes).
        requested: usize,
    },
    /// A scheduler invariant was violated (a dependency result missing
    /// at dispatch, a closed work queue, a worker lost mid-run). The
    /// run degrades to a partial result instead of panicking; the
    /// message names the broken invariant.
    Internal(String),
}

/// A failed task: which node, its name, what went wrong, and how long it
/// took to go wrong.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TaskError {
    /// The failing node.
    pub task: NodeId,
    /// The failing node's name (op label).
    pub name: String,
    /// The failure itself.
    pub failure: TaskFailure,
    /// Wall-clock time spent before the failure was recorded. Skips
    /// inherit the root failure's elapsed time.
    pub elapsed: Duration,
}

impl TaskError {
    /// The node that originally failed: for `Skipped` errors the
    /// transitive root cause, otherwise this task itself.
    pub fn root_cause(&self) -> (NodeId, &str) {
        match &self.failure {
            TaskFailure::Skipped { root_cause, root_name, .. } => (*root_cause, root_name),
            _ => (self.task, &self.name),
        }
    }

    /// What went wrong at the root: a direct failure describes itself,
    /// a skip repeats the root failure's description.
    pub fn root_description(&self) -> String {
        match &self.failure {
            TaskFailure::Panicked(msg) => format!("panicked: {msg}"),
            TaskFailure::TimedOut { budget, elapsed } => {
                format!("exceeded its {budget:?} deadline (took {elapsed:?})")
            }
            TaskFailure::Skipped { root_failure, .. } => root_failure.clone(),
            TaskFailure::Cancelled(reason) => format!("cancelled: {reason}"),
            TaskFailure::BudgetExceeded { budget, used, requested } => format!(
                "exceeded the run memory budget ({requested} requested, {used} of {budget} bytes used)"
            ),
            TaskFailure::Internal(msg) => format!("scheduler invariant violated: {msg}"),
        }
    }
}

impl fmt::Display for TaskError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.failure {
            TaskFailure::Panicked(msg) => {
                write!(f, "task '{}' (node {}) panicked: {}", self.name, self.task, msg)
            }
            TaskFailure::TimedOut { budget, elapsed } => write!(
                f,
                "task '{}' (node {}) exceeded its {:?} deadline (took {:?})",
                self.name, self.task, budget, elapsed
            ),
            TaskFailure::Skipped { root_cause, root_name, root_failure } => write!(
                f,
                "task '{}' (node {}) skipped: upstream task '{}' (node {}) {}",
                self.name, self.task, root_name, root_cause, root_failure
            ),
            TaskFailure::Cancelled(reason) => write!(
                f,
                "task '{}' (node {}) cancelled: {}",
                self.name, self.task, reason
            ),
            TaskFailure::BudgetExceeded { budget, used, requested } => write!(
                f,
                "task '{}' (node {}) exceeded the run memory budget: charge of {} bytes refused ({} of {} bytes already used)",
                self.name, self.task, requested, used, budget
            ),
            TaskFailure::Internal(msg) => write!(
                f,
                "task '{}' (node {}) failed on a scheduler invariant: {}",
                self.name, self.task, msg
            ),
        }
    }
}

impl std::error::Error for TaskError {}

/// Outcome of one task: a payload, or the error that prevented one.
#[derive(Clone)]
pub enum TaskOutcome {
    /// The task completed and produced a payload.
    Ok(Payload),
    /// The task failed, timed out, or was skipped.
    Failed(Arc<TaskError>),
}

impl TaskOutcome {
    /// `true` when a payload was produced.
    pub fn is_ok(&self) -> bool {
        matches!(self, TaskOutcome::Ok(_))
    }

    /// `true` when the task failed, timed out, or was skipped.
    pub fn is_failed(&self) -> bool {
        !self.is_ok()
    }

    /// Borrow the payload, if any.
    pub fn payload(&self) -> Option<&Payload> {
        match self {
            TaskOutcome::Ok(p) => Some(p),
            TaskOutcome::Failed(_) => None,
        }
    }

    /// Borrow the error, if any.
    pub fn error(&self) -> Option<&Arc<TaskError>> {
        match self {
            TaskOutcome::Ok(_) => None,
            TaskOutcome::Failed(e) => Some(e),
        }
    }

    /// Extract the payload, panicking with the task error otherwise.
    /// The infallible-caller convenience; fault-aware callers should
    /// match instead.
    #[expect(clippy::panic, reason = "the documented panicking convenience, like Option::unwrap")]
    pub fn unwrap(self) -> Payload {
        match self {
            TaskOutcome::Ok(p) => p,
            TaskOutcome::Failed(e) => panic!("task outcome unwrapped on failure: {e}"),
        }
    }
}

impl fmt::Debug for TaskOutcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TaskOutcome::Ok(_) => f.write_str("TaskOutcome::Ok(..)"),
            TaskOutcome::Failed(e) => f.debug_tuple("TaskOutcome::Failed").field(e).finish(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn err(failure: TaskFailure) -> TaskError {
        TaskError { task: 3, name: "moments:price".into(), failure, elapsed: Duration::ZERO }
    }

    #[test]
    fn display_panicked() {
        let e = err(TaskFailure::Panicked("boom".into()));
        assert_eq!(e.to_string(), "task 'moments:price' (node 3) panicked: boom");
    }

    #[test]
    fn display_timed_out_mentions_budget() {
        let e = err(TaskFailure::TimedOut {
            budget: Duration::from_millis(5),
            elapsed: Duration::from_millis(9),
        });
        let s = e.to_string();
        assert!(s.contains("5ms"), "{s}");
        assert!(s.contains("deadline"), "{s}");
    }

    #[test]
    fn display_skipped_names_root() {
        let e = err(TaskFailure::Skipped {
            root_cause: 1,
            root_name: "hist".into(),
            root_failure: "panicked: boom".into(),
        });
        let s = e.to_string();
        assert!(s.contains("skipped") && s.contains("hist") && s.contains("node 1"), "{s}");
        assert!(s.contains("panicked: boom"), "{s}");
    }

    #[test]
    fn root_cause_follows_skip() {
        let skipped = err(TaskFailure::Skipped {
            root_cause: 1,
            root_name: "hist".into(),
            root_failure: "panicked: x".into(),
        });
        assert_eq!(skipped.root_cause(), (1, "hist"));
        let direct = err(TaskFailure::Panicked("x".into()));
        assert_eq!(direct.root_cause(), (3, "moments:price"));
    }

    #[test]
    fn display_cancelled_names_reason() {
        let e = err(TaskFailure::Cancelled(CancelReason::DeadlineExceeded));
        let s = e.to_string();
        assert!(s.contains("cancelled") && s.contains("run deadline exceeded"), "{s}");
    }

    #[test]
    fn display_budget_exceeded_mentions_memory_budget() {
        let e = err(TaskFailure::BudgetExceeded { budget: 100, used: 90, requested: 20 });
        let s = e.to_string();
        assert!(s.contains("memory budget") && s.contains("20"), "{s}");
        assert!(e.root_description().contains("memory budget"), "{}", e.root_description());
    }

    #[test]
    fn outcome_accessors() {
        let ok = TaskOutcome::Ok(Arc::new(1i64));
        assert!(ok.is_ok() && !ok.is_failed());
        assert!(ok.payload().is_some() && ok.error().is_none());
        let failed = TaskOutcome::Failed(Arc::new(err(TaskFailure::Panicked("p".into()))));
        assert!(failed.is_failed() && failed.payload().is_none());
    }

    #[test]
    #[should_panic(expected = "panicked: p")]
    fn unwrap_failed_panics_with_context() {
        TaskOutcome::Failed(Arc::new(err(TaskFailure::Panicked("p".into())))).unwrap();
    }
}
