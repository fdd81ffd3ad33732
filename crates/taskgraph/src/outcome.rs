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
    /// The task never ran because an upstream dependency failed. Holds
    /// the originally failing task's error (the transitive root, never
    /// itself a skip), so a skip names the actual reason at any depth.
    Skipped(Arc<TaskError>),
    /// The run's deadline ([`crate::govern::CancelToken`]) passed before
    /// or while this task executed; any partial result was discarded.
    Cancelled,
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
    /// The error that originally failed: for a skip the root it carries,
    /// otherwise this error itself.
    pub fn root(self: &Arc<Self>) -> &Arc<TaskError> {
        match &self.failure {
            TaskFailure::Skipped(root) => root,
            _ => self,
        }
    }

    /// The node that originally failed: for `Skipped` errors the
    /// transitive root cause, otherwise this task itself.
    pub fn root_cause(self: &Arc<Self>) -> (NodeId, &str) {
        let root = self.root();
        (root.task, &root.name)
    }

    /// What went wrong at the root (e.g. `panicked: boom`): a direct
    /// failure describes itself, a skip its root's failure.
    pub fn root_description(self: &Arc<Self>) -> String {
        self.root().failure.to_string()
    }
}

/// The one wording of each kind of failure; [`TaskError`]'s `Display`
/// prefixes it with the task.
impl fmt::Display for TaskFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TaskFailure::Panicked(msg) => write!(f, "panicked: {msg}"),
            TaskFailure::TimedOut { budget, elapsed } => {
                write!(f, "exceeded its {budget:?} deadline (took {elapsed:?})")
            }
            TaskFailure::Skipped(root) => write!(f, "skipped: upstream {root}"),
            TaskFailure::Cancelled => write!(f, "cancelled: run deadline exceeded"),
            TaskFailure::Internal(msg) => write!(f, "failed on a scheduler invariant: {msg}"),
        }
    }
}

impl fmt::Display for TaskError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "task '{}' (node {}) {}", self.name, self.task, self.failure)
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
    #[cfg(test)]
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

/// The root error that explains why `outcomes` are not all payloads: the
/// first direct failure (a panic, a timeout, ...), else the root a skip
/// carries, so a diagnostic names the actual reason rather than only
/// "skipped". `None` when every outcome has its payload.
pub fn root_failure(outcomes: &[TaskOutcome]) -> Option<&Arc<TaskError>> {
    let errors = || outcomes.iter().filter_map(TaskOutcome::error);
    errors()
        .find(|e| !matches!(e.failure, TaskFailure::Skipped(_)))
        .or_else(|| errors().next().map(TaskError::root))
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

    /// A skip whose root is `hist` (node 1), panicked with `msg`.
    fn skip_of_hist(msg: &str) -> TaskError {
        let root = TaskError {
            task: 1,
            name: "hist".into(),
            failure: TaskFailure::Panicked(msg.into()),
            elapsed: Duration::from_millis(7),
        };
        err(TaskFailure::Skipped(Arc::new(root)))
    }

    #[test]
    fn display_skipped_names_root() {
        let s = skip_of_hist("boom").to_string();
        assert_eq!(
            s,
            "task 'moments:price' (node 3) skipped: upstream task 'hist' (node 1) panicked: boom"
        );
    }

    #[test]
    fn root_cause_follows_skip() {
        let skipped = Arc::new(skip_of_hist("x"));
        assert_eq!(skipped.root_cause(), (1, "hist"));
        assert_eq!(skipped.root_description(), "panicked: x");
        assert_eq!(skipped.root().elapsed, Duration::from_millis(7));
        let direct = Arc::new(err(TaskFailure::Panicked("x".into())));
        assert_eq!(direct.root_cause(), (3, "moments:price"));
        assert!(Arc::ptr_eq(direct.root(), &direct));
    }

    #[test]
    fn display_cancelled_names_reason() {
        let e = err(TaskFailure::Cancelled);
        assert_eq!(e.to_string(), "task 'moments:price' (node 3) cancelled: run deadline exceeded");
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
    fn root_failure_prefers_a_direct_failure_over_a_skip() {
        let skip = TaskOutcome::Failed(Arc::new(skip_of_hist("x")));
        let panic = TaskOutcome::Failed(Arc::new(err(TaskFailure::Panicked("y".into()))));
        let ok = TaskOutcome::Ok(Arc::new(1i64));
        let failure = |outcomes: &[TaskOutcome]| {
            root_failure(outcomes).map(|e| (e.name.clone(), e.failure.clone()))
        };
        assert_eq!(failure(std::slice::from_ref(&ok)), None);
        assert_eq!(
            failure(&[ok.clone(), skip.clone(), panic]),
            Some(("moments:price".into(), TaskFailure::Panicked("y".into())))
        );
        // With no direct failure, the skip's root stands in for it.
        assert_eq!(failure(&[skip, ok]), Some(("hist".into(), TaskFailure::Panicked("x".into()))));
    }

    #[test]
    #[should_panic(expected = "panicked: p")]
    fn unwrap_failed_panics_with_context() {
        TaskOutcome::Failed(Arc::new(err(TaskFailure::Panicked("p".into())))).unwrap();
    }
}
