//! Error type for EDA computations.

use std::fmt;

/// Convenience alias.
pub type EdaResult<T> = std::result::Result<T, EdaError>;

/// Errors surfaced by the EDA API.
#[derive(Debug, Clone, PartialEq)]
pub enum EdaError {
    /// Underlying dataframe failure (missing column, type error, ...).
    Frame(eda_dataframe::Error),
    /// Too many columns were passed to a plot function.
    TooManyColumns {
        /// The function that was called.
        function: &'static str,
        /// How many columns it accepts at most.
        max: usize,
        /// How many were passed.
        got: usize,
    },
    /// An operation required a numeric column.
    NotNumeric(String),
    /// A configuration string could not be parsed.
    Config {
        /// The config key.
        key: String,
        /// The problem.
        message: String,
    },
    /// The frame has no columns / rows where some are required.
    EmptyInput(&'static str),
    /// A graph task panicked during execution (the panic was isolated;
    /// this error carries its message).
    TaskFailed {
        /// Name of the failing task (e.g. `"moments:price"`).
        task: String,
        /// The captured panic message.
        message: String,
    },
    /// A graph task exceeded its per-task wall-clock budget
    /// (`engine.task_deadline_ms`).
    Timeout {
        /// Name of the over-budget task.
        task: String,
        /// The configured budget.
        budget: std::time::Duration,
    },
    /// The run was cancelled — by `AnalysisHandle::cancel()` or because
    /// the whole-run deadline (`engine.run_deadline_ms`) fired.
    Cancelled {
        /// The task whose cancellation was observed first.
        task: String,
        /// Why the run stopped ("cancellation requested" /
        /// "run deadline exceeded").
        reason: String,
    },
    /// A task's result did not fit the run memory budget
    /// (`engine.memory_budget_bytes`). The public API reacts by
    /// re-running the affected analysis over a sampled frame.
    BudgetExceeded {
        /// The task whose result charge was refused.
        task: String,
        /// Bytes the refused charge requested.
        requested: usize,
        /// Bytes already charged when the refusal happened.
        used: usize,
        /// The configured budget.
        budget: usize,
    },
}

impl fmt::Display for EdaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EdaError::Frame(e) => write!(f, "dataframe error: {e}"),
            EdaError::TooManyColumns { function, max, got } => {
                write!(f, "{function} accepts at most {max} columns, got {got}")
            }
            EdaError::NotNumeric(col) => {
                write!(f, "column {col:?} is not numeric, but the task requires it")
            }
            EdaError::Config { key, message } => write!(f, "config {key:?}: {message}"),
            EdaError::EmptyInput(what) => write!(f, "empty input: {what}"),
            EdaError::TaskFailed { task, message } => {
                write!(f, "task {task:?} failed: {message}")
            }
            EdaError::Timeout { task, budget } => {
                write!(f, "task {task:?} exceeded its {budget:?} deadline")
            }
            EdaError::Cancelled { task, reason } => {
                write!(f, "analysis cancelled at task {task:?}: {reason}")
            }
            EdaError::BudgetExceeded { task, requested, used, budget } => write!(
                f,
                "task {task:?} exceeded the run memory budget: \
                 {requested} bytes requested, {used} of {budget} bytes used"
            ),
        }
    }
}

impl std::error::Error for EdaError {}

impl From<eda_dataframe::Error> for EdaError {
    fn from(e: eda_dataframe::Error) -> Self {
        EdaError::Frame(e)
    }
}

impl From<&eda_taskgraph::TaskError> for EdaError {
    /// Convert a scheduler-level failure, attributing skipped tasks to
    /// their transitive root cause (callers care about the kernel that
    /// broke, not the node that inherited the breakage).
    fn from(e: &eda_taskgraph::TaskError) -> Self {
        use eda_taskgraph::TaskFailure;
        match &e.failure {
            TaskFailure::Panicked(message) => {
                EdaError::TaskFailed { task: e.name.clone(), message: message.clone() }
            }
            TaskFailure::TimedOut { budget, .. } => {
                EdaError::Timeout { task: e.name.clone(), budget: *budget }
            }
            TaskFailure::Skipped { root_name, root_failure, .. } => EdaError::TaskFailed {
                task: root_name.clone(),
                message: format!(
                    "{root_failure} (dependent task {:?} was skipped)",
                    e.name
                ),
            },
            TaskFailure::Cancelled(reason) => {
                EdaError::Cancelled { task: e.name.clone(), reason: reason.to_string() }
            }
            TaskFailure::BudgetExceeded { budget, used, requested } => EdaError::BudgetExceeded {
                task: e.name.clone(),
                requested: *requested,
                used: *used,
                budget: *budget,
            },
            TaskFailure::Internal(message) => EdaError::TaskFailed {
                task: e.name.clone(),
                message: format!("scheduler invariant violated: {message}"),
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages() {
        let e = EdaError::TooManyColumns { function: "plot", max: 2, got: 3 };
        assert!(e.to_string().contains("at most 2"));
        let e = EdaError::NotNumeric("city".into());
        assert!(e.to_string().contains("city"));
    }

    #[test]
    fn display_task_failed_and_timeout() {
        let e = EdaError::TaskFailed { task: "moments:price".into(), message: "boom".into() };
        let s = e.to_string();
        assert!(s.contains("moments:price") && s.contains("boom"), "{s}");
        let e = EdaError::Timeout {
            task: "hist:price".into(),
            budget: std::time::Duration::from_millis(250),
        };
        let s = e.to_string();
        assert!(s.contains("hist:price") && s.contains("250ms") && s.contains("deadline"), "{s}");
    }

    #[test]
    fn task_error_converts_with_root_cause_attribution() {
        use eda_taskgraph::{TaskError, TaskFailure};
        use std::time::Duration;
        let panicked = TaskError {
            task: 3,
            name: "moments:price".into(),
            failure: TaskFailure::Panicked("bad float".into()),
            elapsed: Duration::ZERO,
        };
        assert_eq!(
            EdaError::from(&panicked),
            EdaError::TaskFailed { task: "moments:price".into(), message: "bad float".into() }
        );
        let timed_out = TaskError {
            task: 4,
            name: "hist:price".into(),
            failure: TaskFailure::TimedOut {
                budget: Duration::from_millis(5),
                elapsed: Duration::from_millis(9),
            },
            elapsed: Duration::from_millis(9),
        };
        assert_eq!(
            EdaError::from(&timed_out),
            EdaError::Timeout { task: "hist:price".into(), budget: Duration::from_millis(5) }
        );
        let skipped = TaskError {
            task: 5,
            name: "kde:price".into(),
            failure: TaskFailure::Skipped {
                root_cause: 3,
                root_name: "moments:price".into(),
                root_failure: "panicked: boom".into(),
            },
            elapsed: Duration::ZERO,
        };
        // Attribution lands on the root cause, not the skipped node.
        match EdaError::from(&skipped) {
            EdaError::TaskFailed { task, message } => {
                assert_eq!(task, "moments:price");
                assert!(message.contains("panicked: boom"), "{message}");
            }
            other => panic!("unexpected: {other:?}"),
        }
    }

    #[test]
    fn governance_failures_convert_and_display() {
        use eda_taskgraph::{CancelReason, TaskError, TaskFailure};
        use std::time::Duration;
        let cancelled = TaskError {
            task: 1,
            name: "hist:price".into(),
            failure: TaskFailure::Cancelled(CancelReason::DeadlineExceeded),
            elapsed: Duration::ZERO,
        };
        let e = EdaError::from(&cancelled);
        assert!(matches!(&e, EdaError::Cancelled { task, .. } if task == "hist:price"));
        assert!(e.to_string().contains("run deadline exceeded"), "{e}");

        let over = TaskError {
            task: 2,
            name: "corr:matrix".into(),
            failure: TaskFailure::BudgetExceeded { budget: 100, used: 90, requested: 64 },
            elapsed: Duration::ZERO,
        };
        let e = EdaError::from(&over);
        // The "memory budget" phrase is load-bearing: the degradation
        // ladder in the public API detects budget failures through it.
        assert!(e.to_string().contains("memory budget"), "{e}");
    }

    #[test]
    fn frame_error_converts() {
        let fe = eda_dataframe::Error::ColumnNotFound("x".into());
        let e: EdaError = fe.clone().into();
        assert_eq!(e, EdaError::Frame(fe));
    }

    #[test]
    fn malformed_csv_surfaces_as_frame_error() {
        let fe = eda_dataframe::Error::Malformed {
            line: 3,
            offset: Some(8),
            column: Some("price".into()),
            message: "expected 2 fields, found 1".into(),
        };
        let e: EdaError = fe.into();
        let s = e.to_string();
        assert!(s.contains("dataframe error"), "{s}");
        assert!(s.contains("line 3"), "{s}");
        assert!(s.contains("price"), "{s}");
    }
}
