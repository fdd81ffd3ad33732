//! Error type for EDA computations.

use std::fmt;
use std::sync::Arc;

use eda_taskgraph::TaskError;

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
    /// A graph task panicked, blew its deadline (`engine.task_deadline_ms`)
    /// or was cancelled (`engine.run_deadline_ms`). Carries the
    /// scheduler's error for the task that broke — a skip is already
    /// followed to its root — so its kind, task and elapsed time are read
    /// from one value.
    Task(Arc<TaskError>),
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
            EdaError::Task(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for EdaError {}

impl From<eda_dataframe::Error> for EdaError {
    fn from(e: eda_dataframe::Error) -> Self {
        EdaError::Frame(e)
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

    fn task(name: &str, failure: eda_taskgraph::TaskFailure) -> EdaError {
        let elapsed = std::time::Duration::ZERO;
        EdaError::Task(Arc::new(TaskError { task: 3, name: name.into(), failure, elapsed }))
    }

    #[test]
    fn display_task_failed_and_timeout() {
        use eda_taskgraph::TaskFailure;
        let e = task("moments:price", TaskFailure::Panicked("boom".into()));
        let s = e.to_string();
        assert!(s.contains("moments:price") && s.contains("boom"), "{s}");
        let budget = std::time::Duration::from_millis(250);
        let e = task("hist:price", TaskFailure::TimedOut { budget, elapsed: budget * 2 });
        let s = e.to_string();
        assert!(s.contains("hist:price") && s.contains("250ms") && s.contains("deadline"), "{s}");
    }

    #[test]
    fn governance_failures_convert_and_display() {
        use eda_taskgraph::TaskFailure;
        let e = task("hist:price", TaskFailure::Cancelled);
        assert!(e.to_string().contains("hist:price"), "{e}");
        assert!(e.to_string().contains("run deadline exceeded"), "{e}");
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
