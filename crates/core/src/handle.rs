//! Cancellable background analyses.
//!
//! [`AnalysisHandle`] runs an EDA call on its own thread with a
//! run-wide [`CancelToken`] armed: [`AnalysisHandle::cancel`] flips the
//! token, the scheduler stops dispatching, in-flight kernels observe the
//! flag at their next poll (every `eda_stats::interrupt::CHECK_INTERVAL`
//! elements) and bail, and the call returns promptly
//! with cancellation diagnostics (sections that already completed are
//! kept — see [`crate::api::SectionStatus`]).
//!
//! The token travels thread-locally: the spawned thread arms it before
//! entering the API, and `ComputeContext::new` picks it up as the run
//! token. Calls made without a handle are unaffected.

use std::thread::JoinHandle;

use eda_dataframe::DataFrame;
use eda_taskgraph::govern::{self, CancelToken};

use crate::api::Analysis;
use crate::config::Config;
use crate::error::{EdaError, EdaResult};
use crate::report::Report;

/// A running analysis that can be cancelled from another thread.
#[derive(Debug)]
pub struct AnalysisHandle<T> {
    token: CancelToken,
    thread: Option<JoinHandle<EdaResult<T>>>,
}

impl<T: Send + 'static> AnalysisHandle<T> {
    /// Run `work` on a new thread with a fresh cancel token armed.
    fn spawn(work: impl FnOnce() -> EdaResult<T> + Send + 'static) -> AnalysisHandle<T> {
        let token = CancelToken::new();
        let armed = token.clone();
        let thread = std::thread::spawn(move || {
            let _arm = govern::arm_token(armed);
            work()
        });
        AnalysisHandle { token, thread: Some(thread) }
    }
}

impl<T> AnalysisHandle<T> {
    /// Ask the analysis to stop. Cooperative and idempotent: the
    /// scheduler cancels remaining tasks and in-flight kernels bail at
    /// their next interruption poll, after which [`Self::join`] returns.
    pub fn cancel(&self) {
        self.token.cancel();
    }

    /// Whether the analysis thread has finished (successfully, degraded,
    /// or after a cancellation).
    pub fn is_finished(&self) -> bool {
        self.thread.as_ref().is_none_or(JoinHandle::is_finished)
    }

    /// Wait for the analysis and return its result. A panic on the
    /// analysis thread (a bug — kernel panics are isolated per task)
    /// surfaces as [`EdaError::TaskFailed`] rather than propagating.
    pub fn join(mut self) -> EdaResult<T> {
        let thread = self.thread.take().expect("thread present until join");
        thread.join().unwrap_or_else(|payload| {
            let message = payload
                .downcast_ref::<&str>()
                .map(|s| (*s).to_string())
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "analysis thread panicked".to_string());
            Err(EdaError::TaskFailed { task: "analysis-thread".into(), message })
        })
    }
}

impl<T> Drop for AnalysisHandle<T> {
    /// Dropping an unjoined handle cancels the run (no orphaned
    /// full-speed computation) and detaches the thread, which winds down
    /// at its next cancellation checkpoint.
    fn drop(&mut self) {
        if self.thread.is_some() {
            self.token.cancel();
        }
    }
}

/// [`crate::api::create_report`] on a background thread, cancellable via
/// the returned handle. The frame clone is cheap (shared column buffers).
pub fn create_report_handle(df: &DataFrame, config: &Config) -> AnalysisHandle<Report> {
    let df = df.clone();
    let config = config.clone();
    AnalysisHandle::spawn(move || crate::api::create_report(&df, &config))
}

/// [`crate::api::plot`] on a background thread, cancellable via the
/// returned handle.
pub fn plot_handle(df: &DataFrame, columns: &[&str], config: &Config) -> AnalysisHandle<Analysis> {
    let df = df.clone();
    let config = config.clone();
    let columns: Vec<String> = columns.iter().map(|c| (*c).to_string()).collect();
    AnalysisHandle::spawn(move || {
        let cols: Vec<&str> = columns.iter().map(String::as_str).collect();
        crate::api::plot(&df, &cols, &config)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use eda_dataframe::Column;

    fn frame(n: usize) -> DataFrame {
        DataFrame::new(vec![
            (
                "a".into(),
                Column::from_f64((0..n).map(|i| (i % 997) as f64).collect()),
            ),
            (
                "b".into(),
                Column::from_f64((0..n).map(|i| ((i * 31) % 1009) as f64).collect()),
            ),
        ])
        .unwrap()
    }

    #[test]
    fn uncancelled_handle_completes_normally() {
        let df = frame(2000);
        let handle = plot_handle(&df, &["a"], &Config::default());
        let analysis = handle.join().unwrap();
        assert!(analysis.status.is_ok());
        assert!(analysis.get("histogram").is_some());
    }

    #[test]
    fn cancelled_report_stops_and_reports_cancellation() {
        let df = frame(50_000);
        let handle = create_report_handle(&df, &Config::default());
        handle.cancel();
        let report = handle.join().unwrap();
        // Either the run finished before the cancel landed (tiny frame,
        // fast machine) or some sections report the cancellation.
        for (_, status) in report.failed_sections() {
            if let crate::api::SectionStatus::Failed { error, .. } = status {
                assert!(error.contains("cancel"), "{error}");
            }
        }
    }

    #[test]
    fn dropping_a_handle_cancels_its_token() {
        let df = frame(2000);
        let handle = plot_handle(&df, &["a"], &Config::default());
        let token = handle.token.clone();
        drop(handle);
        assert!(token.is_cancelled());
    }
}
