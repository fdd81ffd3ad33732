//! Fault-injection soak: many `create_report` runs under a rotating mix
//! of injected faults (wedged kernels, hard panics) and worker counts,
//! asserting the engine never aborts, never deadlocks, and every
//! degraded section carries diagnostics whose root failure kind is one
//! the iteration's fault explains.
//!
//! `soak_quick` (always on) does 100 runs in a few seconds. `soak_long`
//! (`--ignored`; the CI fault-soak job runs it) loops for ~30 wall-clock
//! seconds and writes a JSON summary to the path in `EDA_SOAK_SUMMARY`.

use std::time::{Duration, Instant};

use eda_core::{create_report, Config, InsightKind, SectionStatus};
use eda_dataframe::{Column, DataFrame};
use eda_taskgraph::{inject, FaultInjector, TaskFailure};

fn frame() -> DataFrame {
    let n = 1_200;
    DataFrame::new(vec![
        (
            "price".into(),
            Column::from_opt_f64(
                (0..n)
                    .map(|i| if i % 24 == 0 { None } else { Some(50.0 + ((i * 31) % 900) as f64) })
                    .collect(),
            ),
        ),
        ("size".into(), Column::from_f64((0..n).map(|i| 10.0 + ((i * 7) % 120) as f64).collect())),
        ("city".into(), Column::from_string((0..n).map(|i| format!("c{}", i % 5)).collect())),
    ])
    .unwrap()
}

#[derive(Default)]
struct SoakTally {
    runs: usize,
    failed_sections: usize,
    /// Failed sections by the kind of their root failure.
    failed_panicked: usize,
    failed_cancelled: usize,
    tasks_cancelled: usize,
}

/// One soak iteration: pick a fault and a worker count from the
/// iteration index, run a full report, and assert the invariants that
/// must hold under *any* mix — `Ok` result, exact (never sampled) output,
/// diagnostics on every degraded section, and a root failure kind that
/// this iteration's fault causes: a panic only under the injected panic,
/// a cancellation only under the wedge's run deadline.
fn soak_iteration(df: &DataFrame, i: usize, tally: &mut SoakTally) {
    let fault = i % 4;
    // Wedged kernels only terminate via the run deadline; everything
    // else runs un-deadlined so degradation is attributable to the fault.
    let deadline = if fault == 3 { "80" } else { "0" };
    let workers = if i.is_multiple_of(2) { "1" } else { "4" };
    let config = Config::from_pairs(vec![
        ("engine.cache_budget_bytes", "0"),
        ("engine.workers", workers),
        ("engine.run_deadline_ms", deadline),
    ])
    .unwrap();

    let _guard = match fault {
        2 => Some(inject::arm(FaultInjector::panic_on("freq:city"))),
        3 => Some(inject::arm(FaultInjector::wedge_on("moments:price", Duration::from_secs(5)))),
        _ => None,
    };

    let report = create_report(df, &config)
        .unwrap_or_else(|e| panic!("soak run {i} aborted instead of degrading: {e}"));

    for (name, status) in report.failed_sections() {
        let SectionStatus::Failed(err) = status else { unreachable!() };
        assert!(!err.to_string().is_empty(), "run {i}: section {name} lost its diagnostics");
        assert!(!err.name.is_empty(), "run {i}: section {name} lost its root cause");
        match &err.failure {
            TaskFailure::Panicked(_) => {
                assert_eq!(fault, 2, "run {i}: section {name}: {err}");
                tally.failed_panicked += 1;
            }
            TaskFailure::Cancelled => {
                assert_eq!(fault, 3, "run {i}: section {name}: {err}");
                tally.failed_cancelled += 1;
            }
            _ => panic!("run {i}: section {name} failed in a way this mix never causes: {err}"),
        }
        tally.failed_sections += 1;
    }
    tally.runs += 1;
    tally.tasks_cancelled += report.stats.tasks_cancelled;
    let approximated = report.insights.iter().any(|n| n.kind == InsightKind::Approximated);
    assert!(!approximated, "run {i}: approximate output without sampling");
}

/// The cross-run expectations: the mix must have exercised every
/// governance mechanism at least once.
fn assert_mechanisms_fired(tally: &SoakTally) {
    assert!(tally.tasks_cancelled >= 1, "no wedged run was ever deadline-cancelled");
    assert!(tally.failed_sections >= 1, "faults never degraded anything");
}

#[test]
fn soak_quick() {
    let df = frame();
    let mut tally = SoakTally::default();
    for i in 0..100 {
        soak_iteration(&df, i, &mut tally);
    }
    assert_eq!(tally.runs, 100);
    assert_mechanisms_fired(&tally);
}

/// The CI soak job: loop the same mix for ~30 seconds and leave a
/// machine-readable summary behind. Reaching the end at all is the
/// no-abort/no-deadlock claim; the summary quantifies the coverage.
#[test]
#[ignore = "30s wall-clock; run by the CI fault-soak job"]
fn soak_long() {
    let df = frame();
    let mut tally = SoakTally::default();
    let started = Instant::now();
    let mut i = 0;
    while started.elapsed() < Duration::from_secs(30) {
        soak_iteration(&df, i, &mut tally);
        i += 1;
    }
    assert_mechanisms_fired(&tally);

    if let Ok(path) = std::env::var("EDA_SOAK_SUMMARY") {
        let summary = format!(
            concat!(
                "{{\"runs\": {}, \"elapsed_s\": {:.1}, \"aborts\": 0, ",
                "\"failed_sections\": {}, \"failed_panicked\": {}, ",
                "\"failed_cancelled\": {}, \"tasks_cancelled\": {}}}\n"
            ),
            tally.runs,
            started.elapsed().as_secs_f64(),
            tally.failed_sections,
            tally.failed_panicked,
            tally.failed_cancelled,
            tally.tasks_cancelled,
        );
        std::fs::write(&path, summary).expect("write soak summary");
    }
}
