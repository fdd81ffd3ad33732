//! Fault-tolerance integration tests through the public API.
//!
//! The acceptance bar: a `create_report` run where one column's kernels
//! are rigged to fail still completes, renders every other section,
//! reports the failure in the diagnostics panel, and counts the failure
//! in `ExecStats` — with tasks run inline (`engine.workers = 1`) and on
//! the pool.

use eda_core::{create_report, plot, Config, InsightKind, SectionStatus};
use eda_dataframe::{Column, DataFrame};
use eda_render::layout::{render_analysis_html, render_report_html};
use eda_taskgraph::{inject, FaultInjector, FaultMode, FaultPlan, FaultTarget, TaskFailure};

fn frame() -> DataFrame {
    let n = 240;
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

fn config_with_workers(workers: usize) -> Config {
    Config::from_pairs(vec![("engine.workers", &workers.to_string() as &str)]).unwrap()
}

/// The acceptance-criteria run, parameterized over the scheduler.
fn poisoned_column_still_yields_partial_report(workers: usize) {
    let df = frame();
    let cfg = config_with_workers(workers);
    let _guard = inject::arm(FaultInjector::panic_on("freq:city"));

    let report = create_report(&df, &cfg).expect("degraded, not failed");

    // The failure is counted and attributed.
    assert!(report.stats.tasks_failed >= 1, "{:?}", report.stats);
    assert!(!report.stats.fully_succeeded());

    // The poisoned column's section is degraded with a root cause…
    let city = report.variables.iter().find(|v| v.name == "city").unwrap();
    match &city.status {
        SectionStatus::Failed(err) => {
            assert!(err.name.contains("freq:city"), "{err}");
            assert!(err.to_string().contains("panicked"), "{err}");
        }
        SectionStatus::Ok => panic!("city section should have degraded"),
    }

    // …while every other column's section is fully computed.
    for name in ["price", "size"] {
        let var = report.variables.iter().find(|v| v.name == name).unwrap();
        assert!(var.status.is_ok(), "{name} should be healthy");
        assert!(var.intermediates.iter().count() > 0, "{name} lost its charts");
    }
    assert!(report.correlations_status.is_ok());
    assert_eq!(report.correlations.len(), 3);
    assert!(report.missing_status.is_ok());

    // The rendered page carries the diagnostics panel plus live charts.
    let html = render_report_html(&report, &cfg.display);
    assert!(html.contains("eda-error"));
    assert!(html.contains("section unavailable"));
    assert!(html.contains("freq:city"));
    assert!(html.matches("<svg").count() > 5, "healthy sections must still render");
}

#[test]
fn poisoned_column_partial_report_single_thread() {
    poisoned_column_still_yields_partial_report(1);
}

#[test]
fn poisoned_column_partial_report_pool() {
    poisoned_column_still_yields_partial_report(4);
}

#[test]
fn plot_degrades_instead_of_erroring() {
    let df = frame();
    let cfg = Config::default();
    let _guard = inject::arm(FaultInjector::panic_on("moments:price"));
    let a = plot(&df, &["price"], &cfg).expect("degraded analysis, not Err");
    match &a.status {
        SectionStatus::Failed(err) => assert!(err.name.contains("moments:price"), "{err}"),
        SectionStatus::Ok => panic!("analysis should have degraded"),
    }
    assert!(a.intermediates.iter().count() == 0);
    // Untouched columns are unaffected by the armed injector's target.
    let b = plot(&df, &["city"], &cfg).unwrap();
    assert!(b.status.is_ok());
}

#[test]
fn stalled_task_times_out_under_deadline() {
    let df = frame();
    let cfg = Config::from_pairs(vec![("engine.task_deadline_ms", "40")]).unwrap();
    let _guard = inject::arm(FaultInjector::stall_on(
        "sorted_values:price",
        std::time::Duration::from_millis(120),
    ));
    let report = create_report(&df, &cfg).expect("timeout degrades, not fails");
    assert!(report.stats.tasks_timed_out >= 1, "{:?}", report.stats);
    let price = report.variables.iter().find(|v| v.name == "price").unwrap();
    match &price.status {
        SectionStatus::Failed(err) => assert!(err.to_string().contains("deadline"), "{err}"),
        SectionStatus::Ok => panic!("price should have timed out"),
    }
    let city = report.variables.iter().find(|v| v.name == "city").unwrap();
    assert!(city.status.is_ok());
}

#[test]
fn garbage_payload_fails_the_consumer_not_the_run() {
    // Enough rows for several partitions, so the per-partition histogram
    // map tasks feed a real tree-reduce task: that consumer — not the
    // whole run — is what chokes on the garbage payload.
    let n = 20_000;
    let df = DataFrame::new(vec![
        ("price".into(), Column::from_f64((0..n).map(|i| 50.0 + ((i * 31) % 900) as f64).collect())),
        ("city".into(), Column::from_string((0..n).map(|i| format!("c{}", i % 5)).collect())),
    ])
    .unwrap();
    let cfg = Config::default();
    let _guard = inject::arm(FaultInjector::new(vec![FaultPlan {
        target: FaultTarget::NameContains("histogram:price".into()),
        mode: FaultMode::Garbage,
    }]));
    let report = create_report(&df, &cfg).expect("garbage degrades, not fails");
    assert!(report.stats.tasks_failed >= 1, "{:?}", report.stats);
    // The histogram reduce consumed the garbage: price degrades…
    let price = report.variables.iter().find(|v| v.name == "price").unwrap();
    assert!(!price.status.is_ok());
    // …but sections that never touch the histogram survive.
    assert!(report.missing_status.is_ok());
    let city = report.variables.iter().find(|v| v.name == "city").unwrap();
    assert!(city.status.is_ok());
}

#[test]
fn injected_stall_dominates_the_profile() {
    // Tracing × fault-injection interop: a stalled kernel must surface
    // as the longest span and be named in the top-K slowest table.
    let df = frame();
    let cfg = Config::from_pairs(vec![("engine.profile", "true")]).unwrap();
    let stall = std::time::Duration::from_millis(60);
    let _guard = inject::arm(FaultInjector::stall_on("moments:price", stall));

    let report = create_report(&df, &cfg).expect("stall without deadline still completes");
    let trace = report.stats.trace.as_ref().expect("profiled run carries a trace");

    let top = trace.top_k(5);
    assert!(!top.is_empty());
    assert!(top[0].name.contains("moments:price"), "stalled task should rank first: {top:?}");
    assert!(top[0].duration() >= stall, "span {:?} shorter than the stall", top[0].duration());

    // The rendered top-K table names the stalled task first.
    let html = render_report_html(&report, &cfg.display);
    let perf = html.find("<h2>Performance</h2>").expect("performance section");
    let slow = html[perf..].find("moments:price").expect("stalled task in top-K table");
    assert!(slow > 0);
}

#[test]
fn unarmed_runs_are_untouched() {
    let df = frame();
    for workers in [1usize, 4] {
        let cfg = config_with_workers(workers);
        let report = create_report(&df, &cfg).unwrap();
        assert!(report.stats.fully_succeeded(), "{:?}", report.stats);
        assert!(report.failed_sections().is_empty());
    }
}

/// The degradation ladder keys on the kind of a failure, not its text: a
/// column named `memory budget` puts that phrase into every task name on
/// it, yet a panic there is a panic. Its first kernel panics once, so a
/// quarter-sample retry would succeed; `plot` and `create_report` must
/// report the panic instead of silently re-running on a sample and
/// calling the output approximate.
#[test]
fn a_panic_on_a_column_named_memory_budget_is_not_laddered() {
    let df = DataFrame::new(vec![(
        "memory budget".into(),
        Column::from_f64((0..1_024).map(|i| ((i * 37) % 501) as f64).collect()),
    )])
    .unwrap();
    let cfg = Config::from_pairs(vec![("engine.workers", "1"), ("engine.cache_budget_bytes", "0")])
        .unwrap();
    // Dispatch 0 is the frame's one partition source, dispatch 1 the
    // first kernel on the column; no later dispatch fails.
    let first_kernel_panics = || {
        inject::arm(FaultInjector::new(vec![FaultPlan {
            target: FaultTarget::Nth(1),
            mode: FaultMode::Panic,
        }]))
    };
    let assert_panicked = |status: &SectionStatus| match status {
        SectionStatus::Failed(err) => {
            assert!(err.name.contains("memory budget"), "{err}");
            assert!(matches!(err.failure, TaskFailure::Panicked(_)), "{err}");
        }
        SectionStatus::Ok => panic!("the section should report the panic"),
    };
    let exact = |insights: &[eda_core::Insight]| {
        insights.iter().all(|i| i.kind != InsightKind::Approximated)
    };

    let guard = first_kernel_panics();
    let a = plot(&df, &["memory budget"], &cfg).unwrap();
    drop(guard);
    assert_panicked(&a.status);
    assert!(exact(&a.insights), "{:?}", a.insights);

    let guard = first_kernel_panics();
    let report = create_report(&df, &cfg).unwrap();
    drop(guard);
    let failed = report.failed_sections();
    assert!(!failed.is_empty());
    for (_, status) in &failed {
        assert_panicked(status);
    }
    assert!(exact(&report.insights), "{:?}", report.insights);
}

/// One failure, one description: a panic on `freq:city` reads the same
/// through `plot` and through `create_report` — the same root task and
/// kind, the task's own elapsed time rather than the run's, and
/// `TaskError`'s wording on the page.
#[test]
fn plot_and_report_describe_one_failure_alike() {
    let df = frame();
    let cfg = config_with_workers(1);
    let _guard = inject::arm(FaultInjector::panic_on("freq:city"));
    let analysis = plot(&df, &["city"], &cfg).unwrap();
    let report = create_report(&df, &cfg).unwrap();
    let city = report.variables.iter().find(|v| v.name == "city").unwrap();
    let sides = [
        (
            &analysis.status,
            analysis.stats.as_ref().unwrap().elapsed,
            render_analysis_html(&analysis, &cfg.display),
        ),
        (&city.status, report.stats.elapsed, render_report_html(&report, &cfg.display)),
    ];
    for (status, run_elapsed, page) in sides {
        let SectionStatus::Failed(err) = status else { panic!("city should have degraded") };
        assert_eq!(err.root_cause().1, "freq:city");
        assert_eq!(err.failure, TaskFailure::Panicked("injected fault: panic".into()));
        assert!(err.elapsed < run_elapsed, "{:?} is the run's, not the task's", err.elapsed);
        let panel = format!(
            "task 'freq:city' (node {}) panicked: injected fault: panic<br><small>\
             root cause: task <code>freq:city</code>, failed after {:.3}s;",
            err.task,
            err.elapsed.as_secs_f64()
        );
        assert!(page.contains(&panel), "{panel}");
    }
}
