//! Integration tests for the paper's performance mechanisms: computation
//! sharing, fine-grained task scoping, two-phase equivalence, and
//! worker-count agreement — asserted on observable behaviour (task
//! counts, results), not wall time.

use dataprep_eda::prelude::*;
use eda_bench::{unshared_context, CorrTiling};
use eda_core::compute::overview::{assemble_overview, plan_overview};
use eda_core::compute::ComputeContext;
use eda_core::json::intermediates_to_json;
use eda_datagen::{generate, kaggle_spec_by_name};

fn dataset() -> DataFrame {
    generate(&kaggle_spec_by_name("titanic").unwrap(), 42)
}

#[test]
fn report_shares_computations_across_sections() {
    let df = dataset();
    // Cache off: this test compares task counts with and without CSE, and
    // the cross-call result cache would serve the second report wholesale.
    let cfg = Config::from_pairs(vec![("engine.cache_budget_bytes", "0")]).unwrap();
    let shared = create_report(&df, &cfg).unwrap();
    let unshared = Report::from_context(unshared_context(&df, &cfg)).unwrap();

    assert!(shared.stats.cse_hits > 20, "cse hits: {}", shared.stats.cse_hits);
    assert_eq!(unshared.stats.cse_hits, 0);
    assert!(
        unshared.stats.tasks_run as f64 > shared.stats.tasks_run as f64 * 1.3,
        "unshared {} vs shared {}",
        unshared.stats.tasks_run,
        shared.stats.tasks_run
    );

    // Sharing must not change the results.
    assert_eq!(shared.variables.len(), unshared.variables.len());
    for (a, b) in shared.variables.iter().zip(&unshared.variables) {
        assert_eq!(a.intermediates, b.intermediates, "column {}", a.name);
    }
}

#[test]
fn fine_grained_tasks_run_fewer_tasks_than_report() {
    let df = dataset();
    let cfg = Config::default();
    let single = plot(&df, &["num0"], &cfg).unwrap();
    let report = create_report(&df, &cfg).unwrap();
    let single_tasks = single.stats.unwrap().tasks_run;
    assert!(
        single_tasks * 3 < report.stats.tasks_run,
        "single {} vs report {}",
        single_tasks,
        report.stats.tasks_run
    );
}

#[test]
fn two_phase_boundary_does_not_change_correlations() {
    // One task per (method, pair) instead of a few tiles per worker: many
    // more tasks, the same matrices — and the same as the public call's.
    let df = dataset();
    let cfg = Config::from_pairs(vec![("engine.cache_budget_bytes", "0")]).unwrap();
    let (tiled, tiled_tasks) = CorrTiling::PerWorker.matrices(&df, &cfg).unwrap();
    let (per_pair, pair_tasks) = CorrTiling::PerPair.matrices(&df, &cfg).unwrap();
    assert_eq!(tiled, per_pair);
    assert!(pair_tasks > tiled_tasks, "{pair_tasks} vs {tiled_tasks}");
    let public = plot_correlation(&df, &[], &cfg).unwrap();
    for m in &tiled {
        let key = format!("correlation_matrix:{}", m.method.name());
        assert_eq!(public.get(&key), Some(&Inter::Correlation(m.clone())), "{key}");
    }
}

#[test]
fn partition_count_does_not_change_results() {
    let df = dataset();
    let base = plot(&df, &["num0"], &Config::default()).unwrap();
    for nparts in ["1", "3", "7"] {
        let cfg = Config::from_pairs(vec![("engine.npartitions", nparts)]).unwrap();
        let other = plot(&df, &["num0"], &cfg).unwrap();
        assert_eq!(
            base.intermediates, other.intermediates,
            "results changed with npartitions={nparts}"
        );
    }
}

#[test]
fn worker_count_does_not_change_overview_payloads() {
    // Null-free floats at 40k rows per partition: each partition's
    // moments and histogram tasks take one whole slice well above the
    // kernels' interruption interval.
    let n = 80_000;
    let wide_slices = DataFrame::new(vec![
        ("a".into(), Column::from_f64((0..n).map(|i| ((i * 31) % 977) as f64 / 7.0).collect())),
        ("b".into(), Column::from_f64((0..n).map(|i| ((i * 7) % 389) as f64 - 150.0).collect())),
    ])
    .unwrap();
    for df in [dataset(), wide_slices] {
        let mut expected: Option<String> = None;
        for workers in ["1", "2", "4"] {
            // Cache off, so every worker count computes its own payloads.
            // (The partition count is capped at one per 8192 rows.)
            let cfg = Config::from_pairs(vec![
                ("engine.workers", workers),
                ("engine.npartitions", "2"),
                ("engine.cache_budget_bytes", "0"),
            ])
            .unwrap();
            let mut ctx = ComputeContext::new(&df, &cfg);
            let plan = plan_overview(&mut ctx);
            let payloads = ctx.execute(&plan.outputs());
            let json = intermediates_to_json(&assemble_overview(&ctx, &plan, &payloads).0);
            match &expected {
                None => expected = Some(json),
                Some(e) => assert_eq!(&json, e, "workers={workers}"),
            }
        }
    }
}

#[test]
fn worker_count_does_not_change_results() {
    let df = dataset();
    let base = plot_missing(&df, &[], &Config::default()).unwrap();
    let cfg = Config::from_pairs(vec![("engine.workers", "4")]).unwrap();
    let multi = plot_missing(&df, &[], &cfg).unwrap();
    assert_eq!(base.intermediates, multi.intermediates);
}
