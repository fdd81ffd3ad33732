//! Integration tests for the paper's performance mechanisms: computation
//! sharing, cross-call caching, fine-grained task scoping, two-phase
//! equivalence, and worker-count agreement — asserted on observable
//! behaviour (task counts, results), not wall time.

use std::sync::Arc;
use std::time::Duration;

use dataprep_eda::prelude::*;
use dataprep_eda::taskgraph::trace::SpanStatus;
use dataprep_eda::taskgraph::ResultCache;
use eda_bench::{unshared_context, CorrTiling};
use eda_core::compute::overview::compute_overview;
use eda_core::compute::univariate::compute_univariate;
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
fn warm_report_runs_nothing_and_renders_the_uncached_page() {
    // A private cache, so no other test can swap the session cache
    // between the two runs.
    let df = dataset();
    let cfg = Config::default();
    let cache = Arc::new(ResultCache::new(cfg.engine.cache_budget_bytes));
    let cached = || {
        Report::from_context(ComputeContext::new(&df, &cfg).with_cache(Arc::clone(&cache))).unwrap()
    };
    let cold = cached();
    assert!(cold.stats.cache_misses > 0);
    let warm = cached();
    assert_eq!((warm.stats.tasks_run, warm.stats.cache_misses), (0, 0));
    assert!(warm.stats.cache_hits > 0);

    // A second input: `plot(df, x)` for every column first, then a cold
    // report over the same cache finds each variable section there.
    let profiled = Config::from_pairs(vec![("engine.profile", "true")]).unwrap();
    let plotted = Arc::new(ResultCache::new(cfg.engine.cache_budget_bytes));
    let context = || ComputeContext::new(&df, &profiled).with_cache(Arc::clone(&plotted));
    for name in df.names() {
        let mut ctx = context();
        let node = compute_univariate(&mut ctx, name).unwrap();
        ctx.run_section(node).unwrap();
    }
    let mut after_plots = Report::from_context(context()).unwrap();
    let trace = after_plots.stats.trace.take().expect("profiled run");
    for name in df.names() {
        let span = trace.span_named(&format!("section:univariate:{name}")).expect("section span");
        assert_eq!(span.status, SpanStatus::Cached, "{name}");
    }

    let off = Config::from_pairs(vec![("engine.cache_budget_bytes", "0")]).unwrap();
    let uncached = Report::from_context(ComputeContext::new(&df, &off)).unwrap();
    assert_eq!(uncached.stats.cache_hits + uncached.stats.cache_misses, 0);
    // The footer prints the executor's counters, which differ by design.
    let page = |mut r: Report| {
        r.stats.elapsed = Duration::ZERO;
        (r.stats.tasks_run, r.stats.cse_hits) = (0, 0);
        render_report_html(&r, &cfg.display)
    };
    let uncached = page(uncached);
    assert!(page(warm) == uncached, "the cache-served page differs from the uncached one");
    assert!(page(after_plots) == uncached, "the page after the plot calls differs");
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
    let (tiled, tiled_stats) = CorrTiling::PerWorker.matrices(&df, &cfg).unwrap();
    let (per_pair, pair_stats) = CorrTiling::PerPair.matrices(&df, &cfg).unwrap();
    assert_eq!(tiled, per_pair);
    let (tiled_tasks, pair_tasks) = (tiled_stats.tasks_run, pair_stats.tasks_run);
    assert!(pair_tasks > tiled_tasks, "{pair_tasks} vs {tiled_tasks}");
    let public = plot_correlation(&df, &[], &cfg).unwrap();
    for m in &tiled {
        let key = format!("correlation_matrix:{}", m.method.name());
        assert_eq!(public.get(&key), Some(&Inter::Correlation(m.clone())), "{key}");
    }
}

#[test]
fn partition_count_does_not_change_results() {
    // Titanic's 891 rows are one partition by default; cut them into
    // one to eight.
    let df = dataset();
    let cfg = Config::from_pairs(vec![("engine.cache_budget_bytes", "0")]).unwrap();
    let base = plot(&df, &["num0"], &cfg).unwrap();
    for nparts in 1..=8 {
        let mut ctx = ComputeContext::partitioned(&df, &cfg, nparts);
        assert_eq!(ctx.pf.npartitions(), nparts);
        let node = compute_univariate(&mut ctx, "num0").unwrap();
        let (cut, _) = ctx.run_section(node).unwrap();
        assert_eq!(base.intermediates, cut, "results changed with {nparts} partitions");
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
            let cfg = Config::from_pairs(vec![
                ("engine.workers", workers),
                ("engine.cache_budget_bytes", "0"),
            ])
            .unwrap();
            let mut ctx = ComputeContext::new(&df, &cfg);
            let node = compute_overview(&mut ctx);
            let json = intermediates_to_json(&ctx.run_section(node).unwrap().0);
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
