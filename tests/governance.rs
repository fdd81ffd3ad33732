//! Resource-governance integration tests through the public API.
//!
//! The acceptance bar of the governance layer: knobs at their defaults
//! leave reports bit-identical to an ungoverned run; a run deadline
//! stops in-flight work promptly and reclaims wedged workers; and a task
//! deadline degrades only its own section.

use std::time::{Duration, Instant};

use eda_core::compute::correlation::{numeric_columns, plan_matrix_nodes, plan_matrix_tiles};
use eda_core::compute::ComputeContext;
use eda_core::{create_report, plot, Config, Report, SectionStatus};
use eda_dataframe::{Column, DataFrame};
use eda_render::layout::render_report_html;
use eda_taskgraph::{inject, FaultInjector, ResultCache};

fn frame(n: usize) -> DataFrame {
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

/// A config with the session cache off, so every task actually executes
/// (cache-served payloads are neither charged nor counted) and no other
/// test's warm cache changes this test's stats.
fn cfg(pairs: &[(&str, &str)]) -> Config {
    let mut all = vec![("engine.cache_budget_bytes", "0")];
    all.extend_from_slice(pairs);
    Config::from_pairs(all).unwrap()
}

// ---------------------------------------------------------------- golden

/// Governance knobs at their defaults must be invisible: same stats,
/// same bytes of HTML as a config that never mentions them.
#[test]
fn default_knobs_are_bit_identical_to_unset() {
    let df = frame(300);
    let baseline = cfg(&[]);
    let explicit = cfg(&[("engine.run_deadline_ms", "0"), ("engine.task_deadline_ms", "0")]);

    let mut a = create_report(&df, &baseline).unwrap();
    let mut b = create_report(&df, &explicit).unwrap();
    assert!(a.stats.fully_succeeded(), "{:?}", a.stats);

    // Wall time is the one legitimately nondeterministic field; zero it
    // on both sides so the comparison covers everything else (it also
    // feeds the report footer, hence zeroing *before* rendering).
    a.stats.elapsed = Duration::ZERO;
    b.stats.elapsed = Duration::ZERO;
    assert_eq!(a.stats, b.stats);
    assert_eq!(a.stats.tasks_cancelled, 0);

    let html_a = render_report_html(&a, &baseline.display);
    let html_b = render_report_html(&b, &explicit.display);
    assert_eq!(html_a, html_b, "explicit-default knobs changed the rendered bytes");
    // (`eda-approx` alone also matches the stylesheet rule, hence the
    // `class=` form.)
    assert!(
        !html_a.contains("class=\"eda-approx\""),
        "ungoverned run must not carry the approx banner"
    );
}

// ----------------------------------------------------------- cancellation

/// `engine.run_deadline_ms` stops a large in-flight `create_report`
/// promptly: kernels bail at their next interruption poll and the
/// scheduler stops dispatching, so the call returns far sooner than the
/// full run would.
#[test]
fn run_deadline_stops_inflight_report_promptly() {
    // Null-free floats as one 3M-row partition, run inline: the first
    // tasks are the whole-slice moments and histogram kernels, so one of
    // them is mid-slice when the deadline passes and only its own poll
    // every `CHECK_INTERVAL` elements can stop it.
    let one_slice = DataFrame::new(vec![(
        "v".into(),
        Column::from_f64((0..3_000_000).map(|i| ((i * 31) % 9973) as f64 / 7.0).collect()),
    )])
    .unwrap();
    // The run gets properly underway before its deadline passes.
    let deadline = Duration::from_millis(30);
    let ms = deadline.as_millis().to_string();
    let inputs = [
        (frame(200_000), cfg(&[("engine.workers", "4"), ("engine.run_deadline_ms", &ms)]), false),
        (one_slice, cfg(&[("engine.workers", "1"), ("engine.run_deadline_ms", &ms)]), true),
    ];
    for (df, config, inline) in &inputs {
        let started = Instant::now();
        let report = if *inline {
            Report::from_context(ComputeContext::partitioned(df, config, 1))
        } else {
            create_report(df, config)
        };
        let report = report.expect("cancelled run degrades, not errors");
        let reclaim = started.elapsed().saturating_sub(deadline);

        // Target ~100ms; the bound is generous for loaded CI machines but
        // still far below what either report takes uncancelled.
        assert!(reclaim < Duration::from_millis(1500), "returned {reclaim:?} after the deadline");
        let failed = report.failed_sections();
        assert!(!failed.is_empty(), "a cancelled mid-flight report must have degraded sections");
        for (name, status) in &failed {
            match status {
                SectionStatus::Failed(error) => {
                    assert!(!error.to_string().is_empty(), "{name} lost its diagnostics")
                }
                SectionStatus::Ok => unreachable!(),
            }
        }
        // Inline, the one task in flight is some section's root cause: it
        // was cancelled while its body ran (not short-circuited at
        // dispatch), so it reports how long it had been running.
        assert!(
            failed.iter().any(|(_, s)| matches!(
                s,
                SectionStatus::Failed(error)
                    if error.to_string().contains("cancel") && (!inline || !error.elapsed.is_zero())
            )),
            "no section names the cancellation: {failed:?}"
        );
    }
}

/// `engine.run_deadline_ms` reclaims every worker even when one is
/// wedged in a kernel: the wedge observes the run token and the whole
/// call returns around the deadline, not the wedge duration.
#[test]
fn run_deadline_reclaims_wedged_workers() {
    let df = frame(240);
    let config = cfg(&[("engine.workers", "4"), ("engine.run_deadline_ms", "150")]);
    let _guard = inject::arm(FaultInjector::wedge_on("moments:price", Duration::from_secs(8)));

    let started = Instant::now();
    let report = create_report(&df, &config).expect("deadline degrades, not fails");
    let elapsed = started.elapsed();

    assert!(elapsed < Duration::from_secs(4), "workers not reclaimed: took {elapsed:?}");
    assert!(report.stats.tasks_cancelled >= 1, "{:?}", report.stats);
    let price = report.variables.iter().find(|v| v.name == "price").unwrap();
    match &price.status {
        SectionStatus::Failed(err) => {
            let error = err.to_string();
            assert!(error.contains("deadline") || error.contains("cancel"), "{error}")
        }
        SectionStatus::Ok => panic!("wedged section should have been cancelled"),
    }
}

/// A Kendall tile stops *inside* its inversion count. The columns' preps
/// are served from a warm cache, so under the task deadline only tiles
/// execute; one Kendall tile takes several deadlines, polls the probe
/// every few thousand elements of the count, and must be reclaimed after
/// a fraction of its uninterrupted time.
#[test]
fn task_deadline_stops_a_kendall_tile_mid_count() {
    let n = 400_000usize;
    let col = |mul: usize, modulus: usize| {
        Column::from_f64((0..n).map(|i| ((i * mul) % modulus) as f64 / 3.0).collect())
    };
    let df = DataFrame::new(vec![
        ("a".into(), col(7919, 399_989)),
        ("b".into(), col(104_729, 399_983)),
        ("c".into(), col(1_299_709, 1009)),
    ])
    .unwrap();
    let cache = std::sync::Arc::new(ResultCache::new(1 << 30));
    let base = [("engine.workers", "1"), ("engine.profile", "true")];

    // Uninterrupted: one tile per method, which also warms the preps.
    let free = Config::from_pairs(base).unwrap();
    let mut ctx = ComputeContext::new(&df, &free).with_cache(cache.clone());
    let names = numeric_columns(&ctx);
    let nodes = plan_matrix_tiles(&mut ctx, &names, 1);
    ctx.execute_checked(&nodes).expect("ungoverned run succeeds");
    let trace = ctx.last_stats.as_ref().unwrap().trace.clone().unwrap();
    let tile = trace.span_named("corr_matrix:KendallTau:0-3:matrix").expect("tile span");
    let three_pairs = tile.duration();

    // Governed: the default tiling puts each of the 3 pairs in its own
    // tile (new task keys, so nothing of them is cached); the deadline is
    // a quarter of one pair's time.
    let ms = (three_pairs / 12).as_millis().max(2).to_string();
    let deadline = Duration::from_millis(ms.parse().unwrap());
    let mut pairs = base.to_vec();
    pairs.push(("engine.task_deadline_ms", &ms));
    let tight = Config::from_pairs(pairs).unwrap();
    let mut ctx = ComputeContext::new(&df, &tight).with_cache(cache);
    let nodes = plan_matrix_nodes(&mut ctx, &names);
    let outcomes = ctx.execute_outcomes(&nodes);
    let stats = ctx.last_stats.as_ref().unwrap();
    assert!(stats.cache_hits >= 3, "preps should come from the cache: {stats:?}");

    // Pearson and Spearman tiles are a dot product each: well inside.
    assert!(outcomes[0].is_ok() && outcomes[1].is_ok(), "{:?}", outcomes[0].error());
    let err = outcomes[2].error().expect("the Kendall matrix cannot assemble");
    let (_, root) = err.root_cause();
    assert!(root.starts_with("corr_matrix:KendallTau"), "{root}");
    assert!(stats.tasks_timed_out >= 1, "{stats:?}");
    let trace = stats.trace.as_ref().unwrap();
    let stopped = trace.span_named(root).expect("timed-out tile span").duration();
    assert!(stopped >= deadline, "{stopped:?} < {deadline:?}");
    assert!(
        stopped < three_pairs / 4,
        "tile ran {stopped:?} of ~{:?} after a {deadline:?} deadline",
        three_pairs / 3
    );
}

/// A KDE task stops between blocks of samples, and `plot(df, x)` degrades
/// to diagnostics naming it.
#[test]
fn task_deadline_stops_a_kde_task_between_samples() {
    let df = frame(20_000);
    // 5000 samples, each reaching a third of 40,000 grid points: long
    // enough to time, optimized or not.
    let base = [("engine.workers", "1"), ("engine.profile", "true"), ("kde.grid", "40000")];
    let free = plot(&df, &["size"], &cfg(&base)).unwrap();
    assert!(free.status.is_ok(), "{:?}", free.status);
    let full =
        free.stats.unwrap().trace.unwrap().span_named("kde:size").expect("kde span").duration();

    let ms = (full / 8).as_millis().max(5).to_string();
    let deadline = Duration::from_millis(ms.parse().unwrap());
    let mut pairs = base.to_vec();
    pairs.push(("engine.task_deadline_ms", &ms));
    let governed = plot(&df, &["size"], &cfg(&pairs)).unwrap();
    match &governed.status {
        SectionStatus::Failed(error) => {
            assert_eq!(error.root_cause().1, "kde:size", "{error}");
        }
        SectionStatus::Ok => panic!("a {deadline:?} deadline should stop a {full:?} KDE"),
    }
    let stats = governed.stats.unwrap();
    assert_eq!(stats.tasks_timed_out, 1, "{stats:?}");
    let stopped = stats.trace.unwrap().span_named("kde:size").unwrap().duration();
    assert!(stopped < full / 2, "KDE ran {stopped:?} of {full:?} after a {deadline:?} deadline");
}

/// A panicking `kde` task degrades its own variable section and nothing
/// else: no other section consumes it. So does a panic in the section
/// node that finishes `price`'s variable section, and its diagnostics
/// name that node.
#[test]
fn panicking_kde_task_degrades_only_its_variable_section() {
    let df = frame(300);
    for target in ["kde:price", "section:univariate:price"] {
        let _guard = inject::arm(FaultInjector::panic_on(target));
        let report = create_report(&df, &cfg(&[])).unwrap();
        let failed = report.failed_sections();
        assert_eq!(failed.len(), 1, "{failed:?}");
        assert_eq!(failed[0].0, "variable:price");
        match failed[0].1 {
            SectionStatus::Failed(err) => assert_eq!(err.root_cause().1, target),
            SectionStatus::Ok => unreachable!(),
        }
        assert_eq!(report.stats.tasks_failed, 1, "{:?}", report.stats);
        let size = report.variables.iter().find(|v| v.name == "size").unwrap();
        assert!(size.intermediates.get("kde_plot").is_some());
        assert!(report.overview_status.is_ok() && report.correlations_status.is_ok());
    }
}
