//! Ablation benchmarks for the design choices DESIGN.md calls out:
//!
//! * **sharing** — structural-key CSE on vs off ([`unshared_context`]),
//!   the paper's "single Dask graph" optimization;
//! * **lazy vs eager** — one shared graph vs per-output execution vs
//!   heavy per-task scheduling (the Figure 6(a) engines, micro-scale);
//! * **two-phase boundary** — correlation cells tiled per worker vs one
//!   task per (method, pair) ([`CorrTiling`], paper §5.2);
//! * **partitioning** — report cost vs partition count.

use std::time::Duration;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use eda_bench::{unshared_context, CorrTiling, EnginePolicy};
use eda_core::compute::overview::plan_overview;
use eda_core::compute::ComputeContext;
use eda_core::report::Report;
use eda_core::{create_report, Config};
use eda_datagen::{generate, kaggle_spec_by_name};
use eda_dataframe::DataFrame;

fn dataset() -> DataFrame {
    let spec = kaggle_spec_by_name("adult").expect("table 2 spec").scaled(0.2);
    generate(&spec, 42)
}

fn ablation_sharing(c: &mut Criterion) {
    let df = dataset();
    // Cache off: the second iteration would otherwise be served whole.
    let cfg = Config::from_pairs(vec![("engine.cache_budget_bytes", "0")]).unwrap();
    let mut group = c.benchmark_group("ablation_sharing");
    group.bench_function(BenchmarkId::new("create_report", "shared"), |b| {
        b.iter(|| Report::create(&df, &cfg).expect("report"))
    });
    group.bench_function(BenchmarkId::new("create_report", "unshared"), |b| {
        b.iter(|| Report::from_context(unshared_context(&df, &cfg)).expect("report"))
    });
    group.finish();
}

fn ablation_lazy(c: &mut Criterion) {
    let df = dataset();
    let cfg = Config::default();
    let mut group = c.benchmark_group("ablation_lazy");
    let engines = [
        ("lazy_parallel", EnginePolicy::LazyParallel),
        ("eager_per_op", EnginePolicy::EagerPerOp),
        ("heavy_scheduler", EnginePolicy::HeavyScheduler(Duration::from_micros(500))),
        ("single_thread", EnginePolicy::SingleThread),
    ];
    for (label, policy) in engines {
        group.bench_function(BenchmarkId::new("overview", label), |b| {
            b.iter(|| {
                let mut ctx = ComputeContext::new(&df, &cfg);
                let plan = plan_overview(&mut ctx);
                let outputs = plan.outputs();
                policy.execute(&mut ctx.graph, &outputs, cfg.engine.workers)
            })
        });
    }
    group.finish();
}

fn ablation_twophase(c: &mut Criterion) {
    let df = dataset();
    // Cache off: the second iteration would otherwise be served whole.
    let cfg = Config::from_pairs(vec![("engine.cache_budget_bytes", "0")]).unwrap();
    let mut group = c.benchmark_group("ablation_twophase");
    for (label, tiling) in [("per_worker", CorrTiling::PerWorker), ("per_pair", CorrTiling::PerPair)] {
        group.bench_function(BenchmarkId::new("plot_correlation", label), |b| {
            b.iter(|| tiling.matrices(&df, &cfg).expect("corr"))
        });
    }
    group.finish();
}

fn ablation_partitions(c: &mut Criterion) {
    let df = dataset();
    let mut group = c.benchmark_group("ablation_partitions");
    for nparts in [1usize, 2, 4, 8, 16] {
        let cfg =
            Config::from_pairs(vec![("engine.npartitions", &nparts.to_string() as &str)]).unwrap();
        group.bench_with_input(
            BenchmarkId::new("create_report", nparts),
            &cfg,
            |b, cfg| b.iter(|| create_report(&df, cfg).expect("report")),
        );
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = ablation_sharing, ablation_lazy, ablation_twophase, ablation_partitions
}
criterion_main!(benches);
