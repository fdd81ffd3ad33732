//! `plot_correlation(df, x)` after `plot_correlation(df)` or
//! `create_report` on the same frame: row `x` of each matrix the result
//! cache holds is read off it, so no `corr_matrix` task runs, and the
//! vector is byte-equal to the one its own row tiles compute. Every case
//! runs at one worker and at two, over a private cache; one shares its
//! cache across four tilings.

use std::sync::Arc;

use dataprep_eda::prelude::*;
use dataprep_eda::taskgraph::trace::SpanStatus;
use dataprep_eda::taskgraph::ResultCache;
use eda_core::compute::correlation::{
    compute_correlation_overview, compute_correlation_vector, default_tiles, numeric_columns,
    plan_matrix_nodes,
};
use eda_core::compute::ComputeContext;
use eda_core::json::intermediates_to_json;
use eda_core::Insight;

/// Nulls, a NaN, a column of four values, a constant column (every cell
/// it has is `None`), a near copy of `a` (so insights fire) and a
/// categorical column the vectors leave out.
fn frame() -> DataFrame {
    let n = 600;
    let wave = |i: usize| ((i * 37) % 101) as f64 / 3.0;
    DataFrame::new(vec![
        (
            "a".into(),
            Column::from_opt_f64((0..n).map(|i| (i % 11 != 0).then(|| wave(i))).collect()),
        ),
        (
            "nan".into(),
            Column::from_f64(
                (0..n).map(|i| if i == 5 { f64::NAN } else { ((i * 13) % 29) as f64 }).collect(),
            ),
        ),
        ("ties".into(), Column::from_f64((0..n).map(|i| (i % 4) as f64).collect())),
        ("constant".into(), Column::from_f64(vec![3.0; n])),
        (
            "near_a".into(),
            Column::from_f64((0..n).map(|i| 2.0 * wave(i) + (i % 3) as f64 / 10.0).collect()),
        ),
        ("city".into(), Column::from_string((0..n).map(|i| format!("c{}", i % 3)).collect())),
    ])
    .unwrap()
}

fn config(workers: usize, cache: bool) -> Config {
    let budget = if cache { "67108864" } else { "0" };
    Config::from_pairs(vec![
        ("engine.workers", workers.to_string().as_str()),
        ("engine.cache_budget_bytes", budget),
        ("engine.profile", "true"),
    ])
    .unwrap()
}

/// One `plot_correlation(df, x)`: its intermediates as JSON, its
/// insights, and its spans as (name, served from the cache).
struct Vector {
    json: String,
    insights: Vec<Insight>,
    tasks_run: usize,
    cache_hits: usize,
    spans: Vec<(String, bool)>,
}

impl Vector {
    fn ran(&self, prefix: &str) -> usize {
        self.spans.iter().filter(|(name, cached)| !cached && name.starts_with(prefix)).count()
    }
}

fn vector(df: &DataFrame, cfg: &Config, cache: Option<&Arc<ResultCache>>, x: &str) -> Vector {
    let ctx = ComputeContext::new(df, cfg);
    let mut ctx = match cache {
        Some(cache) => ctx.with_cache(Arc::clone(cache)),
        None => ctx,
    };
    let node = compute_correlation_vector(&mut ctx, x).unwrap();
    let (ims, insights) = ctx.run_section(node).unwrap();
    let stats = ctx.last_stats.unwrap();
    let trace = stats.trace.expect("profiled run");
    let spans =
        trace.spans.iter().map(|s| (s.name.clone(), s.status == SpanStatus::Cached)).collect();
    Vector {
        json: intermediates_to_json(&ims),
        insights,
        tasks_run: stats.tasks_run,
        cache_hits: stats.cache_hits,
        spans,
    }
}

/// The vector of `x` with the cache off: its row tiles, always.
fn computed(df: &DataFrame, workers: usize, x: &str) -> Vector {
    let computed = vector(df, &config(workers, false), None, x);
    let tiles = default_tiles(workers, numeric_columns_of(df).len() - 1);
    assert_eq!(computed.ran("corr_matrix:"), 3 * tiles, "{x}: the row's tiles, per method");
    assert_eq!(computed.ran("corr_assemble:"), 0, "{x}");
    computed
}

fn numeric_columns_of(df: &DataFrame) -> Vec<String> {
    numeric_columns(&ComputeContext::new(df, &Config::default()))
}

/// Every numeric column's vector, served from the matrices an earlier
/// call left in `cache`, runs its section node alone and equals the
/// computed one.
fn assert_served(df: &DataFrame, workers: usize, cache: &Arc<ResultCache>) {
    let cfg = config(workers, true);
    let names = numeric_columns_of(df);
    assert_eq!(names, ["a", "nan", "ties", "constant", "near_a"]);
    for x in &names {
        let served = vector(df, &cfg, Some(cache), x);
        assert_eq!((served.tasks_run, served.cache_hits), (1, 3), "{x} at {workers} workers");
        assert_eq!(served.ran("section:correlation_vector:"), 1, "{x}");
        assert_eq!(served.ran("corr_matrix:"), 0, "{x}");
        let computed = computed(df, workers, x);
        assert_eq!(served.json, computed.json, "{x} at {workers} workers");
        assert_eq!(served.insights, computed.insights, "{x} at {workers} workers");
    }
    let near = computed(df, workers, "a");
    assert!(!near.insights.is_empty(), "a ~ near_a fires an insight");
    assert!(near.json.contains("null"), "the constant column's cells are undefined");
}

#[test]
fn a_vector_after_the_overview_reads_the_cached_matrices() {
    let df = frame();
    for workers in [1, 2] {
        let cache = Arc::new(ResultCache::new(64 << 20));
        let cfg = config(workers, true);
        let mut ctx = ComputeContext::new(&df, &cfg).with_cache(Arc::clone(&cache));
        let node = compute_correlation_overview(&mut ctx).unwrap();
        ctx.run_section(node).unwrap();
        assert_served(&df, workers, &cache);
    }
}

#[test]
fn a_vector_after_a_report_reads_the_cached_matrices() {
    let df = frame();
    for workers in [1, 2] {
        let cache = Arc::new(ResultCache::new(64 << 20));
        let cfg = config(workers, true);
        let report =
            Report::from_context(ComputeContext::new(&df, &cfg).with_cache(Arc::clone(&cache)))
                .unwrap();
        assert!(!report.correlations.is_empty());
        assert_served(&df, workers, &cache);
    }
}

#[test]
fn another_frames_matrices_serve_nothing() {
    let df = frame();
    let other = df.slice(0, 300);
    for workers in [1, 2] {
        let cfg = config(workers, true);
        let cache = Arc::new(ResultCache::new(64 << 20));
        let mut ctx = ComputeContext::new(&other, &cfg).with_cache(Arc::clone(&cache));
        let node = compute_correlation_overview(&mut ctx).unwrap();
        ctx.run_section(node).unwrap();
        for x in ["a", "constant"] {
            let v = vector(&df, &cfg, Some(&cache), x);
            let tiles = default_tiles(workers, 4);
            assert_eq!(v.ran("corr_matrix:"), 3 * tiles, "{x} at {workers} workers");
            assert!(!v.spans.iter().any(|(name, _)| name.starts_with("corr_assemble:")), "{x}");
            assert_eq!(v.json, computed(&df, workers, x).json, "{x} at {workers} workers");
        }
    }
}

#[test]
fn one_cached_method_is_served_alone() {
    let df = frame();
    let names = numeric_columns_of(&df);
    for workers in [1, 2] {
        let cfg = config(workers, true);
        let cache = Arc::new(ResultCache::new(64 << 20));
        // Only Spearman's matrix (and what it reads) enters the cache.
        let mut ctx = ComputeContext::new(&df, &cfg).with_cache(Arc::clone(&cache));
        let spearman = plan_matrix_nodes(&mut ctx, &names)[1];
        ctx.execute_checked(&[spearman]).unwrap();
        for x in ["ties", "near_a"] {
            let v = vector(&df, &cfg, Some(&cache), x);
            let tiles = default_tiles(workers, names.len() - 1);
            assert_eq!(v.ran("corr_matrix:Spearman:"), 0, "{x} at {workers} workers");
            assert_eq!(v.ran("corr_matrix:Pearson:"), tiles, "{x} at {workers} workers");
            assert_eq!(v.ran("corr_matrix:KendallTau:"), tiles, "{x} at {workers} workers");
            assert!(v.spans.contains(&("corr_assemble:Spearman".to_string(), true)), "{x}");
            assert_eq!(v.json, computed(&df, workers, x).json, "{x} at {workers} workers");
        }
    }
}

/// `engine.workers` sets the tiling and is outside the config hash, so
/// one cache sees the tiles of every worker count: a tile's key carries
/// its pair range, and no tiling is served another's cells.
#[test]
fn tilings_share_one_cache_without_mixing_tiles() {
    let df = frame();
    let cache = Arc::new(ResultCache::new(64 << 20));
    let overview = |cfg: &Config, cache: Option<&Arc<ResultCache>>| {
        let ctx = ComputeContext::new(&df, cfg);
        let mut ctx = match cache {
            Some(cache) => ctx.with_cache(Arc::clone(cache)),
            None => ctx,
        };
        let node = compute_correlation_overview(&mut ctx).unwrap();
        let (ims, insights) = ctx.run_section(node).unwrap();
        (intermediates_to_json(&ims), insights)
    };
    for workers in [1, 2, 3, 5] {
        let (cached, uncached) = (config(workers, true), config(workers, false));
        assert_eq!(overview(&cached, Some(&cache)), overview(&uncached, None), "{workers} workers");
        for x in ["a", "ties"] {
            let v = vector(&df, &cached, Some(&cache), x);
            let fresh = vector(&df, &uncached, None, x);
            let what = format!("{x} at {workers} workers");
            assert_eq!((v.json, v.insights), (fresh.json, fresh.insights), "{what}");
        }
    }
}
