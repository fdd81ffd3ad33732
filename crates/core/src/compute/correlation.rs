//! Correlation analysis: `plot_correlation` (paper Figure 2, rows 5–7).
//!
//! * `plot_correlation(df)` → Pearson, Spearman, Kendall-tau matrices over
//!   the numeric columns.
//! * `plot_correlation(df, x)` → the three correlation vectors of `x`
//!   against every other numeric column.
//! * `plot_correlation(df, x, y)` → scatter plot with a regression line.
//!
//! Everything runs inside the graph, down to each call's one section
//! node (`section:correlation`, `section:correlation_vector:<x>`,
//! `section:correlation_pair:<x>:<y>`), which filters a handful of
//! coefficients for insights and lays out the charts; `create_report`
//! plans the same `section:correlation` node and reads its matrices back.
//!
//! * `numeric_gather` → `corr_prep` per column
//!   ([`kernels::plan_corr_prep`]): one argsort yields the column's ranks,
//!   tie groups and moments ([`ColumnPrep`]). Shared by structural key
//!   across every correlation call over a frame — and with the column's
//!   `sorted_values`, which reads its ascending values off the same
//!   argsort, so a report sorts each numeric column once — and served by
//!   the cross-call result cache on repeat calls.
//! * `corr_matrix` tiles: a method's pair list — the upper triangle for a
//!   matrix, row `x` for a vector — cut into contiguous runs of equal
//!   length, one task each ([`corr_cells`]). A pair is always computed as
//!   `(lower index, higher index)` by the same kernel, so a matrix, a
//!   vector and any tiling of either agree bit for bit.
//! * `corr_assemble` per method: copies the tiles into a [`CorrMatrix`].
//!   A vector whose method's matrix is in the result cache reads its row
//!   off it instead of planning tiles ([`compute_correlation_vector`]).
//!
//! How many tiles is a function of `engine.workers` and the pair count
//! ([`default_tiles`]); [`plan_matrix_tiles`] takes the count explicitly,
//! which is how the per-pair granularity ablation is expressed.

use std::sync::Arc;

use eda_stats::corr::{corr_cells, upper_triangle, Col, ColumnPrep, CorrMatrix, CorrMethod};
use eda_stats::regression::LinearFit;
use eda_taskgraph::key::TaskKey;
use eda_taskgraph::NodeId;

use crate::dtype::SemanticType;
use crate::error::{EdaError, EdaResult};
use crate::insights::correlation_insight;
use crate::intermediate::{Inter, Intermediates};

use super::ctx::{un, ComputeContext};
use super::kernels;
use super::univariate::thin_scatter;

/// Numeric columns of the frame, in order.
pub fn numeric_columns(ctx: &ComputeContext<'_>) -> Vec<String> {
    ctx.df
        .names()
        .iter()
        .filter(|n| ctx.semantic(n).is_ok_and(|t| t == SemanticType::Numerical))
        .cloned()
        .collect()
}

/// Plan `plot_correlation(df)`: the three matrices and the section node
/// over them.
pub fn compute_correlation_overview(ctx: &mut ComputeContext<'_>) -> EdaResult<NodeId> {
    let names = numeric_columns(ctx);
    if names.len() < 2 {
        return Err(EdaError::EmptyInput("need at least two numeric columns"));
    }
    let nodes = plan_matrix_nodes(ctx, &names);
    let config = Arc::clone(&ctx.config);
    Ok(ctx.section("section:correlation", nodes, move |outs| {
        let mut ims = Intermediates::new();
        let mut insights = Vec::new();
        for m in outs.iter().map(|p| un::<CorrMatrix>(p).clone()) {
            for (a, b, r) in m.strong_pairs(config.insight.correlation) {
                insights.extend(correlation_insight(&a, &b, m.method.name(), r, &config.insight));
            }
            ims.push(format!("correlation_matrix:{}", m.method.name()), Inter::Correlation(m));
        }
        (ims, insights)
    }))
}

/// Tiles per method when nothing says otherwise: a few per worker, so
/// the last tiles to finish are short, but never more than there are
/// pairs.
pub fn default_tiles(workers: usize, npairs: usize) -> usize {
    (4 * workers).clamp(1, npairs.max(1))
}

/// Cut `0..npairs` into `tiles` contiguous ranges whose lengths differ by
/// at most one (fewer ranges when there are fewer pairs).
pub fn tile_bounds(npairs: usize, tiles: usize) -> Vec<(usize, usize)> {
    let tiles = tiles.clamp(1, npairs.max(1));
    (0..tiles).map(|t| (t * npairs / tiles, (t + 1) * npairs / tiles)).collect()
}

/// Plan `method` over `pairs` (indices into `columns`) as `tiles`
/// `corr_matrix` tasks; their payloads, concatenated in order, are the
/// coefficients of `pairs` in order. `scope` keeps the keys of different
/// pair lists over the same columns apart.
fn plan_cells(
    ctx: &mut ComputeContext<'_>,
    columns: &[(NodeId, NodeId)],
    method: CorrMethod,
    pairs: &[(usize, usize)],
    tiles: usize,
    scope: &str,
) -> Vec<NodeId> {
    let m = columns.len();
    let deps: Vec<NodeId> =
        columns.iter().map(|c| c.0).chain(columns.iter().map(|c| c.1)).collect();
    tile_bounds(pairs.len(), tiles)
        .into_iter()
        .map(|(lo, hi)| {
            let tile = pairs[lo..hi].to_vec();
            let params = ctx.params(TaskKey::params(&format!(
                "corrtile:{}:{scope}:{lo}:{hi}",
                method.name()
            )));
            let name = format!("corr_matrix:{}:{lo}", method.name());
            ctx.graph.op(&name, params, deps.clone(), move |inputs| {
                let (gathers, preps) = inputs.split_at(m);
                let cols: Vec<Col<'_>> = gathers
                    .iter()
                    .zip(preps)
                    .map(|(g, p)| Col { values: un::<Vec<f64>>(g), prep: un::<ColumnPrep>(p) })
                    .collect();
                corr_cells(method, &cols, &tile)
            })
        })
        .collect()
}

/// Plan the three correlation matrices with the default tiling. Returns
/// one node per [`CorrMethod::ALL`] entry, each with a [`CorrMatrix`]
/// payload.
pub fn plan_matrix_nodes(ctx: &mut ComputeContext<'_>, names: &[String]) -> Vec<NodeId> {
    let npairs = names.len() * names.len().saturating_sub(1) / 2;
    plan_matrix_tiles(ctx, names, default_tiles(ctx.config.engine.workers, npairs))
}

/// [`plan_matrix_nodes`] with an explicit number of tiles per method
/// (clamped to the pair count, so `usize::MAX` is one task per pair).
pub fn plan_matrix_tiles(
    ctx: &mut ComputeContext<'_>,
    names: &[String],
    tiles: usize,
) -> Vec<NodeId> {
    let columns: Vec<(NodeId, NodeId)> = names.iter().map(|n| kernels::plan_corr_prep(ctx, n)).collect();
    let pairs = upper_triangle(names.len());
    let labels: Arc<[String]> = names.into();
    CorrMethod::ALL
        .iter()
        .map(|&method| {
            let tile_nodes = plan_cells(ctx, &columns, method, &pairs, tiles, "matrix");
            let labels = Arc::clone(&labels);
            let params =
                ctx.params(TaskKey::params(&format!("corrassemble:{}", method.name())));
            let name = format!("corr_assemble:{}", method.name());
            ctx.graph.op(&name, params, tile_nodes, move |tiles| {
                let upper = tiles.iter().flat_map(|t| un::<Vec<Option<f64>>>(t).iter().copied());
                CorrMatrix::from_upper(labels.to_vec(), method, upper)
            })
        })
        .collect()
}

/// Plan `plot_correlation(df, x)`: row `x` of the three matrices.
///
/// A method whose matrix the result cache holds for this frame — left by
/// an earlier `plot_correlation(df)` or `create_report` under the same
/// tiling — is served from it: its [`plan_matrix_nodes`] node is a cache
/// hit, so no task runs, and the row is read off it. Any other method
/// plans just the row's `corr_matrix` tiles over the columns' shared
/// `corr_prep` nodes: m − 1 pairs, where deriving the row from a fresh
/// matrix would compute all m(m − 1)/2. Both give the same cells bit for
/// bit, since either computes pair `(min, max)` with the same kernel.
pub fn compute_correlation_vector(ctx: &mut ComputeContext<'_>, x: &str) -> EdaResult<NodeId> {
    if ctx.semantic(x)? != SemanticType::Numerical {
        return Err(EdaError::NotNumeric(x.to_string()));
    }
    let names = numeric_columns(ctx);
    let Some(xi) = names.iter().position(|n| n == x) else {
        return Err(EdaError::NotNumeric(x.to_string()));
    };
    if names.len() < 2 {
        return Err(EdaError::EmptyInput("no other numeric columns"));
    }

    // The matrix computes cell (i, j) with i < j; so does its row.
    let others: Vec<usize> = (0..names.len()).filter(|&j| j != xi).collect();
    let pairs: Vec<(usize, usize)> = others.iter().map(|&j| (xi.min(j), xi.max(j))).collect();
    let matrices = plan_matrix_nodes(ctx, &names);
    let served: Vec<bool> = matrices.iter().map(|&m| ctx.cached(&[m])).collect();
    let columns: Vec<(NodeId, NodeId)> = names.iter().map(|n| kernels::plan_corr_prep(ctx, n)).collect();
    let tiles = default_tiles(ctx.config.engine.workers, pairs.len());
    let scope = format!("row:{x}");
    let per_method: Vec<Vec<NodeId>> = CorrMethod::ALL
        .iter()
        .zip(matrices.iter().zip(&served))
        .map(|(&method, (&matrix, &served))| {
            if served {
                vec![matrix]
            } else {
                plan_cells(ctx, &columns, method, &pairs, tiles, &scope)
            }
        })
        .collect();
    let config = Arc::clone(&ctx.config);
    let x = x.to_string();
    let name = format!("section:correlation_vector:{x}");
    Ok(ctx.section(&name, per_method.concat(), move |outs| {
        let mut insights = Vec::new();
        let mut vectors = Vec::new();
        let mut outs = outs.iter();
        for ((&method, nodes), &served) in CorrMethod::ALL.iter().zip(&per_method).zip(&served) {
            let taken = outs.by_ref().take(nodes.len());
            let cells: Vec<Option<f64>> = if served {
                let matrix = taken.map(un::<CorrMatrix>);
                matrix.flat_map(|m| pairs.iter().map(|&(i, j)| m.get(i, j))).collect()
            } else {
                taken.flat_map(|t| un::<Vec<Option<f64>>>(t).iter().copied()).collect()
            };
            let mut entries = Vec::with_capacity(others.len());
            for (&j, r) in others.iter().zip(cells) {
                let name = &names[j];
                if let Some(r) = r {
                    let insight = correlation_insight(&x, name, method.name(), r, &config.insight);
                    insights.extend(insight);
                }
                entries.push((name.clone(), r));
            }
            vectors.push((method.name().to_string(), entries));
        }
        let mut ims = Intermediates::new();
        ims.push("correlation_vectors", Inter::CorrVectors(vectors));
        (ims, insights)
    }))
}

/// Plan `plot_correlation(df, x, y)`.
pub fn compute_correlation_pair(
    ctx: &mut ComputeContext<'_>,
    x: &str,
    y: &str,
) -> EdaResult<NodeId> {
    for c in [x, y] {
        if ctx.semantic(c)? != SemanticType::Numerical {
            return Err(EdaError::NotNumeric(c.to_string()));
        }
    }
    let deps = vec![kernels::pair_values(ctx, x, y), kernels::pearson_partial(ctx, x, y)];
    let config = Arc::clone(&ctx.config);
    let (x, y) = (x.to_string(), y.to_string());
    let name = format!("section:correlation_pair:{x}:{y}");
    Ok(ctx.section(&name, deps, move |outs| {
        let pairs = un::<Vec<(f64, f64)>>(&outs[0]);
        let partial = un::<eda_stats::corr::PearsonPartial>(&outs[1]);

        let cap = config.scatter.sample;
        let points = thin_scatter(pairs, cap);

        let mut ims = Intermediates::new();
        let mut insights = Vec::new();
        match LinearFit::from_partial(partial) {
            Some(fit) => {
                if let Some(r) = partial.finish() {
                    insights.extend(correlation_insight(&x, &y, "Pearson", r, &config.insight));
                }
                ims.push(
                    "regression_scatter",
                    Inter::RegressionScatter {
                        points,
                        slope: fit.slope,
                        intercept: fit.intercept,
                        r2: fit.r2,
                    },
                );
            }
            None => {
                ims.push("scatter_plot", Inter::Scatter { points, sampled: pairs.len() > cap });
            }
        }
        (ims, insights)
    }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Config;
    use eda_dataframe::{Column, DataFrame};

    /// Eager reference implementation used by tests to validate the graph
    /// plan: one pair-kernel call per cell over materialized columns.
    fn reference_matrices(df: &DataFrame, names: &[String]) -> Vec<CorrMatrix> {
        let columns: Vec<(String, Vec<f64>)> = names
            .iter()
            .map(|n| {
                (
                    n.clone(),
                    df.column(n).expect("exists").to_f64_nan().expect("numeric"),
                )
            })
            .collect();
        CorrMethod::ALL
            .iter()
            .map(|&m| CorrMatrix::compute(&columns, m))
            .collect()
    }

    fn frame() -> DataFrame {
        let n = 120;
        DataFrame::new(vec![
            (
                "a".into(),
                Column::from_f64((0..n).map(|i| i as f64).collect()),
            ),
            (
                "b".into(),
                Column::from_f64((0..n).map(|i| (i * 2) as f64 + 1.0).collect()),
            ),
            (
                "c".into(),
                Column::from_opt_f64(
                    (0..n)
                        .map(|i| {
                            if i % 7 == 0 {
                                None
                            } else {
                                Some(((i * 31) % 17) as f64)
                            }
                        })
                        .collect(),
                ),
            ),
            (
                "city".into(),
                Column::from_string((0..n).map(|i| format!("c{}", i % 3)).collect()),
            ),
        ])
        .unwrap()
    }

    #[test]
    fn overview_has_three_matrices() {
        let df = frame();
        let cfg = Config::default();
        let mut ctx = ComputeContext::new(&df, &cfg);
        let node = compute_correlation_overview(&mut ctx).unwrap();
        let (ims, insights) = ctx.run_section(node).unwrap();
        for m in ["Pearson", "Spearman", "KendallTau"] {
            let Some(Inter::Correlation(cm)) = ims.get(&format!("correlation_matrix:{m}"))
            else {
                panic!("missing {m}")
            };
            // Categorical columns excluded.
            assert_eq!(cm.labels, vec!["a", "b", "c"]);
        }
        // a~b are perfectly correlated → insight fires.
        assert!(insights
            .iter()
            .any(|i| i.columns == vec!["a".to_string(), "b".to_string()]));
    }

    fn matrices(df: &DataFrame, names: &[String], tiles: Option<usize>) -> Vec<CorrMatrix> {
        let cfg = Config::from_pairs(vec![("engine.cache_budget_bytes", "0")]).unwrap();
        let mut ctx = ComputeContext::new(df, &cfg);
        let nodes = match tiles {
            None => plan_matrix_nodes(&mut ctx, names),
            Some(tiles) => plan_matrix_tiles(&mut ctx, names, tiles),
        };
        let outs = ctx.execute_checked(&nodes).unwrap();
        outs.iter().map(|p| un::<CorrMatrix>(p).clone()).collect()
    }

    #[test]
    fn two_phase_and_all_graph_agree() {
        // Every tiling runs the same cell kernel on the same argument
        // order: equal bit for bit, nulls ("c") included.
        let df = frame();
        let names = vec!["a".to_string(), "b".to_string(), "c".to_string()];
        let tiled = matrices(&df, &names, None);
        for tiles in [1, 2, usize::MAX] {
            assert_eq!(matrices(&df, &names, Some(tiles)), tiled, "tiles = {tiles}");
        }
        // The eager reference calls the pair kernels cell by cell: the
        // same rank-once Spearman, an independent Pearson (streaming
        // update, not a centered dot product) and the sorting Kendall.
        for (ours, reference) in tiled.iter().zip(reference_matrices(&df, &names)) {
            assert_eq!(ours.labels, reference.labels);
            for (x, z) in ours.cells.iter().zip(&reference.cells) {
                match (x, z) {
                    (Some(x), Some(z)) if ours.method == CorrMethod::KendallTau => {
                        assert_eq!(x, z)
                    }
                    (Some(x), Some(z)) => {
                        assert!((x - z).abs() < 1e-12, "{:?}: {x} vs {z}", ours.method)
                    }
                    _ => assert_eq!(x, z),
                }
            }
        }
    }

    #[test]
    fn per_pair_tiling_runs_one_task_per_cell() {
        let df = frame();
        let names = vec!["a".to_string(), "b".to_string(), "c".to_string()];
        let cfg = Config::from_pairs(vec![("engine.cache_budget_bytes", "0")]).unwrap();
        let count = |tiles: usize| {
            let mut ctx = ComputeContext::new(&df, &cfg);
            let before = ctx.graph.len();
            plan_matrix_tiles(&mut ctx, &names, tiles);
            ctx.graph.len() - before
        };
        // 3 pairs per method instead of 1 tile, for each of 3 methods.
        assert_eq!(count(usize::MAX) - count(1), 3 * (3 - 1));
    }

    #[test]
    fn tile_bounds_cover_every_pair_exactly_once() {
        for m in 2..=40usize {
            let pairs = upper_triangle(m);
            for workers in 1..=9 {
                let tiles = default_tiles(workers, pairs.len());
                let bounds = tile_bounds(pairs.len(), tiles);
                assert_eq!(bounds.len(), tiles.min(pairs.len()));
                let covered: Vec<(usize, usize)> =
                    bounds.iter().flat_map(|&(lo, hi)| pairs[lo..hi].to_vec()).collect();
                assert_eq!(covered, pairs, "m={m} workers={workers}");
                let lens: Vec<usize> = bounds.iter().map(|(lo, hi)| hi - lo).collect();
                let (min, max) = (lens.iter().min().unwrap(), lens.iter().max().unwrap());
                assert!(*min >= 1 && max - min <= 1, "m={m} workers={workers}: {lens:?}");
            }
        }
        assert_eq!(tile_bounds(0, 4), vec![(0, 0)]);
        assert_eq!(tile_bounds(3, usize::MAX), vec![(0, 1), (1, 2), (2, 3)]);
    }

    #[test]
    fn vector_is_the_matrix_row_bit_for_bit() {
        // "c" has nulls: rank-once Spearman and the per-pair fallbacks
        // must give the vector exactly what the matrix row holds.
        let df = frame();
        let cfg = Config::from_pairs(vec![("engine.cache_budget_bytes", "0")]).unwrap();
        let mut ctx = ComputeContext::new(&df, &cfg);
        let node = compute_correlation_overview(&mut ctx).unwrap();
        let (matrix_ims, _) = ctx.run_section(node).unwrap();
        for x in ["a", "b", "c"] {
            let mut ctx = ComputeContext::new(&df, &cfg);
            let node = compute_correlation_vector(&mut ctx, x).unwrap();
            let (ims, _) = ctx.run_section(node).unwrap();
            let Some(Inter::CorrVectors(vectors)) = ims.get("correlation_vectors") else {
                panic!()
            };
            for (method, entries) in vectors {
                let Some(Inter::Correlation(m)) =
                    matrix_ims.get(&format!("correlation_matrix:{method}"))
                else {
                    panic!("missing {method}")
                };
                assert_eq!(entries, &m.vector_for(x).unwrap(), "{method} row {x}");
            }
        }
    }

    #[test]
    fn rank_once_spearman_exact_without_nulls() {
        // On NaN-free columns the pandas and SciPy semantics coincide.
        let df = frame();
        let names = vec!["a".to_string(), "b".to_string()];
        let spearman = &matrices(&df, &names, None)[1];
        assert_eq!(spearman.method, CorrMethod::Spearman);
        let (a, b) = (df.column("a").unwrap(), df.column("b").unwrap());
        let per_pair =
            eda_stats::corr::spearman(&a.to_f64_nan().unwrap(), &b.to_f64_nan().unwrap());
        assert!((spearman.get(0, 1).unwrap() - per_pair.unwrap()).abs() < 1e-12);
    }

    #[test]
    fn pairwise_complete_semantics_with_nulls() {
        let df = frame();
        let cfg = Config::default();
        let mut ctx = ComputeContext::new(&df, &cfg);
        let node = compute_correlation_overview(&mut ctx).unwrap();
        let (ims, _) = ctx.run_section(node).unwrap();
        let Some(Inter::Correlation(m)) = ims.get("correlation_matrix:Pearson") else {
            panic!()
        };
        // a~b unaffected by c's nulls.
        assert!((m.get_by_name("a", "b").unwrap().unwrap() - 1.0).abs() < 1e-12);
        // a~c defined despite nulls (pairwise complete).
        assert!(m.get_by_name("a", "c").unwrap().is_some());
    }

    #[test]
    fn vector_excludes_self_and_categoricals() {
        let df = frame();
        let cfg = Config::default();
        let mut ctx = ComputeContext::new(&df, &cfg);
        let node = compute_correlation_vector(&mut ctx, "a").unwrap();
        let (ims, _) = ctx.run_section(node).unwrap();
        let Some(Inter::CorrVectors(vs)) = ims.get("correlation_vectors") else {
            panic!()
        };
        assert_eq!(vs.len(), 3); // three methods
        let (_, entries) = &vs[0];
        let names: Vec<&str> = entries.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, vec!["b", "c"]);
    }

    #[test]
    fn vector_on_categorical_errors() {
        let df = frame();
        let cfg = Config::default();
        let mut ctx = ComputeContext::new(&df, &cfg);
        assert!(matches!(
            compute_correlation_vector(&mut ctx, "city"),
            Err(EdaError::NotNumeric(_))
        ));
    }

    #[test]
    fn pair_fits_regression() {
        let df = frame();
        let cfg = Config::default();
        let mut ctx = ComputeContext::new(&df, &cfg);
        let node = compute_correlation_pair(&mut ctx, "a", "b").unwrap();
        let (ims, insights) = ctx.run_section(node).unwrap();
        let Some(Inter::RegressionScatter { slope, intercept, r2, points }) =
            ims.get("regression_scatter")
        else {
            panic!()
        };
        assert!((slope - 2.0).abs() < 1e-9);
        assert!((intercept - 1.0).abs() < 1e-9);
        assert!((r2 - 1.0).abs() < 1e-9);
        assert!(!points.is_empty());
        assert!(!insights.is_empty());
    }

    #[test]
    fn overview_needs_two_numeric_columns() {
        let df = DataFrame::new(vec![
            ("a".into(), Column::from_f64(vec![1.0, 2.0])),
            ("s".into(), Column::from_strs(&["x", "y"])),
        ])
        .unwrap();
        let cfg = Config::default();
        let mut ctx = ComputeContext::new(&df, &cfg);
        assert!(matches!(
            compute_correlation_overview(&mut ctx),
            Err(EdaError::EmptyInput(_))
        ));
    }
}
