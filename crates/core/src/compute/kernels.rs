//! Graph-building kernels.
//!
//! Each function adds a map/tree-reduce sub-plan to the context's graph
//! and returns the node holding the reduced result. Structural keys cover
//! the kernel name, the column(s), the relevant config, and — for the
//! missing-impact variants — the [`Rows`] they aggregate, so two
//! visualizations needing the same statistic share one plan and different
//! configurations never collide.
//!
//! Kernels whose bin grid depends on data extrema (histogram, hexbin,
//! binned boxes, multi-line) take the reduced [`Moments`] node as an extra
//! dependency and read `min`/`max` from its payload at *execution* time,
//! which keeps everything inside one lazy graph (no eager pre-pass).
//!
//! A numeric column is sorted once, by its `corr_prep` node
//! ([`plan_corr_prep`]): the correlation cells read that argsort's ranks
//! and tie groups, and [`sorted_values`] — over any [`Rows`] — reads the
//! values along it.

use std::borrow::Cow;
use std::collections::HashMap;
use std::sync::Arc;

use eda_dataframe::{Bitmap, Column, DataFrame, Selection};
use eda_stats::corr::{upper_triangle, ColumnPrep, PearsonPartial};
use eda_stats::freq::CatFreq;
use eda_stats::histogram::Histogram;
use eda_stats::missing::{spectrum_ranges, NullCounts};
use eda_stats::moments::Moments;
use eda_stats::quantile;
use eda_stats::text::TextStats;
use eda_taskgraph::key::TaskKey;
use eda_taskgraph::ops;
use eda_taskgraph::partition::payload_frame;
use eda_taskgraph::NodeId;

use super::cat::{self, Slots};
use super::ctx::{un, ComputeContext};

/// Which rows of each partition a kernel aggregates.
///
/// `plot_missing(df, x)` compares every column before and after dropping
/// the rows where `x` is null. Counts subtract exactly, so the *after*
/// side is planned as the same kernel over only the rows `x` drops
/// ([`Rows::NullIn`]: O(nulls(x)) per column, empty for a partition where
/// `x` has no nulls) and derived as `after = before − dropped`; order
/// statistics, which do not subtract, read the rows `x` keeps
/// ([`Rows::ValidIn`]). Either way the rows are read in place through a
/// [`Selection`] — no kernel copies a filtered partition.
#[derive(Debug, Clone)]
pub enum Rows {
    /// Every row.
    All,
    /// The rows where the named column is null.
    NullIn(String),
    /// The rows where the named column is non-null.
    ValidIn(String),
}

impl Rows {
    /// Key/name suffix: the same kernel over different rows is a
    /// different task.
    fn tag(&self) -> String {
        match self {
            Rows::All => String::new(),
            Rows::NullIn(x) => format!("|nullsof:{x}"),
            Rows::ValidIn(x) => format!("|validin:{x}"),
        }
    }

    /// These rows of one partition.
    fn select<'d>(&self, df: &'d DataFrame) -> Selection<'d> {
        match self {
            Rows::All => Selection::All,
            Rows::NullIn(x) => col(df, x).null_rows(),
            Rows::ValidIn(x) => col(df, x).valid_rows(),
        }
    }
}

fn col<'d>(df: &'d DataFrame, name: &str) -> &'d Column {
    df.column(name).expect("column exists")
}

/// A numeric column's values with NaN at its nulls: the float buffer
/// itself when every row is valid, else a copy.
fn nan_marked(c: &Column) -> Cow<'_, [f64]> {
    match c.dense_f64() {
        Some(vals) => Cow::Borrowed(vals),
        None => Cow::Owned(c.to_f64_nan().expect("numeric")),
    }
}

// ---------------------------------------------------------------------------
// Scalar / sketch kernels
// ---------------------------------------------------------------------------

/// Moments sketch over a numeric column ([`Moments::of`] per partition).
/// Its payload is also where a numeric column's row and null counts are
/// read from (`eda_stats::missing::ColMeta::numeric`).
pub fn moments(ctx: &mut ComputeContext<'_>, column: &str) -> NodeId {
    let name = column.to_string();
    let params = ctx.params(TaskKey::params(&format!("moments:{column}")));
    ops::map_reduce(
        &mut ctx.graph,
        &format!("moments:{column}"),
        params,
        &ctx.sources,
        &[],
        move |df, _| Moments::of(col(df, &name)).expect("numeric"),
        Moments::merge,
    )
}

/// Plan one shared `corr_prep` node for a column: [`ColumnPrep::prepare`]
/// of the gathered values, the column's one sort. Returns
/// `(gather, prep)` — correlation cells and [`sorted_values`] read the raw
/// values from the gather payload, the prep does not copy them.
pub fn plan_corr_prep(ctx: &mut ComputeContext<'_>, name: &str) -> (NodeId, NodeId) {
    let gather = numeric_gather(ctx, name);
    let params = ctx.params(TaskKey::params(&format!("corrprep:{name}")));
    let prep = ctx.graph.op("corr_prep", params, vec![gather], |inputs| {
        ColumnPrep::prepare(un::<Vec<f64>>(&inputs[0]))
    });
    (gather, prep)
}

/// Fully sorted non-null, non-NaN values of a numeric column over `rows`
/// (feeds quantiles, box plot, Q-Q plot and the KDE sample — computed
/// once, shared by all of them). Nothing is sorted here: the values are
/// read along the column's `corr_prep` argsort, and a [`Rows::ValidIn`]
/// or [`Rows::NullIn`] selection keeps the sorted rows whose bit in
/// [`validity`] of its column is set, or clear.
pub fn sorted_values(ctx: &mut ComputeContext<'_>, column: &str, rows: Rows) -> NodeId {
    let (gather, prep) = plan_corr_prep(ctx, column);
    let mut deps = vec![gather, prep];
    // Which bit a selected row has in the frame-wide validity of `x`.
    let keep = match &rows {
        Rows::All => None,
        Rows::ValidIn(x) => Some((x, true)),
        Rows::NullIn(x) => Some((x, false)),
    };
    let keep = keep.map(|(x, bit)| {
        deps.push(validity(ctx, x));
        bit
    });
    let params = ctx.params(TaskKey::params(&format!("sorted:{column}{}", rows.tag())));
    ctx.graph.op(&format!("sorted_values:{column}{}", rows.tag()), params, deps, move |inputs| {
        let values = un::<Vec<f64>>(&inputs[0]);
        let mask = inputs.get(2).map(un::<Bitmap>).zip(keep);
        let selected = |row: usize| mask.is_none_or(|(mask, bit)| mask.get(row) == bit);
        let mut sorted: Vec<f64> = match un::<ColumnPrep>(&inputs[1]).ascending(values) {
            // Exact-size: one allocation, no regrowth.
            Some(ascending) if mask.is_none() => ascending.map(|(_, v)| v).collect(),
            Some(ascending) => ascending.filter(|&(row, _)| selected(row)).map(|(_, v)| v).collect(),
            // A column too long to keep its argsort.
            None => {
                let chosen = values.iter().enumerate().filter(|&(row, _)| selected(row));
                quantile::sorted_values(&chosen.map(|(_, &v)| v).collect::<Vec<f64>>())
            }
        };
        // A filtered collect grows by doubling: the cached payload keeps
        // no slack.
        sorted.shrink_to_fit();
        sorted
    })
}

/// `column`'s validity over the whole frame, one bit per row, set where
/// the row is non-null: each partition's validity window, joined.
pub fn validity(ctx: &mut ComputeContext<'_>, column: &str) -> NodeId {
    let name = column.to_string();
    let params = ctx.params(TaskKey::params(&format!("validity:{column}")));
    ops::map_reduce(
        &mut ctx.graph,
        &format!("validity:{column}"),
        params,
        &ctx.sources,
        &[],
        move |df, _| col(df, &name).validity_mask(),
        Bitmap::extend_from,
    )
}

/// Histogram over a numeric column. Bin range comes from the reduced
/// moments payload at execution time, so the whole thing stays lazy.
pub fn histogram(ctx: &mut ComputeContext<'_>, column: &str, bins: usize) -> NodeId {
    let m = moments(ctx, column);
    histogram_with_range(ctx, column, bins, Rows::All, m)
}

/// Histogram of `rows` whose bin range comes from an explicit moments
/// node — the before/after comparisons of `plot_missing` bin the dropped
/// rows on the *before* range so the two sides subtract bin by bin.
pub fn histogram_with_range(
    ctx: &mut ComputeContext<'_>,
    column: &str,
    bins: usize,
    rows: Rows,
    m: NodeId,
) -> NodeId {
    let name = column.to_string();
    let params = ctx.params(TaskKey::params(&format!("hist:{column}:{bins}{}", rows.tag())));
    ops::map_reduce(
        &mut ctx.graph,
        &format!("histogram:{column}{}", rows.tag()),
        params,
        &ctx.sources,
        &[m],
        move |df, extra| {
            let mom = un::<Moments>(&extra[0]);
            let mut h = Histogram::new(mom.min, mom.max, bins);
            let c = col(df, &name);
            match (c.dense_f64(), rows.select(df)) {
                (Some(vals), Selection::All) => h.fill_slice(vals),
                (_, rows) => c.for_each_numeric_in(rows, |v| h.push(v)).expect("numeric"),
            }
            h
        },
        Histogram::merge,
    )
}

/// Frequency table ([`CatFreq::of`] per partition) of any column's `rows`,
/// counted by the codes of its display forms.
pub fn freq(ctx: &mut ComputeContext<'_>, column: &str, rows: Rows) -> NodeId {
    let name = column.to_string();
    let params = ctx.params(TaskKey::params(&format!("freq:{column}{}", rows.tag())));
    ops::map_reduce(
        &mut ctx.graph,
        &format!("freq:{column}{}", rows.tag()),
        params,
        &ctx.sources,
        &[],
        move |df, _| CatFreq::of(col(df, &name), rows.select(df)),
        CatFreq::merge,
    )
}

/// What a finish shows of `column`'s frequency table over `rows`
/// ([`CatFreq::summary`]): one more task on the `freq` node, so the
/// selection of the top categories runs on a worker, once per call however
/// many panels read it, and not at all when the result cache has it.
/// It keeps as many categories as the widest chart configured shows. A
/// categorical column's row and null counts are read off its payload
/// (`eda_stats::missing::ColMeta::categorical`).
pub fn freq_summary(ctx: &mut ComputeContext<'_>, column: &str, rows: Rows) -> NodeId {
    let name = format!("freq_summary:{column}{}", rows.tag());
    let table = freq(ctx, column, rows);
    let c = &ctx.config;
    let shown = [c.bar.ngroups, c.pie.slices, c.box_plot.ngroups, c.line.ngroups, c.crosstab.ngroups_x];
    let keep = shown.into_iter().fold(c.crosstab.ngroups_y, usize::max);
    let params = ctx.params(TaskKey::params(&name));
    ctx.graph.op(&name, params, vec![table], move |inputs| {
        #[cfg(test)]
        SUMMARIES.with(|n| n.set(n.get() + 1));
        un::<CatFreq>(&inputs[0]).summary(keep)
    })
}

/// Text statistics over a categorical column: each distinct value that
/// occurs in a partition is tokenised once (a non-string categorical —
/// bool, low-cardinality int — through its display forms, so word stats
/// still make sense).
pub fn text_stats(ctx: &mut ComputeContext<'_>, column: &str) -> NodeId {
    let name = column.to_string();
    let params = ctx.params(TaskKey::params(&format!("text:{column}")));
    ops::map_reduce(
        &mut ctx.graph,
        &format!("text_stats:{column}"),
        params,
        &ctx.sources,
        &[],
        move |df, _| cat::text_stats(&col(df, &name).display_encoded()),
        TextStats::merge,
    )
}

/// Pearson co-moment partial over two numeric columns: each partition's
/// window goes to [`PearsonPartial::push_slices`] as it is when it has no
/// null, gathered with NaN at its nulls when it has.
pub fn pearson_partial(ctx: &mut ComputeContext<'_>, x: &str, y: &str) -> NodeId {
    let (xn, yn) = (x.to_string(), y.to_string());
    let params = ctx.params(TaskKey::params(&format!("pearson:{x}:{y}")));
    ops::map_reduce(
        &mut ctx.graph,
        &format!("pearson:{x}:{y}"),
        params,
        &ctx.sources,
        &[],
        move |df, _| {
            let mut p = PearsonPartial::new();
            p.push_slices(&nan_marked(col(df, &xn)), &nan_marked(col(df, &yn)));
            p
        },
        PearsonPartial::merge,
    )
}

/// Append `more` to `values` in one exact allocation: a concatenated
/// payload keeps no growth slack.
fn concat<T: Clone>(values: &mut Vec<T>, more: &[T]) {
    values.reserve_exact(more.len());
    values.extend_from_slice(more);
}

/// Gathered complete pairs of two numeric columns (feeds Spearman/Kendall
/// — rank statistics need the full columns — and the scatter sampler).
pub fn pair_values(ctx: &mut ComputeContext<'_>, x: &str, y: &str) -> NodeId {
    let (xn, yn) = (x.to_string(), y.to_string());
    let params = ctx.params(TaskKey::params(&format!("pairs:{x}:{y}")));
    ops::map_reduce(
        &mut ctx.graph,
        &format!("pair_values:{x}:{y}"),
        params,
        &ctx.sources,
        &[],
        move |df, _| {
            let xs = col(df, &xn).numeric_iter().expect("numeric");
            let ys = col(df, &yn).numeric_iter().expect("numeric");
            let pairs: Vec<(f64, f64)> = xs
                .zip(ys)
                .filter_map(|(a, b)| match (a, b) {
                    (Some(a), Some(b)) if !a.is_nan() && !b.is_nan() => Some((a, b)),
                    _ => None,
                })
                .collect();
            pairs
        },
        |values, more| concat(values, more),
    )
}

/// Row-aligned numeric values of a column with nulls as NaN, gathered in
/// row order. Feeds the rank correlations (Spearman/Kendall need whole
/// columns) and the eager correlation-matrix finish.
pub fn numeric_gather(ctx: &mut ComputeContext<'_>, column: &str) -> NodeId {
    let name = column.to_string();
    let params = ctx.params(TaskKey::params(&format!("gather:{column}")));
    ops::map_reduce(
        &mut ctx.graph,
        &format!("numeric_gather:{column}"),
        params,
        &ctx.sources,
        &[],
        move |df, _| col(df, &name).to_f64_nan().expect("numeric"),
        |values, more| concat(values, more),
    )
}

/// Integer nullity aggregates of the whole frame ([`NullCounts`]): nulls
/// per column, rows where both columns of a pair are null, and nulls per
/// spectrum bin (`bins` row ranges). Each partition counts its own
/// validity windows a 64-row word at a time and the counts add up, so no
/// row-length indicator is ever built. Feeds the four `plot_missing(df)`
/// views.
pub fn null_counts(ctx: &mut ComputeContext<'_>, bins: usize) -> NodeId {
    let ranges = Arc::new(spectrum_ranges(ctx.pf.nrows(), bins));
    let params = ctx.params(TaskKey::params(&format!("nulls:{bins}")));
    let op = format!("nulls:{bins}");
    // A partition's counts need its first row, so the map is planned here;
    // the partials reduce like any other kernel's.
    let mapped: Vec<NodeId> = (ctx.sources.iter().enumerate())
        .map(|(i, &p)| {
            let (first_row, _) = ctx.pf.meta.range(i);
            let ranges = Arc::clone(&ranges);
            ctx.graph.op(&op, params, vec![p], move |inputs| {
                count_nulls(payload_frame(&inputs[0]), first_row, &ranges)
            })
        })
        .collect();
    ops::tree_reduce(&mut ctx.graph, &format!("{op}/reduce"), params, &mapped, NullCounts::merge)
}

/// [`NullCounts`] of one partition whose first row is row `first_row` of
/// the frame; `ranges` are the frame's spectrum bins.
fn count_nulls(df: &DataFrame, first_row: usize, ranges: &[(usize, usize)]) -> NullCounts {
    let rows = df.nrows();
    // Only a window with a clear validity bit has anything to count.
    let masks: Vec<Option<&Bitmap>> =
        df.iter().map(|(_, c)| c.validity().filter(|bm| !bm.all_set())).collect();
    let nulls = |mask: &Option<&Bitmap>, lo: usize, hi: usize| match mask {
        Some(bm) if lo < hi => bm.slice(lo, hi - lo).count_unset(),
        _ => 0,
    };
    NullCounts {
        rows,
        nulls: masks.iter().map(|m| nulls(m, 0, rows)).collect(),
        co_nulls: upper_triangle(masks.len())
            .into_iter()
            .map(|(i, j)| match (masks[i], masks[j]) {
                (Some(a), Some(b)) => a.count_unset_in_both(b),
                _ => 0,
            })
            .collect(),
        bin_nulls: ranges
            .iter()
            .map(|&(lo, hi)| {
                // The part of the bin inside this partition, in its rows.
                let clip = |row: usize| row.clamp(first_row, first_row + rows) - first_row;
                masks.iter().map(|m| nulls(m, clip(lo), clip(hi))).collect()
            })
            .collect(),
    }
}

/// Numeric values of `num` grouped by the (display) categories of `cat`,
/// restricted to `keep` categories (the stage-one top-k — the two-phase
/// boundary in action): one group per kept category, in `keep`'s order.
pub fn grouped_numeric(
    ctx: &mut ComputeContext<'_>,
    cat: &str,
    num: &str,
    keep: &[String],
) -> NodeId {
    let (cn, nn) = (cat.to_string(), num.to_string());
    let keep: Arc<Vec<String>> = Arc::new(keep.to_vec());
    let params = ctx.params(TaskKey::params(&format!(
        "grouped:{cat}:{num}:{}",
        keep.join("\u{1}")
    )));
    ops::map_reduce(
        &mut ctx.graph,
        &format!("grouped_numeric:{cat}:{num}"),
        params,
        &ctx.sources,
        &[],
        move |df, _| {
            let mut groups: Vec<Vec<f64>> = vec![Vec::new(); keep.len()];
            let cats = col(df, &cn).display_encoded();
            let mut slots = Slots::new(cat::codes(&cats).1, &keep);
            let nums = col(df, &nn).numeric_iter().expect("numeric");
            for (c, v) in cat::opt_codes(&cats).zip(nums) {
                if let (Some(c), Some(v)) = (c, v) {
                    if let Some(group) = slots.get(c).and_then(|at| groups.get_mut(at)) {
                        if !v.is_nan() {
                            group.push(v);
                        }
                    }
                }
            }
            groups
        },
        |groups, more| extend_groups(groups, more),
    )
}

/// Append each group of `more` to the same group of `groups`.
fn extend_groups(groups: &mut [Vec<f64>], more: &[Vec<f64>]) {
    for (dst, src) in groups.iter_mut().zip(more) {
        dst.extend_from_slice(src);
    }
}

/// Cross-tabulated counts of two categorical columns restricted to the
/// stage-one top categories: `keep1.len()` rows of `keep2.len()` counts,
/// row-major. Rows outside either list are not counted.
pub fn crosstab(
    ctx: &mut ComputeContext<'_>,
    c1: &str,
    c2: &str,
    keep1: &[String],
    keep2: &[String],
) -> NodeId {
    let (n1, n2) = (c1.to_string(), c2.to_string());
    let k1: Arc<Vec<String>> = Arc::new(keep1.to_vec());
    let k2: Arc<Vec<String>> = Arc::new(keep2.to_vec());
    let params = ctx.params(TaskKey::params(&format!(
        "crosstab:{c1}:{c2}:{}:{}",
        keep1.join("\u{1}"),
        keep2.join("\u{1}")
    )));
    ops::map_reduce(
        &mut ctx.graph,
        &format!("crosstab:{c1}:{c2}"),
        params,
        &ctx.sources,
        &[],
        move |df, _| {
            let mut counts = vec![0u64; k1.len() * k2.len()];
            let (a, b) = (col(df, &n1).display_encoded(), col(df, &n2).display_encoded());
            let mut rows = Slots::new(cat::codes(&a).1, &k1);
            let mut cols = Slots::new(cat::codes(&b).1, &k2);
            for (x, y) in cat::opt_codes(&a).zip(cat::opt_codes(&b)) {
                if let (Some(x), Some(y)) = (x, y) {
                    if let (Some(row), Some(at)) = (rows.get(x), cols.get(y)) {
                        if let Some(cell) = counts.get_mut(row * k2.len() + at) {
                            *cell += 1;
                        }
                    }
                }
            }
            counts
        },
        |sum: &mut Vec<u64>, more| sum.iter_mut().zip(more).for_each(|(x, y)| *x += y),
    )
}

/// Per-x-bin collections of y values for the binned box plot (N×N).
/// Bin grid from x's reduced moments at execution time.
pub fn binned_numeric(
    ctx: &mut ComputeContext<'_>,
    x: &str,
    y: &str,
    bins: usize,
) -> NodeId {
    let mx = moments(ctx, x);
    let (xn, yn) = (x.to_string(), y.to_string());
    let params = ctx.params(TaskKey::params(&format!("binned:{x}:{y}:{bins}")));
    ops::map_reduce(
        &mut ctx.graph,
        &format!("binned_numeric:{x}:{y}"),
        params,
        &ctx.sources,
        &[mx],
        move |df, extra| {
            let mom = un::<Moments>(&extra[0]);
            let mut groups: Vec<Vec<f64>> = vec![Vec::new(); bins.max(1)];
            let width = (mom.max - mom.min) / bins.max(1) as f64;
            let xs = col(df, &xn).numeric_iter().expect("numeric");
            let ys = col(df, &yn).numeric_iter().expect("numeric");
            for (a, b) in xs.zip(ys) {
                if let (Some(a), Some(b)) = (a, b) {
                    if a.is_nan() || b.is_nan() || width <= 0.0 {
                        if width <= 0.0 && !b.is_nan() {
                            groups[0].push(b);
                        }
                        continue;
                    }
                    let mut idx = ((a - mom.min) / width) as usize;
                    if idx >= groups.len() {
                        idx = groups.len() - 1;
                    }
                    groups[idx].push(b);
                }
            }
            groups
        },
        |groups, more| extend_groups(groups, more),
    )
}

/// Hexagonal binning of two numeric columns (pointy-top axial grid over
/// the data ranges; ranges from the reduced moments at execution time).
pub fn hexbin(ctx: &mut ComputeContext<'_>, x: &str, y: &str, gridsize: usize) -> NodeId {
    let mx = moments(ctx, x);
    let my = moments(ctx, y);
    let (xn, yn) = (x.to_string(), y.to_string());
    let params = ctx.params(TaskKey::params(&format!("hexbin:{x}:{y}:{gridsize}")));
    ops::map_reduce(
        &mut ctx.graph,
        &format!("hexbin:{x}:{y}"),
        params,
        &ctx.sources,
        &[mx, my],
        move |df, extra| {
            let (momx, momy) = (un::<Moments>(&extra[0]), un::<Moments>(&extra[1]));
            let mut cells: HashMap<(i64, i64), u64> = HashMap::new();
            let xs = col(df, &xn).numeric_iter().expect("numeric");
            let ys = col(df, &yn).numeric_iter().expect("numeric");
            let (sx, sy) = hex_scales(momx, momy, gridsize);
            for (a, b) in xs.zip(ys) {
                if let (Some(a), Some(b)) = (a, b) {
                    if a.is_nan() || b.is_nan() {
                        continue;
                    }
                    let q = hex_cell((a - momx.min) / sx, (b - momy.min) / sy);
                    *cells.entry(q).or_insert(0) += 1;
                }
            }
            cells
        },
        |cells, more| {
            for (k, v) in more {
                *cells.entry(*k).or_insert(0) += v;
            }
        },
    )
}

/// Data-unit scale factors for the hex grid.
pub fn hex_scales(mx: &Moments, my: &Moments, gridsize: usize) -> (f64, f64) {
    let g = gridsize.max(2) as f64;
    let sx = ((mx.max - mx.min) / g).max(f64::MIN_POSITIVE);
    let sy = ((my.max - my.min) / g).max(f64::MIN_POSITIVE);
    (sx, sy)
}

/// Map normalized coordinates to an axial hex cell (pointy-top layout,
/// cube-rounded).
pub fn hex_cell(x: f64, y: f64) -> (i64, i64) {
    // Axial coordinates for unit-size pointy-top hexagons.
    let q = (3f64.sqrt() / 3.0) * x - (1.0 / 3.0) * y;
    let r = (2.0 / 3.0) * y;
    // Cube rounding.
    let (xf, zf) = (q, r);
    let yf = -xf - zf;
    let (mut rx, mut ry, mut rz) = (xf.round(), yf.round(), zf.round());
    let (dx, dy, dz) = ((rx - xf).abs(), (ry - yf).abs(), (rz - zf).abs());
    if dx > dy && dx > dz {
        rx = -ry - rz;
    } else if dy > dz {
        ry = -rx - rz;
    } else {
        rz = -rx - ry;
    }
    let _ = ry;
    (rx as i64, rz as i64)
}

/// Center of an axial hex cell in normalized coordinates (inverse of
/// [`hex_cell`]'s lattice).
pub fn hex_center(q: i64, r: i64) -> (f64, f64) {
    (3f64.sqrt() * (q as f64 + r as f64 / 2.0), 1.5 * r as f64)
}

/// Per-category histograms over shared bins for the multi-line chart: one
/// histogram per kept category, in `keep`'s order.
pub fn multi_line(
    ctx: &mut ComputeContext<'_>,
    cat: &str,
    num: &str,
    keep: &[String],
    bins: usize,
) -> NodeId {
    let m = moments(ctx, num);
    let (cn, nn) = (cat.to_string(), num.to_string());
    let keep: Arc<Vec<String>> = Arc::new(keep.to_vec());
    let params = ctx.params(TaskKey::params(&format!(
        "multiline:{cat}:{num}:{bins}:{}",
        keep.join("\u{1}")
    )));
    ops::map_reduce(
        &mut ctx.graph,
        &format!("multi_line:{cat}:{num}"),
        params,
        &ctx.sources,
        &[m],
        move |df, extra| {
            let mom = un::<Moments>(&extra[0]);
            let mut hists = vec![Histogram::new(mom.min, mom.max, bins); keep.len()];
            let cats = col(df, &cn).display_encoded();
            let mut slots = Slots::new(cat::codes(&cats).1, &keep);
            let nums = col(df, &nn).numeric_iter().expect("numeric");
            for (c, v) in cat::opt_codes(&cats).zip(nums) {
                if let (Some(c), Some(v)) = (c, v) {
                    if let Some(h) = slots.get(c).and_then(|at| hists.get_mut(at)) {
                        h.push(v);
                    }
                }
            }
            hists
        },
        |hists: &mut Vec<Histogram>, more| {
            hists.iter_mut().zip(more).for_each(|(dst, src)| dst.merge(src));
        },
    )
}

#[cfg(test)]
thread_local! {
    /// Summaries the `freq_summary` tasks took on this thread: how tests
    /// tell that a cached call selected nothing (`CatFreq::summary` lives
    /// in `eda-stats`, whose test build this is not).
    pub(crate) static SUMMARIES: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Config;
    use eda_dataframe::DataFrame;
    use eda_stats::freq::FreqSummary;
    use eda_stats::missing::ColMeta;

    fn frame() -> DataFrame {
        let n = 200;
        DataFrame::new(vec![
            (
                "num".into(),
                Column::from_opt_f64(
                    (0..n)
                        .map(|i| if i % 10 == 0 { None } else { Some(i as f64) })
                        .collect(),
                ),
            ),
            (
                "num2".into(),
                Column::from_f64((0..n).map(|i| (i * 2) as f64).collect()),
            ),
            (
                "cat".into(),
                Column::from_opt_string(
                    (0..n)
                        .map(|i| {
                            if i % 13 == 0 {
                                None
                            } else {
                                Some(format!("g{}", i % 4))
                            }
                        })
                        .collect(),
                ),
            ),
        ])
        .unwrap()
    }

    fn run_one<T: Send + Sync + 'static + Clone>(
        build: impl Fn(&mut ComputeContext<'_>) -> NodeId,
    ) -> T {
        let df = frame();
        let cfg = Config::default();
        let mut ctx = ComputeContext::new(&df, &cfg);
        let node = build(&mut ctx);
        let out = ctx.execute_checked(&[node]).unwrap();
        un::<T>(&out[0]).clone()
    }

    #[test]
    fn col_meta_counts() {
        // Read off the payloads the panels request, not counted again.
        let m: Moments = run_one(|ctx| moments(ctx, "num"));
        assert_eq!(ColMeta::numeric(200, &m), ColMeta { len: 200, nulls: 20 });
        let s: FreqSummary = run_one(|ctx| freq_summary(ctx, "cat", Rows::All));
        assert_eq!(ColMeta::categorical(s.total, s.nulls), ColMeta { len: 200, nulls: 16 });
    }

    #[test]
    fn moments_match_direct_computation() {
        let m: Moments = run_one(|ctx| moments(ctx, "num"));
        assert_eq!(m.count, 180);
        let direct: Vec<f64> = (0..200)
            .filter(|i| i % 10 != 0)
            .map(|i| i as f64)
            .collect();
        let dm = Moments::from_slice(&direct);
        assert!((m.mean - dm.mean).abs() < 1e-9);
        assert_eq!(m.min, dm.min);
        assert_eq!(m.max, dm.max);
    }

    #[test]
    fn sorted_values_are_sorted_and_complete() {
        let v: Vec<f64> = run_one(|ctx| sorted_values(ctx, "num", Rows::All));
        assert_eq!(v.len(), 180);
        assert!(v.windows(2).all(|w| w[0] <= w[1]));
        assert_eq!(v[0], 1.0);
        assert_eq!(v[179], 199.0);
    }

    #[test]
    fn histogram_covers_all_values() {
        let h: Histogram = run_one(|ctx| histogram(ctx, "num", 10));
        assert_eq!(h.total(), 180);
        assert_eq!(h.nbins(), 10);
        assert_eq!(h.min, 1.0);
        assert_eq!(h.max, 199.0);
    }

    #[test]
    fn freq_counts_categories() {
        let t: CatFreq = run_one(|ctx| freq(ctx, "cat", Rows::All));
        assert_eq!(t.distinct(), 4);
        assert_eq!(t.total() + t.nulls(), 200);
    }

    #[test]
    fn pearson_partial_correlates_perfectly() {
        let p: PearsonPartial = run_one(|ctx| pearson_partial(ctx, "num", "num2"));
        assert!((p.finish().unwrap() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn pair_values_drop_incomplete() {
        let pairs: Vec<(f64, f64)> = run_one(|ctx| pair_values(ctx, "num", "num2"));
        assert_eq!(pairs.len(), 180);
        assert!(pairs.iter().all(|(a, b)| *b == *a * 2.0));
    }

    #[test]
    fn concatenated_payloads_keep_no_growth_slack() {
        let df = frame();
        let cfg = Config::default();
        let mut ctx = ComputeContext::new(&df, &cfg);
        // The 8192-rows-per-partition cap would leave one partition.
        ctx.pf = eda_taskgraph::PartitionedFrame::from_frame(&df, 3);
        ctx.sources = ctx.pf.source_nodes(&mut ctx.graph);
        let gather = numeric_gather(&mut ctx, "num2");
        let pairs = pair_values(&mut ctx, "num", "num2");
        let kept = sorted_values(&mut ctx, "num2", Rows::ValidIn("num".into()));
        let outs = ctx.execute_checked(&[gather, pairs, kept]).unwrap();
        let gather = un::<Vec<f64>>(&outs[0]);
        assert_eq!((gather.len(), gather.capacity()), (200, 200));
        let pairs = un::<Vec<(f64, f64)>>(&outs[1]);
        assert_eq!((pairs.len(), pairs.capacity()), (180, 180));
        let kept = un::<Vec<f64>>(&outs[2]);
        assert_eq!((kept.len(), kept.capacity()), (180, 180));
    }

    #[test]
    fn null_counts_per_column_pair_and_bin() {
        // `num` is null where i % 10 == 0, `cat` where i % 13 == 0; rows 0
        // and 130 are null in both. Three partitions, four spectrum bins.
        let df = frame();
        let cfg = Config::from_pairs(vec![("engine.npartitions", "3")]).unwrap();
        let mut ctx = ComputeContext::new(&df, &cfg);
        // The 8192-rows-per-partition cap would leave one partition.
        ctx.pf = eda_taskgraph::PartitionedFrame::from_frame(&df, 3);
        ctx.sources = ctx.pf.source_nodes(&mut ctx.graph);
        let node = null_counts(&mut ctx, 4);
        let out = ctx.execute_checked(&[node]).unwrap();
        let c = un::<NullCounts>(&out[0]);
        assert_eq!(c.rows, 200);
        assert_eq!(c.nulls, vec![20, 0, 16]);
        // Pairs (num, num2), (num, cat), (num2, cat).
        assert_eq!(c.co_nulls, vec![0, 2, 0]);
        let per_bin = |step: usize, lo: usize, hi: usize| (lo..hi).filter(|i| i % step == 0).count();
        let expected: Vec<Vec<usize>> = [(0, 50), (50, 100), (100, 150), (150, 200)]
            .iter()
            .map(|&(lo, hi)| vec![per_bin(10, lo, hi), 0, per_bin(13, lo, hi)])
            .collect();
        assert_eq!(c.bin_nulls, expected);
    }

    #[test]
    fn grouped_numeric_respects_keep() {
        let keep = vec!["g0".to_string(), "g1".to_string()];
        let g: Vec<Vec<f64>> = run_one(move |ctx| grouped_numeric(ctx, "cat", "num", &keep));
        // One group per kept category, in `keep`'s order: `cat` is g{i % 4}
        // and `num` is i, so a group's values give its category away.
        assert_eq!(g.len(), 2);
        for (group, residue) in g.iter().zip([0.0, 1.0]) {
            assert!(!group.is_empty());
            assert!(group.iter().all(|v| v % 4.0 == residue));
        }
    }

    #[test]
    fn crosstab_counts() {
        let keep1 = vec!["g0".to_string(), "g1".to_string()];
        let keep2 = vec!["g2".to_string()];
        // cat × cat crosstab is degenerate but exercises the kernel:
        // cells require x∈keep1 and y∈keep2 for the same row, and a row's
        // category can't be g0 and g2 simultaneously, so all cells are 0.
        let c: Vec<u64> = run_one(move |ctx| crosstab(ctx, "cat", "cat", &keep1, &keep2));
        assert_eq!(c, [0, 0]);
    }

    #[test]
    fn binned_numeric_covers_pairs() {
        let g: Vec<Vec<f64>> = run_one(|ctx| binned_numeric(ctx, "num", "num2", 5));
        assert_eq!(g.len(), 5);
        let total: usize = g.iter().map(Vec::len).sum();
        assert_eq!(total, 180);
    }

    #[test]
    fn hexbin_conserves_points() {
        let cells: HashMap<(i64, i64), u64> = run_one(|ctx| hexbin(ctx, "num", "num2", 8));
        let total: u64 = cells.values().sum();
        assert_eq!(total, 180);
        assert!(cells.len() > 1);
    }

    #[test]
    fn multi_line_shares_bins() {
        let keep = vec!["g0".to_string(), "g1".to_string()];
        let h: Vec<Histogram> = run_one(move |ctx| multi_line(ctx, "cat", "num", &keep, 8));
        assert_eq!(h.len(), 2);
        let (h0, h1) = (&h[0], &h[1]);
        assert_eq!(h0.min, h1.min);
        assert_eq!(h0.max, h1.max);
        assert!(h0.total() > 0);
    }

    #[test]
    fn kernels_share_nodes_across_repeat_builds() {
        let df = frame();
        let cfg = Config::default();
        let mut ctx = ComputeContext::new(&df, &cfg);
        let a = moments(&mut ctx, "num");
        let before = ctx.graph.len();
        let b = moments(&mut ctx, "num");
        assert_eq!(a, b);
        assert_eq!(ctx.graph.len(), before);
        // The histogram reuses the same moments node.
        let _h = histogram(&mut ctx, "num", 10);
        let c = moments(&mut ctx, "num");
        assert_eq!(a, c);
    }

    #[test]
    fn row_variants_do_not_collide_and_partition_the_column() {
        let df = frame();
        let cfg = Config::default();
        let mut ctx = ComputeContext::new(&df, &cfg);
        // `num` is null where i % 10 == 0 (20 rows), `cat` where i % 13 == 0.
        let all = freq(&mut ctx, "cat", Rows::All);
        let dropped = freq(&mut ctx, "cat", Rows::NullIn("num".into()));
        let by_cat = freq(&mut ctx, "cat", Rows::NullIn("cat".into()));
        let kept = sorted_values(&mut ctx, "num2", Rows::ValidIn("num".into()));
        let whole = sorted_values(&mut ctx, "num2", Rows::All);
        assert_eq!(
            [all, dropped, by_cat, kept, whole].iter().collect::<std::collections::HashSet<_>>().len(),
            5
        );
        let outs = ctx.execute_checked(&[all, dropped, by_cat, kept, whole]).unwrap();
        let (all, dropped, by_cat) =
            (un::<CatFreq>(&outs[0]), un::<CatFreq>(&outs[1]), un::<CatFreq>(&outs[2]));
        assert_eq!(all.total() + all.nulls(), 200);
        // Rows 0 and 130 are null in both columns.
        assert_eq!((dropped.total(), dropped.nulls()), (18, 2));
        assert_eq!((by_cat.total(), by_cat.nulls()), (0, 16));
        assert_eq!(un::<Vec<f64>>(&outs[3]).len(), 180);
        assert_eq!(un::<Vec<f64>>(&outs[4]).len(), 200);
    }

    #[test]
    fn dropped_histogram_subtracts_to_the_kept_rows() {
        let df = frame();
        let cfg = Config::default();
        let mut ctx = ComputeContext::new(&df, &cfg);
        let m = moments(&mut ctx, "num2");
        let before = histogram_with_range(&mut ctx, "num2", 7, Rows::All, m);
        let dropped = histogram_with_range(&mut ctx, "num2", 7, Rows::NullIn("num".into()), m);
        let outs = ctx.execute_checked(&[before, dropped]).unwrap();
        let after = un::<Histogram>(&outs[0]).minus(un::<Histogram>(&outs[1]));
        let mut direct = Histogram::new(0.0, 398.0, 7);
        direct.extend((0..200).filter(|i| i % 10 != 0).map(|i| (i * 2) as f64));
        assert_eq!(after, direct);
    }

    #[test]
    fn hex_cell_roundtrip_consistency() {
        // Points near a hex center map to that cell.
        for q in -3i64..3 {
            for r in -3i64..3 {
                let (x, y) = hex_center(q, r);
                assert_eq!(hex_cell(x, y), (q, r), "center of ({q},{r})");
            }
        }
    }
}
