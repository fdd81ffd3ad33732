//! Graph-building kernels.
//!
//! Each function adds a sub-plan to the context's graph and returns the
//! node holding its result. A partition kernel maps every partition and
//! tree-reduces the partials ([`ComputeContext::map_reduce`]); a gather —
//! a kernel whose partials would only be concatenated, or [`null_counts`] —
//! reads every partition in one task ([`ComputeContext::gather`]); a derived
//! kernel is one task over other kernels' results and reads no row
//! ([`ComputeContext::op`]). A task's key is its name, the config hash and
//! its inputs' keys: the name spells the kernel, the column(s) and — for
//! the missing-impact variants — the [`Rows`] it aggregates, and a kernel
//! reads every setting (bins, grid size, group counts) from the config,
//! never from an argument. So two visualizations needing the same
//! statistic share one plan and different configurations never collide.
//!
//! A bin grid that depends on data extrema is read off the reduced
//! [`Moments`] node at *execution* time, which keeps everything inside
//! one lazy graph (no eager pre-pass): the histogram is a partition
//! kernel with the moments as an extra dependency; hexbin and the binned
//! boxes bin the pair gather ([`pair_values`]), and the multi-line chart
//! the [`grouped_numeric`] groups, as derived kernels. The grouped
//! partition kernels (grouped numeric values, crosstab) read their groups
//! the same way, off the `freq_summary` node of their categorical
//! column(s). So a two-column plot reads its rows once per column
//! statistic and once for the pair (N×N) or the grouping (N×C).
//!
//! A numeric column is sorted once, by its `corr_prep` node
//! ([`plan_corr_prep`]): the correlation cells read that argsort's ranks
//! and tie groups, and [`sorted_values`] — over any [`Rows`] — reads the
//! values along it.

use std::borrow::Cow;

use eda_dataframe::{Bitmap, Column, DataFrame, Selection};
use eda_stats::corr::{upper_triangle, ColumnPrep, PearsonPartial};
use eda_stats::freq::{CatFreq, FreqSummary};
use eda_stats::histogram::Histogram;
use eda_stats::missing::{spectrum_ranges, NullCounts};
use eda_stats::moments::Moments;
use eda_stats::quantile;
use eda_stats::text::TextStats;
use eda_taskgraph::{NodeId, Payload};

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
    /// Name suffix: the same kernel over different rows is a different
    /// task.
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
    ctx.map_reduce(
        &format!("moments:{column}"),
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
    let prep = ctx.op("corr_prep", vec![gather], |inputs| {
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
    ctx.op(&format!("sorted_values:{column}{}", rows.tag()), deps, move |inputs| {
        let values = un::<Vec<f64>>(&inputs[0]);
        let mask = inputs.get(2).map(un::<Bitmap>).zip(keep);
        let selected = |row: usize| mask.is_none_or(|(mask, bit)| mask.get(row) == bit);
        let sorted: Vec<f64> = match un::<ColumnPrep>(&inputs[1]).ascending(values) {
            // Exact-size: one allocation, no regrowth.
            Some(ascending) if mask.is_none() => ascending.map(|(_, v)| v).collect(),
            Some(ascending) => ascending.filter(|&(row, _)| selected(row)).map(|(_, v)| v).collect(),
            // A column too long to keep its argsort.
            None => {
                let chosen = values.iter().enumerate().filter(|&(row, _)| selected(row));
                quantile::sorted_values(&chosen.map(|(_, &v)| v).collect::<Vec<f64>>())
            }
        };
        trimmed(sorted)
    })
}

/// `column`'s validity over the whole frame, one bit per row, set where
/// the row is non-null: each partition's validity window, joined.
pub fn validity(ctx: &mut ComputeContext<'_>, column: &str) -> NodeId {
    let name = column.to_string();
    ctx.gather(&format!("validity:{column}"), &[], move |frames, _| {
        // Empty with room for every row: the joined mask keeps no slack.
        let bytes = frames.iter().map(|df| df.nrows()).sum::<usize>().div_ceil(8);
        let mut mask = Bitmap::from_packed(Vec::with_capacity(bytes), 0);
        frames.iter().for_each(|df| mask.extend_from(&col(df, &name).validity_mask()));
        mask
    })
}

/// Histogram over a numeric column in `hist.bins` bins. Bin range comes
/// from the reduced moments payload at execution time, so the whole thing
/// stays lazy.
pub fn histogram(ctx: &mut ComputeContext<'_>, column: &str) -> NodeId {
    let m = moments(ctx, column);
    histogram_with_range(ctx, column, Rows::All, m)
}

/// Histogram of `rows` whose bin range comes from an explicit moments
/// node — the before/after comparisons of `plot_missing` bin the dropped
/// rows on the *before* range so the two sides subtract bin by bin. Each
/// partition's rows are counted by [`Histogram::fill_column`].
pub fn histogram_with_range(
    ctx: &mut ComputeContext<'_>,
    column: &str,
    rows: Rows,
    m: NodeId,
) -> NodeId {
    let (name, bins) = (column.to_string(), ctx.config.hist.bins);
    ctx.map_reduce(
        &format!("histogram:{column}{}", rows.tag()),
        &[m],
        move |df, extra| {
            let mom = un::<Moments>(&extra[0]);
            let mut h = Histogram::new(mom.min, mom.max, bins);
            h.fill_column(col(df, &name), rows.select(df)).expect("numeric");
            h
        },
        Histogram::merge,
    )
}

/// Frequency table ([`CatFreq::of`] per partition) of any column's `rows`,
/// counted by the codes of its display forms.
pub fn freq(ctx: &mut ComputeContext<'_>, column: &str, rows: Rows) -> NodeId {
    let name = column.to_string();
    ctx.map_reduce(
        &format!("freq:{column}{}", rows.tag()),
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
    ctx.op(&name, vec![table], move |inputs| {
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
    ctx.map_reduce(
        &format!("text_stats:{column}"),
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
    ctx.map_reduce(
        &format!("pearson:{x}:{y}"),
        &[],
        move |df, _| {
            let mut p = PearsonPartial::new();
            p.push_slices(&nan_marked(col(df, &xn)), &nan_marked(col(df, &yn)));
            p
        },
        PearsonPartial::merge,
    )
}

/// `values` without the slack its last doubling left: a list built by
/// `push` or a filtered `collect` is charged by capacity once cached.
fn trimmed<T>(mut values: Vec<T>) -> Vec<T> {
    values.shrink_to_fit();
    values
}

/// Gathered complete pairs of two numeric columns in row order: the rows
/// where neither side is null or NaN (infinities stay). The one row pass
/// of an N×N `plot(df, x, y)` — the scatter sampler, [`hexbin`] and
/// [`binned_numeric`] read it — and of `plot_timeseries`.
pub fn pair_values(ctx: &mut ComputeContext<'_>, x: &str, y: &str) -> NodeId {
    let (xn, yn) = (x.to_string(), y.to_string());
    ctx.gather(&format!("pair_values:{x}:{y}"), &[], move |frames, _| {
        let mut pairs = Vec::with_capacity(frames.iter().map(|df| df.nrows()).sum());
        for df in frames {
            let (xs, ys) = (nan_marked(col(df, &xn)), nan_marked(col(df, &yn)));
            let complete = xs.iter().zip(ys.iter()).map(|(&a, &b)| (a, b));
            pairs.extend(complete.filter(|(a, b)| !a.is_nan() && !b.is_nan()));
        }
        trimmed(pairs)
    })
}

/// The pairs of a [`pair_values`] payload that a grid view bins: both
/// sides finite, as [`Histogram::push`] keeps a value.
fn finite_pairs(pairs: &Payload) -> impl Iterator<Item = (f64, f64)> + '_ {
    let pairs = un::<Vec<(f64, f64)>>(pairs).iter().copied();
    pairs.filter(|(a, b)| a.is_finite() && b.is_finite())
}

/// Row-aligned numeric values of a column with nulls as NaN, gathered in
/// row order. Feeds the rank correlations (Spearman/Kendall need whole
/// columns) and the eager correlation-matrix finish.
pub fn numeric_gather(ctx: &mut ComputeContext<'_>, column: &str) -> NodeId {
    let name = column.to_string();
    ctx.gather(&format!("numeric_gather:{column}"), &[], move |frames, _| {
        let mut values = Vec::with_capacity(frames.iter().map(|df| df.nrows()).sum());
        frames.iter().for_each(|df| col(df, &name).extend_f64_nan(&mut values).expect("numeric"));
        values
    })
}

/// Integer nullity aggregates of the whole frame ([`NullCounts`]): nulls
/// per column, rows where both columns of a pair are null, and nulls per
/// spectrum bin (`spectrum.bins` row ranges). Each partition's validity
/// windows are counted a 64-row word at a time and the counts add up, so
/// no row-length indicator is ever built. Feeds the four
/// `plot_missing(df)` views.
pub fn null_counts(ctx: &mut ComputeContext<'_>) -> NodeId {
    let bins = ctx.config.spectrum.bins;
    ctx.gather(&format!("nulls:{bins}"), &[], move |frames, _| {
        let ranges = spectrum_ranges(frames.iter().map(|df| df.nrows()).sum(), bins);
        let mut counts = frames.iter().scan(0, |next_row, df| {
            let first_row = std::mem::replace(next_row, *next_row + df.nrows());
            Some(count_nulls(df, first_row, &ranges))
        });
        let mut total = counts.next().expect("a frame has at least one partition");
        counts.for_each(|more| total.merge(&more));
        total
    })
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

/// Numeric values of `num` grouped by the (display) categories of `cat`:
/// one group for each of the `max(box.ngroups, line.ngroups)` most
/// frequent categories — as many as the wider N×C chart shows — in the
/// order of `summary`, the `freq_summary` node of `cat`. The gather reads
/// that summary as a dependency and picks the groups itself, so the group
/// choice is graph work like the grouping.
pub fn grouped_numeric(
    ctx: &mut ComputeContext<'_>,
    cat: &str,
    num: &str,
    summary: NodeId,
) -> NodeId {
    let (cn, nn) = (cat.to_string(), num.to_string());
    let ngroups = ctx.config.box_plot.ngroups.max(ctx.config.line.ngroups);
    ctx.gather(&format!("grouped_numeric:{cat}:{num}"), &[summary], move |frames, extra| {
        let keep = un::<FreqSummary>(&extra[0]).labels(ngroups);
        let mut groups: Vec<Vec<f64>> = vec![Vec::new(); keep.len()];
        for df in frames {
            let cats = col(df, &cn).display_encoded();
            let mut slots = Slots::new(cat::codes(&cats).1, &keep);
            let nums = nan_marked(col(df, &nn));
            for (c, &v) in cat::opt_codes(&cats).zip(nums.iter()) {
                let group = c.and_then(|c| slots.get(c)).and_then(|at| groups.get_mut(at));
                if let Some(group) = group.filter(|_| !v.is_nan()) {
                    group.push(v);
                }
            }
        }
        groups.into_iter().map(trimmed).collect::<Vec<Vec<f64>>>()
    })
}

/// Cross-tabulated counts of two categorical columns over their most
/// frequent categories: the first `crosstab.ngroups_x` of `summaries.0`
/// (the `freq_summary` node of `c1`) are the rows, the first
/// `crosstab.ngroups_y` of `summaries.1` the columns, row-major. Each map
/// task reads both summaries and picks the categories itself; rows
/// outside either list are not counted.
pub fn crosstab(
    ctx: &mut ComputeContext<'_>,
    (c1, c2): (&str, &str),
    summaries: (NodeId, NodeId),
) -> NodeId {
    let (n1, n2) = (c1.to_string(), c2.to_string());
    let ngroups = (ctx.config.crosstab.ngroups_x, ctx.config.crosstab.ngroups_y);
    ctx.map_reduce(
        &format!("crosstab:{c1}:{c2}"),
        &[summaries.0, summaries.1],
        move |df, extra| {
            let k1 = un::<FreqSummary>(&extra[0]).labels(ngroups.0);
            let k2 = un::<FreqSummary>(&extra[1]).labels(ngroups.1);
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

/// Per-x-bin collections of y values for the binned box plot (N×N): the
/// finite pairs of [`pair_values`], binned on x's reduced moments into
/// `box.bins` bins on the histogram's grid ([`Histogram::grid`]; a
/// constant x is one bin).
pub fn binned_numeric(ctx: &mut ComputeContext<'_>, x: &str, y: &str) -> NodeId {
    let deps = vec![pair_values(ctx, x, y), moments(ctx, x)];
    let bins = ctx.config.box_plot.bins;
    ctx.op(&format!("binned_numeric:{x}:{y}"), deps, move |inputs| {
        let mom = un::<Moments>(&inputs[1]);
        let grid = Histogram::new(mom.min, mom.max, bins).grid();
        let mut groups: Vec<Vec<f64>> = vec![Vec::new(); grid.nbins()];
        for (a, b) in finite_pairs(&inputs[0]) {
            if let Some(group) = grid.bin(a).and_then(|at| groups.get_mut(at)) {
                group.push(b);
            }
        }
        groups.into_iter().map(trimmed).collect::<Vec<Vec<f64>>>()
    })
}

/// Hexagonal binning of the finite pairs of [`pair_values`] (pointy-top
/// axial grid over the ranges of the reduced moments): the count of each
/// occupied cell, in cell order: counted in a dense array over the axial
/// box of the range's corners, or, for a box that could outnumber the
/// pairs (a huge `hexbin.gridsize`), by sorting the cells.
pub fn hexbin(ctx: &mut ComputeContext<'_>, x: &str, y: &str) -> NodeId {
    let deps = vec![pair_values(ctx, x, y), moments(ctx, x), moments(ctx, y)];
    let gridsize = ctx.config.hexbin.gridsize;
    ctx.op(&format!("hexbin:{x}:{y}"), deps, move |inputs| {
        let (momx, momy) = (un::<Moments>(&inputs[1]), un::<Moments>(&inputs[2]));
        let (sx, sy) = hex_scales(momx, momy, gridsize);
        let cell = |(a, b): (f64, f64)| hex_cell((a - momx.min) / sx, (b - momy.min) / sy);
        let cells = finite_pairs(&inputs[0]).map(cell);
        // The box is under (g + 5)² cells: q spans about 0.91·g, r 0.67·g.
        // With no finite value on a side there is no pair, nor a box.
        let side = gridsize.max(2).saturating_add(5);
        let pairs = un::<Vec<(f64, f64)>>(&inputs[0]).len();
        if momx.count == 0 || momy.count == 0 || side.saturating_mul(side) > pairs.max(1 << 12) {
            let mut cells: Vec<(i64, i64)> = cells.collect();
            cells.sort_unstable();
            let runs = cells.chunk_by(|a, b| a == b).map(|run| (run[0], run.len() as u64));
            return trimmed(runs.collect());
        }
        // q is least at (min x, max y) and most at (max x, min y), r least
        // at min y (row 0) and most at max y: normalizing is monotone, and a
        // cube-rounded cell is within one of its point's axial coordinates
        // (a corner's too), hence a margin of two.
        let ((q0, r1), (q1, _)) = (cell((momx.min, momy.max)), cell((momx.max, momy.min)));
        let (q0, r0, height) = (q0 - 2, -2, (r1 + 5) as usize);
        let mut counts = vec![0u64; (q1 + 3 - q0) as usize * height];
        for (q, r) in cells {
            counts[(q - q0) as usize * height + (r - r0) as usize] += 1;
        }
        // Index order is (q, r) order.
        let at = |i: usize| (q0 + (i / height) as i64, r0 + (i % height) as i64);
        let occupied = counts.iter().enumerate().filter(|&(_, &n)| n > 0);
        trimmed(occupied.map(|(i, &n)| (at(i), n)).collect())
    })
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
/// `line.bins`-bin histogram of each of the first `line.ngroups` groups of
/// `grouped`, the [`grouped_numeric`] node of `cat` and `num`, binned on
/// `num`'s moments.
pub fn multi_line(
    ctx: &mut ComputeContext<'_>,
    (cat, num): (&str, &str),
    grouped: NodeId,
) -> NodeId {
    let deps = vec![grouped, moments(ctx, num)];
    let (ngroups, bins) = (ctx.config.line.ngroups, ctx.config.line.bins);
    ctx.op(&format!("multi_line:{cat}:{num}"), deps, move |inputs| {
        let mom = un::<Moments>(&inputs[1]);
        let groups = un::<Vec<Vec<f64>>>(&inputs[0]).iter().take(ngroups);
        let hist = |values: &Vec<f64>| {
            let mut h = Histogram::new(mom.min, mom.max, bins);
            h.fill_slice(values);
            h
        };
        groups.map(hist).collect::<Vec<Histogram>>()
    })
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
        run_with(&[], build)
    }

    /// [`run_one`] under the default config with `settings` applied: a
    /// kernel reads its bins and group counts from there.
    fn run_with<T: Send + Sync + 'static + Clone>(
        settings: &[(&str, &str)],
        build: impl Fn(&mut ComputeContext<'_>) -> NodeId,
    ) -> T {
        let df = frame();
        let cfg = Config::from_pairs(settings.to_vec()).unwrap();
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
        let h: Histogram = run_with(&[("hist.bins", "10")], |ctx| histogram(ctx, "num"));
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
        fn exact<T>(what: &str, values: &[Vec<T>]) {
            for v in values {
                assert_eq!(v.capacity(), v.len(), "{what}");
            }
        }
        use eda_dataframe::HeapSize;
        let df = frame();
        let cfg = Config::default();
        // A gather reads one partition or concatenates three.
        for parts in [1, 3] {
            let mut ctx = ComputeContext::partitioned(&df, &cfg, parts);
            let gather = numeric_gather(&mut ctx, "num2");
            let pairs = pair_values(&mut ctx, "num", "num2");
            let kept = sorted_values(&mut ctx, "num2", Rows::ValidIn("num".into()));
            let binned = binned_numeric(&mut ctx, "num", "num2");
            let summary = freq_summary(&mut ctx, "cat", Rows::All);
            let grouped = grouped_numeric(&mut ctx, "cat", "num", summary);
            let mask = validity(&mut ctx, "num");
            let nodes = [gather, pairs, kept, binned, grouped, mask];
            let outs = ctx.execute_checked(&nodes).unwrap();
            let what = |payload: &str| format!("{payload}, {parts} partitions");
            let gather = un::<Vec<f64>>(&outs[0]);
            assert_eq!(gather.len(), 200);
            exact(&what("gather"), std::slice::from_ref(gather));
            let pairs = un::<Vec<(f64, f64)>>(&outs[1]);
            assert_eq!(pairs.len(), 180);
            exact(&what("pairs"), std::slice::from_ref(pairs));
            let kept = un::<Vec<f64>>(&outs[2]);
            assert_eq!(kept.len(), 180);
            exact(&what("kept"), std::slice::from_ref(kept));
            for (payload, node) in [("binned boxes", &outs[3]), ("groups", &outs[4])] {
                let groups = un::<Vec<Vec<f64>>>(node);
                assert!(groups.iter().any(|g| !g.is_empty()), "{}", what(payload));
                exact(&what(payload), std::slice::from_ref(groups));
                exact(&what(payload), groups);
            }
            // The partitions' windows are joined into exactly their bytes.
            let mask = un::<Bitmap>(&outs[5]);
            assert_eq!(mask.len(), 200);
            assert_eq!(mask.count_unset(), 20);
            let joined = 2 * size_of::<usize>() + size_of::<Vec<u8>>() + 200usize.div_ceil(8);
            assert_eq!(mask.heap_bytes(), joined, "{}", what("validity"));
        }
    }

    #[test]
    fn a_gather_leaves_one_cache_entry() {
        use eda_taskgraph::ResultCache;
        use std::sync::Arc;
        type Plan = fn(&mut ComputeContext<'_>) -> NodeId;
        let plans: [(&str, Plan); 4] = [
            ("numeric_gather", |ctx| numeric_gather(ctx, "num")),
            ("validity", |ctx| validity(ctx, "num")),
            ("pair_values", |ctx| pair_values(ctx, "num", "num2")),
            ("null_counts", null_counts),
        ];
        let df = frame();
        let cfg = Config::default();
        for (kernel, plan) in plans {
            // Two partitions: no per-partition partial, no reduce.
            let cache = Arc::new(ResultCache::new(1 << 20));
            let mut ctx = ComputeContext::partitioned(&df, &cfg, 2).with_cache(Arc::clone(&cache));
            let node = plan(&mut ctx);
            ctx.execute_checked(&[node]).unwrap();
            assert_eq!(cache.len(), 1, "{kernel}");
            // The two partition sources and the gather.
            assert_eq!(ctx.last_stats.as_ref().unwrap().tasks_run, 3, "{kernel}");
        }
    }

    #[test]
    fn a_partition_kernel_leaves_one_cache_entry() {
        use eda_taskgraph::ResultCache;
        use std::sync::Arc;
        type Plan = fn(&mut ComputeContext<'_>) -> NodeId;
        // Each kernel, after the nodes it reads when it reads any.
        let plans: [(&str, Option<Plan>, Plan); 6] = [
            ("moments", None, |ctx| moments(ctx, "num")),
            ("histogram", Some(|ctx| moments(ctx, "num")), |ctx| histogram(ctx, "num")),
            ("freq", None, |ctx| freq(ctx, "cat", Rows::All)),
            ("text_stats", None, |ctx| text_stats(ctx, "cat")),
            ("pearson", None, |ctx| pearson_partial(ctx, "num", "num2")),
            ("crosstab", Some(|ctx| freq_summary(ctx, "cat", Rows::All)), |ctx| {
                let summary = freq_summary(ctx, "cat", Rows::All);
                crosstab(ctx, ("cat", "cat"), (summary, summary))
            }),
        ];
        let df = frame();
        let cfg = Config::default();
        for partitions in [2, 1] {
            for (kernel, inputs, plan) in plans {
                let cache = Arc::new(ResultCache::new(1 << 20));
                let mut ctx = ComputeContext::partitioned(&df, &cfg, partitions)
                    .with_cache(Arc::clone(&cache));
                if let Some(inputs) = inputs {
                    let inputs = inputs(&mut ctx);
                    ctx.execute_checked(&[inputs]).unwrap();
                }
                let before = cache.len();
                let node = plan(&mut ctx);
                ctx.execute_checked(&[node]).unwrap();
                // The reduce alone: its map partials are never inserted.
                assert_eq!(cache.len() - before, 1, "{kernel} at {partitions} partitions");
                ctx.execute_checked(&[node]).unwrap();
                let reissued = ctx.last_stats.as_ref().unwrap();
                assert_eq!(reissued.tasks_run, 0, "{kernel} at {partitions} partitions");
            }
        }
    }

    #[test]
    fn an_evicted_reduce_reruns_its_maps() {
        use eda_taskgraph::ResultCache;
        use std::sync::Arc;
        let df = frame();
        let cfg = Config::default();
        let uncached = {
            let mut ctx = ComputeContext::partitioned(&df, &cfg, 2);
            let node = moments(&mut ctx, "num");
            format!("{:?}", un::<Moments>(&ctx.execute_checked(&[node]).unwrap()[0]))
        };
        // Room for one `Moments`: the second column's evicts the first's.
        let cache = Arc::new(ResultCache::new(std::mem::size_of::<Moments>()));
        let mut ctx = ComputeContext::partitioned(&df, &cfg, 2).with_cache(Arc::clone(&cache));
        let (num, num2) = (moments(&mut ctx, "num"), moments(&mut ctx, "num2"));
        ctx.execute_checked(&[num]).unwrap();
        ctx.execute_checked(&[num2]).unwrap();
        assert_eq!(ctx.last_stats.as_ref().unwrap().cache_evictions, 1);
        assert_eq!(cache.len(), 1);
        let again = ctx.execute_checked(&[num]).unwrap();
        let stats = ctx.last_stats.as_ref().unwrap();
        assert_eq!(stats.cache_hits, 0);
        // The two partition sources, both maps and the reduce.
        assert_eq!(stats.tasks_run, 5);
        assert_eq!(format!("{:?}", un::<Moments>(&again[0])), uncached);
    }

    #[test]
    fn null_counts_per_column_pair_and_bin() {
        // `num` is null where i % 10 == 0, `cat` where i % 13 == 0; rows 0
        // and 130 are null in both. Three partitions, four spectrum bins.
        let df = frame();
        let cfg = Config::from_pairs(vec![("spectrum.bins", "4")]).unwrap();
        let mut ctx = ComputeContext::partitioned(&df, &cfg, 3);
        let node = null_counts(&mut ctx);
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
        let two = [("box.ngroups", "2"), ("line.ngroups", "2")];
        let g: Vec<Vec<f64>> = run_with(&two, |ctx| {
            let summary = freq_summary(ctx, "cat", Rows::All);
            grouped_numeric(ctx, "cat", "num", summary)
        });
        // The four categories tie at 46 rows, so the two kept are g0 and
        // g1, in that order: `cat` is g{i % 4} and `num` is i, so a
        // group's values give its category away.
        assert_eq!(g.len(), 2);
        for (group, residue) in g.iter().zip([0.0, 1.0]) {
            assert!(!group.is_empty());
            assert!(group.iter().all(|v| v % 4.0 == residue));
        }
    }

    #[test]
    fn crosstab_counts() {
        // cat × cat is degenerate but exercises the kernel: rows g0 and
        // g1 (the four categories tie at 46), column g0; a row's category
        // is one of them, so only the g0 × g0 cell counts.
        let groups = [("crosstab.ngroups_x", "2"), ("crosstab.ngroups_y", "1")];
        let c: Vec<u64> = run_with(&groups, |ctx| {
            let summary = freq_summary(ctx, "cat", Rows::All);
            crosstab(ctx, ("cat", "cat"), (summary, summary))
        });
        assert_eq!(c, [46, 0]);
    }

    #[test]
    fn binned_numeric_covers_pairs() {
        let g: Vec<Vec<f64>> =
            run_with(&[("box.bins", "5")], |ctx| binned_numeric(ctx, "num", "num2"));
        assert_eq!(g.len(), 5);
        let total: usize = g.iter().map(Vec::len).sum();
        assert_eq!(total, 180);
    }

    #[test]
    fn hexbin_conserves_points() {
        let cells: Vec<((i64, i64), u64)> =
            run_with(&[("hexbin.gridsize", "8")], |ctx| hexbin(ctx, "num", "num2"));
        assert!(cells.windows(2).all(|w| w[0].0 < w[1].0));
        let total: u64 = cells.iter().map(|(_, n)| n).sum();
        assert_eq!(total, 180);
        assert!(cells.len() > 1);
    }

    #[test]
    fn hexbin_counts_each_cell_of_its_pairs() {
        // Gridsize 8 counts in the dense box, 5,000 (a box of millions of
        // cells for 180 pairs) by sorting: both are the map of the cells.
        let df = frame();
        for gridsize in [8, 5000] {
            let cfg = Config::from_pairs(vec![("hexbin.gridsize", &*gridsize.to_string())]).unwrap();
            let mut ctx = ComputeContext::new(&df, &cfg);
            let nodes = [
                hexbin(&mut ctx, "num", "num2"),
                pair_values(&mut ctx, "num", "num2"),
                moments(&mut ctx, "num"),
                moments(&mut ctx, "num2"),
            ];
            let outs = ctx.execute_checked(&nodes).unwrap();
            let (mx, my) = (un::<Moments>(&outs[2]), un::<Moments>(&outs[3]));
            let (sx, sy) = hex_scales(mx, my, gridsize);
            let mut want = std::collections::BTreeMap::new();
            for &(a, b) in un::<Vec<(f64, f64)>>(&outs[1]) {
                *want.entry(hex_cell((a - mx.min) / sx, (b - my.min) / sy)).or_insert(0u64) += 1;
            }
            let cells = un::<Vec<((i64, i64), u64)>>(&outs[0]);
            assert_eq!(*cells, want.into_iter().collect::<Vec<_>>(), "gridsize {gridsize}");
            assert_eq!(cells.capacity(), cells.len());
        }
    }

    #[test]
    fn multi_line_shares_bins() {
        let settings = [("box.ngroups", "3"), ("line.ngroups", "2"), ("line.bins", "8")];
        let h: Vec<Histogram> = run_with(&settings, |ctx| {
            let summary = freq_summary(ctx, "cat", Rows::All);
            let grouped = grouped_numeric(ctx, "cat", "num", summary);
            multi_line(ctx, ("cat", "num"), grouped)
        });
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
        let _h = histogram(&mut ctx, "num");
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
        let cfg = Config::from_pairs(vec![("hist.bins", "7")]).unwrap();
        let mut ctx = ComputeContext::new(&df, &cfg);
        let m = moments(&mut ctx, "num2");
        let before = histogram_with_range(&mut ctx, "num2", Rows::All, m);
        let dropped = histogram_with_range(&mut ctx, "num2", Rows::NullIn("num".into()), m);
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
