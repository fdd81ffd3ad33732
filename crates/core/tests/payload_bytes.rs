//! `engine.cache_budget_bytes` is only as honest as the price a task
//! charges for its payload — the size of
//! the type it returns plus its `HeapSize` (`eda_taskgraph::graph::price`):
//! this holds the prices of the correlation, KDE, frequency,
//! frequency-summary, text, histogram, grouped, hexbin, nullity,
//! validity and section payloads, and the result cache's charges for a
//! gather, a pair list and a filtered sort planned over three partitions,
//! against what the allocator actually handed out. One test, so nothing
//! else allocates meanwhile.

// The counting global allocator below is the one `unsafe` here.
#![allow(unsafe_code)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};

use std::sync::Arc;

use eda_core::compute::cat::text_stats;
use eda_core::compute::ctx::{ComputeContext, Section};
use eda_core::compute::kernels::{self, Rows};
use eda_core::{create_report, plot_correlation, Config, Insight, Intermediates};
use eda_dataframe::{Bitmap, Column, DataFrame, HeapSize, Selection};
use eda_stats::corr::{corr_cells, upper_triangle, Col, ColumnPrep, CorrMatrix, CorrMethod};
use eda_stats::freq::CatFreq;
use eda_stats::histogram::Histogram;
use eda_stats::kde::kde_grid;
use eda_stats::missing::NullCounts;
use eda_taskgraph::graph::price;
use eda_taskgraph::{NodeId, Payload, ResultCache};

/// The system allocator, counting live bytes.
struct Counting;

static LIVE: AtomicUsize = AtomicUsize::new(0);

// SAFETY: every call is forwarded to `System` unchanged; the counter is
// bookkeeping only. `realloc` keeps its default (alloc + copy + dealloc),
// which goes through the two methods below.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LIVE.fetch_add(layout.size(), Ordering::Relaxed);
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        // SAFETY: `ptr` came from `System.alloc` with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Build a payload and report the heap bytes it keeps alive.
fn measured(build: impl FnOnce() -> Payload) -> (Payload, usize) {
    let before = LIVE.load(Ordering::Relaxed);
    let payload = build();
    (payload, LIVE.load(Ordering::Relaxed) - before)
}

/// `(charged, on the heap)` of a payload `build` returns.
fn priced<T: HeapSize + Send + Sync + 'static>(build: impl FnOnce() -> T) -> (usize, usize) {
    let (payload, real) = measured(|| Arc::new(build()));
    (price::<T>(&payload), real)
}

/// `(charged, on the heap)` of the payload `plan` puts in the node it
/// returns, over three partitions of `frame` on one worker: what the
/// result cache charged for it, and what the allocator holds for it in
/// a run without the cache.
fn planned(frame: &DataFrame, plan: impl Fn(&mut ComputeContext<'_>) -> NodeId) -> (usize, usize) {
    let config = |budget: &str| {
        Config::from_pairs([("engine.workers", "1"), ("engine.cache_budget_bytes", budget)])
            .unwrap()
    };
    let mut ctx = ComputeContext::partitioned(frame, &config("0"), 3);
    assert_eq!(ctx.pf.npartitions(), 3);
    let node = plan(&mut ctx);
    let (_, real) = measured(|| ctx.execute_checked(&[node]).unwrap().remove(0));

    let cache = Arc::new(ResultCache::new(1 << 30));
    let mut ctx =
        ComputeContext::partitioned(frame, &config("1073741824"), 3).with_cache(Arc::clone(&cache));
    let node = plan(&mut ctx);
    ctx.execute_checked(&[node]).unwrap();
    let (_, charged) = cache.get(ctx.pf.dataset_id, ctx.graph.task(node).key).expect("cached");
    (charged, real)
}

fn lcg(seed: u64, n: usize, modulus: u64) -> Vec<f64> {
    let mut s = seed;
    (0..n)
        .map(|_| {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((s >> 33) % modulus) as f64 / 7.0
        })
        .collect()
}

#[test]
fn charged_bytes_are_within_a_tenth_of_the_heap_bytes() {
    let n = 10_000;
    let distinct = lcg(1, n, 1 << 40);
    let tied = lcg(2, n, 12);
    let mut with_nulls = lcg(3, n, 1000);
    with_nulls.iter_mut().step_by(9).for_each(|v| *v = f64::NAN);

    let mut cases: Vec<(&str, (usize, usize))> = Vec::new();
    let mut case = |name: &'static str, price: (usize, usize)| cases.push((name, price));
    case("corr_prep, distinct values", priced(|| ColumnPrep::prepare(&distinct)));
    case("corr_prep, twelve values", priced(|| ColumnPrep::prepare(&tied)));
    case("corr_prep, nulls", priced(|| ColumnPrep::prepare(&with_nulls)));

    let preps: Vec<ColumnPrep> =
        [&distinct, &tied, &with_nulls].iter().map(|v| ColumnPrep::prepare(v)).collect();
    let cols: Vec<Col<'_>> = [&distinct, &tied, &with_nulls]
        .iter()
        .zip(&preps)
        .map(|(values, prep)| Col { values, prep })
        .collect();
    let twenty_five: Vec<Col<'_>> = cols.iter().cycle().take(25).copied().collect();
    let pairs = upper_triangle(twenty_five.len());
    case("corr_matrix tile", priced(|| corr_cells(CorrMethod::Pearson, &twenty_five, &pairs)));
    let sample = eda_stats::quantile::sorted_values(&distinct[..5000]);
    case("kde", priced(|| kde_grid(&sample, 200)));
    case(
        "corr_assemble",
        priced(|| {
            let labels = (0..25).map(|i| format!("numeric_column_{i}")).collect();
            CorrMatrix::from_upper(labels, CorrMethod::Pearson, vec![Some(0.5); 300])
        }),
    );

    // Every `freq` payload is a count per dictionary entry. Over a string
    // column the dictionary is the column's; two tables with dictionaries
    // of their own merge into one that built (and alone holds) a third.
    let city = |i: usize| format!("a city with a long name, number {i}");
    let names = Column::from_string((0..n).map(city).collect());
    let other = Column::from_string((n / 2..n + n / 2).map(city).collect());
    case("freq, the column's dictionary", priced(|| CatFreq::of(&names, Selection::All)));
    case(
        "freq, a dictionary of its own",
        priced(|| {
            let mut freq = CatFreq::of(&names, Selection::All);
            freq.merge(&CatFreq::of(&other, Selection::All));
            freq
        }),
    );

    // A `freq_summary` payload keeps the categories a chart shows, not
    // the scratch its selection ran in (one entry per distinct value).
    let table = CatFreq::of(&names, Selection::All);
    case("freq_summary", priced(|| table.summary(10)));

    // A `text_stats` payload owns its word table: a string per word.
    let phrases = Column::from_string(
        (0..n).map(|i| format!("Word{} and the {} other words", i % 700, i % 31)).collect(),
    );
    case("text_stats", priced(|| text_stats(&phrases)));

    // `histogram` owns its counts; `multi_line` is one histogram per kept
    // category.
    case("histogram", priced(|| Histogram::from_values(&distinct, 50)));
    case(
        "multi_line",
        priced(|| {
            let mut hists = vec![Histogram::new(0.0, 1000.0 / 7.0, 50); 10];
            for (i, &v) in with_nulls.iter().enumerate() {
                hists[i % 10].push(v);
            }
            hists
        }),
    );

    // `binned_numeric` and `grouped_numeric` collect a group's values as
    // they come, so each group's buffer has grown by doubling.
    case(
        "binned_numeric",
        priced(|| {
            let mut groups: Vec<Vec<f64>> = vec![Vec::new(); 20];
            for &v in &tied {
                groups[(v * 7.0) as usize % 20].push(v);
            }
            groups
        }),
    );

    // `hexbin` counts rows per occupied hexagon in a hash map.
    case(
        "hexbin",
        priced(|| {
            let mut cells: HashMap<(i64, i64), u64> = HashMap::new();
            for (&a, &b) in distinct.iter().zip(&tied) {
                *cells.entry(((a as i64) % 23, (b * 7.0) as i64)).or_insert(0) += 1;
            }
            cells
        }),
    );

    // `nulls` counts per column, per column pair and per spectrum bin:
    // 25 columns, 300 pairs, 40 bins.
    case(
        "nulls",
        priced(|| NullCounts {
            rows: n,
            nulls: (0..25).collect(),
            co_nulls: (0..300).collect(),
            bin_nulls: (0..40).map(|bin| vec![bin; 25]).collect(),
        }),
    );

    // `validity` joins the partitions' windows into a buffer of its own.
    let column =
        Column::from_opt_f64(with_nulls.iter().map(|&v| (!v.is_nan()).then_some(v)).collect());
    let halves =
        [column.slice(0, n / 2).validity_mask(), column.slice(n / 2, n / 2).validity_mask()];
    case(
        "validity",
        priced(|| {
            let mut joined = Bitmap::new();
            halves.iter().for_each(|half| joined.extend_from(half));
            joined
        }),
    );

    // A section node's payload owns its charts, stats tables and
    // insights: the sections of a report and of `plot_correlation(df)`.
    let frame = DataFrame::new(vec![
        ("price".into(), column.clone()),
        ("size".into(), Column::from_f64(distinct.clone())),
        ("city".into(), names.clone()),
    ])
    .unwrap();
    let cfg = Config::from_pairs(vec![("engine.workers", "1"), ("engine.cache_budget_bytes", "0")])
        .unwrap();
    let report = create_report(&frame, &cfg).unwrap();
    let correlation = plot_correlation(&frame, &[], &cfg).unwrap();
    let section = |ims: &Intermediates, insights: &Vec<Insight>| -> Section {
        (ims.clone(), insights.clone())
    };
    case("section, overview", priced(|| section(&report.overview, &Vec::new())));
    case(
        "section, numeric variable",
        priced(|| section(&report.variables[0].intermediates, &report.variables[0].insights)),
    );
    case(
        "section, categorical variable",
        priced(|| section(&report.variables[2].intermediates, &report.variables[2].insights)),
    );
    case(
        "section, correlation",
        priced(|| section(&correlation.intermediates, &correlation.insights)),
    );
    case("section, missing", priced(|| section(&report.missing, &Vec::new())));

    // Concatenated and filtered payloads, planned over three partitions
    // of an adult-sized frame: a concatenating merge reserves exactly
    // what it appends, and a filtered sort keeps no growth slack.
    let rows = 32_561;
    let adult = DataFrame::new(vec![
        ("age".into(), Column::from_f64(lcg(4, rows, 1000))),
        (
            "hours".into(),
            Column::from_opt_f64(
                lcg(5, rows, 500)
                    .into_iter()
                    .enumerate()
                    .map(|(i, v)| (i % 7 != 0).then_some(v))
                    .collect(),
            ),
        ),
    ])
    .unwrap();
    case(
        "numeric_gather, 3 partitions",
        planned(&adult, |ctx| kernels::numeric_gather(ctx, "age")),
    );
    case(
        "pair_values, 3 partitions",
        planned(&adult, |ctx| kernels::pair_values(ctx, "age", "hours")),
    );
    case(
        "sorted_values over valid rows",
        planned(&adult, |ctx| kernels::sorted_values(ctx, "age", Rows::ValidIn("hours".into()))),
    );

    for (name, (charged, real)) in &cases {
        let off = charged.abs_diff(*real) as f64 / *real as f64;
        assert!(off <= 0.10, "{name}: charged {charged} B for {real} B on the heap");
    }
}
