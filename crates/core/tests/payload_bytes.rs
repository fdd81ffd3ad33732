//! `engine.cache_budget_bytes` and `engine.memory_budget_bytes` are only
//! as honest as the bytes `payload_sizer` charges: this holds its prices
//! for the correlation, KDE, frequency, frequency-summary, text,
//! histogram, grouped, hexbin, nullity and validity payloads against what
//! the allocator actually handed out. One test, so nothing else allocates
//! meanwhile.

// The counting global allocator below is the one `unsafe` here.
#![allow(unsafe_code)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};

use eda_core::compute::cat::text_stats;
use eda_core::compute::ctx::{payload_sizer, pl};
use eda_dataframe::{Bitmap, Column, Selection};
use eda_stats::corr::{corr_cells, upper_triangle, Col, ColumnPrep, CorrMatrix, CorrMethod};
use eda_stats::freq::CatFreq;
use eda_stats::histogram::Histogram;
use eda_stats::kde::kde_grid;
use eda_stats::missing::NullCounts;
use eda_taskgraph::Payload;

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
    let sizer = payload_sizer();
    let n = 10_000;
    let distinct = lcg(1, n, 1 << 40);
    let tied = lcg(2, n, 12);
    let mut with_nulls = lcg(3, n, 1000);
    with_nulls.iter_mut().step_by(9).for_each(|v| *v = f64::NAN);

    let mut cases: Vec<(&str, Payload, usize)> = Vec::new();
    let mut case = |name: &'static str, build: &dyn Fn() -> Payload| {
        let (payload, real) = measured(build);
        cases.push((name, payload, real));
    };
    case("corr_prep, distinct values", &|| pl(ColumnPrep::prepare(&distinct)));
    case("corr_prep, twelve values", &|| pl(ColumnPrep::prepare(&tied)));
    case("corr_prep, nulls", &|| pl(ColumnPrep::prepare(&with_nulls)));

    let preps: Vec<ColumnPrep> =
        [&distinct, &tied, &with_nulls].iter().map(|v| ColumnPrep::prepare(v)).collect();
    let cols: Vec<Col<'_>> = [&distinct, &tied, &with_nulls]
        .iter()
        .zip(&preps)
        .map(|(values, prep)| Col { values, prep })
        .collect();
    let twenty_five: Vec<Col<'_>> = cols.iter().cycle().take(25).copied().collect();
    let pairs = upper_triangle(twenty_five.len());
    case("corr_matrix tile", &|| pl(corr_cells(CorrMethod::Pearson, &twenty_five, &pairs)));
    let sample = eda_stats::quantile::sorted_values(&distinct[..5000]);
    case("kde", &|| pl(kde_grid(&sample, 200)));
    case("corr_assemble", &|| {
        let labels = (0..25).map(|i| format!("numeric_column_{i}")).collect();
        pl(CorrMatrix::from_upper(labels, CorrMethod::Pearson, vec![Some(0.5); 300]))
    });

    // Every `freq` payload is a count per dictionary entry. Over a string
    // column the dictionary is the column's; two tables with dictionaries
    // of their own merge into one that built (and alone holds) a third.
    let city = |i: usize| format!("a city with a long name, number {i}");
    let names = Column::from_string((0..n).map(city).collect());
    let other = Column::from_string((n / 2..n + n / 2).map(city).collect());
    case("freq, the column's dictionary", &|| pl(CatFreq::of(&names, Selection::All)));
    case("freq, a dictionary of its own", &|| {
        let mut freq = CatFreq::of(&names, Selection::All);
        freq.merge(&CatFreq::of(&other, Selection::All));
        pl(freq)
    });

    // A `freq_summary` payload keeps the categories a chart shows, not
    // the scratch its selection ran in (one entry per distinct value).
    let table = CatFreq::of(&names, Selection::All);
    case("freq_summary", &|| pl(table.summary(10)));

    // A `text_stats` payload owns its word table: a string per word.
    let phrases = Column::from_string(
        (0..n).map(|i| format!("Word{} and the {} other words", i % 700, i % 31)).collect(),
    );
    case("text_stats", &|| pl(text_stats(&phrases)));

    // `histogram` owns its counts; `multi_line` is one histogram per kept
    // category.
    case("histogram", &|| pl(Histogram::from_values(&distinct, 50)));
    case("multi_line", &|| {
        let mut hists = vec![Histogram::new(0.0, 1000.0 / 7.0, 50); 10];
        for (i, &v) in with_nulls.iter().enumerate() {
            hists[i % 10].push(v);
        }
        pl(hists)
    });

    // `binned_numeric` and `grouped_numeric` collect a group's values as
    // they come, so each group's buffer has grown by doubling.
    case("binned_numeric", &|| {
        let mut groups: Vec<Vec<f64>> = vec![Vec::new(); 20];
        for &v in &tied {
            groups[(v * 7.0) as usize % 20].push(v);
        }
        pl(groups)
    });

    // `hexbin` counts rows per occupied hexagon in a hash map.
    case("hexbin", &|| {
        let mut cells: HashMap<(i64, i64), u64> = HashMap::new();
        for (&a, &b) in distinct.iter().zip(&tied) {
            *cells.entry(((a as i64) % 23, (b * 7.0) as i64)).or_insert(0) += 1;
        }
        pl(cells)
    });

    // `nulls` counts per column, per column pair and per spectrum bin:
    // 25 columns, 300 pairs, 40 bins.
    case("nulls", &|| {
        pl(NullCounts {
            rows: n,
            nulls: (0..25).collect(),
            co_nulls: (0..300).collect(),
            bin_nulls: (0..40).map(|bin| vec![bin; 25]).collect(),
        })
    });

    // `validity` joins the partitions' windows into a buffer of its own.
    let column =
        Column::from_opt_f64(with_nulls.iter().map(|&v| (!v.is_nan()).then_some(v)).collect());
    let halves =
        [column.slice(0, n / 2).validity_mask(), column.slice(n / 2, n / 2).validity_mask()];
    case("validity", &|| {
        let mut joined = Bitmap::new();
        halves.iter().for_each(|half| joined.extend_from(half));
        pl(joined)
    });

    for (name, payload, real) in &cases {
        let charged = sizer(payload).unwrap_or_else(|| panic!("{name}: not priced"));
        let off = charged.abs_diff(*real) as f64 / *real as f64;
        assert!(off <= 0.10, "{name}: charged {charged} B for {real} B on the heap");
    }
}
