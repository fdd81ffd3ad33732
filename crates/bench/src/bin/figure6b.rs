//! Figure 6(b) reproduction: `create_report` wall time vs data size,
//! DataPrep vs the Pandas-profiling baseline; then the measured stand-in
//! for Figure 6(c): the largest report on 1 → host-core workers.
//!
//! Usage: `cargo run -p eda-bench --release --bin figure6b [--scale 0.02] [--points 5]`
//!
//! The paper duplicates the bitcoin dataset from 10M to 100M rows and
//! finds both tools linear in rows with DataPrep ≈ 6× faster throughout.
//! Default sizes are scaled (`--scale 0.02` → 40K..200K rows) so the sweep
//! fits small machines. Figure 6(c) adds workers on an 8-node HDFS
//! cluster, which one host cannot reproduce; the second table sweeps
//! `engine.workers` over this host's cores instead.

use eda_bench::{arg_f64, fmt_secs, machine_context, measure, print_table};
use eda_core::{create_report, Config};
use eda_datagen::bitcoin::bitcoin_spec;
use eda_datagen::generate;

/// The sweep's row counts: `points` (at least 2) even steps up to
/// `10M · scale`, at least 1,000 rows each.
fn sizes(scale: f64, points: usize) -> Vec<usize> {
    let points = points.max(2);
    (1..=points)
        .map(|i| ((10_000_000.0 * i as f64 / points as f64 * scale) as usize).max(1000))
        .collect()
}

fn main() {
    let scale = arg_f64("--scale", 0.02);
    let points = arg_f64("--points", 5.0) as usize;
    println!("Figure 6(b): create_report vs data size  [scale {scale}]");
    println!("{}", machine_context());
    println!();

    let cfg = Config::default();
    let mut rows_out = Vec::new();
    let mut ratios = Vec::new();
    let mut series: Vec<(usize, f64, f64)> = Vec::new();
    let sizes = sizes(scale, points);
    for &rows in &sizes {
        let df = generate(&bitcoin_spec(rows), 42);
        let (_, pp) = measure(|| eda_baseline::profile(&df));
        let (_, dp) = measure(|| create_report(&df, &cfg).expect("report"));
        let ratio = pp.as_secs_f64() / dp.as_secs_f64();
        ratios.push(ratio);
        series.push((rows, pp.as_secs_f64(), dp.as_secs_f64()));
        rows_out.push(vec![
            format!("{rows}"),
            fmt_secs(pp),
            fmt_secs(dp),
            format!("{ratio:.1}x"),
        ]);
    }
    print_table(&["Rows", "PP", "DataPrep", "Faster"], &rows_out);

    // Linearity check: time per row should be roughly constant.
    let per_row_first = series.first().map_or(0.0, |(r, _, d)| d / *r as f64);
    let per_row_last = series.last().map_or(0.0, |(r, _, d)| d / *r as f64);
    println!();
    println!(
        "linearity: DataPrep ns/row first point {:.0}, last point {:.0} (paper: both tools linear)",
        per_row_first * 1e9,
        per_row_last * 1e9
    );
    let gmean = (ratios.iter().map(|s| s.ln()).sum::<f64>() / ratios.len() as f64).exp();
    println!("mean speedup {gmean:.1}x (paper: ≈6x at these sizes)");

    let largest = sizes.last().copied().unwrap_or(1000);
    let df = generate(&bitcoin_spec(largest), 42);
    let host_cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!();
    println!("Figure 6(c) stand-in: create_report on {largest} rows vs engine.workers");
    let mut rows_out = Vec::new();
    let mut one_worker = None;
    for workers in 1..=host_cores {
        // The cache is off so no run is served the previous run's results.
        let workers_value = workers.to_string();
        let cfg = Config::from_pairs(vec![
            ("engine.workers", workers_value.as_str()),
            ("engine.cache_budget_bytes", "0"),
        ])
        .expect("engine.workers");
        let (_, dp) = measure(|| create_report(&df, &cfg).expect("report"));
        let base = *one_worker.get_or_insert(dp);
        rows_out.push(vec![
            workers.to_string(),
            fmt_secs(dp),
            format!("{:.2}x", base.as_secs_f64() / dp.as_secs_f64()),
        ]);
    }
    print_table(&["Workers", "DataPrep", "vs 1 worker"], &rows_out);
}

#[cfg(test)]
mod tests {
    use super::sizes;

    #[test]
    fn fewer_than_two_points_sweep_like_two() {
        let two = sizes(0.02, 2);
        assert_eq!(two, vec![100_000, 200_000]);
        assert_eq!(sizes(0.02, 0), two);
        assert_eq!(sizes(0.02, 1), two);
        assert_eq!(sizes(0.02, 5), vec![40_000, 80_000, 120_000, 160_000, 200_000]);
    }
}
