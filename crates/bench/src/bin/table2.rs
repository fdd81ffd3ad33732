//! Table 2 reproduction: full-report generation time on the 15 Kaggle
//! dataset shapes — Pandas-profiling baseline vs DataPrep.EDA — and the
//! speedup factor.
//!
//! Usage: `cargo run -p eda-bench --release --bin table2 [--scale 1.0] [--commit <label>]`
//!
//! `--commit` names the tree the numbers were taken at; it is printed in
//! the header so `results/table2.txt` says what it measured.
//!
//! The paper reports 4–20× speedups, larger on numeric-heavy datasets
//! (credit, basketball, diabetes). Our substrate differs (Rust vs Python,
//! single core), so EXPERIMENTS.md compares *shapes*: DataPrep faster on
//! every dataset, with the largest factors on numeric-heavy shapes.

use eda_bench::{arg_f64, arg_str, fmt_secs, machine_context, measure, print_table};
use eda_core::{create_report, Config};
use eda_datagen::{generate, kaggle_specs};

fn main() {
    let scale = arg_f64("--scale", 1.0);
    println!("Table 2: create_report, baseline (PP) vs DataPrep  [scale {scale}]");
    println!("{}", machine_context());
    if let Some(commit) = arg_str("--commit") {
        println!("commit: {commit}");
    }
    println!();

    let cfg = Config::default();
    let mut rows = Vec::new();
    let mut speedups = Vec::new();
    for spec in kaggle_specs() {
        let spec = spec.scaled(scale);
        let df = generate(&spec, 42);
        let (n, c) = spec.nc_split();

        let (_, pp_time) = measure(|| eda_baseline::profile(&df));
        let (report, dp_time) = measure(|| create_report(&df, &cfg).expect("report"));
        let speedup = pp_time.as_secs_f64() / dp_time.as_secs_f64();
        speedups.push(speedup);
        rows.push(vec![
            spec.name.clone(),
            spec.rows.to_string(),
            format!("{} ({n}/{c})", spec.columns.len()),
            fmt_secs(pp_time),
            fmt_secs(dp_time),
            format!("{speedup:.1}x"),
            format!("{} shared", report.stats.cse_hits),
        ]);
    }
    print_table(
        &["Dataset", "#Rows", "#Cols (N/C)", "PP", "DataPrep", "Faster", "CSE"],
        &rows,
    );
    let min = speedups.iter().copied().fold(f64::INFINITY, f64::min);
    let max = speedups.iter().copied().fold(0.0f64, f64::max);
    let gmean = (speedups.iter().map(|s| s.ln()).sum::<f64>() / speedups.len() as f64).exp();
    println!();
    println!(
        "speedup range {min:.1}x – {max:.1}x (geometric mean {gmean:.1}x); paper reports 4x – 20.8x"
    );
}
