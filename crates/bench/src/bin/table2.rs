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
//!
//! A second table keeps the one measured input of the paper's user study
//! (Figure 7, §6.3), whose participants cannot be rerun here: on the
//! BirdStrike and DelayedFlights shapes, the latency of a fine-grained
//! task (the mean of `plot(df, x)` and `plot_missing(df, x)`) against
//! the baseline's full report. Both are measured on `50K · scale` rows and projected
//! linearly to the full row count (both tools are linear in rows,
//! Figure 6(b)).

use std::time::Duration;

use eda_bench::{arg_f64, arg_str, fmt_secs, machine_context, measure, print_table};
use eda_core::{create_report, plot, plot_missing, Config};
use eda_datagen::userstudy::{
    birdstrike_spec, delayed_flights_spec, BIRDSTRIKE_ROWS, DELAYED_FLIGHTS_ROWS,
};
use eda_datagen::{generate, kaggle_specs, DatasetSpec};

/// Latencies of (a DataPrep fine-grained task, the baseline report)
/// measured on `spec` and projected linearly to `full_rows`.
fn user_study_latencies(spec: &DatasetSpec, full_rows: usize) -> (Duration, Duration) {
    let df = generate(spec, 42);
    let cfg = Config::default();
    let x = df.names()[6].clone();
    let (_, plot_x) = measure(|| plot(&df, &[&x], &cfg).expect("plot"));
    let (_, missing_x) = measure(|| plot_missing(&df, &[&x], &cfg).expect("plot_missing"));
    let (_, report) = measure(|| eda_baseline::profile(&df));
    let factor = full_rows as f64 / spec.rows as f64;
    (((plot_x + missing_x) / 2).mul_f64(factor), report.mul_f64(factor))
}

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

    let rows = ((50_000.0 * scale) as usize).max(1000);
    println!();
    println!("User-study shapes: mean of plot(df, x) and plot_missing(df, x) vs the PP report, measured on {rows} rows, projected to full size");
    let mut table = Vec::new();
    let shapes = [
        (birdstrike_spec(rows.min(BIRDSTRIKE_ROWS)), BIRDSTRIKE_ROWS),
        (delayed_flights_spec(rows.min(DELAYED_FLIGHTS_ROWS)), DELAYED_FLIGHTS_ROWS),
    ];
    for (spec, full_rows) in &shapes {
        let (task, report) = user_study_latencies(spec, *full_rows);
        table.push(vec![
            spec.name.clone(),
            full_rows.to_string(),
            fmt_secs(task),
            fmt_secs(report),
            format!("{:.1}x", report.as_secs_f64() / task.as_secs_f64()),
        ]);
    }
    print_table(&["Dataset", "#Rows", "DataPrep task", "PP report", "Ratio"], &table);
}
