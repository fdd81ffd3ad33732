//! Figure 5 reproduction: the percentage of fine-grained tasks finishing
//! within 0.5 / 1 / 2 / 5 seconds.
//!
//! Usage: `cargo run -p eda-bench --release --bin figure5 [--scale 1.0] [--max-pairs 40]`
//!
//! Exactly like the paper's self-comparison: `plot`, `plot_correlation`,
//! and `plot_missing` run for every column of every Table 2 dataset, and
//! for column pairs (bivariate `plot` restricted to categorical columns
//! with ≤ 100 distinct values, as the paper does). Pair enumeration is
//! capped per dataset by `--max-pairs` to keep total wall time sane; the
//! cap is reported. The paper calls `plot_missing(df, x)` the costliest
//! fine-grained task because it computes two frequency distributions per
//! column — about twice a `plot` — so its mean is printed next to `plot`'s.

use std::time::Duration;

use eda_bench::{arg_f64, machine_context, measure, print_table};
use eda_core::{plot, plot_correlation, plot_missing, Config};
use eda_core::dtype::{detect, SemanticType};
use eda_datagen::{generate, kaggle_specs};
use eda_dataframe::DataFrame;

const THRESHOLDS: [f64; 4] = [0.5, 1.0, 2.0, 5.0];

#[derive(Default)]
struct Bucket {
    times: Vec<Duration>,
}

impl Bucket {
    fn push(&mut self, d: Duration) {
        self.times.push(d);
    }

    fn within(&self, secs: f64) -> f64 {
        if self.times.is_empty() {
            return 0.0;
        }
        let n = self
            .times
            .iter()
            .filter(|t| t.as_secs_f64() <= secs)
            .count();
        100.0 * n as f64 / self.times.len() as f64
    }

    fn mean(&self) -> f64 {
        if self.times.is_empty() {
            return 0.0;
        }
        self.times.iter().map(|t| t.as_secs_f64()).sum::<f64>() / self.times.len() as f64
    }
}

fn eligible_pair_columns(df: &DataFrame, cfg: &Config) -> Vec<String> {
    // The paper limits pair tasks to categorical columns with ≤ 100
    // distinct values (numeric columns always eligible).
    df.iter()
        .filter(|(_, c)| {
            match detect(c, cfg.types.low_cardinality) {
                SemanticType::Numerical => true,
                SemanticType::Categorical => {
                    let mut distinct = std::collections::HashSet::new();
                    for v in c.display_iter().flatten() {
                        distinct.insert(v);
                        if distinct.len() > 100 {
                            return false;
                        }
                    }
                    true
                }
            }
        })
        .map(|(n, _)| n.to_string())
        .collect()
}

fn main() {
    let scale = arg_f64("--scale", 1.0);
    let max_pairs = arg_f64("--max-pairs", 40.0) as usize;
    println!("Figure 5: fine-grained task latencies  [scale {scale}, ≤{max_pairs} pairs/dataset]");
    println!("{}", machine_context());
    println!();

    let cfg = Config::default();
    let mut plot_bucket = Bucket::default();
    let mut corr_bucket = Bucket::default();
    let mut missing_bucket = Bucket::default();
    let mut missing_impact_bucket = Bucket::default();

    for spec in kaggle_specs() {
        let spec = spec.scaled(scale);
        let df = generate(&spec, 42);
        let names: Vec<String> = df.names().to_vec();
        let numeric: Vec<String> = names
            .iter()
            .filter(|n| {
                detect(df.column(n).expect("name"), cfg.types.low_cardinality)
                    == SemanticType::Numerical
            })
            .cloned()
            .collect();

        // Single-column tasks, every column / every numeric column.
        for name in &names {
            let (_, d) = measure(|| plot(&df, &[name], &cfg).expect("plot"));
            plot_bucket.push(d);
            let (_, d) = measure(|| plot_missing(&df, &[name], &cfg).expect("plot_missing"));
            missing_impact_bucket.push(d);
        }
        for name in &numeric {
            if numeric.len() >= 2 {
                let (_, d) =
                    measure(|| plot_correlation(&df, &[name], &cfg).expect("plot_correlation"));
                corr_bucket.push(d);
            }
        }

        // Zero-column tasks.
        let (_, d) = measure(|| plot(&df, &[], &cfg).expect("plot overview"));
        plot_bucket.push(d);
        if numeric.len() >= 2 {
            let (_, d) = measure(|| plot_correlation(&df, &[], &cfg).expect("corr overview"));
            corr_bucket.push(d);
        }
        let (_, d) = measure(|| plot_missing(&df, &[], &cfg).expect("missing overview"));
        missing_bucket.push(d);

        // Pair tasks (capped).
        let eligible = eligible_pair_columns(&df, &cfg);
        let mut pairs = Vec::new();
        'outer: for i in 0..eligible.len() {
            for j in (i + 1)..eligible.len() {
                pairs.push((eligible[i].clone(), eligible[j].clone()));
                if pairs.len() >= max_pairs {
                    break 'outer;
                }
            }
        }
        for (a, b) in &pairs {
            let (_, d) = measure(|| plot(&df, &[a, b], &cfg).expect("plot pair"));
            plot_bucket.push(d);
            let (_, d) = measure(|| plot_missing(&df, &[a, b], &cfg).expect("missing pair"));
            missing_bucket.push(d);
            if numeric.contains(a) && numeric.contains(b) {
                let (_, d) = measure(|| plot_correlation(&df, &[a, b], &cfg).expect("corr pair"));
                corr_bucket.push(d);
            }
        }
    }

    let buckets: [(&str, &Bucket); 4] = [
        ("plot(...)", &plot_bucket),
        ("plot_correlation(...)", &corr_bucket),
        ("plot_missing(df)/(df,x,y)", &missing_bucket),
        ("plot_missing(df,x)", &missing_impact_bucket),
    ];
    let rows: Vec<Vec<String>> = buckets
        .iter()
        .map(|(name, b)| {
            let mut row = vec![name.to_string(), b.times.len().to_string()];
            for t in THRESHOLDS {
                row.push(format!("{:.1}%", b.within(t)));
            }
            row.push(format!("{:.3}s", b.mean()));
            row
        })
        .collect();
    print_table(
        &["Function", "#Tasks", "≤0.5s", "≤1s", "≤2s", "≤5s", "mean"],
        &rows,
    );
    println!();
    println!(
        "paper: majority of tasks finish within 1s for every function except plot_missing(df, x), which"
    );
    println!(
        "computes two frequency distributions per column (about 2x a plot); here its mean is {:.3}s vs {:.3}s for plot",
        missing_impact_bucket.mean(),
        plot_bucket.mean()
    );
}
