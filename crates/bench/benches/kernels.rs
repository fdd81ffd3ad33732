//! Criterion microbenches for the statistical kernels — the per-table
//! cost drivers behind Table 2.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use eda_baseline::text::FreqTable;
use eda_stats::corr::{kendall_tau, pearson, spearman};
use eda_stats::histogram::Histogram;
use eda_stats::moments::Moments;
use eda_stats::quantile::sorted_values;

fn data(n: usize) -> Vec<f64> {
    (0..n).map(|i| ((i * 2654435761) % 100_000) as f64 / 997.0).collect()
}

fn bench_kernels(c: &mut Criterion) {
    let n = 100_000;
    let xs = data(n);
    let ys: Vec<f64> = xs.iter().map(|v| v * 1.7 + 3.0).collect();
    let cats: Vec<Option<String>> = (0..n).map(|i| Some(format!("c{}", i % 50))).collect();

    c.bench_function("moments_100k", |b| {
        b.iter(|| Moments::from_slice(black_box(&xs)))
    });
    c.bench_function("histogram_100k_50bins", |b| {
        b.iter(|| Histogram::from_values(black_box(&xs), 50))
    });
    c.bench_function("sort_100k", |b| b.iter(|| sorted_values(black_box(&xs))));
    c.bench_function("freq_100k_50cats", |b| {
        b.iter(|| {
            let mut t = FreqTable::new();
            for v in black_box(&cats) {
                t.push(v.as_deref());
            }
            t
        })
    });
    c.bench_function("pearson_100k", |b| {
        b.iter(|| pearson(black_box(&xs), black_box(&ys)))
    });
    c.bench_function("spearman_100k", |b| {
        b.iter(|| spearman(black_box(&xs), black_box(&ys)))
    });
    c.bench_function("kendall_100k", |b| {
        b.iter(|| kendall_tau(black_box(&xs), black_box(&ys)))
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_kernels
}
criterion_main!(benches);
