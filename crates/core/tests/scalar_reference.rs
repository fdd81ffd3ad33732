//! `eda_stats::vector::set_force_scalar` is a process-wide latch (the
//! vector/scalar choice is not part of task keys), so a test that sets it
//! cannot share a process with tests that expect the build's default
//! kernels. This file holds that one test and nothing else.

use eda_core::json::intermediates_to_json;
use eda_core::{plot, Config, Inter};
use eda_dataframe::{Column, DataFrame};

#[test]
fn simd_off_reproduces_scalar_reference() {
    use eda_stats::histogram::Histogram;
    use eda_stats::moments::Moments;

    // Single partition so the scalar reference below replays the exact
    // whole-slice fold.
    let n = 100_000usize;
    let vals: Vec<f64> =
        (0..n as u64).map(|i| ((i * 2654435761) % 10_000) as f64 / 7.0 - 500.0).collect();
    let df =
        DataFrame::new(vec![("v".into(), Column::from_f64(vals.clone()))]).unwrap();
    let cfg_of = |extra: &[(&str, &str)]| {
        let mut pairs = vec![("engine.npartitions", "1"), ("engine.cache_budget_bytes", "0")];
        pairs.extend_from_slice(extra);
        Config::from_pairs(pairs).unwrap()
    };
    let cfg = cfg_of(&[]);

    // Golden: with the scalar kernels forced (a no-op in builds without
    // the `simd` feature) the pipeline must reproduce the sequential
    // scalar sketches bit for bit.
    eda_stats::vector::set_force_scalar(true);
    let a = plot(&df, &["v"], &cfg).unwrap();
    let mut m = Moments::new();
    for &v in &vals {
        m.push(v);
    }
    let mut h = Histogram::new(m.min, m.max, 50);
    for &v in &vals {
        h.push(v);
    }
    let Some(Inter::Histogram { edges, counts }) = a.get("histogram") else {
        panic!("univariate analysis must produce a histogram");
    };
    let expect_edges = h.edges();
    assert_eq!(edges.len(), expect_edges.len());
    for (got, want) in edges.iter().zip(&expect_edges) {
        assert_eq!(got.to_bits(), want.to_bits());
    }
    assert_eq!(counts, &h.counts);

    // And the scalar path itself is reproducible byte for byte.
    let a2 = plot(&df, &["v"], &cfg).unwrap();
    assert_eq!(
        intermediates_to_json(&a.intermediates),
        intermediates_to_json(&a2.intermediates)
    );

    // Turning compiled-in SIMD back on may reassociate float sums, but
    // every integer-exact output — bin counts and the extrema-derived
    // edges — must not move.
    eda_stats::vector::set_force_scalar(false);
    let b = plot(&df, &["v"], &cfg).unwrap();
    let Some(Inter::Histogram { edges: fe, counts: fc }) = b.get("histogram") else {
        panic!("univariate analysis must produce a histogram");
    };
    for (got, want) in fe.iter().zip(&expect_edges) {
        assert_eq!(got.to_bits(), want.to_bits());
    }
    assert_eq!(fc, &h.counts);

    // Worker count must never reach the output bytes.
    let w1 = plot(&df, &["v"], &cfg_of(&[("engine.workers", "1")])).unwrap();
    let w4 = plot(&df, &["v"], &cfg_of(&[("engine.workers", "4")])).unwrap();
    assert_eq!(
        intermediates_to_json(&w1.intermediates),
        intermediates_to_json(&w4.intermediates)
    );
}
