//! The `sorted_values` node reads a column's values along its `corr_prep`
//! argsort and, for `Rows::ValidIn(x)` / `Rows::NullIn(x)`, keeps the
//! sorted rows by `x`'s validity. This holds it to the obvious definition:
//! take the selected rows, drop nulls and NaN, sort. The comparison is
//! `==` on the vectors, so `-0.0` and `0.0` tie, which is the one freedom
//! the argsort has (equal keys stay in row order, where a comparison sort
//! leaves them in any order).

use eda_core::compute::ctx::un;
use eda_core::compute::kernels::{self, Rows};
use eda_core::compute::ComputeContext;
use eda_core::Config;
use eda_dataframe::{Column, DataFrame};
use eda_stats::quantile;
use proptest::prelude::*;

const ROWS: usize = 60;

fn float() -> impl Strategy<Value = f64> {
    let special = prop::sample::select(vec![
        -0.0,
        0.0,
        f64::INFINITY,
        f64::NEG_INFINITY,
        f64::NAN,
        1.5,
        -2.0,
    ]);
    prop_oneof![2 => special, 1 => -1.0e3..1.0e3f64]
}

/// A null mask of `ROWS` rows: none, every row, or drawn.
fn mask() -> impl Strategy<Value = Vec<bool>> {
    let drawn = prop::collection::vec(any::<bool>(), ROWS);
    prop_oneof![1 => Just(vec![false; ROWS]), 1 => Just(vec![true; ROWS]), 2 => drawn]
}

fn masked<T>(values: Vec<T>, null: &[bool], n: usize) -> Vec<Option<T>> {
    values.into_iter().zip(null).take(n).map(|(v, &null)| (!null).then_some(v)).collect()
}

/// Numeric `y` columns (nulls, valid NaN, ±0, ±inf; integers; a constant;
/// every row null) and an `x` of each dtype, `n` rows.
fn arb_frame() -> impl Strategy<Value = DataFrame> {
    let floats = || prop::collection::vec(float(), ROWS);
    let ints = prop::collection::vec(-5i64..5, ROWS);
    let words = prop::collection::vec(0u8..4, ROWS);
    let masks = prop::collection::vec(mask(), 6);
    (1..=ROWS, floats(), floats(), ints, words, masks).prop_map(
        |(n, yf, xf, ints, words, masks)| {
            let [y_null, yi_null, xf_null, xi_null, xs_null, xb_null] =
                <[Vec<bool>; 6]>::try_from(masks).expect("six masks");
            let bools: Vec<bool> = ints.iter().map(|v| v % 2 == 0).collect();
            let strings: Vec<String> = words.iter().map(|w| format!("w{w}")).collect();
            DataFrame::new(vec![
                ("yf".into(), Column::from_opt_f64(masked(yf, &y_null, n))),
                ("yi".into(), Column::from_opt_i64(masked(ints.clone(), &yi_null, n))),
                ("yc".into(), Column::from_f64(vec![2.5; n])),
                ("yn".into(), Column::from_opt_f64(vec![None; n])),
                ("xf".into(), Column::from_opt_f64(masked(xf, &xf_null, n))),
                ("xi".into(), Column::from_opt_i64(masked(ints, &xi_null, n))),
                ("xs".into(), Column::from_opt_string(masked(strings, &xs_null, n))),
                ("xb".into(), Column::from_opt_bool(masked(bools, &xb_null, n))),
            ])
            .expect("equal lengths")
        },
    )
}

/// `y`'s sorted non-null, non-NaN values over the rows `rows` selects.
fn oracle(df: &DataFrame, y: &str, rows: &Rows) -> Vec<f64> {
    let values = df.column(y).unwrap().to_f64_nan().unwrap();
    let selected = |row: usize| match rows {
        Rows::All => true,
        Rows::ValidIn(x) => df.column(x).unwrap().is_valid(row),
        Rows::NullIn(x) => !df.column(x).unwrap().is_valid(row),
    };
    let chosen: Vec<f64> =
        values.iter().enumerate().filter(|&(row, _)| selected(row)).map(|(_, &v)| v).collect();
    quantile::sorted_values(&chosen)
}

fn check(df: &DataFrame) -> Result<(), String> {
    let mut selections = vec![Rows::All];
    for x in ["xf", "xi", "xs", "xb", "yf"] {
        selections.push(Rows::ValidIn(x.into()));
        selections.push(Rows::NullIn(x.into()));
    }
    for workers in ["1", "4"] {
        let cfg = Config::from_pairs(vec![
            ("engine.workers", workers),
            ("engine.cache_budget_bytes", "0"),
        ])
        .unwrap();
        for parts in 1..=3 {
            let mut ctx = ComputeContext::partitioned(df, &cfg, parts);
            let mut planned = Vec::new();
            for y in ["yf", "yi", "yc", "yn"] {
                for rows in &selections {
                    planned.push((
                        y,
                        rows.clone(),
                        kernels::sorted_values(&mut ctx, y, rows.clone()),
                    ));
                }
            }
            let nodes: Vec<_> = planned.iter().map(|p| p.2).collect();
            let outs = ctx.execute_checked(&nodes).unwrap();
            for ((y, rows, _), out) in planned.iter().zip(&outs) {
                let got = un::<Vec<f64>>(out);
                let want = oracle(df, y, rows);
                prop_assert_eq!(
                    got,
                    &want,
                    "{y} over {rows:?}, {parts} partitions, {workers} workers"
                );
            }
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn sorted_values_node_is_the_sorted_selection(df in arb_frame()) {
        check(&df)?;
    }
}

#[test]
fn one_row_frames() {
    for null in [false, true] {
        let df = DataFrame::new(vec![
            ("yf".into(), Column::from_opt_f64(vec![(!null).then_some(-0.0)])),
            ("yi".into(), Column::from_opt_i64(vec![Some(3)])),
            ("yc".into(), Column::from_f64(vec![2.5])),
            ("yn".into(), Column::from_opt_f64(vec![None])),
            ("xf".into(), Column::from_opt_f64(vec![(!null).then_some(f64::NAN)])),
            ("xi".into(), Column::from_opt_i64(vec![(!null).then_some(1)])),
            ("xs".into(), Column::from_opt_string(vec![(!null).then(|| "a".to_string())])),
            ("xb".into(), Column::from_opt_bool(vec![(!null).then_some(true)])),
        ])
        .unwrap();
        check(&df).unwrap();
    }
}
