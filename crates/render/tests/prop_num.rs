//! Differential test of the page's number writers: every one must append
//! exactly what `format!` prints, for every `f64` — the values a page
//! holds (pixels, percentages, counts), the ones its own arithmetic must
//! hand to the formatter (exact ties, near-ties, huge, non-finite), and
//! anything in between.

// The writers are private to `eda-render`; the test compiles the module
// itself.
#[path = "../src/num.rs"]
mod num;

use proptest::prelude::*;

fn written(write: impl FnOnce(&mut String)) -> String {
    // Appending must leave what is already there alone.
    let mut out = String::from("x=");
    write(&mut out);
    out.strip_prefix("x=").expect("prefix kept").to_string()
}

fn check(v: f64) {
    for decimals in 0..=4 {
        let want = format!("{v:.decimals$}");
        assert_eq!(written(|out| num::push_fixed(out, v, decimals)), want, "{v:?} at {decimals} decimals");
    }
    assert_eq!(written(|out| num::push_f64(out, v)), format!("{v}"), "{v:?} as Display");
}

/// Values the issue names, and the neighbours of each.
#[test]
fn writers_match_format_on_the_hard_values() {
    let mut values = vec![
        0.0, -0.0, 0.125, 0.375, 2.675, 0.005, 0.015, 0.025, 99.995, 0.5, 1.5, 2.5, 0.05, 0.25, 0.45,
        1e15, -1e15, 1e7, 9_999_999.5, 9_999_999.994_999, 1e-7, -0.001, -0.004_999, 0.004_999_999,
        f64::MIN_POSITIVE, -f64::MIN_POSITIVE, 5e-324, f64::MAX, f64::MIN, f64::EPSILON,
        f64::NAN, f64::INFINITY, f64::NEG_INFINITY,
        // Display: short decimals, and doubles one ulp off them.
        1.0, 1.2, 1.5, 0.55, 0.7, 8.5, 12.0, 0.1 + 0.2, 100.0, 1234.56, 0.01, 0.1, 10.0,
    ];
    // Every tie of the first three decimals in a pixel's range, hit
    // exactly (multiples of 1/8 are doubles) and through decimal literals.
    values.extend((0..4000).map(|i| f64::from(i) / 8.0));
    values.extend((0..2000).map(|i| f64::from(i) / 1000.0 + 0.0005));
    values.extend((0..2000).map(|i| f64::from(i) / 100.0 + 0.005));
    for v in values.clone() {
        for near in [v, -v, f64::from_bits(v.to_bits().wrapping_add(1)), f64::from_bits(v.to_bits().wrapping_sub(1))] {
            check(near);
        }
    }
    for n in [0u64, 1, 9, 10, 99, 100, 12_345, 4_294_967_296, u64::MAX - 1, u64::MAX] {
        assert_eq!(written(|out| num::push_uint(out, n)), n.to_string());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4096))]

    #[test]
    fn writers_match_format_on_pixel_range_values(v in -2000.0..2000.0f64) {
        check(v);
        // The same value as a renderer computes it: a few decimals.
        check((v * 100.0).round() / 100.0);
        check((v * 1000.0).round() / 1000.0 + 0.0005);
    }

    #[test]
    fn writers_match_format_on_any_double(v in any::<f64>(), scale in -30i32..30) {
        check(v);
        check(v * 10f64.powi(scale));
        check(10f64.powi(scale));
    }

    #[test]
    fn writers_match_format_on_integers(n in any::<u64>(), shift in 0u32..64) {
        let n = n >> shift;
        prop_assert_eq!(written(|out| num::push_uint(out, n)), n.to_string());
        check(n as f64);
    }
}
