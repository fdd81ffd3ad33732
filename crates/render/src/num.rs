//! Number writers: append a number to the page byte for byte as
//! `core::fmt` prints it, without going through `core::fmt`. A page is a
//! few hundred thousand coordinates, and the formatter's exact-decimal
//! machinery is most of what rendering one costs.
//!
//! Each writer handles the values whose digits plain integer arithmetic
//! provably gets right and hands the rest — NaN, infinities, magnitudes
//! beyond [`FAST_BELOW`], values too near a rounding tie to call in
//! floating point — to `write!`.

use std::fmt::Write as _;

/// The writers' own arithmetic covers `|v|` below this; a pixel, a
/// percentage or a count is far inside it. Scaled by up to 10³ such a
/// value stays below 2³⁴, where a double's half-ulp is under 10⁻⁶.
const FAST_BELOW: f64 = 1e7;
/// A scaled value this close to `k + 0.5` may sit on the other side of the
/// tie than the exact product does (the multiplication is off by at most
/// 10⁻⁶), or on it (the formatter then rounds half to even).
const TIE_MARGIN: f64 = 1e-5;
const POW10: [f64; 4] = [1.0, 10.0, 100.0, 1000.0];

/// Append `-` (the formatter prints the sign bit, so `-0.001` at two
/// decimals is `-0.00`), the digits of `n` with a point before the last
/// `decimals` of them, and at least one digit before the point.
fn push_scaled(out: &mut String, negative: bool, mut n: u64, decimals: usize) {
    // 2⁶⁴ has 20 digits; sign and point make 22.
    let mut buf = [0u8; 24];
    let mut at = buf.len();
    let mut put = |byte: u8| {
        at = at.saturating_sub(1);
        if let Some(slot) = buf.get_mut(at) {
            *slot = byte;
        }
    };
    for _ in 0..decimals {
        put(b'0' + (n % 10) as u8);
        n /= 10;
    }
    if decimals > 0 {
        put(b'.');
    }
    loop {
        put(b'0' + (n % 10) as u8);
        n /= 10;
        if n == 0 {
            break;
        }
    }
    if negative {
        put(b'-');
    }
    out.push_str(buf.get(at..).and_then(|digits| std::str::from_utf8(digits).ok()).unwrap_or_default());
}

/// Append `n` as `{n}` prints it.
pub(crate) fn push_uint(out: &mut String, n: u64) {
    push_scaled(out, false, n, 0);
}

/// Append `v` as `{v:.decimals$}` prints it.
///
/// The formatter rounds the double's exact value half to even at the last
/// decimal. `round(|v|·10^decimals)` computed in floating point is that
/// same integer whenever the product is not within [`TIE_MARGIN`] of a
/// tie: the only error is the product's rounding, and it cannot carry the
/// value across a half it is that far from.
pub(crate) fn push_fixed(out: &mut String, v: f64, decimals: usize) {
    if let Some(pow) = POW10.get(decimals).filter(|_| v.abs() < FAST_BELOW) {
        let scaled = v.abs() * pow;
        let (whole, frac) = (scaled.floor(), scaled - scaled.floor());
        if (frac - 0.5).abs() > TIE_MARGIN {
            return push_scaled(out, v.is_sign_negative(), whole as u64 + u64::from(frac > 0.5), decimals);
        }
    }
    let _ = write!(out, "{v:.decimals$}");
}

/// Append `v` as `{v}` prints it: the shortest decimal that reads back as
/// `v`, never in exponent form.
///
/// When `n/100` reads back as `v` for an integer `n`, that decimal with
/// its trailing zeros dropped is the one: any decimal as short or shorter
/// is, like it, a multiple of 0.01, and two of those cannot both be within
/// `v`'s rounding interval (under 10⁻⁸ wide below [`FAST_BELOW`]). Stroke
/// widths, font sizes and opacities are such values.
pub(crate) fn push_f64(out: &mut String, v: f64) {
    let n = (v.abs() * 100.0).round();
    if v.abs() < FAST_BELOW && n / 100.0 == v.abs() {
        let n = n as u64;
        let (n, decimals) = match (n % 100, n % 10) {
            (0, _) => (n / 100, 0),
            (_, 0) => (n / 10, 1),
            _ => (n, 2),
        };
        push_scaled(out, v.is_sign_negative(), n, decimals);
    } else {
        let _ = write!(out, "{v}");
    }
}
