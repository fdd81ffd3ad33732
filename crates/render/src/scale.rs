//! Coordinate scales and tick generation.

use crate::num::push_fixed;

/// Maps a numeric domain onto a pixel range.
#[derive(Debug, Clone, PartialEq)]
pub struct LinearScale {
    /// Domain minimum.
    pub d0: f64,
    /// Domain maximum.
    pub d1: f64,
    /// Range start (pixels).
    pub r0: f64,
    /// Range end (pixels).
    pub r1: f64,
}

impl LinearScale {
    /// A scale over `[d0, d1] → [r0, r1]`. Degenerate domains are padded
    /// so every input maps to the range midpoint.
    pub fn new(d0: f64, d1: f64, r0: f64, r1: f64) -> LinearScale {
        let (d0, d1) = if !(d0.is_finite() && d1.is_finite()) {
            (0.0, 1.0)
        } else if d0 == d1 {
            (d0 - 0.5, d1 + 0.5)
        } else {
            (d0, d1)
        };
        LinearScale { d0, d1, r0, r1 }
    }

    /// Map a domain value to pixels.
    pub fn map(&self, v: f64) -> f64 {
        let t = (v - self.d0) / (self.d1 - self.d0);
        self.r0 + t * (self.r1 - self.r0)
    }

    /// "Nice" tick positions covering the domain (d3-style).
    pub fn ticks(&self, count: usize) -> Vec<f64> {
        nice_ticks(self.d0.min(self.d1), self.d0.max(self.d1), count)
    }
}

/// Evenly spaced tick positions at a "nice" step (1/2/5 × 10^k).
pub fn nice_ticks(lo: f64, hi: f64, count: usize) -> Vec<f64> {
    if !(lo.is_finite() && hi.is_finite()) || lo >= hi || count == 0 {
        return vec![lo];
    }
    let span = hi - lo;
    let raw_step = span / count as f64;
    let mag = 10f64.powf(raw_step.log10().floor());
    let norm = raw_step / mag;
    let step = if norm < 1.5 {
        mag
    } else if norm < 3.5 {
        2.0 * mag
    } else if norm < 7.5 {
        5.0 * mag
    } else {
        10.0 * mag
    };
    let start = (lo / step).ceil() * step;
    let mut ticks = Vec::new();
    let mut t = start;
    while t <= hi + step * 1e-9 {
        // Snap tiny float error to zero.
        ticks.push(if t.abs() < step * 1e-9 { 0.0 } else { t });
        t += step;
    }
    if ticks.is_empty() {
        ticks.push(lo);
    }
    ticks
}

/// Append the compact tick label of `v` (strips float noise, abbreviates
/// thousands).
pub fn push_tick_label(out: &mut String, v: f64) {
    let a = v.abs();
    let (scaled, decimals, unit) = if !v.is_finite() {
        // `NaN`, `inf`: the formatter's spelling, whatever the precision.
        (v, 0, "")
    } else if a >= 1_000_000_000.0 {
        (v / 1e9, 1, "B")
    } else if a >= 1_000_000.0 {
        (v / 1e6, 1, "M")
    } else if a >= 10_000.0 {
        (v / 1e3, 0, "K")
    } else if v.fract() == 0.0 {
        (v, 0, "")
    } else if a >= 1.0 {
        (v, 2, "")
    } else {
        (v, 3, "")
    };
    push_fixed(out, scaled, decimals);
    out.push_str(unit);
}

/// Maps categories onto evenly spaced bands.
#[derive(Debug, Clone)]
pub struct BandScale {
    n: usize,
    r0: f64,
    r1: f64,
    padding: f64,
}

impl BandScale {
    /// A band scale for `n` categories over `[r0, r1]` with fractional
    /// padding between bands.
    pub fn new(n: usize, r0: f64, r1: f64, padding: f64) -> BandScale {
        BandScale { n: n.max(1), r0, r1, padding: padding.clamp(0.0, 0.9) }
    }

    /// Width of one band.
    pub fn bandwidth(&self) -> f64 {
        let step = (self.r1 - self.r0) / self.n as f64;
        step * (1.0 - self.padding)
    }

    /// Left edge of band `i`.
    pub fn position(&self, i: usize) -> f64 {
        let step = (self.r1 - self.r0) / self.n as f64;
        self.r0 + step * i as f64 + step * self.padding / 2.0
    }

    /// Center of band `i`.
    pub fn center(&self, i: usize) -> f64 {
        self.position(i) + self.bandwidth() / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn linear_maps_endpoints() {
        let s = LinearScale::new(0.0, 10.0, 0.0, 100.0);
        assert_eq!(s.map(0.0), 0.0);
        assert_eq!(s.map(10.0), 100.0);
        assert_eq!(s.map(5.0), 50.0);
    }

    #[test]
    fn linear_inverted_range() {
        // SVG y-axes grow downward: range is inverted.
        let s = LinearScale::new(0.0, 10.0, 100.0, 0.0);
        assert_eq!(s.map(0.0), 100.0);
        assert_eq!(s.map(10.0), 0.0);
    }

    #[test]
    fn degenerate_domain_maps_to_midpoint() {
        let s = LinearScale::new(5.0, 5.0, 0.0, 100.0);
        assert_eq!(s.map(5.0), 50.0);
        let nan = LinearScale::new(f64::NAN, 1.0, 0.0, 10.0);
        assert!(nan.map(0.5).is_finite());
    }

    #[test]
    fn ticks_are_nice_and_cover() {
        let t = nice_ticks(0.0, 100.0, 5);
        assert_eq!(t, vec![0.0, 20.0, 40.0, 60.0, 80.0, 100.0]);
        let t = nice_ticks(0.13, 0.87, 4);
        assert!(t.len() >= 3);
        assert!(t.windows(2).all(|w| w[1] > w[0]));
        assert!(t[0] >= 0.13 && *t.last().unwrap() <= 0.87 + 1e-12);
    }

    #[test]
    fn ticks_degenerate() {
        assert_eq!(nice_ticks(3.0, 3.0, 5), vec![3.0]);
        assert_eq!(nice_ticks(5.0, 1.0, 5), vec![5.0]);
    }

    #[test]
    fn tick_labels() {
        let tick_label = |v| crate::svg::drawn(|out| push_tick_label(out, v));
        assert_eq!(tick_label(5.0), "5");
        assert_eq!(tick_label(1500000.0), "1.5M");
        assert_eq!(tick_label(-2.5e9), "-2.5B");
        assert_eq!(tick_label(25000.0), "25K");
        assert_eq!(tick_label(0.123), "0.123");
        assert_eq!(tick_label(2.5), "2.50");
        assert_eq!(tick_label(f64::NAN), "NaN");
        assert_eq!(tick_label(f64::NEG_INFINITY), "-inf");
    }

    #[test]
    fn band_scale_layout() {
        let b = BandScale::new(4, 0.0, 100.0, 0.2);
        assert!((b.bandwidth() - 20.0).abs() < 1e-9);
        assert!((b.position(0) - 2.5).abs() < 1e-9);
        assert!((b.position(3) - 77.5).abs() < 1e-9);
        assert!(b.center(1) > b.position(1));
    }

    #[test]
    fn band_scale_single_category() {
        let b = BandScale::new(0, 0.0, 10.0, 0.1);
        assert!(b.bandwidth() > 0.0);
    }
}
