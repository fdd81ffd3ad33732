//! Curve renderers: KDE, generic lines, multi-line charts.

use crate::svg::{push_clipped, Frame};
use crate::theme;

use super::bars::empty_chart;

/// KDE density curve with a filled area.
pub fn kde(out: &mut String, title: &str, xs: &[f64], ys: &[f64], w: usize, h: usize) {
    if xs.len() < 2 || xs.len() != ys.len() {
        return empty_chart(out, title, w, h);
    }
    let ymax = ys.iter().copied().fold(0.0f64, f64::max);
    let mut f = Frame::new(
        out,
        w,
        h,
        title,
        (xs[0], *xs.last().expect("non-empty")),
        (0.0, ymax.max(f64::MIN_POSITIVE)),
    );
    let mut area: Vec<(f64, f64)> = Vec::with_capacity(xs.len() + 2);
    area.push((f.x.map(xs[0]), f.y.map(0.0)));
    for (x, y) in xs.iter().zip(ys) {
        area.push((f.x.map(*x), f.y.map(*y)));
    }
    area.push((f.x.map(*xs.last().expect("non-empty")), f.y.map(0.0)));
    f.svg.polygon(&area, "rgba(76,120,168,0.25)");
    let line: Vec<(f64, f64)> = xs
        .iter()
        .zip(ys)
        .map(|(x, y)| (f.x.map(*x), f.y.map(*y)))
        .collect();
    f.svg.polyline(&line, theme::PRIMARY, 1.5);
    f.finish();
}

/// A single line (PDF/CDF curves).
pub fn line(out: &mut String, title: &str, xs: &[f64], ys: &[f64], w: usize, h: usize) {
    if xs.len() < 2 || xs.len() != ys.len() {
        return empty_chart(out, title, w, h);
    }
    let (ymin, ymax) = ys
        .iter()
        .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), &v| {
            (lo.min(v), hi.max(v))
        });
    let mut f = Frame::new(
        out,
        w,
        h,
        title,
        (xs[0], *xs.last().expect("non-empty")),
        (ymin.min(0.0), ymax),
    );
    let pts: Vec<(f64, f64)> = xs
        .iter()
        .zip(ys)
        .map(|(x, y)| (f.x.map(*x), f.y.map(*y)))
        .collect();
    f.svg.polyline(&pts, theme::PRIMARY, 1.5);
    f.finish();
}

/// Violin plot: the KDE profile mirrored around a vertical axis.
pub fn violin(out: &mut String, title: &str, ys: &[f64], densities: &[f64], w: usize, h: usize) {
    if ys.len() < 2 || ys.len() != densities.len() {
        return empty_chart(out, title, w, h);
    }
    let dmax = densities.iter().copied().fold(0.0f64, f64::max);
    if dmax <= 0.0 {
        return empty_chart(out, title, w, h);
    }
    let mut f = Frame::new(
        out,
        w,
        h,
        title,
        (-dmax, dmax),
        (ys[0], *ys.last().expect("non-empty")),
    );
    let mut outline: Vec<(f64, f64)> = Vec::with_capacity(ys.len() * 2);
    // Right profile top-to-bottom, then left profile bottom-to-top.
    for (y, d) in ys.iter().zip(densities) {
        outline.push((f.x.map(*d), f.y.map(*y)));
    }
    for (y, d) in ys.iter().zip(densities).rev() {
        outline.push((f.x.map(-*d), f.y.map(*y)));
    }
    f.svg.polygon(&outline, "rgba(76,120,168,0.45)");
    // Center spine.
    let cx = f.x.map(0.0);
    f.svg.line(cx, f.y.map(ys[0]), cx, f.y.map(*ys.last().expect("non-empty")), theme::PRIMARY, 1.0);
    f.finish();
}

/// One line per category over shared x positions, with a legend.
pub fn multi_line(
    out: &mut String,
    title: &str,
    xs: &[f64],
    series: &[(String, Vec<u64>)],
    w: usize,
    h: usize,
) {
    if xs.len() < 2 || series.is_empty() {
        return empty_chart(out, title, w, h);
    }
    let ymax = series
        .iter()
        .flat_map(|(_, v)| v.iter().copied())
        .max()
        .unwrap_or(1) as f64;
    let mut f = Frame::new(
        out,
        w,
        h,
        title,
        (xs[0], *xs.last().expect("non-empty")),
        (0.0, ymax),
    );
    let (_, top, right, _) = f.plot_area();
    for (si, (name, values)) in series.iter().enumerate() {
        let pts: Vec<(f64, f64)> = xs
            .iter()
            .zip(values)
            .map(|(x, y)| (f.x.map(*x), f.y.map(*y as f64)))
            .collect();
        f.svg.polyline(&pts, theme::series_color(si), 1.5);
        let ly = top + 6.0 + 13.0 * si as f64;
        f.svg.rect(right - 90.0, ly - 8.0, 9.0, 9.0, theme::series_color(si));
        f.svg.text_with(right - 77.0, ly, 9.0, "start", theme::TEXT, |out| push_clipped(out, name, 12));
    }
    f.finish();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::svg::drawn;

    #[test]
    fn kde_has_area_and_line() {
        let xs: Vec<f64> = (0..20).map(|i| i as f64).collect();
        let ys: Vec<f64> = xs.iter().map(|x| (-(x - 10.0).powi(2) / 20.0).exp()).collect();
        let svg = drawn(|out| kde(out, "k", &xs, &ys, 300, 200));
        assert!(svg.contains("<polygon"));
        assert!(svg.contains("<path"));
    }

    #[test]
    fn kde_degenerate() {
        assert!(drawn(|out| kde(out, "k", &[], &[], 300, 200)).contains("no data"));
        assert!(drawn(|out| kde(out, "k", &[1.0], &[1.0], 300, 200)).contains("no data"));
    }

    #[test]
    fn line_spans_range() {
        let svg = drawn(|out| line(out, "cdf", &[0.0, 1.0, 2.0], &[0.2, 0.7, 1.0], 300, 200));
        assert!(svg.contains("<path"));
    }

    #[test]
    fn violin_mirrors_profile() {
        let ys: Vec<f64> = (0..20).map(|i| i as f64).collect();
        let ds: Vec<f64> = ys.iter().map(|y| (-(y - 10.0).powi(2) / 20.0).exp()).collect();
        let svg = drawn(|out| violin(out, "v", &ys, &ds, 300, 200));
        assert!(svg.contains("<polygon"));
        assert!(svg.contains("<line"));
    }

    #[test]
    fn violin_degenerate() {
        assert!(drawn(|out| violin(out, "v", &[], &[], 300, 200)).contains("no data"));
        assert!(drawn(|out| violin(out, "v", &[1.0, 2.0], &[0.0, 0.0], 300, 200)).contains("no data"));
    }

    #[test]
    fn multi_line_legend() {
        let series = [("alpha".to_string(), vec![1, 2, 3]), ("beta".to_string(), vec![3, 2, 1])];
        let svg = drawn(|out| multi_line(out, "m", &[0.0, 1.0, 2.0], &series, 300, 200));
        assert!(svg.contains("alpha"));
        assert!(svg.contains("beta"));
        assert_eq!(svg.matches("<path").count(), 2);
    }
}
