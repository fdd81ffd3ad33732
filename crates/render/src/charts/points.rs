//! Point-cloud renderers: scatter, Q-Q, regression scatter, hexbin.

use crate::svg::Frame;
use crate::theme;

use super::bars::empty_chart;

fn bounds(points: &[(f64, f64)]) -> Option<((f64, f64), (f64, f64))> {
    if points.is_empty() {
        return None;
    }
    let mut x = (f64::INFINITY, f64::NEG_INFINITY);
    let mut y = (f64::INFINITY, f64::NEG_INFINITY);
    for &(px, py) in points {
        x = (x.0.min(px), x.1.max(px));
        y = (y.0.min(py), y.1.max(py));
    }
    Some((x, y))
}

/// Plain scatter plot; notes thinning in the title when `sampled`.
pub fn scatter(out: &mut String, title: &str, points: &[(f64, f64)], sampled: bool, w: usize, h: usize) {
    let Some((xb, yb)) = bounds(points) else {
        return empty_chart(out, title, w, h);
    };
    let full_title = if sampled {
        format!("{title} (sampled)")
    } else {
        title.to_string()
    };
    let mut f = Frame::new(out, w, h, &full_title, xb, yb);
    for &(x, y) in points {
        f.svg.circle(f.x.map(x), f.y.map(y), 2.0, theme::PRIMARY, 0.55);
    }
    f.finish();
}

/// Normal Q-Q plot with the reference diagonal.
pub fn qq_plot(out: &mut String, title: &str, points: &[(f64, f64)], w: usize, h: usize) {
    let Some((xb, yb)) = bounds(points) else {
        return empty_chart(out, title, w, h);
    };
    let lo = xb.0.min(yb.0);
    let hi = xb.1.max(yb.1);
    let mut f = Frame::new(out, w, h, title, (lo, hi), (lo, hi));
    f.svg.line(
        f.x.map(lo),
        f.y.map(lo),
        f.x.map(hi),
        f.y.map(hi),
        theme::SECONDARY,
        1.0,
    );
    for &(x, y) in points {
        f.svg.circle(f.x.map(x), f.y.map(y), 2.0, theme::PRIMARY, 0.7);
    }
    f.finish();
}

/// Scatter with a fitted regression line annotated with R².
#[allow(clippy::too_many_arguments)]
pub fn regression_scatter(
    out: &mut String,
    title: &str,
    points: &[(f64, f64)],
    slope: f64,
    intercept: f64,
    r2: f64,
    w: usize,
    h: usize,
) {
    let Some((xb, yb)) = bounds(points) else {
        return empty_chart(out, title, w, h);
    };
    let full = format!("{title} (R² = {r2:.3})");
    let mut f = Frame::new(out, w, h, &full, xb, yb);
    for &(x, y) in points {
        f.svg.circle(f.x.map(x), f.y.map(y), 2.0, theme::PRIMARY, 0.55);
    }
    let y_at = |x: f64| slope * x + intercept;
    f.svg.line(
        f.x.map(xb.0),
        f.y.map(y_at(xb.0)),
        f.x.map(xb.1),
        f.y.map(y_at(xb.1)),
        theme::HIGHLIGHT,
        1.5,
    );
    f.finish();
}

/// Hexbin plot: pointy-top hexagons shaded by count.
pub fn hexbin(
    out: &mut String,
    title: &str,
    centers: &[(f64, f64)],
    counts: &[u64],
    radius: f64,
    w: usize,
    h: usize,
) {
    let Some((xb, yb)) = bounds(centers) else {
        return empty_chart(out, title, w, h);
    };
    // Pad by one radius so edge hexagons stay inside the frame.
    let mut f = Frame::new(
        out,
        w,
        h,
        title,
        (xb.0 - radius, xb.1 + radius),
        (yb.0 - radius, yb.1 + radius),
    );
    let max = counts.iter().copied().max().unwrap_or(1) as f64;
    // Pixel radius: proportional to data-unit radius along x.
    let pr = (f.x.map(radius) - f.x.map(0.0)).abs().max(2.0);
    for (&(cx, cy), &c) in centers.iter().zip(counts) {
        let px = f.x.map(cx);
        let py = f.y.map(cy);
        let pts: [(f64, f64); 6] = std::array::from_fn(|k| {
            let a = std::f64::consts::FRAC_PI_6 + k as f64 * std::f64::consts::FRAC_PI_3;
            (px + pr * a.cos(), py + pr * a.sin())
        });
        f.svg.polygon(&pts, theme::sequential(c as f64 / max).as_str());
    }
    f.finish();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::svg::drawn;

    #[test]
    fn scatter_marks_points() {
        let pts = vec![(0.0, 0.0), (1.0, 2.0), (2.0, 1.0)];
        let svg = drawn(|out| scatter(out, "s", &pts, false, 300, 200));
        assert_eq!(svg.matches("<circle").count(), 3);
        assert!(!svg.contains("sampled"));
        let svg2 = drawn(|out| scatter(out, "s", &pts, true, 300, 200));
        assert!(svg2.contains("sampled"));
    }

    #[test]
    fn qq_has_diagonal() {
        let svg = drawn(|out| qq_plot(out, "q", &[(0.0, 0.1), (1.0, 0.9)], 300, 200));
        assert!(svg.matches("<circle").count() == 2);
        // Axes (2) + grid lines + diagonal: at least one extra line.
        assert!(svg.matches("<line").count() >= 3);
    }

    #[test]
    fn regression_line_annotated() {
        let svg = drawn(|out| regression_scatter(out, "r", &[(0.0, 1.0), (1.0, 3.0)], 2.0, 1.0, 0.987, 300, 200));
        assert!(svg.contains("R² = 0.987"));
    }

    #[test]
    fn hexbin_draws_hexagons() {
        let svg = drawn(|out| hexbin(out, "h", &[(0.0, 0.0), (1.0, 0.5)], &[1, 5], 0.3, 300, 200));
        assert_eq!(svg.matches("<polygon").count(), 2);
    }

    #[test]
    fn empty_inputs() {
        assert!(drawn(|out| scatter(out, "s", &[], false, 300, 200)).contains("no data"));
        assert!(drawn(|out| hexbin(out, "h", &[], &[], 1.0, 300, 200)).contains("no data"));
    }
}
