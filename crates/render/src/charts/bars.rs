//! Bar-family renderers: histogram, bar chart, pie chart, grouped/stacked
//! bars.

use crate::num::push_fixed;
use crate::scale::BandScale;
use crate::svg::{push_clipped, Frame, Svg};
use crate::theme;

/// Placeholder for charts whose data is degenerate.
pub(crate) fn empty_chart(out: &mut String, title: &str, w: usize, h: usize) {
    let mut svg = Svg::new(out, w, h);
    svg.text(w as f64 / 2.0, 16.0, title, 12.0, "middle", theme::TEXT);
    svg.text(w as f64 / 2.0, h as f64 / 2.0, "no data", 11.0, "middle", theme::AXIS);
    svg.finish();
}

/// Histogram bars over numeric bin edges.
pub fn histogram(out: &mut String, title: &str, edges: &[f64], counts: &[u64], w: usize, h: usize) {
    if counts.is_empty() || edges.len() != counts.len() + 1 {
        return empty_chart(out, title, w, h);
    }
    let max = counts.iter().copied().max().unwrap_or(0) as f64;
    let mut f = Frame::new(
        out,
        w,
        h,
        title,
        (edges[0], *edges.last().expect("non-empty")),
        (0.0, max.max(1.0)),
    );
    let y0 = f.y.map(0.0);
    for (i, &c) in counts.iter().enumerate() {
        let x0 = f.x.map(edges[i]);
        let x1 = f.x.map(edges[i + 1]);
        let y = f.y.map(c as f64);
        f.svg
            .rect(x0, y, (x1 - x0 - 0.5).max(0.5), (y0 - y).max(0.0), theme::PRIMARY);
    }
    f.finish();
}

/// Vertical bar chart over categories (descending counts + "Other").
#[allow(clippy::too_many_arguments)]
pub fn bar_chart(
    out: &mut String,
    title: &str,
    categories: &[String],
    counts: &[u64],
    other: u64,
    total_distinct: usize,
    w: usize,
    h: usize,
) {
    if categories.is_empty() {
        return empty_chart(out, title, w, h);
    }
    let other_label = format!("Other ({})", total_distinct.saturating_sub(categories.len()));
    let bars = || {
        let shown = categories.iter().map(String::as_str).zip(counts.iter().copied());
        shown.chain((other > 0).then_some((other_label.as_str(), other)))
    };
    let max = bars().map(|(_, v)| v).max().unwrap_or(1) as f64;
    let mut f = Frame::new(out, w, h, title, (0.0, 1.0), (0.0, max));
    let (left, _, right, bottom) = f.plot_area();
    let band = BandScale::new(bars().count(), left, right, 0.2);
    let y0 = f.y.map(0.0);
    for (i, (label, v)) in bars().enumerate() {
        let color = if label.starts_with("Other (") {
            theme::AXIS
        } else {
            theme::PRIMARY
        };
        let y = f.y.map(v as f64);
        f.svg.rect(band.position(i), y, band.bandwidth(), (y0 - y).max(0.0), color);
        f.svg.text_with(band.center(i), bottom + 14.0, 9.0, "middle", theme::TEXT, |out| {
            push_clipped(out, label, 12);
        });
    }
    f.finish();
}

/// Pie chart of category fractions; the remainder renders as "Other".
pub fn pie_chart(
    out: &mut String,
    title: &str,
    categories: &[String],
    fractions: &[f64],
    w: usize,
    h: usize,
) {
    if categories.is_empty() {
        return empty_chart(out, title, w, h);
    }
    let mut svg = Svg::new(out, w, h);
    svg.text(w as f64 / 2.0, 16.0, title, 12.0, "middle", theme::TEXT);
    let cx = w as f64 * 0.38;
    let cy = h as f64 / 2.0 + 8.0;
    let r = (w as f64 * 0.3).min(h as f64 * 0.36);

    let covered: f64 = fractions.iter().sum();
    let slices = categories
        .iter()
        .map(String::as_str)
        .zip(fractions.iter().copied())
        .chain((covered < 1.0 - 1e-9).then_some(("Other", 1.0 - covered)));

    let mut angle = -std::f64::consts::FRAC_PI_2;
    for (i, (label, frac)) in slices.enumerate() {
        let sweep = frac * std::f64::consts::TAU;
        let end = angle + sweep;
        // Approximate each slice as a polygon fan (robust for any sweep).
        let steps = ((sweep / 0.2).ceil() as usize).max(2);
        let mut pts = vec![(cx, cy)];
        for s in 0..=steps {
            let a = angle + sweep * s as f64 / steps as f64;
            pts.push((cx + r * a.cos(), cy + r * a.sin()));
        }
        svg.polygon(&pts, theme::series_color(i));
        // Legend.
        let ly = 34.0 + 14.0 * i as f64;
        svg.rect(w as f64 * 0.72, ly - 8.0, 9.0, 9.0, theme::series_color(i));
        svg.text_with(w as f64 * 0.72 + 13.0, ly, 9.0, "start", theme::TEXT, |out| {
            push_clipped(out, label, 14);
            out.push_str(" (");
            push_fixed(out, frac * 100.0, 1);
            out.push_str("%)");
        });
        angle = end;
    }
    svg.finish();
}

/// Grouped (nested) or stacked bars over categorical x with labelled
/// series.
pub fn grouped_bars(
    out: &mut String,
    title: &str,
    xlabels: &[String],
    series: &[(String, Vec<u64>)],
    stacked: bool,
    w: usize,
    h: usize,
) {
    if xlabels.is_empty() || series.is_empty() {
        return empty_chart(out, title, w, h);
    }
    let max = if stacked {
        (0..xlabels.len())
            .map(|i| series.iter().map(|(_, v)| v.get(i).copied().unwrap_or(0)).sum::<u64>())
            .max()
            .unwrap_or(1)
    } else {
        series
            .iter()
            .flat_map(|(_, v)| v.iter().copied())
            .max()
            .unwrap_or(1)
    };
    let mut f = Frame::new(out, w, h, title, (0.0, 1.0), (0.0, max as f64));
    let (left, top, right, bottom) = f.plot_area();
    let band = BandScale::new(xlabels.len(), left, right, 0.25);
    let y0 = f.y.map(0.0);

    for (i, xl) in xlabels.iter().enumerate() {
        if stacked {
            let mut acc = 0u64;
            for (si, (_, values)) in series.iter().enumerate() {
                let v = values.get(i).copied().unwrap_or(0);
                let y_top = f.y.map((acc + v) as f64);
                let y_bot = f.y.map(acc as f64);
                f.svg.rect(
                    band.position(i),
                    y_top,
                    band.bandwidth(),
                    (y_bot - y_top).max(0.0),
                    theme::series_color(si),
                );
                acc += v;
            }
        } else {
            let inner = BandScale::new(
                series.len(),
                band.position(i),
                band.position(i) + band.bandwidth(),
                0.1,
            );
            for (si, (_, values)) in series.iter().enumerate() {
                let v = values.get(i).copied().unwrap_or(0);
                let y = f.y.map(v as f64);
                f.svg.rect(
                    inner.position(si),
                    y,
                    inner.bandwidth(),
                    (y0 - y).max(0.0),
                    theme::series_color(si),
                );
            }
        }
        f.svg.text_with(band.center(i), bottom + 14.0, 9.0, "middle", theme::TEXT, |out| {
            push_clipped(out, xl, 10);
        });
    }
    // Legend.
    for (si, (name, _)) in series.iter().enumerate() {
        let lx = right - 90.0;
        let ly = top + 6.0 + 13.0 * si as f64;
        f.svg.rect(lx, ly - 8.0, 9.0, 9.0, theme::series_color(si));
        f.svg.text_with(lx + 13.0, ly, 9.0, "start", theme::TEXT, |out| push_clipped(out, name, 12));
    }
    f.finish();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::svg::drawn;

    #[test]
    fn histogram_draws_one_rect_per_bin() {
        let svg = drawn(|out| histogram(out, "h", &[0.0, 1.0, 2.0, 3.0], &[1, 5, 2], 300, 200));
        assert_eq!(svg.matches("<rect").count(), 3);
    }

    #[test]
    fn histogram_bad_shape_is_placeholder() {
        assert!(drawn(|out| histogram(out, "h", &[0.0, 1.0], &[1, 2], 300, 200)).contains("no data"));
    }

    #[test]
    fn bar_chart_adds_other_bucket() {
        let svg = drawn(|out| bar_chart(out, "b", &["a".into(), "b".into()], &[10, 5], 7, 9, 300, 200));
        assert!(svg.contains("Other (7)"));
        assert_eq!(svg.matches("<rect").count(), 3);
    }

    #[test]
    fn pie_adds_other_slice_and_legend() {
        let svg = drawn(|out| pie_chart(out, "p", &["a".into()], &[0.6], 300, 200));
        assert!(svg.contains("Other"));
        assert!(svg.contains("60.0%"));
        assert!(svg.matches("<polygon").count() == 2);
    }

    #[test]
    fn grouped_vs_stacked_rect_counts() {
        let series = vec![("s1".to_string(), vec![1, 2]), ("s2".to_string(), vec![3, 4])];
        let xl = vec!["a".to_string(), "b".to_string()];
        let nested = drawn(|out| grouped_bars(out, "n", &xl, &series, false, 300, 200));
        let stacked = drawn(|out| grouped_bars(out, "s", &xl, &series, true, 300, 200));
        // 4 data rects + 2 legend swatches each.
        assert_eq!(nested.matches("<rect").count(), 6);
        assert_eq!(stacked.matches("<rect").count(), 6);
    }

    #[test]
    fn truncate_labels() {
        let truncate = |s, max| drawn(|out| push_clipped(out, s, max));
        assert_eq!(truncate("short", 10), "short");
        assert_eq!(truncate("a very long label", 8), "a very …");
        // Characters are counted, not bytes, and what is kept is escaped.
        assert_eq!(truncate("ünïcödé<&>", 9), "ünïcödé&lt;…");
        assert_eq!(truncate("ab", 0), "…");
    }
}
