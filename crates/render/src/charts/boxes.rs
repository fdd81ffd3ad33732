//! Box-plot renderer (single, binned, and categorical variants share it).

use eda_stats::quantile::BoxPlot;

use crate::scale::BandScale;
use crate::svg::{push_clipped, Frame};
use crate::theme;

use super::bars::empty_chart;

/// Vertical box plots, one per labelled group.
pub fn box_plot(out: &mut String, title: &str, boxes: &[(String, BoxPlot)], w: usize, h: usize) {
    if boxes.is_empty() {
        return empty_chart(out, title, w, h);
    }
    let mut lo = f64::INFINITY;
    let mut hi = f64::NEG_INFINITY;
    for (_, b) in boxes {
        lo = lo.min(b.whisker_low).min(b.outliers.iter().copied().fold(f64::INFINITY, f64::min));
        hi = hi
            .max(b.whisker_high)
            .max(b.outliers.iter().copied().fold(f64::NEG_INFINITY, f64::max));
    }
    if !lo.is_finite() || !hi.is_finite() {
        // No outliers at all: fall back to whiskers only.
        lo = boxes.iter().map(|(_, b)| b.whisker_low).fold(f64::INFINITY, f64::min);
        hi = boxes.iter().map(|(_, b)| b.whisker_high).fold(f64::NEG_INFINITY, f64::max);
    }
    let mut f = Frame::new(out, w, h, title, (0.0, 1.0), (lo, hi));
    let (left, _, right, bottom) = f.plot_area();
    let band = BandScale::new(boxes.len(), left, right, 0.35);

    for (i, (label, b)) in boxes.iter().enumerate() {
        let x = band.position(i);
        let bw = band.bandwidth();
        let cx = x + bw / 2.0;
        // Whisker stems.
        f.svg.line(cx, f.y.map(b.whisker_low), cx, f.y.map(b.q1), theme::AXIS, 1.0);
        f.svg.line(cx, f.y.map(b.q3), cx, f.y.map(b.whisker_high), theme::AXIS, 1.0);
        // Whisker caps.
        for v in [b.whisker_low, b.whisker_high] {
            let y = f.y.map(v);
            f.svg.line(cx - bw * 0.25, y, cx + bw * 0.25, y, theme::AXIS, 1.0);
        }
        // IQR box.
        let y_q3 = f.y.map(b.q3);
        let y_q1 = f.y.map(b.q1);
        f.svg
            .rect_outlined(x, y_q3, bw, (y_q1 - y_q3).max(1.0), "rgba(76,120,168,0.35)", theme::PRIMARY);
        // Median line.
        let ym = f.y.map(b.median);
        f.svg.line(x, ym, x + bw, ym, theme::PRIMARY, 2.0);
        // Outliers.
        for &o in &b.outliers {
            f.svg.circle(cx, f.y.map(o), 2.0, theme::HIGHLIGHT, 0.7);
        }
        f.svg.text_with(cx, bottom + 14.0, 9.0, "middle", theme::TEXT, |out| push_clipped(out, label, 10));
    }
    f.finish();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::svg::drawn;

    fn bp(values: &[f64]) -> BoxPlot {
        BoxPlot::from_values(values, 10).expect("non-empty")
    }

    #[test]
    fn single_box_structure() {
        let svg = drawn(|out| box_plot(out, "b", &[("x".into(), bp(&[1.0, 2.0, 3.0, 4.0, 5.0]))], 300, 200));
        // IQR box rect.
        assert!(svg.contains("<rect"));
        // Median + whiskers + caps.
        assert!(svg.matches("<line").count() >= 5);
        assert!(svg.contains(">x<"));
    }

    #[test]
    fn outliers_rendered_as_circles() {
        let mut vals: Vec<f64> = (0..50).map(|i| i as f64 % 5.0).collect();
        vals.push(500.0);
        let svg = drawn(|out| box_plot(out, "b", &[("x".into(), bp(&vals))], 300, 200));
        assert!(svg.matches("<circle").count() >= 1);
    }

    #[test]
    fn multiple_groups() {
        let boxes = vec![
            ("g1".to_string(), bp(&[1.0, 2.0, 3.0])),
            ("g2".to_string(), bp(&[10.0, 20.0, 30.0])),
        ];
        let svg = drawn(|out| box_plot(out, "b", &boxes, 300, 200));
        assert!(svg.contains("g1"));
        assert!(svg.contains("g2"));
        assert_eq!(svg.matches("<rect").count(), 2);
    }

    #[test]
    fn empty_is_placeholder() {
        assert!(drawn(|out| box_plot(out, "b", &[], 300, 200)).contains("no data"));
    }
}
