//! Missing-value visualizations: per-column bars, spectrum, dendrogram,
//! and the before/after comparison charts of the impact panels.

use eda_stats::missing::{DendrogramMerge, MissingSpectrum, MissingSummary};

use crate::num::{push_fixed, push_uint};
use crate::scale::BandScale;
use crate::svg::{push_clipped, Frame, Svg};
use crate::theme;

use super::bars::empty_chart;

/// Per-column missing-rate bars.
pub fn missing_bars(out: &mut String, title: &str, bars: &[MissingSummary], w: usize, h: usize) {
    if bars.is_empty() {
        return empty_chart(out, title, w, h);
    }
    let mut f = Frame::new(out, w, h, title, (0.0, 1.0), (0.0, 100.0));
    let (left, _, right, bottom) = f.plot_area();
    let band = BandScale::new(bars.len(), left, right, 0.25);
    let y0 = f.y.map(0.0);
    for (i, b) in bars.iter().enumerate() {
        let pct = b.rate() * 100.0;
        let y = f.y.map(pct);
        f.svg
            .rect(band.position(i), y, band.bandwidth(), (y0 - y).max(0.0), theme::HIGHLIGHT);
        f.svg.text_with(band.center(i), bottom + 14.0, 9.0, "middle", theme::TEXT, |out| {
            push_clipped(out, &b.label, 9);
        });
        f.svg.text_with(band.center(i), y - 3.0, 8.0, "middle", theme::TEXT, |out| {
            push_fixed(out, pct, 1);
            out.push('%');
        });
    }
    f.finish();
}

/// The missing spectrum: rows of row-range bins, one column of cells per
/// dataframe column, shaded by missing density.
pub fn spectrum(out: &mut String, title: &str, s: &MissingSpectrum, w: usize, h: usize) {
    if s.labels.is_empty() || s.counts.is_empty() {
        return empty_chart(out, title, w, h);
    }
    let mut svg = Svg::new(out, w, h);
    svg.text(w as f64 / 2.0, 16.0, title, 12.0, "middle", theme::TEXT);
    let left = 70.0;
    let top = 28.0;
    let right = w as f64 - 12.0;
    let bottom = h as f64 - 30.0;
    let cw = (right - left) / s.labels.len() as f64;
    let ch = (bottom - top) / s.counts.len() as f64;
    for (r, (range, row)) in s.row_ranges.iter().zip(&s.counts).enumerate() {
        let bin_rows = (range.1 - range.0).max(1) as f64;
        for (c, &nulls) in row.iter().enumerate() {
            let density = nulls as f64 / bin_rows;
            svg.rect(
                left + cw * c as f64,
                top + ch * r as f64,
                cw - 1.0,
                ch.max(1.0) - 0.5,
                theme::sequential(density).as_str(),
            );
        }
        if r == 0 || r + 1 == s.counts.len() {
            svg.text_with(left - 5.0, top + ch * (r as f64 + 0.7), 8.0, "end", theme::TEXT, |out| {
                push_uint(out, range.0 as u64);
            });
        }
    }
    for (c, label) in s.labels.iter().enumerate() {
        let x = left + cw * (c as f64 + 0.5);
        svg.text_with(x, bottom + 12.0, 9.0, "middle", theme::TEXT, |out| push_clipped(out, label, 9));
    }
    svg.finish();
}

/// Nullity dendrogram (SciPy linkage convention: leaves `0..m`, merge `k`
/// creates id `m + k`).
pub fn dendrogram(
    out: &mut String,
    title: &str,
    labels: &[String],
    merges: &[DendrogramMerge],
    w: usize,
    h: usize,
) {
    let m = labels.len();
    if m < 2 || merges.is_empty() {
        return empty_chart(out, title, w, h);
    }
    let mut svg = Svg::new(out, w, h);
    svg.text(w as f64 / 2.0, 16.0, title, 12.0, "middle", theme::TEXT);
    let left = 16.0;
    let top = 30.0;
    let right = w as f64 - 12.0;
    let bottom = h as f64 - 34.0;

    // Leaf x positions, evenly spread.
    let band = BandScale::new(m, left, right, 0.1);
    let max_dist = merges
        .iter()
        .map(|mg| mg.distance)
        .fold(0.0f64, f64::max)
        .max(f64::MIN_POSITIVE);
    let y_of = |d: f64| bottom - (d / max_dist) * (bottom - top);

    // Position of each cluster id: leaves at distance 0, merges above.
    let mut pos: Vec<(f64, f64)> = (0..m).map(|i| (band.center(i), bottom)).collect();
    for mg in merges {
        let (x1, y1) = pos[mg.left];
        let (x2, y2) = pos[mg.right];
        let y = y_of(mg.distance);
        // U-shaped link.
        svg.line(x1, y1, x1, y, theme::PRIMARY, 1.2);
        svg.line(x2, y2, x2, y, theme::PRIMARY, 1.2);
        svg.line(x1, y, x2, y, theme::PRIMARY, 1.2);
        pos.push(((x1 + x2) / 2.0, y));
    }
    for (i, label) in labels.iter().enumerate() {
        svg.text_with(band.center(i), bottom + 14.0, 9.0, "middle", theme::TEXT, |out| {
            push_clipped(out, label, 9);
        });
    }
    svg.finish();
}

/// Overlaid before/after histograms (shared edges).
pub fn compare_histogram(
    out: &mut String,
    title: &str,
    edges: &[f64],
    before: &[u64],
    after: &[u64],
    w: usize,
    h: usize,
) {
    if before.is_empty() || edges.len() != before.len() + 1 {
        return empty_chart(out, title, w, h);
    }
    let max = before.iter().chain(after).copied().max().unwrap_or(1) as f64;
    let mut f = Frame::new(
        out,
        w,
        h,
        title,
        (edges[0], *edges.last().expect("non-empty")),
        (0.0, max),
    );
    let y0 = f.y.map(0.0);
    for (i, (&b, &a)) in before.iter().zip(after).enumerate() {
        let x0 = f.x.map(edges[i]);
        let x1 = f.x.map(edges[i + 1]);
        let width = (x1 - x0 - 0.5).max(0.5);
        let yb = f.y.map(b as f64);
        f.svg.rect(x0, yb, width, (y0 - yb).max(0.0), "rgba(76,120,168,0.45)");
        let ya = f.y.map(a as f64);
        f.svg.rect(x0, ya, width, (y0 - ya).max(0.0), "rgba(245,133,24,0.55)");
    }
    legend(&mut f);
    f.finish();
}

/// Side-by-side before/after category bars.
pub fn compare_bars(
    out: &mut String,
    title: &str,
    categories: &[String],
    before: &[u64],
    after: &[u64],
    w: usize,
    h: usize,
) {
    if categories.is_empty() {
        return empty_chart(out, title, w, h);
    }
    let max = before.iter().chain(after).copied().max().unwrap_or(1) as f64;
    let mut f = Frame::new(out, w, h, title, (0.0, 1.0), (0.0, max));
    let (left, _, right, bottom) = f.plot_area();
    let band = BandScale::new(categories.len(), left, right, 0.3);
    let y0 = f.y.map(0.0);
    for (i, cat) in categories.iter().enumerate() {
        let half = band.bandwidth() / 2.0;
        let yb = f.y.map(before.get(i).copied().unwrap_or(0) as f64);
        f.svg.rect(band.position(i), yb, half, (y0 - yb).max(0.0), theme::PRIMARY);
        let ya = f.y.map(after.get(i).copied().unwrap_or(0) as f64);
        f.svg
            .rect(band.position(i) + half, ya, half, (y0 - ya).max(0.0), theme::SECONDARY);
        f.svg.text_with(band.center(i), bottom + 14.0, 9.0, "middle", theme::TEXT, |out| {
            push_clipped(out, cat, 9);
        });
    }
    legend(&mut f);
    f.finish();
}

/// A before/after legend in the top-right corner.
fn legend(f: &mut Frame<'_>) {
    let (_, top, right, _) = f.plot_area();
    for (i, (name, color)) in [("before", theme::PRIMARY), ("after", theme::SECONDARY)]
        .iter()
        .enumerate()
    {
        let y = top + 6.0 + 13.0 * i as f64;
        f.svg.rect(right - 70.0, y - 8.0, 9.0, 9.0, color);
        f.svg.text(right - 57.0, y, name, 9.0, "start", theme::TEXT);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::svg::drawn;

    #[test]
    fn missing_bars_show_percentages() {
        let bars = vec![
            MissingSummary { label: "a".into(), nulls: 25, total: 100 },
            MissingSummary { label: "b".into(), nulls: 0, total: 100 },
        ];
        let svg = drawn(|out| missing_bars(out, "m", &bars, 300, 200));
        assert!(svg.contains("25.0%"));
        assert!(svg.contains("0.0%"));
    }

    #[test]
    fn spectrum_cell_count() {
        let s = MissingSpectrum {
            labels: vec!["a".into(), "b".into()],
            row_ranges: vec![(0, 5), (5, 10)],
            counts: vec![vec![1, 0], vec![0, 3]],
        };
        let svg = drawn(|out| spectrum(out, "s", &s, 300, 200));
        assert_eq!(svg.matches("<rect").count(), 4);
    }

    #[test]
    fn dendrogram_links() {
        let labels = vec!["a".to_string(), "b".to_string(), "c".to_string()];
        let merges = vec![
            DendrogramMerge { left: 0, right: 1, distance: 0.2, size: 2 },
            DendrogramMerge { left: 2, right: 3, distance: 0.8, size: 3 },
        ];
        let svg = drawn(|out| dendrogram(out, "d", &labels, &merges, 300, 200));
        // 3 lines per merge.
        assert_eq!(svg.matches("<line").count(), 6);
        assert!(svg.contains(">a<"));
    }

    #[test]
    fn dendrogram_degenerate() {
        assert!(drawn(|out| dendrogram(out, "d", &["a".into()], &[], 300, 200)).contains("no data"));
    }

    #[test]
    fn compare_histogram_draws_two_layers() {
        let svg = drawn(|out| compare_histogram(out, "c", &[0.0, 1.0, 2.0], &[5, 3], &[4, 1], 300, 200));
        // 2 bins × 2 layers + 2 legend swatches.
        assert_eq!(svg.matches("<rect").count(), 6);
        assert!(svg.contains("before"));
        assert!(svg.contains("after"));
    }

    #[test]
    fn compare_bars_pairs() {
        let svg = drawn(|out| compare_bars(out, "c", &["x".into(), "y".into()], &[10, 5], &[8, 2], 300, 200));
        assert_eq!(svg.matches("<rect").count(), 6);
    }
}
