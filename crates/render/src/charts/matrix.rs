//! Matrix renderers: categorical heat map, correlation matrices, nullity
//! correlation.

use eda_stats::corr::CorrMatrix;

use crate::num::push_fixed;
use crate::svg::{push_clipped, Svg};
use crate::theme::{self, Rgb};

use super::bars::empty_chart;

/// Shared grid renderer: cells colored by `color(row, col)` (grey where it
/// has none), labelled axes, and `value(row, col)` printed in each cell at
/// `decimals` where there is one.
#[allow(clippy::too_many_arguments)]
fn grid(
    out: &mut String,
    title: &str,
    xlabels: &[String],
    ylabels: &[String],
    color: impl Fn(usize, usize) -> Option<Rgb>,
    value: impl Fn(usize, usize) -> Option<f64>,
    decimals: usize,
    w: usize,
    h: usize,
) {
    if xlabels.is_empty() || ylabels.is_empty() {
        return empty_chart(out, title, w, h);
    }
    let mut svg = Svg::new(out, w, h);
    svg.text(w as f64 / 2.0, 16.0, title, 12.0, "middle", theme::TEXT);
    let left = 80.0;
    let top = 28.0;
    let right = w as f64 - 12.0;
    let bottom = h as f64 - 34.0;
    let cw = (right - left) / xlabels.len() as f64;
    let ch = (bottom - top) / ylabels.len() as f64;
    for (r, yl) in ylabels.iter().enumerate() {
        let y = top + ch * (r as f64 + 0.5) + 3.0;
        svg.text_with(left - 6.0, y, 9.0, "end", theme::TEXT, |out| push_clipped(out, yl, 11));
        for (c, _) in xlabels.iter().enumerate() {
            let x = left + cw * c as f64;
            let y = top + ch * r as f64;
            let fill = color(r, c);
            svg.rect_outlined(x, y, cw, ch, fill.as_ref().map_or("#F5F5F5", Rgb::as_str), "#FFFFFF");
            if let Some(v) = value(r, c) {
                svg.text_with(x + cw / 2.0, y + ch / 2.0 + 3.0, 8.5, "middle", theme::TEXT, |out| {
                    push_fixed(out, v, decimals);
                });
            }
        }
    }
    for (c, xl) in xlabels.iter().enumerate() {
        let x = left + cw * (c as f64 + 0.5);
        svg.text_with(x, bottom + 14.0, 9.0, "middle", theme::TEXT, |out| push_clipped(out, xl, 9));
    }
    svg.finish();
}

/// Count heat map over two categorical axes.
pub fn heatmap(
    out: &mut String,
    title: &str,
    xlabels: &[String],
    ylabels: &[String],
    values: &[Vec<u64>],
    w: usize,
    h: usize,
) {
    let max = values.iter().flatten().copied().max().unwrap_or(1).max(1) as f64;
    grid(
        out,
        title,
        xlabels,
        ylabels,
        |r, c| Some(theme::sequential(values[r][c] as f64 / max)),
        // A count below 2⁵³ prints the same digits as a whole double.
        |r, c| Some(values[r][c] as f64),
        0,
        w,
        h,
    )
}

/// Correlation matrix heat map with diverging colors and r values.
pub fn correlation(out: &mut String, title: &str, m: &CorrMatrix, w: usize, h: usize) {
    let labels = &m.labels;
    grid(
        out,
        &format!("{title} — {}", m.method.name()),
        labels,
        labels,
        |r, c| m.get(r, c).map(theme::diverging),
        |r, c| m.get(r, c),
        2,
        w,
        h,
    )
}

/// Nullity correlation heat map (missingno-style).
pub fn nullity_correlation(
    out: &mut String,
    title: &str,
    labels: &[String],
    cells: &[Vec<Option<f64>>],
    w: usize,
    h: usize,
) {
    grid(out, title, labels, labels, |r, c| cells[r][c].map(theme::diverging), |r, c| cells[r][c], 2, w, h)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::svg::drawn;
    use eda_stats::corr::CorrMethod;

    #[test]
    fn heatmap_draws_all_cells() {
        let (xl, yl) = (["a".into(), "b".into(), "c".into()], ["x".into(), "y".into()]);
        let svg = drawn(|out| heatmap(out, "h", &xl, &yl, &[vec![1, 2, 3], vec![4, 5, 6]], 300, 200));
        assert_eq!(svg.matches("<rect").count(), 6);
        assert!(svg.contains(">6<"));
    }

    #[test]
    fn correlation_matrix_title_names_method() {
        let r = CorrMethod::Spearman.compute(&[1.0, 2.0, 3.0], &[3.0, 2.0, 1.0]);
        let m = CorrMatrix::from_upper(vec!["a".into(), "b".into()], CorrMethod::Spearman, [r]);
        let svg = drawn(|out| correlation(out, "corr", &m, 300, 200));
        assert!(svg.contains("Spearman"));
        assert!(svg.contains("-1.00"));
        assert!(svg.contains("1.00"));
    }

    #[test]
    fn undefined_cells_render_grey() {
        let cells = [vec![Some(1.0), None], vec![None, Some(1.0)]];
        let svg = drawn(|out| nullity_correlation(out, "n", &["a".into(), "b".into()], &cells, 300, 200));
        assert!(svg.contains("#F5F5F5"));
    }

    #[test]
    fn empty_grid_is_placeholder() {
        assert!(drawn(|out| heatmap(out, "h", &[], &[], &[], 300, 200)).contains("no data"));
    }
}
