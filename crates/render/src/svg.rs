//! A minimal SVG canvas plus the standard chart frame.
//!
//! Both append to the page under construction: a chart is never a string
//! of its own. Coordinates go through `crate::num`, not `core::fmt`.

use crate::num::{push_f64, push_fixed, push_uint};
use crate::scale::{push_tick_label, LinearScale};
use crate::theme;

/// Margins of the chart frame, in pixels.
#[derive(Debug, Clone, Copy)]
pub struct Margins {
    /// Top margin.
    pub top: f64,
    /// Right margin.
    pub right: f64,
    /// Bottom margin (room for x tick labels).
    pub bottom: f64,
    /// Left margin (room for y tick labels).
    pub left: f64,
}

impl Default for Margins {
    fn default() -> Self {
        Margins { top: 28.0, right: 16.0, bottom: 36.0, left: 52.0 }
    }
}

/// Append `s` with `&`, `<`, `>` — and `"` when `quotes` — as entities.
fn escape_into(out: &mut String, s: &str, quotes: bool) {
    let mut rest = s;
    while let Some(at) = rest.find(|c| matches!(c, '&' | '<' | '>') || (quotes && c == '"')) {
        let (plain, special) = rest.split_at(at);
        out.push_str(plain);
        let mut chars = special.chars();
        out.push_str(match chars.next() {
            Some('&') => "&amp;",
            Some('<') => "&lt;",
            Some('>') => "&gt;",
            _ => "&quot;",
        });
        rest = chars.as_str();
    }
    out.push_str(rest);
}

/// Append `s` escaped and clipped to `max` characters, the last of them
/// an ellipsis when anything was cut.
pub(crate) fn push_clipped(out: &mut String, s: &str, max: usize) {
    match s.char_indices().nth(max) {
        None => Svg::escape(out, s),
        Some(_) => {
            let cut = s.char_indices().nth(max.saturating_sub(1)).map_or(0, |(at, _)| at);
            Svg::escape(out, s.get(..cut).unwrap_or_default());
            out.push('…');
        }
    }
}

/// An SVG document being appended to a page.
#[derive(Debug)]
pub struct Svg<'a> {
    width: f64,
    height: f64,
    out: &'a mut String,
}

impl<'a> Svg<'a> {
    /// Open a blank canvas at the end of `out`.
    pub fn new(out: &'a mut String, width: usize, height: usize) -> Svg<'a> {
        const OPEN: &str = r#"<svg xmlns="http://www.w3.org/2000/svg" width=""#;
        let leads = [OPEN, r#"" height=""#, r#"" viewBox="0 0 "#, " "];
        for (lead, n) in leads.into_iter().zip([width, height, width, height]) {
            out.push_str(lead);
            push_uint(out, n as u64);
        }
        out.push_str(r#"">"#);
        Svg { width: width as f64, height: height as f64, out }
    }

    /// Canvas width.
    pub fn width(&self) -> f64 {
        self.width
    }

    /// Canvas height.
    pub fn height(&self) -> f64 {
        self.height
    }

    /// Append `s` escaped for text content or an attribute value.
    pub fn escape(out: &mut String, s: &str) {
        escape_into(out, s, true);
    }

    /// Append `s` escaped for text content only: a `"` stays as it is.
    pub fn escape_text(out: &mut String, s: &str) {
        escape_into(out, s, false);
    }

    /// Append `lead` and the pixel value `v` at two decimals.
    fn px(&mut self, lead: &str, v: f64) {
        self.out.push_str(lead);
        push_fixed(self.out, v, 2);
    }

    /// Append `lead` and a `value` that needs no escaping.
    fn attr(&mut self, lead: &str, value: &str) {
        self.out.push_str(lead);
        self.out.push_str(value);
    }

    /// Add a rectangle.
    pub fn rect(&mut self, x: f64, y: f64, w: f64, h: f64, fill: &str) {
        self.rect_open(x, y, w, h, fill);
        self.out.push_str(r#""/>"#);
    }

    fn rect_open(&mut self, x: f64, y: f64, w: f64, h: f64, fill: &str) {
        self.px(r#"<rect x=""#, x);
        self.px(r#"" y=""#, y);
        self.px(r#"" width=""#, w);
        self.px(r#"" height=""#, h);
        self.attr(r#"" fill=""#, fill);
    }

    /// Add a rectangle with stroke.
    pub fn rect_outlined(&mut self, x: f64, y: f64, w: f64, h: f64, fill: &str, stroke: &str) {
        self.rect_open(x, y, w, h, fill);
        self.attr(r#"" stroke=""#, stroke);
        self.out.push_str(r#"" stroke-width="1"/>"#);
    }

    /// Add a line.
    pub fn line(&mut self, x1: f64, y1: f64, x2: f64, y2: f64, stroke: &str, width: f64) {
        self.px(r#"<line x1=""#, x1);
        self.px(r#"" y1=""#, y1);
        self.px(r#"" x2=""#, x2);
        self.px(r#"" y2=""#, y2);
        self.stroke(r#"" stroke=""#, stroke, width);
    }

    /// Append `lead`, the stroke color and width, and the end of the element.
    fn stroke(&mut self, lead: &str, stroke: &str, width: f64) {
        self.attr(lead, stroke);
        self.out.push_str(r#"" stroke-width=""#);
        push_f64(self.out, width);
        self.out.push_str(r#""/>"#);
    }

    /// Add a circle.
    pub fn circle(&mut self, cx: f64, cy: f64, r: f64, fill: &str, opacity: f64) {
        self.px(r#"<circle cx=""#, cx);
        self.px(r#"" cy=""#, cy);
        self.px(r#"" r=""#, r);
        self.attr(r#"" fill=""#, fill);
        self.out.push_str(r#"" fill-opacity=""#);
        push_f64(self.out, opacity);
        self.out.push_str(r#""/>"#);
    }

    /// Append `x,y` at two decimals.
    fn point(&mut self, lead: &str, (x, y): (f64, f64)) {
        self.px(lead, x);
        self.px(",", y);
    }

    /// Add a polyline path through points.
    pub fn polyline(&mut self, points: &[(f64, f64)], stroke: &str, width: f64) {
        if points.is_empty() {
            return;
        }
        self.out.push_str(r#"<path d=""#);
        for (i, &p) in points.iter().enumerate() {
            self.point(if i == 0 { "M" } else { "L" }, p);
            self.out.push(' ');
        }
        self.stroke(r#"" fill="none" stroke=""#, stroke, width);
    }

    /// Add a closed polygon.
    pub fn polygon(&mut self, points: &[(f64, f64)], fill: &str) {
        if points.is_empty() {
            return;
        }
        self.out.push_str(r#"<polygon points=""#);
        for (i, &p) in points.iter().enumerate() {
            self.point(if i == 0 { "" } else { " " }, p);
        }
        self.attr(r#"" fill=""#, fill);
        self.out.push_str(r#""/>"#);
    }

    /// Add text. `anchor` is `start`/`middle`/`end`.
    pub fn text(&mut self, x: f64, y: f64, content: &str, size: f64, anchor: &str, fill: &str) {
        self.text_with(x, y, size, anchor, fill, |out| Svg::escape(out, content));
    }

    /// Add text whose content `content` appends (escaped, where it can
    /// hold markup).
    pub fn text_with(
        &mut self,
        x: f64,
        y: f64,
        size: f64,
        anchor: &str,
        fill: &str,
        content: impl FnOnce(&mut String),
    ) {
        self.px(r#"<text x=""#, x);
        self.px(r#"" y=""#, y);
        self.out.push_str(r#"" font-size=""#);
        push_f64(self.out, size);
        self.attr(r#"" font-family=""#, theme::FONT);
        self.attr(r#"" text-anchor=""#, anchor);
        self.attr(r#"" fill=""#, fill);
        self.out.push_str(r#"">"#);
        content(self.out);
        self.out.push_str("</text>");
    }

    /// Close the document.
    pub fn finish(self) {
        self.out.push_str("</svg>");
    }
}

/// A framed plotting area: title, axes, ticks, grid.
pub struct Frame<'a> {
    /// The canvas.
    pub svg: Svg<'a>,
    /// X scale (domain → plot pixels).
    pub x: LinearScale,
    /// Y scale (domain → plot pixels, inverted for SVG).
    pub y: LinearScale,
    /// Margins in use.
    pub margins: Margins,
}

impl<'a> Frame<'a> {
    /// Open a frame with numeric x/y axes at the end of `out` and draw the
    /// decorations.
    pub fn new(
        out: &'a mut String,
        width: usize,
        height: usize,
        title: &str,
        (x0, x1): (f64, f64),
        (y0, y1): (f64, f64),
    ) -> Frame<'a> {
        let margins = Margins::default();
        let mut svg = Svg::new(out, width, height);
        let (right, bottom) = (width as f64 - margins.right, height as f64 - margins.bottom);
        let x = LinearScale::new(x0, x1, margins.left, right);
        let y = LinearScale::new(y0, y1, bottom, margins.top);

        svg.text(width as f64 / 2.0, 16.0, title, 12.0, "middle", theme::TEXT);

        // Grid + ticks.
        for t in y.ticks(5) {
            let py = y.map(t);
            svg.line(margins.left, py, right, py, theme::GRID, 1.0);
            svg.text_with(margins.left - 6.0, py + 3.0, 9.0, "end", theme::TEXT, |out| push_tick_label(out, t));
        }
        for t in x.ticks(6) {
            svg.text_with(x.map(t), bottom + 14.0, 9.0, "middle", theme::TEXT, |out| push_tick_label(out, t));
        }
        // Axes.
        svg.line(margins.left, bottom, right, bottom, theme::AXIS, 1.0);
        svg.line(margins.left, margins.top, margins.left, bottom, theme::AXIS, 1.0);
        Frame { svg, x, y, margins }
    }

    /// Pixel bounds of the plotting area `(left, top, right, bottom)`.
    pub fn plot_area(&self) -> (f64, f64, f64, f64) {
        (
            self.margins.left,
            self.margins.top,
            self.svg.width() - self.margins.right,
            self.svg.height() - self.margins.bottom,
        )
    }

    /// Close the document.
    pub fn finish(self) {
        self.svg.finish();
    }
}

/// What `draw` appends to an empty page.
#[cfg(test)]
pub(crate) fn drawn(draw: impl FnOnce(&mut String)) -> String {
    let mut out = String::new();
    draw(&mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn svg_document_structure() {
        let out = drawn(|out| {
            let mut s = Svg::new(out, 100, 50);
            s.rect(0.0, 0.0, 10.0, 10.0, "#fff");
            s.circle(5.0, 5.0, 2.0, "#000", 1.0);
            s.text(1.0, 1.0, "a<b", 10.0, "start", "#333");
            s.finish();
        });
        assert!(out.starts_with("<svg"));
        assert!(out.ends_with("</svg>"));
        assert!(out.contains("<rect"));
        assert!(out.contains("<circle"));
        assert!(out.contains("a&lt;b"));
        assert!(out.contains(r#"width="100""#));
    }

    #[test]
    fn escape_rules() {
        assert_eq!(drawn(|out| Svg::escape(out, "a&b<c>\"d\"")), "a&amp;b&lt;c&gt;&quot;d&quot;");
        assert_eq!(drawn(|out| Svg::escape_text(out, "a&b<c>\"d\"")), "a&amp;b&lt;c&gt;\"d\"");
    }

    #[test]
    fn primitives_print_what_the_formatter_printed() {
        let out = drawn(|out| {
            let mut s = Svg::new(out, 640, 480);
            s.rect_outlined(1.005, -0.001, 10.0, 0.125, "#fff", "#000");
            s.line(0.0, 1.0, 2.5, 1e9, "#888888", 1.2);
            s.circle(5.0, 5.0, 2.0, "#000", 0.55);
            s.polygon(&[(0.0, 0.0), (1.0, 2.0)], "#abc");
            s.text(1.0, 2.0, "\"q\"", 8.5, "end", "#333");
            s.finish();
        });
        let want = format!(
            concat!(
                r#"<svg xmlns="http://www.w3.org/2000/svg" width="640" height="480" viewBox="0 0 640 480">"#,
                r##"<rect x="{:.2}" y="{:.2}" width="10.00" height="{:.2}" fill="#fff" stroke="#000" stroke-width="1"/>"##,
                r##"<line x1="0.00" y1="1.00" x2="2.50" y2="{:.2}" stroke="#888888" stroke-width="1.2"/>"##,
                r##"<circle cx="5.00" cy="5.00" r="2.00" fill="#000" fill-opacity="0.55"/>"##,
                r##"<polygon points="0.00,0.00 1.00,2.00" fill="#abc"/>"##,
                r##"<text x="1.00" y="2.00" font-size="8.5" font-family="{}" text-anchor="end" fill="#333">&quot;q&quot;</text></svg>"##,
            ),
            1.005, -0.001, 0.125, 1e9, theme::FONT
        );
        assert_eq!(out, want);
    }

    #[test]
    fn polyline_path() {
        let out = drawn(|out| {
            let mut s = Svg::new(out, 10, 10);
            s.polyline(&[(0.0, 0.0), (5.0, 5.0)], "#000", 1.0);
            s.finish();
        });
        assert!(out.contains(r##"<path d="M0.00,0.00 L5.00,5.00 " fill="none" stroke="#000" stroke-width="1"/>"##));
    }

    #[test]
    fn empty_polyline_is_noop() {
        let out = drawn(|out| {
            let mut s = Svg::new(out, 10, 10);
            s.polyline(&[], "#000", 1.0);
            s.finish();
        });
        assert!(!out.contains("<path"));
    }

    #[test]
    fn frame_draws_axes_and_title() {
        let out = drawn(|out| Frame::new(out, 300, 200, "Title", (0.0, 10.0), (0.0, 5.0)).finish());
        assert!(out.contains("Title"));
        assert!(out.matches("<line").count() >= 4); // grid + axes
    }

    #[test]
    fn frame_scales_are_oriented() {
        let mut out = String::new();
        let f = Frame::new(&mut out, 300, 200, "t", (0.0, 10.0), (0.0, 5.0));
        // Larger y value maps to smaller pixel y (SVG grows downward).
        assert!(f.y.map(5.0) < f.y.map(0.0));
        assert!(f.x.map(10.0) > f.x.map(0.0));
        let (l, t, r, b) = f.plot_area();
        assert!(l < r && t < b);
    }
}
