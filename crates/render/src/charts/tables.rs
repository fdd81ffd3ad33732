//! Table renderers: stats tables, correlation vectors, word frequencies
//! (which doubles as a simple word cloud).

use eda_core::intermediate::{CorrVectorsByMethod, StatRow};

use crate::num::{push_fixed, push_uint};
use crate::svg::Svg;
use crate::theme;

/// The stats table of a column or dataset, with insight rows highlighted
/// in red (paper Figure 1, part B).
pub fn stats_table(out: &mut String, rows: &[StatRow]) {
    out.push_str(r#"<table class="eda-stats"><tbody>"#);
    for r in rows {
        out.push_str(if r.highlight { r#"<tr class="highlight"><td>"# } else { "<tr><td>" });
        Svg::escape(out, &r.label);
        out.push_str("</td><td>");
        Svg::escape(out, &r.value);
        out.push_str("</td></tr>");
    }
    out.push_str("</tbody></table>");
}

/// Correlation vectors: one table per method, columns sorted by |r|.
pub fn corr_vectors(out: &mut String, vectors: &CorrVectorsByMethod) {
    for (method, entries) in vectors {
        let mut sorted: Vec<&(String, Option<f64>)> = entries.iter().collect();
        sorted.sort_by(|a, b| {
            let av = a.1.map_or(-1.0, f64::abs);
            let bv = b.1.map_or(-1.0, f64::abs);
            bv.partial_cmp(&av).expect("finite")
        });
        out.push_str(r#"<table class="eda-stats"><thead><tr><th colspan="2">"#);
        Svg::escape(out, method);
        out.push_str("</th></tr></thead><tbody>");
        for (name, r) in sorted {
            out.push_str("<tr><td>");
            Svg::escape(out, name);
            out.push_str("</td><td>");
            match r {
                Some(v) => push_fixed(out, *v, 3),
                None => out.push('-'),
            }
            out.push_str("</td></tr>");
        }
        out.push_str("</tbody></table>");
    }
}

/// Word cloud: top words scaled by frequency, laid out on a spiral-ish
/// grid, plus the counts as a caption.
pub fn word_freq(
    out: &mut String,
    title: &str,
    words: &[(String, u64)],
    total: u64,
    distinct: usize,
    w: usize,
    h: usize,
) {
    if words.is_empty() {
        return super::bars::empty_chart(out, title, w, h);
    }
    let mut svg = Svg::new(out, w, h);
    svg.text(w as f64 / 2.0, 16.0, title, 12.0, "middle", theme::TEXT);
    let max = words[0].1.max(1) as f64;
    // Deterministic lattice placement: biggest word in the middle, the
    // rest on rings around it.
    let cx = w as f64 / 2.0;
    let cy = (h as f64 + 16.0) / 2.0;
    for (i, (word, count)) in words.iter().enumerate() {
        let t = *count as f64 / max;
        let size = 10.0 + 18.0 * t;
        let angle = i as f64 * 2.399_963; // golden angle
        let radius = 14.0 * (i as f64).sqrt();
        let x = cx + radius * angle.cos() * 1.8;
        let y = cy + radius * angle.sin() * 0.8;
        svg.text(x, y, word, size, "middle", theme::series_color(i));
    }
    svg.text_with(w as f64 / 2.0, h as f64 - 6.0, 9.0, "middle", theme::AXIS, |out| {
        push_uint(out, total);
        out.push_str(" words, ");
        push_uint(out, distinct as u64);
        out.push_str(" distinct");
    });
    svg.finish();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::svg::drawn;

    #[test]
    fn stats_table_rows_and_highlight() {
        let rows = vec![
            StatRow::new("mean", "5"),
            StatRow { label: "missing".into(), value: "30%".into(), highlight: true },
        ];
        let html = drawn(|out| stats_table(out, &rows));
        assert_eq!(html.matches("<tr").count(), 2);
        assert_eq!(html.matches("highlight").count(), 1);
        assert!(html.contains("mean"));
    }

    #[test]
    fn stats_table_escapes() {
        let rows = vec![StatRow::new("a<b", "x&y")];
        let html = drawn(|out| stats_table(out, &rows));
        assert!(html.contains("a&lt;b"));
        assert!(html.contains("x&amp;y"));
    }

    #[test]
    fn corr_vectors_sorted_by_abs() {
        let vectors = vec![(
            "Pearson".to_string(),
            vec![
                ("weak".to_string(), Some(0.1)),
                ("strong".to_string(), Some(-0.9)),
                ("undefined".to_string(), None),
            ],
        )];
        let html = drawn(|out| corr_vectors(out, &vectors));
        let strong = html.find("strong").unwrap();
        let weak = html.find("weak").unwrap();
        let undef = html.find("undefined").unwrap();
        assert!(strong < weak && weak < undef);
        assert!(html.contains("-0.900"));
    }

    #[test]
    fn word_cloud_scales_sizes() {
        let words = vec![("big".to_string(), 100), ("small".to_string(), 1)];
        let svg = drawn(|out| word_freq(out, "w", &words, 101, 2, 300, 200));
        assert!(svg.contains("big"));
        assert!(svg.contains("101 words, 2 distinct"));
        // Biggest word gets the biggest font.
        let big_pos = svg.find("big").unwrap();
        let big_font = svg[..big_pos].rfind("font-size=").unwrap();
        assert!(svg[big_font..big_pos].contains("28"));
    }

    #[test]
    fn empty_word_cloud() {
        assert!(drawn(|out| word_freq(out, "w", &[], 0, 0, 300, 200)).contains("no data"));
    }
}
