//! Terminal rendering for the CLI examples: stats tables, bar charts, and
//! histograms as aligned text.

use eda_core::intermediate::{Inter, StatRow};

/// Render a stats table as aligned text.
pub fn stats_table(rows: &[StatRow]) -> String {
    let width = rows.iter().map(|r| r.label.len()).max().unwrap_or(0);
    let mut out = String::new();
    for r in rows {
        let marker = if r.highlight { " (!)" } else { "" };
        out.push_str(&format!("{:<width$}  {}{}\n", r.label, r.value, marker));
    }
    out
}

/// Render a histogram as horizontal unicode bars.
pub fn histogram(edges: &[f64], counts: &[u64], width: usize) -> String {
    if counts.is_empty() || edges.len() != counts.len() + 1 {
        return "(no data)\n".to_string();
    }
    let max = counts.iter().copied().max().unwrap_or(1).max(1);
    let mut out = String::new();
    for (i, &c) in counts.iter().enumerate() {
        let bar_len = (c as f64 / max as f64 * width as f64).round() as usize;
        out.push_str(&format!(
            "[{:>10.2}, {:>10.2})  {:<width$}  {}\n",
            edges[i],
            edges[i + 1],
            "█".repeat(bar_len),
            c,
        ));
    }
    out
}

/// Render a categorical bar chart as horizontal bars.
pub fn bar_chart(categories: &[String], counts: &[u64], width: usize) -> String {
    if categories.is_empty() {
        return "(no data)\n".to_string();
    }
    let max = counts.iter().copied().max().unwrap_or(1).max(1);
    let label_w = categories.iter().map(|c| c.len()).max().unwrap_or(0);
    let mut out = String::new();
    for (cat, &c) in categories.iter().zip(counts) {
        let bar_len = (c as f64 / max as f64 * width as f64).round() as usize;
        out.push_str(&format!(
            "{:<label_w$}  {:<width$}  {}\n",
            cat,
            "█".repeat(bar_len),
            c,
        ));
    }
    out
}

/// Best-effort terminal rendering of any intermediate; unsupported kinds
/// print a one-line summary.
pub fn render(name: &str, inter: &Inter) -> String {
    let body = match inter {
        Inter::StatsTable(rows) => stats_table(rows),
        Inter::Histogram { edges, counts } => histogram(edges, counts, 40),
        Inter::Bar { categories, counts, .. } => bar_chart(categories, counts, 40),
        Inter::CompareHistogram { edges, before, .. } => histogram(edges, before, 40),
        Inter::Boxes(boxes) => boxes
            .iter()
            .map(|(l, b)| {
                format!(
                    "{l}: |-[{:.2} {:.2} {:.2}]-| whiskers ({:.2}, {:.2}), {} outliers\n",
                    b.q1, b.median, b.q3, b.whisker_low, b.whisker_high, b.n_outliers
                )
            })
            .collect(),
        Inter::Correlation(m) => {
            let mut s = format!("{} correlation\n", m.method.name());
            for (i, row_label) in m.labels.iter().enumerate() {
                s.push_str(&format!("{row_label:>12}"));
                for j in 0..m.size() {
                    match m.get(i, j) {
                        Some(v) => s.push_str(&format!(" {v:>6.2}")),
                        None => s.push_str("      -"),
                    }
                }
                s.push('\n');
            }
            s
        }
        Inter::MissingBars(bars) => bars
            .iter()
            .map(|b| format!("{:<16} {:>6.1}% missing\n", b.label, b.rate() * 100.0))
            .collect(),
        Inter::WordFreq { words, .. } => words
            .iter()
            .take(10)
            .map(|(w, c)| format!("{w:<16} {c}\n"))
            .collect(),
        other => format!("({name}: {} — see HTML output)\n", kind_name(other)),
    };
    format!("== {name} ==\n{body}")
}

fn kind_name(inter: &Inter) -> &'static str {
    match inter {
        Inter::StatsTable(_) => "stats",
        Inter::Histogram { .. } => "histogram",
        Inter::Bar { .. } => "bar",
        Inter::Pie { .. } => "pie",
        Inter::Kde { .. } => "kde",
        Inter::QQ(_) => "qq",
        Inter::Boxes(_) => "boxes",
        Inter::Scatter { .. } => "scatter",
        Inter::RegressionScatter { .. } => "regression",
        Inter::Hexbin { .. } => "hexbin",
        Inter::Heatmap { .. } => "heatmap",
        Inter::GroupedBars { .. } => "grouped bars",
        Inter::MultiLine { .. } => "multi-line",
        Inter::Line { .. } => "line",
        Inter::Correlation(_) => "correlation",
        Inter::CorrVectors(_) => "correlation vectors",
        Inter::MissingBars(_) => "missing bars",
        Inter::Spectrum(_) => "spectrum",
        Inter::NullityCorr { .. } => "nullity correlation",
        Inter::Dendrogram { .. } => "dendrogram",
        Inter::Violin { .. } => "violin",
        Inter::WordFreq { .. } => "word frequencies",
        Inter::CompareHistogram { .. } => "compare histogram",
        Inter::CompareBars { .. } => "compare bars",
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ascii_stats_table() {
        let rows = vec![
            StatRow::new("mean", "5"),
            StatRow { label: "missing".into(), value: "30%".into(), highlight: true },
        ];
        let out = stats_table(&rows);
        assert!(out.contains("mean"));
        assert!(out.contains("30% (!)"));
    }

    #[test]
    fn ascii_histogram_scales_bars() {
        let out = histogram(&[0.0, 1.0, 2.0], &[10, 5], 10);
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].matches('█').count() > lines[1].matches('█').count());
    }

    #[test]
    fn ascii_bar_chart() {
        let out = bar_chart(&["a".into(), "bb".into()], &[4, 2], 8);
        assert!(out.contains("a "));
        assert!(out.contains("bb"));
    }

    #[test]
    fn render_dispatch() {
        let out = render("histogram", &Inter::Histogram { edges: vec![0.0, 1.0], counts: vec![2] });
        assert!(out.starts_with("== histogram =="));
        let out = render("kde", &Inter::Kde { xs: vec![], ys: vec![] });
        assert!(out.contains("see HTML output"));
    }

    #[test]
    fn render_correlation_grid() {
        let pearson = eda_stats::corr::CorrMethod::Pearson;
        let r = pearson.compute(&[1.0, 2.0, 3.0], &[1.0, 2.0, 3.0]);
        let m = eda_stats::corr::CorrMatrix::from_upper(vec!["a".into(), "b".into()], pearson, [r]);
        let out = render("corr", &Inter::Correlation(m));
        assert!(out.contains("1.00"));
    }
}
