//! The `dataprep` binary end to end: a report, a plot, a `.edaf`
//! conversion, an unknown column and a closed stdout, each on a small CSV.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

/// A directory of this test's own under Cargo's temp dir.
fn workdir(test: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("cli-{test}"));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// A 300-row CSV of a numeric column with nulls, an integer column and
/// a categorical one.
fn sales_csv(dir: &Path) -> PathBuf {
    let mut csv = String::from("price,size,city\n");
    for i in 0..300 {
        let price = if i % 40 == 0 { String::new() } else { format!("{}.5", 100 + (i * 37) % 900) };
        csv.push_str(&format!("{price},{},c{}\n", 10 + (i * 13) % 250, i % 7));
    }
    let path = dir.join("sales.csv");
    std::fs::write(&path, csv).unwrap();
    path
}

fn dataprep(args: &[&Path]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_dataprep")).args(args).output().unwrap()
}

fn succeeded(out: &Output) -> bool {
    out.status.success()
}

/// The `<h2>` and `<h3>` headings of a report page, in order.
fn headings(html: &str) -> Vec<&str> {
    html.split("<h")
        .filter_map(|tag| tag.strip_prefix("2>").or_else(|| tag.strip_prefix("3>")))
        .map(|rest| rest.split("</h").next().unwrap_or(rest))
        .collect()
}

#[test]
fn report_writes_every_variable_section() {
    let dir = workdir("report");
    let csv = sales_csv(&dir);
    let page = dir.join("report.html");
    let out = dataprep(&[Path::new("report"), &csv, Path::new("-o"), &page]);
    assert!(succeeded(&out), "{}", String::from_utf8_lossy(&out.stderr));
    let html = std::fs::read_to_string(&page).unwrap();
    for (column, semantic) in
        [("price", "Numerical"), ("size", "Numerical"), ("city", "Categorical")]
    {
        let heading = format!("<h3>{column} <small>({semantic})</small></h3>");
        assert!(html.contains(&heading), "{heading}");
    }
    assert!(!html.contains("<div class=\"eda-error\""), "a healthy report has no diagnostics");
}

#[test]
fn plot_of_one_column_succeeds() {
    let dir = workdir("plot");
    let csv = sales_csv(&dir);
    let out = dataprep(&[Path::new("plot"), &csv, Path::new("price")]);
    assert!(succeeded(&out), "{}", String::from_utf8_lossy(&out.stderr));
}

#[test]
fn a_converted_edaf_reports_the_same_sections() {
    let dir = workdir("convert");
    let csv = sales_csv(&dir);
    let edaf = dir.join("sales.edaf");
    let out = dataprep(&[Path::new("convert"), &csv, &edaf]);
    assert!(succeeded(&out), "{}", String::from_utf8_lossy(&out.stderr));
    let pages: Vec<String> = [&csv, &edaf]
        .iter()
        .enumerate()
        .map(|(i, data)| {
            let page = dir.join(format!("report{i}.html"));
            let out = dataprep(&[Path::new("report"), data, Path::new("-o"), &page]);
            assert!(succeeded(&out), "{}", String::from_utf8_lossy(&out.stderr));
            std::fs::read_to_string(&page).unwrap()
        })
        .collect();
    let from_csv = headings(&pages[0]);
    assert!(from_csv.contains(&"city <small>(Categorical)</small>"), "{from_csv:?}");
    assert_eq!(from_csv, headings(&pages[1]));
}

#[test]
fn an_unknown_column_fails_and_names_it() {
    let dir = workdir("unknown");
    let csv = sales_csv(&dir);
    let out = dataprep(&[Path::new("plot"), &csv, Path::new("nosuchcol")]);
    assert!(!succeeded(&out));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("nosuchcol"), "{stderr}");
}

#[test]
fn a_closed_stdout_still_writes_the_page() {
    let dir = workdir("closed-stdout");
    let csv = sales_csv(&dir);
    let page = dir.join("plot.html");
    // The reader is gone before the binary starts: its first write to
    // stdout fails with `BrokenPipe`.
    let (reader, writer) = std::io::pipe().unwrap();
    drop(reader);
    let out = Command::new(env!("CARGO_BIN_EXE_dataprep"))
        .args([Path::new("plot"), &csv, Path::new("price"), Path::new("-o"), &page])
        .stdout(writer)
        .output()
        .unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!stderr.contains("panicked"), "{stderr}");
    assert!(succeeded(&out), "{stderr}");
    assert!(std::fs::read_to_string(&page).unwrap().contains("<svg"));
}
