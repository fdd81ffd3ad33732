//! The CI perf-regression gate behind the `bench-regress` binary.
//!
//! Benchmarks write flat JSON result files (`BENCH_ingest.json`,
//! `BENCH_kernels.json`); a blessed copy of each is committed under
//! `bench/baselines/`. The gate re-runs the benchmark in CI, parses both
//! files, validates their schemas, and compares the *ratio* metrics
//! (speedups, peak per file byte) within a tolerance band. Ratios
//! compare a workload against itself on the same machine, so they are
//! stable across runner hardware in a way absolute microseconds are not —
//! the absolute columns are validated for presence but never gated.
//!
//! The workspace has no JSON dependency by design, so this module carries
//! a parser for exactly the dialect the benchmarks emit: one flat object
//! of string/number values, no nesting, no escapes beyond `\"`.

use std::fmt::Write as _;

/// One value in a flat benchmark result file.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// A JSON number (all benchmark metrics).
    Num(f64),
    /// A JSON string (the `experiment` tag).
    Str(String),
}

impl JsonValue {
    /// The numeric value, if this is a number.
    pub fn as_num(&self) -> Option<f64> {
        match self {
            JsonValue::Num(n) => Some(*n),
            JsonValue::Str(_) => None,
        }
    }
}

/// A parsed flat JSON object, in file order.
pub type FlatJson = Vec<(String, JsonValue)>;

/// Value of `key` in a parsed document.
pub fn get<'a>(doc: &'a FlatJson, key: &str) -> Option<&'a JsonValue> {
    doc.iter().find(|(k, _)| k == key).map(|(_, v)| v)
}

/// Parse one flat JSON object (`{"key": 1.5, "tag": "x", ...}`).
///
/// Supports exactly what the benchmark writers emit — string keys,
/// number/string values, arbitrary whitespace — and rejects everything
/// else (nesting, arrays, booleans) with a positioned error.
pub fn parse_flat_json(text: &str) -> Result<FlatJson, String> {
    let mut p = Parser { bytes: text.as_bytes(), pos: 0 };
    p.skip_ws();
    p.expect(b'{')?;
    let mut out = FlatJson::new();
    p.skip_ws();
    if p.peek() == Some(b'}') {
        p.pos += 1;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(format!("byte {}: trailing content after object", p.pos));
        }
        return Ok(out);
    }
    loop {
        p.skip_ws();
        let key = p.string()?;
        p.skip_ws();
        p.expect(b':')?;
        p.skip_ws();
        let value = match p.peek() {
            Some(b'"') => JsonValue::Str(p.string()?),
            Some(c) if c == b'-' || c.is_ascii_digit() => JsonValue::Num(p.number()?),
            other => return Err(format!("byte {}: expected value, found {:?}", p.pos, other.map(char::from))),
        };
        out.push((key, value));
        p.skip_ws();
        match p.peek() {
            Some(b',') => p.pos += 1,
            Some(b'}') => {
                p.pos += 1;
                break;
            }
            other => return Err(format!("byte {}: expected ',' or '}}', found {:?}", p.pos, other.map(char::from))),
        }
    }
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(format!("byte {}: trailing content after object", p.pos));
    }
    Ok(out)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, c: u8) -> Result<(), String> {
        if self.peek() == Some(c) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!(
                "byte {}: expected {:?}, found {:?}",
                self.pos,
                char::from(c),
                self.peek().map(char::from)
            ))
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    // Only the escape the writers can emit.
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        other => {
                            return Err(format!(
                                "byte {}: unsupported escape {:?}",
                                self.pos,
                                other.map(char::from)
                            ))
                        }
                    }
                    self.pos += 1;
                }
                Some(c) => {
                    out.push(char::from(c));
                    self.pos += 1;
                }
                None => return Err("unterminated string".into()),
            }
        }
    }

    fn number(&mut self) -> Result<f64, String> {
        let start = self.pos;
        while matches!(
            self.peek(),
            Some(b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9')
        ) {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|e| e.to_string())?;
        text.parse()
            .map_err(|e| format!("byte {start}: bad number {text:?}: {e}"))
    }
}

/// One gated ratio metric of an experiment.
#[derive(Debug, Clone, Copy)]
pub struct MetricSpec {
    /// JSON key of the metric.
    pub key: &'static str,
    /// Whether larger values are better — a drop below
    /// `baseline * (1 - tolerance)` regresses. `false` inverts the band.
    pub higher_is_better: bool,
    /// Multiplier on the caller's tolerance for this metric. `1.0` for
    /// deterministic ratios (allocator-counted peaks); wider for
    /// wall-clock ratios (speedups), which carry
    /// scheduler noise across runs that would make a tight band flaky
    /// without hiding real collapses.
    pub tolerance_scale: f64,
}

/// Gated ratios that depend on how many cores ran the benchmark. They
/// are compared only when both files record the same `host_cores`;
/// across different hosts they are reported as not compared instead of
/// passing or failing on hardware.
pub const SAME_HOST_ONLY: &[&str] = &["parallel_speedup"];

/// Schema + gate description of one benchmark experiment.
#[derive(Debug, Clone, Copy)]
pub struct ExperimentSpec {
    /// The `experiment` tag the result file must carry.
    pub name: &'static str,
    /// Keys that must be present (schema validation).
    pub required: &'static [&'static str],
    /// The ratio metrics compared against the baseline.
    pub gated: &'static [MetricSpec],
}

/// The experiments the gate knows about.
pub const EXPERIMENTS: &[ExperimentSpec] = &[
    ExperimentSpec {
        name: "kernels",
        required: &[
            "experiment",
            "rows",
            "host_cores",
            "nullity_meps",
            "corr_prep_ms",
            "pearson_pair_pps",
            "pearson_cell_pps",
            "pearson_cell_speedup",
            "spearman_pair_pps",
            "spearman_cell_pps",
            "spearman_cell_speedup",
            "kendall_pair_pps",
            "kendall_cell_pps",
            "kendall_cell_speedup",
            "kendall_nan_pair_pps",
            "kendall_nan_cell_pps",
            "kendall_nan_cell_speedup",
            "pearson_nan_pair_pps",
            "pearson_nan_cell_pps",
            "pearson_nan_cell_speedup",
            "kde_direct_cps",
            "kde_cps",
            "kde_speedup",
            "column_sort_twice_ms",
            "column_sort_once_ms",
            "column_sort_speedup",
            "freq_codes_rps",
            "text_stats_push_rps",
            "text_stats_rps",
            "text_stats_speedup",
            "render_mb_per_s",
            "render_report_ms",
            "missing_x_cached_us",
        ],
        gated: &[
            // Shared-prep cells vs one pair-kernel call per cell, same
            // columns, back to back; the wide scale absorbs shared-runner
            // noise.
            MetricSpec { key: "pearson_cell_speedup", higher_is_better: true, tolerance_scale: 4.0 },
            MetricSpec { key: "spearman_cell_speedup", higher_is_better: true, tolerance_scale: 4.0 },
            MetricSpec { key: "kendall_cell_speedup", higher_is_better: true, tolerance_scale: 4.0 },
            // The masked lane pass of a null-touching Pearson cell vs the
            // copy + Welford update it replaced.
            MetricSpec { key: "pearson_nan_cell_speedup", higher_is_better: true, tolerance_scale: 4.0 },
            // The windowed recurrence vs the direct sum it replaced, same
            // 25 samples, back to back.
            MetricSpec { key: "kde_speedup", higher_is_better: true, tolerance_scale: 4.0 },
            // One radix argsort per column, the sorted values read along
            // it, vs a comparator argsort plus a second sort of the
            // values; same 25 columns, back to back.
            MetricSpec { key: "column_sort_speedup", higher_is_better: true, tolerance_scale: 4.0 },
            // Text statistics over dictionary codes (each distinct value
            // tokenised once) vs the per-row loop, same columns, back to
            // back.
            MetricSpec { key: "text_stats_speedup", higher_is_better: true, tolerance_scale: 4.0 },
            // Absolute numbers of the host, so the band is the widest:
            // it is there for a page going back through `core::fmt` (a
            // third of this rate) or a finish selecting over a column's
            // distinct values again (five times this time).
            MetricSpec { key: "render_mb_per_s", higher_is_better: true, tolerance_scale: 4.0 },
            MetricSpec { key: "missing_x_cached_us", higher_is_better: false, tolerance_scale: 4.0 },
        ],
    },
    ExperimentSpec {
        name: "ingest",
        required: &[
            "experiment",
            "rows",
            "workers",
            "host_cores",
            "file_bytes",
            "chunk_bytes",
            "seq_us",
            "par_us",
            "seq_rows_per_s",
            "par_rows_per_s",
            "parallel_speedup",
            "seq_staging_peak_bytes",
            "par_staging_peak_bytes",
            "str_field_allocs",
            "stream_peak_bytes",
            "staging_reduction",
            "load_peak_per_file_byte",
            "edaf_bytes",
            "csv_parse_us",
            "edaf_col_us",
            "projection_speedup",
            "peak_rss_bytes",
        ],
        gated: &[
            // Wall-clock ratios: wide band for scheduler noise, like the
            // other speedups above.
            MetricSpec { key: "parallel_speedup", higher_is_better: true, tolerance_scale: 4.0 },
            MetricSpec {
                key: "projection_speedup",
                higher_is_better: true,
                tolerance_scale: 4.0,
            },
            // Allocator-counted peaks are deterministic for a fixed chunk
            // plan; the base tolerance suffices. The full load's peak per
            // file byte, not its ratio to the streaming fold's: a load
            // that holds less is a smaller ratio and is no regression.
            MetricSpec {
                key: "load_peak_per_file_byte",
                higher_is_better: false,
                tolerance_scale: 1.0,
            },
        ],
    },
];

/// Look up an experiment spec by name.
pub fn experiment(name: &str) -> Option<&'static ExperimentSpec> {
    EXPERIMENTS.iter().find(|e| e.name == name)
}

/// Outcome of one gated metric comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct Delta {
    /// The metric key.
    pub metric: &'static str,
    /// The blessed value.
    pub baseline: f64,
    /// The freshly-measured value.
    pub fresh: f64,
    /// `fresh / baseline` (1.0 when the baseline is zero).
    pub ratio: f64,
    /// Whether the fresh value falls outside the tolerance band on the
    /// bad side.
    pub regressed: bool,
    /// `(baseline, fresh)` core counts when the metric was not compared
    /// because they differ ([`SAME_HOST_ONLY`]); such a delta
    /// never regresses.
    pub hosts_differ: Option<(f64, f64)>,
}

/// Validate `doc` against `spec`: every required key present, every
/// non-tag key numeric, and the `experiment` tag matching.
pub fn validate(spec: &ExperimentSpec, doc: &FlatJson, label: &str) -> Result<(), String> {
    match get(doc, "experiment") {
        Some(JsonValue::Str(tag)) if tag == spec.name => {}
        Some(JsonValue::Str(tag)) => {
            return Err(format!("{label}: experiment tag {tag:?}, expected {:?}", spec.name))
        }
        _ => return Err(format!("{label}: missing experiment tag")),
    }
    for &key in spec.required {
        let Some(value) = get(doc, key) else {
            return Err(format!("{label}: missing required key {key:?}"));
        };
        if key != "experiment" && value.as_num().is_none() {
            return Err(format!("{label}: key {key:?} is not numeric"));
        }
    }
    Ok(())
}

/// Compare a fresh result against the blessed baseline.
///
/// Both documents are schema-validated first. Each gated metric yields a
/// [`Delta`]; a higher-is-better metric regresses when
/// `fresh < baseline * (1 - tolerance)` (the inverse band when lower is
/// better). Improvements never fail the gate — a lifted baseline is
/// re-blessed by committing the new file, not by failing CI.
pub fn compare(
    spec: &ExperimentSpec,
    baseline: &FlatJson,
    fresh: &FlatJson,
    tolerance: f64,
) -> Result<Vec<Delta>, String> {
    validate(spec, baseline, "baseline")?;
    validate(spec, fresh, "fresh")?;
    let num = |doc: &FlatJson, key: &str| get(doc, key).and_then(JsonValue::as_num);
    let mut out = Vec::new();
    for m in spec.gated {
        // validate() proved both keys exist and are numeric.
        let base = num(baseline, m.key).unwrap_or(0.0);
        let new = num(fresh, m.key).unwrap_or(0.0);
        let hosts_differ = match (num(baseline, "host_cores"), num(fresh, "host_cores")) {
            (Some(b), Some(f)) if SAME_HOST_ONLY.contains(&m.key) && b != f => Some((b, f)),
            _ => None,
        };
        let band = (tolerance * m.tolerance_scale).min(0.95);
        let regressed = hosts_differ.is_none()
            && if m.higher_is_better {
                new < base * (1.0 - band)
            } else {
                new > base * (1.0 + band)
            };
        out.push(Delta {
            metric: m.key,
            baseline: base,
            fresh: new,
            ratio: if base == 0.0 { 1.0 } else { new / base },
            regressed,
            hosts_differ,
        });
    }
    Ok(out)
}

/// Human-readable gate summary — one line per gated metric, suitable for
/// the CI log and the delta artifact.
pub fn summary(experiment: &str, deltas: &[Delta], tolerance: f64) -> String {
    let mut out = format!(
        "bench-regress: experiment={experiment} tolerance={:.0}%\n",
        tolerance * 100.0
    );
    for d in deltas {
        let _ = writeln!(
            out,
            "  {:<16} baseline {:>10.4}  fresh {:>10.4}  ({:+.1}%)  {}",
            d.metric,
            d.baseline,
            d.fresh,
            (d.ratio - 1.0) * 100.0,
            match d.hosts_differ {
                Some((b, f)) => format!("not compared (host_cores {b} vs {f})"),
                None if d.regressed => "REGRESSED".to_string(),
                None => "ok".to_string(),
            },
        );
    }
    let failed = deltas.iter().filter(|d| d.regressed).count();
    let _ = writeln!(
        out,
        "  verdict: {}",
        if failed == 0 {
            "pass".to_string()
        } else {
            format!("FAIL ({failed} metric(s) regressed)")
        }
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The blessed baselines, as CI gates against them.
    const BLESSED: [(&str, &str); 2] = [
        ("ingest", include_str!("../../../bench/baselines/BENCH_ingest.json")),
        ("kernels", include_str!("../../../bench/baselines/BENCH_kernels.json")),
    ];

    /// A result of `experiment`: every required key 10, but those in `set`.
    fn doc_of(experiment_name: &str, set: &[(&str, f64)]) -> FlatJson {
        let spec = experiment(experiment_name).unwrap();
        let mut doc: FlatJson = vec![("experiment".into(), JsonValue::Str(experiment_name.into()))];
        for &key in spec.required.iter().filter(|&&k| k != "experiment") {
            let value = set.iter().find(|(k, _)| *k == key).map_or(10.0, |&(_, v)| v);
            doc.push((key.into(), JsonValue::Num(value)));
        }
        doc
    }

    fn delta_of(deltas: &[Delta], metric: &str) -> Delta {
        deltas.iter().find(|d| d.metric == metric).cloned().unwrap()
    }

    #[test]
    fn parses_real_result_file_shape() {
        for (name, text) in BLESSED {
            let doc = parse_flat_json(text).unwrap();
            let spec = experiment(name).unwrap();
            assert_eq!(get(&doc, "experiment"), Some(&JsonValue::Str(name.into())));
            assert!(validate(spec, &doc, name).is_ok(), "{name}");
            assert_eq!(doc.len(), spec.required.len(), "{name}: no key outside the schema");
        }
    }

    #[test]
    fn parses_whitespace_empty_and_negative() {
        let doc = parse_flat_json(" { \"a\" : -1.5e2 ,\n\"b\" : \"x\\\"y\" } ").unwrap();
        assert_eq!(get(&doc, "a").unwrap().as_num(), Some(-150.0));
        assert_eq!(get(&doc, "b"), Some(&JsonValue::Str("x\"y".into())));
        assert!(parse_flat_json("{}").unwrap().is_empty());
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in ["", "{", "{\"a\":}", "{\"a\":1,}", "{\"a\":[1]}", "{\"a\":1} extra", "\"a\""] {
            assert!(parse_flat_json(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn schema_validation_catches_missing_and_mistagged() {
        let spec = experiment("ingest").unwrap();
        let doc = doc_of("ingest", &[]);
        assert!(validate(spec, &doc, "t").is_ok());

        let mut missing = doc.clone();
        missing.retain(|(k, _)| k != "load_peak_per_file_byte");
        let err = validate(spec, &missing, "t").unwrap_err();
        assert!(err.contains("load_peak_per_file_byte"), "{err}");

        let err = validate(experiment("kernels").unwrap(), &doc, "t").unwrap_err();
        assert!(err.contains("tag"), "{err}");
    }

    #[test]
    fn identical_results_pass() {
        for (name, text) in BLESSED {
            let spec = experiment(name).unwrap();
            let doc = parse_flat_json(text).unwrap();
            let deltas = compare(spec, &doc, &doc, 0.15).unwrap();
            assert_eq!(deltas.len(), spec.gated.len());
            assert!(deltas.iter().all(|d| !d.regressed), "{name}");
        }
    }

    #[test]
    fn improvement_and_in_band_noise_pass() {
        let spec = experiment("kernels").unwrap();
        let base = doc_of("kernels", &[]);
        // +30% on one speedup, a 10% dip on another: fine.
        let fresh = doc_of("kernels", &[("kde_speedup", 13.0), ("column_sort_speedup", 9.0)]);
        assert!(compare(spec, &base, &fresh, 0.15).unwrap().iter().all(|d| !d.regressed));
        // A 40% speedup drop is run-to-run scheduler noise territory —
        // inside the widened (4× scale) timing band, so it passes too.
        let noisy = doc_of("kernels", &[("kde_speedup", 6.0)]);
        assert!(compare(spec, &base, &noisy, 0.15).unwrap().iter().all(|d| !d.regressed));
        // A deterministic ratio gets the base band: a 10% larger load
        // peak passes.
        let ingest = experiment("ingest").unwrap();
        let heavier = doc_of("ingest", &[("load_peak_per_file_byte", 11.0)]);
        let deltas = compare(ingest, &doc_of("ingest", &[]), &heavier, 0.15).unwrap();
        assert!(deltas.iter().all(|d| !d.regressed));
    }

    #[test]
    fn synthetic_regression_fails_the_gate() {
        let spec = experiment("kernels").unwrap();
        let base = parse_flat_json(BLESSED[1].1).unwrap();
        // The CI step injects exactly this: `kde_grid` falls back to the
        // direct sum's speed.
        let mut fresh = base.clone();
        for (k, v) in &mut fresh {
            if k == "kde_speedup" {
                *v = JsonValue::Num(1.01);
            }
        }
        let deltas = compare(spec, &base, &fresh, 0.15).unwrap();
        let bad: Vec<_> = deltas.iter().filter(|d| d.regressed).collect();
        assert_eq!(bad.len(), 1);
        assert_eq!(bad[0].metric, "kde_speedup");
        assert!(summary("kernels", &deltas, 0.15).contains("FAIL"));
    }

    #[test]
    fn summary_reports_percent_deltas() {
        let spec = experiment("ingest").unwrap();
        let base = doc_of("ingest", &[]);
        let deltas = compare(spec, &base, &base, 0.15).unwrap();
        let text = summary("ingest", &deltas, 0.15);
        assert!(text.contains("projection_speedup"), "{text}");
        assert!(text.contains("load_peak_per_file_byte"), "{text}");
        assert!(text.contains("verdict: pass"), "{text}");
        assert!(text.contains("+0.0%"), "{text}");
    }

    #[test]
    fn parallel_speedup_is_not_compared_across_hosts() {
        let spec = experiment("ingest").unwrap();
        let doc = |host_cores: f64, parallel_speedup: f64| {
            doc_of("ingest", &[("host_cores", host_cores), ("parallel_speedup", parallel_speedup)])
        };
        let of = delta_of;
        // Same host: a collapse from 1.6x to 0.5x fails the gate.
        let same = compare(spec, &doc(2.0, 1.6), &doc(2.0, 0.5), 0.15).unwrap();
        assert!(of(&same, "parallel_speedup").regressed);
        // 2 cores vs 8: the same numbers say nothing about the code. The
        // other ratios are still compared.
        let other = compare(spec, &doc(2.0, 1.6), &doc(8.0, 0.5), 0.15).unwrap();
        let speedup = of(&other, "parallel_speedup");
        assert!(!speedup.regressed);
        assert_eq!(speedup.hosts_differ, Some((2.0, 8.0)));
        assert_eq!(of(&other, "load_peak_per_file_byte").hosts_differ, None);
        assert!(summary("ingest", &other, 0.15).contains("not compared (host_cores 2 vs 8)"));
        // A file that never recorded its host is refused outright.
        let mut unrecorded = doc(2.0, 1.6);
        unrecorded.retain(|(k, _)| k != "host_cores");
        assert!(compare(spec, &unrecorded, &doc(2.0, 1.6), 0.15).unwrap_err().contains("host_cores"));
    }

    #[test]
    fn a_smaller_load_is_not_an_ingest_regression() {
        let spec = experiment("ingest").unwrap();
        let doc = |load_peak_per_file_byte: f64, staging_reduction: f64| {
            let set = [
                ("load_peak_per_file_byte", load_peak_per_file_byte),
                ("staging_reduction", staging_reduction),
            ];
            doc_of("ingest", &set)
        };
        // The load stops holding the frame twice: its peak per file byte
        // and its ratio to the streaming fold's peak both halve. Passes,
        // and the ratio is not gated at all.
        let smaller = compare(spec, &doc(2.4, 8.1), &doc(1.2, 4.1), 0.15).unwrap();
        assert!(smaller.iter().all(|d| !d.regressed), "{smaller:?}");
        assert!(smaller.iter().all(|d| d.metric != "staging_reduction"));
        // Holding it twice again fails.
        let larger = compare(spec, &doc(1.2, 4.1), &doc(2.4, 8.1), 0.15).unwrap();
        assert!(delta_of(&larger, "load_peak_per_file_byte").regressed);
        assert!(summary("ingest", &larger, 0.15).contains("FAIL"));
    }

    #[test]
    fn lower_is_better_band_inverts() {
        let spec = ExperimentSpec {
            name: "kernels",
            required: &["experiment", "missing_x_cached_us"],
            gated: &[MetricSpec {
                key: "missing_x_cached_us",
                higher_is_better: false,
                tolerance_scale: 1.0,
            }],
        };
        let base = doc_of("kernels", &[("missing_x_cached_us", 88.0)]);
        let slow = doc_of("kernels", &[("missing_x_cached_us", 88.0 * 1.5)]);
        assert!(compare(&spec, &base, &slow, 0.15).unwrap()[0].regressed);
        assert!(!compare(&spec, &base, &base, 0.15).unwrap()[0].regressed);
    }
}
