//! The metric tables — the single source `BENCHMARK.json` is generated
//! from (`--emit-benchmark-json`) — and the JSON the benchmark prints.

use dataprep_eda::core::json::JsonWriter;

use crate::workload::WORKLOADS;

/// How long one run measures, in seconds.
pub const RUN_SECONDS: u64 = 20;

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub higher_is_better: bool,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
}

/// What a user of the system sees. Every bound is the contract's largest:
/// ten runs on this host spread (quartile distance over median) by up to
/// 0.10 on the timing metrics even at nominal host speed, and input-
/// dependent allocation moves `peak_rss_mb` by 0.08, so no tighter bound
/// is three times the spread. `fail_frac` is not listed: its bound is zero
/// and so is its value, and the result line already carries `attempted`
/// and `failed`.
pub const END_TO_END: [EndToEnd; 5] = [
    EndToEnd {
        name: "wall_ms_p50",
        unit: "ms",
        higher_is_better: false,
        bound: 0.25,
    },
    EndToEnd {
        name: "wall_ms_p90",
        unit: "ms",
        higher_is_better: false,
        bound: 0.25,
    },
    EndToEnd {
        name: "rows_per_s",
        unit: "1/s",
        higher_is_better: true,
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        higher_is_better: false,
        bound: 0.25,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        higher_is_better: false,
        bound: 0.25,
    },
];

/// `(name, unit, higher is better)` of every per-layer metric, grouped by
/// the crate the layer is. Times are per op (per session, summed over its
/// calls, on `interactive_session`); a metric a workload does not exercise
/// reads 0 there.
pub const PER_LAYER: [(&str, &str, bool); 58] = [
    ("io.load_ms", "ms", false),
    ("io.load_mb_per_s", "MB/s", true),
    ("io.read_edaf_ms", "ms", false),
    ("io.edaf_project_ms", "ms", false),
    ("io.stream_overview_ms", "ms", false),
    ("io.csv_parallel_speedup", "ratio", true),
    ("io.convert_ms", "ms", false),
    ("io.edaf_bytes_per_csv_byte", "ratio", false),
    ("dataframe.read_csv_ms", "ms", false),
    ("dataframe.write_csv_ms", "ms", false),
    ("core.detect_ms", "ms", false),
    ("core.call_ms", "ms", false),
    ("core.outside_graph_ms", "ms", false),
    ("core.outside_graph_frac", "ratio", false),
    ("core.sections_failed", "count", false),
    ("core.within_500ms_frac", "ratio", true),
    ("core.plot_df_ms", "ms", false),
    ("core.plot_x_ms", "ms", false),
    ("core.plot_xy_ms", "ms", false),
    ("core.corr_df_ms", "ms", false),
    ("core.corr_x_ms", "ms", false),
    ("core.corr_xy_ms", "ms", false),
    ("core.missing_df_ms", "ms", false),
    ("core.missing_x_ms", "ms", false),
    ("core.missing_xy_ms", "ms", false),
    ("core.report_warm_ms", "ms", false),
    ("core.reissue_ms", "ms", false),
    ("taskgraph.exec_ms", "ms", false),
    ("taskgraph.tasks_run", "count", false),
    ("taskgraph.cse_hits", "count", true),
    ("taskgraph.pruned", "count", true),
    ("taskgraph.cache_hit_rate", "ratio", true),
    ("taskgraph.cache_evictions", "count", false),
    ("taskgraph.tasks_failed", "count", false),
    ("taskgraph.busy_ms", "ms", false),
    ("taskgraph.queue_wait_ms", "ms", false),
    ("taskgraph.worker_util", "ratio", true),
    ("taskgraph.critical_path_ms", "ms", false),
    ("stats.corrprep_ms", "ms", false),
    ("stats.corrmatrix_ms", "ms", false),
    ("stats.moments_ms", "ms", false),
    ("stats.histogram_ms", "ms", false),
    ("stats.sorted_ms", "ms", false),
    ("stats.freq_ms", "ms", false),
    ("stats.text_ms", "ms", false),
    ("stats.nullity_ms", "ms", false),
    ("stats.compare_ms", "ms", false),
    ("stats.kendall_pair_ms", "ms", false),
    ("render.html_ms", "ms", false),
    ("render.html_bytes", "count", false),
    ("render.write_ms", "ms", false),
    ("baseline.profile_ms", "ms", false),
    ("baseline.speedup", "ratio", true),
    ("process.overhead_ms", "ms", false),
    ("bench.trace_overhead_frac", "ratio", false),
    ("bench.attributed_frac", "ratio", true),
    ("bench.ops_traced", "count", true),
    ("bench.host_slowdown", "ratio", false),
];

fn better(higher: bool) -> &'static str {
    if higher {
        "higher"
    } else {
        "lower"
    }
}

/// The contents of the repository's `BENCHMARK.json`.
pub fn benchmark_json() -> String {
    let q = JsonWriter::string;
    let workloads: Vec<String> = WORKLOADS
        .iter()
        .map(|w| format!("    {{\"name\": {}, \"why\": {}}}", q(w.name), q(w.why)))
        .collect();
    let end_to_end: Vec<String> = END_TO_END
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": {}, \"unit\": {}, \"better\": {}, \"bound\": {}}}",
                q(m.name),
                q(m.unit),
                q(better(m.higher_is_better)),
                m.bound
            )
        })
        .collect();
    let per_layer: Vec<String> = PER_LAYER
        .iter()
        .map(|(name, unit, higher)| {
            format!(
                "    {{\"name\": {}, \"unit\": {}, \"better\": {}}}",
                q(name),
                q(unit),
                q(better(*higher))
            )
        })
        .collect();
    format!(
        "{{\n  \"command\": [\"cargo\", \"run\", \"--release\", \"--offline\", \"--quiet\", \
         \"--manifest-path\", \"bench/e2e/Cargo.toml\", \"--\"],\n  \"paths\": [\"bench/e2e\"],\n  \
         \"run_seconds\": {RUN_SECONDS},\n  \"workloads\": [\n{}\n  ],\n  \"end_to_end\": [\n{}\n  ],\n  \
         \"per_layer\": [\n{}\n  ]\n}}\n",
        workloads.join(",\n"),
        end_to_end.join(",\n"),
        per_layer.join(",\n")
    )
}

/// One measured value.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// `{"name": {"value": v, "unit": "u"}, ...}` with every digit measured.
pub fn metrics_json(metrics: &[Metric]) -> String {
    let fields: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                JsonWriter::string(&m.name),
                JsonWriter::number(m.value),
                JsonWriter::string(m.unit)
            )
        })
        .collect();
    format!("{{{}}}", fields.join(", "))
}

/// The result line the driver reads.
pub fn result_json(correct: bool, attempted: usize, failed: usize, metrics: &[Metric]) -> String {
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {}}}",
        metrics_json(metrics)
    )
}

#[cfg(test)]
pub mod tests {
    use super::*;

    /// A reader for the subset of JSON this crate writes: objects, strings,
    /// numbers, `true`/`false`/`null`. Test-only; it exists to show that
    /// what the writer emits parses back to what went in.
    #[derive(Debug, PartialEq)]
    pub enum Json {
        Null,
        Bool(bool),
        Num(f64),
        Str(String),
        Obj(Vec<(String, Json)>),
    }

    pub fn parse(text: &str) -> Json {
        let chars: Vec<char> = text.chars().collect();
        let mut pos = 0;
        let value = parse_value(&chars, &mut pos);
        skip_ws(&chars, &mut pos);
        assert_eq!(pos, chars.len(), "trailing input");
        value
    }

    fn skip_ws(c: &[char], pos: &mut usize) {
        while c.get(*pos).is_some_and(|ch| ch.is_whitespace()) {
            *pos += 1;
        }
    }

    fn parse_value(c: &[char], pos: &mut usize) -> Json {
        skip_ws(c, pos);
        match c[*pos] {
            '{' => {
                *pos += 1;
                let mut fields = Vec::new();
                loop {
                    skip_ws(c, pos);
                    if c[*pos] == '}' {
                        *pos += 1;
                        return Json::Obj(fields);
                    }
                    if c[*pos] == ',' {
                        *pos += 1;
                        continue;
                    }
                    let Json::Str(key) = parse_value(c, pos) else {
                        panic!("key must be a string")
                    };
                    skip_ws(c, pos);
                    assert_eq!(c[*pos], ':');
                    *pos += 1;
                    fields.push((key, parse_value(c, pos)));
                }
            }
            '"' => {
                *pos += 1;
                let mut out = String::new();
                loop {
                    let ch = c[*pos];
                    *pos += 1;
                    match ch {
                        '"' => return Json::Str(out),
                        '\\' => {
                            let esc = c[*pos];
                            *pos += 1;
                            out.push(match esc {
                                'n' => '\n',
                                'r' => '\r',
                                't' => '\t',
                                'u' => {
                                    let hex: String = c[*pos..*pos + 4].iter().collect();
                                    *pos += 4;
                                    char::from_u32(u32::from_str_radix(&hex, 16).unwrap()).unwrap()
                                }
                                other => other,
                            });
                        }
                        ch => {
                            assert!(ch as u32 >= 0x20, "raw control character in string");
                            out.push(ch);
                        }
                    }
                }
            }
            _ => {
                let start = *pos;
                while c
                    .get(*pos)
                    .is_some_and(|ch| !matches!(ch, ',' | '}' | ':') && !ch.is_whitespace())
                {
                    *pos += 1;
                }
                let word: String = c[start..*pos].iter().collect();
                match word.as_str() {
                    "null" => Json::Null,
                    "true" => Json::Bool(true),
                    "false" => Json::Bool(false),
                    n => Json::Num(n.parse().unwrap_or_else(|_| panic!("bad number {n:?}"))),
                }
            }
        }
    }

    #[test]
    fn result_line_round_trips_with_hostile_names() {
        let hostile = "p50 \"quoted\" \\ back\nnew\ttab \u{1} ctl é";
        let metrics = vec![
            Metric {
                name: hostile.into(),
                value: 1_234.567_890_123,
                unit: "ms",
            },
            Metric {
                name: "rows_per_s".into(),
                value: 9.5e6,
                unit: "1/s",
            },
            Metric {
                name: "undefined".into(),
                value: f64::NAN,
                unit: "ratio",
            },
        ];
        let line = result_json(true, 17, 0, &metrics);
        assert!(!line.contains('\n'), "the result must stay on one line");
        let Json::Obj(top) = parse(&line) else {
            panic!("not an object")
        };
        assert_eq!(top[0], ("correct".into(), Json::Bool(true)));
        assert_eq!(top[1], ("attempted".into(), Json::Num(17.0)));
        assert_eq!(top[2], ("failed".into(), Json::Num(0.0)));
        let Json::Obj(parsed) = &top[3].1 else {
            panic!("metrics is not an object")
        };
        assert_eq!(parsed.len(), 3);
        assert_eq!(parsed[0].0, hostile);
        assert_eq!(
            parsed[0].1,
            Json::Obj(vec![
                ("value".into(), Json::Num(1_234.567_890_123)),
                ("unit".into(), Json::Str("ms".into()))
            ])
        );
        assert_eq!(
            parsed[2].1,
            Json::Obj(vec![
                ("value".into(), Json::Null),
                ("unit".into(), Json::Str("ratio".into()))
            ])
        );
    }

    #[test]
    fn metric_names_are_unique_and_within_the_contract() {
        let mut names: Vec<&str> = END_TO_END.iter().map(|m| m.name).collect();
        names.extend(PER_LAYER.iter().map(|(n, _, _)| *n));
        names.extend(WORKLOADS.iter().map(|w| w.name));
        for n in &names {
            assert!(
                n.len() <= 64
                    && n.chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
                "{n}"
            );
        }
        let count = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), count);
        for w in &WORKLOADS {
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }
        for m in &END_TO_END {
            assert!(m.bound > 0.0 && m.bound <= 0.25);
        }
        assert!(END_TO_END
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s" && !m.higher_is_better));
    }

    #[test]
    fn committed_benchmark_json_is_what_the_tables_generate() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCHMARK.json");
        let committed =
            std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        assert_eq!(
            committed,
            benchmark_json(),
            "regenerate with `-- --emit-benchmark-json > BENCHMARK.json`"
        );
    }
}
