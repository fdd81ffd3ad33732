//! The parameter registry: one descriptor per configurable key.
//!
//! The how-to guide (paper Figure 1, part D) is generated from this table,
//! so documentation can never drift from what [`super::Config::set`]
//! actually accepts.

/// Descriptor of one configuration parameter.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ParamSpec {
    /// The `section.key` string accepted by `Config::set`.
    pub key: &'static str,
    /// Default value, formatted.
    pub default: &'static str,
    /// One-line description shown in the how-to guide.
    pub description: &'static str,
}

/// Every configurable parameter.
pub const PARAMS: &[ParamSpec] = &[
    ParamSpec { key: "hist.bins", default: "50", description: "Number of histogram bins" },
    ParamSpec { key: "kde.grid", default: "200", description: "Grid resolution of the KDE curve" },
    ParamSpec { key: "qq.points", default: "100", description: "Maximum points on the normal Q-Q plot" },
    ParamSpec { key: "box.max_outliers", default: "50", description: "Maximum outlier points drawn per box" },
    ParamSpec { key: "box.bins", default: "10", description: "Number of x-bins for the binned box plot" },
    ParamSpec { key: "box.ngroups", default: "10", description: "Maximum category groups in the categorical box plot" },
    ParamSpec { key: "bar.ngroups", default: "10", description: "Number of bars; remaining categories group into 'Other'" },
    ParamSpec { key: "pie.slices", default: "6", description: "Number of pie slices; remaining categories group into 'Other'" },
    ParamSpec { key: "word.top", default: "30", description: "Number of top words in the word cloud / frequency table" },
    ParamSpec { key: "scatter.sample", default: "1000", description: "Maximum points drawn in a scatter plot" },
    ParamSpec { key: "hexbin.gridsize", default: "20", description: "Number of hexagons across the x-range" },
    ParamSpec { key: "crosstab.ngroups_x", default: "10", description: "Category groups on the x side of heat map / nested / stacked bars" },
    ParamSpec { key: "crosstab.ngroups_y", default: "5", description: "Category groups on the y side of heat map / nested / stacked bars" },
    ParamSpec { key: "line.ngroups", default: "5", description: "Number of lines in the multi-line chart" },
    ParamSpec { key: "line.bins", default: "20", description: "Histogram bins along the numeric axis of the multi-line chart" },
    ParamSpec { key: "spectrum.bins", default: "20", description: "Row bins of the missing spectrum" },
    ParamSpec { key: "ts.points", default: "100", description: "Resampled points on the time-series line" },
    ParamSpec { key: "ts.window", default: "7", description: "Rolling-mean window (in resampled points)" },
    ParamSpec { key: "ts.max_lag", default: "24", description: "Maximum autocorrelation lag" },
    ParamSpec { key: "violin.enabled", default: "false", description: "Add a violin plot to the univariate numeric panel" },
    ParamSpec { key: "insight.missing", default: "0.05", description: "Missing-rate fraction that triggers the missing insight" },
    ParamSpec { key: "insight.skew", default: "1.0", description: "|skewness| that triggers the skewed insight" },
    ParamSpec { key: "insight.uniform_p", default: "0.99", description: "Chi-square p-value above which a distribution is flagged uniform" },
    ParamSpec { key: "insight.high_cardinality", default: "0.5", description: "Distinct fraction that triggers the high-cardinality insight" },
    ParamSpec { key: "insight.correlation", default: "0.8", description: "|r| that triggers the highly-correlated insight" },
    ParamSpec { key: "insight.outlier", default: "0.05", description: "Outlier fraction that triggers the outlier insight" },
    ParamSpec { key: "insight.similarity_ks", default: "0.05", description: "KS distance below which two distributions count as similar" },
    ParamSpec { key: "insight.infinite", default: "0.0", description: "Infinite-value fraction that triggers the infinite insight" },
    ParamSpec { key: "insight.zeros", default: "0.5", description: "Zero fraction that triggers the zeros insight" },
    ParamSpec { key: "insight.negatives", default: "0.0", description: "Negative fraction that triggers the negatives insight" },
    ParamSpec { key: "insight.trend", default: "0.3", description: "Normalized |trend slope| that triggers the trend insight" },
    ParamSpec { key: "insight.autocorr", default: "0.5", description: "|autocorrelation| that triggers the autocorrelated insight" },
    ParamSpec { key: "types.low_cardinality", default: "10", description: "Max distinct values for an integer column to be categorical" },
    ParamSpec { key: "engine.workers", default: "cores", description: "Worker threads; changes speed only: the frame's partitions, and so every printed number, are the same at any count" },
    ParamSpec { key: "engine.sample_rows", default: "0", description: "Compute on ~this many sampled rows when the frame is larger (0 = exact)" },
    ParamSpec { key: "engine.task_deadline_ms", default: "0", description: "Per-task wall-clock budget in ms; an over-budget task degrades only its own section and the rest of the report completes, where a run deadline stops everything still queued (0 = unlimited)" },
    ParamSpec { key: "engine.profile", default: "false", description: "Trace every task and add a Performance tab (worker Gantt, slowest tasks) to HTML output" },
    ParamSpec { key: "engine.cache_budget_bytes", default: "268435456", description: "Byte budget for the cross-call result cache; LRU-evicted past it (0 = caching off)" },
    ParamSpec { key: "engine.run_deadline_ms", default: "0", description: "Whole-run wall-clock deadline in ms; cancels in-flight work cooperatively (0 = unlimited)" },
    ParamSpec { key: "display.width", default: "450", description: "Figure width in pixels" },
    ParamSpec { key: "display.height", default: "300", description: "Figure height in pixels" },
];

/// Look up one parameter's descriptor.
pub fn describe(key: &str) -> Option<&'static ParamSpec> {
    PARAMS.iter().find(|p| p.key == key)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Config;

    #[test]
    fn every_registered_key_is_settable() {
        let mut cfg = Config::default();
        for p in PARAMS {
            // Use a valid value per type family.
            let value = if p.key.starts_with("insight.") {
                "0.5"
            } else if p.key.ends_with("profile") || p.key == "violin.enabled" {
                "true"
            } else {
                "7"
            };
            cfg.set(p.key, value)
                .unwrap_or_else(|e| panic!("{}: {e}", p.key));
        }
    }

    /// A default as `Config::set` takes it: `cores` resolved on the
    /// running host.
    fn resolved(default: &str) -> String {
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        match default {
            "cores" => cores.to_string(),
            d => d.to_string(),
        }
    }

    /// A value of the key's type other than its default.
    fn changed(spec: &ParamSpec) -> String {
        let default = resolved(spec.default);
        if let Ok(b) = default.parse::<bool>() {
            (!b).to_string()
        } else if let Ok(n) = default.parse::<usize>() {
            (n + 3).to_string()
        } else {
            let x: f64 = default.parse().unwrap_or_else(|_| panic!("{}: {default}", spec.key));
            (x + 0.125).to_string()
        }
    }

    /// A key is declared in the registry, `Config::set`, its field, the
    /// hashes and `Default`: this ties them together. Keys outside
    /// `insight.*`, `engine.*` and `display.*` change what is computed,
    /// so `compute_hash`; `insight.*` keys change only the thresholds a
    /// section node's key mixes in; `engine.*` and `display.*` neither.
    #[test]
    fn every_key_changes_the_hash_of_its_role() {
        let base = Config::default();
        for p in PARAMS {
            let mut cfg = Config::default();
            cfg.set(p.key, &changed(p)).unwrap();
            assert_ne!(cfg, base, "{}: setting it changes nothing", p.key);
            let roles = (
                cfg.compute_hash() != base.compute_hash(),
                cfg.insight.thresholds_hash() != base.insight.thresholds_hash(),
            );
            let expected = match p.key.split('.').next() {
                Some("insight") => (false, true),
                Some("engine" | "display") => (false, false),
                _ => (true, false),
            };
            assert_eq!(roles, expected, "{}: (compute_hash, thresholds_hash) moved", p.key);
        }
    }

    #[test]
    fn every_default_is_the_default_config() {
        for p in PARAMS {
            let mut cfg = Config::default();
            cfg.set(p.key, &resolved(p.default)).unwrap();
            assert_eq!(cfg, Config::default(), "{} = {}", p.key, p.default);
        }
    }

    #[test]
    fn describe_finds_keys() {
        assert!(describe("hist.bins").is_some());
        assert_eq!(describe("hist.bins").unwrap().default, "50");
        assert!(describe("made.up").is_none());
    }

    #[test]
    fn keys_are_unique() {
        for (i, a) in PARAMS.iter().enumerate() {
            for b in &PARAMS[i + 1..] {
                assert_ne!(a.key, b.key);
            }
        }
    }
}
