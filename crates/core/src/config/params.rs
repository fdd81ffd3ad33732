//! The parameter registry: one row per configurable key.
//!
//! A row names its key, its default, its how-to line and the [`Config`]
//! field it sets. `Config::default`, `Config::set`, both config hashes
//! and the how-to guide (paper Figure 1, part D) all read this one table,
//! so none of them can drift from another.

use std::hash::{Hash, Hasher};

use super::Config;
use crate::error::{EdaError, EdaResult};

/// Descriptor of one configuration parameter.
#[derive(Debug, Clone, Copy)]
pub struct ParamSpec {
    /// The `section.key` string accepted by `Config::set`.
    pub key: &'static str,
    /// Default value, formatted as `Config::set` takes it.
    pub default: &'static str,
    /// One-line description shown in the how-to guide.
    pub description: &'static str,
    /// The field the key sets.
    pub(crate) slot: fn(&mut Config) -> Slot<'_>,
}

/// Rows compare by key, which is unique: function pointers have no
/// reliable equality.
impl PartialEq for ParamSpec {
    fn eq(&self, other: &Self) -> bool {
        self.key == other.key
    }
}

impl Eq for ParamSpec {}

/// A [`Config`] field, typed by how a value for it is parsed.
pub(crate) enum Slot<'a> {
    /// A count; a smaller value is raised to the floor.
    Count(&'a mut usize, usize),
    /// A thread count: `cores` (the host's available parallelism, 1 when
    /// unknown) or a count of at least 1.
    Workers(&'a mut usize),
    /// A duration in milliseconds.
    Millis(&'a mut u64),
    /// A real number.
    Number(&'a mut f64),
    /// `true` or `false`.
    Flag(&'a mut bool),
}

impl Slot<'_> {
    /// Parse `value`, trimmed, into the field; an error names `key`.
    pub(crate) fn set(self, key: &str, value: &str) -> EdaResult<()> {
        let bad = |expected: &str| EdaError::Config {
            key: key.to_string(),
            message: format!("expected {expected}, got {value:?}"),
        };
        let count = |v: &str| v.parse::<usize>().map_err(|_| bad("a non-negative integer"));
        match (self, value.trim()) {
            (Slot::Count(field, floor), v) => *field = count(v)?.max(floor),
            (Slot::Workers(field), "cores") => *field = eda_taskgraph::scheduler::cores(),
            (Slot::Workers(field), v) => *field = count(v)?.max(1),
            (Slot::Millis(field), v) => *field = count(v)? as u64,
            (Slot::Number(field), v) => *field = v.parse().map_err(|_| bad("a number"))?,
            (Slot::Flag(field), "true" | "True") => *field = true,
            (Slot::Flag(field), "false" | "False") => *field = false,
            (Slot::Flag(_), _) => return Err(bad("true/false")),
        }
        Ok(())
    }

    /// Feed the field to a config hash: an integer or flag by its `Hash`,
    /// a number by its bits.
    pub(crate) fn hash(self, h: &mut impl Hasher) {
        match self {
            Slot::Count(field, _) | Slot::Workers(field) => field.hash(h),
            Slot::Millis(field) => field.hash(h),
            Slot::Number(field) => h.write_u64(field.to_bits()),
            Slot::Flag(field) => field.hash(h),
        }
    }
}

/// Every configurable parameter.
pub const PARAMS: &[ParamSpec] = &[
    ParamSpec { key: "hist.bins", default: "50", description: "Number of histogram bins" , slot: |c| Slot::Count(&mut c.hist.bins, 1) },
    ParamSpec { key: "kde.grid", default: "200", description: "Grid resolution of the KDE curve" , slot: |c| Slot::Count(&mut c.kde.grid, 2) },
    ParamSpec { key: "qq.points", default: "100", description: "Maximum points on the normal Q-Q plot" , slot: |c| Slot::Count(&mut c.qq.points, 2) },
    ParamSpec { key: "box.max_outliers", default: "50", description: "Maximum outlier points drawn per box" , slot: |c| Slot::Count(&mut c.box_plot.max_outliers, 0) },
    ParamSpec { key: "box.bins", default: "10", description: "Number of x-bins for the binned box plot" , slot: |c| Slot::Count(&mut c.box_plot.bins, 1) },
    ParamSpec { key: "box.ngroups", default: "10", description: "Maximum category groups in the categorical box plot" , slot: |c| Slot::Count(&mut c.box_plot.ngroups, 1) },
    ParamSpec { key: "bar.ngroups", default: "10", description: "Number of bars; remaining categories group into 'Other'" , slot: |c| Slot::Count(&mut c.bar.ngroups, 1) },
    ParamSpec { key: "pie.slices", default: "6", description: "Number of pie slices; remaining categories group into 'Other'" , slot: |c| Slot::Count(&mut c.pie.slices, 1) },
    ParamSpec { key: "word.top", default: "30", description: "Number of top words in the word cloud / frequency table" , slot: |c| Slot::Count(&mut c.word.top, 1) },
    ParamSpec { key: "scatter.sample", default: "1000", description: "Maximum points drawn in a scatter plot" , slot: |c| Slot::Count(&mut c.scatter.sample, 1) },
    ParamSpec { key: "hexbin.gridsize", default: "20", description: "Number of hexagons across the x-range" , slot: |c| Slot::Count(&mut c.hexbin.gridsize, 2) },
    ParamSpec { key: "crosstab.ngroups_x", default: "10", description: "Category groups on the x side of heat map / nested / stacked bars" , slot: |c| Slot::Count(&mut c.crosstab.ngroups_x, 1) },
    ParamSpec { key: "crosstab.ngroups_y", default: "5", description: "Category groups on the y side of heat map / nested / stacked bars" , slot: |c| Slot::Count(&mut c.crosstab.ngroups_y, 1) },
    ParamSpec { key: "line.ngroups", default: "5", description: "Number of lines in the multi-line chart" , slot: |c| Slot::Count(&mut c.line.ngroups, 1) },
    ParamSpec { key: "line.bins", default: "20", description: "Histogram bins along the numeric axis of the multi-line chart" , slot: |c| Slot::Count(&mut c.line.bins, 1) },
    ParamSpec { key: "spectrum.bins", default: "20", description: "Row bins of the missing spectrum" , slot: |c| Slot::Count(&mut c.spectrum.bins, 1) },
    ParamSpec { key: "ts.points", default: "100", description: "Resampled points on the time-series line" , slot: |c| Slot::Count(&mut c.ts.points, 2) },
    ParamSpec { key: "ts.window", default: "7", description: "Rolling-mean window (in resampled points)" , slot: |c| Slot::Count(&mut c.ts.window, 1) },
    ParamSpec { key: "ts.max_lag", default: "24", description: "Maximum autocorrelation lag" , slot: |c| Slot::Count(&mut c.ts.max_lag, 1) },
    ParamSpec { key: "violin.enabled", default: "false", description: "Add a violin plot to the univariate numeric panel" , slot: |c| Slot::Flag(&mut c.violin.enabled) },
    ParamSpec { key: "insight.missing", default: "0.05", description: "Missing-rate fraction that triggers the missing insight" , slot: |c| Slot::Number(&mut c.insight.missing) },
    ParamSpec { key: "insight.skew", default: "1.0", description: "|skewness| that triggers the skewed insight" , slot: |c| Slot::Number(&mut c.insight.skew) },
    ParamSpec { key: "insight.uniform_p", default: "0.99", description: "Chi-square p-value above which a distribution is flagged uniform" , slot: |c| Slot::Number(&mut c.insight.uniform_p) },
    ParamSpec { key: "insight.high_cardinality", default: "0.5", description: "Distinct fraction that triggers the high-cardinality insight" , slot: |c| Slot::Number(&mut c.insight.high_cardinality) },
    ParamSpec { key: "insight.correlation", default: "0.8", description: "|r| that triggers the highly-correlated insight" , slot: |c| Slot::Number(&mut c.insight.correlation) },
    ParamSpec { key: "insight.outlier", default: "0.05", description: "Outlier fraction that triggers the outlier insight" , slot: |c| Slot::Number(&mut c.insight.outlier) },
    ParamSpec { key: "insight.similarity_ks", default: "0.05", description: "KS distance below which two distributions count as similar" , slot: |c| Slot::Number(&mut c.insight.similarity_ks) },
    ParamSpec { key: "insight.infinite", default: "0.0", description: "Infinite-value fraction that triggers the infinite insight" , slot: |c| Slot::Number(&mut c.insight.infinite) },
    ParamSpec { key: "insight.zeros", default: "0.5", description: "Zero fraction that triggers the zeros insight" , slot: |c| Slot::Number(&mut c.insight.zeros) },
    ParamSpec { key: "insight.negatives", default: "0.0", description: "Negative fraction that triggers the negatives insight" , slot: |c| Slot::Number(&mut c.insight.negatives) },
    ParamSpec { key: "insight.trend", default: "0.3", description: "Normalized |trend slope| that triggers the trend insight" , slot: |c| Slot::Number(&mut c.insight.trend) },
    ParamSpec { key: "insight.autocorr", default: "0.5", description: "|autocorrelation| that triggers the autocorrelated insight" , slot: |c| Slot::Number(&mut c.insight.autocorr) },
    ParamSpec { key: "types.low_cardinality", default: "10", description: "Max distinct values for an integer column to be categorical" , slot: |c| Slot::Count(&mut c.types.low_cardinality, 0) },
    ParamSpec { key: "engine.workers", default: "cores", description: "Worker threads; changes speed only: the frame's partitions, and so every printed number, are the same at any count" , slot: |c| Slot::Workers(&mut c.engine.workers) },
    ParamSpec { key: "engine.sample_rows", default: "0", description: "Compute on ~this many sampled rows when the frame is larger (0 = exact)" , slot: |c| Slot::Count(&mut c.engine.sample_rows, 0) },
    ParamSpec { key: "engine.task_deadline_ms", default: "0", description: "Per-task wall-clock budget in ms; an over-budget task degrades only its own section and the rest of the report completes, where a run deadline stops everything still queued (0 = unlimited)" , slot: |c| Slot::Millis(&mut c.engine.task_deadline_ms) },
    ParamSpec { key: "engine.profile", default: "false", description: "Trace every task and add a Performance tab (worker Gantt, slowest tasks) to HTML output" , slot: |c| Slot::Flag(&mut c.engine.profile) },
    ParamSpec { key: "engine.cache_budget_bytes", default: "268435456", description: "Byte budget for the cross-call result cache; LRU-evicted past it (0 = caching off)" , slot: |c| Slot::Count(&mut c.engine.cache_budget_bytes, 0) },
    ParamSpec { key: "engine.run_deadline_ms", default: "0", description: "Whole-run wall-clock deadline in ms; cancels in-flight work cooperatively (0 = unlimited)" , slot: |c| Slot::Millis(&mut c.engine.run_deadline_ms) },
    ParamSpec { key: "display.width", default: "450", description: "Figure width in pixels" , slot: |c| Slot::Count(&mut c.display.width, 50) },
    ParamSpec { key: "display.height", default: "300", description: "Figure height in pixels" , slot: |c| Slot::Count(&mut c.display.height, 50) },
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
        match default {
            "cores" => eda_taskgraph::scheduler::cores().to_string(),
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

    /// A row's section decides which hash its field feeds. Keys outside
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
                cfg.thresholds_hash() != base.thresholds_hash(),
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
