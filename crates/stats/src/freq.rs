//! Frequency tables for categorical columns.
//!
//! A [`FreqTable`] is a mergeable value → count map. It backs bar charts,
//! pie charts, distinct counts, mode detection, and the grouped statistics
//! of the bivariate categorical panels.

use std::collections::HashMap;

/// Mergeable frequency table over owned string categories.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FreqTable {
    counts: HashMap<String, u64>,
    /// Number of null entries observed alongside the categories.
    pub nulls: u64,
}

impl FreqTable {
    /// An empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Build from an iterator of optional categories.
    #[allow(clippy::should_implement_trait)]
    pub fn from_iter<'a, I: IntoIterator<Item = Option<&'a str>>>(values: I) -> Self {
        let mut t = FreqTable::new();
        for v in values {
            t.push(v);
        }
        t
    }

    /// Accumulate one value (`None` counts as null). The key is borrowed:
    /// a `String` is allocated only the first time a category is seen.
    pub fn push(&mut self, value: Option<&str>) {
        match value {
            Some(v) => self.add(v, 1),
            None => self.nulls += 1,
        }
    }

    /// Accumulate an owned value.
    pub fn push_owned(&mut self, value: Option<String>) {
        match value {
            Some(v) => *self.counts.entry(v).or_insert(0) += 1,
            None => self.nulls += 1,
        }
    }

    fn add(&mut self, category: &str, n: u64) {
        match self.counts.get_mut(category) {
            Some(count) => *count += n,
            None => {
                self.counts.insert(category.to_string(), n);
            }
        }
    }

    /// Merge another table into this one.
    pub fn merge(&mut self, other: &FreqTable) {
        for (k, v) in &other.counts {
            self.add(k, *v);
        }
        self.nulls += other.nulls;
    }

    /// The table of the rows that remain once the rows counted in
    /// `dropped` are removed. `dropped` must count a subset of the rows
    /// counted here; counts are integers, so the result equals counting
    /// the remaining rows from scratch — categories that reach zero
    /// disappear rather than linger with a zero count.
    pub fn minus(&self, dropped: &FreqTable) -> FreqTable {
        let mut out = self.clone();
        for (k, n) in &dropped.counts {
            match out.counts.get_mut(k) {
                Some(count) if *count > *n => *count -= n,
                _ => {
                    out.counts.remove(k);
                }
            }
        }
        out.nulls = out.nulls.saturating_sub(dropped.nulls);
        out
    }

    /// Number of distinct categories.
    pub fn distinct(&self) -> usize {
        self.counts.len()
    }

    /// Total non-null observations.
    pub fn total(&self) -> u64 {
        self.counts.values().sum()
    }

    /// Count for one category (0 when absent).
    pub fn count(&self, category: &str) -> u64 {
        self.counts.get(category).copied().unwrap_or(0)
    }

    /// The `k` most frequent `(category, count)` pairs, ties broken by
    /// category name so results are deterministic. Selects over borrowed
    /// keys in O(distinct) and clones only the `k` entries it returns.
    pub fn top_k(&self, k: usize) -> Vec<(String, u64)> {
        let rank = |a: &(&str, u64), b: &(&str, u64)| b.1.cmp(&a.1).then_with(|| a.0.cmp(b.0));
        let mut entries: Vec<(&str, u64)> = self.iter().collect();
        if k < entries.len() {
            entries.select_nth_unstable_by(k, rank);
            entries.truncate(k);
        }
        entries.sort_unstable_by(rank);
        entries.into_iter().map(|(c, n)| (c.to_string(), n)).collect()
    }

    /// Every category's count in descending order, without the names.
    pub fn counts_desc(&self) -> Vec<u64> {
        let mut counts: Vec<u64> = self.counts.values().copied().collect();
        counts.sort_unstable_by(|a, b| b.cmp(a));
        counts
    }

    /// The most frequent category and its count.
    pub fn mode(&self) -> Option<(String, u64)> {
        self.top_k(1).into_iter().next()
    }

    /// Iterate raw entries (unordered).
    pub fn iter(&self) -> impl Iterator<Item = (&str, u64)> {
        self.counts.iter().map(|(k, &v)| (k.as_str(), v))
    }

    /// Shannon entropy (nats) of the category distribution.
    pub fn entropy(&self) -> f64 {
        let total = self.total() as f64;
        if total == 0.0 {
            return 0.0;
        }
        self.counts
            .values()
            .map(|&c| {
                let p = c as f64 / total;
                -p * p.ln()
            })
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> FreqTable {
        FreqTable::from_iter(vec![
            Some("a"),
            Some("b"),
            Some("a"),
            None,
            Some("c"),
            Some("a"),
            Some("b"),
        ])
    }

    #[test]
    fn counts_and_nulls() {
        let t = sample();
        assert_eq!(t.count("a"), 3);
        assert_eq!(t.count("b"), 2);
        assert_eq!(t.count("missing"), 0);
        assert_eq!(t.nulls, 1);
        assert_eq!(t.total(), 6);
        assert_eq!(t.distinct(), 3);
    }

    #[test]
    fn top_k_is_ordered_and_deterministic() {
        let t = sample();
        assert_eq!(
            t.top_k(2),
            vec![("a".to_string(), 3), ("b".to_string(), 2)]
        );
        // Tie between b(2)… add c up to 2 and check name tie-break.
        let mut t2 = sample();
        t2.push(Some("c"));
        assert_eq!(
            t2.top_k(3),
            vec![
                ("a".to_string(), 3),
                ("b".to_string(), 2),
                ("c".to_string(), 2)
            ]
        );
    }

    #[test]
    fn top_k_selection_matches_a_full_sort() {
        // Many ties, k below, at and above the number of categories.
        let mut t = FreqTable::new();
        for i in 0..500u32 {
            t.push(Some(&format!("c{:03}", i * 7919 % 97)));
        }
        let mut full: Vec<(String, u64)> = t.iter().map(|(c, n)| (c.to_string(), n)).collect();
        full.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
        for k in [0, 1, 2, 10, 96, 97, 98, usize::MAX] {
            assert_eq!(t.top_k(k), full[..k.min(full.len())], "k = {k}");
        }
        assert_eq!(t.counts_desc(), full.iter().map(|(_, n)| *n).collect::<Vec<_>>());
    }

    #[test]
    fn minus_subtracts_counts_and_drops_emptied_categories() {
        let before = sample();
        let dropped = FreqTable::from_iter(vec![Some("a"), Some("c"), None, Some("b"), Some("b")]);
        let after = before.minus(&dropped);
        assert_eq!(after, FreqTable::from_iter(vec![Some("a"), Some("a")]));
        // "b" and "c" are gone, not present with a zero count.
        assert_eq!(after.distinct(), 1);
        assert!(after.iter().all(|(_, n)| n > 0));
        assert_eq!(after.nulls, 0);
        assert_eq!(before.minus(&FreqTable::new()), before);
        assert_eq!(before.minus(&before), FreqTable::new());
    }

    #[test]
    fn mode() {
        assert_eq!(sample().mode(), Some(("a".to_string(), 3)));
        assert_eq!(FreqTable::new().mode(), None);
    }

    #[test]
    fn merge_adds_counts() {
        let mut a = sample();
        let b = FreqTable::from_iter(vec![Some("a"), Some("d"), None]);
        a.merge(&b);
        assert_eq!(a.count("a"), 4);
        assert_eq!(a.count("d"), 1);
        assert_eq!(a.nulls, 2);
        assert_eq!(a.distinct(), 4);
    }

    #[test]
    fn merge_matches_single_pass() {
        let values: Vec<Option<String>> = (0..100)
            .map(|i| {
                if i % 7 == 0 {
                    None
                } else {
                    Some(format!("cat{}", i % 5))
                }
            })
            .collect();
        let whole = {
            let mut t = FreqTable::new();
            for v in &values {
                t.push(v.as_deref());
            }
            t
        };
        let mut merged = FreqTable::new();
        for chunk in values.chunks(13) {
            let mut part = FreqTable::new();
            for v in chunk {
                part.push(v.as_deref());
            }
            merged.merge(&part);
        }
        assert_eq!(merged, whole);
    }

    #[test]
    fn entropy_behaviour() {
        // Uniform over 4 categories: ln(4).
        let t = FreqTable::from_iter(vec![Some("a"), Some("b"), Some("c"), Some("d")]);
        assert!((t.entropy() - 4.0f64.ln()).abs() < 1e-12);
        // Constant column: zero entropy.
        let c = FreqTable::from_iter(vec![Some("x"), Some("x")]);
        assert_eq!(c.entropy(), 0.0);
        assert_eq!(FreqTable::new().entropy(), 0.0);
    }
}
