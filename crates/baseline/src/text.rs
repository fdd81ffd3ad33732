//! String-keyed counting, row by row.
//!
//! Pandas-profiling counts a categorical column's values and words in
//! dictionaries keyed by the strings themselves: every row is looked up
//! (and hashed) on its own, every new category owns a `String`, and every
//! word of every value is split out as an owned token. This module is that
//! cost structure — the profiler's value frequencies and its length and
//! word statistics — kept apart from the engine's code-keyed tables.

use std::collections::HashMap;

use eda_stats::moments::Moments;

/// Occurrences per category, keyed by the category's string.
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

    /// Accumulate `n` occurrences of `category`.
    pub fn add(&mut self, category: &str, n: u64) {
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

    /// Number of distinct categories.
    pub fn distinct(&self) -> usize {
        self.counts.len()
    }

    /// Total non-null observations.
    pub fn total(&self) -> u64 {
        self.counts.values().sum()
    }

    /// The `k` most frequent `(category, count)` pairs, ties broken by
    /// category name: a selection over borrowed keys, then a sort of the
    /// `k` kept, which alone are cloned.
    pub fn top_k(&self, k: usize) -> Vec<(String, u64)> {
        let order = |a: &(&str, u64), b: &(&str, u64)| b.1.cmp(&a.1).then_with(|| a.0.cmp(b.0));
        let mut top: Vec<(&str, u64)> = self.counts.iter().map(|(c, &n)| (c.as_str(), n)).collect();
        if k < top.len() {
            top.select_nth_unstable_by(k, order);
            top.truncate(k);
        }
        top.sort_unstable_by(order);
        top.into_iter().map(|(c, n)| (c.to_string(), n)).collect()
    }
}

/// Lower-cased alphanumeric tokens of a string (split on everything
/// else), one `String` per token.
pub fn tokenize(text: &str) -> Vec<String> {
    let mut tokens = Vec::new();
    let mut cur = String::new();
    for ch in text.chars() {
        if ch.is_alphanumeric() {
            cur.extend(ch.to_lowercase());
        } else if !cur.is_empty() {
            tokens.push(std::mem::take(&mut cur));
        }
    }
    if !cur.is_empty() {
        tokens.push(cur);
    }
    tokens
}

/// A categorical column's length and word statistics, accumulated one row
/// at a time.
#[derive(Debug, Clone)]
pub struct TextProfile {
    /// Frequencies of individual words across all values.
    pub words: FreqTable,
    /// Distribution of string lengths (in chars).
    pub lengths: Moments,
    /// Number of values consisting solely of whitespace (or empty).
    pub blank: u64,
    /// Total number of non-null values.
    pub count: u64,
}

impl Default for TextProfile {
    fn default() -> Self {
        TextProfile { words: FreqTable::new(), lengths: Moments::new(), blank: 0, count: 0 }
    }
}

impl TextProfile {
    /// Accumulate one value; `None` is ignored.
    pub fn push(&mut self, value: Option<&str>) {
        let Some(v) = value else { return };
        self.count += 1;
        self.lengths.push(v.chars().count() as f64);
        if v.trim().is_empty() {
            self.blank += 1;
        }
        for token in tokenize(v) {
            self.words.push_owned(Some(token));
        }
    }

    /// Merge another partial.
    pub fn merge(&mut self, other: &TextProfile) {
        self.words.merge(&other.words);
        self.lengths.merge(&other.lengths);
        self.blank += other.blank;
        self.count += other.count;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_rows_and_words() {
        let mut t = TextProfile::default();
        for v in [Some("Red apple"), Some("green APPLE"), None, Some(""), Some("Crème brûlée")] {
            t.push(v);
        }
        assert_eq!((t.count, t.blank, t.lengths.count), (4, 1, 4));
        assert_eq!(t.words.top_k(2), [("apple".to_string(), 2), ("brûlée".to_string(), 1)]);
        assert_eq!((t.words.total(), t.words.distinct()), (6, 5));
        let mut merged = TextProfile::default();
        merged.push(Some("apple pie"));
        merged.merge(&t);
        assert_eq!(merged.words.top_k(1), [("apple".to_string(), 3)]);
        assert_eq!(merged.count, 5);
    }

    #[test]
    fn table_counts_nulls_and_breaks_ties_by_name() {
        let mut t = FreqTable::new();
        [Some("b"), Some("a"), None, Some("b"), Some("c"), Some("a")].into_iter().for_each(|v| t.push(v));
        t.push_owned(Some("c".to_string()));
        assert_eq!(t.top_k(9), [("a".to_string(), 2), ("b".to_string(), 2), ("c".to_string(), 2)]);
        assert_eq!((t.nulls, t.total(), t.distinct()), (1, 6, 3));
    }
}
