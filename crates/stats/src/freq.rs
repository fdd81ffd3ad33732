//! Frequency tables for categorical columns.
//!
//! Two forms. [`CodeCounts`] is what the engine computes: a dictionary-
//! encoded column is counted as a histogram over its codes, partials add
//! and subtract element by element, and strings are looked up only for
//! the few categories a chart shows. [`FreqTable`] is the string-keyed
//! map: the vocabulary of words [`crate::text::TextStats`] derives, the
//! chunk-to-chunk merge of the streaming sketches, the baseline
//! profiler's per-row kernel — and the oracle `CodeCounts` is tested
//! against. Both rank categories the same way (count descending, then
//! name) and sum entropy in that order, so they agree to the last bit.

use std::cmp::Ordering;
use std::collections::HashMap;

/// The order categories are shown in: most frequent first, ties by name.
fn rank(a: &(&str, u64), b: &(&str, u64)) -> Ordering {
    b.1.cmp(&a.1).then_with(|| a.0.cmp(b.0))
}

/// The `k` first of `entries` under `order`, in that order: a selection
/// in O(entries), then a sort of the `k` kept.
fn top_by<T>(mut entries: Vec<T>, k: usize, order: impl Fn(&T, &T) -> Ordering + Copy) -> Vec<T> {
    if k < entries.len() {
        entries.select_nth_unstable_by(k, order);
        entries.truncate(k);
    }
    entries.sort_unstable_by(order);
    entries
}

/// Shannon entropy (nats) of a distribution given as its counts, summed
/// in the order given. Callers pass the counts in descending order: a
/// float sum depends on its order, and that one is the same for every
/// representation of the same table.
pub fn entropy_of(counts: &[u64]) -> f64 {
    let total = counts.iter().sum::<u64>() as f64;
    if total == 0.0 {
        return 0.0;
    }
    counts
        .iter()
        .map(|&c| {
            let p = c as f64 / total;
            -p * p.ln()
        })
        .sum()
}

/// Frequency table of a dictionary-encoded column (or of some rows of
/// one): `counts[code]` occurrences of each dictionary entry. A
/// dictionary may hold entries the counted rows never use; a zero count
/// is not a category.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct CodeCounts {
    /// Occurrences per code.
    pub counts: Vec<u64>,
    /// Number of null rows observed alongside.
    pub nulls: u64,
}

impl CodeCounts {
    /// An all-zero table over a dictionary of `ncodes` entries.
    pub fn new(ncodes: usize) -> Self {
        CodeCounts { counts: vec![0; ncodes], nulls: 0 }
    }

    /// Count one occurrence of `code` (codes beyond the dictionary are
    /// not categories and are ignored).
    #[inline]
    pub fn push(&mut self, code: u32) {
        if let Some(n) = self.counts.get_mut(code as usize) {
            *n += 1;
        }
    }

    /// Occurrences of `code`.
    pub fn count(&self, code: u32) -> u64 {
        self.counts.get(code as usize).copied().unwrap_or(0)
    }

    /// Add a partial over the same dictionary, element by element.
    pub fn add(&mut self, other: &CodeCounts) {
        if self.counts.len() < other.counts.len() {
            self.counts.resize(other.counts.len(), 0);
        }
        for (mine, theirs) in self.counts.iter_mut().zip(&other.counts) {
            *mine += theirs;
        }
        self.nulls += other.nulls;
    }

    /// The table of the rows that remain once the rows counted in
    /// `dropped` (a subset of the rows counted here, over the same
    /// dictionary) are removed. Counts are integers, so this equals
    /// counting the remaining rows from scratch.
    pub fn minus(&self, dropped: &CodeCounts) -> CodeCounts {
        let mut out = self.clone();
        for (mine, theirs) in out.counts.iter_mut().zip(&dropped.counts) {
            *mine = mine.saturating_sub(*theirs);
        }
        out.nulls = out.nulls.saturating_sub(dropped.nulls);
        out
    }

    /// The codes that occur, with their counts, in code order.
    pub fn nonzero(&self) -> impl Iterator<Item = (u32, u64)> + '_ {
        (0u32..).zip(&self.counts).filter(|(_, &n)| n > 0).map(|(code, &n)| (code, n))
    }

    /// Number of distinct categories (codes that occur).
    pub fn distinct(&self) -> usize {
        self.nonzero().count()
    }

    /// Total non-null observations.
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// The `k` most frequent `(code, count)` pairs, ties broken by the
    /// category's name (`label(code)`), exactly as [`FreqTable::top_k`]
    /// orders them. Selects in O(distinct).
    pub fn top_k<'a>(&self, k: usize, label: impl Fn(u32) -> &'a str) -> Vec<(u32, u64)> {
        top_by(self.nonzero().collect(), k, |a: &(u32, u64), b: &(u32, u64)| {
            rank(&(label(a.0), a.1), &(label(b.0), b.1))
        })
    }

    /// Every category's count in descending order, without the names.
    pub fn counts_desc(&self) -> Vec<u64> {
        let mut counts: Vec<u64> = self.nonzero().map(|(_, n)| n).collect();
        counts.sort_unstable_by(|a, b| b.cmp(a));
        counts
    }

    /// Shannon entropy (nats) of the category distribution.
    pub fn entropy(&self) -> f64 {
        entropy_of(&self.counts_desc())
    }

    /// The same table keyed by name.
    pub fn to_table<'a>(&self, label: impl Fn(u32) -> &'a str) -> FreqTable {
        let mut table = FreqTable::new();
        for (code, n) in self.nonzero() {
            table.add(label(code), n);
        }
        table.nulls = self.nulls;
        table
    }
}

/// Bytes the table allocation of a std `HashMap` holding `capacity`
/// entries of `entry_bytes` each takes: one slot per bucket, padded to a
/// 16-byte group, plus a control byte per bucket and one group more. The
/// bucket count is a power of two with one slot in eight left free (one
/// slot in a table of fewer than eight buckets), so `capacity`, as
/// `HashMap::capacity` reports it, says how many buckets there are. What
/// the entries own elsewhere is not counted.
pub fn map_heap_bytes(capacity: usize, entry_bytes: usize) -> usize {
    let buckets = match capacity {
        0 => return 0,
        1..=7 => capacity + 1,
        _ => capacity / 7 * 8,
    };
    (buckets * entry_bytes).next_multiple_of(16) + buckets + 16
}

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

    /// Accumulate `n` occurrences of `category`.
    pub fn add(&mut self, category: &str, n: u64) {
        match self.counts.get_mut(category) {
            Some(count) => *count += n,
            None => {
                self.counts.insert(category.to_string(), n);
            }
        }
    }

    /// Heap bytes the table owns: its map and every category's string.
    pub fn heap_bytes(&self) -> usize {
        let entry = std::mem::size_of::<(String, u64)>();
        let names: usize = self.counts.keys().map(String::capacity).sum();
        map_heap_bytes(self.counts.capacity(), entry) + names
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

    /// Count for one category (0 when absent).
    pub fn count(&self, category: &str) -> u64 {
        self.counts.get(category).copied().unwrap_or(0)
    }

    /// The `k` most frequent `(category, count)` pairs, ties broken by
    /// category name so results are deterministic. Selects over borrowed
    /// keys in O(distinct) and clones only the `k` entries it returns.
    pub fn top_k(&self, k: usize) -> Vec<(String, u64)> {
        let top = top_by(self.iter().collect(), k, rank);
        top.into_iter().map(|(c, n)| (c.to_string(), n)).collect()
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

    /// Shannon entropy (nats) of the category distribution, summed over
    /// [`FreqTable::counts_desc`] — not in the map's iteration order,
    /// which differs from process to process.
    pub fn entropy(&self) -> f64 {
        entropy_of(&self.counts_desc())
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
        // `sample()` as counts per code over the dictionary a, b, c.
        let dict = ["a", "b", "c"];
        let label = |code: u32| dict[code as usize];
        let count = |rows: &[u32], nulls: u64| {
            let mut c = CodeCounts::new(dict.len());
            rows.iter().for_each(|&code| c.push(code));
            c.nulls = nulls;
            c
        };
        let before = count(&[0, 1, 0, 2, 0, 1], 1);
        assert_eq!(before.to_table(label), sample());
        let after = before.minus(&count(&[0, 2, 1, 1], 1));
        assert_eq!(after.to_table(label), FreqTable::from_iter(vec![Some("a"), Some("a")]));
        // "b" and "c" are gone, not present with a zero count.
        assert_eq!(after.distinct(), 1);
        assert!(after.to_table(label).iter().all(|(_, n)| n > 0));
        assert_eq!(after.nulls, 0);
        assert_eq!(before.minus(&CodeCounts::new(dict.len())), before);
        assert_eq!(before.minus(&before), CodeCounts::new(dict.len()));
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
    fn entropy_does_not_depend_on_insertion_order() {
        // Counts whose `-p ln p` terms round differently in different
        // sum orders; the map's own iteration order changes per process.
        let categories: Vec<(String, u64)> =
            (0..200u64).map(|i| (format!("c{i}"), 1 + i * i % 37 + i % 3)).collect();
        let fill = |order: &[(String, u64)]| {
            let mut t = FreqTable::new();
            for (c, n) in order {
                t.add(c, *n);
            }
            t
        };
        let forward = fill(&categories);
        let mut reversed = categories.clone();
        reversed.reverse();
        let mut shuffled = categories.clone();
        shuffled.sort_by_key(|(c, n)| (n % 7, c.len(), c.clone()));
        let want = forward.entropy().to_bits();
        assert_eq!(fill(&reversed).entropy().to_bits(), want);
        assert_eq!(fill(&shuffled).entropy().to_bits(), want);
        // And the same table as counts per code, in either code order.
        for order in [&categories, &reversed] {
            let codes = CodeCounts { counts: order.iter().map(|(_, n)| *n).collect(), nulls: 0 };
            assert_eq!(codes.entropy().to_bits(), want);
        }
    }

    #[test]
    fn code_counts_match_the_string_keyed_table() {
        // A dictionary with an entry no row uses ("unused") and two
        // entries that tie on count.
        let dict = ["b", "unused", "a", "", "ß"];
        let label = |code: u32| dict[code as usize];
        let rows = [0u32, 2, 2, 0, 3, 4, 4, 4];
        let mut codes = CodeCounts::new(dict.len());
        rows.iter().for_each(|&c| codes.push(c));
        codes.nulls = 2;
        codes.push(99); // not a category
        let mut table = FreqTable::from_iter(rows.iter().map(|&c| Some(label(c))));
        table.nulls = 2;
        assert_eq!(codes.to_table(label), table);
        assert_eq!((codes.distinct(), codes.total()), (table.distinct(), table.total()));
        assert_eq!(codes.counts_desc(), table.counts_desc());
        assert_eq!(codes.entropy().to_bits(), table.entropy().to_bits());
        for k in [0, 1, 2, 3, 4, 9] {
            let top: Vec<(String, u64)> =
                codes.top_k(k, label).into_iter().map(|(c, n)| (label(c).to_string(), n)).collect();
            assert_eq!(top, table.top_k(k), "k = {k}");
        }
        // Partials add and subtract element by element: dropping rows
        // leaves the table counted from the rows kept.
        let mut dropped = CodeCounts::new(dict.len());
        [2u32, 4, 4, 4].iter().for_each(|&c| dropped.push(c));
        dropped.nulls = 1;
        let after = codes.minus(&dropped);
        let mut kept = FreqTable::from_iter([0u32, 2, 0, 3].iter().map(|&c| Some(label(c))));
        kept.nulls = 1;
        assert_eq!(after.to_table(label), kept);
        assert_eq!(after.distinct(), 3, "ß is gone, not present with a zero count");
        let mut back = after.clone();
        back.add(&dropped);
        assert_eq!(back, codes);
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
