//! Frequency tables for categorical columns.
//!
//! Two forms. [`CodeCounts`] is what the engine computes: a dictionary-
//! encoded column is counted as a histogram over its codes, partials add
//! and subtract element by element, and strings are looked up only for
//! the few categories a chart shows. [`CatFreq`] is that histogram with
//! its dictionary: the one categorical partial, built over a column window
//! by [`CatFreq::of`] whether the window is a graph partition or a
//! streamed CSV chunk — and the word table of [`crate::text::TextStats`],
//! whose words are interned as codes too — and [`FreqSummary`] is what a
//! finish reads off it. Both rank categories the same way (count
//! descending, then name) and sum entropy in that order, so every
//! representation of one table agrees to the last bit.

use std::borrow::Cow;
use std::cmp::Ordering;
use std::collections::HashMap;
use std::sync::Arc;

use eda_dataframe::{Column, DictBuilder, HeapSize, Selection, StrDict};

use crate::hypothesis::chi_square_uniform;

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

    /// Count `n` occurrences of `code`, growing the table to hold it: the
    /// form for a dictionary that is still being interned.
    pub(crate) fn add_n(&mut self, code: u32, n: u64) {
        let code = code as usize;
        if self.counts.len() <= code {
            self.counts.resize(code + 1, 0);
        }
        if let Some(slot) = self.counts.get_mut(code) {
            *slot += n;
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
    /// category's name (`label(code)`). Selects in O(distinct).
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
}

/// Frequency table of a column: occurrences per dictionary code, and the
/// dictionary. Partials over windows of one string column share its
/// dictionary (the same `Arc`) and add or subtract element by element;
/// partials whose dictionaries differ (each partition of a bool or integer
/// column interns its own display forms, each CSV chunk its own strings)
/// are re-coded entry by entry, never row by row.
#[derive(Debug, Clone, Default)]
pub struct CatFreq {
    dict: Arc<StrDict>,
    counts: CodeCounts,
}

impl CatFreq {
    /// Count the rows `rows` selects of `column`, by the codes of its
    /// display forms ([`Column::display_encoded`]: a string column as it
    /// is, any other type with each distinct value formatted once).
    pub fn of(column: &Column, rows: Selection<'_>) -> CatFreq {
        let encoded = column.display_encoded();
        let dict = encoded.str_codes().map_or_else(Arc::default, |(_, dict)| Arc::clone(dict));
        let mut counts = CodeCounts::new(dict.len());
        let mut valid = 0;
        // An encoded column is a string column, so the visit cannot fail.
        let _ = encoded.for_each_code_in(rows, |code| {
            counts.push(code);
            valid += 1;
        });
        counts.nulls = rows.count(encoded.len()).saturating_sub(valid) as u64;
        CatFreq { dict, counts }
    }

    /// The table of `counts`, whose codes are the ones `dict` handed out.
    pub(crate) fn interned(dict: DictBuilder, counts: CodeCounts) -> CatFreq {
        CatFreq { dict: Arc::new(dict.finish()), counts }
    }

    fn label(&self, code: u32) -> &str {
        self.dict.get(code).unwrap_or_default()
    }

    /// `other`'s counts under this table's codes (categories this table's
    /// dictionary does not have are left out).
    fn aligned<'a>(&self, other: &'a CatFreq) -> Cow<'a, CodeCounts> {
        if Arc::ptr_eq(&self.dict, &other.dict) {
            return Cow::Borrowed(&other.counts);
        }
        let mine: HashMap<&str, u32> = self.dict.iter().zip(0u32..).collect();
        let mut counts = CodeCounts::new(self.dict.len());
        for (code, n) in other.counts.nonzero() {
            if let Some(slot) = mine.get(other.label(code)).and_then(|&c| counts.counts.get_mut(c as usize)) {
                *slot += n;
            }
        }
        counts.nulls = other.counts.nulls;
        Cow::Owned(counts)
    }

    /// Merge another partial into this one.
    pub fn merge(&mut self, other: &CatFreq) {
        if Arc::ptr_eq(&self.dict, &other.dict) {
            self.counts.add(&other.counts);
            return;
        }
        // Foreign dictionaries: one new dictionary of the categories in
        // use on either side.
        let mut dict = DictBuilder::new();
        let mut counts = CodeCounts { counts: Vec::new(), nulls: self.counts.nulls + other.counts.nulls };
        for part in [&*self, other] {
            for (code, n) in part.counts.nonzero() {
                counts.add_n(dict.intern(part.label(code)), n);
            }
        }
        *self = CatFreq::interned(dict, counts);
    }

    /// The table of the rows that remain once the rows counted in
    /// `dropped` (a subset of the rows counted here) are removed.
    pub fn minus(&self, dropped: &CatFreq) -> CatFreq {
        CatFreq { dict: Arc::clone(&self.dict), counts: self.counts.minus(&self.aligned(dropped)) }
    }

    /// Null rows observed alongside the categories.
    pub fn nulls(&self) -> u64 {
        self.counts.nulls
    }

    /// Number of distinct categories.
    pub fn distinct(&self) -> usize {
        self.counts.distinct()
    }

    /// Total non-null observations.
    pub fn total(&self) -> u64 {
        self.counts.total()
    }

    /// The `k` most frequent `(category, count)` pairs, ties by name: a
    /// selection in O(distinct) and no other statistic.
    pub fn top(&self, k: usize) -> Vec<(&str, u64)> {
        let top = self.counts.top_k(k, |code| self.label(code));
        top.into_iter().map(|(code, n)| (self.label(code), n)).collect()
    }

    /// What a finished panel shows of this table: its `k` most frequent
    /// categories and its scalar statistics. The one O(distinct) pass over
    /// a table outside the kernels that count it — a selection, and a sort
    /// of the counts — so the graph runs it as a task of its own
    /// (`freq_summary`) and a finish only formats.
    pub fn summary(&self, k: usize) -> FreqSummary {
        let mut top = self.counts.top_k(k, |code| self.label(code));
        top.shrink_to_fit();
        // Entropy and chi-square are float sums: descending, the one order
        // every representation of the same table shares.
        let desc = self.counts.counts_desc();
        FreqSummary {
            dict: Arc::clone(&self.dict),
            top,
            distinct: desc.len(),
            total: desc.iter().sum(),
            nulls: self.counts.nulls,
            entropy: entropy_of(&desc),
            chi_square: chi_square_uniform(&desc),
        }
    }

    /// This table's counts of the `k` most frequent categories of
    /// `summary` (of other rows of the same column), in its order: `k`
    /// reads when the two share a dictionary, one pass over the categories
    /// that occur here when they do not.
    pub fn counts_of(&self, summary: &FreqSummary, k: usize) -> Vec<u64> {
        let top = summary.top.iter().take(k);
        if Arc::ptr_eq(&self.dict, &summary.dict) {
            return top.map(|&(code, _)| self.counts.count(code)).collect();
        }
        let slots: HashMap<&str, usize> = summary.top(k).map(|(label, _)| label).zip(0..).collect();
        let mut counts = vec![0; slots.len()];
        for (code, n) in self.counts.nonzero() {
            if let Some(count) = slots.get(self.label(code)).and_then(|&slot| counts.get_mut(slot)) {
                *count += n;
            }
        }
        counts
    }
}

/// What a categorical finish reads off a [`CatFreq`]: the most frequent
/// categories in [`CatFreq::top`] order and the table's scalar
/// statistics. Small whatever the cardinality of the column.
#[derive(Debug, Clone)]
pub struct FreqSummary {
    dict: Arc<StrDict>,
    top: Vec<(u32, u64)>,
    /// Number of distinct categories.
    pub distinct: usize,
    /// Total non-null observations.
    pub total: u64,
    /// Null rows observed alongside the categories.
    pub nulls: u64,
    /// Shannon entropy (nats) of the category distribution.
    pub entropy: f64,
    /// Chi-square statistic against the uniform distribution and its
    /// degrees of freedom ([`chi_square_uniform`]).
    pub chi_square: Option<(f64, usize)>,
}

impl FreqSummary {
    /// The `k` most frequent `(category, count)` pairs, ties by name. `k`
    /// is at most what the summary was taken with.
    pub fn top(&self, k: usize) -> impl Iterator<Item = (&str, u64)> {
        debug_assert!(k <= self.top.len() || self.top.len() == self.distinct, "summary keeps {}", self.top.len());
        self.top.iter().take(k).map(|&(code, n)| (self.dict.get(code).unwrap_or_default(), n))
    }

    /// The names of the `k` most frequent categories: the strings a chart
    /// or a grouped kernel is handed.
    pub fn labels(&self, k: usize) -> Vec<String> {
        self.top(k).map(|(label, _)| label.to_string()).collect()
    }

    /// The most frequent category and its count.
    pub fn mode(&self) -> Option<(&str, u64)> {
        self.top(1).next()
    }
}

/// The counts, and the dictionary when nothing else holds it (a
/// foreign-dictionary [`CatFreq::merge`] built it, or the per-partition
/// encoding it counted is gone). A string column's own dictionary is the
/// column's, shared by every partial over it.
impl HeapSize for CatFreq {
    fn heap_bytes(&self) -> usize {
        self.counts.counts.heap_bytes() + self.dict.heap_bytes()
    }
}

/// The top list, and the dictionary when the summary alone holds it
/// (while the table lives, the dictionary is the table's).
impl HeapSize for FreqSummary {
    fn heap_bytes(&self) -> usize {
        self.top.heap_bytes() + self.dict.heap_bytes()
    }
}

#[cfg(test)]
mod tests {
    use crate::oracle::Counts;
    use super::*;

    const SAMPLE: [Option<&str>; 7] = [Some("a"), Some("b"), Some("a"), None, Some("c"), Some("a"), Some("b")];

    fn column(values: &[Option<&str>]) -> Column {
        Column::from_opt_string(values.iter().map(|v| v.map(str::to_string)).collect())
    }

    fn sample() -> CatFreq {
        CatFreq::of(&column(&SAMPLE), Selection::All)
    }

    /// The table as the oracle holds it: every category's count, read in
    /// `summary(usize::MAX)` order, and the nulls.
    fn table(freq: &CatFreq) -> Counts {
        Counts::from_entries(freq.summary(usize::MAX).top(usize::MAX), freq.nulls())
    }

    /// A code table as the oracle holds it, every code that occurs named.
    fn code_table<'a>(codes: &CodeCounts, label: impl Fn(u32) -> &'a str) -> Counts {
        Counts::from_entries(codes.nonzero().map(|(code, n)| (label(code), n)), codes.nulls)
    }

    fn owned(pairs: Vec<(&str, u64)>) -> Vec<(String, u64)> {
        pairs.into_iter().map(|(label, n)| (label.to_string(), n)).collect()
    }

    fn top(freq: &CatFreq, k: usize) -> Vec<(String, u64)> {
        freq.summary(k).top(k).map(|(label, n)| (label.to_string(), n)).collect()
    }

    fn pairs(want: &[(&str, u64)]) -> Vec<(String, u64)> {
        want.iter().map(|&(label, n)| (label.to_string(), n)).collect()
    }

    #[test]
    fn counts_and_nulls() {
        let t = sample();
        assert_eq!(table(&t), Counts::of(SAMPLE));
        assert_eq!(table(&t).count("a"), 3);
        assert_eq!(table(&t).count("missing"), 0);
        assert_eq!((t.nulls(), t.total(), t.distinct()), (1, 6, 3));
    }

    #[test]
    fn top_k_is_ordered_and_deterministic() {
        let t = sample();
        assert_eq!(owned(t.top(2)), pairs(&[("a", 3), ("b", 2)]));
        assert_eq!(top(&t, 2), owned(t.top(2)));
        // b and c tie at 2: the name decides.
        let mut tied = SAMPLE.to_vec();
        tied.push(Some("c"));
        let t2 = CatFreq::of(&column(&tied), Selection::All);
        assert_eq!(owned(t2.top(3)), pairs(&[("a", 3), ("b", 2), ("c", 2)]));
        assert_eq!(owned(t2.top(3)), Counts::of(tied).top_k(3));
    }

    #[test]
    fn top_k_selection_matches_a_full_sort() {
        // Many ties, k below, at and above the number of categories.
        let labels: Vec<String> = (0..500u32).map(|i| format!("c{:03}", i * 7919 % 97)).collect();
        let rows: Vec<Option<&str>> = labels.iter().map(|l| Some(l.as_str())).collect();
        let t = CatFreq::of(&column(&rows), Selection::All);
        let full = Counts::of(rows).ranked();
        for k in [0, 1, 2, 10, 96, 97, 98, usize::MAX] {
            assert_eq!(owned(t.top(k)), full[..k.min(full.len())], "k = {k}");
            assert_eq!(top(&t, k), full[..k.min(full.len())], "k = {k}");
        }
        let counts: Vec<u64> = full.iter().map(|(_, n)| *n).collect();
        assert_eq!(t.counts.counts_desc(), counts);
    }

    #[test]
    fn minus_subtracts_counts_and_drops_emptied_categories() {
        // `SAMPLE` as counts per code over the dictionary a, b, c.
        let dict = ["a", "b", "c"];
        let label = |code: u32| dict[code as usize];
        let count = |rows: &[u32], nulls: u64| {
            let mut c = CodeCounts::new(dict.len());
            rows.iter().for_each(|&code| c.push(code));
            c.nulls = nulls;
            c
        };
        let before = count(&[0, 1, 0, 2, 0, 1], 1);
        assert_eq!(code_table(&before, label), Counts::of(SAMPLE));
        let after = before.minus(&count(&[0, 2, 1, 1], 1));
        assert_eq!(code_table(&after, label), Counts::of([Some("a"), Some("a")]));
        // "b" and "c" are gone, not present with a zero count.
        assert_eq!(after.distinct(), 1);
        assert_eq!(after.nonzero().collect::<Vec<_>>(), [(0, 2)]);
        assert_eq!(after.nulls, 0);
        assert_eq!(before.minus(&CodeCounts::new(dict.len())), before);
        assert_eq!(before.minus(&before), CodeCounts::new(dict.len()));
    }

    #[test]
    fn mode() {
        assert_eq!(sample().summary(1).mode(), Some(("a", 3)));
        assert_eq!(CatFreq::of(&column(&[None, None]), Selection::All).summary(1).mode(), None);
        assert_eq!(CatFreq::default().summary(1).mode(), None);
    }

    #[test]
    fn merge_adds_counts() {
        let mut a = sample();
        let more = [Some("a"), Some("d"), None];
        a.merge(&CatFreq::of(&column(&more), Selection::All));
        let mut want = Counts::of(SAMPLE);
        want.merge(&Counts::of(more));
        assert_eq!(table(&a), want);
        assert_eq!((want.count("a"), want.count("d"), want.nulls, want.distinct()), (4, 1, 2, 4));
    }

    #[test]
    fn merge_matches_single_pass() {
        let values: Vec<Option<String>> =
            (0..100).map(|i| if i % 7 == 0 { None } else { Some(format!("cat{}", i % 5)) }).collect();
        let whole = Column::from_opt_string(values.clone());
        let want = Counts::of(values.iter().map(Option::as_deref));
        // Windows of the one column share its dictionary; columns of
        // their own each bring one.
        let mut shared = CatFreq::default();
        let mut foreign = CatFreq::default();
        for (i, chunk) in values.chunks(13).enumerate() {
            shared.merge(&CatFreq::of(&whole.slice(i * 13, chunk.len()), Selection::All));
            foreign.merge(&CatFreq::of(&Column::from_opt_string(chunk.to_vec()), Selection::All));
        }
        assert_eq!(table(&shared), want);
        assert_eq!(table(&foreign), want);
        assert_eq!(table(&CatFreq::of(&whole, Selection::All)), want);
    }

    #[test]
    fn entropy_does_not_depend_on_insertion_order() {
        // Counts whose `-p ln p` terms round differently in different
        // sum orders.
        let categories: Vec<(String, u64)> =
            (0..200u64).map(|i| (format!("c{i}"), 1 + i * i % 37 + i % 3)).collect();
        let want = Counts::from_entries(categories.iter().map(|(c, n)| (c, *n)), 0).entropy().to_bits();
        let mut reversed = categories.clone();
        reversed.reverse();
        let mut shuffled = categories.clone();
        shuffled.sort_by_key(|(c, n)| (n % 7, c.len(), c.clone()));
        for order in [&categories, &reversed, &shuffled] {
            let codes = CodeCounts { counts: order.iter().map(|(_, n)| *n).collect(), nulls: 0 };
            assert_eq!(codes.entropy().to_bits(), want);
            // The same table interned in this order, as a merge builds it.
            let mut dict = DictBuilder::new();
            let mut interned = CodeCounts::default();
            order.iter().for_each(|(c, n)| interned.add_n(dict.intern(c), *n));
            assert_eq!(CatFreq::interned(dict, interned).summary(0).entropy.to_bits(), want);
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
        let mut table = Counts::of(rows.iter().map(|&c| Some(label(c))));
        table.nulls = 2;
        assert_eq!(code_table(&codes, label), table);
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
        let mut kept = Counts::of([0u32, 2, 0, 3].iter().map(|&c| Some(label(c))));
        kept.nulls = 1;
        assert_eq!(code_table(&after, label), kept);
        assert_eq!(after.distinct(), 3, "ß is gone, not present with a zero count");
        let mut back = after.clone();
        back.add(&dropped);
        assert_eq!(back, codes);
        // A table still being interned grows to the codes it is given.
        let mut growing = CodeCounts::default();
        rows.iter().for_each(|&c| growing.add_n(c, 1));
        growing.nulls = 2;
        assert_eq!(code_table(&growing, label), table);
    }

    #[test]
    fn every_type_counts_by_the_codes_of_its_display_forms() {
        let flags = Column::from_opt_bool(vec![Some(true), None, Some(false), Some(true)]);
        let f = CatFreq::of(&flags, Selection::All);
        assert_eq!(table(&f), Counts::of([Some("true"), None, Some("false"), Some("true")]));
        assert_eq!((f.nulls(), f.distinct(), f.total()), (1, 2, 3));
        let grades = Column::from_i64(vec![3, -1, 3, 3, 0]);
        assert_eq!(top(&CatFreq::of(&grades, Selection::All), 2), pairs(&[("3", 3), ("-1", 1)]));
        // -0.0 and 0.0 are different values with different display forms;
        // NaNs of different payloads display alike and share a category.
        let floats = Column::from_f64(vec![0.0, -0.0, 2.5, f64::NAN, f64::from_bits(f64::NAN.to_bits() ^ 1)]);
        let f = CatFreq::of(&floats, Selection::All);
        assert_eq!(table(&f), Counts::of([Some("0"), Some("-0"), Some("2.5"), Some("NaN"), Some("NaN")]));
        // An encoded column counts as the column it encodes.
        assert_eq!(table(&CatFreq::of(&floats.display_encoded(), Selection::All)), table(&f));
    }

    #[test]
    fn foreign_dictionaries_merge_and_subtract_by_name() {
        // Two partitions of an integer column: each interns its own forms.
        let a = CatFreq::of(&Column::from_opt_i64(vec![Some(1), Some(2), Some(1), None]), Selection::All);
        let b = CatFreq::of(&Column::from_i64(vec![3, 2, 2]), Selection::All);
        let mut both = a.clone();
        both.merge(&b);
        let want = Counts::of([Some("1"), Some("2"), Some("1"), None, Some("3"), Some("2"), Some("2")]);
        assert_eq!(table(&both), want);
        let mut other_way = b.clone();
        other_way.merge(&a);
        assert_eq!(table(&other_way), want);
        assert_eq!(top(&both, 9), top(&other_way, 9));
        assert_eq!(table(&both.minus(&b)), table(&a));
        assert_eq!(both.minus(&both).distinct(), 0);
        // The counts elsewhere of a summary's top categories: by name
        // across dictionaries, by code within one.
        let summary = both.summary(2);
        assert_eq!(summary.top(2).collect::<Vec<_>>(), [("2", 3), ("1", 2)]);
        assert_eq!(b.counts_of(&summary, 2), [2, 0]);
        assert_eq!(a.counts_of(&summary, 1), [1]);
        assert_eq!(both.counts_of(&summary, 2), [3, 2]);
    }

    #[test]
    fn summary_is_the_table_a_finish_reads() {
        let values = ["b", "a", "c", "b", "", "a", "b"];
        let rows: Vec<Option<&str>> = values.iter().map(|v| (!v.is_empty()).then_some(*v)).collect();
        let column = column(&rows);
        let freq = CatFreq::of(&column, Selection::All);
        let want = Counts::of(rows);
        let s = freq.summary(2);
        assert_eq!(top(&freq, 2), pairs(&[("b", 3), ("a", 2)]));
        assert_eq!(s.mode(), Some(("b", 3)));
        assert_eq!((s.distinct, s.total, s.nulls), (3, 6, 1));
        assert_eq!(s.entropy.to_bits(), want.entropy().to_bits());
        assert_eq!(s.chi_square, chi_square_uniform(&want.counts_desc()));
        // Asking for more than there is gives all there is.
        assert_eq!(top(&freq, 99), pairs(&[("b", 3), ("a", 2), ("c", 1)]));
        // No row at all (`Rows::NullIn` of a column without nulls):
        // nothing to show, and no statistic to divide by.
        let none = CatFreq::of(&column, Column::from_i64(vec![0; 7]).null_rows()).summary(5);
        assert_eq!((none.top(5).count(), none.mode(), none.distinct, none.total), (0, None, 0, 0));
        assert_eq!((none.entropy, none.chi_square), (0.0, None));
    }

    #[test]
    fn entropy_behaviour() {
        let entropy = |values: &[Option<&str>]| CatFreq::of(&column(values), Selection::All).summary(0).entropy;
        // Uniform over 4 categories: ln(4).
        assert!((entropy(&[Some("a"), Some("b"), Some("c"), Some("d")]) - 4.0f64.ln()).abs() < 1e-12);
        // Constant column: zero entropy.
        assert_eq!(entropy(&[Some("x"), Some("x")]), 0.0);
        assert_eq!(entropy(&[]), 0.0);
        assert_eq!(CodeCounts::default().entropy(), 0.0);
    }
}
