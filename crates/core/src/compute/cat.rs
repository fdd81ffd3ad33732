//! Categorical columns as codes.
//!
//! A categorical kernel never reads a string per row. A `Str` column is
//! already `u32` codes into its dictionary; a bool or low-cardinality
//! numeric column treated as categorical is turned into one per partition
//! ([`Column::display_encoded`]: each *distinct* value formatted once). Frequencies are
//! then a histogram over codes ([`CatFreq`]), grouping is a code → slot
//! table ([`Slots`]), and strings are looked up only for the handful of
//! categories a chart shows.

use std::borrow::Cow;
use std::collections::HashMap;
use std::sync::Arc;

use eda_dataframe::{Column, DictBuilder, Selection, StrDict};
use eda_stats::freq::{entropy_of, CodeCounts, FreqTable};
use eda_stats::hypothesis::chi_square_uniform;
use eda_stats::text::TextStats;

/// The codes and dictionary of a column [`Column::display_encoded`]
/// returned.
pub fn codes(column: &Column) -> (&[u32], &Arc<StrDict>) {
    column.str_codes().expect("an encoded column is a string column")
}

/// The codes of the non-null rows, in row order: the column's own buffer
/// when it has no nulls.
pub fn valid_codes(column: &Column) -> Cow<'_, [u32]> {
    let (all, _) = codes(column);
    match column.validity() {
        Some(bm) if !bm.all_set() => {
            let mut valid = Vec::with_capacity(bm.count_set());
            column.for_each_code_in(Selection::All, |code| valid.push(code)).expect("string column");
            Cow::Owned(valid)
        }
        _ => Cow::Borrowed(all),
    }
}

/// Text statistics of a column [`Column::display_encoded`] returned:
/// each distinct value that occurs is measured and tokenised once.
pub fn text_stats(column: &Column) -> TextStats {
    let (_, dict) = codes(column);
    TextStats::from_codes(&valid_codes(column), dict.len(), |code| dict.get(code).unwrap_or_default())
}

/// Every row's code, `None` for a null.
pub fn opt_codes(column: &Column) -> Box<dyn Iterator<Item = Option<u32>> + '_> {
    let (all, _) = codes(column);
    match column.validity() {
        None => Box::new(all.iter().map(|&code| Some(code))),
        Some(bm) => Box::new(all.iter().zip(bm.iter()).map(|(&code, valid)| valid.then_some(code))),
    }
}

/// Frequency table of a categorical column: occurrences per dictionary
/// code, and the dictionary. Partials over windows of one string column
/// share its dictionary (the same `Arc`) and add or subtract element by
/// element; partials whose dictionaries differ (each partition of a bool
/// or integer column interns its own display forms) are re-coded entry by
/// entry, never row by row.
#[derive(Debug, Clone)]
pub struct CatFreq {
    dict: Arc<StrDict>,
    counts: CodeCounts,
}

impl CatFreq {
    /// Count the rows `rows` selects of a column
    /// [`Column::display_encoded`] returned.
    pub fn of(column: &Column, rows: Selection<'_>) -> CatFreq {
        let (_, dict) = codes(column);
        let mut counts = CodeCounts::new(dict.len());
        let mut valid = 0;
        column
            .for_each_code_in(rows, |code| {
                counts.push(code);
                valid += 1;
            })
            .expect("string column");
        counts.nulls = (rows.count(column.len()) - valid) as u64;
        CatFreq { dict: Arc::clone(dict), counts }
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
                let code = dict.intern(part.label(code)) as usize;
                if counts.counts.len() <= code {
                    counts.counts.resize(code + 1, 0);
                }
                counts.counts[code] += n;
            }
        }
        *self = CatFreq { dict: Arc::new(dict.finish()), counts };
    }

    /// The table of the rows that remain once the rows counted in
    /// `dropped` (a subset of the rows counted here) are removed.
    pub fn minus(&self, dropped: &CatFreq) -> CatFreq {
        CatFreq { dict: Arc::clone(&self.dict), counts: self.counts.minus(&self.aligned(dropped)) }
    }

    /// Heap bytes this table keeps alive — what a byte budget should
    /// charge it: the counts, and the dictionary when nothing else holds
    /// it (a foreign-dictionary [`CatFreq::merge`] built it, or the
    /// per-partition encoding it counted is gone). A string column's own
    /// dictionary is the column's, shared by every partial over it.
    pub fn heap_bytes(&self) -> usize {
        let dict = if Arc::strong_count(&self.dict) == 1 { self.dict.heap_bytes() } else { 0 };
        self.counts.counts.capacity() * 8 + dict
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

    /// What a finished panel shows of this table: its `k` most frequent
    /// categories and its scalar statistics. The one O(distinct) pass over
    /// a table outside the kernels that count it — a selection, and a sort
    /// of the counts — so it runs as a task of its own
    /// ([`super::kernels::freq_summary`]) and a finish only formats.
    pub fn summary(&self, k: usize) -> FreqSummary {
        #[cfg(test)]
        SUMMARIES.with(|n| n.set(n.get() + 1));
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

    /// The same table keyed by name.
    pub fn to_table(&self) -> FreqTable {
        self.counts.to_table(|code| self.label(code))
    }
}

#[cfg(test)]
thread_local! {
    /// Summaries taken on this thread: how tests tell that a finish
    /// selected nothing.
    pub(crate) static SUMMARIES: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

/// What a categorical finish reads off a [`CatFreq`]: the most frequent
/// categories in [`FreqTable::top_k`] order and the table's scalar
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

    /// Heap bytes of the summary as a payload: itself (it is small enough
    /// for that to count) and its top list; its dictionary is the table's.
    pub fn heap_bytes(&self) -> usize {
        std::mem::size_of::<Self>() + self.top.capacity() * std::mem::size_of::<(u32, u64)>()
    }
}

/// Which of a short list of kept categories each code of a dictionary is:
/// the lookup grouped kernels do per row, filled in the first time a code
/// is seen (one comparison per kept category, then a table read).
pub struct Slots<'a> {
    dict: &'a StrDict,
    keep: &'a [String],
    slot: Vec<u32>,
}

const UNSEEN: u32 = u32::MAX;
const DROPPED: u32 = u32::MAX - 1;

impl<'a> Slots<'a> {
    /// No code looked up yet.
    pub fn new(dict: &'a StrDict, keep: &'a [String]) -> Self {
        Slots { dict, keep, slot: vec![UNSEEN; dict.len()] }
    }

    /// The position of `code`'s category in the kept list, if it is kept.
    #[inline]
    pub fn get(&mut self, code: u32) -> Option<usize> {
        let slot = self.slot.get_mut(code as usize)?;
        if *slot == UNSEEN {
            let label = self.dict.get(code);
            *slot = self.keep.iter().position(|k| Some(k.as_str()) == label).map_or(DROPPED, |at| at as u32);
        }
        (*slot != DROPPED).then_some(*slot as usize)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table(values: &[Option<&str>]) -> FreqTable {
        FreqTable::from_iter(values.iter().copied())
    }

    fn top(freq: &CatFreq, k: usize) -> Vec<(String, u64)> {
        freq.summary(k).top(k).map(|(label, n)| (label.to_string(), n)).collect()
    }

    fn pairs(want: &[(&str, u64)]) -> Vec<(String, u64)> {
        want.iter().map(|&(label, n)| (label.to_string(), n)).collect()
    }

    #[test]
    fn every_type_counts_by_the_codes_of_its_display_forms() {
        let flags = Column::from_opt_bool(vec![Some(true), None, Some(false), Some(true)]);
        let f = CatFreq::of(&flags.display_encoded(), Selection::All);
        assert_eq!(f.to_table(), table(&[Some("true"), None, Some("false"), Some("true")]));
        assert_eq!((f.nulls(), f.distinct(), f.total()), (1, 2, 3));
        let grades = Column::from_i64(vec![3, -1, 3, 3, 0]);
        assert_eq!(top(&CatFreq::of(&grades.display_encoded(), Selection::All), 2), pairs(&[("3", 3), ("-1", 1)]));
        // -0.0 and 0.0 are different values with different display forms;
        // NaNs of different payloads display alike and share a category.
        let floats = Column::from_f64(vec![0.0, -0.0, 2.5, f64::NAN, f64::from_bits(f64::NAN.to_bits() ^ 1)]);
        let f = CatFreq::of(&floats.display_encoded(), Selection::All);
        assert_eq!(f.to_table(), table(&[Some("0"), Some("-0"), Some("2.5"), Some("NaN"), Some("NaN")]));
    }

    #[test]
    fn foreign_dictionaries_merge_and_subtract_by_name() {
        // Two partitions of an integer column: each interns its own forms.
        let a = CatFreq::of(&Column::from_opt_i64(vec![Some(1), Some(2), Some(1), None]).display_encoded(), Selection::All);
        let b = CatFreq::of(&Column::from_i64(vec![3, 2, 2]).display_encoded(), Selection::All);
        let mut both = a.clone();
        both.merge(&b);
        let want = table(&[Some("1"), Some("2"), Some("1"), None, Some("3"), Some("2"), Some("2")]);
        assert_eq!(both.to_table(), want);
        let mut other_way = b.clone();
        other_way.merge(&a);
        assert_eq!(other_way.to_table(), want);
        assert_eq!(top(&both, 9), top(&other_way, 9));
        assert_eq!(both.minus(&b).to_table(), a.to_table());
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
        let column = Column::from_opt_string(
            ["b", "a", "c", "b", "", "a", "b"].iter().map(|v| (!v.is_empty()).then(|| v.to_string())).collect(),
        );
        let freq = CatFreq::of(&column, Selection::All);
        let want = freq.to_table();
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
    fn slots_find_the_kept_categories() {
        let column = Column::from_strs(&["b", "a", "c", "b"]);
        let (codes, dict) = codes(&column);
        let keep = vec!["c".to_string(), "b".to_string(), "absent".to_string()];
        let mut slots = Slots::new(dict, &keep);
        let found: Vec<Option<usize>> = codes.iter().map(|&c| slots.get(c)).collect();
        assert_eq!(found, [Some(1), None, Some(0), Some(1)]);
        assert_eq!(slots.get(99), None);
    }

    #[test]
    fn valid_codes_borrow_a_null_free_window() {
        let column = Column::from_opt_string(vec![Some("x".into()), None, Some("y".into()), Some("x".into())]);
        assert_eq!(valid_codes(&column).as_ref(), [0, 1, 0]);
        assert!(matches!(valid_codes(&column.slice(2, 2)), Cow::Borrowed([1, 0])));
        assert!(matches!(valid_codes(&column), Cow::Owned(_)));
    }
}
