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
use eda_stats::freq::{CodeCounts, FreqTable};
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

    /// Every category's count in descending order.
    pub fn counts_desc(&self) -> Vec<u64> {
        self.counts.counts_desc()
    }

    /// Shannon entropy (nats) of the category distribution.
    pub fn entropy(&self) -> f64 {
        self.counts.entropy()
    }

    /// The `k` most frequent `(category, count)` pairs, ties by name:
    /// the only place a table's strings are copied.
    pub fn top_k(&self, k: usize) -> Vec<(String, u64)> {
        let top = self.counts.top_k(k, |code| self.label(code));
        top.into_iter().map(|(code, n)| (self.label(code).to_string(), n)).collect()
    }

    /// The most frequent category and its count.
    pub fn mode(&self) -> Option<(String, u64)> {
        self.top_k(1).into_iter().next()
    }

    /// The `k` most frequent categories with their counts here and in
    /// `other` (a table of other rows of the same column).
    pub fn top_k_with(&self, k: usize, other: &CatFreq) -> Vec<(String, u64, u64)> {
        let theirs = self.aligned(other);
        let top = self.counts.top_k(k, |code| self.label(code));
        top.into_iter().map(|(code, n)| (self.label(code).to_string(), n, theirs.count(code))).collect()
    }

    /// The same table keyed by name.
    pub fn to_table(&self) -> FreqTable {
        self.counts.to_table(|code| self.label(code))
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

    #[test]
    fn every_type_counts_by_the_codes_of_its_display_forms() {
        let flags = Column::from_opt_bool(vec![Some(true), None, Some(false), Some(true)]);
        let f = CatFreq::of(&flags.display_encoded(), Selection::All);
        assert_eq!(f.to_table(), table(&[Some("true"), None, Some("false"), Some("true")]));
        assert_eq!((f.nulls(), f.distinct(), f.total()), (1, 2, 3));
        let grades = Column::from_i64(vec![3, -1, 3, 3, 0]);
        assert_eq!(CatFreq::of(&grades.display_encoded(), Selection::All).top_k(2), [("3".to_string(), 3), ("-1".to_string(), 1)]);
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
        assert_eq!(both.top_k(9), other_way.top_k(9));
        assert_eq!(both.minus(&b).to_table(), a.to_table());
        assert_eq!(both.minus(&both).distinct(), 0);
        assert_eq!(
            both.top_k_with(2, &b),
            [("2".to_string(), 3, 2), ("1".to_string(), 2, 0)]
        );
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
