//! Categorical columns as codes.
//!
//! A categorical kernel never reads a string per row. A `Str` column is
//! already `u32` codes into its dictionary; a bool or low-cardinality
//! numeric column treated as categorical is turned into one per partition
//! ([`Column::display_encoded`]: each *distinct* value formatted once). Frequencies are
//! then a histogram over codes (`eda_stats::freq::CatFreq`), grouping is a
//! code → slot table ([`Slots`]), and strings are looked up only for the
//! handful of categories a chart shows.

use std::borrow::Cow;
use std::sync::Arc;

use eda_dataframe::{Column, Selection, StrDict};
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
