//! Text statistics for categorical columns.
//!
//! The univariate-categorical panel (paper Figure 2, row 2, case C) shows a
//! word cloud, word frequencies, and string-length statistics. This module
//! provides the tokenization and the mergeable length/word accumulator,
//! built once per distinct value of a dictionary-encoded column. Words are
//! interned as codes: the word table is a [`CatFreq`], counted, merged and
//! ranked like any categorical column's.

use crate::freq::{CatFreq, CodeCounts};
use crate::moments::Moments;
use eda_dataframe::{DictBuilder, HeapSize};

/// Lend `each` every token of `text` — its lower-cased alphanumeric runs,
/// split on every other character — one at a time, without a `String` per
/// token: a token of an ASCII text that is already lower-case is a slice
/// of it, any other is built in the one buffer `token`.
fn for_each_token(text: &str, token: &mut String, mut each: impl FnMut(&str)) {
    if text.is_ascii() {
        // Bytes are characters: split on non-alphanumerics, and a word
        // needs the buffer only to fold its capitals.
        for word in text.split(|c: char| !c.is_ascii_alphanumeric()).filter(|w| !w.is_empty()) {
            if word.bytes().any(|b| b.is_ascii_uppercase()) {
                token.clear();
                token.push_str(word);
                token.make_ascii_lowercase();
                each(token);
            } else {
                each(word);
            }
        }
        return;
    }
    token.clear();
    for ch in text.chars() {
        if ch.is_alphanumeric() {
            token.extend(ch.to_lowercase());
        } else if !token.is_empty() {
            each(token);
            token.clear();
        }
    }
    if !token.is_empty() {
        each(token);
    }
}

/// Mergeable accumulator for string-column text statistics.
#[derive(Debug, Clone, Default)]
pub struct TextStats {
    /// Frequencies of individual words across all values, by word code.
    pub words: CatFreq,
    /// Distribution of string lengths (in chars).
    pub lengths: Moments,
    /// Number of values consisting solely of whitespace (or empty).
    pub blank: u64,
    /// Total number of non-null values.
    pub count: u64,
}

impl TextStats {
    /// An empty accumulator.
    pub fn new() -> Self {
        TextStats { lengths: Moments::new(), ..Default::default() }
    }

    /// The statistics of a dictionary-encoded column: `codes` holds the
    /// code of every non-null row, in row order, and `label(code)` is the
    /// string it stands for (of `ncodes` dictionary entries). Each
    /// *distinct* string that occurs is measured and tokenised once, its
    /// words are interned and its words and blank flag weighted by its
    /// count; the per-row lengths still go through the sketch one by one,
    /// in row order ([`Moments::extend`]), so `lengths` is the per-row
    /// sketch to the bit.
    pub fn from_codes<'a>(codes: &[u32], ncodes: usize, label: impl Fn(u32) -> &'a str) -> TextStats {
        let mut counts = CodeCounts::new(ncodes);
        codes.iter().for_each(|&code| counts.push(code));
        let mut t = TextStats::new();
        let mut lengths = vec![0.0; ncodes];
        let mut token = String::new();
        let (mut dict, mut words) = (DictBuilder::new(), CodeCounts::default());
        for (code, n) in counts.nonzero() {
            let v = label(code);
            if let Some(len) = lengths.get_mut(code as usize) {
                *len = v.chars().count() as f64;
            }
            if v.trim().is_empty() {
                t.blank += n;
            }
            for_each_token(v, &mut token, |word| words.add_n(dict.intern(word), n));
            t.count += n;
        }
        t.words = CatFreq::interned(dict, words);
        t.lengths.extend(codes.iter().filter_map(|&code| lengths.get(code as usize).copied()));
        t
    }

    /// Merge another partial.
    pub fn merge(&mut self, other: &TextStats) {
        self.words.merge(&other.words);
        self.lengths.merge(&other.lengths);
        self.blank += other.blank;
        self.count += other.count;
    }

    /// Total words observed.
    pub fn total_words(&self) -> u64 {
        self.words.total()
    }

    /// Distinct words observed.
    pub fn distinct_words(&self) -> usize {
        self.words.distinct()
    }

    /// The `k` most frequent words, ties by word.
    pub fn top_words(&self, k: usize) -> Vec<(String, u64)> {
        self.words.top(k).into_iter().map(|(word, n)| (word.to_string(), n)).collect()
    }
}

/// Its word table.
impl HeapSize for TextStats {
    fn heap_bytes(&self) -> usize {
        self.words.heap_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::{tokens, word_counts, Counts};

    /// What `for_each_token` lends, collected.
    fn lent(text: &str) -> Vec<String> {
        let mut seen = Vec::new();
        for_each_token(text, &mut String::from("stale"), |t| seen.push(t.to_string()));
        seen
    }

    /// The statistics of `values` (`None` is a null) through a dictionary
    /// of their own, in first-appearance order.
    fn of<'a>(values: &[Option<&'a str>]) -> TextStats {
        let mut dict: Vec<&'a str> = Vec::new();
        let mut code = |v: &'a str| match dict.iter().position(|d| *d == v) {
            Some(at) => at as u32,
            None => {
                dict.push(v);
                dict.len() as u32 - 1
            }
        };
        let codes: Vec<u32> = values.iter().flatten().map(|&v| code(v)).collect();
        TextStats::from_codes(&codes, dict.len(), |code| dict[code as usize])
    }

    /// The per-row statistics of `values`: words from the oracle's owned
    /// tokens, lengths handed over row by row.
    fn per_row(values: &[Option<&str>]) -> (Counts, Moments, u64, u64) {
        let mut lengths = Moments::new();
        let valid = || values.iter().flatten();
        lengths.extend(valid().map(|v| v.chars().count() as f64));
        let blank = valid().filter(|v| v.trim().is_empty()).count() as u64;
        (word_counts(values.iter().copied()), lengths, blank, valid().count() as u64)
    }

    /// Every word's count, read in `top_words` order, against the oracle's.
    fn assert_words(t: &TextStats, want: &Counts) {
        assert_eq!(t.top_words(usize::MAX), want.ranked());
        assert_eq!((t.total_words(), t.distinct_words()), (want.total(), want.distinct()));
        assert_eq!(t.words.nulls(), 0);
    }

    #[test]
    fn tokenize_splits_and_lowercases() {
        assert_eq!(lent("Hello, World!"), vec!["hello", "world"]);
        assert_eq!(lent("a-b_c d"), vec!["a", "b", "c", "d"]);
        assert_eq!(lent("  "), Vec::<String>::new());
        assert_eq!(lent("year2024"), vec!["year2024"]);
    }

    #[test]
    fn tokenize_unicode() {
        assert_eq!(lent("Crème brûlée"), vec!["crème", "brûlée"]);
    }

    #[test]
    fn stats_accumulate() {
        let t = of(&[Some("red apple"), Some("green apple"), None, Some("")]);
        assert_eq!(t.count, 3);
        assert_eq!(t.blank, 1);
        assert_eq!(t.total_words(), 4);
        assert_eq!(t.distinct_words(), 3);
        assert_eq!(t.top_words(1), vec![("apple".to_string(), 2)]);
        assert_eq!(t.lengths.count, 3);
        assert_eq!(t.lengths.max, 11.0);
    }

    #[test]
    fn merge_matches_single_pass() {
        let values = [Some("one two"), Some("two three"), Some("three three four")];
        let whole = of(&values);
        let mut merged = TextStats::new();
        for v in values {
            merged.merge(&of(&[v]));
        }
        assert_eq!(merged.count, whole.count);
        assert_words(&merged, &word_counts(values));
        assert_words(&whole, &word_counts(values));
        assert_eq!(merged.lengths.count, whole.lengths.count);
        assert!((merged.lengths.mean - whole.lengths.mean).abs() < 1e-12);
    }

    #[test]
    fn from_codes_equals_pushing_every_row() {
        // Duplicates, an entry no row uses, blank and empty values, and
        // characters whose lower-casing is longer than they are.
        let dict = ["Red apple", "never used", "  ", "", "İstanbul STRASSE ß", "red-apple pie", "x"];
        let rows = [0u32, 4, 0, 2, 3, 5, 0, 4, 6, 2, 5, 5];
        let label = |code: u32| dict[code as usize];
        let mut values: Vec<Option<&str>> = rows.iter().map(|&code| Some(label(code))).collect();
        values.push(None);
        let (words, lengths, blank, count) = per_row(&values);
        let fast = TextStats::from_codes(&rows, dict.len(), label);
        assert_words(&fast, &words);
        assert_eq!((fast.blank, fast.count), (blank, count));
        assert_eq!(fast.lengths, lengths);
        assert_eq!(fast.lengths.mean.to_bits(), lengths.mean.to_bits());
        assert!(fast.top_words(usize::MAX).iter().all(|(w, _)| w != "never"));
        assert_eq!(fast.top_words(2), words.top_k(2));
        // No rows at all.
        let empty = TextStats::from_codes(&[], dict.len(), label);
        assert_eq!((empty.count, empty.total_words(), empty.lengths.count), (0, 0, 0));
    }

    #[test]
    fn for_each_token_lends_what_tokenize_returns() {
        for text in [
            "Hello, World!",
            "a-b_c d",
            "  ",
            "",
            "year2024",
            "MiXeD case AND lower",
            "trailing ",
            "Crème brûlée",
            "İß ǅ",
            "ascii then É",
        ] {
            assert_eq!(lent(text), tokens(text), "{text:?}");
        }
    }

    #[test]
    fn length_stats_in_chars_not_bytes() {
        let t = of(&[Some("été")]); // 3 chars, 5 bytes
        assert_eq!(t.lengths.max, 3.0);
    }
}
