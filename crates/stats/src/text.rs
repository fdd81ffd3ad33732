//! Text statistics for categorical columns.
//!
//! The univariate-categorical panel (paper Figure 2, row 2, case C) shows a
//! word cloud, word frequencies, and string-length statistics. This module
//! provides the tokenization and the mergeable length/word accumulators.

use crate::freq::{CodeCounts, FreqTable};
use crate::moments::Moments;

/// Lowercased alphanumeric tokens of a string (split on everything else).
/// The per-row form: one `String` per token. [`TextStats::from_codes`]
/// reads the same tokens through `for_each_token` and is tested against
/// this.
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

/// Lend `each` every token of `text` ([`tokenize`]'s), one at a time,
/// without a `String` per token: a token of an ASCII text that is already
/// lower-case is a slice of it, any other is built in the one buffer
/// `token`.
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
    /// Frequencies of individual words across all values.
    pub words: FreqTable,
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

    /// Bytes the accumulator takes as a payload: itself and its word
    /// table.
    pub fn heap_bytes(&self) -> usize {
        std::mem::size_of::<Self>() + self.words.heap_bytes()
    }

    /// Accumulate one value; `None` is ignored (nulls are tracked by the
    /// frequency-table kernel, not here).
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

    /// The statistics of a dictionary-encoded column: `codes` holds the
    /// code of every non-null row, in row order, and `label(code)` is the
    /// string it stands for (of `ncodes` dictionary entries). Equal to
    /// [`TextStats::push`]ing every row's string — `lengths` to the bit,
    /// since the per-row lengths still go through the sketch one by one,
    /// in row order — but each *distinct* string that occurs is measured
    /// and tokenised once, and its words and blank flag are weighted by
    /// its count.
    pub fn from_codes<'a>(codes: &[u32], ncodes: usize, label: impl Fn(u32) -> &'a str) -> TextStats {
        let mut counts = CodeCounts::new(ncodes);
        codes.iter().for_each(|&code| counts.push(code));
        let mut t = TextStats::new();
        let mut lengths = vec![0.0; ncodes];
        let mut token = String::new();
        for (code, n) in counts.nonzero() {
            let v = label(code);
            if let Some(len) = lengths.get_mut(code as usize) {
                *len = v.chars().count() as f64;
            }
            if v.trim().is_empty() {
                t.blank += n;
            }
            for_each_token(v, &mut token, |word| t.words.add(word, n));
            t.count += n;
        }
        for len in codes.iter().filter_map(|&code| lengths.get(code as usize)) {
            t.lengths.push(*len);
        }
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

    /// The `k` most frequent words.
    pub fn top_words(&self, k: usize) -> Vec<(String, u64)> {
        self.words.top_k(k)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tokenize_splits_and_lowercases() {
        assert_eq!(tokenize("Hello, World!"), vec!["hello", "world"]);
        assert_eq!(tokenize("a-b_c d"), vec!["a", "b", "c", "d"]);
        assert_eq!(tokenize("  "), Vec::<String>::new());
        assert_eq!(tokenize("year2024"), vec!["year2024"]);
    }

    #[test]
    fn tokenize_unicode() {
        assert_eq!(tokenize("Crème brûlée"), vec!["crème", "brûlée"]);
    }

    #[test]
    fn stats_accumulate() {
        let mut t = TextStats::new();
        t.push(Some("red apple"));
        t.push(Some("green apple"));
        t.push(None);
        t.push(Some(""));
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
        let values = ["one two", "two three", "three three four"];
        let whole = {
            let mut t = TextStats::new();
            for v in values {
                t.push(Some(v));
            }
            t
        };
        let mut merged = TextStats::new();
        for v in values {
            let mut part = TextStats::new();
            part.push(Some(v));
            merged.merge(&part);
        }
        assert_eq!(merged.count, whole.count);
        assert_eq!(merged.words, whole.words);
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
        let mut pushed = TextStats::new();
        for &code in &rows {
            pushed.push(Some(label(code)));
        }
        pushed.push(None);
        let fast = TextStats::from_codes(&rows, dict.len(), label);
        assert_eq!(fast.words, pushed.words);
        assert_eq!((fast.blank, fast.count), (pushed.blank, pushed.count));
        assert_eq!(fast.lengths, pushed.lengths);
        assert_eq!(fast.lengths.mean.to_bits(), pushed.lengths.mean.to_bits());
        assert_eq!(fast.words.count("never"), 0);
        assert_eq!(fast.top_words(2), pushed.top_words(2));
        // No rows at all.
        let empty = TextStats::from_codes(&[], dict.len(), label);
        assert_eq!((empty.count, empty.total_words(), empty.lengths.count), (0, 0, 0));
    }

    #[test]
    fn for_each_token_lends_what_tokenize_returns() {
        let mut token = String::from("stale");
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
            let mut seen = Vec::new();
            for_each_token(text, &mut token, |t| seen.push(t.to_string()));
            assert_eq!(seen, tokenize(text), "{text:?}");
        }
    }

    #[test]
    fn length_stats_in_chars_not_bytes() {
        let mut t = TextStats::new();
        t.push(Some("été")); // 3 chars, 5 bytes
        assert_eq!(t.lengths.max, 3.0);
    }
}
