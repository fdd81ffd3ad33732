//! Low-level CSV tokenization: records and fields lent as slices of the
//! text, never copied.
//!
//! Handles RFC-4180 quoting: fields wrapped in `"` may contain the
//! separator, newlines, and doubled quotes (`""` escapes one quote).
//! [`records`] cuts text into logical records by quote parity; [`fields`]
//! cuts one record into fields, reporting quoting mistakes as
//! [`Error::Csv`]. Only a quoted field containing `""` is materialised
//! (the escape has to be undone somewhere); every other field borrows.

use std::borrow::Cow;

use crate::error::{Error, Result};

/// Iterator over the logical records of a text, see [`records`].
#[derive(Debug, Clone)]
pub struct Records<'a> {
    text: &'a str,
    pos: usize,
}

/// Split raw CSV text into logical records, respecting quoted newlines.
///
/// Lazily yields `(byte offset of the record's first byte, record)`, the
/// record excluding its line terminator. Both `\n` and `\r\n` are
/// accepted. A trailing newline does not produce an empty final record.
pub fn records(text: &str) -> Records<'_> {
    Records { text, pos: 0 }
}

impl<'a> Iterator for Records<'a> {
    type Item = (u64, &'a str);

    fn next(&mut self) -> Option<Self::Item> {
        let rest = self.text.get(self.pos..).filter(|rest| !rest.is_empty())?;
        let (len, terminator) = match record_end(rest.as_bytes(), &mut false) {
            Some(newline) => (newline, 1),
            None => (rest.len(), 0),
        };
        let record = rest.get(..len)?;
        let offset = self.pos as u64;
        self.pos += len + terminator;
        Some((offset, record.strip_suffix('\r').unwrap_or(record)))
    }
}

/// A field separator as the UTF-8 bytes the tokenizer looks for, so an
/// ASCII `,` and a multi-byte `§` take the same code.
#[derive(Debug, Clone, Copy)]
pub struct Separator {
    utf8: [u8; 4],
    len: usize,
}

impl Separator {
    /// The separator `c`.
    pub fn new(c: char) -> Self {
        let mut utf8 = [0; 4];
        let len = c.encode_utf8(&mut utf8).len();
        Separator { utf8, len }
    }

    fn bytes(&self) -> &[u8] {
        self.utf8.get(..self.len).unwrap_or(&self.utf8)
    }
}

/// `0x80` in every byte of `word` that equals `byte` and zero in the
/// others; read the word little-endian and the first byte is lowest.
/// Exact: no carry crosses a byte.
fn bytes_equal_to(word: u64, byte: u8) -> u64 {
    const LOW7: u64 = 0x7f7f_7f7f_7f7f_7f7f;
    let diff = word ^ (u64::from(byte) * 0x0101_0101_0101_0101);
    !(((diff & LOW7) + LOW7) | diff | LOW7)
}

/// Index of the newline that ends the record `bytes` continues, or `None`
/// when `bytes` run out first: the first `\n` preceded by an even number
/// of quotes, counting from `in_quotes`, which is left as it stands where
/// the search stopped. Eight bytes outside quotes that hold no quote can
/// only end the record, so such a word just has its newlines located;
/// words with a quote or inside a quoted field go byte by byte.
pub(crate) fn record_end(bytes: &[u8], in_quotes: &mut bool) -> Option<usize> {
    fn bytewise(bytes: &[u8], in_quotes: &mut bool) -> Option<usize> {
        bytes.iter().position(|&b| {
            *in_quotes ^= b == b'"';
            b == b'\n' && !*in_quotes
        })
    }
    let (words, tail) = bytes.as_chunks::<8>();
    for (i, word) in words.iter().enumerate() {
        let packed = u64::from_le_bytes(*word);
        let newline = if *in_quotes || bytes_equal_to(packed, b'"') != 0 {
            bytewise(word, in_quotes)
        } else {
            let newlines = bytes_equal_to(packed, b'\n');
            (newlines != 0).then(|| (newlines.trailing_zeros() / 8) as usize)
        };
        if let Some(at) = newline {
            return Some(i * 8 + at);
        }
    }
    bytewise(tail, in_quotes).map(|at| words.len() * 8 + at)
}

/// Index of the first byte equal to `a` or `b`, a word at a time.
fn position_of_either(bytes: &[u8], a: u8, b: u8) -> Option<usize> {
    let (words, tail) = bytes.as_chunks::<8>();
    for (i, word) in words.iter().enumerate() {
        let word = u64::from_le_bytes(*word);
        let hits = bytes_equal_to(word, a) | bytes_equal_to(word, b);
        if hits != 0 {
            return Some(i * 8 + (hits.trailing_zeros() / 8) as usize);
        }
    }
    tail.iter().position(|&x| x == a || x == b).map(|at| words.len() * 8 + at)
}

/// Iterator over the fields of one record, see [`fields`].
#[derive(Debug, Clone)]
pub struct Fields<'a> {
    /// What is left to tokenize; `None` once the last field was lent (an
    /// empty remainder is still one empty field).
    rest: Option<&'a str>,
    sep: Separator,
    line_no: usize,
}

/// Tokenize one record into fields.
///
/// A record always has at least one field (the empty record has one empty
/// field), and a trailing separator yields a trailing empty field. After
/// an error the iterator is exhausted. `line_no` is used for error
/// reporting only (1-based).
pub fn fields(record: &str, sep: Separator, line_no: usize) -> Fields<'_> {
    Fields { rest: Some(record), sep, line_no }
}

impl<'a> Fields<'a> {
    fn error(&self, message: &str) -> Error {
        Error::Csv { line: self.line_no, message: message.into() }
    }

    /// The field opened by the quote `after_open` follows: everything up
    /// to the closing quote, which only a separator or the end of the
    /// record may follow.
    fn quoted(&mut self, after_open: &'a str) -> Result<Cow<'a, str>> {
        let mut unescaped = String::new();
        let mut body = after_open;
        loop {
            let Some((segment, after)) = body.split_once('"') else {
                return Err(self.error("unterminated quoted field"));
            };
            if let Some(more) = after.strip_prefix('"') {
                unescaped.push_str(segment);
                unescaped.push('"');
                body = more;
                continue;
            }
            let sep = self.sep.bytes();
            self.rest = match after.as_bytes().strip_prefix(sep) {
                None if after.is_empty() => None,
                None => return Err(self.error("data after closing quote")),
                Some(_) => after.get(sep.len()..),
            };
            // Without an escape the one segment is the whole field.
            return Ok(if unescaped.is_empty() {
                Cow::Borrowed(segment)
            } else {
                unescaped.push_str(segment);
                Cow::Owned(unescaped)
            });
        }
    }
}

impl<'a> Iterator for Fields<'a> {
    type Item = Result<Cow<'a, str>>;

    fn next(&mut self) -> Option<Self::Item> {
        let rest = self.rest.take()?;
        let bytes = rest.as_bytes();
        let sep = self.sep.bytes();
        let [lead, ..] = self.sep.utf8;
        // A separator that is itself `"` wins over quoting.
        if let Some(after_open) = rest.strip_prefix('"').filter(|_| lead != b'"') {
            return Some(self.quoted(after_open));
        }
        // Unquoted: the field runs to the next separator or the end of
        // the record, and may not contain a quote.
        let mut scanned = 0;
        while let Some(hit) =
            bytes.get(scanned..).and_then(|tail| position_of_either(tail, lead, b'"'))
        {
            let at = scanned + hit;
            let tail = bytes.get(at..).unwrap_or_default();
            if tail.starts_with(sep) {
                self.rest = rest.get(at + sep.len()..);
                return rest.get(..at).map(|field| Ok(Cow::Borrowed(field)));
            }
            if tail.first() == Some(&b'"') {
                return Some(Err(self.error("unexpected quote inside unquoted field")));
            }
            // The lead byte of a multi-byte separator, starting some
            // other character.
            scanned = at + 1;
        }
        Some(Ok(Cow::Borrowed(rest)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record_texts(text: &str) -> Vec<&str> {
        records(text).map(|(_, record)| record).collect()
    }

    fn tokenize(record: &str, sep: char, line_no: usize) -> Result<Vec<String>> {
        fields(record, Separator::new(sep), line_no).map(|f| f.map(Cow::into_owned)).collect()
    }

    #[test]
    fn split_simple_lines() {
        assert_eq!(record_texts("a,b\nc,d\n"), vec!["a,b", "c,d"]);
        assert_eq!(record_texts("a,b"), vec!["a,b"]);
        assert_eq!(record_texts(""), Vec::<&str>::new());
        assert_eq!(record_texts("\n\na"), vec!["", "", "a"]);
    }

    #[test]
    fn split_handles_crlf() {
        assert_eq!(record_texts("a\r\nb\r\n"), vec!["a", "b"]);
        // Only the `\r` that ends a record goes; a lone `\r\n` record is empty.
        assert_eq!(record_texts("a\rb\r\r\n\r\nc\r"), vec!["a\rb\r", "", "c"]);
    }

    #[test]
    fn split_respects_quoted_newlines() {
        let recs = record_texts("a,\"x\ny\"\nb,c\n");
        assert_eq!(recs, vec!["a,\"x\ny\"", "b,c"]);
        // An unclosed quote swallows the rest of the text, newline included.
        assert_eq!(record_texts("a\n\"b\nc\n"), vec!["a", "\"b\nc\n"]);
    }

    #[test]
    fn split_offsets_are_record_starts() {
        let text = "a,b\nc,\"x\ny\"\r\nd,e";
        let recs: Vec<_> = records(text).collect();
        assert_eq!(recs, vec![(0, "a,b"), (4, "c,\"x\ny\""), (13, "d,e")]);
        for (off, rec) in recs {
            assert!(text[off as usize..].starts_with(rec));
        }
    }

    #[test]
    fn parse_plain_fields() {
        assert_eq!(
            tokenize("a,b,,d", ',', 1).unwrap(),
            vec!["a", "b", "", "d"]
        );
        assert_eq!(tokenize("", ',', 1).unwrap(), vec![""]);
    }

    #[test]
    fn parse_quoted_fields() {
        assert_eq!(
            tokenize("\"a,b\",\"c\"\"d\"", ',', 1).unwrap(),
            vec!["a,b", "c\"d"]
        );
        assert_eq!(tokenize("\"\",\"\"\"\"", ',', 1).unwrap(), vec!["", "\""]);
    }

    #[test]
    fn only_an_escaped_quote_allocates() {
        let lent: Vec<_> =
            fields("a,\"b,c\",\"d\"\"e\"", Separator::new(','), 1).map(|f| f.unwrap()).collect();
        assert!(matches!(lent[0], Cow::Borrowed("a")));
        assert!(matches!(lent[1], Cow::Borrowed("b,c")));
        assert!(matches!(&lent[2], Cow::Owned(s) if s == "d\"e"));
    }

    #[test]
    fn parse_quoted_newline() {
        assert_eq!(
            tokenize("\"line1\nline2\",x", ',', 1).unwrap(),
            vec!["line1\nline2", "x"]
        );
    }

    #[test]
    fn parse_alternative_separator() {
        assert_eq!(tokenize("a;b;c", ';', 1).unwrap(), vec!["a", "b", "c"]);
        assert_eq!(tokenize("a\t\"b\tc\"\t", '\t', 1).unwrap(), vec!["a", "b\tc", ""]);
        // `§` is C2 A7 and `¢` is C2 A2: a shared lead byte is no match.
        assert_eq!(tokenize("1¢§\"§\"§x", '§', 1).unwrap(), vec!["1¢", "§", "x"]);
        // A quote chosen as the separator separates.
        assert_eq!(tokenize("a\"\"b", '"', 1).unwrap(), vec!["a", "", "b"]);
    }

    #[test]
    fn parse_trailing_separator_yields_empty_field() {
        assert_eq!(tokenize("a,", ',', 1).unwrap(), vec!["a", ""]);
        assert_eq!(tokenize("\"a\",", ',', 1).unwrap(), vec!["a", ""]);
    }

    #[test]
    fn unterminated_quote_errors() {
        let e = tokenize("\"abc", ',', 7).unwrap_err();
        assert_eq!(e, Error::Csv { line: 7, message: "unterminated quoted field".into() });
        assert!(tokenize("\"abc\"\"", ',', 7).is_err());
    }

    #[test]
    fn data_after_closing_quote_errors() {
        let e = tokenize("\"a\"b,c", ',', 1).unwrap_err();
        assert_eq!(e, Error::Csv { line: 1, message: "data after closing quote".into() });
        let mut fields = fields("x,\"a\"b,c", Separator::new(','), 1);
        assert!(fields.next().unwrap().is_ok());
        assert!(fields.next().unwrap().is_err());
        assert!(fields.next().is_none(), "exhausted after an error");
    }

    #[test]
    fn quote_inside_unquoted_field_errors() {
        let e = tokenize("a,b\"c\",d", ',', 3).unwrap_err();
        assert_eq!(
            e,
            Error::Csv { line: 3, message: "unexpected quote inside unquoted field".into() }
        );
    }
}
