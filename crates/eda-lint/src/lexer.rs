//! A minimal Rust lexer for rule passes.
//!
//! The lint rules need three things a `grep` cannot give them: tokens with
//! comments and string literals *removed* (so `"panic!"` inside a doc
//! string never fires a rule), the comments themselves (allow-markers and
//! `// SAFETY:` prose live there), and line numbers for diagnostics. Full
//! syntax trees are not needed — every rule works on token patterns plus
//! brace matching — so this stays a few hundred lines with no external
//! parser dependency (the build environment has no registry access, which
//! rules out `syn`).
//!
//! Coverage: line and nested block comments, string / raw string / byte
//! string / char literals, lifetimes vs. char literals, numeric literals
//! (including `0..n` range forms), raw identifiers, and multi-char
//! punctuation is left as single chars (rules never need `::` joined).

/// What a token is; rules mostly match on identifiers and punctuation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TokKind {
    /// Identifier or keyword (`fn`, `unsafe`, `HashMap`, ...).
    Ident,
    /// One punctuation character (`.`, `(`, `{`, `#`, ...).
    Punct(char),
    /// String / char / byte literal. String contents are kept in `text`
    /// (the cfg evaluator reads `target_os = "linux"` values); char/byte
    /// contents are dropped.
    Literal,
    /// Numeric literal (content dropped).
    Number,
    /// Lifetime (`'a`); kept distinct so it is never confused with chars.
    Lifetime,
}

/// One token with its source position.
#[derive(Debug, Clone)]
pub struct Tok {
    pub kind: TokKind,
    /// Identifier text; empty for non-identifiers.
    pub text: String,
    /// 1-based source line.
    pub line: u32,
}

impl Tok {
    /// Is this the identifier `s`?
    pub fn is_ident(&self, s: &str) -> bool {
        self.kind == TokKind::Ident && self.text == s
    }

    /// Is this the punctuation `c`?
    pub fn is_punct(&self, c: char) -> bool {
        self.kind == TokKind::Punct(c)
    }
}

/// One comment (line or block), with the line it starts on.
#[derive(Debug, Clone)]
pub struct Comment {
    pub text: String,
    /// 1-based line of the comment's first character.
    pub line: u32,
    /// 1-based line of the comment's last character (differs for blocks).
    pub end_line: u32,
}

/// Lexed file: code tokens and comments, separately.
#[derive(Debug, Default)]
pub struct Lexed {
    pub tokens: Vec<Tok>,
    pub comments: Vec<Comment>,
}

/// Lex `src` into tokens and comments. Unterminated constructs (possible
/// in fixture files) terminate the affected literal at end of input
/// rather than failing: lint passes must never abort on odd input.
pub fn lex(src: &str) -> Lexed {
    let bytes: Vec<char> = src.chars().collect();
    let mut out = Lexed::default();
    let mut i = 0usize;
    let mut line: u32 = 1;
    let n = bytes.len();

    macro_rules! bump {
        () => {{
            if bytes[i] == '\n' {
                line += 1;
            }
            i += 1;
        }};
    }

    while i < n {
        let c = bytes[i];
        // Whitespace.
        if c.is_whitespace() {
            bump!();
            continue;
        }
        // Line comment.
        if c == '/' && i + 1 < n && bytes[i + 1] == '/' {
            let start_line = line;
            let mut text = String::new();
            while i < n && bytes[i] != '\n' {
                text.push(bytes[i]);
                i += 1;
            }
            out.comments.push(Comment { text, line: start_line, end_line: start_line });
            continue;
        }
        // Block comment (nested).
        if c == '/' && i + 1 < n && bytes[i + 1] == '*' {
            let start_line = line;
            let mut depth = 0usize;
            let mut text = String::new();
            while i < n {
                if bytes[i] == '/' && i + 1 < n && bytes[i + 1] == '*' {
                    depth += 1;
                    text.push_str("/*");
                    i += 2;
                    continue;
                }
                if bytes[i] == '*' && i + 1 < n && bytes[i + 1] == '/' {
                    depth -= 1;
                    text.push_str("*/");
                    i += 2;
                    if depth == 0 {
                        break;
                    }
                    continue;
                }
                if bytes[i] == '\n' {
                    line += 1;
                }
                text.push(bytes[i]);
                i += 1;
            }
            out.comments.push(Comment { text, line: start_line, end_line: line });
            continue;
        }
        // Raw strings and raw byte strings: r"..." / r#"..."# / br#"..."#.
        if (c == 'r' || c == 'b') && is_raw_string_start(&bytes, i) {
            let tok_line = line;
            // Skip the `r` / `br` prefix.
            while i < n && (bytes[i] == 'r' || bytes[i] == 'b') {
                i += 1;
            }
            let mut hashes = 0usize;
            while i < n && bytes[i] == '#' {
                hashes += 1;
                i += 1;
            }
            let mut text = String::new();
            if i < n && bytes[i] == '"' {
                i += 1; // opening quote
                loop {
                    if i >= n {
                        break;
                    }
                    if bytes[i] == '"' && closes_raw(&bytes, i, hashes) {
                        i += 1 + hashes;
                        break;
                    }
                    if bytes[i] == '\n' {
                        line += 1;
                    }
                    text.push(bytes[i]);
                    i += 1;
                }
            }
            out.tokens.push(Tok { kind: TokKind::Literal, text, line: tok_line });
            continue;
        }
        // Identifier / keyword (covers `b` / `r` not starting raw strings,
        // and byte-string prefixes like b"..."). Raw idents (`r#ident`)
        // reach here only when not followed by `"` patterns.
        if c.is_alphabetic() || c == '_' {
            let tok_line = line;
            let mut text = String::new();
            while i < n && (bytes[i].is_alphanumeric() || bytes[i] == '_') {
                text.push(bytes[i]);
                i += 1;
            }
            // Byte string b"..." / byte char b'...'.
            if (text == "b" || text == "r") && i < n && (bytes[i] == '"' || bytes[i] == '\'') {
                let quote = bytes[i];
                i += 1;
                skip_quoted(&bytes, &mut i, &mut line, quote);
                out.tokens.push(Tok { kind: TokKind::Literal, text: String::new(), line: tok_line });
                continue;
            }
            out.tokens.push(Tok { kind: TokKind::Ident, text, line: tok_line });
            continue;
        }
        // Number.
        if c.is_ascii_digit() {
            let tok_line = line;
            while i < n {
                let d = bytes[i];
                if d.is_alphanumeric() || d == '_' {
                    i += 1;
                } else if d == '.'
                    && i + 1 < n
                    && bytes[i + 1].is_ascii_digit()
                    && (i == 0 || bytes[i - 1] != '.')
                {
                    // Decimal point, but never the `..` of a range.
                    i += 1;
                } else {
                    break;
                }
            }
            out.tokens.push(Tok { kind: TokKind::Number, text: String::new(), line: tok_line });
            continue;
        }
        // String literal (content kept: cfg evaluation reads it).
        if c == '"' {
            let tok_line = line;
            i += 1;
            let start = i;
            skip_quoted(&bytes, &mut i, &mut line, '"');
            let end = i.saturating_sub(1).max(start);
            let text: String = bytes[start..end.min(n)].iter().collect();
            out.tokens.push(Tok { kind: TokKind::Literal, text, line: tok_line });
            continue;
        }
        // Lifetime or char literal.
        if c == '\'' {
            let tok_line = line;
            // `'a` (not followed by closing quote) is a lifetime or loop
            // label; `'a'`, `'\n'`, `'\u{1F4A9}'` are char literals.
            let is_lifetime = i + 1 < n
                && (bytes[i + 1].is_alphabetic() || bytes[i + 1] == '_')
                && !(i + 2 < n && bytes[i + 2] == '\'');
            if is_lifetime {
                i += 1;
                while i < n && (bytes[i].is_alphanumeric() || bytes[i] == '_') {
                    i += 1;
                }
                out.tokens.push(Tok {
                    kind: TokKind::Lifetime,
                    text: String::new(),
                    line: tok_line,
                });
            } else {
                i += 1;
                skip_quoted(&bytes, &mut i, &mut line, '\'');
                out.tokens.push(Tok { kind: TokKind::Literal, text: String::new(), line: tok_line });
            }
            continue;
        }
        // Any other punctuation, one char at a time.
        out.tokens.push(Tok { kind: TokKind::Punct(c), text: String::new(), line });
        bump!();
    }
    out
}

/// Does `r`/`br` at `i` start a raw (byte) string? Look past the prefix
/// letters for `#...#"` or an immediate `"` preceded by at least the `r`.
fn is_raw_string_start(bytes: &[char], i: usize) -> bool {
    let mut j = i;
    let mut saw_r = false;
    // Accept `r`, `br`, `rb` orders defensively; real Rust is r / br.
    while j < bytes.len() && (bytes[j] == 'r' || bytes[j] == 'b') {
        saw_r |= bytes[j] == 'r';
        j += 1;
        if j - i > 2 {
            return false;
        }
    }
    if !saw_r {
        return false;
    }
    while j < bytes.len() && bytes[j] == '#' {
        j += 1;
    }
    j < bytes.len() && bytes[j] == '"' && (bytes[i..j].contains(&'#') || j == i + 1 || j == i + 2)
}

/// Does the `"` at `i` close a raw string with `hashes` trailing `#`s?
fn closes_raw(bytes: &[char], i: usize, hashes: usize) -> bool {
    (1..=hashes).all(|k| i + k < bytes.len() && bytes[i + k] == '#')
}

/// Advance past a quoted literal body (after the opening quote),
/// honouring backslash escapes. Leaves `i` after the closing quote.
fn skip_quoted(bytes: &[char], i: &mut usize, line: &mut u32, quote: char) {
    while *i < bytes.len() {
        let c = bytes[*i];
        if c == '\\' {
            *i += 2;
            continue;
        }
        if c == '\n' {
            *line += 1;
        }
        *i += 1;
        if c == quote {
            return;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn idents(src: &str) -> Vec<String> {
        lex(src)
            .tokens
            .into_iter()
            .filter(|t| t.kind == TokKind::Ident)
            .map(|t| t.text)
            .collect()
    }

    #[test]
    fn strings_and_comments_do_not_leak_tokens() {
        let src = r##"
            // unwrap() in a comment
            /* panic! in /* a nested */ block */
            let s = "unwrap() inside a string";
            let r = r#"panic! in a raw string"#;
            let c = 'x';
            real_ident();
        "##;
        let ids = idents(src);
        assert!(ids.contains(&"real_ident".to_string()));
        assert!(!ids.contains(&"unwrap".to_string()));
        assert!(!ids.contains(&"panic".to_string()));
    }

    #[test]
    fn comments_are_captured_with_lines() {
        let src = "fn a() {}\n// SAFETY: fine\nunsafe {}\n";
        let lexed = lex(src);
        assert_eq!(lexed.comments.len(), 1);
        assert_eq!(lexed.comments[0].line, 2);
        assert!(lexed.comments[0].text.contains("SAFETY"));
    }

    #[test]
    fn lifetimes_are_not_char_literals() {
        let src = "fn f<'a>(x: &'a str) -> &'a str { x }";
        let lexed = lex(src);
        assert_eq!(
            lexed.tokens.iter().filter(|t| t.kind == TokKind::Lifetime).count(),
            3
        );
        assert_eq!(
            lexed.tokens.iter().filter(|t| t.kind == TokKind::Literal).count(),
            0
        );
    }

    #[test]
    fn line_numbers_track_newlines() {
        let src = "a\nb\n  c";
        let lexed = lex(src);
        let lines: Vec<u32> = lexed.tokens.iter().map(|t| t.line).collect();
        assert_eq!(lines, vec![1, 2, 3]);
    }

    #[test]
    fn range_numbers_do_not_swallow_dots() {
        let src = "for i in 0..10 { f(1.5); }";
        let lexed = lex(src);
        // `..` must survive as two Punct('.') tokens.
        let dots = lexed.tokens.iter().filter(|t| t.is_punct('.')).count();
        assert_eq!(dots, 2);
        assert_eq!(
            lexed.tokens.iter().filter(|t| t.kind == TokKind::Number).count(),
            3
        );
    }

    #[test]
    fn string_literal_text_is_kept_for_cfg_values() {
        let lexed = lex("#[cfg(target_os = \"linux\")]");
        let lits: Vec<_> =
            lexed.tokens.iter().filter(|t| t.kind == TokKind::Literal).collect();
        assert_eq!(lits.len(), 1);
        assert_eq!(lits[0].text, "linux");
    }

    #[test]
    fn byte_strings_are_literals() {
        let ids = idents(r#"let x = b"unwrap"; let y = br#f; done();"#);
        assert!(ids.contains(&"done".to_string()));
        assert!(!ids.contains(&"unwrap".to_string()));
    }
}
