//! A hand-rolled, dependency-free token-level lexer for Rust source.
//!
//! The analyzer's rules match *token* sequences, never raw text, so a
//! forbidden name inside a string literal, a raw string, a char literal or
//! a (possibly nested) block comment can never trip a rule. The lexer is
//! deliberately lossy — it does not distinguish keywords from identifiers
//! and folds every literal into one kind — because the rules only need
//! identifier text, punctuation and accurate line numbers.
//!
//! Comments are not discarded: they are returned as a parallel stream so
//! the waiver grammar (`// htpb-lint: allow(<rule>) -- <why>`) and the
//! hot-region markers (`// htpb-lint: hot` / `// htpb-lint: end-hot`) can
//! be resolved against the token stream (see `rules.rs`).

/// What a significant token is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokKind {
    /// Identifier or keyword (`HashMap`, `fn`, `unsafe_code`, ...).
    Ident,
    /// A single punctuation character (`::` is two `:` tokens).
    Punct(char),
    /// String / raw string / byte-string / char / numeric literal.
    Literal,
    /// A lifetime such as `'a` (distinguished from char literals).
    Lifetime,
}

/// One significant token: kind, source text and 1-based line number.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Tok<'a> {
    pub kind: TokKind,
    pub text: &'a str,
    pub line: u32,
}

impl<'a> Tok<'a> {
    /// True when the token is the identifier `name`.
    #[must_use]
    pub(crate) fn is_ident(&self, name: &str) -> bool {
        self.kind == TokKind::Ident && self.text == name
    }

    /// True when the token is the punctuation character `c`.
    #[must_use]
    pub(crate) fn is_punct(&self, c: char) -> bool {
        self.kind == TokKind::Punct(c)
    }
}

/// One comment: its text (delimiters stripped) and the line it starts on.
/// `block` distinguishes `/* ... */` from `// ...` (waivers and region
/// markers are only honoured in line comments, where their extent is
/// unambiguous).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Comment<'a> {
    pub text: &'a str,
    pub line: u32,
    pub block: bool,
}

/// The result of lexing one file.
#[derive(Debug, Default)]
pub struct Lexed<'a> {
    pub tokens: Vec<Tok<'a>>,
    pub comments: Vec<Comment<'a>>,
    /// Total number of lines in the file (1-based count).
    pub lines: u32,
}

impl Lexed<'_> {
    /// The smallest token line strictly greater than `line`, if any.
    /// Used to resolve which line a standalone waiver comment covers.
    #[must_use]
    pub(crate) fn next_token_line(&self, line: u32) -> Option<u32> {
        self.tokens
            .iter()
            .map(|t| t.line)
            .filter(|&l| l > line)
            .min()
    }

    /// True when any significant token sits on `line`.
    #[must_use]
    pub(crate) fn has_token_on(&self, line: u32) -> bool {
        self.tokens.iter().any(|t| t.line == line)
    }
}

/// Lexes `src` into significant tokens plus comments. Never panics on any
/// input: unterminated strings/comments simply run to end of file (the
/// compiler will reject such a file anyway; the lexer's job is only to
/// never mis-classify what follows).
#[must_use]
pub fn lex(src: &str) -> Lexed<'_> {
    Lexer {
        src,
        bytes: src.as_bytes(),
        pos: 0,
        line: 1,
        out: Lexed::default(),
    }
    .run()
}

struct Lexer<'a> {
    src: &'a str,
    bytes: &'a [u8],
    pos: usize,
    line: u32,
    out: Lexed<'a>,
}

impl<'a> Lexer<'a> {
    fn run(mut self) -> Lexed<'a> {
        while self.pos < self.bytes.len() {
            let b = self.bytes[self.pos];
            match b {
                b'\n' => {
                    self.line += 1;
                    self.pos += 1;
                }
                b'/' if self.peek(1) == Some(b'/') => self.line_comment(),
                b'/' if self.peek(1) == Some(b'*') => self.block_comment(),
                b'"' => {
                    let start = self.pos;
                    self.string_literal_from(start);
                }
                b'\'' => self.char_or_lifetime(),
                b'#' | b'!' | b'[' | b']' | b'(' | b')' | b'{' | b'}' | b':' | b';' | b','
                | b'.' | b'<' | b'>' | b'=' | b'+' | b'-' | b'*' | b'/' | b'%' | b'&' | b'|'
                | b'^' | b'?' | b'@' | b'$' | b'~' => {
                    self.push_tok(TokKind::Punct(b as char), self.pos, self.pos + 1);
                    self.pos += 1;
                }
                b'0'..=b'9' => self.number(),
                b'_' | b'a'..=b'z' | b'A'..=b'Z' => self.ident_or_prefixed_string(),
                _ => self.pos += 1, // whitespace, or mid-UTF-8 byte
            }
        }
        self.out.lines = self.line;
        self.out
    }

    fn peek(&self, ahead: usize) -> Option<u8> {
        self.bytes.get(self.pos + ahead).copied()
    }

    fn push_tok(&mut self, kind: TokKind, start: usize, end: usize) {
        self.out.tokens.push(Tok {
            kind,
            text: &self.src[start..end],
            line: self.line,
        });
    }

    /// `// ...` to end of line. The delimiting slashes (and any further
    /// leading `/` from doc comments) are stripped from the text.
    fn line_comment(&mut self) {
        let start_line = self.line;
        let mut body = self.pos + 2;
        // `///` and `//!` are still comments; strip the extra marker.
        while self.bytes.get(body) == Some(&b'/') || self.bytes.get(body) == Some(&b'!') {
            body += 1;
        }
        let mut end = body;
        while end < self.bytes.len() && self.bytes[end] != b'\n' {
            end += 1;
        }
        self.out.comments.push(Comment {
            text: self.src[body..end].trim(),
            line: start_line,
            block: false,
        });
        self.pos = end; // leave the newline for the main loop
    }

    /// `/* ... */` with arbitrary nesting, possibly spanning lines.
    fn block_comment(&mut self) {
        let start_line = self.line;
        let body = self.pos + 2;
        self.pos += 2;
        let mut depth = 1u32;
        while self.pos < self.bytes.len() && depth > 0 {
            match self.bytes[self.pos] {
                b'\n' => {
                    self.line += 1;
                    self.pos += 1;
                }
                b'/' if self.peek(1) == Some(b'*') => {
                    depth += 1;
                    self.pos += 2;
                }
                b'*' if self.peek(1) == Some(b'/') => {
                    depth -= 1;
                    self.pos += 2;
                }
                _ => self.pos += 1,
            }
        }
        let end = if depth == 0 { self.pos - 2 } else { self.pos };
        self.out.comments.push(Comment {
            text: self.src[body..end].trim(),
            line: start_line,
            block: true,
        });
    }

    /// `r"..."`, `r#"..."#` (any number of hashes), closed only by a quote
    /// followed by the same number of hashes. No escapes inside.
    fn raw_string(&mut self, start: usize) {
        // self.pos sits on the `r`'s successor: count hashes, expect `"`.
        let mut hashes = 0usize;
        while self.peek(0) == Some(b'#') {
            hashes += 1;
            self.pos += 1;
        }
        if self.peek(0) != Some(b'"') {
            // `r#foo` raw identifier, not a string: emit the ident lexed so
            // far and let the main loop continue after the hashes.
            self.push_tok(TokKind::Ident, start, self.pos);
            return;
        }
        let open_line = self.line;
        self.pos += 1;
        loop {
            if self.pos >= self.bytes.len() {
                break;
            }
            match self.bytes[self.pos] {
                b'\n' => {
                    self.line += 1;
                    self.pos += 1;
                }
                b'"' => {
                    let mut seen = 0usize;
                    while seen < hashes && self.bytes.get(self.pos + 1 + seen) == Some(&b'#') {
                        seen += 1;
                    }
                    if seen == hashes {
                        self.pos += 1 + hashes;
                        let end = self.pos.min(self.bytes.len());
                        self.out.tokens.push(Tok {
                            kind: TokKind::Literal,
                            text: &self.src[start..end],
                            line: open_line,
                        });
                        return;
                    }
                    self.pos += 1;
                }
                _ => self.pos += 1,
            }
        }
        self.out.tokens.push(Tok {
            kind: TokKind::Literal,
            text: &self.src[start..],
            line: open_line,
        });
    }

    /// `'a` lifetime vs `'x'` / `'\n'` char literal.
    fn char_or_lifetime(&mut self) {
        let start = self.pos;
        let next = self.peek(1);
        let after = self.peek(2);
        let is_lifetime = matches!(next, Some(b'_' | b'a'..=b'z' | b'A'..=b'Z'))
            && after != Some(b'\'')
            && next != Some(b'\\');
        if is_lifetime {
            self.pos += 1;
            let id_start = self.pos;
            while matches!(
                self.peek(0),
                Some(b'_' | b'a'..=b'z' | b'A'..=b'Z' | b'0'..=b'9')
            ) {
                self.pos += 1;
            }
            self.push_tok(TokKind::Lifetime, id_start, self.pos);
            return;
        }
        // Char literal: consume until the closing quote, honouring escapes.
        self.pos += 1;
        while self.pos < self.bytes.len() {
            match self.bytes[self.pos] {
                b'\\' => self.pos += 2,
                b'\'' => {
                    self.pos += 1;
                    self.push_tok(TokKind::Literal, start, self.pos.min(self.bytes.len()));
                    return;
                }
                b'\n' => {
                    // `'` used as something else (macros); treat as punct.
                    self.out.tokens.push(Tok {
                        kind: TokKind::Punct('\''),
                        text: &self.src[start..start + 1],
                        line: self.line,
                    });
                    self.pos = start + 1;
                    return;
                }
                _ => self.pos += 1,
            }
        }
        self.push_tok(TokKind::Literal, start, self.bytes.len());
    }

    /// `123`, `0xff`, `1.5e-3`, `1_000u64` — one Literal token. Careful
    /// around `0..10` (range) and `1.max(2)` (method call on an integer):
    /// a `.` is only part of the number when followed by a digit.
    fn number(&mut self) {
        let start = self.pos;
        while matches!(
            self.peek(0),
            Some(b'0'..=b'9' | b'a'..=b'z' | b'A'..=b'Z' | b'_')
        ) {
            self.pos += 1;
        }
        if self.peek(0) == Some(b'.') && matches!(self.peek(1), Some(b'0'..=b'9')) {
            self.pos += 1;
            while matches!(self.peek(0), Some(b'0'..=b'9' | b'_')) {
                self.pos += 1;
            }
            if matches!(self.peek(0), Some(b'e' | b'E')) {
                let sign = usize::from(matches!(self.peek(1), Some(b'+' | b'-')));
                if matches!(self.peek(1 + sign), Some(b'0'..=b'9')) {
                    self.pos += 1 + sign;
                    while matches!(self.peek(0), Some(b'0'..=b'9' | b'_')) {
                        self.pos += 1;
                    }
                }
            }
            // Type suffix (`1.5f64`).
            while matches!(self.peek(0), Some(b'a'..=b'z' | b'0'..=b'9' | b'_')) {
                self.pos += 1;
            }
        }
        self.push_tok(TokKind::Literal, start, self.pos);
    }

    /// An identifier — unless it is one of the string prefixes `r`, `b`,
    /// `br`, `rb` immediately followed by a string opener, in which case
    /// the whole thing lexes as one literal.
    fn ident_or_prefixed_string(&mut self) {
        let start = self.pos;
        while matches!(
            self.peek(0),
            Some(b'_' | b'a'..=b'z' | b'A'..=b'Z' | b'0'..=b'9')
        ) {
            self.pos += 1;
        }
        let text = &self.src[start..self.pos];
        match (text, self.peek(0)) {
            ("r" | "br" | "rb", Some(b'"' | b'#')) => self.raw_string(start),
            ("b", Some(b'"')) => self.string_literal_from(start),
            ("b", Some(b'\'')) => {
                // Byte char `b'x'`: skip prefix, lex as char literal.
                self.char_or_lifetime_from(start);
            }
            _ => self.push_tok(TokKind::Ident, start, self.pos),
        }
    }

    /// Plain string lexing where the token starts at `start` (used for the
    /// `b"..."` prefix). `self.pos` sits on the opening quote.
    fn string_literal_from(&mut self, start: usize) {
        self.pos += 1; // opening quote
        let open_line = self.line;
        while self.pos < self.bytes.len() {
            match self.bytes[self.pos] {
                b'\\' => self.pos += 2,
                b'\n' => {
                    self.line += 1;
                    self.pos += 1;
                }
                b'"' => {
                    self.pos += 1;
                    break;
                }
                _ => self.pos += 1,
            }
        }
        let end = self.pos.min(self.bytes.len());
        self.out.tokens.push(Tok {
            kind: TokKind::Literal,
            text: &self.src[start..end],
            line: open_line,
        });
    }

    /// Char-literal lexing where the token starts at `start` (for `b'x'`).
    /// `self.pos` sits on the opening quote.
    fn char_or_lifetime_from(&mut self, start: usize) {
        self.pos += 1;
        while self.pos < self.bytes.len() {
            match self.bytes[self.pos] {
                b'\\' => self.pos += 2,
                b'\'' => {
                    self.pos += 1;
                    break;
                }
                b'\n' => break,
                _ => self.pos += 1,
            }
        }
        self.push_tok(TokKind::Literal, start, self.pos.min(self.bytes.len()));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn idents(src: &str) -> Vec<&str> {
        lex(src)
            .tokens
            .iter()
            .filter(|t| t.kind == TokKind::Ident)
            .map(|t| t.text)
            .collect()
    }

    #[test]
    fn strings_hide_identifiers() {
        assert_eq!(idents(r#"let x = "HashMap::new()";"#), vec!["let", "x"]);
    }

    #[test]
    fn raw_strings_hide_identifiers_and_quotes() {
        let src = "let x = r#\"a \" quote and HashMap\"#; let y = 1;";
        assert_eq!(idents(src), vec!["let", "x", "let", "y"]);
    }

    #[test]
    fn nested_block_comments_hide_identifiers() {
        let src = "/* outer /* HashMap */ still comment */ fn f() {}";
        assert_eq!(idents(src), vec!["fn", "f"]);
    }

    #[test]
    fn line_comments_are_collected_with_lines() {
        let src = "fn f() {}\n// htpb-lint: hot\nlet x = 1;\n";
        let lexed = lex(src);
        assert_eq!(lexed.comments.len(), 1);
        assert_eq!(lexed.comments[0].text, "htpb-lint: hot");
        assert_eq!(lexed.comments[0].line, 2);
        assert!(!lexed.comments[0].block);
    }

    #[test]
    fn char_literal_with_quote_escape_does_not_derail() {
        assert_eq!(
            idents(r"let c = '\''; let d = 'x';"),
            vec!["let", "c", "let", "d"]
        );
    }

    #[test]
    fn lifetimes_are_not_char_literals() {
        let src = "fn f<'a>(x: &'a str) -> &'a str { x }";
        let lexed = lex(src);
        assert_eq!(
            lexed
                .tokens
                .iter()
                .filter(|t| t.kind == TokKind::Lifetime)
                .count(),
            3
        );
        // Everything after the lifetimes still lexes (no swallowed tail).
        assert!(idents(src).contains(&"str"));
    }

    #[test]
    fn numbers_do_not_eat_method_calls_or_ranges() {
        let src = "let a = 1.max(2); for i in 0..10 { } let f = 1.5e-3f64;";
        let lexed = lex(src);
        assert!(lexed.tokens.iter().any(|t| t.is_ident("max")));
        let dots = lexed.tokens.iter().filter(|t| t.is_punct('.')).count();
        assert_eq!(dots, 3, "1.max dot plus the two range dots");
    }

    #[test]
    fn multiline_strings_keep_line_numbers_accurate() {
        let src = "let s = \"line one\nline two\";\nlet HashMap = 3;\n";
        let lexed = lex(src);
        let hm = lexed
            .tokens
            .iter()
            .find(|t| t.is_ident("HashMap"))
            .expect("ident after the string");
        assert_eq!(hm.line, 3);
    }

    #[test]
    fn byte_strings_and_byte_chars() {
        let src = "let a = b\"HashMap\"; let b2 = b'x'; fn g() {}";
        assert_eq!(idents(src), vec!["let", "a", "let", "b2", "fn", "g"]);
    }

    #[test]
    fn unterminated_input_never_panics() {
        for src in ["\"abc", "r#\"abc", "/* open /* deeper", "'", "b\"x", "1.5e"] {
            let _ = lex(src);
        }
    }

    #[test]
    fn doc_comments_are_comments() {
        let src = "/// says HashMap\n//! also HashMap\nstruct S;";
        assert_eq!(idents(src), vec!["struct", "S"]);
        assert_eq!(lex(src).comments.len(), 2);
    }
}
