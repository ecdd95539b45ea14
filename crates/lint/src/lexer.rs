//! A small hand-rolled Rust lexer: just enough token structure for the
//! rule engine, with full string/char/comment awareness.
//!
//! The rules in this crate match **token sequences**, never raw text, so
//! `"Instant::now"` inside a string literal, a `// panic!` in a comment,
//! or an `unwrap` buried in a raw-string fixture can never fire a lint.
//! The lexer parses exactly the structure the checks need — the token
//! boundaries and literal/comment extents — and nothing more.
//!
//! What the lexer understands:
//!
//! * line comments (`//`, `///`, `//!`) — **kept** as tokens, because
//!   suppressions (`// lint:allow(rule): reason`) live in them;
//! * block comments (`/* … */`), nested per Rust's rules — skipped;
//! * string literals with escapes, byte strings, and raw (byte) strings
//!   with any `#` nesting depth (`r"…"`, `r##"…"##`, `br#"…"#`) —
//!   emitted as single [`TokenKind::Literal`] tokens;
//! * char literals vs lifetimes (`'x'` / `'\n'` vs `'a` in `&'a str`);
//! * numbers (including float/exponent forms), identifiers/keywords, and
//!   single-character punctuation.
//!
//! Every token carries its 1-based line and column, so findings point at
//! source the way compiler diagnostics do.

/// What kind of source atom a [`Token`] is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokenKind {
    /// An identifier or keyword (`unwrap`, `fn`, `Instant`, …).
    Ident,
    /// One punctuation character (`.`, `[`, `:`, `!`, …).
    Punct,
    /// A string/char/number/lifetime literal, emitted as one token.
    Literal,
    /// A line comment; [`Token::text`] holds the body after the `//`.
    LineComment,
}

/// One lexed token with its source position.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Token {
    /// The token class.
    pub kind: TokenKind,
    /// Ident text, the punctuation character, or the comment body.
    /// Empty for literals (rules never match literal contents).
    pub text: String,
    /// 1-based source line.
    pub line: u32,
    /// 1-based source column (in characters).
    pub col: u32,
}

impl Token {
    /// `true` for an identifier token with exactly this text.
    pub fn is_ident(&self, text: &str) -> bool {
        self.kind == TokenKind::Ident && self.text == text
    }

    /// `true` for a punctuation token with exactly this character.
    pub fn is_punct(&self, ch: char) -> bool {
        self.kind == TokenKind::Punct && self.text.len() == 1 && self.text.starts_with(ch)
    }
}

/// Lexes `source` into a token stream; never fails (unterminated
/// literals and comments simply end at end-of-file).
pub fn lex(source: &str) -> Vec<Token> {
    Lexer::new(source).run()
}

struct Lexer<'a> {
    chars: Vec<char>,
    pos: usize,
    line: u32,
    col: u32,
    tokens: Vec<Token>,
    source: std::marker::PhantomData<&'a str>,
}

impl<'a> Lexer<'a> {
    fn new(source: &'a str) -> Self {
        Lexer {
            chars: source.chars().collect(),
            pos: 0,
            line: 1,
            col: 1,
            tokens: Vec::new(),
            source: std::marker::PhantomData,
        }
    }

    fn peek(&self, ahead: usize) -> Option<char> {
        self.chars.get(self.pos + ahead).copied()
    }

    /// Consumes one character, tracking line/column.
    fn bump(&mut self) -> Option<char> {
        let ch = self.chars.get(self.pos).copied()?;
        self.pos += 1;
        if ch == '\n' {
            self.line += 1;
            self.col = 1;
        } else {
            self.col += 1;
        }
        Some(ch)
    }

    fn push(&mut self, kind: TokenKind, text: String, line: u32, col: u32) {
        self.tokens.push(Token {
            kind,
            text,
            line,
            col,
        });
    }

    fn run(mut self) -> Vec<Token> {
        while let Some(ch) = self.peek(0) {
            let (line, col) = (self.line, self.col);
            if ch.is_whitespace() {
                self.bump();
            } else if ch == '/' && self.peek(1) == Some('/') {
                self.line_comment(line, col);
            } else if ch == '/' && self.peek(1) == Some('*') {
                self.block_comment();
            } else if ch == '"' {
                self.string_literal(line, col);
            } else if ch == '\'' {
                self.quote(line, col);
            } else if ch.is_ascii_digit() {
                self.number(line, col);
            } else if ch.is_alphabetic() || ch == '_' {
                self.ident_or_prefixed_literal(line, col);
            } else {
                self.bump();
                self.push(TokenKind::Punct, ch.to_string(), line, col);
            }
        }
        self.tokens
    }

    fn line_comment(&mut self, line: u32, col: u32) {
        self.bump();
        self.bump(); // the two slashes
        let mut body = String::new();
        while let Some(ch) = self.peek(0) {
            if ch == '\n' {
                break;
            }
            body.push(ch);
            self.bump();
        }
        self.push(TokenKind::LineComment, body, line, col);
    }

    /// Skips a `/* … */` comment, honouring Rust's nesting.
    fn block_comment(&mut self) {
        self.bump();
        self.bump();
        let mut depth = 1u32;
        while depth > 0 {
            match (self.peek(0), self.peek(1)) {
                (Some('/'), Some('*')) => {
                    self.bump();
                    self.bump();
                    depth += 1;
                }
                (Some('*'), Some('/')) => {
                    self.bump();
                    self.bump();
                    depth -= 1;
                }
                (Some(_), _) => {
                    self.bump();
                }
                (None, _) => break,
            }
        }
    }

    /// A `"…"` string with escapes; multi-line allowed.
    fn string_literal(&mut self, line: u32, col: u32) {
        self.bump(); // opening quote
        while let Some(ch) = self.bump() {
            match ch {
                '\\' => {
                    self.bump(); // whatever is escaped, including `"` and `\`
                }
                '"' => break,
                _ => {}
            }
        }
        self.push(TokenKind::Literal, String::new(), line, col);
    }

    /// A raw (byte) string: the caller consumed the `r`/`br` prefix; this
    /// consumes `#*"` … `"#*` with matching hash depth.
    fn raw_string(&mut self, line: u32, col: u32) {
        let mut hashes = 0usize;
        while self.peek(0) == Some('#') {
            hashes += 1;
            self.bump();
        }
        self.bump(); // opening quote
        'scan: while let Some(ch) = self.bump() {
            if ch == '"' {
                for ahead in 0..hashes {
                    if self.peek(ahead) != Some('#') {
                        continue 'scan;
                    }
                }
                for _ in 0..hashes {
                    self.bump();
                }
                break;
            }
        }
        self.push(TokenKind::Literal, String::new(), line, col);
    }

    /// `'` starts either a char literal or a lifetime.
    fn quote(&mut self, line: u32, col: u32) {
        self.bump(); // the quote
        match self.peek(0) {
            // `'\n'`, `'\''`, `'\u{1F980}'` — always a char literal.
            Some('\\') => {
                self.bump();
                self.bump(); // the escaped char (or the `u` of \u{…})
                while let Some(ch) = self.peek(0) {
                    self.bump();
                    if ch == '\'' {
                        break;
                    }
                }
                self.push(TokenKind::Literal, String::new(), line, col);
            }
            // `'x'` is a char; `'x` followed by anything else is a
            // lifetime (`&'a str`, `'static`, loop labels).
            Some(ch) if ch.is_alphanumeric() || ch == '_' => {
                if !ch.is_ascii_digit()
                    && self
                        .peek(1)
                        .is_some_and(|c| c.is_alphanumeric() || c == '_')
                {
                    // Multi-char identifier after the quote: a lifetime or
                    // label. Consume the identifier run.
                    while self
                        .peek(0)
                        .is_some_and(|c| c.is_alphanumeric() || c == '_')
                    {
                        self.bump();
                    }
                    self.push(TokenKind::Literal, String::new(), line, col);
                } else if self.peek(1) == Some('\'') {
                    self.bump();
                    self.bump();
                    self.push(TokenKind::Literal, String::new(), line, col);
                } else {
                    // Single-letter lifetime: `'a`, `'_`.
                    self.bump();
                    self.push(TokenKind::Literal, String::new(), line, col);
                }
            }
            // Stray quote (macro land): emit as punctuation and move on.
            _ => self.push(TokenKind::Punct, "'".into(), line, col),
        }
    }

    fn number(&mut self, line: u32, col: u32) {
        let mut prev = '0';
        while let Some(ch) = self.peek(0) {
            let take = ch.is_alphanumeric()
                || ch == '_'
                // `1.5` but not `1..4` (range) and not `1.method()`.
                || (ch == '.'
                    && self.peek(1).is_some_and(|c| c.is_ascii_digit())
                    && prev != '.')
                // Exponent sign: `1e-3`, `2.5E+10`.
                || ((ch == '+' || ch == '-')
                    && (prev == 'e' || prev == 'E')
                    && self.peek(1).is_some_and(|c| c.is_ascii_digit()));
            if !take {
                break;
            }
            prev = ch;
            self.bump();
        }
        self.push(TokenKind::Literal, String::new(), line, col);
    }

    fn ident_or_prefixed_literal(&mut self, line: u32, col: u32) {
        let mut text = String::new();
        while let Some(ch) = self.peek(0) {
            if ch.is_alphanumeric() || ch == '_' {
                text.push(ch);
                self.bump();
            } else {
                break;
            }
        }
        // `r"…"` / `r#"…"#` / `br#"…"#` raw strings and `b"…"` / `b'…'`
        // byte literals: the "identifier" was a literal prefix.
        match (text.as_str(), self.peek(0)) {
            ("r" | "br" | "rb", Some('"' | '#')) => self.raw_string(line, col),
            ("b", Some('"')) => self.string_literal(line, col),
            ("b", Some('\'')) => self.quote(line, col),
            _ => self.push(TokenKind::Ident, text, line, col),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn idents(source: &str) -> Vec<String> {
        lex(source)
            .into_iter()
            .filter(|t| t.kind == TokenKind::Ident)
            .map(|t| t.text)
            .collect()
    }

    #[test]
    fn strings_and_comments_hide_their_contents() {
        let src = r##"
            let s = "Instant::now() unwrap";
            /* panic!("no") */
            let r = r#"SystemTime::now() "quoted" inside"#;
            let b = b"unwrap";
            // only this comment survives as a token
        "##;
        let toks = lex(src);
        assert!(!idents(src).iter().any(|t| t == "unwrap" || t == "Instant"));
        let comments: Vec<&Token> = toks
            .iter()
            .filter(|t| t.kind == TokenKind::LineComment)
            .collect();
        assert_eq!(comments.len(), 1);
        assert!(comments[0].text.contains("only this comment"));
    }

    #[test]
    fn raw_string_hash_depths_terminate_correctly() {
        let src = r###"let a = r##"ends "# not yet"##; let tail = 1;"###;
        let names = idents(src);
        assert_eq!(names, vec!["let", "a", "let", "tail"]);
    }

    #[test]
    fn chars_vs_lifetimes() {
        let src =
            "fn f<'a>(x: &'a str) { let c = 'x'; let esc = '\\''; 'outer: loop { break 'outer; } }";
        let names = idents(src);
        // Lifetime identifiers are folded into literal tokens, so `a`,
        // `outer` never appear as idents; the char literals lex cleanly.
        assert!(!names.iter().any(|t| t == "a" || t == "outer"));
        assert!(names.iter().any(|t| t == "break"));
    }

    #[test]
    fn nested_block_comments() {
        let src = "/* outer /* inner */ still comment */ fn after() {}";
        assert_eq!(idents(src), vec!["fn", "after"]);
    }

    #[test]
    fn numbers_do_not_swallow_ranges_or_methods() {
        let toks = lex("for i in 1..4 { x(1.5e-3); (2).pow(3); }");
        let puncts: String = toks
            .iter()
            .filter(|t| t.kind == TokenKind::Punct)
            .map(|t| t.text.as_str())
            .collect();
        assert!(puncts.contains(".."), "range dots survive: {puncts}");
    }

    #[test]
    fn positions_are_one_based_and_accurate() {
        let toks = lex("ab\n  cd");
        assert_eq!((toks[0].line, toks[0].col), (1, 1));
        assert_eq!((toks[1].line, toks[1].col), (2, 3));
    }
}
