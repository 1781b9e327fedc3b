//! A dependency-free, comment/string-aware Rust tokenizer.
//!
//! The source-discipline passes need far less than a parser: they match
//! short token sequences (`std :: sync`, `Instant :: now`, `.unwrap(`)
//! and track brace depth for item extents. What they absolutely must
//! not do is fire on text inside comments, doc comments or string
//! literals — `grep` does, which is why the repo's discipline was only
//! ever spot-checked by hand. This tokenizer handles the full Rust
//! lexical surface that matters for that guarantee:
//!
//! * line (`//`, `///`, `//!`) and nested block (`/* /* */ */`) comments,
//!   skipped;
//! * string, raw-string (`r#"…"#`, any `#` count), byte-string, char and
//!   byte-char literals, with escapes;
//! * lifetimes vs char literals (`'a` vs `'a'`);
//! * raw identifiers (`r#fn`), numeric literals (including `0x…`, float
//!   exponents, and `0..n` ranges), and single-char punctuation.
//!
//! Output is a flat token stream; tokens carry 1-based line numbers.

/// One lexical token. Literal payloads are not kept — the passes only
/// need to know *that* a literal occupies the position.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Tok {
    /// An identifier or keyword (raw identifiers lose their `r#`).
    Ident { text: String, line: u32 },
    /// A single punctuation character (`::` is two `:` tokens).
    Punct { ch: char, line: u32 },
    /// A string/char/byte/numeric literal.
    Lit { line: u32 },
    /// A lifetime or loop label (`'a`, `'static`).
    Lifetime { line: u32 },
}

impl Tok {
    /// The 1-based line the token starts on.
    pub fn line(&self) -> u32 {
        match self {
            Tok::Ident { line, .. }
            | Tok::Punct { line, .. }
            | Tok::Lit { line, .. }
            | Tok::Lifetime { line, .. } => *line,
        }
    }

    /// The identifier text, if this token is an identifier.
    pub fn ident(&self) -> Option<&str> {
        match self {
            Tok::Ident { text, .. } => Some(text),
            _ => None,
        }
    }

    /// The punctuation character, if this token is punctuation.
    pub fn punct(&self) -> Option<char> {
        match self {
            Tok::Punct { ch, .. } => Some(*ch),
            _ => None,
        }
    }

    /// `true` iff the token is the identifier `text`.
    pub fn is_ident(&self, text: &str) -> bool {
        self.ident() == Some(text)
    }

    /// `true` iff the token is the punctuation `ch`.
    pub fn is_punct(&self, ch: char) -> bool {
        self.punct() == Some(ch)
    }
}

/// Tokenizes Rust source into its code tokens, in source order.
/// Lexically invalid input (unterminated string, stray byte) never
/// panics: the cursor always advances, and garbage degrades to
/// punctuation tokens.
pub fn tokenize(src: &str) -> Vec<Tok> {
    Lexer { chars: src.chars().collect(), pos: 0, line: 1, out: Vec::new() }.run()
}

struct Lexer {
    chars: Vec<char>,
    pos: usize,
    line: u32,
    out: Vec<Tok>,
}

impl Lexer {
    fn peek(&self, ahead: usize) -> Option<char> {
        self.chars.get(self.pos + ahead).copied()
    }

    /// Consumes one char, tracking line numbers.
    fn bump(&mut self) -> Option<char> {
        let c = self.peek(0)?;
        self.pos += 1;
        if c == '\n' {
            self.line += 1;
        }
        Some(c)
    }

    fn run(mut self) -> Vec<Tok> {
        while let Some(c) = self.peek(0) {
            let line = self.line;
            match c {
                _ if c.is_whitespace() => {
                    self.bump();
                }
                '/' if self.peek(1) == Some('/') => self.line_comment(),
                '/' if self.peek(1) == Some('*') => self.block_comment(),
                '"' => self.string_lit(line),
                'r' | 'b' if self.raw_or_byte_lit(line) => {}
                '\'' => self.char_or_lifetime(line),
                _ if c.is_ascii_digit() => self.number(line),
                _ if c == '_' || c.is_alphanumeric() => self.ident(line),
                _ => {
                    self.bump();
                    self.out.push(Tok::Punct { ch: c, line });
                }
            }
        }
        self.out
    }

    fn line_comment(&mut self) {
        while self.peek(0).is_some_and(|c| c != '\n') {
            self.bump();
        }
    }

    fn block_comment(&mut self) {
        let mut depth = 0usize;
        while let Some(c) = self.peek(0) {
            if c == '/' && self.peek(1) == Some('*') {
                depth += 1;
                self.bump();
                self.bump();
            } else if c == '*' && self.peek(1) == Some('/') {
                depth -= 1;
                self.bump();
                self.bump();
                if depth == 0 {
                    break;
                }
            } else {
                self.bump();
            }
        }
    }

    /// Consumes a `"…"` literal (escape-aware).
    fn string_lit(&mut self, line: u32) {
        self.bump(); // opening quote
        while let Some(c) = self.bump() {
            match c {
                '\\' => {
                    self.bump();
                }
                '"' => break,
                _ => {}
            }
        }
        self.out.push(Tok::Lit { line });
    }

    /// Handles the `r`/`b` prefix family: `r"…"`, `r#"…"#`, `b"…"`,
    /// `br#"…"#`, `b'x'`, and raw identifiers `r#ident`. Returns `true`
    /// if it consumed a token; `false` to fall through to `ident()`.
    fn raw_or_byte_lit(&mut self, line: u32) -> bool {
        let is_raw_opener = |lex: &Self, at: usize| {
            // `at` points just past an `r`: zero or more `#`s then `"`.
            let mut hashes = 0usize;
            while lex.peek(at + hashes) == Some('#') {
                hashes += 1;
            }
            (lex.peek(at + hashes) == Some('"')).then_some(hashes)
        };
        match (self.peek(0), self.peek(1)) {
            (Some('r'), _) if is_raw_opener(self, 1).is_some() => {
                let hashes = is_raw_opener(self, 1).unwrap_or(0);
                for _ in 0..2 + hashes {
                    self.bump(); // r, #*, "
                }
                self.raw_string_body(hashes);
                self.out.push(Tok::Lit { line });
                true
            }
            (Some('r'), Some('#'))
                if self.peek(2).is_some_and(|c| c == '_' || c.is_alphanumeric()) =>
            {
                // r#ident — drop the prefix, lex the rest as an ident.
                self.bump();
                self.bump();
                self.ident(line);
                true
            }
            (Some('b'), Some('r')) if is_raw_opener(self, 2).is_some() => {
                let hashes = is_raw_opener(self, 2).unwrap_or(0);
                for _ in 0..3 + hashes {
                    self.bump(); // b, r, #*, "
                }
                self.raw_string_body(hashes);
                self.out.push(Tok::Lit { line });
                true
            }
            (Some('b'), Some('"')) => {
                self.bump(); // b — string_lit consumes the quotes.
                self.string_lit(line);
                true
            }
            (Some('b'), Some('\'')) => {
                self.bump(); // b
                self.char_body();
                self.out.push(Tok::Lit { line });
                true
            }
            _ => false,
        }
    }

    /// Body of a raw string already past its opening quote: ends at
    /// `"` followed by `hashes` `#`s. Raw strings have no escapes.
    fn raw_string_body(&mut self, hashes: usize) {
        while let Some(c) = self.bump() {
            if c == '"' && (0..hashes).all(|i| self.peek(i) == Some('#')) {
                for _ in 0..hashes {
                    self.bump();
                }
                break;
            }
        }
    }

    /// `'a` (lifetime) vs `'a'` / `'\n'` (char literal).
    fn char_or_lifetime(&mut self, line: u32) {
        let is_lifetime = match (self.peek(1), self.peek(2)) {
            // 'x' / '\…' are char literals; '_, 'a followed by anything
            // but a closing quote is a lifetime.
            (Some('\\'), _) => false,
            (Some(c), Some('\'')) if c != '\'' => false,
            (Some(c), _) if c == '_' || c.is_alphabetic() => true,
            _ => false,
        };
        if is_lifetime {
            self.bump(); // '
            while let Some(c) = self.peek(0) {
                if c == '_' || c.is_alphanumeric() {
                    self.bump();
                } else {
                    break;
                }
            }
            self.out.push(Tok::Lifetime { line });
        } else {
            self.char_body();
            self.out.push(Tok::Lit { line });
        }
    }

    /// Consumes a char literal, cursor on its opening quote.
    fn char_body(&mut self) {
        self.bump(); // opening '
        while let Some(c) = self.bump() {
            match c {
                '\\' => {
                    self.bump();
                }
                '\'' => break,
                _ => {}
            }
        }
    }

    fn number(&mut self, line: u32) {
        while let Some(c) = self.peek(0) {
            if c == '_' || c.is_alphanumeric() {
                self.bump();
                // Exponent sign: 1e-3, 2.5E+7.
                if (c == 'e' || c == 'E') && matches!(self.peek(0), Some('+' | '-')) {
                    self.bump();
                }
            } else if c == '.' && self.peek(1).is_some_and(|d| d.is_ascii_digit()) {
                // Decimal point — but not the `..` of a range.
                self.bump();
            } else {
                break;
            }
        }
        self.out.push(Tok::Lit { line });
    }

    fn ident(&mut self, line: u32) {
        let mut text = String::new();
        while let Some(c) = self.peek(0) {
            if c == '_' || c.is_alphanumeric() {
                text.push(c);
                self.bump();
            } else {
                break;
            }
        }
        self.out.push(Tok::Ident { text, line });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn idents(src: &str) -> Vec<String> {
        tokenize(src).iter().filter_map(|t| t.ident().map(String::from)).collect()
    }

    #[test]
    fn comments_and_strings_hide_code_text() {
        let src = r##"
            // std::sync::Mutex in a comment
            /* Instant::now() in a block /* nested */ still comment */
            let s = "std::sync::Mutex::new()";
            let r = r#"Instant::now()"#;
            fn real() {}
        "##;
        let ids = idents(src);
        assert!(!ids.contains(&"Mutex".to_string()), "{ids:?}");
        assert!(!ids.contains(&"Instant".to_string()), "{ids:?}");
        assert!(ids.contains(&"real".to_string()));
        assert!(!ids.contains(&"nested".to_string()), "{ids:?}");
    }

    #[test]
    fn lifetimes_are_not_char_literals() {
        let t = tokenize("fn f<'a>(x: &'a str) -> &'static str { 'q' ; '\\n' }");
        let lifetimes = t.iter().filter(|t| matches!(t, Tok::Lifetime { .. })).count();
        let lits = t.iter().filter(|t| matches!(t, Tok::Lit { .. })).count();
        assert_eq!(lifetimes, 3, "{t:?}");
        assert_eq!(lits, 2, "{t:?}");
    }

    #[test]
    fn raw_and_byte_literals_consume_fully() {
        let t = tokenize(r###"let a = br#"x " y"#; let b = b"z"; let c = b'q'; let d = r#raw;"###);
        let ids = idents(r###"let a = br#"x " y"#; let b = b"z"; let c = b'q'; let d = r#raw;"###);
        assert!(ids.contains(&"raw".to_string()), "{ids:?}");
        // No stray tokens from inside the raw string.
        assert!(!ids.contains(&"x".to_string()));
        assert_eq!(t.iter().filter(|t| matches!(t, Tok::Lit { .. })).count(), 3);
    }

    #[test]
    fn line_numbers_are_one_based_and_track_newlines() {
        let t = tokenize("a\nb\n  c");
        let lines: Vec<u32> = t.iter().map(Tok::line).collect();
        assert_eq!(lines, vec![1, 2, 3]);
    }

    #[test]
    fn numbers_do_not_eat_ranges() {
        let t = tokenize("for i in 0..10 { x[i] = 1.5e-3; }");
        let dots = t.iter().filter(|t| t.is_punct('.')).count();
        assert_eq!(dots, 2, "{t:?}");
        assert_eq!(t.iter().filter(|t| matches!(t, Tok::Lit { .. })).count(), 3);
    }

    #[test]
    fn unterminated_string_terminates_lexing() {
        let t = tokenize("let s = \"never closed");
        assert!(t.iter().any(|t| matches!(t, Tok::Lit { .. })));
    }

    #[test]
    fn double_colon_is_two_colons() {
        let t = tokenize("std::sync::Mutex");
        let pattern: Vec<String> = t
            .iter()
            .map(|t| match t {
                Tok::Ident { text, .. } => text.clone(),
                Tok::Punct { ch, .. } => ch.to_string(),
                _ => "?".into(),
            })
            .collect();
        assert_eq!(pattern, vec!["std", ":", ":", "sync", ":", ":", "Mutex"]);
    }
}
