//! A hand-rolled Rust lexer, precise enough for lint rules.
//!
//! The rules in [`crate::rules`] match on *code* token sequences
//! (identifiers and punctuation) and separately inspect *comment*
//! tokens (for `SAFETY:` justifications and `taco-check:` pragmas), so
//! the lexer's one job is to never confuse the two: text inside string
//! literals must not look like code or pragmas, `'a` must lex as a
//! lifetime while `'a'` lexes as a char literal, and `/* /* */ */`
//! must nest. Numeric literals and identifiers are consumed but their
//! exact sub-grammar (suffixes, exponents) is deliberately loose —
//! rules never look inside them.

/// One lexed token. Line numbers are 1-based and refer to the line the
/// token *starts* on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Token {
    pub kind: TokenKind,
    pub line: u32,
}

/// Token classes. String and number contents ARE retained (char
/// literals are not): the workspace model in [`crate::model`] reads
/// salt values out of `NumLit`s and env/span names out of `StrLit`s.
/// Lexical rules in [`crate::rules`] still never match literal text
/// against code patterns — a literal token is opaque to them.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TokenKind {
    /// Identifier or keyword. Raw identifiers (`r#fn`) are unescaped
    /// to their plain spelling.
    Ident(String),
    /// `'a`, `'static`, `'_` — a quote followed by an identifier with
    /// no closing quote.
    Lifetime(String),
    /// `'x'`, `'\n'`, `'\u{1F600}'`, and byte chars `b'x'`.
    CharLit,
    /// `"..."` and `b"..."`. The text is the body between the quotes
    /// with escape sequences kept verbatim (`\n` stays two chars) —
    /// exact enough for the ASCII identifier-like names the model
    /// cares about.
    StrLit(String),
    /// `r"..."`, `r#"..."#` (any number of hashes), and `br`/`rb`
    /// byte variants; text is the body between the delimiters.
    RawStrLit(String),
    /// Integer or float literal, including prefixes/suffixes, with
    /// the source spelling retained (`0x9A97`, `1.5e-3f64`).
    NumLit(String),
    /// A single punctuation character. Multi-char operators (`::`,
    /// `->`) appear as consecutive `Punct` tokens; rules match the
    /// sequence.
    Punct(char),
    /// `// ...` including doc comments; text excludes the slashes.
    LineComment(String),
    /// `/* ... */` with nesting; text excludes the delimiters.
    BlockComment(String),
}

impl TokenKind {
    /// The comment text, if this is a comment.
    pub fn comment_text(&self) -> Option<&str> {
        match self {
            TokenKind::LineComment(t) | TokenKind::BlockComment(t) => Some(t),
            _ => None,
        }
    }
}

/// Lexes `src` into tokens. Unknown bytes lex as `Punct` — the lexer
/// never fails, so a syntactically broken file still gets best-effort
/// linting.
pub fn lex(src: &str) -> Vec<Token> {
    Lexer {
        chars: src.chars().collect(),
        pos: 0,
        line: 1,
        out: Vec::new(),
    }
    .run()
}

struct Lexer {
    chars: Vec<char>,
    pos: usize,
    line: u32,
    out: Vec<Token>,
}

fn is_ident_start(c: char) -> bool {
    c.is_alphabetic() || c == '_'
}

fn is_ident_continue(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

impl Lexer {
    fn peek(&self, ahead: usize) -> Option<char> {
        self.chars.get(self.pos + ahead).copied()
    }

    fn bump(&mut self) -> Option<char> {
        let c = self.peek(0)?;
        self.pos += 1;
        if c == '\n' {
            self.line += 1;
        }
        Some(c)
    }

    fn push(&mut self, kind: TokenKind, line: u32) {
        self.out.push(Token { kind, line });
    }

    fn run(mut self) -> Vec<Token> {
        while let Some(c) = self.peek(0) {
            let line = self.line;
            match c {
                c if c.is_whitespace() => {
                    self.bump();
                }
                '/' => self.slash(line),
                '"' => {
                    self.bump();
                    let text = self.string_body();
                    self.push(TokenKind::StrLit(text), line);
                }
                '\'' => self.quote(line),
                c if c.is_ascii_digit() => self.number(line),
                c if is_ident_start(c) => self.ident_or_prefixed_literal(line),
                c => {
                    self.bump();
                    self.push(TokenKind::Punct(c), line);
                }
            }
        }
        self.out
    }

    /// `/` — line comment, (nested) block comment, or plain punct.
    fn slash(&mut self, line: u32) {
        match self.peek(1) {
            Some('/') => {
                self.bump();
                self.bump();
                let mut text = String::new();
                while let Some(c) = self.peek(0) {
                    if c == '\n' {
                        break;
                    }
                    text.push(c);
                    self.bump();
                }
                self.push(TokenKind::LineComment(text), line);
            }
            Some('*') => {
                self.bump();
                self.bump();
                let mut text = String::new();
                let mut depth = 1usize;
                while depth > 0 {
                    match (self.peek(0), self.peek(1)) {
                        (Some('/'), Some('*')) => {
                            depth += 1;
                            text.push_str("/*");
                            self.bump();
                            self.bump();
                        }
                        (Some('*'), Some('/')) => {
                            depth -= 1;
                            self.bump();
                            self.bump();
                            if depth > 0 {
                                text.push_str("*/");
                            }
                        }
                        (Some(c), _) => {
                            text.push(c);
                            self.bump();
                        }
                        (None, _) => break, // unterminated: EOF closes
                    }
                }
                self.push(TokenKind::BlockComment(text), line);
            }
            _ => {
                self.bump();
                self.push(TokenKind::Punct('/'), line);
            }
        }
    }

    /// Body of a `"` string, opening quote already consumed. Returns
    /// the body text with escape sequences kept verbatim.
    fn string_body(&mut self) -> String {
        let mut text = String::new();
        while let Some(c) = self.bump() {
            match c {
                '\\' => {
                    text.push('\\');
                    if let Some(e) = self.bump() {
                        text.push(e); // the escaped char, whatever it is
                    }
                }
                '"' => return text,
                _ => text.push(c),
            }
        }
        text // unterminated: EOF closes
    }

    /// `'` — char literal or lifetime. The ambiguity: `'a'` is a char,
    /// `'a` (no closing quote) is a lifetime, `'\''` is a char, and
    /// `'static` is a lifetime whose identifier is several chars long
    /// (so `'st…` can only be decided after scanning the identifier).
    fn quote(&mut self, line: u32) {
        self.bump(); // the opening '
        match self.peek(0) {
            Some('\\') => {
                // Escape ⇒ definitely a char literal; consume to the
                // closing quote.
                self.bump();
                self.bump(); // char named by the escape (or `u`/`x`…)
                while let Some(c) = self.bump() {
                    if c == '\'' {
                        break;
                    }
                }
                self.push(TokenKind::CharLit, line);
            }
            Some(c) if is_ident_start(c) => {
                // Scan the identifier; a closing quote right after a
                // *single* ident char means char literal ('a'), and
                // after a longer run it is still a char only if the
                // run was length 1 — 'abc' is not valid Rust, so a
                // multi-char run is always a lifetime.
                let mut len = 0usize;
                while let Some(k) = self.peek(len) {
                    if is_ident_continue(k) {
                        len += 1;
                    } else {
                        break;
                    }
                }
                if len == 1 && self.peek(1) == Some('\'') {
                    self.bump();
                    self.bump();
                    self.push(TokenKind::CharLit, line);
                } else {
                    let mut name = String::new();
                    for _ in 0..len {
                        name.push(self.bump().unwrap_or('_'));
                    }
                    self.push(TokenKind::Lifetime(name), line);
                }
            }
            Some(c) => {
                // Non-ident char: 'é' style literal or punctuation
                // literal like '+'.
                self.bump();
                let _ = c;
                if self.peek(0) == Some('\'') {
                    self.bump();
                }
                self.push(TokenKind::CharLit, line);
            }
            None => self.push(TokenKind::Punct('\''), line),
        }
    }

    /// Numeric literal: prefixes (0x/0o/0b), underscores, a fraction
    /// part only when `.` is followed by a digit (so `0..10` lexes as
    /// `0` `.` `.` `10`), exponents, and alphanumeric suffixes.
    fn number(&mut self, line: u32) {
        let start = self.pos;
        while let Some(c) = self.peek(0) {
            if c.is_alphanumeric() || c == '_' {
                // Exponent sign: 1e-3 / 1E+3.
                if (c == 'e' || c == 'E')
                    && matches!(self.peek(1), Some('+') | Some('-'))
                    && matches!(self.peek(2), Some(d) if d.is_ascii_digit())
                {
                    self.bump();
                    self.bump();
                }
                self.bump();
            } else if c == '.' && matches!(self.peek(1), Some(d) if d.is_ascii_digit()) {
                self.bump();
            } else {
                break;
            }
        }
        let text: String = self.chars[start..self.pos].iter().collect();
        self.push(TokenKind::NumLit(text), line);
    }

    /// Identifier, keyword, raw identifier, or a string literal with
    /// an `r`/`b`/`br`/`rb` prefix.
    fn ident_or_prefixed_literal(&mut self, line: u32) {
        let c = self.peek(0).unwrap_or('_');
        // r"..."  r#"..."#  r#ident
        if c == 'r' {
            let mut hashes = 0usize;
            while self.peek(1 + hashes) == Some('#') {
                hashes += 1;
            }
            match self.peek(1 + hashes) {
                Some('"') => {
                    self.bump(); // r
                    for _ in 0..hashes {
                        self.bump();
                    }
                    self.bump(); // "
                    let text = self.raw_string_body(hashes);
                    self.push(TokenKind::RawStrLit(text), line);
                    return;
                }
                Some(k) if hashes == 1 && is_ident_start(k) => {
                    // Raw identifier r#foo: unescape to foo.
                    self.bump();
                    self.bump();
                    let name = self.ident_text();
                    self.push(TokenKind::Ident(name), line);
                    return;
                }
                _ => {}
            }
        }
        // b'x'  b"..."  br"..."  br#"..."#
        if c == 'b' {
            match self.peek(1) {
                Some('\'') => {
                    self.bump(); // b
                    self.quote(line);
                    return;
                }
                Some('"') => {
                    self.bump();
                    self.bump();
                    let text = self.string_body();
                    self.push(TokenKind::StrLit(text), line);
                    return;
                }
                Some('r') => {
                    let mut hashes = 0usize;
                    while self.peek(2 + hashes) == Some('#') {
                        hashes += 1;
                    }
                    if self.peek(2 + hashes) == Some('"') {
                        self.bump(); // b
                        self.bump(); // r
                        for _ in 0..hashes {
                            self.bump();
                        }
                        self.bump(); // "
                        let text = self.raw_string_body(hashes);
                        self.push(TokenKind::RawStrLit(text), line);
                        return;
                    }
                }
                _ => {}
            }
        }
        let name = self.ident_text();
        self.push(TokenKind::Ident(name), line);
    }

    fn ident_text(&mut self) -> String {
        let mut name = String::new();
        while let Some(c) = self.peek(0) {
            if is_ident_continue(c) {
                name.push(c);
                self.bump();
            } else {
                break;
            }
        }
        name
    }

    /// Body of a raw string opened with `hashes` hashes; the opening
    /// `"` is already consumed. Ends at `"` followed by that many
    /// hashes — quotes and backslashes inside are plain text. Returns
    /// the body text.
    fn raw_string_body(&mut self, hashes: usize) -> String {
        let mut text = String::new();
        while let Some(c) = self.bump() {
            if c == '"' {
                let mut n = 0usize;
                while n < hashes && self.peek(n) == Some('#') {
                    n += 1;
                }
                if n == hashes {
                    for _ in 0..hashes {
                        self.bump();
                    }
                    return text;
                }
            }
            text.push(c);
        }
        text // unterminated: EOF closes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<TokenKind> {
        lex(src).into_iter().map(|t| t.kind).collect()
    }

    #[test]
    fn idents_and_puncts() {
        assert_eq!(
            kinds("foo::bar"),
            vec![
                TokenKind::Ident("foo".into()),
                TokenKind::Punct(':'),
                TokenKind::Punct(':'),
                TokenKind::Ident("bar".into()),
            ]
        );
    }

    #[test]
    fn lifetime_vs_char() {
        assert_eq!(
            kinds("&'a str"),
            vec![
                TokenKind::Punct('&'),
                TokenKind::Lifetime("a".into()),
                TokenKind::Ident("str".into()),
            ]
        );
        assert_eq!(kinds("'a'"), vec![TokenKind::CharLit]);
        assert_eq!(kinds("'\\''"), vec![TokenKind::CharLit]);
        assert_eq!(kinds("'static"), vec![TokenKind::Lifetime("static".into())]);
    }

    #[test]
    fn raw_strings_hide_code() {
        // No Ident tokens may leak out of the raw string body.
        let toks = kinds(r##"let x = r#"thread::spawn("quoted")"#;"##);
        assert_eq!(
            toks,
            vec![
                TokenKind::Ident("let".into()),
                TokenKind::Ident("x".into()),
                TokenKind::Punct('='),
                TokenKind::RawStrLit(r#"thread::spawn("quoted")"#.into()),
                TokenKind::Punct(';'),
            ]
        );
    }

    #[test]
    fn nested_block_comments() {
        let toks = kinds("a /* outer /* inner */ still-outer */ b");
        assert_eq!(
            toks,
            vec![
                TokenKind::Ident("a".into()),
                TokenKind::BlockComment(" outer /* inner */ still-outer ".into()),
                TokenKind::Ident("b".into()),
            ]
        );
    }

    #[test]
    fn line_numbers_track_newlines_everywhere() {
        let src = "a\n\"two\nline\"\nb";
        let toks = lex(src);
        assert_eq!(toks[0].line, 1); // a
        assert_eq!(toks[1].line, 2); // string starts on line 2
        assert_eq!(toks[2].line, 4); // b — string spanned a newline
    }

    #[test]
    fn numbers_do_not_eat_ranges() {
        assert_eq!(
            kinds("0..10"),
            vec![
                TokenKind::NumLit("0".into()),
                TokenKind::Punct('.'),
                TokenKind::Punct('.'),
                TokenKind::NumLit("10".into()),
            ]
        );
        assert_eq!(
            kinds("1.5e-3f64"),
            vec![TokenKind::NumLit("1.5e-3f64".into())]
        );
    }

    #[test]
    fn raw_identifiers_unescape() {
        assert_eq!(
            kinds("r#fn r#try"),
            vec![
                TokenKind::Ident("fn".into()),
                TokenKind::Ident("try".into()),
            ]
        );
    }

    #[test]
    fn byte_literals() {
        assert_eq!(kinds("b'x'"), vec![TokenKind::CharLit]);
        assert_eq!(kinds("b\"bytes\""), vec![TokenKind::StrLit("bytes".into())]);
        assert_eq!(
            kinds("br#\"raw \" bytes\"#"),
            vec![TokenKind::RawStrLit("raw \" bytes".into())]
        );
    }

    #[test]
    fn literal_text_is_retained() {
        assert_eq!(
            kinds(r#"env::var("TACO_TRACE")"#),
            vec![
                TokenKind::Ident("env".into()),
                TokenKind::Punct(':'),
                TokenKind::Punct(':'),
                TokenKind::Ident("var".into()),
                TokenKind::Punct('('),
                TokenKind::StrLit("TACO_TRACE".into()),
                TokenKind::Punct(')'),
            ]
        );
        assert_eq!(kinds("0x9A97"), vec![TokenKind::NumLit("0x9A97".into())]);
        // Escapes stay verbatim — good enough for identifier-like names.
        assert_eq!(kinds("\"a\\nb\""), vec![TokenKind::StrLit("a\\nb".into())]);
    }
}
