//! A small token-level Rust lexer with byte-accurate spans.
//!
//! The rule engine does not need full parsing — only a token stream that
//! is *reliable about what is code and what is not*. The tricky part of
//! that job is correctly skipping the four contexts in which rule-pattern
//! text may appear without being code:
//!
//! * string literals (including multi-line strings and escapes),
//! * raw strings `r"…"` / `r#"…"#` / byte variants with any `#` count,
//! * char literals (disambiguated from lifetimes), and
//! * comments, including **nested** block comments.
//!
//! Comments are kept as tokens (rather than dropped) so the span
//! invariants below hold over the whole source; the item parser filters
//! them out.
//!
//! Every token carries its `[start, end)` **byte** span in the source.
//! The item parser ([`crate::parser`]) and the symbol graph lean on
//! these spans; the invariants they may assume are pinned by tests:
//! spans are in-bounds, strictly increasing, non-overlapping, aligned to
//! UTF-8 boundaries, the text between consecutive spans is pure
//! whitespace, and for identifier/number/punct/comment tokens the span
//! slices back to exactly the token text (raw identifiers `r#name` span
//! the full `r#`-prefixed source while `text` holds the bare name).

/// Kind of a lexed token.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokenKind {
    /// Identifier or keyword (`HashMap`, `fn`, raw identifiers `r#type`).
    Ident,
    /// Lifetime or loop label (`'a`, `'static`).
    Lifetime,
    /// Character literal (`'x'`, `'\n'`).
    CharLit,
    /// String literal of any flavor (plain, raw, byte).
    StrLit,
    /// Numeric literal.
    Num,
    /// Single punctuation character.
    Punct,
    /// `// …` comment (text excludes the trailing newline).
    LineComment,
    /// `/* … */` comment, possibly nested and multi-line.
    BlockComment,
}

/// One lexed token with its 1-based starting line and byte span.
#[derive(Debug, Clone)]
pub struct Token {
    /// What kind of token this is.
    pub kind: TokenKind,
    /// The token text. For [`TokenKind::StrLit`] this is the literal's
    /// *contents* (delimiters and prefixes stripped); for comments the
    /// full comment text including markers; otherwise the raw slice
    /// (raw identifiers drop their `r#` prefix).
    pub text: String,
    /// 1-based line on which the token starts.
    pub line: u32,
    /// Byte offset of the token's first character in the source.
    pub start: u32,
    /// Byte offset one past the token's last character.
    pub end: u32,
}

fn is_ident_start(c: char) -> bool {
    c.is_alphabetic() || c == '_'
}

fn is_ident_continue(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

struct Lexer {
    chars: Vec<char>,
    /// `byte_of[i]` is the byte offset of `chars[i]`; one extra entry
    /// holds the total byte length, so `byte_of[pos]` is always the
    /// "current byte offset" even at end of input.
    byte_of: Vec<u32>,
    pos: usize,
    line: u32,
    tokens: Vec<Token>,
}

impl Lexer {
    fn peek(&self, ahead: usize) -> Option<char> {
        self.chars.get(self.pos + ahead).copied()
    }

    /// Byte offset of the current (next unconsumed) character.
    fn byte(&self) -> u32 {
        self.byte_of[self.pos]
    }

    /// Advance one char, tracking line numbers.
    fn bump(&mut self) -> Option<char> {
        let c = self.chars.get(self.pos).copied();
        if let Some(c) = c {
            self.pos += 1;
            if c == '\n' {
                self.line += 1;
            }
        }
        c
    }

    /// Push a token whose span started at byte `start` and ends at the
    /// current position.
    fn push(&mut self, kind: TokenKind, text: String, line: u32, start: u32) {
        let end = self.byte();
        self.tokens.push(Token {
            kind,
            text,
            line,
            start,
            end,
        });
    }

    fn line_comment(&mut self) {
        let line = self.line;
        let start = self.byte();
        let mut text = String::new();
        while let Some(c) = self.peek(0) {
            if c == '\n' {
                break;
            }
            text.push(c);
            self.bump();
        }
        // A CRLF line ending leaves the `\r` on the comment tail; strip
        // it from the text (the span keeps the byte).
        if text.ends_with('\r') {
            text.pop();
        }
        self.push(TokenKind::LineComment, text, line, start);
    }

    /// Block comment with nesting: `/* a /* b */ c */` is one comment.
    fn block_comment(&mut self) {
        let line = self.line;
        let start = self.byte();
        let mut text = String::new();
        let mut depth = 0usize;
        loop {
            match (self.peek(0), self.peek(1)) {
                (Some('/'), Some('*')) => {
                    depth += 1;
                    text.push_str("/*");
                    self.bump();
                    self.bump();
                }
                (Some('*'), Some('/')) => {
                    depth -= 1;
                    text.push_str("*/");
                    self.bump();
                    self.bump();
                    if depth == 0 {
                        break;
                    }
                }
                (Some(_), _) => {
                    // `bump` already tracks newlines inside the comment.
                    if let Some(c) = self.bump() {
                        text.push(c);
                    }
                }
                (None, _) => break, // unterminated; tolerate
            }
        }
        self.push(TokenKind::BlockComment, text, line, start);
    }

    /// Plain (non-raw) string body, opening `"` already consumed.
    /// `start` is the byte offset of the literal's first character
    /// (prefix or quote).
    fn string_body(&mut self, line: u32, start: u32) {
        let mut text = String::new();
        loop {
            match self.bump() {
                None | Some('"') => break,
                Some('\\') => {
                    // Consume the escaped char so `\"` does not close the
                    // string; the exact escape value is irrelevant here.
                    if let Some(c) = self.bump() {
                        text.push('\\');
                        text.push(c);
                    }
                }
                Some(c) => text.push(c),
            }
        }
        self.push(TokenKind::StrLit, text, line, start);
    }

    /// Raw string starting at the `#`s or `"` (prefix `r`/`br`/`b` is
    /// already consumed): `r##"…"##` closes only on `"` followed by the
    /// same number of `#`.
    fn raw_string_body(&mut self, line: u32, start: u32) {
        let mut hashes = 0usize;
        while self.peek(0) == Some('#') {
            hashes += 1;
            self.bump();
        }
        // opening quote
        self.bump();
        let mut text = String::new();
        'outer: loop {
            match self.bump() {
                None => break,
                Some('"') => {
                    // A closing candidate: need `hashes` subsequent `#`s.
                    for ahead in 0..hashes {
                        if self.peek(ahead) != Some('#') {
                            text.push('"');
                            continue 'outer;
                        }
                    }
                    for _ in 0..hashes {
                        self.bump();
                    }
                    break;
                }
                Some(c) => text.push(c),
            }
        }
        self.push(TokenKind::StrLit, text, line, start);
    }

    /// Char literal vs lifetime, at the `'` (not yet consumed).
    fn char_or_lifetime(&mut self) {
        let line = self.line;
        let start = self.byte();
        self.bump(); // the `'`
        match self.peek(0) {
            Some('\\') => {
                // Escaped char literal: `'\n'`, `'\u{1F600}'`, `'\''`.
                self.bump();
                let mut text = String::from("\\");
                // The escaped character itself may be `'`; consume it
                // unconditionally so it cannot close the literal.
                if let Some(c) = self.bump() {
                    text.push(c);
                }
                while let Some(c) = self.bump() {
                    if c == '\'' {
                        break;
                    }
                    text.push(c);
                }
                self.push(TokenKind::CharLit, text, line, start);
            }
            Some(c) if self.peek(1) == Some('\'') && c != '\'' => {
                // Single-char literal: `'a'`, `'0'`, `'"'`.
                self.bump();
                self.bump();
                self.push(TokenKind::CharLit, c.to_string(), line, start);
            }
            _ => {
                // Lifetime or loop label: consume identifier chars.
                let mut text = String::from("'");
                while let Some(c) = self.peek(0) {
                    if is_ident_continue(c) {
                        text.push(c);
                        self.bump();
                    } else {
                        break;
                    }
                }
                self.push(TokenKind::Lifetime, text, line, start);
            }
        }
    }

    fn ident(&mut self) {
        let line = self.line;
        let start = self.byte();
        let mut text = String::new();
        while let Some(c) = self.peek(0) {
            if is_ident_continue(c) {
                text.push(c);
                self.bump();
            } else {
                break;
            }
        }
        // String-literal prefixes and raw identifiers attach to the next
        // token; dispatch on what follows.
        match (text.as_str(), self.peek(0)) {
            ("r" | "b" | "br" | "rb", Some('"')) => {
                if text.starts_with('r') || text == "rb" {
                    self.raw_string_body(line, start);
                } else {
                    self.bump();
                    self.string_body(line, start);
                }
            }
            ("r" | "br", Some('#')) if self.raw_prefix_is_string() => {
                self.raw_string_body(line, start);
            }
            ("r", Some('#')) => {
                // Raw identifier `r#type`: emit as a plain ident whose
                // span covers the full `r#`-prefixed source.
                self.bump();
                let mut raw = String::new();
                while let Some(c) = self.peek(0) {
                    if is_ident_continue(c) {
                        raw.push(c);
                        self.bump();
                    } else {
                        break;
                    }
                }
                self.push(TokenKind::Ident, raw, line, start);
            }
            ("b", Some('\'')) => {
                // Byte literal `b'x'`: `char_or_lifetime` pushes a token
                // starting at the quote; widen it to cover the prefix.
                self.char_or_lifetime();
                if let Some(last) = self.tokens.last_mut() {
                    last.line = line;
                    last.start = start;
                }
            }
            _ => self.push(TokenKind::Ident, text, line, start),
        }
    }

    /// After lexing a leading `r`/`br` with a `#` next: is this a raw
    /// string (`#`s then `"`) rather than a raw identifier (`#` then
    /// ident)?
    fn raw_prefix_is_string(&self) -> bool {
        let mut ahead = 0;
        while self.peek(ahead) == Some('#') {
            ahead += 1;
        }
        self.peek(ahead) == Some('"')
    }

    fn number(&mut self) {
        let line = self.line;
        let start = self.byte();
        let mut text = String::new();
        while let Some(c) = self.peek(0) {
            if c.is_ascii_alphanumeric() || c == '_' {
                text.push(c);
                self.bump();
            } else if c == '.' {
                // `1.5` continues the number; `1..n` does not.
                match self.peek(1) {
                    Some(d) if d.is_ascii_digit() => {
                        text.push(c);
                        self.bump();
                    }
                    _ => break,
                }
            } else if (c == '+' || c == '-') && matches!(text.chars().last(), Some('e') | Some('E'))
            {
                // Exponent sign: `1e-5`.
                text.push(c);
                self.bump();
            } else {
                break;
            }
        }
        self.push(TokenKind::Num, text, line, start);
    }
}

/// Lex `src` into a token stream. Never fails: malformed input degrades
/// to punctuation tokens rather than errors (the analyzer must not crash
/// on a file rustc would reject — rustc will reject it louder).
pub fn lex(src: &str) -> Vec<Token> {
    let mut byte_of: Vec<u32> = src.char_indices().map(|(i, _)| i as u32).collect();
    byte_of.push(src.len() as u32);
    let mut lx = Lexer {
        chars: src.chars().collect(),
        byte_of,
        pos: 0,
        line: 1,
        tokens: Vec::new(),
    };
    while let Some(c) = lx.peek(0) {
        match c {
            c if c.is_whitespace() => {
                lx.bump();
            }
            '/' if lx.peek(1) == Some('/') => lx.line_comment(),
            '/' if lx.peek(1) == Some('*') => lx.block_comment(),
            '"' => {
                let line = lx.line;
                let start = lx.byte();
                lx.bump();
                lx.string_body(line, start);
            }
            '\'' => lx.char_or_lifetime(),
            c if is_ident_start(c) => lx.ident(),
            c if c.is_ascii_digit() => lx.number(),
            _ => {
                let line = lx.line;
                let start = lx.byte();
                lx.bump();
                lx.push(TokenKind::Punct, c.to_string(), line, start);
            }
        }
    }
    lx.tokens
}
