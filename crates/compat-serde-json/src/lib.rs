//! Offline drop-in subset of `serde_json`, wired in under the dependency
//! name `serde_json` (see CONTRIBUTING.md, "Offline builds").
//!
//! Provides [`Value`] (the compat serde crate's JSON tree), compact and
//! pretty writers over the `Serialize` trait the rest of the workspace
//! uses, and a strict recursive-descent parser into [`Value`].

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub use serde::Error;
/// A parsed JSON value (alias of the compat serde data model).
pub use serde::Json as Value;
use serde::{Json, Serialize};

/// Serialize a value to compact JSON text.
pub fn to_string<T: Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    let mut out = String::new();
    write_json(&value.serialize(), &mut out, None, 0);
    Ok(out)
}

/// Serialize a value to human-readable JSON text (two-space indents).
pub fn to_string_pretty<T: Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    let mut out = String::new();
    write_json(&value.serialize(), &mut out, Some(2), 0);
    Ok(out)
}

/// Parse JSON text into a [`Value`].
pub fn from_str(s: &str) -> Result<Value, Error> {
    let mut p = Parser {
        bytes: s.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(Error::custom(format!(
            "trailing characters at offset {}",
            p.pos
        )));
    }
    Ok(v)
}

// ---------------------------------------------------------------- writer

fn write_json(v: &Json, out: &mut String, indent: Option<usize>, depth: usize) {
    match v {
        Json::Null => out.push_str("null"),
        Json::Bool(true) => out.push_str("true"),
        Json::Bool(false) => out.push_str("false"),
        Json::I64(i) => out.push_str(&i.to_string()),
        Json::U64(u) => out.push_str(&u.to_string()),
        Json::F64(f) => write_f64(*f, out),
        Json::Str(s) => write_string(s, out),
        Json::Arr(items) => write_seq(out, indent, depth, items.is_empty(), '[', ']', |out| {
            for (i, item) in items.iter().enumerate() {
                seq_sep(out, indent, depth + 1, i == 0);
                write_json(item, out, indent, depth + 1);
            }
        }),
        Json::Obj(fields) => write_seq(out, indent, depth, fields.is_empty(), '{', '}', |out| {
            for (i, (k, item)) in fields.iter().enumerate() {
                seq_sep(out, indent, depth + 1, i == 0);
                write_string(k, out);
                out.push(':');
                if indent.is_some() {
                    out.push(' ');
                }
                write_json(item, out, indent, depth + 1);
            }
        }),
    }
}

fn write_seq(
    out: &mut String,
    indent: Option<usize>,
    depth: usize,
    empty: bool,
    open: char,
    close: char,
    body: impl FnOnce(&mut String),
) {
    out.push(open);
    if empty {
        out.push(close);
        return;
    }
    body(out);
    if let Some(w) = indent {
        out.push('\n');
        out.push_str(&" ".repeat(w * depth));
    }
    out.push(close);
}

fn seq_sep(out: &mut String, indent: Option<usize>, depth: usize, first: bool) {
    if !first {
        out.push(',');
    }
    if let Some(w) = indent {
        out.push('\n');
        out.push_str(&" ".repeat(w * depth));
    }
}

fn write_f64(f: f64, out: &mut String) {
    if f.is_finite() {
        let s = f.to_string();
        out.push_str(&s);
        // Keep floats recognizable as floats on re-parse.
        if !s.contains(['.', 'e', 'E']) {
            out.push_str(".0");
        }
    } else {
        // JSON has no NaN/Inf; mirror the data model's closest value.
        out.push_str("null");
    }
}

fn write_string(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

// ---------------------------------------------------------------- parser

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if b == b' ' || b == b'\t' || b == b'\n' || b == b'\r' {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), Error> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(Error::custom(format!(
                "expected `{}` at offset {}",
                b as char, self.pos
            )))
        }
    }

    fn eat_keyword(&mut self, kw: &str) -> bool {
        if self.bytes[self.pos..].starts_with(kw.as_bytes()) {
            self.pos += kw.len();
            true
        } else {
            false
        }
    }

    fn value(&mut self) -> Result<Json, Error> {
        match self.peek() {
            None => Err(Error::custom("unexpected end of input")),
            Some(b'n') if self.eat_keyword("null") => Ok(Json::Null),
            Some(b't') if self.eat_keyword("true") => Ok(Json::Bool(true)),
            Some(b'f') if self.eat_keyword("false") => Ok(Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'[') => {
                self.pos += 1;
                let mut items = Vec::new();
                self.skip_ws();
                if self.peek() == Some(b']') {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                loop {
                    self.skip_ws();
                    items.push(self.value()?);
                    self.skip_ws();
                    match self.peek() {
                        Some(b',') => self.pos += 1,
                        Some(b']') => {
                            self.pos += 1;
                            return Ok(Json::Arr(items));
                        }
                        _ => {
                            return Err(Error::custom(format!(
                                "expected `,` or `]` at offset {}",
                                self.pos
                            )))
                        }
                    }
                }
            }
            Some(b'{') => {
                self.pos += 1;
                let mut fields = Vec::new();
                self.skip_ws();
                if self.peek() == Some(b'}') {
                    self.pos += 1;
                    return Ok(Json::Obj(fields));
                }
                loop {
                    self.skip_ws();
                    let key = self.string()?;
                    self.skip_ws();
                    self.expect(b':')?;
                    self.skip_ws();
                    let val = self.value()?;
                    fields.push((key, val));
                    self.skip_ws();
                    match self.peek() {
                        Some(b',') => self.pos += 1,
                        Some(b'}') => {
                            self.pos += 1;
                            return Ok(Json::Obj(fields));
                        }
                        _ => {
                            return Err(Error::custom(format!(
                                "expected `,` or `}}` at offset {}",
                                self.pos
                            )))
                        }
                    }
                }
            }
            Some(b) if b == b'-' || b.is_ascii_digit() => self.number(),
            Some(b) => Err(Error::custom(format!(
                "unexpected character `{}` at offset {}",
                b as char, self.pos
            ))),
        }
    }

    fn string(&mut self) -> Result<String, Error> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(Error::custom("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b't') => out.push('\t'),
                        Some(b'r') => out.push('\r'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or_else(|| Error::custom("truncated \\u escape"))?;
                            let code = u32::from_str_radix(
                                std::str::from_utf8(hex)
                                    .map_err(|_| Error::custom("invalid \\u escape"))?,
                                16,
                            )
                            .map_err(|_| Error::custom("invalid \\u escape"))?;
                            // Surrogate pairs are unsupported; the writer
                            // never emits them (it escapes only controls).
                            out.push(
                                char::from_u32(code)
                                    .ok_or_else(|| Error::custom("invalid \\u code point"))?,
                            );
                            self.pos += 4;
                        }
                        other => return Err(Error::custom(format!("invalid escape {other:?}"))),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Consume one UTF-8 encoded char.
                    let rest = std::str::from_utf8(&self.bytes[self.pos..])
                        .map_err(|_| Error::custom("invalid UTF-8 in string"))?;
                    #[expect(
                        clippy::expect_used,
                        reason = "peek returned a byte, so the valid UTF-8 rest is non-empty"
                    )]
                    let c = rest.chars().next().expect("non-empty");
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn number(&mut self) -> Result<Json, Error> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut is_float = false;
        while let Some(b) = self.peek() {
            match b {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    is_float = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| Error::custom("invalid number"))?;
        if !is_float {
            if let Ok(i) = text.parse::<i64>() {
                return Ok(Json::I64(i));
            }
            if let Ok(u) = text.parse::<u64>() {
                return Ok(Json::U64(u));
            }
        }
        text.parse::<f64>()
            .map(Json::F64)
            .map_err(|_| Error::custom(format!("invalid number `{text}`")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_all_value_kinds() {
        let v = Value::Obj(vec![
            ("null".into(), Value::Null),
            ("flag".into(), Value::Bool(true)),
            ("int".into(), Value::I64(-42)),
            ("big".into(), Value::U64(u64::MAX)),
            ("float".into(), Value::F64(2.5)),
            ("text".into(), Value::Str("a \"b\"\n\tc \\ ü".into())),
            (
                "arr".into(),
                Value::Arr(vec![Value::I64(1), Value::Str("two".into())]),
            ),
            ("empty_arr".into(), Value::Arr(vec![])),
            ("empty_obj".into(), Value::Obj(vec![])),
        ]);
        for text in [to_string(&v).unwrap(), to_string_pretty(&v).unwrap()] {
            let back: Value = from_str(&text).unwrap();
            assert_eq!(back, v, "failed on: {text}");
        }
    }

    #[test]
    fn floats_stay_floats() {
        let text = to_string(&Value::F64(3.0)).unwrap();
        assert_eq!(text, "3.0");
        let back: Value = from_str(&text).unwrap();
        assert_eq!(back, Value::F64(3.0));
    }

    #[test]
    fn rejects_trailing_garbage() {
        assert!(from_str("{} x").is_err());
        assert!(from_str("[1,]").is_err());
    }

    #[test]
    fn pretty_output_is_indented() {
        let v = Value::Obj(vec![("a".into(), Value::Arr(vec![Value::I64(1)]))]);
        let text = to_string_pretty(&v).unwrap();
        assert_eq!(text, "{\n  \"a\": [\n    1\n  ]\n}");
    }
}
