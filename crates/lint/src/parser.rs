//! Item-level recursive-descent parser over the lexer's token stream.
//!
//! This is deliberately **not** a Rust parser. It recovers only the
//! syntactic *skeleton* the rule engine needs: which items exist
//! (`fn` / `struct` / `enum` / `mod` / `impl` / `trait` / `use` / …),
//! their names and byte spans, and — for functions — the token ranges of
//! their signatures and bodies. Everything inside an expression stays an
//! opaque token slice; the dataflow pass ([`crate::dataflow`]) walks it
//! with its own lightweight structure.
//!
//! Error philosophy matches the lexer: never panic, never reject. A
//! token sequence the parser does not understand is skipped one token at
//! a time until the next recognizable item head. rustc is the arbiter of
//! validity; the linter only needs to be *safe* on valid code and
//! *harmless* on invalid code.

use crate::lexer::{lex, Token, TokenKind};

/// Kind of a recovered item.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ItemKind {
    /// `fn` (free function, method, or trait default method).
    Fn,
    /// `struct` or `union`.
    Struct,
    /// `enum`.
    Enum,
    /// Inline `mod name { … }` or declaration `mod name;`.
    Mod,
    /// `impl` block (name = self type).
    Impl,
    /// `trait` definition.
    Trait,
    /// `use` import (name = the joined path text).
    Use,
    /// `const` item (not `const fn`, which is [`ItemKind::Fn`]).
    Const,
    /// `static` item.
    Static,
    /// `type` alias.
    TypeAlias,
}

/// One recovered item.
#[derive(Debug, Clone)]
pub struct Item {
    /// What kind of item.
    pub kind: ItemKind,
    /// Bare name (`top_k_with`, `SketchCache`, …). For `use` items the
    /// joined path; for `impl` blocks the self type.
    pub name: String,
    /// Qualified name: `Type::method` for fns inside `impl`/`trait`
    /// blocks, otherwise the bare name.
    pub qual_name: String,
    /// 1-based line of the item keyword.
    pub line: u32,
    /// 1-based line of the item's last token.
    pub end_line: u32,
    /// Byte span from the first post-attribute token through the item's
    /// last token. Child items (fns in an impl) nest inside their
    /// parent's span.
    pub span: (u32, u32),
    /// Code-token index range `[start, end)` of the header — from the
    /// item keyword up to (not including) the body `{` or closing `;`.
    pub sig: (usize, usize),
    /// Code-token index range `[start, end)` strictly inside the body
    /// braces; `None` for bodiless items (`fn` declarations in traits,
    /// `mod name;`, `use`, …).
    pub body: Option<(usize, usize)>,
}

/// A parsed file: the comment-free token stream plus the items
/// recovered from it. `sig`/`body` ranges index into `code`.
#[derive(Debug, Default)]
pub struct ParsedFile {
    /// Tokens with comments stripped (spans still index the original
    /// source bytes).
    pub code: Vec<Token>,
    /// Recovered items in source order, parents before children.
    pub items: Vec<Item>,
}

impl ParsedFile {
    /// Qualified name of the innermost fn/impl/trait item whose line
    /// range contains `line`, or `""`.
    pub fn enclosing_item(&self, line: u32) -> &str {
        let mut best: Option<&Item> = None;
        for it in &self.items {
            if it.line <= line && line <= it.end_line {
                let better = match best {
                    None => true,
                    // Later matching item is either nested (tighter) or a
                    // sibling starting closer to `line`; both are better.
                    Some(b) => it.line >= b.line,
                };
                if better {
                    best = Some(it);
                }
            }
        }
        best.map(|it| it.qual_name.as_str()).unwrap_or("")
    }
}

/// Lex and parse one file.
pub fn parse(src: &str) -> ParsedFile {
    let code: Vec<Token> = lex(src)
        .into_iter()
        .filter(|t| !matches!(t.kind, TokenKind::LineComment | TokenKind::BlockComment))
        .collect();
    let mut items = Vec::new();
    parse_items(&code, 0, code.len(), "", &mut items);
    ParsedFile { code, items }
}

/// Keywords that may prefix an item head without changing what it is.
fn is_modifier(text: &str) -> bool {
    matches!(text, "pub" | "unsafe" | "async" | "extern" | "default")
}

/// Parse the item sequence in `code[lo..hi]`, using `prefix` to qualify
/// fn names (the enclosing impl/trait self type, or empty).
fn parse_items(code: &[Token], lo: usize, hi: usize, prefix: &str, out: &mut Vec<Item>) {
    let mut p = lo;
    while p < hi {
        p = parse_one(code, p, hi, prefix, out);
    }
}

/// Parse one item (or skip one token) starting at `p`; returns the index
/// just past whatever was consumed.
fn parse_one(code: &[Token], p: usize, hi: usize, prefix: &str, out: &mut Vec<Item>) -> usize {
    let mut i = p;
    // Attributes: `#[...]` and `#![...]`.
    while i < hi && code[i].text == "#" {
        let mut j = i + 1;
        if j < hi && code[j].text == "!" {
            j += 1;
        }
        if j < hi && code[j].text == "[" {
            i = skip_balanced(code, j, hi, "[", "]");
        } else {
            return i + 1; // stray `#`
        }
    }
    let head = i; // first post-attribute token: span starts here
                  // Modifiers: `pub`, `pub(crate)`, `unsafe`, `async`, `extern "C"`.
    while i < hi && code[i].kind == TokenKind::Ident && is_modifier(&code[i].text) {
        let was_extern = code[i].text == "extern";
        i += 1;
        if i < hi && code[i].text == "(" {
            i = skip_balanced(code, i, hi, "(", ")");
        }
        if was_extern && i < hi && code[i].kind == TokenKind::StrLit {
            i += 1;
        }
    }
    if i >= hi {
        return hi;
    }
    let kw = i;
    match code[kw].text.as_str() {
        "fn" => parse_fn(code, head, kw, hi, prefix, out),
        "struct" | "union" => parse_braced_or_semi(code, head, kw, hi, ItemKind::Struct, out),
        "enum" => parse_braced_or_semi(code, head, kw, hi, ItemKind::Enum, out),
        "type" => parse_to_semi(code, head, kw, hi, ItemKind::TypeAlias, out),
        "static" => parse_to_semi(code, head, kw, hi, ItemKind::Static, out),
        "const" => {
            // `const fn f()` vs `const NAME: T = ...;`.
            if kw + 1 < hi && code[kw + 1].text == "fn" {
                parse_fn(code, head, kw + 1, hi, prefix, out)
            } else {
                parse_to_semi(code, head, kw, hi, ItemKind::Const, out)
            }
        }
        "use" => parse_use(code, head, kw, hi, out),
        "mod" => parse_mod(code, head, kw, hi, prefix, out),
        "trait" => parse_container(code, head, kw, hi, ItemKind::Trait, out),
        "impl" => parse_container(code, head, kw, hi, ItemKind::Impl, out),
        "macro_rules" => {
            // `macro_rules! name { ... }`
            let mut j = kw + 1;
            while j < hi && code[j].text != "{" {
                j += 1;
            }
            skip_balanced(code, j, hi, "{", "}")
        }
        _ if code[kw].kind == TokenKind::Ident && kw + 1 < hi && code[kw + 1].text == "!" => {
            // Item-level macro invocation: `macro!(...)` / `macro! { ... }`.
            let mut j = kw + 2;
            // Optional ident between `!` and the delimiter (macro_rules-style).
            if j < hi && code[j].kind == TokenKind::Ident {
                j += 1;
            }
            match code.get(j).map(|t| t.text.as_str()) {
                Some("{") => skip_balanced(code, j, hi, "{", "}"),
                Some("(") => {
                    let end = skip_balanced(code, j, hi, "(", ")");
                    skip_semi(code, end, hi)
                }
                Some("[") => {
                    let end = skip_balanced(code, j, hi, "[", "]");
                    skip_semi(code, end, hi)
                }
                _ => j,
            }
        }
        _ => kw + 1, // unrecognized: skip one token, never panic
    }
}

fn skip_semi(code: &[Token], p: usize, hi: usize) -> usize {
    if p < hi && code[p].text == ";" {
        p + 1
    } else {
        p
    }
}

/// `code[open]` is `open_d`; return the index just past its matching
/// `close_d` (or `hi` if unterminated).
fn skip_balanced(code: &[Token], open: usize, hi: usize, open_d: &str, close_d: &str) -> usize {
    let mut depth = 0usize;
    let mut i = open;
    while i < hi {
        if code[i].text == open_d {
            depth += 1;
        } else if code[i].text == close_d {
            depth -= 1;
            if depth == 0 {
                return i + 1;
            }
        }
        i += 1;
    }
    hi
}

/// Scan forward from `from` for the first `{` or `;` at zero
/// paren/bracket depth; returns `(index, is_brace)` or `None`.
fn find_body_start(code: &[Token], from: usize, hi: usize) -> Option<(usize, bool)> {
    let mut depth = 0i32;
    let mut i = from;
    while i < hi {
        match code[i].text.as_str() {
            "(" | "[" => depth += 1,
            ")" | "]" => depth -= 1,
            "{" if depth <= 0 => return Some((i, true)),
            ";" if depth <= 0 => return Some((i, false)),
            _ => {}
        }
        i += 1;
    }
    None
}

#[expect(
    clippy::too_many_arguments,
    reason = "each argument is one independent field of the item being built"
)]
fn make_item(
    code: &[Token],
    kind: ItemKind,
    name: String,
    prefix: &str,
    head: usize,
    kw: usize,
    sig_end: usize,
    body: Option<(usize, usize)>,
    last: usize,
) -> Item {
    let qual_name = if prefix.is_empty() || !matches!(kind, ItemKind::Fn) {
        name.clone()
    } else {
        format!("{prefix}::{name}")
    };
    Item {
        kind,
        name,
        qual_name,
        line: code[kw].line,
        end_line: code[last].line,
        span: (code[head].start, code[last].end),
        sig: (kw, sig_end),
        body,
    }
}

fn parse_fn(
    code: &[Token],
    head: usize,
    kw: usize,
    hi: usize,
    prefix: &str,
    out: &mut Vec<Item>,
) -> usize {
    let name = match code.get(kw + 1) {
        Some(t) if t.kind == TokenKind::Ident => t.text.clone(),
        _ => return kw + 1,
    };
    match find_body_start(code, kw + 2, hi) {
        Some((open, true)) => {
            let end = skip_balanced(code, open, hi, "{", "}");
            out.push(make_item(
                code,
                ItemKind::Fn,
                name,
                prefix,
                head,
                kw,
                open,
                Some((open + 1, end - 1)),
                end - 1,
            ));
            end
        }
        Some((semi, false)) => {
            // Bodiless declaration (trait method, extern fn).
            out.push(make_item(
                code,
                ItemKind::Fn,
                name,
                prefix,
                head,
                kw,
                semi,
                None,
                semi,
            ));
            semi + 1
        }
        None => hi,
    }
}

/// struct/enum/union: `name { ... }`, `name(...);`, or `name;`.
fn parse_braced_or_semi(
    code: &[Token],
    head: usize,
    kw: usize,
    hi: usize,
    kind: ItemKind,
    out: &mut Vec<Item>,
) -> usize {
    let name = match code.get(kw + 1) {
        Some(t) if t.kind == TokenKind::Ident => t.text.clone(),
        _ => return kw + 1,
    };
    match find_body_start(code, kw + 2, hi) {
        Some((open, true)) => {
            let end = skip_balanced(code, open, hi, "{", "}");
            out.push(make_item(
                code,
                kind,
                name,
                "",
                head,
                kw,
                open,
                None,
                end - 1,
            ));
            end
        }
        Some((semi, false)) => {
            out.push(make_item(code, kind, name, "", head, kw, semi, None, semi));
            semi + 1
        }
        None => hi,
    }
}

/// const/static/type: `name ... = ...;` — scan to the terminating `;` at
/// zero delimiter depth (initializers may contain blocks).
fn parse_to_semi(
    code: &[Token],
    head: usize,
    kw: usize,
    hi: usize,
    kind: ItemKind,
    out: &mut Vec<Item>,
) -> usize {
    let name = match code.get(kw + 1) {
        Some(t) if t.kind == TokenKind::Ident => t.text.clone(),
        _ => return kw + 1,
    };
    let mut depth = 0i32;
    let mut i = kw + 2;
    while i < hi {
        match code[i].text.as_str() {
            "(" | "[" | "{" => depth += 1,
            ")" | "]" | "}" => depth -= 1,
            ";" if depth <= 0 => {
                out.push(make_item(code, kind, name, "", head, kw, i, None, i));
                return i + 1;
            }
            _ => {}
        }
        i += 1;
    }
    hi
}

/// `use path::{a, b};` — name is the joined path text.
fn parse_use(code: &[Token], head: usize, kw: usize, hi: usize, out: &mut Vec<Item>) -> usize {
    let mut depth = 0i32;
    let mut i = kw + 1;
    let mut path = String::new();
    while i < hi {
        match code[i].text.as_str() {
            "{" | "(" => depth += 1,
            "}" | ")" => depth -= 1,
            ";" if depth <= 0 => {
                out.push(make_item(
                    code,
                    ItemKind::Use,
                    path,
                    "",
                    head,
                    kw,
                    i,
                    None,
                    i,
                ));
                return i + 1;
            }
            _ => {}
        }
        path.push_str(&code[i].text);
        i += 1;
    }
    hi
}

/// `mod name;` or `mod name { items... }` — recurses, keeping the same
/// qualification prefix (rule registries use `Type::fn`, not full
/// module paths).
fn parse_mod(
    code: &[Token],
    head: usize,
    kw: usize,
    hi: usize,
    prefix: &str,
    out: &mut Vec<Item>,
) -> usize {
    let name = match code.get(kw + 1) {
        Some(t) if t.kind == TokenKind::Ident => t.text.clone(),
        _ => return kw + 1,
    };
    match code.get(kw + 2).map(|t| t.text.as_str()) {
        Some(";") => {
            out.push(make_item(
                code,
                ItemKind::Mod,
                name,
                "",
                head,
                kw,
                kw + 2,
                None,
                kw + 2,
            ));
            kw + 3
        }
        Some("{") => {
            let open = kw + 2;
            let end = skip_balanced(code, open, hi, "{", "}");
            out.push(make_item(
                code,
                ItemKind::Mod,
                name,
                "",
                head,
                kw,
                open,
                Some((open + 1, end - 1)),
                end - 1,
            ));
            parse_items(code, open + 1, end - 1, prefix, out);
            end
        }
        _ => kw + 2,
    }
}

/// `impl`/`trait` blocks: recover the self-type / trait name, then
/// recurse into the braces with that name as the fn-qualification
/// prefix.
fn parse_container(
    code: &[Token],
    head: usize,
    kw: usize,
    hi: usize,
    kind: ItemKind,
    out: &mut Vec<Item>,
) -> usize {
    let mut i = kw + 1;
    // Leading generics: `impl<T: Fn(u32) -> u32>` — skip angle brackets,
    // treating a `>` preceded by `-` as an arrow, not a close.
    if i < hi && code[i].text == "<" {
        let mut depth = 0i32;
        while i < hi {
            match code[i].text.as_str() {
                "<" => depth += 1,
                ">" if i > 0 && code[i - 1].text == "-" => {}
                ">" => {
                    depth -= 1;
                    if depth == 0 {
                        i += 1;
                        break;
                    }
                }
                "{" | ";" => break, // malformed; bail to body search
                _ => {}
            }
            i += 1;
        }
    }
    // Header: up to `{` (or `;` for `impl Trait for Type;`-ish edge
    // cases). Self type = first ident after a depth-0 `for`, else the
    // first ident (skipping `dyn`/`!`/`&`).
    let mut depth = 0i32;
    let mut first_ident: Option<&str> = None;
    let mut after_for: Option<&str> = None;
    let mut saw_for = false;
    let mut open = None;
    let mut j = i;
    while j < hi {
        let t = &code[j];
        match t.text.as_str() {
            "(" | "[" => depth += 1,
            ")" | "]" => depth -= 1,
            "{" if depth <= 0 => {
                open = Some(j);
                break;
            }
            ";" if depth <= 0 => break,
            "for" if depth <= 0 => saw_for = true,
            "where" if depth <= 0 => {}
            _ if t.kind == TokenKind::Ident && t.text != "dyn" && t.text != "mut" => {
                if saw_for && after_for.is_none() {
                    after_for = Some(&t.text);
                }
                if first_ident.is_none() {
                    first_ident = Some(&t.text);
                }
            }
            _ => {}
        }
        j += 1;
    }
    let name = after_for.or(first_ident).unwrap_or("").to_string();
    match open {
        Some(open) => {
            let end = skip_balanced(code, open, hi, "{", "}");
            out.push(make_item(
                code,
                kind,
                name.clone(),
                "",
                head,
                kw,
                open,
                Some((open + 1, end - 1)),
                end - 1,
            ));
            parse_items(code, open + 1, end - 1, &name, out);
            end
        }
        None => {
            out.push(make_item(
                code,
                kind,
                name,
                "",
                head,
                kw,
                j,
                None,
                j.min(hi - 1),
            ));
            j + 1
        }
    }
}
