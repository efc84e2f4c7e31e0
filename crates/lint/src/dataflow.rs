//! Lightweight flow analysis inside a single function body, for **R9
//! seed-purity**: def-use chains resolving whether the argument of an
//! RNG construction traces back to a parameter or a `stream_seed(..)`
//! call.
//!
//! Approximation: a `let` binds every identifier of its pattern, and a
//! name resolves to its nearest preceding `let`, without regard to
//! scopes.

use crate::lexer::{Token, TokenKind};

/// A `let` binding: the names it introduces and the token range of its
/// initializer.
#[derive(Debug)]
pub struct Def {
    /// Names bound (all idents of the pattern; over-approximate).
    pub names: Vec<String>,
    /// Absolute index of the `let` keyword.
    pub at: usize,
    /// Initializer token range `[lo, hi)`.
    pub rhs: (usize, usize),
}

/// Collect `let` bindings in `code[lo..hi]`.
pub fn collect_defs(code: &[Token], lo: usize, hi: usize) -> Vec<Def> {
    let hi = hi.min(code.len());
    let mut out = Vec::new();
    let mut i = lo;
    while i < hi {
        if !(code[i].kind == TokenKind::Ident && code[i].text == "let") {
            i += 1;
            continue;
        }
        let at = i;
        // Pattern: idents up to the `=` (stop at `;`/`{` — a `let` with
        // no initializer, or `let … else`).
        let mut names = Vec::new();
        let mut j = i + 1;
        let mut eq = None;
        let mut depth = 0i32;
        while j < hi {
            match code[j].text.as_str() {
                "(" | "[" | "<" => depth += 1,
                ")" | "]" => depth -= 1,
                ">" if code[j - 1].text != "-" && depth > 0 => depth -= 1,
                "=" if depth <= 0 && code.get(j + 1).map(|t| t.text.as_str()) != Some("=") => {
                    eq = Some(j);
                    break;
                }
                ";" | "{" if depth <= 0 => break,
                _ => {
                    if code[j].kind == TokenKind::Ident
                        && !matches!(code[j].text.as_str(), "mut" | "ref" | "let")
                    {
                        names.push(code[j].text.clone());
                    }
                }
            }
            j += 1;
        }
        let Some(eq) = eq else {
            i = j + 1;
            continue;
        };
        // Initializer: from after `=` to the `;` at this statement's
        // level (tracking all delimiters; blocks may appear in the rhs).
        let mut depth = 0i32;
        let mut k = eq + 1;
        while k < hi {
            match code[k].text.as_str() {
                "(" | "[" | "{" => depth += 1,
                ")" | "]" | "}" => depth -= 1,
                ";" if depth <= 0 => break,
                _ => {}
            }
            k += 1;
        }
        out.push(Def {
            names,
            at,
            rhs: (eq + 1, k),
        });
        i = eq + 1;
    }
    out
}

/// Parameter names of a fn whose signature occupies `code[sig_lo..sig_hi)`:
/// idents immediately before a `:` at paren depth 1, plus `self`.
pub fn param_names(code: &[Token], sig_lo: usize, sig_hi: usize) -> Vec<String> {
    let hi = sig_hi.min(code.len());
    let mut out = Vec::new();
    let mut depth = 0i32;
    for i in sig_lo..hi {
        match code[i].text.as_str() {
            "(" => depth += 1,
            ")" => depth -= 1,
            "self" if depth == 1 => out.push("self".to_string()),
            ":" if depth == 1
                && i > sig_lo
                && code[i - 1].kind == TokenKind::Ident
                && code.get(i + 1).map(|t| t.text.as_str()) != Some(":")
                && code[i - 1].text != ":" =>
            {
                out.push(code[i - 1].text.clone());
            }
            _ => {}
        }
    }
    out
}

/// Is the token range `code[lo..hi)` *seed-pure* — does some identifier
/// in it trace back (through `let` chains) to a parameter, `self`, or a
/// `stream_seed(..)` call?
pub fn range_is_pure(
    code: &[Token],
    lo: usize,
    hi: usize,
    params: &[String],
    defs: &[Def],
    depth: usize,
) -> bool {
    if depth > 8 {
        return false;
    }
    let hi = hi.min(code.len());
    for i in lo..hi {
        let t = &code[i];
        if t.kind != TokenKind::Ident {
            continue;
        }
        if t.text == "stream_seed" || t.text == "self" || params.contains(&t.text) {
            return true;
        }
        // Resolve through the nearest preceding `let` of this name.
        let def = defs
            .iter()
            .filter(|d| d.at < lo && d.names.contains(&t.text))
            .max_by_key(|d| d.at);
        if let Some(d) = def {
            if range_is_pure(code, d.rhs.0, d.rhs.1, params, defs, depth + 1) {
                return true;
            }
        }
    }
    false
}

/// Find RNG-construction sites in `code[lo..hi)`: `::seed_from_u64(` and
/// `::from_seed(`. Returns `(ident index, arg_lo, arg_hi)` with the arg
/// range strictly inside the call parens.
pub fn rng_sites(code: &[Token], lo: usize, hi: usize) -> Vec<(usize, usize, usize)> {
    let hi = hi.min(code.len());
    let mut out = Vec::new();
    for i in lo..hi {
        let t = &code[i];
        if t.kind != TokenKind::Ident
            || !(t.text == "seed_from_u64" || t.text == "from_seed")
            || i < 2
            || code[i - 1].text != ":"
            || code[i - 2].text != ":"
            || code.get(i + 1).map(|t| t.text.as_str()) != Some("(")
        {
            continue;
        }
        let open = i + 1;
        let mut depth = 0i32;
        let mut j = open;
        let mut close = hi;
        while j < hi {
            match code[j].text.as_str() {
                "(" => depth += 1,
                ")" => {
                    depth -= 1;
                    if depth == 0 {
                        close = j;
                        break;
                    }
                }
                _ => {}
            }
            j += 1;
        }
        out.push((i, open + 1, close));
    }
    out
}
