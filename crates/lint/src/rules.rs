//! The rule catalog and the per-file pass. R12 runs over the whole
//! tree (`workspace.rs`); this pass collects its inputs, the metric
//! names each file updates and declares, from comment-free tokens.

use crate::lexer::{lex, Token, TokenKind};
use crate::workspace::{MetricDecl, MetricUse};

/// The rule catalog: `(id, name, summary)`. The ids are stable — they
/// appear in the JSON report consumed by CI and in the fixture
/// expectations — so renumbering is a breaking change. The gaps (R1 to
/// R11) are retired ids (see the crate docs) and are never reused.
pub const RULES: &[(&str, &str, &str)] = &[(
    "R12",
    "metrics-consistency",
    "metric names asserted by goldens must be updated somewhere in \
     source, and every serve./actor./fault./policy. name updated must be \
     declared exactly once in METRIC_NAMES",
)];

/// Collect the metric names updated in, and the `METRIC_NAMES` entries
/// declared by, one file. `rel` is its workspace-relative path with
/// `/` separators. Files under `tests/`, `benches/` or `examples/`,
/// `build.rs`, and everything from a file's first `#[cfg(test)]` on
/// (by workspace convention the tests module trails the file) are test
/// code and contribute nothing.
pub(crate) fn collect_metrics(
    rel: &str,
    src: &str,
    uses: &mut Vec<MetricUse>,
    decls: &mut Vec<MetricDecl>,
) {
    if is_exempt(rel) {
        return;
    }
    let code: Vec<Token> = lex(src)
        .into_iter()
        .filter(|t| !matches!(t.kind, TokenKind::LineComment | TokenKind::BlockComment))
        .collect();
    let test_boundary = cfg_test_boundary(&code);
    for (i, tok) in code.iter().enumerate() {
        if tok.kind != TokenKind::Ident || test_boundary.is_some_and(|b| tok.line >= b) {
            continue;
        }
        match tok.text.as_str() {
            "counter" | "gauge" | "histogram" | "span" | "span_root"
                if is_metric_call(&code, i) =>
            {
                if let Some((name, line)) = first_str_arg(&code, i + 1) {
                    uses.push(MetricUse {
                        file: rel.to_string(),
                        line,
                        name,
                    });
                }
            }
            "METRIC_NAMES" if i >= 1 && code[i - 1].text == "const" => {
                collect_metric_decls(&code, i, rel, decls);
            }
            _ => {}
        }
    }
}

/// Is the file at `rel` test, bench or example code, or a build script?
fn is_exempt(rel: &str) -> bool {
    let components: Vec<&str> = rel.split('/').collect();
    let dirs = &components[..components.len().saturating_sub(1)];
    dirs.iter()
        .any(|d| matches!(*d, "tests" | "benches" | "examples"))
        || components.last() == Some(&"build.rs")
}

/// Line of the first `#[cfg(test)]` attribute.
fn cfg_test_boundary(code: &[Token]) -> Option<u32> {
    code.windows(7).find_map(|w| {
        let texts: Vec<&str> = w.iter().map(|t| t.text.as_str()).collect();
        (texts == ["#", "[", "cfg", "(", "test", ")", "]"]).then(|| w[0].line)
    })
}

/// Is `code[i]` a metric-registry call (`counter("..")`, `obs::gauge(..)`,
/// `rdi_obs::span(..)`) rather than a definition or method of the same
/// name?
fn is_metric_call(code: &[Token], i: usize) -> bool {
    if code.get(i + 1).is_none_or(|t| t.text != "(") {
        return false;
    }
    // `fn counter(` / `fn span(` is the registry's own definition.
    i == 0 || code[i - 1].text != "fn"
}

/// First string literal strictly inside the balanced parens opening at
/// `open` (`code[open]` must be `(`). Returns `(text, line)`.
fn first_str_arg(code: &[Token], open: usize) -> Option<(String, u32)> {
    let mut depth = 0i32;
    let mut j = open;
    while j < code.len() {
        match code[j].text.as_str() {
            "(" => depth += 1,
            ")" => {
                depth -= 1;
                if depth == 0 {
                    return None;
                }
            }
            _ => {
                if code[j].kind == TokenKind::StrLit {
                    return Some((code[j].text.clone(), code[j].line));
                }
            }
        }
        j += 1;
    }
    None
}

/// Collect the string literals of a `const METRIC_NAMES: &[&str] = &[..];`
/// registry, from the `METRIC_NAMES` ident at `i` to the closing `;`.
fn collect_metric_decls(code: &[Token], i: usize, rel: &str, out: &mut Vec<MetricDecl>) {
    for tok in code.iter().skip(i) {
        if tok.text == ";" {
            break;
        }
        if tok.kind == TokenKind::StrLit {
            out.push(MetricDecl {
                file: rel.to_string(),
                line: tok.line,
                name: tok.text.clone(),
            });
        }
    }
}
