//! The rule engine: file classification plus the per-file rules
//! (token-pattern R1/R3, flow-sensitive R9). The tree-level rule (R12,
//! over the workspace metric inventory) is driven from `lib.rs`; this
//! pass collects its inputs.

use crate::dataflow;
use crate::lexer::{Token, TokenKind};
use crate::parser::{parse, ItemKind, ParsedFile};
use crate::workspace::{Classification, MetricDecl, MetricUse};
use crate::Finding;

/// The rule catalog: `(id, name, summary)`. The ids are stable — they
/// appear in the JSON report consumed by CI and in the fixture
/// expectations — so renumbering is a breaking change. The gaps (R2,
/// R4, R5, R6, R8, R10, R11) are retired ids (see the crate docs) and
/// are never reused.
pub const RULES: &[(&str, &str, &str)] = &[
    (
        "R1",
        "hash-collection",
        "no HashMap/HashSet in algorithm crates: iteration order is \
         nondeterministic; use BTreeMap/BTreeSet or an explicit sort",
    ),
    (
        "R3",
        "wall-clock",
        "no Instant/SystemTime in algorithm crates: results must be a \
         function of inputs and seeds, never of elapsed time",
    ),
    (
        "R7",
        "bad-suppression",
        "every [package.metadata.rdi-lint] opt-out must carry a non-empty reason",
    ),
    (
        "R9",
        "seed-purity",
        "every RNG construction in algorithm crates must derive its seed, \
         through the function's def-use chains, from a parameter or a \
         stream_seed(..) call: ambient or literal reseeding breaks replay",
    ),
    (
        "R12",
        "metrics-consistency",
        "metric names asserted by goldens must be updated somewhere in \
         source, and every serve./actor./fault. name updated must be \
         declared exactly once in METRIC_NAMES",
    ),
];

/// Fallback algorithm-crate list, used only when no workspace manifest
/// is available (single-file analysis, fixture trees). The real scan
/// derives the classification from `[package.metadata.rdi-lint]`
/// markers — see `workspace.rs`.
const ALGO_CRATES: &[&str] = &[
    "coverage",
    "discovery",
    "joinsample",
    "tailor",
    "fairness",
    "cleaning",
    "actor",
];

/// What the analyzer decided about one file.
#[derive(Debug)]
pub struct FileReport {
    /// Violations, sorted by (line, rule, message).
    pub findings: Vec<Finding>,
}

/// Classification derived from a file's workspace-relative path.
struct FileCtx<'a> {
    /// `Some("coverage")` for `crates/coverage/...`, `None` for the root
    /// package.
    crate_name: Option<&'a str>,
    /// Under a `tests/`, `benches/` or `examples/` directory, or
    /// `build.rs`: no rules apply.
    exempt_all: bool,
    /// Do the algorithm-crate rules (R1/R3/R9) apply?
    is_algo: bool,
}

impl<'a> FileCtx<'a> {
    fn classify(rel: &'a str, class: Option<&Classification>) -> Self {
        let components: Vec<&str> = rel.split('/').collect();
        let crate_name = match components.first() {
            Some(&"crates") => components.get(1).copied(),
            _ => None,
        };
        let dirs = &components[..components.len().saturating_sub(1)];
        let file_name = components.last().copied().unwrap_or("");
        let exempt_all = dirs
            .iter()
            .any(|d| matches!(*d, "tests" | "benches" | "examples"))
            || file_name == "build.rs";
        let is_algo = match (crate_name, class) {
            (Some(name), Some(class)) => class.crates.get(name).is_some_and(|c| c.algo),
            (Some(name), None) => ALGO_CRATES.contains(&name),
            (None, _) => false,
        };
        FileCtx {
            crate_name,
            exempt_all,
            is_algo,
        }
    }
}

/// Everything the per-file pass learned. The tree-level pass (R12)
/// appends to `raw` and `lib.rs` finalizes.
pub(crate) struct FileAnalysis {
    /// Workspace-relative path.
    pub rel: String,
    /// Findings, before item names are filled in and they are sorted.
    pub raw: Vec<Finding>,
    /// Item-level parse (comment-free tokens + item skeleton).
    pub parsed: ParsedFile,
    /// Metric names updated in this file (R12 input).
    pub metric_uses: Vec<MetricUse>,
    /// `METRIC_NAMES` registry entries found in this file (R12 input).
    pub metric_decls: Vec<MetricDecl>,
}

/// Analyze one file's source. `rel` is its workspace-relative path with
/// `/` separators (used for scoping rules and reported in findings).
/// This is the single-file API: R1/R3/R9 with the built-in fallback
/// crate classification. The full scan (`analyze_tree`) additionally
/// runs R12, R7 on the manifests and the manifest-driven
/// classification.
pub fn analyze_source(rel: &str, src: &str) -> FileReport {
    finalize(analyze_file(rel, src, None))
}

/// The per-file pass: parse, R1/R3/R9, metric collection.
pub(crate) fn analyze_file(rel: &str, src: &str, class: Option<&Classification>) -> FileAnalysis {
    let ctx = FileCtx::classify(rel, class);
    let mut raw: Vec<Finding> = Vec::new();
    let parsed = parse(src);
    let code = &parsed.code;
    let test_boundary = cfg_test_boundary(code);
    let mut metric_uses = Vec::new();
    let mut metric_decls = Vec::new();

    if !ctx.exempt_all {
        // Everything from the first `#[cfg(test)]` on is test code (by
        // workspace convention the tests module trails the file).
        let in_test = |line: u32| test_boundary.is_some_and(|b| line >= b);

        for (i, tok) in code.iter().enumerate() {
            if tok.kind != TokenKind::Ident || in_test(tok.line) {
                continue;
            }
            match tok.text.as_str() {
                "HashMap" | "HashSet" if ctx.is_algo => {
                    finding(
                        &mut raw,
                        "R1",
                        rel,
                        tok.line,
                        format!(
                            "`{}` in algorithm crate `{}`: iteration order is nondeterministic; \
                         use BTreeMap/BTreeSet or an explicit sort before order-sensitive output",
                            tok.text,
                            ctx.crate_name.unwrap_or(""),
                        ),
                    );
                }
                "Instant" | "SystemTime" if ctx.is_algo => {
                    finding(&mut raw, "R3", rel, tok.line, format!(
                        "`{}` in algorithm crate `{}`: wall-clock reads make results a \
                         function of the schedule; timing belongs in rdi-obs spans or bench harnesses",
                        tok.text,
                        ctx.crate_name.unwrap_or(""),
                    ));
                }
                "counter" | "gauge" | "histogram" | "span" | "span_root"
                    if is_metric_call(code, i) =>
                {
                    if let Some((name, line)) = first_str_arg(code, i + 1) {
                        metric_uses.push(MetricUse {
                            file: rel.to_string(),
                            line,
                            name,
                        });
                    }
                }
                "METRIC_NAMES" if i >= 1 && code[i - 1].text == "const" => {
                    collect_metric_decls(code, i, rel, &mut metric_decls);
                }
                _ => {}
            }
        }

        // R9 seed-purity: flow-sensitive, per function body.
        if ctx.is_algo {
            check_seed_purity(&parsed, rel, &in_test, &mut raw);
        }
    }

    FileAnalysis {
        rel: rel.to_string(),
        raw,
        parsed,
        metric_uses,
        metric_decls,
    }
}

/// Fill in each finding's enclosing item and sort: the last step of
/// both the single-file and the tree analysis.
pub(crate) fn finalize(fa: FileAnalysis) -> FileReport {
    let mut findings = fa.raw;
    for f in &mut findings {
        if f.item.is_empty() {
            f.item = fa.parsed.enclosing_item(f.line).to_string();
        }
    }
    findings.sort_by(|a, b| (a.line, a.rule, &a.message).cmp(&(b.line, b.rule, &b.message)));
    FileReport { findings }
}

/// R9: every `::seed_from_u64(..)` / `::from_seed(..)` argument in an
/// algorithm crate must resolve, through the body's `let` chains, to a
/// parameter, `self`, or a `stream_seed(..)` call.
fn check_seed_purity(
    parsed: &ParsedFile,
    rel: &str,
    in_test: &dyn Fn(u32) -> bool,
    raw: &mut Vec<Finding>,
) {
    let code = &parsed.code;
    for item in &parsed.items {
        if item.kind != ItemKind::Fn || in_test(item.line) {
            continue;
        }
        let Some((blo, bhi)) = item.body else {
            continue;
        };
        let sites = dataflow::rng_sites(code, blo, bhi);
        if sites.is_empty() {
            continue;
        }
        let params = dataflow::param_names(code, item.sig.0, item.sig.1);
        let defs = dataflow::collect_defs(code, blo, bhi);
        for (at, arg_lo, arg_hi) in sites {
            if dataflow::range_is_pure(code, arg_lo, arg_hi, &params, &defs, 0) {
                continue;
            }
            raw.push(Finding {
                rule: "R9",
                name: "seed-purity",
                file: rel.to_string(),
                line: code[at].line,
                item: item.qual_name.clone(),
                message: format!(
                    "RNG in `{}` is seeded from a value that does not flow from a \
                     parameter or stream_seed(..): ambient or literal reseeding makes \
                     replay diverge; thread the seed in from the caller",
                    item.qual_name,
                ),
            });
        }
    }
}

fn finding(out: &mut Vec<Finding>, rule: &'static str, file: &str, line: u32, message: String) {
    let name = RULES
        .iter()
        .find(|(id, _, _)| *id == rule)
        .map(|(_, n, _)| *n)
        .unwrap_or("unknown");
    out.push(Finding {
        rule,
        name,
        file: file.to_string(),
        line,
        item: String::new(),
        message,
    });
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
