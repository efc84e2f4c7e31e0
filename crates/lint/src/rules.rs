//! The rule engine: file classification plus the per-file rules
//! (token-pattern R1/R3, flow-sensitive R9, the R10 choose-site leg).
//! Tree-level rules (R10 via the symbol graph, R12 via the workspace
//! metric inventory) are driven from `lib.rs` but their registries live
//! here.

use crate::dataflow::{self, BlockTree};
use crate::lexer::{Token, TokenKind};
use crate::parser::{parse, ItemKind, ParsedFile};
use crate::symbols::{emission_sites, SymbolGraph};
use crate::workspace::{Classification, MetricDecl, MetricUse};
use crate::Finding;

/// The rule catalog: `(id, name, summary)`. The ids are stable — they
/// appear in the JSON report consumed by CI and in the fixture
/// expectations — so renumbering is a breaking change. The gaps (R2,
/// R4, R5, R6, R8, R11) are retired ids (see the crate docs) and are
/// never reused.
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
        "R10",
        "provenance-completeness",
        "registered decision points must emit a ProvenanceEvent or metrics \
         update on every return path, directly or via a callee; every \
         selection-policy .choose( call site must reach a PolicyDecision \
         emission",
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

/// The R10 decision-point registry: `(crate, qualified fn, what it
/// decides)`. A function listed here must emit a `ProvenanceEvent` or a
/// metrics update on **every** return path. Growing the registry is the
/// expected way to put a new decision under audit; see CONTRIBUTING.md.
pub const DECISION_POINTS: &[(&str, &str, &str)] = &[
    (
        "discovery",
        "UnionSearchIndex::top_k_with",
        "union candidate ranking",
    ),
    ("serve", "execute", "serving query execution"),
    ("serve", "SketchCache::insert", "cache admission/eviction"),
    ("serve", "SketchCache::evict_where", "cache invalidation"),
    ("core", "run_resilient", "source quarantine and redirect"),
    ("tailor", "run_draw_loop", "tailoring keep/drop"),
    (
        "fault",
        "RecoveringBreaker::record_failure",
        "breaker transition",
    ),
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
    /// Binary code (`src/bin/...`, `src/main.rs`, or any module of a
    /// package without a lib target): the R10 choose-site leg does not
    /// apply.
    is_bin: bool,
    /// Do the algorithm-crate rules (R1/R3/R9) apply?
    is_algo: bool,
}

impl<'a> FileCtx<'a> {
    fn classify(rel: &'a str, class: Option<&Classification>, bin_only: bool) -> Self {
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
        let is_bin = bin_only || dirs.ends_with(&["src", "bin"]) || rel.ends_with("src/main.rs");
        let is_algo = match (crate_name, class) {
            (Some(name), Some(class)) => class.crates.get(name).is_some_and(|c| c.algo),
            (Some(name), None) => ALGO_CRATES.contains(&name),
            (None, _) => false,
        };
        FileCtx {
            crate_name,
            exempt_all,
            is_bin,
            is_algo,
        }
    }
}

/// Everything the per-file pass learned. Tree-level passes (R10/R12)
/// append to `raw` and `lib.rs` finalizes.
pub(crate) struct FileAnalysis {
    /// Workspace-relative path.
    pub rel: String,
    /// All rules skipped (tests/benches/examples/build.rs)?
    pub exempt: bool,
    /// Findings, before item names are filled in and they are sorted.
    pub raw: Vec<Finding>,
    /// Item-level parse (comment-free tokens + item skeleton).
    pub parsed: ParsedFile,
    /// First `#[cfg(test)]` line: everything from it on is test code.
    pub test_boundary: Option<u32>,
    /// Metric names updated in this file (R12 input).
    pub metric_uses: Vec<MetricUse>,
    /// `METRIC_NAMES` registry entries found in this file (R12 input).
    pub metric_decls: Vec<MetricDecl>,
}

/// Analyze one file's source. `rel` is its workspace-relative path with
/// `/` separators (used for scoping rules and reported in findings).
/// This is the single-file API: R1/R3/R9 and the R10 choose-site leg,
/// with the built-in fallback crate classification and path-only
/// binary detection. The full scan (`analyze_tree`) additionally runs
/// the R10 decision-point registry, R12, R7 on the manifests, the
/// manifest-driven classification and bin-only package detection.
pub fn analyze_source(rel: &str, src: &str) -> FileReport {
    finalize(analyze_file(rel, src, None, false))
}

/// The per-file pass: parse, R1/R3/R9, the R10 choose-site leg, metric
/// collection. `bin_only` marks a file of a package without a lib
/// target.
pub(crate) fn analyze_file(
    rel: &str,
    src: &str,
    class: Option<&Classification>,
    bin_only: bool,
) -> FileAnalysis {
    let ctx = FileCtx::classify(rel, class, bin_only);
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

        // R10 choose-site leg: every selection-policy `.choose(..)` in
        // library code must reach a PolicyDecision emission.
        if !ctx.is_bin {
            check_choose_sites(&parsed, rel, &in_test, &mut raw);
        }
    }

    FileAnalysis {
        rel: rel.to_string(),
        exempt: ctx.exempt_all,
        raw,
        parsed,
        test_boundary,
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

/// R10: check every registered decision point found in the symbol
/// graph. Appends raw findings to the owning file's analysis.
pub(crate) fn check_decision_points(fas: &mut [FileAnalysis], graph: &SymbolGraph) {
    for &(crate_name, qual, what) in DECISION_POINTS {
        for id in graph.lookup_in_crate(crate_name, qual) {
            let info = graph.fns[id].clone();
            let Some(fa) = fas.iter_mut().find(|fa| fa.rel == info.file) else {
                continue;
            };
            let Some(item) = fa
                .parsed
                .items
                .iter()
                .find(|it| it.kind == ItemKind::Fn && it.qual_name == qual && it.line == info.line)
                .cloned()
            else {
                continue;
            };
            let Some((blo, bhi)) = item.body else {
                continue;
            };
            let code = &fa.parsed.code;
            let tree = BlockTree::build(code, blo, bhi);
            let emissions = emission_sites(&fa.parsed, blo, bhi, graph);
            for exit in dataflow::exits(code, blo, bhi) {
                let covered = emissions.iter().any(|&e| {
                    e < exit.at && tree.is_ancestor(tree.block_of(e), tree.block_of(exit.at))
                });
                if !covered {
                    fa.raw.push(Finding {
                        rule: "R10",
                        name: "provenance-completeness",
                        file: info.file.clone(),
                        line: exit.line,
                        item: item.qual_name.clone(),
                        message: format!(
                            "decision point `{qual}` ({what}) reaches this return path \
                             without emitting a ProvenanceEvent or metrics update — the \
                             decision is unauditable; emit before every exit",
                        ),
                    });
                }
            }
        }
    }
}

/// Idents whose presence marks a `.choose(..)` call as a *selection
/// policy* invocation (vs `rand`'s `SliceRandom::choose` or the tailor
/// source-policy's `choose(remaining, rng)`): the argument list passes a
/// `PolicyParams` value, by type name or by the workspace's `*params`
/// binding convention.
const POLICY_ARG_MARKERS: &[&str] = &["PolicyParams"];

/// Idents that constitute a PolicyDecision emission: the typed event
/// constructor, or the variant itself for direct construction.
const POLICY_EMITTERS: &[&str] = &["policy_decision_event", "PolicyDecision"];

/// R10, choose-site leg: every `.choose(` call that takes selection
/// [`PolicyParams`] must be followed, in the same function body, by a
/// `PolicyDecision` emission (`rdi_obs::policy_decision_event` or a
/// direct `ProvenanceEvent::PolicyDecision` construction). A ranking
/// whose rationale never reaches the provenance stream is an
/// unauditable decision — exactly what the policy engine exists to
/// prevent.
pub(crate) fn check_choose_sites(
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
        let hi = bhi.min(code.len());
        for i in blo..hi {
            if code[i].text != "choose"
                || code[i].kind != TokenKind::Ident
                || !is_method_call(code, i)
            {
                continue;
            }
            // Walk the argument list to its matching close paren.
            let mut depth = 0usize;
            let mut end = i + 1;
            let mut is_policy_call = false;
            for (j, t) in code.iter().enumerate().take(hi).skip(i + 1) {
                match t.text.as_str() {
                    "(" | "[" | "{" => depth += 1,
                    ")" | "]" | "}" => {
                        depth -= 1;
                        if depth == 0 {
                            end = j;
                            break;
                        }
                    }
                    _ => {
                        if t.kind == TokenKind::Ident
                            && (POLICY_ARG_MARKERS.contains(&t.text.as_str())
                                || t.text.ends_with("params"))
                        {
                            is_policy_call = true;
                        }
                    }
                }
            }
            if !is_policy_call {
                continue;
            }
            let emitted = code[end..hi]
                .iter()
                .any(|t| t.kind == TokenKind::Ident && POLICY_EMITTERS.contains(&t.text.as_str()));
            if !emitted {
                raw.push(Finding {
                    rule: "R10",
                    name: "provenance-completeness",
                    file: rel.to_string(),
                    line: code[i].line,
                    item: item.qual_name.clone(),
                    message: String::from(
                        "selection-policy `.choose(..)` whose enclosing function never \
                         reaches a PolicyDecision emission — build the rationale and emit \
                         `rdi_obs::policy_decision_event` (or construct \
                         `ProvenanceEvent::PolicyDecision`) before returning",
                    ),
                });
            }
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

/// Is `code[i]` the method segment of `recv.name(...)`?
fn is_method_call(code: &[Token], i: usize) -> bool {
    i >= 1 && code[i - 1].text == "." && code.get(i + 1).is_some_and(|t| t.text == "(")
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
