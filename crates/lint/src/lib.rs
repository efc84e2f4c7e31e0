//! # rdi-lint
//!
//! A zero-dependency static analyzer enforcing the workspace invariants
//! that make RDI results *accountable*: reproducible execution and
//! auditable provenance (tutorial §2.5/§5). The thread-invariance and
//! metrics guarantees built in earlier PRs are runtime-tested; this
//! crate statically prevents the easy ways to silently break them.
//!
//! v2 is a two-layer analyzer: a token-pattern layer (R1, R3) on the
//! hand-written lexer, and a flow-sensitive layer (R9, R10, R12) on an
//! item-level parser ([`parser`]) plus a workspace symbol graph
//! ([`symbols`]) that links function definitions to call sites across
//! crates. R7 reads the crate manifests.
//!
//! Invariants that clippy can state are left to clippy, so each has one
//! checker: the root `clippy.toml` bans `std::thread::spawn`, and the CI
//! `--lib` clippy step denies `unwrap_used`, `expect_used`, `panic`,
//! `let_underscore_must_use` and `unused_result_ok` in library code. The
//! ids of the rules that moved (R2, R5, R8) and of R4 (an entropy-seeded
//! RNG cannot compile: the workspace `rand` only has `seed_from_u64`)
//! are retired, and so are R6, R11 and the inline-directive half of R7
//! (DESIGN.md names what replaced each). R1 and R3 stay here: they
//! apply to algorithm crates only, outside `#[cfg(test)]`, while
//! clippy's `disallowed-types` is set once per `clippy.toml` and has no
//! test exemption, so scoping it would repeat the algorithm-crate list
//! beside `[package.metadata.rdi-lint]`.
//!
//! ## Rule catalog
//!
//! | id | name | scope | demands |
//! |----|------|-------|---------|
//! | R1 | `hash-collection` | algorithm crates | no `HashMap`/`HashSet`: use `BTreeMap`/`BTreeSet` or sort |
//! | R3 | `wall-clock` | algorithm crates | no `Instant`/`SystemTime` (obs spans and bench harnesses live elsewhere and are exempt) |
//! | R7 | `bad-suppression` | crate manifests | every `[package.metadata.rdi-lint]` opt-out must carry a reason |
//! | R9 | `seed-purity` | algorithm crates | every RNG construction's seed must flow, via the body's def-use chains, from a parameter or `stream_seed(..)` |
//! | R10 | `provenance-completeness` | decision-point registry + `.choose(` sites | registered functions emit a `ProvenanceEvent` or metrics update on every return path; every selection-policy `.choose(..)` call reaches a `PolicyDecision` emission |
//! | R12 | `metrics-consistency` | whole workspace | names asserted by the goldens are updated in source; every `serve.*`/`actor.*`/`fault.*` name updated is declared exactly once in `METRIC_NAMES` |
//!
//! Algorithm crates are derived from the workspace manifests: every
//! crate under `crates/` is policed **by default**, and opts out with an
//! audited `[package.metadata.rdi-lint] algo = false` marker (see
//! `workspace.rs`). Vendored `crates/compat-*` shims are skipped
//! entirely, as are `tests/`, `benches/`, `examples/`, `build.rs`, and
//! `#[cfg(test)]` modules (by convention the trailing module of a file).
//! Every file of a package with `src/main.rs` and no `src/lib.rs` is
//! binary code, so the R10 choose-site leg skips it.
//!
//! ## Escape hatches
//!
//! There are no inline directives. The crate-level marker above is the
//! only way to opt out of rdi-lint, and it must carry a `reason` (R7).
//! A deliberate panic site carries clippy's
//! `#[expect(clippy::..., reason = "...")]` instead.

#![warn(missing_docs)]

pub mod dataflow;
pub mod lexer;
pub mod parser;
mod report;
mod rules;
pub mod symbols;
pub mod workspace;

pub use report::{fingerprint, report_json, Report};
pub use rules::{analyze_source, FileReport, DECISION_POINTS, RULES};
pub use symbols::{SymbolGraph, SymbolStats};

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// Directory names never descended into during the workspace walk.
/// `fixtures` keeps rdi-lint's own planted-violation test tree (and any
/// future fixture corpus) out of the real scan.
const SKIP_DIRS: &[&str] = &["target", ".git", "fixtures", "node_modules"];

/// Recursively collect every `.rs` file under `root` in sorted order
/// (determinism: findings are reported in a stable order on every
/// machine), skipping `SKIP_DIRS` and vendored `compat-*` crates.
pub fn collect_rs_files(root: &Path) -> io::Result<Vec<PathBuf>> {
    let mut out = Vec::new();
    walk(root, &mut out)?;
    out.sort();
    Ok(out)
}

fn walk(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if SKIP_DIRS.contains(&name.as_ref()) || name.starts_with("compat-") {
                continue;
            }
            walk(&path, out)?;
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Analyze every workspace `.rs` file under `root`: the full pipeline.
///
/// 1. classify crates from the manifests (`workspace.rs`), raising R7;
/// 2. per file: parse items, run R1/R3/R9 and the R10 choose-site leg,
///    collect metric uses/declarations;
/// 3. build the workspace symbol graph and run R10 over the
///    decision-point registry;
/// 4. run R12 against the goldens;
/// 5. per file: name each finding's enclosing item and sort.
pub fn analyze_tree(root: &Path) -> io::Result<Report> {
    let class = workspace::classify_workspace(root);
    let files = collect_rs_files(root)?;
    let mut fas = Vec::new();
    for path in &files {
        let rel = path
            .strip_prefix(root)
            .unwrap_or(path)
            .to_string_lossy()
            .replace('\\', "/");
        let src = fs::read_to_string(path)?;
        let bin_only = is_bin_only_package(root, &rel);
        fas.push(rules::analyze_file(&rel, &src, class.as_ref(), bin_only));
    }

    // Symbol graph over non-exempt, non-test code.
    let graph = SymbolGraph::build(
        fas.iter()
            .filter(|fa| !fa.exempt)
            .map(|fa| (fa.rel.as_str(), &fa.parsed, fa.test_boundary)),
    );
    rules::check_decision_points(&mut fas, &graph);

    // R12: workspace-level metric consistency.
    let uses: Vec<_> = fas
        .iter()
        .flat_map(|fa| fa.metric_uses.iter().cloned())
        .collect();
    let decls: Vec<_> = fas
        .iter()
        .flat_map(|fa| fa.metric_decls.iter().cloned())
        .collect();
    let asserted = workspace::collect_asserted(root);
    let mut tree_findings = Vec::new();
    for f in workspace::check_metrics(&uses, &decls, &asserted) {
        // Findings in scanned .rs files get that file's item names;
        // golden findings stay tree-level.
        match fas.iter_mut().find(|fa| fa.rel == f.file) {
            Some(fa) => fa.raw.push(f),
            None => tree_findings.push(f),
        }
    }
    if let Some(class) = &class {
        tree_findings.extend(class.findings.iter().cloned());
    }

    let mut report = Report {
        symbols: graph.stats.clone(),
        ..Report::default()
    };
    if let Some(class) = &class {
        report.classification = class
            .crates
            .iter()
            .map(|(name, c)| ClassEntry {
                name: name.clone(),
                algo: c.algo,
                explicit: c.explicit,
                reason: c.reason.clone(),
            })
            .collect();
    }
    for fa in fas {
        let fr = rules::finalize(fa);
        report.files_scanned += 1;
        report.findings.extend(fr.findings);
    }
    report.findings.extend(tree_findings);
    report
        .findings
        .sort_by(|a, b| (&a.file, a.line, a.rule).cmp(&(&b.file, b.line, b.rule)));
    Ok(report)
}

/// Is `rel` under the `src/` of a package that has `src/main.rs` and no
/// `src/lib.rs`? Such a package has no lib target, so every module in
/// it is binary code, not only `main.rs`.
fn is_bin_only_package(root: &Path, rel: &str) -> bool {
    let package = match rel.split_once("/src/") {
        Some((dir, _)) => root.join(dir),
        None if rel.starts_with("src/") => root.to_path_buf(),
        None => return false,
    };
    package.join("Cargo.toml").is_file()
        && package.join("src/main.rs").is_file()
        && !package.join("src/lib.rs").is_file()
}

/// One row of the crate-classification table in the report.
#[derive(Debug, Clone)]
pub struct ClassEntry {
    /// Crate name.
    pub name: String,
    /// Algorithm crate (R1/R3/R9 apply)?
    pub algo: bool,
    /// Was the classification explicit in the manifest?
    pub explicit: bool,
    /// Audited reason on explicit markers.
    pub reason: String,
}

/// One rule violation at a file/line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Rule id (`R1`…`R12`).
    pub rule: &'static str,
    /// Short rule name (`hash-collection`, …).
    pub name: &'static str,
    /// Workspace-relative path.
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// Qualified name of the enclosing item (`Type::fn`), or `""` for
    /// file-level and non-`.rs` findings. Part of the stable
    /// fingerprint, so findings survive line drift.
    pub item: String,
    /// Human-readable explanation of the violation and the fix.
    pub message: String,
}
