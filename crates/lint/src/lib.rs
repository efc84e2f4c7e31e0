//! # rdi-lint
//!
//! A zero-dependency static analyzer for the one workspace invariant
//! neither the compiler nor clippy can state: R12, metrics consistency
//! between the metric call sites, the `METRIC_NAMES` registry and the
//! checked-in goldens. Consistent metrics are part of what makes RDI
//! results *accountable* (tutorial §2.5/§5).
//!
//! It reads a hand-written lexer's comment-free tokens ([`lexer`]), so
//! rule-pattern text in strings and comments never counts as code.
//!
//! Every other invariant it once checked has one checker elsewhere
//! (DESIGN.md, "Static invariants", names each). The determinism rules
//! are clippy configuration: `ci/clippy-lib/clippy.toml`, read by CI's
//! `--lib` clippy step, bans `HashMap`/`HashSet` (R1),
//! `Instant`/`SystemTime` (R3) and `seed_from_u64` outside
//! `rdi_par::stream_rng` (R9), and an opt-out is an
//! `#[allow(clippy::disallowed_.., reason = "..")]` whose reason
//! `allow_attributes_without_reason` enforces (R7).
//!
//! ## Rule catalog
//!
//! | id | name | scope | demands |
//! |----|------|-------|---------|
//! | R12 | `metrics-consistency` | whole workspace | names asserted by the goldens are updated in source; every `serve.*`/`actor.*`/`fault.*`/`policy.*` name updated is declared exactly once in `METRIC_NAMES` |
//!
//! Vendored `crates/compat-*` shims are skipped entirely, as are
//! `tests/`, `benches/`, `examples/`, `build.rs`, and `#[cfg(test)]`
//! modules (by convention the trailing module of a file). There are no
//! inline directives: a finding is fixed, not silenced.

#![warn(missing_docs)]

pub mod lexer;
mod report;
mod rules;
pub mod workspace;

pub use report::{fingerprint, report_json, Report};
pub use rules::RULES;

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

/// Analyze every workspace `.rs` file under `root`: collect each file's
/// metric uses and `METRIC_NAMES` declarations, then run R12 against
/// the goldens. Findings are sorted by file, line, rule and message.
pub fn analyze_tree(root: &Path) -> io::Result<Report> {
    let files = collect_rs_files(root)?;
    let mut uses = Vec::new();
    let mut decls = Vec::new();
    for path in &files {
        let rel = path
            .strip_prefix(root)
            .unwrap_or(path)
            .to_string_lossy()
            .replace('\\', "/");
        let src = fs::read_to_string(path)?;
        rules::collect_metrics(&rel, &src, &mut uses, &mut decls);
    }
    let asserted = workspace::collect_asserted(root);
    let mut findings = workspace::check_metrics(&uses, &decls, &asserted);
    findings.sort_by(|a, b| {
        (&a.file, a.line, a.rule, &a.message).cmp(&(&b.file, b.line, b.rule, &b.message))
    });
    Ok(Report {
        findings,
        files_scanned: files.len(),
    })
}

/// One rule violation at a file/line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Rule id (`R12`).
    pub rule: &'static str,
    /// Short rule name (`metrics-consistency`).
    pub name: &'static str,
    /// Workspace-relative path.
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// Human-readable explanation of the violation and the fix. It
    /// names the metric, so with the rule and file it identifies the
    /// finding across line drift (see [`fingerprint`]).
    pub message: String,
}
