//! Workspace-level context: crate classification derived from the
//! manifests, and the external input of the R12 metrics-consistency
//! check (the checked-in goldens).
//!
//! ## Crate classification
//!
//! A crate under `crates/` is an **algorithm crate** (R1/R3/R9 apply)
//! *by default* — a newly added crate is policed until someone says
//! otherwise. The opt-out lives in the crate's own manifest:
//!
//! ```toml
//! [package.metadata.rdi-lint]
//! algo = false
//! reason = "serving shell: no order-sensitive kernels"
//! ```
//!
//! An opt-out without a `reason` is an R7 finding: the marker is
//! rdi-lint's only escape hatch, so it must say why. When no workspace
//! manifest is present (unit tests, fixture trees), classification
//! falls back to the built-in list in `rules.rs`.

use std::collections::BTreeMap;
use std::fs;
use std::path::Path;

use crate::Finding;

/// Classification of one crate.
#[derive(Debug, Clone)]
pub struct CrateClass {
    /// Do the algorithm-crate rules apply?
    pub algo: bool,
    /// Did the manifest say so explicitly (vs defaulting)?
    pub explicit: bool,
    /// The audited reason attached to an explicit marker.
    pub reason: String,
}

/// The full workspace classification.
#[derive(Debug, Default)]
pub struct Classification {
    /// Crate name → class, sorted for deterministic reports.
    pub crates: BTreeMap<String, CrateClass>,
    /// Findings raised while classifying (unexplained opt-outs).
    pub findings: Vec<Finding>,
}

/// Classify the workspace rooted at `root`. Returns `None` when `root`
/// has no `[workspace]` manifest (caller falls back to the built-in
/// list).
pub fn classify_workspace(root: &Path) -> Option<Classification> {
    let manifest = fs::read_to_string(root.join("Cargo.toml")).ok()?;
    if !manifest.contains("[workspace]") {
        return None;
    }
    let mut out = Classification::default();
    let crates_dir = root.join("crates");
    let mut names = Vec::new();
    if let Ok(entries) = fs::read_dir(&crates_dir) {
        for entry in entries.flatten() {
            let name = entry.file_name().to_string_lossy().to_string();
            if name.starts_with("compat-") || !entry.path().join("Cargo.toml").is_file() {
                continue;
            }
            names.push(name);
        }
    }
    names.sort();
    for name in names {
        let path = crates_dir.join(&name).join("Cargo.toml");
        let text = fs::read_to_string(&path).unwrap_or_default();
        let rel = format!("crates/{name}/Cargo.toml");
        let class = parse_metadata(&text, &rel, &mut out.findings);
        out.crates.insert(name, class);
    }
    Some(out)
}

/// Parse the `[package.metadata.rdi-lint]` section of one manifest.
fn parse_metadata(text: &str, rel: &str, findings: &mut Vec<Finding>) -> CrateClass {
    let mut in_section = false;
    let mut algo: Option<(bool, u32)> = None;
    let mut reason = String::new();
    for (idx, line) in text.lines().enumerate() {
        let line_no = idx as u32 + 1;
        let trimmed = line.trim();
        if trimmed.starts_with('[') {
            in_section = trimmed == "[package.metadata.rdi-lint]";
            continue;
        }
        if !in_section {
            continue;
        }
        if let Some(value) = trimmed.strip_prefix("algo") {
            let value = value.trim_start().trim_start_matches('=').trim();
            algo = Some((value == "true", line_no));
        } else if let Some(value) = trimmed.strip_prefix("reason") {
            let value = value.trim_start().trim_start_matches('=').trim();
            reason = value.trim_matches('"').to_string();
        }
    }
    match algo {
        Some((is_algo, line)) => {
            if reason.is_empty() {
                findings.push(Finding {
                    rule: "R7",
                    name: "bad-suppression",
                    file: rel.to_string(),
                    line,
                    item: String::new(),
                    message: String::from(
                        "[package.metadata.rdi-lint] marker without a `reason`: crate-level \
                         classification is an audited decision; say why",
                    ),
                });
            }
            CrateClass {
                algo: is_algo,
                explicit: true,
                reason,
            }
        }
        None => CrateClass {
            algo: true,
            explicit: false,
            reason: String::new(),
        },
    }
}

// ---------------------------------------------------------------------
// R12 inputs: metric names used, declared, and asserted
// ---------------------------------------------------------------------

/// A metric name passed to `counter(..)`/`gauge(..)`/`histogram(..)`/
/// `span(..)` in source. A name containing `{` came from a `format!`
/// and matches as a prefix/suffix wildcard.
#[derive(Debug, Clone)]
pub struct MetricUse {
    /// Workspace-relative file.
    pub file: String,
    /// 1-based line of the name literal.
    pub line: u32,
    /// The name (possibly a `{}` pattern).
    pub name: String,
}

impl MetricUse {
    /// Is this a `format!`-style pattern?
    pub fn is_wildcard(&self) -> bool {
        self.name.contains('{')
    }

    /// Does this use produce `name` (exact match, or wildcard
    /// prefix/suffix match)? The wildcard form treats everything
    /// between the first `{` and the last `}` as the dynamic part, so
    /// `fault.injected.{}` and `serve.shard.{i}.tables` both match as
    /// prefix+suffix patterns.
    pub fn matches(&self, name: &str) -> bool {
        pattern_matches(&self.name, name)
    }
}

/// Prefix/suffix wildcard match: everything between the first `{` and
/// the last `}` of `pattern` is dynamic; a pattern without braces is an
/// exact match.
pub fn pattern_matches(pattern: &str, name: &str) -> bool {
    let Some(open) = pattern.find('{') else {
        return pattern == name;
    };
    let close = pattern.rfind('}').map(|i| i + 1).unwrap_or(pattern.len());
    let pre = &pattern[..open];
    let suf = pattern.get(close..).unwrap_or("");
    name.len() >= pre.len() + suf.len() && name.starts_with(pre) && name.ends_with(suf)
}

/// One entry of a `METRIC_NAMES` registry constant.
#[derive(Debug, Clone)]
pub struct MetricDecl {
    /// Workspace-relative file.
    pub file: String,
    /// 1-based line of the name literal.
    pub line: u32,
    /// Declared name.
    pub name: String,
}

/// A metric name a golden asserts must exist.
#[derive(Debug, Clone)]
pub struct Asserted {
    /// Root-relative golden file.
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// Asserted name.
    pub name: String,
}

/// Prefixes covered by the declare-exactly-once registry policy.
pub const REGISTRY_PREFIXES: &[&str] = &["serve.", "actor.", "fault.", "policy."];

/// Collect asserted metric names from the golden METRICS_SNAPSHOT
/// lines. A missing golden directory contributes nothing.
pub fn collect_asserted(root: &Path) -> Vec<Asserted> {
    let mut out = Vec::new();
    let golden_dir = root.join("crates/bench/golden");
    let mut goldens = Vec::new();
    if let Ok(entries) = fs::read_dir(&golden_dir) {
        for entry in entries.flatten() {
            let name = entry.file_name().to_string_lossy().to_string();
            if name.ends_with(".golden") {
                goldens.push(name);
            }
        }
    }
    goldens.sort();
    for name in goldens {
        let rel = format!("crates/bench/golden/{name}");
        let Ok(text) = fs::read_to_string(golden_dir.join(&name)) else {
            continue;
        };
        for (idx, line) in text.lines().enumerate() {
            let Some(json) = line.strip_prefix("METRICS_SNAPSHOT ") else {
                continue;
            };
            let Ok(value) = serde_json::from_str(json) else {
                continue;
            };
            let serde_json::Value::Obj(fields) = value else {
                continue;
            };
            for (section, v) in &fields {
                if !matches!(
                    section.as_str(),
                    "counters" | "gauges" | "histograms" | "spans"
                ) {
                    continue;
                }
                if let serde_json::Value::Obj(entries) = v {
                    for (metric, _) in entries {
                        // Span keys are slash-separated nesting paths
                        // (`serve.batch/serve.tailor/audit`); each
                        // segment is one span *name* opened somewhere
                        // in source. Other sections are plain names.
                        let segments: Vec<&str> = if section == "spans" {
                            metric.split('/').collect()
                        } else {
                            vec![metric.as_str()]
                        };
                        for seg in segments {
                            out.push(Asserted {
                                file: rel.clone(),
                                line: idx as u32 + 1,
                                name: seg.to_string(),
                            });
                        }
                    }
                }
            }
        }
    }
    out
}

/// Run the R12 metrics-consistency checks. Returns raw findings (the
/// caller attaches `.rs`-file findings to that file's analysis).
pub fn check_metrics(
    uses: &[MetricUse],
    decls: &[MetricDecl],
    asserted: &[Asserted],
) -> Vec<Finding> {
    let mut out = Vec::new();
    let r12 = |file: &str, line: u32, message: String| Finding {
        rule: "R12",
        name: "metrics-consistency",
        file: file.to_string(),
        line,
        item: String::new(),
        message,
    };

    // (1) Every asserted name must be produced by some use.
    let mut seen_asserted: Vec<&str> = Vec::new();
    for a in asserted {
        if seen_asserted.contains(&a.name.as_str()) {
            continue; // report each missing name once
        }
        seen_asserted.push(&a.name);
        if !uses.iter().any(|u| u.matches(&a.name)) {
            out.push(r12(
                &a.file,
                a.line,
                format!(
                    "metric `{}` is asserted here but never updated anywhere in source — \
                     renamed or removed without updating the goldens",
                    a.name
                ),
            ));
        }
    }

    // (2) Every registry-scoped use must be declared in METRIC_NAMES.
    let mut flagged_uses: Vec<(String, u32)> = Vec::new();
    for u in uses {
        let scoped = REGISTRY_PREFIXES.iter().any(|p| u.name.starts_with(p));
        if !scoped {
            continue;
        }
        // A declaration satisfies a use if either side's pattern covers
        // the other: concrete decl under a wildcard use, or a pattern
        // decl (`fault.injected.{}`) covering a concrete use.
        let declared = decls
            .iter()
            .any(|d| u.matches(&d.name) || pattern_matches(&d.name, &u.name));
        if !declared && !flagged_uses.contains(&(u.name.clone(), u.line)) {
            flagged_uses.push((u.name.clone(), u.line));
            out.push(r12(
                &u.file,
                u.line,
                format!(
                    "metric `{}` is updated here but not declared in METRIC_NAMES: add it to \
                     the registry (crates/obs/src/names.rs) so renames are caught",
                    u.name
                ),
            ));
        }
    }

    // (3) Exactly-once: duplicate declarations.
    let mut seen_decl: Vec<&str> = Vec::new();
    for d in decls {
        if seen_decl.contains(&d.name.as_str()) {
            out.push(r12(
                &d.file,
                d.line,
                format!(
                    "metric `{}` declared more than once in METRIC_NAMES",
                    d.name
                ),
            ));
        } else {
            seen_decl.push(&d.name);
        }
    }

    // (4) Declared but never used anywhere.
    let mut reported: Vec<&str> = Vec::new();
    for d in decls {
        if reported.contains(&d.name.as_str()) {
            continue;
        }
        reported.push(&d.name);
        if !uses
            .iter()
            .any(|u| u.matches(&d.name) || pattern_matches(&d.name, &u.name))
        {
            out.push(r12(
                &d.file,
                d.line,
                format!(
                    "metric `{}` is declared in METRIC_NAMES but never updated in source — \
                     dead registry entry",
                    d.name
                ),
            ));
        }
    }
    out
}
