//! The R12 metrics-consistency check: metric names used and declared
//! in source (collected per file by `rules.rs`), the names the
//! checked-in goldens assert, and the checks between them.

use std::fs;
use std::path::Path;

use crate::Finding;

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
