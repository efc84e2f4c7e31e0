//! Machine-readable report assembly (JSON via the compat serde_json).

use serde_json::Value;

use crate::rules::RULES;
use crate::symbols::SymbolStats;
use crate::{ClassEntry, Finding};

/// Aggregated analysis result for a tree.
#[derive(Debug, Default)]
pub struct Report {
    /// All findings, sorted by (file, line, rule).
    pub findings: Vec<Finding>,
    /// Number of `.rs` files scanned.
    pub files_scanned: usize,
    /// Symbol-graph statistics (zero when built per-file).
    pub symbols: SymbolStats,
    /// Crate classification table (empty when no workspace manifest).
    pub classification: Vec<ClassEntry>,
}

impl Report {
    /// True when the tree is clean.
    pub fn is_clean(&self) -> bool {
        self.findings.is_empty()
    }

    /// `(rule id, findings)` for every rule, in catalog order.
    pub fn rule_counts(&self) -> Vec<(&'static str, usize)> {
        RULES
            .iter()
            .map(|(id, _, _)| (*id, self.findings.iter().filter(|f| f.rule == *id).count()))
            .collect()
    }
}

/// Stable finding fingerprint: FNV-1a 64 over
/// `rule|file|item|message`. The line number is deliberately excluded
/// so fingerprints survive unrelated edits above the finding; two
/// identical violations in the same item collapse to one fingerprint,
/// which is the desired diff granularity.
pub fn fingerprint(f: &Finding) -> String {
    let mut h: u64 = 0xcbf29ce484222325;
    for part in [f.rule, &f.file, &f.item, &f.message] {
        for b in part.as_bytes() {
            h ^= *b as u64;
            h = h.wrapping_mul(0x100000001b3);
        }
        h ^= b'|' as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    format!("{h:016x}")
}

/// Render the report as the JSON document consumed by `validate_lint`
/// in CI. Schema v3 (stable; bump `version` on change):
///
/// ```json
/// {
///   "version": 3,
///   "root": "...",
///   "files_scanned": 160,
///   "rules": [{"id": "R1", "name": "hash-collection", "summary": "..."}],
///   "rule_counts": {"R1": 0, "...": 0, "R12": 0},
///   "symbols": {"files_parsed": 120, "items": 900, "functions": 400,
///               "call_edges": 2100, "emitting_functions": 90},
///   "classification": [{"name": "coverage", "algo": true,
///                       "explicit": false, "reason": ""}],
///   "findings": [{"rule": "R1", "name": "...", "file": "...",
///                 "line": 10, "item": "Type::fn", "message": "...",
///                 "fingerprint": "9f3a5c..."}]
/// }
/// ```
pub fn report_json(report: &Report, root: &str) -> Value {
    let rules = RULES
        .iter()
        .map(|(id, name, summary)| {
            Value::Obj(vec![
                ("id".into(), Value::Str((*id).into())),
                ("name".into(), Value::Str((*name).into())),
                ("summary".into(), Value::Str((*summary).into())),
            ])
        })
        .collect();
    let rule_counts = report
        .rule_counts()
        .into_iter()
        .map(|(id, n)| (id.to_string(), Value::U64(n as u64)))
        .collect();
    let symbols = Value::Obj(vec![
        (
            "files_parsed".into(),
            Value::U64(report.symbols.files_parsed as u64),
        ),
        ("items".into(), Value::U64(report.symbols.items as u64)),
        (
            "functions".into(),
            Value::U64(report.symbols.functions as u64),
        ),
        (
            "call_edges".into(),
            Value::U64(report.symbols.call_edges as u64),
        ),
        (
            "emitting_functions".into(),
            Value::U64(report.symbols.emitting_functions as u64),
        ),
    ]);
    let classification = report
        .classification
        .iter()
        .map(|c| {
            Value::Obj(vec![
                ("name".into(), Value::Str(c.name.clone())),
                ("algo".into(), Value::Bool(c.algo)),
                ("explicit".into(), Value::Bool(c.explicit)),
                ("reason".into(), Value::Str(c.reason.clone())),
            ])
        })
        .collect();
    let findings = report
        .findings
        .iter()
        .map(|f| {
            Value::Obj(vec![
                ("rule".into(), Value::Str(f.rule.into())),
                ("name".into(), Value::Str(f.name.into())),
                ("file".into(), Value::Str(f.file.clone())),
                ("line".into(), Value::U64(f.line as u64)),
                ("item".into(), Value::Str(f.item.clone())),
                ("message".into(), Value::Str(f.message.clone())),
                ("fingerprint".into(), Value::Str(fingerprint(f))),
            ])
        })
        .collect();
    Value::Obj(vec![
        ("version".into(), Value::U64(3)),
        ("root".into(), Value::Str(root.into())),
        (
            "files_scanned".into(),
            Value::U64(report.files_scanned as u64),
        ),
        ("rules".into(), Value::Arr(rules)),
        ("rule_counts".into(), Value::Obj(rule_counts)),
        ("symbols".into(), symbols),
        ("classification".into(), Value::Arr(classification)),
        ("findings".into(), Value::Arr(findings)),
    ])
}
