//! Machine-readable report assembly (JSON via the compat serde_json).

use serde_json::Value;

use crate::rules::RULES;
use crate::Finding;

/// Aggregated analysis result for a tree.
#[derive(Debug, Default)]
pub struct Report {
    /// All findings, sorted by (file, line, rule).
    pub findings: Vec<Finding>,
    /// Number of `.rs` files scanned.
    pub files_scanned: usize,
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

/// Stable finding fingerprint: FNV-1a 64 over `rule|file|message`.
/// The line number is deliberately excluded so fingerprints survive
/// unrelated edits above the finding. Every R12 message names its
/// metric, so two findings collapse to one fingerprint only when they
/// are about the same metric in the same file, which is the desired
/// diff granularity.
pub fn fingerprint(f: &Finding) -> String {
    let mut h: u64 = 0xcbf29ce484222325;
    for part in [f.rule, &f.file, &f.message] {
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
/// in CI. Schema v5 (stable; bump `version` on change):
///
/// ```json
/// {
///   "version": 5,
///   "root": "...",
///   "files_scanned": 160,
///   "rules": [{"id": "R12", "name": "metrics-consistency", "summary": "..."}],
///   "rule_counts": {"R12": 0},
///   "findings": [{"rule": "R12", "name": "...", "file": "...",
///                 "line": 10, "message": "...",
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
    let findings = report
        .findings
        .iter()
        .map(|f| {
            Value::Obj(vec![
                ("rule".into(), Value::Str(f.rule.into())),
                ("name".into(), Value::Str(f.name.into())),
                ("file".into(), Value::Str(f.file.clone())),
                ("line".into(), Value::U64(f.line as u64)),
                ("message".into(), Value::Str(f.message.clone())),
                ("fingerprint".into(), Value::Str(fingerprint(f))),
            ])
        })
        .collect();
    Value::Obj(vec![
        ("version".into(), Value::U64(5)),
        ("root".into(), Value::Str(root.into())),
        (
            "files_scanned".into(),
            Value::U64(report.files_scanned as u64),
        ),
        ("rules".into(), Value::Arr(rules)),
        ("rule_counts".into(), Value::Obj(rule_counts)),
        ("findings".into(), Value::Arr(findings)),
    ])
}
