//! CI helper: validate `rdi-lint --json` output against the report
//! schema.
//!
//! Reads the lint JSON document on **stdin** and checks the schema
//! contract the CI gate relies on: `version` is the supported one
//! (v3; older reports are rejected), the summary fields
//! are present, the rule catalog lists every live rule exactly once,
//! `rule_counts` covers the same catalog, the `symbols` block carries
//! the graph statistics, `classification` lists the workspace crates,
//! and each finding is a well-formed object with a stable fingerprint.
//! Exits non-zero (with a message on stderr) on any violation — so a
//! pipeline like
//!
//! ```text
//! cargo run -p rdi-lint -- --json | cargo run --bin validate_lint
//! ```
//!
//! fails loudly if the analyzer's machine-readable output ever drifts
//! from what downstream tooling parses. Findings themselves are *not*
//! gated here: `rdi-lint`'s own exit status does that.

use std::io::Read;
use std::process::exit;

/// Schema version this validator understands (see
/// `crates/lint/src/report.rs`).
const SUPPORTED_VERSION: u64 = 3;

/// Every rule the catalog must list, in order. R2, R4, R5, R6, R8 and
/// R11 are retired (DESIGN.md names what replaced each); the surviving
/// ids keep their numbers because the report and the fixture
/// expectations key on them.
const RULE_IDS: [&str; 6] = ["R1", "R3", "R7", "R9", "R10", "R12"];

/// Statistics the `symbols` block must carry.
const SYMBOL_FIELDS: [&str; 5] = [
    "files_parsed",
    "items",
    "functions",
    "call_edges",
    "emitting_functions",
];

fn main() {
    let mut input = String::new();
    if let Err(e) = std::io::stdin().read_to_string(&mut input) {
        eprintln!("validate_lint: cannot read stdin: {e}");
        exit(1);
    }
    let doc: serde_json::Value = match serde_json::from_str(input.trim()) {
        Ok(v) => v,
        Err(e) => {
            eprintln!("validate_lint: report is not valid JSON: {e:?}");
            exit(2);
        }
    };

    let version = doc.get("version").and_then(|v| v.as_u64());
    if version != Some(SUPPORTED_VERSION) {
        eprintln!(
            "validate_lint: unsupported report version {version:?} (want {SUPPORTED_VERSION}); \
             rebuild rdi-lint from this workspace"
        );
        exit(2);
    }
    for field in ["root", "files_scanned"] {
        if doc.get(field).is_none() {
            eprintln!("validate_lint: report missing `{field}` field");
            exit(2);
        }
    }

    let Some(rules) = doc.get("rules").and_then(|v| v.as_array()) else {
        eprintln!("validate_lint: report missing `rules` array");
        exit(2);
    };
    let listed: Vec<&str> = rules
        .iter()
        .filter_map(|r| r.get("id").and_then(|v| v.as_str()))
        .collect();
    for id in RULE_IDS {
        if listed.iter().filter(|&&l| l == id).count() != 1 {
            eprintln!("validate_lint: rule catalog must list `{id}` exactly once, got {listed:?}");
            exit(2);
        }
    }
    for r in rules {
        for field in ["name", "summary"] {
            if r.get(field).and_then(|v| v.as_str()).is_none() {
                eprintln!("validate_lint: rule entry missing string `{field}`: {r:?}");
                exit(2);
            }
        }
    }

    // Per-rule counts: one entry per catalog rule, even when zero.
    let Some(counts) = doc.get("rule_counts") else {
        eprintln!("validate_lint: report missing `rule_counts` object");
        exit(2);
    };
    for id in RULE_IDS {
        if counts.get(id).and_then(|v| v.as_u64()).is_none() {
            eprintln!("validate_lint: rule_counts missing numeric `{id}`");
            exit(2);
        }
    }

    // Symbol-graph statistics.
    let Some(symbols) = doc.get("symbols") else {
        eprintln!("validate_lint: report missing `symbols` block");
        exit(2);
    };
    for field in SYMBOL_FIELDS {
        if symbols.get(field).and_then(|v| v.as_u64()).is_none() {
            eprintln!("validate_lint: symbols block missing numeric `{field}`");
            exit(2);
        }
    }

    // Crate classification table (may be empty for fixture trees, but
    // must be present and well-formed).
    let Some(classes) = doc.get("classification").and_then(|v| v.as_array()) else {
        eprintln!("validate_lint: report missing `classification` array");
        exit(2);
    };
    for c in classes {
        if c.get("name").and_then(|v| v.as_str()).is_none()
            || c.get("algo").and_then(|v| v.as_bool()).is_none()
            || c.get("explicit").and_then(|v| v.as_bool()).is_none()
        {
            eprintln!("validate_lint: malformed classification entry: {c:?}");
            exit(2);
        }
    }

    let Some(findings) = doc.get("findings").and_then(|v| v.as_array()) else {
        eprintln!("validate_lint: report missing `findings` array");
        exit(2);
    };
    for f in findings {
        let rule = f.get("rule").and_then(|v| v.as_str());
        match rule {
            Some(r) if RULE_IDS.contains(&r) => {}
            other => {
                eprintln!("validate_lint: finding with unknown rule {other:?}: {f:?}");
                exit(2);
            }
        }
        if f.get("file").and_then(|v| v.as_str()).is_none()
            || f.get("line").and_then(|v| v.as_u64()).is_none()
            || f.get("item").and_then(|v| v.as_str()).is_none()
            || f.get("message").and_then(|v| v.as_str()).is_none()
        {
            eprintln!("validate_lint: malformed finding entry: {f:?}");
            exit(2);
        }
        match f.get("fingerprint").and_then(|v| v.as_str()) {
            Some(fp) if fp.len() == 16 && fp.chars().all(|c| c.is_ascii_hexdigit()) => {}
            other => {
                eprintln!("validate_lint: finding fingerprint must be 16 hex chars, got {other:?}");
                exit(2);
            }
        }
    }

    let files = doc
        .get("files_scanned")
        .and_then(|v| v.as_u64())
        .unwrap_or(0);
    if files == 0 {
        eprintln!("validate_lint: report claims zero files scanned — wrong root?");
        exit(2);
    }
    let parsed = symbols
        .get("files_parsed")
        .and_then(|v| v.as_u64())
        .unwrap_or(0);
    if parsed == 0 {
        eprintln!("validate_lint: symbol graph parsed zero files — parser wired up wrong?");
        exit(2);
    }
    println!(
        "validate_lint: OK — version {SUPPORTED_VERSION}, {files} file(s) scanned, \
         {parsed} parsed into the symbol graph, {} finding(s), {} rule(s)",
        findings.len(),
        rules.len()
    );
}
