//! `rdi-lint` — scan the workspace for determinism / provenance /
//! metrics-consistency violations.
//!
//! ```text
//! rdi-lint [ROOT] [--json] [--expect FILE]
//! ```
//!
//! * `ROOT` — tree to scan; defaults to the workspace root (derived from
//!   this crate's manifest directory, falling back to the current
//!   directory).
//! * `--json` — print the machine-readable schema-v3 report to stdout
//!   (findings still go to stderr); without it the findings print to
//!   stdout.
//! * `--expect FILE` — self-check mode: compare the findings against the
//!   `RULE file:line` lines in FILE (the fixture expectations) and exit
//!   nonzero on any difference, in either direction. Used by CI to prove
//!   every rule fires exactly where the fixture tree plants it.
//!
//! Exit status: `0` clean (or expectations met), `1` findings (or
//! expectation mismatch), `2` usage or I/O error.

use std::collections::BTreeSet;
use std::path::PathBuf;
use std::process::ExitCode;

use rdi_lint::{analyze_tree, report_json, Report};

fn default_root() -> PathBuf {
    // crates/lint/../../ is the workspace root when run via cargo.
    if let Some(manifest) = option_env!("CARGO_MANIFEST_DIR") {
        let candidate = PathBuf::from(manifest).join("../..");
        if candidate.join("Cargo.toml").is_file() {
            return candidate;
        }
    }
    PathBuf::from(".")
}

fn print_findings(report: &Report, to_stderr: bool) {
    let emit = |line: String| {
        if to_stderr {
            eprintln!("{line}");
        } else {
            println!("{line}");
        }
    };
    for f in &report.findings {
        emit(format!(
            "{}:{}: {} ({}): {}",
            f.file, f.line, f.rule, f.name, f.message
        ));
    }
    // Per-rule counts: a CI failure names the rule family without
    // anyone having to open the JSON.
    let counts: Vec<String> = report
        .rule_counts()
        .into_iter()
        .filter(|(_, n)| *n > 0)
        .map(|(id, n)| format!("{id}={n}"))
        .collect();
    if !counts.is_empty() {
        emit(format!("rdi-lint: by rule: {}", counts.join(" ")));
    }
    emit(format!(
        "rdi-lint: {} finding(s) in {} file(s) scanned",
        report.findings.len(),
        report.files_scanned,
    ));
    if !report.classification.is_empty() {
        let algo: Vec<&str> = report
            .classification
            .iter()
            .filter(|c| c.algo)
            .map(|c| c.name.as_str())
            .collect();
        let shell: Vec<String> = report
            .classification
            .iter()
            .filter(|c| !c.algo)
            .map(|c| {
                if c.explicit {
                    c.name.clone()
                } else {
                    format!("{}(?)", c.name)
                }
            })
            .collect();
        emit(format!("rdi-lint: algo crates: {}", algo.join(" ")));
        emit(format!("rdi-lint: opted-out crates: {}", shell.join(" ")));
    }
}

/// Compare findings against a fixture expectation file: one
/// `RULE file:line` triple per line, `#` comments and blanks ignored.
/// Returns true when they match exactly.
fn check_expectations(report: &Report, expect_path: &PathBuf) -> std::io::Result<bool> {
    let text = std::fs::read_to_string(expect_path)?;
    let expected: BTreeSet<String> = text
        .lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .map(str::to_string)
        .collect();
    let actual: BTreeSet<String> = report
        .findings
        .iter()
        .map(|f| format!("{} {}:{}", f.rule, f.file, f.line))
        .collect();
    let mut ok = true;
    for missing in expected.difference(&actual) {
        eprintln!("rdi-lint: expected finding did not fire: {missing}");
        ok = false;
    }
    for extra in actual.difference(&expected) {
        eprintln!("rdi-lint: unexpected finding: {extra}");
        ok = false;
    }
    if ok {
        println!(
            "rdi-lint: fixture expectations met: {} finding(s) at the pinned locations",
            expected.len()
        );
    }
    Ok(ok)
}

fn main() -> ExitCode {
    let mut json = false;
    let mut root: Option<PathBuf> = None;
    let mut expect: Option<PathBuf> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--json" => json = true,
            "--expect" => match args.next() {
                Some(path) => expect = Some(PathBuf::from(path)),
                None => {
                    eprintln!("rdi-lint: --expect needs a file argument");
                    return ExitCode::from(2);
                }
            },
            "--help" | "-h" => {
                println!("usage: rdi-lint [ROOT] [--json] [--expect FILE]");
                return ExitCode::SUCCESS;
            }
            other if root.is_none() && !other.starts_with('-') => {
                root = Some(PathBuf::from(other));
            }
            other => {
                eprintln!("rdi-lint: unknown argument `{other}`");
                return ExitCode::from(2);
            }
        }
    }
    let root = root.unwrap_or_else(default_root);
    let report = match analyze_tree(&root) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("rdi-lint: cannot scan {}: {e}", root.display());
            return ExitCode::from(2);
        }
    };
    if let Some(expect_path) = expect {
        return match check_expectations(&report, &expect_path) {
            Ok(true) => ExitCode::SUCCESS,
            Ok(false) => ExitCode::FAILURE,
            Err(e) => {
                eprintln!("rdi-lint: cannot read {}: {e}", expect_path.display());
                ExitCode::from(2)
            }
        };
    }
    if json {
        print_findings(&report, true);
        println!(
            "{}",
            serde_json::to_string_pretty(&report_json(&report, &root.display().to_string()))
                .unwrap_or_else(|e| format!("{{\"error\": \"{e:?}\"}}"))
        );
    } else {
        print_findings(&report, false);
    }
    if report.is_clean() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
