//! Rule-engine tests: the planted fixture tree and the R12 matching
//! of `format!`-built metric families.

use std::path::Path;

use rdi_lint::analyze_tree;

fn fixture_root() -> &'static Path {
    Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/fixtures"))
}

#[test]
fn fixture_tree_reports_every_planted_case() {
    let report = analyze_tree(fixture_root()).expect("fixture tree scans");
    let found: Vec<(&str, &str, u32)> = report
        .findings
        .iter()
        .map(|f| (f.rule, f.file.as_str(), f.line))
        .collect();
    // An unregistered use, then the registry's dead entry and its
    // duplicate. Names in strings, comments, `#[cfg(test)]` code and
    // the integration test contribute nothing.
    assert_eq!(
        found,
        vec![
            ("R12", "crates/mylib/src/lib.rs", 11),
            ("R12", "crates/mylib/src/metrics.rs", 5),
            ("R12", "crates/mylib/src/metrics.rs", 7),
        ],
        "{:#?}",
        report.findings
    );
    assert_eq!(report.files_scanned, 3);
}

#[test]
fn fingerprints_survive_line_drift() {
    let report = analyze_tree(fixture_root()).expect("fixture tree scans");
    let f = &report.findings[0];
    let fp = rdi_lint::fingerprint(f);
    assert_eq!(fp.len(), 16);
    assert!(fp.chars().all(|c| c.is_ascii_hexdigit()));
    let mut shifted = f.clone();
    shifted.line += 1;
    assert_eq!(fp, rdi_lint::fingerprint(&shifted));
    // Distinct metrics in one file hash apart.
    let (dead, dup) = (&report.findings[1], &report.findings[2]);
    assert_eq!(dead.file, dup.file);
    assert_ne!(rdi_lint::fingerprint(dead), rdi_lint::fingerprint(dup));
}

#[test]
fn r12_per_tenant_wildcard_covers_golden_asserted_names() {
    // The per-tenant counter families are emitted through `format!`
    // literals (`serve.tenant.{t}.admitted`), declared as the same
    // pattern in METRIC_NAMES, and asserted concretely by a golden
    // (`serve.tenant.alice.admitted`). Pin all three legs of the R12
    // matching so a rename in any one of them keeps being caught.
    use rdi_lint::workspace::{check_metrics, pattern_matches, Asserted, MetricDecl, MetricUse};

    assert!(pattern_matches(
        "serve.tenant.{t}.admitted",
        "serve.tenant.alice.admitted"
    ));
    assert!(!pattern_matches(
        "serve.tenant.{t}.admitted",
        "serve.tenant.alice.shed_quota"
    ));

    let uses = vec![MetricUse {
        file: "crates/serve/src/admit.rs".into(),
        line: 10,
        name: "serve.tenant.{t}.admitted".into(),
    }];
    let decls = vec![MetricDecl {
        file: "crates/obs/src/names.rs".into(),
        line: 5,
        name: "serve.tenant.{t}.admitted".into(),
    }];
    let asserted = vec![Asserted {
        file: "crates/bench/golden/exp_multitenant.golden".into(),
        line: 40,
        name: "serve.tenant.alice.admitted".into(),
    }];
    assert!(
        check_metrics(&uses, &decls, &asserted).is_empty(),
        "wildcard use + pattern decl must satisfy a concrete golden assert"
    );

    // A concrete asserted name no wildcard produces must still fire.
    let orphan = vec![Asserted {
        file: "crates/bench/golden/exp_multitenant.golden".into(),
        line: 41,
        name: "serve.tenant.alice.evicted".into(),
    }];
    let findings = check_metrics(&uses, &decls, &orphan);
    assert!(findings.iter().any(|f| f.rule == "R12"));
}
