//! Rule-engine tests: the planted fixture tree plus targeted
//! `analyze_source` cases for scoping behavior.

use std::collections::BTreeSet;
use std::path::Path;

use rdi_lint::{analyze_source, analyze_tree};

fn fixture_root() -> &'static Path {
    Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/fixtures"))
}

#[test]
fn fixture_tree_reports_every_rule() {
    let report = analyze_tree(fixture_root()).expect("fixture tree scans");
    let rules: BTreeSet<&str> = report.findings.iter().map(|f| f.rule).collect();
    assert_eq!(
        rules,
        BTreeSet::from(["R1", "R3", "R7", "R9", "R10", "R12"]),
        "expected every rule to fire on the planted tree; findings: {:#?}",
        report.findings
    );
}

#[test]
fn fixture_tree_counts() {
    let report = analyze_tree(fixture_root()).expect("fixture tree scans");
    let count = |rule: &str| report.findings.iter().filter(|f| f.rule == rule).count();
    // planted.rs: `use HashMap` + declaration line with two HashMap tokens
    assert_eq!(count("R1"), 3);
    // planted.rs: `use Instant` + `Instant::now()` in two items
    assert_eq!(count("R3"), 3);
    // the bench manifest opt-out sans reason
    assert_eq!(count("R7"), 1);
    // seeding.rs literal seed (param / stream_seed cases stay clean)
    assert_eq!(count("R9"), 1);
    // breaker.rs early return without an emission + choose.rs silent
    // selection-policy call (the harness package's is binary code)
    assert_eq!(count("R10"), 2);
    // dead decl + dup decl + unregistered use
    assert_eq!(count("R12"), 3);
    // the harness package and the fixture integration test contribute
    // no findings
    assert!(report.files_scanned >= 10);
}

#[test]
fn bin_only_package_modules_are_binary_code() {
    // harness/ has src/main.rs and no src/lib.rs: its layers.rs is
    // binary code, so its un-emitting `.choose(` is not an R10 site.
    let report = analyze_tree(fixture_root()).expect("fixture tree scans");
    assert!(
        report
            .findings
            .iter()
            .all(|f| !f.file.starts_with("harness/")),
        "{:#?}",
        report.findings
    );
    // The same file classified by its path alone is library code and
    // fires: the package layout is what makes it binary code.
    let layers = fixture_root().join("harness/src/layers.rs");
    let src = std::fs::read_to_string(layers).expect("fixture readable");
    let r = analyze_source("harness/src/layers.rs", &src);
    let rules: Vec<&str> = r.findings.iter().map(|f| f.rule).collect();
    assert_eq!(rules, vec!["R10"], "{:#?}", r.findings);
    // mylib has a bin target too, but also a lib target: its library
    // module still fires.
    assert!(report
        .findings
        .iter()
        .any(|f| f.rule == "R10" && f.file == "crates/mylib/src/choose.rs" && f.line == 7));
}

#[test]
fn fixture_classification_is_manifest_driven() {
    let report = analyze_tree(fixture_root()).expect("fixture tree scans");
    let class = |name: &str| {
        report
            .classification
            .iter()
            .find(|c| c.name == name)
            .unwrap_or_else(|| panic!("{name} missing from classification"))
    };
    // coverage has no marker: algo by default, implicitly.
    assert!(class("coverage").algo && !class("coverage").explicit);
    // mylib opts out with a reason.
    let mylib = class("mylib");
    assert!(!mylib.algo && mylib.explicit && !mylib.reason.is_empty());
    // bench opts out without one — classified as asked, but R7 fired
    // (counted in fixture_tree_counts).
    assert!(!class("bench").algo && class("bench").explicit);
}

#[test]
fn fixture_symbol_graph_is_populated() {
    let report = analyze_tree(fixture_root()).expect("fixture tree scans");
    // bins and tests/ files are exempt from the graph: 5 library files.
    assert!(report.symbols.files_parsed >= 5);
    assert!(report.symbols.functions > 5);
    assert!(
        report.symbols.emitting_functions >= 1,
        "the fixture breaker's record_failure emits counters"
    );
}

#[test]
fn hash_collections_flagged_only_in_algorithm_crates() {
    let src = "use std::collections::HashMap;\n";
    for algo in [
        "coverage",
        "discovery",
        "joinsample",
        "tailor",
        "fairness",
        "cleaning",
        "actor",
    ] {
        let rel = format!("crates/{algo}/src/lib.rs");
        let r = analyze_source(&rel, src);
        assert_eq!(r.findings.len(), 1, "{algo} should flag");
        assert_eq!(r.findings[0].rule, "R1");
    }
    for other in [
        "crates/table/src/lib.rs",
        "crates/obs/src/lib.rs",
        "src/lib.rs",
    ] {
        assert!(analyze_source(other, src).findings.is_empty(), "{other}");
    }
}

#[test]
fn actor_runtime_is_held_to_determinism_rules() {
    // The scheduler's replay guarantee depends on virtual time and
    // ordered collections; wall clocks and hash iteration are banned.
    let clock = "use std::time::Instant;\nfn t() { let _t = Instant::now(); }\n";
    let r = analyze_source("crates/actor/src/runtime.rs", clock);
    assert_eq!(r.findings.len(), 2);
    assert!(r.findings.iter().all(|f| f.rule == "R3"));
}

#[test]
fn wall_clock_exempt_in_obs_and_bench() {
    let src = "use std::time::Instant;\nfn t() { let _t = Instant::now(); }\n";
    assert!(analyze_source("crates/obs/src/span.rs", src)
        .findings
        .is_empty());
    assert_eq!(
        analyze_source("crates/tailor/src/runner.rs", src)
            .findings
            .len(),
        2
    );
}

#[test]
fn tests_benches_examples_and_build_scripts_are_exempt() {
    let src = "fn f() { let _t = Instant::now(); }\n";
    for exempt in [
        "crates/coverage/tests/t.rs",
        "crates/coverage/benches/b.rs",
        "crates/coverage/examples/demo.rs",
        "crates/coverage/build.rs",
    ] {
        assert!(analyze_source(exempt, src).findings.is_empty(), "{exempt}");
    }
    assert_eq!(
        analyze_source("crates/coverage/src/lib.rs", src)
            .findings
            .len(),
        1
    );
}

#[test]
fn cfg_test_region_is_exempt() {
    let src = "fn lib() { let _t = Instant::now(); }\n\
               #[cfg(test)]\n\
               mod tests {\n\
                   #[test]\n\
                   fn t() { let _m = HashMap::new(); let _t = Instant::now(); }\n\
               }\n";
    let r = analyze_source("crates/coverage/src/lib.rs", src);
    assert_eq!(
        r.findings.len(),
        1,
        "only the pre-boundary clock read fires"
    );
    assert_eq!(r.findings[0].line, 1);
}

#[test]
fn inline_directive_comments_suppress_nothing() {
    // The crate-level marker is the only escape hatch: a comment shaped
    // like an old `allow` directive is just a comment.
    let src = "// rdi-lint: allow(R3): timing only\nfn f() { let _t = Instant::now(); }\n";
    let r = analyze_source("crates/coverage/src/lib.rs", src);
    let rules: Vec<&str> = r.findings.iter().map(|f| f.rule).collect();
    assert_eq!(rules, vec!["R3"], "{:#?}", r.findings);
}

#[test]
fn seed_purity_traces_params_and_stream_seed() {
    // Pure: the seed is a parameter.
    let from_param = "fn go(seed: u64) { let mut r = StdRng::seed_from_u64(seed); let _r = r; }\n";
    assert!(analyze_source("crates/coverage/src/x.rs", from_param)
        .findings
        .is_empty());

    // Pure: derived from stream_seed through a local binding.
    let via_local = "fn go() { let s = rdi_par::stream_seed(2); \
                     let mut r = StdRng::seed_from_u64(s); let _r = r; }\n";
    assert!(analyze_source("crates/coverage/src/x.rs", via_local)
        .findings
        .is_empty());

    // Impure: a literal seed in an algorithm crate.
    let literal = "fn go() { let mut r = StdRng::seed_from_u64(42); let _r = r; }\n";
    let r = analyze_source("crates/coverage/src/x.rs", literal);
    assert_eq!(r.findings.len(), 1, "{:#?}", r.findings);
    assert_eq!(r.findings[0].rule, "R9");
    assert_eq!(r.findings[0].item, "go");

    // Impure: a local that bottoms out in a literal.
    let laundered = "fn go() { let s = 7u64; let mut r = StdRng::seed_from_u64(s); let _r = r; }\n";
    let r = analyze_source("crates/coverage/src/x.rs", laundered);
    assert!(
        r.findings.iter().any(|f| f.rule == "R9"),
        "{:#?}",
        r.findings
    );

    // Out of scope: non-algo crates and test regions.
    assert!(analyze_source("crates/serve/src/x.rs", literal)
        .findings
        .is_empty());
    let in_test =
        "#[cfg(test)]\nmod tests {\n  fn go() { let _r = StdRng::seed_from_u64(42); }\n}\n";
    assert!(analyze_source("crates/coverage/src/x.rs", in_test)
        .findings
        .is_empty());
}

#[test]
fn findings_carry_enclosing_item_and_fingerprint() {
    let src = "pub fn outer() { let _t = Instant::now(); }\n";
    let r = analyze_source("crates/coverage/src/lib.rs", src);
    assert_eq!(r.findings.len(), 1);
    assert_eq!(r.findings[0].item, "outer");
    let fp = rdi_lint::fingerprint(&r.findings[0]);
    assert_eq!(fp.len(), 16);
    assert!(fp.chars().all(|c| c.is_ascii_hexdigit()));
    // Stable across line shifts: the same finding one line lower hashes
    // the same (fingerprints exclude the line number).
    let shifted = format!("\n{src}");
    let r2 = analyze_source("crates/coverage/src/lib.rs", &shifted);
    assert_eq!(fp, rdi_lint::fingerprint(&r2.findings[0]));
}

#[test]
fn selection_choose_sites_must_reach_policy_decision() {
    // A `.choose(..)` that takes PolicyParams (by type name or the
    // `*params` binding convention) with no PolicyDecision emission in
    // the enclosing function is an unauditable selection — R10.
    for bad in [
        "fn pick(p: &R, c: &[C]) -> Option<usize> {\n\
             let d = p.choose(c, &PolicyParams::new());\n\
             d.winner\n\
         }\n",
        "struct S { params: P }\n\
         impl S {\n\
             fn pick(&self, p: &R, c: &[C]) -> Option<usize> {\n\
                 p.choose(c, &self.params).winner\n\
             }\n\
         }\n",
        "struct S { evict_params: P }\n\
         impl S {\n\
             fn victim(&self, p: &R, c: &[C]) -> Option<usize> {\n\
                 p.choose(c, &self.evict_params).winner\n\
             }\n\
         }\n",
    ] {
        let r = analyze_source("crates/serve/src/cache.rs", bad);
        assert_eq!(r.findings.len(), 1, "{bad:?} → {:#?}", r.findings);
        assert_eq!(r.findings[0].rule, "R10");
    }

    // Emitting the rationale — via the typed constructor or a direct
    // variant construction — clears the site.
    for ok in [
        "fn pick(p: &R, c: &[C], out: &mut Vec<E>) -> Option<usize> {\n\
             let d = p.choose(c, &PolicyParams::new());\n\
             out.push(rdi_obs::policy_decision_event(&d.rationale(c, &PolicyParams::new())));\n\
             d.winner\n\
         }\n",
        "fn pick(p: &R, c: &[C], out: &mut Vec<E>) -> Option<usize> {\n\
             let d = p.choose(c, &PolicyParams::new());\n\
             out.push(ProvenanceEvent::PolicyDecision { policy: d.policy.to_string() });\n\
             d.winner\n\
         }\n",
        // The legacy tailoring-policy shape takes an RNG, not params:
        // the choose-site leg does not apply.
        "fn pick(p: &mut dyn Policy, remaining: &[usize], rng: &mut R) -> usize {\n\
             p.choose(remaining, rng)\n\
         }\n",
    ] {
        let r = analyze_source("crates/serve/src/cache.rs", ok);
        assert!(
            !r.findings.iter().any(|f| f.rule == "R10"),
            "{ok:?} → {:#?}",
            r.findings
        );
    }

    // Bins, tests, and #[cfg(test)] regions are out of scope.
    let bad = "fn pick(p: &R, c: &[C]) -> Option<usize> {\n\
                   p.choose(c, &PolicyParams::new()).winner\n\
               }\n";
    for exempt in [
        "crates/bench/src/bin/policy_tool.rs",
        "crates/policy/tests/t.rs",
    ] {
        assert!(analyze_source(exempt, bad).findings.is_empty(), "{exempt}");
    }
    let in_test = format!("#[cfg(test)]\nmod tests {{\n{bad}}}\n");
    assert!(analyze_source("crates/serve/src/cache.rs", &in_test)
        .findings
        .is_empty());
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
