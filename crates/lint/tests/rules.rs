//! Rule-engine tests: the planted fixture tree plus targeted
//! `analyze_source` cases for scoping and suppression behavior.

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
        BTreeSet::from(["R1", "R3", "R6", "R7", "R9", "R10", "R11", "R12"]),
        "expected every rule to fire on the planted tree; findings: {:#?}",
        report.findings
    );
}

#[test]
fn fixture_tree_counts_and_suppressions() {
    let report = analyze_tree(fixture_root()).expect("fixture tree scans");
    let count = |rule: &str| report.findings.iter().filter(|f| f.rule == rule).count();
    // planted.rs: `use HashMap` + declaration line with two HashMap tokens
    assert_eq!(count("R1"), 3);
    // planted.rs: `use Instant` + `Instant::now()` + the Instant under
    // the reasonless directive
    assert_eq!(count("R3"), 3);
    assert_eq!(count("R6"), 1);
    // planted.rs reasonless directive + the bench manifest opt-out sans
    // reason
    assert_eq!(count("R7"), 2);
    // seeding.rs literal seed (param / stream_seed cases stay clean)
    assert_eq!(count("R9"), 1);
    // breaker.rs early return without an emission + choose.rs silent
    // selection-policy call
    assert_eq!(count("R10"), 2);
    // mylib allow(R3) covering nothing
    assert_eq!(count("R11"), 1);
    // dead decl + dup decl + unregistered use
    assert_eq!(count("R12"), 3);
    // the valid allow(R3) and same-line allow(R1) in planted.rs
    assert_eq!(report.suppressed, 2);
    // exp_ok.rs and the fixture integration test contribute no findings
    assert!(report.files_scanned >= 8);
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
    // (counted in fixture_tree_counts_and_suppressions).
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
fn fixture_r6_names_the_missing_experiment() {
    let report = analyze_tree(fixture_root()).expect("fixture tree scans");
    let r6: Vec<_> = report.findings.iter().filter(|f| f.rule == "R6").collect();
    assert_eq!(r6.len(), 1);
    assert!(r6[0].file.ends_with("exp_missing.rs"));
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
fn actor_serving_harness_must_emit_snapshot() {
    // E21 sits in the golden byte-replay matrix; a harness that stops
    // emitting METRICS_SNAPSHOT would silently drop out of
    // validate_metrics coverage.
    let silent = "fn main() { println!(\"ok\"); }\n";
    let r = analyze_source("crates/bench/src/bin/exp_actor_serving.rs", silent);
    assert_eq!(r.findings.len(), 1);
    assert_eq!(r.findings[0].rule, "R6");
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
fn suppression_covers_same_and_next_line_only() {
    let same_line =
        "fn f() { let _t = Instant::now(); } // rdi-lint: allow(R3): timing only, never in results\n";
    let r = analyze_source("crates/coverage/src/lib.rs", same_line);
    assert!(r.findings.is_empty());
    assert_eq!(r.suppressed, 1);

    let line_above = "// rdi-lint: allow(R3): audited\nfn f() { let _t = Instant::now(); }\n";
    assert!(analyze_source("crates/coverage/src/lib.rs", line_above)
        .findings
        .is_empty());

    // Out of range: the clock read fires, and the directive — now
    // covering nothing — is itself a stale-suppression finding (R11).
    let too_far = "// rdi-lint: allow(R3): audited\n\nfn f() { let _t = Instant::now(); }\n";
    let r = analyze_source("crates/coverage/src/lib.rs", too_far);
    let rules: Vec<&str> = r.findings.iter().map(|f| f.rule).collect();
    assert_eq!(rules, vec!["R11", "R3"], "{:#?}", r.findings);

    // the directive must name the right rule; naming the wrong one is
    // both ineffective (R3 fires) and stale (R11).
    let wrong_rule = "// rdi-lint: allow(R1): wrong rule\nfn f() { let _t = Instant::now(); }\n";
    let r = analyze_source("crates/coverage/src/lib.rs", wrong_rule);
    let rules: Vec<&str> = r.findings.iter().map(|f| f.rule).collect();
    assert_eq!(rules, vec!["R11", "R3"], "{:#?}", r.findings);
}

#[test]
fn stale_suppressions_fire_and_live_ones_do_not() {
    // A directive that covers a real finding is not stale.
    let live = "fn f() { let _t = Instant::now(); } // rdi-lint: allow(R3): timing only\n";
    let r = analyze_source("crates/coverage/src/lib.rs", live);
    assert!(r.findings.is_empty(), "{:#?}", r.findings);

    // One with no finding under it is R11 at the directive line.
    let stale = "// rdi-lint: allow(R3): a clock was read here once\nfn f() -> u8 { 3 }\n";
    let r = analyze_source("crates/coverage/src/lib.rs", stale);
    assert_eq!(r.findings.len(), 1);
    assert_eq!((r.findings[0].rule, r.findings[0].line), ("R11", 1));

    // R11 is not itself suppressible: allow(R11) cannot launder a stale
    // directive (and is stale on its own account).
    let meta = "// rdi-lint: allow(R11): please ignore\nfn f() -> u8 { 3 }\n";
    let r = analyze_source("crates/coverage/src/lib.rs", meta);
    assert!(r.findings.iter().any(|f| f.rule == "R11"));

    // Exempt files (tests, benches) carry no staleness obligation.
    let in_test = "// rdi-lint: allow(R3): leftover\nfn f() -> u8 { 3 }\n";
    assert!(analyze_source("crates/coverage/tests/t.rs", in_test)
        .findings
        .is_empty());
}

#[test]
fn doc_comment_directive_examples_are_inert() {
    // `///` and `//!` lines quoting a directive neither suppress nor
    // count as stale directives.
    let src = "//! // rdi-lint: allow(R3): doc example\n\
               /// // rdi-lint: allow(R1): another example\n\
               fn f() { let _t = Instant::now(); }\n";
    let r = analyze_source("crates/coverage/src/lib.rs", src);
    let rules: Vec<&str> = r.findings.iter().map(|f| f.rule).collect();
    assert_eq!(
        rules,
        vec!["R3"],
        "doc examples must be inert: {:#?}",
        r.findings
    );
    assert_eq!(r.suppressed, 0);
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
fn allow_file_covers_everything_and_lists() {
    let src = "// rdi-lint: allow-file(R3, R1): replay harness, audited 2026-08\n\
               use std::collections::HashMap;\n\
               fn f() { let _t = Instant::now(); }\n\
               fn g() { let _t = SystemTime::now(); }\n";
    let r = analyze_source("crates/fairness/src/lib.rs", src);
    assert!(r.findings.is_empty(), "{:?}", r.findings);
    assert_eq!(r.suppressed, 3);
}

#[test]
fn malformed_directives_are_r7_and_suppress_nothing() {
    for bad in [
        "// rdi-lint: allow(R3)\nfn f() { let _t = Instant::now(); }\n",
        "// rdi-lint: allow(): empty\nfn f() { let _t = Instant::now(); }\n",
        "// rdi-lint: allow(R99): unknown rule\nfn f() { let _t = Instant::now(); }\n",
        // R5 is retired (clippy owns panic sites): its id no longer parses.
        "// rdi-lint: allow(R5): retired rule\nfn f() { let _t = Instant::now(); }\n",
        "// rdi-lint: deny(R3): unknown verb\nfn f() { let _t = Instant::now(); }\n",
    ] {
        let r = analyze_source("crates/coverage/src/lib.rs", bad);
        let rules: Vec<&str> = r.findings.iter().map(|f| f.rule).collect();
        assert!(rules.contains(&"R7"), "{bad:?} → {rules:?}");
        assert!(
            rules.contains(&"R3"),
            "malformed directive must not suppress: {bad:?}"
        );
        assert_eq!(r.suppressed, 0);
    }
}

#[test]
fn experiment_marker_accepted_in_all_forms() {
    for ok in [
        "fn main() { rdi_bench::emit_metrics_snapshot(); }\n",
        "fn main() { println!(\"{}{}\", METRICS_MARKER, json); }\n",
        "fn main() { println!(\"METRICS_SNAPSHOT {}\", json); }\n",
    ] {
        let r = analyze_source("crates/bench/src/bin/exp_x.rs", ok);
        assert!(!r.findings.iter().any(|f| f.rule == "R6"), "{ok}");
    }
    let missing = "fn main() {}\n";
    let r = analyze_source("crates/bench/src/bin/exp_x.rs", missing);
    assert!(r.findings.iter().any(|f| f.rule == "R6"));
    // non-experiment bins in bench carry no marker obligation
    let r = analyze_source("crates/bench/src/bin/validate_metrics.rs", missing);
    assert!(r.findings.is_empty());
}

#[test]
fn r6_covers_the_serving_experiment() {
    // E19 (exp_serving) is classified as an experiment binary like any
    // other `exp_*.rs`, so the METRICS_SNAPSHOT obligation applies.
    let missing = "fn main() { println!(\"served\"); }\n";
    let r = analyze_source("crates/bench/src/bin/exp_serving.rs", missing);
    assert!(
        r.findings.iter().any(|f| f.rule == "R6"),
        "exp_serving without a metrics snapshot must trip R6"
    );
    let ok = "fn main() { rdi_bench::emit_metrics_snapshot(); }\n";
    let r = analyze_source("crates/bench/src/bin/exp_serving.rs", ok);
    assert!(!r.findings.iter().any(|f| f.rule == "R6"));
}

#[test]
fn r6_covers_the_lake_churn_experiment() {
    // E20 (exp_lake_churn) proves O(delta) maintenance *by counters*,
    // so a run without a METRICS_SNAPSHOT is meaningless — pin the
    // obligation to the harness name.
    let missing = "fn main() { println!(\"churned\"); }\n";
    let r = analyze_source("crates/bench/src/bin/exp_lake_churn.rs", missing);
    assert!(
        r.findings.iter().any(|f| f.rule == "R6"),
        "exp_lake_churn without a metrics snapshot must trip R6"
    );
    let ok = "fn main() { rdi_bench::emit_metrics_snapshot(); }\n";
    let r = analyze_source("crates/bench/src/bin/exp_lake_churn.rs", ok);
    assert!(!r.findings.iter().any(|f| f.rule == "R6"));
}

#[test]
fn r6_covers_the_multitenant_experiment() {
    // E22 (exp_multitenant) proves fairness and blast-radius bounds by
    // per-tenant counter arithmetic; a run without a METRICS_SNAPSHOT
    // proves nothing, so the obligation is pinned to the harness name.
    let missing = "fn main() { println!(\"admitted\"); }\n";
    let r = analyze_source("crates/bench/src/bin/exp_multitenant.rs", missing);
    assert!(
        r.findings.iter().any(|f| f.rule == "R6"),
        "exp_multitenant without a metrics snapshot must trip R6"
    );
    let ok = "fn main() { rdi_bench::emit_metrics_snapshot(); }\n";
    let r = analyze_source("crates/bench/src/bin/exp_multitenant.rs", ok);
    assert!(!r.findings.iter().any(|f| f.rule == "R6"));
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
