//! E23: auditable selection policies (`rdi-policy`) — the same queries
//! under two parameter sets produce **different winners** with distinct
//! `params_hash`es, and every decision's rationale replays from the
//! provenance stream:
//!
//! 1. **union ranking** — two registered tables with identical content
//!    tie exactly; the default `discovery.union_rank` params break the
//!    tie by name ascending (`alpha` wins), a `tie=key_desc` override
//!    flips the winner to `beta` without touching any score;
//! 2. **quarantine redirect** — a dead source's draws are absorbed by
//!    the nearest live source by default (`core.redirect` ranks by
//!    negated ring offset, `dir=max`); a `dir=min` override reroutes
//!    them to the farthest, changing real per-source traffic;
//! 3. **coverage relaxation** — when widening a range predicate, the
//!    default `fairquery.relax` params widen toward the closer helpful
//!    frontier; `dir=min` inverts the ranking and widens the other way
//!    first.
//!
//! Run under `RDI_FAKE_CLOCK=1` the stdout is byte-stable and replayed
//! against `crates/bench/golden/exp_policy_audit.golden` in CI.

use rand::rngs::StdRng;
use rand::SeedableRng;
use rdi_bench::print_table;
use rdi_core::PipelineBuilder;
use rdi_fairquery::relax_for_coverage_explained;
use rdi_fault::{FaultSpec, FaultySource, ResilienceConfig};
use rdi_obs::ProvenanceEvent;
use rdi_policy::{PolicyId, PolicyParams};
use rdi_serve::{LakeIndex, LakeIndexConfig};
use rdi_table::{DataType, Field, GroupKey, GroupSpec, Role, Schema, Table, Value};
use rdi_tailor::{DtProblem, RandomPolicy, TableSource};

fn keyed(vals: &[&str]) -> Table {
    let schema = Schema::new(vec![Field::new("key", DataType::Str)]);
    let mut t = Table::new(schema);
    for v in vals {
        t.push_row(vec![Value::str(*v)]).unwrap();
    }
    t
}

/// `(params_hash, winner)` of the first `PolicyDecision` for `policy`.
fn first_decision(events: &[ProvenanceEvent], id: &str) -> (u64, String) {
    events
        .iter()
        .find_map(|e| match e {
            ProvenanceEvent::PolicyDecision {
                policy,
                params_hash,
                winner,
                ..
            } if *policy == id => Some((
                *params_hash,
                winner.as_deref().unwrap_or_default().to_string(),
            )),
            _ => None,
        })
        .unwrap_or_else(|| panic!("no `{id}` decision in the stream"))
}

fn union_flip() {
    println!("-- discovery.union_rank: identical twins, tie broken by policy --\n");
    let mut index = LakeIndex::new(LakeIndexConfig::default());
    let twin = keyed(&["a", "b", "c", "d"]);
    index.register("alpha", twin.clone(), 1.0).unwrap();
    index.register("beta", twin, 1.0).unwrap();
    let query = keyed(&["a", "b", "c"]);

    let run = |index: &mut LakeIndex, label: &str| {
        let ranked = index.union_top_k(&query, 2).unwrap();
        let events = index.drain_decisions();
        let rows: Vec<Vec<String>> = ranked
            .iter()
            .map(|(name, s)| vec![name.clone(), rdi_bench::f3(*s)])
            .collect();
        print_table(label, &["table", "score"], &rows);
        for e in &events {
            println!("  {}", e.render());
        }
        println!();
        (ranked, first_decision(&events, "discovery.union_rank"))
    };

    let (default_rank, (default_hash, default_winner)) = run(&mut index, "default params");
    index.set_policy(
        PolicyId::UNION_RANK,
        PolicyParams::new().with("tie", "key_desc"),
    );
    let (flipped_rank, (flipped_hash, flipped_winner)) = run(&mut index, "tie=key_desc");

    assert_eq!(default_winner, "alpha", "default tie-break is name asc");
    assert_eq!(flipped_winner, "beta", "key_desc must flip the tie");
    assert_eq!(
        default_rank[0].1.to_bits(),
        flipped_rank[0].1.to_bits(),
        "the flip is pure tie-break: scores are untouched"
    );
    assert_ne!(
        default_hash, flipped_hash,
        "changed params must change the fingerprint"
    );
    println!(
        "winner flipped {default_winner} -> {flipped_winner}; params_hash \
         {default_hash:016x} -> {flipped_hash:016x}\n"
    );
}

fn redirect_flip() {
    println!("-- core.redirect: who absorbs a dead source's draws --\n");
    let problem = DtProblem::exact_counts(
        GroupSpec::new(vec!["g"]),
        vec![
            (GroupKey(vec![Value::str("a")]), 20),
            (GroupKey(vec![Value::str("b")]), 20),
        ],
    );
    let source = |name: &str, n: usize| {
        let schema = Schema::new(vec![
            Field::new("g", DataType::Str).with_role(Role::Sensitive)
        ]);
        let mut t = Table::new(schema);
        for i in 0..n {
            t.push_row(vec![Value::str(if i % 2 == 0 { "a" } else { "b" })])
                .unwrap();
        }
        TableSource::new(name, t, 1.0, &problem).unwrap()
    };
    let run = |label: &str, params: Option<PolicyParams>| {
        let mut sources = vec![
            FaultySource::new(source("dead", 500), FaultSpec::dead(), 9),
            FaultySource::new(source("near", 500), FaultSpec::none(), 10),
            FaultySource::new(source("far", 500), FaultSpec::none(), 11),
        ];
        let mut policy = RandomPolicy::new(3);
        let mut rng = StdRng::seed_from_u64(6);
        let mut builder = PipelineBuilder::new(problem.clone())
            .max_draws(1_000_000)
            .span_root("pipeline")
            .resilience(ResilienceConfig::default());
        if let Some(p) = params {
            builder = builder.with_policy(PolicyId::REDIRECT, p);
        }
        let result = builder
            .build()
            .run(&mut sources, &mut policy, &mut rng)
            .unwrap();
        let rows: Vec<Vec<String>> = result
            .health
            .iter()
            .map(|h| {
                vec![
                    h.name.clone(),
                    h.attempts.to_string(),
                    h.successes.to_string(),
                ]
            })
            .collect();
        print_table(label, &["source", "attempts", "successes"], &rows);
        let exemplar = result
            .provenance
            .iter()
            .find(|e| {
                matches!(e, ProvenanceEvent::PolicyDecision { policy, .. }
                    if *policy == "core.redirect")
            })
            .expect("redirect exemplar emitted");
        println!("  {}\n", exemplar.render());
        first_decision(&result.provenance, "core.redirect")
    };

    let (default_hash, default_winner) = run("default params", None);
    let (flipped_hash, flipped_winner) =
        run("dir=min", Some(PolicyParams::new().with("dir", "min")));
    assert_eq!(default_winner, "near", "default: closest live source");
    assert_eq!(flipped_winner, "far", "dir=min: farthest live source");
    assert_ne!(default_hash, flipped_hash);
    println!(
        "absorber flipped {default_winner} -> {flipped_winner}; params_hash \
         {default_hash:016x} -> {flipped_hash:016x}\n"
    );
}

fn relax_flip() {
    println!("-- fairquery.relax: which frontier widens first --\n");
    let schema = Schema::new(vec![
        Field::new("x", DataType::Float),
        Field::new("g", DataType::Str).with_role(Role::Sensitive),
    ]);
    let mut t = Table::new(schema);
    for (x, g) in [(1.0, "a"), (7.0, "b")] {
        t.push_row(vec![Value::Float(x), Value::str(g)]).unwrap();
    }
    let spec = GroupSpec::new(vec!["g"]);
    let run = |label: &str, params: &PolicyParams| {
        let (r, events) =
            relax_for_coverage_explained(&t, "x", &spec, 2.0, 4.0, 1, params).unwrap();
        println!(
            "{label}: [{}, {}] added={} steps={}",
            r.lo,
            r.hi,
            r.added_rows,
            events.len()
        );
        for e in &events {
            println!("  {}", e.render());
        }
        println!();
        first_decision(&events, "fairquery.relax")
    };
    let (default_hash, default_winner) = run("default params", &PolicyParams::new());
    let (flipped_hash, flipped_winner) = run("dir=min", &PolicyParams::new().with("dir", "min"));
    assert_eq!(
        default_winner, "left",
        "default widens toward the closer frontier"
    );
    assert_eq!(
        flipped_winner, "right",
        "dir=min inverts the frontier ranking"
    );
    assert_ne!(default_hash, flipped_hash);
    println!(
        "first widening flipped {default_winner} -> {flipped_winner}; params_hash \
         {default_hash:016x} -> {flipped_hash:016x}\n"
    );
}

fn main() {
    println!("== E23: auditable selection policies ==\n");
    union_flip();
    redirect_flip();
    relax_flip();
    rdi_bench::emit_metrics_snapshot();
}
