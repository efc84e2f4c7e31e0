//! Property tests for the `rdi-policy` selection engine:
//!
//! 1. [`RankByScore::choose`] is **permutation-invariant**: shuffling
//!    the candidate slice never changes the winning key, the ranked key
//!    sequence, or the tie accounting — candidate identity, not arrival
//!    position, decides (first-seen index only separates *exact*
//!    duplicates, which are interchangeable);
//! 2. the `discovery.union_rank` decision — the ranked answer *and* the
//!    emitted `PolicyDecision` audit event — is bitwise identical
//!    across scoring thread counts 1/2/8 (`Threads::fixed`, so this
//!    file mutates no process state);
//! 3. [`PolicyParams::hash`] is the canonical fingerprint: insertion
//!    order never changes it, and two generated parameter sets hash
//!    equal iff their canonical entries are equal.

use proptest::prelude::*;
use rdi_par::Threads;
use responsible_data_integration::discovery::{TableSignature, UnionSearchIndex};
use responsible_data_integration::obs::ProvenanceEvent;
use responsible_data_integration::policy::{
    Candidate, PolicyId, PolicyParams, RankByScore, Score, SelectionPolicy,
};
use responsible_data_integration::table::{DataType, Field, Schema, Table, Value};

/// Small pools so generated candidates collide — ties are the
/// interesting case for ordering invariance.
const KEYS: [&str; 5] = ["alpha", "beta", "gamma", "delta", "alpha"];
const SCORES: [f64; 4] = [0.0, 0.25, 0.25, 1.0];

fn candidate(key_idx: usize, score_idx: usize) -> Candidate {
    Candidate::new(
        KEYS[key_idx % KEYS.len()],
        Score::F64(SCORES[score_idx % SCORES.len()]),
    )
}

fn params(dir: usize, tie: usize) -> PolicyParams {
    let mut p = PolicyParams::new();
    match dir % 3 {
        0 => {}
        1 => p.set("dir", "max"),
        _ => p.set("dir", "min"),
    }
    match tie % 3 {
        0 => {}
        1 => p.set("tie", "key_asc"),
        _ => p.set("tie", "key_desc"),
    }
    p
}

/// Deterministic Fisher–Yates over an index vector, driven by a tiny
/// multiplicative generator — no RNG dependency, fully replayable.
fn permutation(n: usize, seed: u64) -> Vec<usize> {
    let mut idx: Vec<usize> = (0..n).collect();
    let mut state = seed | 1;
    for i in (1..n).rev() {
        state = state
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        idx.swap(i, (state % (i as u64 + 1)) as usize);
    }
    idx
}

/// The observable outcome of a choice, keyed by candidate *content*:
/// the ranking and the recorded `PolicyDecision` event's winner, ties
/// and params hash.
fn outcome(cands: &[Candidate], p: &PolicyParams) -> (Option<String>, Vec<String>, usize, u64) {
    let (event, ranking) = RankByScore::new(PolicyId::UNION_RANK)
        .choose(cands, p)
        .record();
    let ranked_keys = ranking.iter().map(|&i| cands[i].key.to_string()).collect();
    let ProvenanceEvent::PolicyDecision {
        winner,
        ties,
        params_hash,
        ..
    } = event
    else {
        panic!("record returns a PolicyDecision event, got {event:?}");
    };
    (
        winner.as_deref().map(str::to_string),
        ranked_keys,
        ties,
        params_hash,
    )
}

fn skewed_table(tag: u64) -> Table {
    let schema = Schema::new(vec![
        Field::new("name", DataType::Str),
        Field::new("x", DataType::Str),
    ]);
    let mut t = Table::new(schema);
    for i in 0..20 {
        t.push_row(vec![
            Value::str(format!("n{}", (i + tag) % 7)),
            Value::str(format!("x{}", (i * tag) % 11)),
        ])
        .unwrap();
    }
    t
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn choose_is_permutation_invariant(
        spec in proptest::collection::vec((0usize..5, 0usize..4), 1..12),
        seed in 0u64..1_000_000,
        dir in 0usize..3,
        tie in 0usize..3,
    ) {
        let cands: Vec<Candidate> =
            spec.iter().map(|&(k, s)| candidate(k, s)).collect();
        let p = params(dir, tie);
        let reference = outcome(&cands, &p);

        let shuffled: Vec<Candidate> = permutation(cands.len(), seed)
            .into_iter()
            .map(|i| cands[i].clone())
            .collect();
        prop_assert_eq!(
            outcome(&shuffled, &p),
            reference,
            "candidate order changed the decision"
        );
    }

    #[test]
    fn union_rank_decision_is_thread_count_invariant(
        tags in proptest::collection::vec(1u64..50, 2..8),
        query_tag in 1u64..50,
        dir in 0usize..3,
        tie in 0usize..3,
    ) {
        let mut idx = UnionSearchIndex::new();
        for (i, tag) in tags.iter().enumerate() {
            let sig = TableSignature::build(format!("t{i}"), &skewed_table(*tag), 16).unwrap();
            idx.insert(sig);
        }
        let query = TableSignature::build("q", &skewed_table(query_tag), 16).unwrap();
        let p = params(dir, tie);
        let reference = idx.top_k_explained(&query, 3, Threads::fixed(1), &p);
        for n in [2usize, 8] {
            let replay = idx.top_k_explained(&query, 3, Threads::fixed(n), &p);
            prop_assert_eq!(
                &replay, &reference,
                "ranking or rationale changed with {} scoring threads", n
            );
        }
    }

    #[test]
    fn params_hash_changes_iff_canonical_params_change(
        a in proptest::collection::vec((0usize..4, 0usize..4), 0..6),
        b in proptest::collection::vec((0usize..4, 0usize..4), 0..6),
        seed in 0u64..1_000_000,
    ) {
        let keys = ["dir", "tie", "weight", "mode"];
        let vals = ["max", "min", "key_asc", "7"];
        let build = |entries: &[(usize, usize)]| {
            let mut p = PolicyParams::new();
            for &(k, v) in entries {
                p.set(keys[k], vals[v]);
            }
            p
        };
        let pa = build(&a);

        // same entries inserted in any order → same canonical form →
        // same hash
        let order = permutation(a.len(), seed);
        let reordered: Vec<(usize, usize)> =
            order.into_iter().map(|i| a[i]).collect();
        // last write wins: reinsertion may differ, so compare via the
        // canonical entries, the contract under test
        let pr = build(&reordered);
        if pa.entries() == pr.entries() {
            prop_assert_eq!(pa.hash(), pr.hash(), "insertion order leaked into the hash");
        } else {
            prop_assert!(pa.hash() != pr.hash(), "distinct canonical params collided");
        }

        let pb = build(&b);
        if pa.entries() == pb.entries() {
            prop_assert_eq!(pa.hash(), pb.hash());
        } else {
            prop_assert!(
                pa.hash() != pb.hash(),
                "distinct canonical params collided: {:?} vs {:?}",
                pa.entries(), pb.entries()
            );
        }
    }
}
