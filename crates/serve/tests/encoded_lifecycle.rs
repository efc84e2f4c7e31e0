//! The lifecycle of a registered table's encoded columns: codes are
//! encoded on first use by a coverage probe or a tailoring run, shared
//! into plans, dropped by every append and delete, and replaced or
//! removed with the table on upsert and drop. Whatever the history, a
//! coverage or tailoring answer must equal, bit for bit, the answer of
//! a fresh index built over the current tables — on the serial session
//! at several shard counts and on the actor-hosted path.

use std::collections::BTreeMap;

use proptest::prelude::*;
use rdi_actor::{Runtime, RuntimeConfig};
use rdi_serve::{
    LakeActorGroup, LakeIndex, LakeIndexConfig, MaintMsg, ServeRequest, ServeSession, SessionActor,
    SessionConfig, SessionMsg,
};
use rdi_table::{DataType, Field, GroupKey, GroupSpec, Role, Schema, Table, TableDelta, Value};
use rdi_tailor::DtProblem;

const TWO_53: i64 = 1 << 53;

/// Table ids the stream touches; requests and deltas may name one
/// that is not registered.
const IDS: [&str; 4] = ["t0", "t1", "t2", "t3"];

fn schema() -> Schema {
    Schema::new(vec![
        Field::new("key", DataType::Str).with_role(Role::Id),
        Field::new("group", DataType::Str).with_role(Role::Sensitive),
        Field::new("n", DataType::Int).with_role(Role::Sensitive),
        Field::new("x", DataType::Float),
    ])
}

fn pick(pool: Vec<Value>) -> impl Strategy<Value = Value> {
    (0..pool.len()).prop_map(move |i| pool[i].clone())
}

/// Rows over small pools with nulls; `n` holds 2^53 and 2^53+1, which
/// share a code (equal as `f64`) whose representative is the first
/// occurrence, so deletes can change it.
fn arb_rows(len: std::ops::Range<usize>) -> impl Strategy<Value = Table> {
    let key = pick((0..4).map(|i| Value::str(format!("k{i}"))).collect());
    let group = pick(vec![Value::str("a"), Value::str("b"), Value::Null]);
    let n = pick(vec![
        Value::Int(1),
        Value::Int(TWO_53),
        Value::Int(TWO_53 + 1),
        Value::Null,
    ]);
    let x = pick(vec![Value::Float(0.5), Value::Float(-0.0), Value::Null]);
    prop::collection::vec((key, group, n, x), len).prop_map(|rows| {
        let mut t = Table::new(schema());
        for (k, g, n, x) in rows {
            t.push_row(vec![k, g, n, x]).unwrap();
        }
        t
    })
}

#[derive(Debug, Clone)]
enum Op {
    Upsert(usize, Table),
    Append(usize, Table),
    /// Row picks, reduced modulo the table's length when applied.
    Delete(usize, Vec<usize>),
    Drop(usize),
    Coverage(usize, usize, usize),
    Tailor(Vec<usize>, usize, usize),
}

/// An id, mostly one of the three tables every stream starts with.
fn arb_id() -> impl Strategy<Value = usize> {
    prop_oneof![8 => 0..3usize, 1 => Just(3)]
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        1 => (arb_id(), arb_rows(1..8)).prop_map(|(i, t)| Op::Upsert(i, t)),
        2 => (arb_id(), arb_rows(1..4)).prop_map(|(i, t)| Op::Append(i, t)),
        3 => (arb_id(), prop::collection::vec(0usize..16, 1..4))
            .prop_map(|(i, p)| Op::Delete(i, p)),
        1 => arb_id().prop_map(Op::Drop),
        4 => (arb_id(), prop_oneof![6 => 0usize..3, 1 => Just(3)], 1usize..4)
            .prop_map(|(i, a, t)| Op::Coverage(i, a, t)),
        4 => (prop::collection::vec(arb_id(), 1..3), 0usize..3, 1usize..3)
            .prop_map(|(s, p, c)| Op::Tailor(s, p, c)),
    ]
}

/// A stream: register three tables, then the ops.
fn arb_stream() -> impl Strategy<Value = Vec<Op>> {
    (
        prop::collection::vec(arb_rows(2..10), 3..4),
        prop::collection::vec(arb_op(), 1..32),
    )
        .prop_map(|(tables, ops)| {
            let upserts = tables
                .into_iter()
                .enumerate()
                .map(|(i, t)| Op::Upsert(i, t));
            upserts.chain(ops).collect()
        })
}

/// The rows `picks` names in a table of `len` rows, keeping at least
/// one row (an empty table cannot be registered on a fresh index).
fn delete_indices(picks: &[usize], len: usize) -> Vec<usize> {
    let mut indices: Vec<usize> = picks.iter().map(|p| p % len).collect();
    indices.sort_unstable();
    indices.dedup();
    if indices.len() == len {
        indices.pop();
    }
    indices
}

fn request(op: &Op) -> Option<ServeRequest> {
    match op {
        Op::Coverage(id, attrs, threshold) => Some(ServeRequest::CoverageProbe {
            table: IDS[*id].to_string(),
            attributes: [
                vec!["group"],
                vec!["n"],
                vec!["n", "group"],
                vec!["group", "nope"],
            ][*attrs]
                .iter()
                .map(|a| a.to_string())
                .collect(),
            threshold: *threshold,
        }),
        Op::Tailor(sources, spec, count) => {
            let key = |v: Value| (GroupKey(vec![v]), *count);
            let problem = match spec {
                0 => DtProblem::exact_counts(
                    GroupSpec::new(vec!["group"]),
                    vec![key(Value::str("a")), key(Value::str("b"))],
                ),
                1 => DtProblem::exact_counts(
                    GroupSpec::new(vec!["n"]),
                    vec![key(Value::Int(TWO_53 + 1)), key(Value::Null)],
                ),
                _ => DtProblem::exact_counts(
                    GroupSpec::new(vec!["n", "group"]),
                    vec![(GroupKey(vec![Value::Int(1), Value::str("a")]), *count)],
                ),
            };
            Some(ServeRequest::TailorRun {
                problem,
                sources: sources.iter().map(|&s| IDS[s].to_string()).collect(),
                max_draws: 200,
            })
        }
        _ => None,
    }
}

/// The delta an op applies to its table, given the table's current
/// length (`None` for requests, upserts and unregistered ids).
fn delta(op: &Op, len: Option<usize>) -> Option<(usize, TableDelta)> {
    match (op, len) {
        (Op::Append(id, rows), _) => Some((*id, TableDelta::Append(rows.clone()))),
        (Op::Delete(id, picks), Some(len)) => {
            Some((*id, TableDelta::Delete(delete_indices(picks, len))))
        }
        (Op::Delete(id, _), None) => Some((*id, TableDelta::Delete(vec![0]))),
        (Op::Drop(id), _) => Some((*id, TableDelta::Drop)),
        _ => None,
    }
}

/// An answer compared bit for bit (`Debug` tells every float apart).
fn answer(session: &mut ServeSession, request: &ServeRequest) -> String {
    format!(
        "{:?}",
        session
            .submit_batch(std::slice::from_ref(request))
            .responses
    )
}

fn config(shards: usize) -> LakeIndexConfig {
    LakeIndexConfig {
        shard_count: shards,
        ..LakeIndexConfig::default()
    }
}

/// The answer of a fresh index over `tables`, from a fresh session.
fn fresh_answer(tables: &BTreeMap<usize, Table>, request: &ServeRequest) -> String {
    let mut index = LakeIndex::new(config(1));
    for (id, t) in tables {
        index.upsert(IDS[*id], t.clone(), 1.0).unwrap();
    }
    answer(
        &mut ServeSession::new(index, SessionConfig::default()),
        request,
    )
}

/// Serve `ops` through a long-lived serial index with `shards` shards;
/// every request runs in a fresh session (so its seed is the fresh
/// index's) over the index the earlier ops left behind.
fn serial_answers(ops: &[Op], shards: usize) -> Vec<String> {
    let mut index = LakeIndex::new(config(shards));
    let mut out = Vec::new();
    for op in ops {
        if let Op::Upsert(id, t) = op {
            index.upsert(IDS[*id], t.clone(), 1.0).unwrap();
        } else if let Some((id, d)) = delta(op, index.table(IDS[*id_of(op)]).map(Table::num_rows)) {
            let _ = index.apply_delta(IDS[id], &d);
        } else if let Some(r) = request(op) {
            let mut session = ServeSession::new(index, SessionConfig::default());
            out.push(answer(&mut session, &r));
            index = session.into_index();
        }
    }
    out
}

/// The same stream through the actor-hosted path: deltas through the
/// maintenance actor, each request from its own session actor.
fn actor_answers(ops: &[Op], shards: usize) -> Vec<String> {
    let mut rt = Runtime::new(RuntimeConfig::default());
    let group = LakeActorGroup::host(&mut rt, LakeIndex::new(config(shards)));
    // table lengths, to pick delete rows the way the serial path does
    let mut lens: BTreeMap<usize, usize> = BTreeMap::new();
    let mut out = Vec::new();
    for (i, op) in ops.iter().enumerate() {
        if let Op::Upsert(id, t) = op {
            lens.insert(*id, t.num_rows());
            let (id, table, cost) = (IDS[*id].to_string(), t.clone(), 1.0);
            group
                .maint()
                .send(MaintMsg::Upsert { id, table, cost })
                .unwrap();
        } else if let Some((id, d)) = delta(op, lens.get(id_of(op)).copied()) {
            match &d {
                TableDelta::Append(rows) => {
                    if let Some(len) = lens.get_mut(&id) {
                        *len += rows.num_rows();
                    }
                }
                TableDelta::Delete(indices) => {
                    if let Some(len) = lens.get_mut(&id) {
                        *len -= indices.len();
                    }
                }
                TableDelta::Drop => {
                    lens.remove(&id);
                }
            }
            let id = IDS[id].to_string();
            group
                .maint()
                .send(MaintMsg::Delta { id, delta: d })
                .unwrap();
        } else if let Some(r) = request(op) {
            rt.run_until_idle();
            let s = group.spawn_session(&mut rt, &format!("s{i}"), SessionConfig::default());
            s.send(SessionMsg::Submit(vec![r])).unwrap();
            rt.run_until_idle();
            let actor = rt.actor::<SessionActor>(s.id()).unwrap();
            out.push(format!("{:?}", actor.completed()[0].responses));
        }
        rt.run_until_idle();
    }
    out
}

fn id_of(op: &Op) -> &usize {
    match op {
        Op::Upsert(id, _) | Op::Append(id, _) | Op::Delete(id, _) | Op::Drop(id) => id,
        Op::Coverage(id, _, _) => id,
        Op::Tailor(sources, _, _) => &sources[0],
    }
}

/// The answers a fresh index over the current tables gives.
fn reference_answers(ops: &[Op]) -> Vec<String> {
    let mut tables: BTreeMap<usize, Table> = BTreeMap::new();
    let mut out = Vec::new();
    for op in ops {
        match op {
            Op::Upsert(id, t) => {
                tables.insert(*id, t.clone());
            }
            Op::Append(id, rows) => {
                if let Some(t) = tables.get_mut(id) {
                    t.append(rows).unwrap();
                }
            }
            Op::Delete(id, picks) => {
                if let Some(t) = tables.get_mut(id) {
                    t.delete_rows(&delete_indices(picks, t.num_rows())).unwrap();
                }
            }
            Op::Drop(id) => {
                tables.remove(id);
            }
            _ => {}
        }
        if let Some(r) = request(op) {
            out.push(fresh_answer(&tables, &r));
        }
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn served_answers_equal_a_fresh_index_after_any_history(ops in arb_stream()) {
        let want = reference_answers(&ops);
        for shards in [1, 3, 8] {
            prop_assert_eq!(&serial_answers(&ops, shards), &want, "{} shards", shards);
        }
        prop_assert_eq!(&actor_answers(&ops, 3), &want, "actor path");
    }
}
