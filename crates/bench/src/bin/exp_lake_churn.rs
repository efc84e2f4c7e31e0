//! E20: incremental lake-index maintenance under churn (`rdi-serve`).
//!
//! Replays a seeded register/append/delete/drop stream
//! (`rdi_datagen::churn`) over a sharded [`LakeIndex`] and proves —
//! on a single CPU, by **work counters, not wall-clock** — that the
//! warm path does O(delta) sketch work, not O(table):
//!
//! * after every event, every query type (union, joinability,
//!   coverage, tailoring) answers **bitwise identically** on the
//!   incrementally-maintained index and on a cold index rebuilt from
//!   scratch over the same content;
//! * each append/delete does exactly `rows × maintained columns`
//!   incremental updates (`sketch.incremental_updates`; the union
//!   signature and the join profile share each column's sketch) and
//!   `sketch.rebuilds` stays **zero** until a table's deletion debt
//!   crosses `deletion_debt_threshold`, at which point exactly one
//!   counted rebuild per maintained sketch resets the debt;
//! * an [`UpdatableKmv`] absorbing the same stream stays bitwise
//!   identical to a cold `KmvSketch::build` at every step; and
//! * under a deliberately tiny byte budget, a stream of distinct ad-hoc
//!   queries makes the per-shard query caches evict
//!   (`serve.cache.evictions` / `serve.cache.evicted_bytes`) instead
//!   of overflowing. Registered tables' sketches live in their
//!   maintained stores, outside that budget.

use std::collections::BTreeMap;

use rdi_bench::{emit_metrics_snapshot, print_table};
use rdi_datagen::churn::{churn_workload, ChurnConfig, ChurnEvent};
use rdi_discovery::{KmvSketch, UpdatableKmv};
use rdi_serve::{
    render_answer, LakeIndex, LakeIndexConfig, ServeRequest, ServeSession, SessionConfig,
};
use rdi_table::{GroupKey, GroupSpec, Table, TableDelta, Value};
use rdi_tailor::DtProblem;

const SEED: u64 = 2006;
/// Low on purpose so the stream crosses it a few times.
const DEBT_THRESHOLD: u64 = 12;
/// Column sketches maintained per table: `key` and `val`, read by the
/// union signature and (`key`) the join profile alike, each counting
/// one incremental update per row.
const MAINTAINED_COLS: u64 = 2;
/// Sketch kinds maintained per table (the union signature and the join
/// profile on `key`), each counting one rebuild per debt crossing.
const MAINTAINED_SKETCHES: u64 = 2;

fn counter(name: &str) -> u64 {
    rdi_obs::counter(name).get()
}

fn index_config() -> LakeIndexConfig {
    LakeIndexConfig {
        deletion_debt_threshold: DEBT_THRESHOLD,
        ..LakeIndexConfig::default()
    }
}

/// A query batch covering every request type, aimed at the
/// lexicographically-first live table.
fn probe_batch(query: &Table, target: &str) -> Vec<ServeRequest> {
    let problem = DtProblem::exact_counts(
        GroupSpec::new(vec!["key"]),
        vec![
            (GroupKey(vec![Value::str("k00007")]), 2),
            (GroupKey(vec![Value::str("k00042")]), 2),
        ],
    );
    vec![
        ServeRequest::UnionTopK {
            query: query.clone(),
            k: 3,
        },
        ServeRequest::JoinableTopK {
            query: query.clone(),
            column: "key".into(),
            k: 3,
        },
        ServeRequest::CoverageProbe {
            table: target.into(),
            attributes: vec!["key".into()],
            threshold: 2,
        },
        ServeRequest::TailorRun {
            problem,
            sources: vec![target.into()],
            max_draws: 500,
        },
    ]
}

/// Submit the batch through a *fresh* session (arrival counter at 0,
/// so both indexes consume identical per-request RNG streams) and
/// hand the index back.
fn probe(index: LakeIndex, batch: &[ServeRequest]) -> (LakeIndex, Vec<String>) {
    let mut session = ServeSession::new(
        index,
        SessionConfig {
            seed: SEED,
            ..SessionConfig::default()
        },
    );
    let report = session.submit_batch(batch);
    let fps = report.responses.iter().map(render_answer).collect();
    (session.into_index(), fps)
}

/// Cold reference: a fresh index over the mirror's current content —
/// every sketch rebuilt from the full tables.
fn cold_index(mirror: &BTreeMap<String, (Table, f64)>) -> LakeIndex {
    let mut index = LakeIndex::new(index_config());
    for (id, (t, cost)) in mirror {
        index.register(id.clone(), t.clone(), *cost).unwrap();
    }
    index
}

fn main() {
    // Span tick totals under RDI_FAKE_CLOCK depend on thread
    // interleaving; pin serial execution when the caller hasn't chosen
    // so the golden stays byte-stable. Answers are thread-invariant
    // regardless (tests/churn_determinism.rs sweeps 1/2/8 threads).
    if std::env::var_os("RDI_THREADS").is_none() {
        std::env::set_var("RDI_THREADS", "1");
    }

    let workload = churn_workload(
        &ChurnConfig {
            num_tables: 6,
            events: 64,
            initial_rows: 160,
            ..ChurnConfig::default()
        },
        SEED,
    );

    // --- 1. replay: incremental index vs per-event cold rebuild ---
    let mut index = LakeIndex::new(index_config());
    let mut mirror: BTreeMap<String, (Table, f64)> = BTreeMap::new();
    for (id, t) in &workload.tables {
        index.register(id.clone(), t.clone(), 1.0).unwrap();
        mirror.insert(id.clone(), (t.clone(), 1.0));
    }
    // Warm every sketch once so maintenance starts before the churn.
    // The probe query is itself a one-table churn lake from a disjoint
    // seed — same schema, overlapping key pool.
    let query = churn_workload(
        &ChurnConfig {
            num_tables: 1,
            events: 0,
            initial_rows: 60,
            ..ChurnConfig::default()
        },
        SEED ^ 0xE20,
    )
    .tables
    .remove(0)
    .1;
    let warm_batch = probe_batch(&query, "t00");
    let (warmed, _) = probe(index, &warm_batch);
    index = warmed;

    // Predicted per-table deletion debt, mirroring the index's policy.
    let mut debt: BTreeMap<String, u64> = mirror.keys().map(|k| (k.clone(), 0)).collect();
    let mut kind_counts: BTreeMap<&str, usize> = BTreeMap::new();
    let mut crossings = 0u64;
    let mut first_crossing: Option<usize> = None;
    let mut rebuilds_before_crossing = 0u64;
    let rebuilds_0 = counter("sketch.rebuilds");

    for (i, ev) in workload.events.iter().enumerate() {
        *kind_counts.entry(ev.kind()).or_default() += 1;
        let iu_0 = counter("sketch.incremental_updates");
        let ra_0 = counter("serve.delta.rows_applied");
        let rb_0 = counter("sketch.rebuilds");

        // Expected exact counter deltas for this one event.
        let (exp_rows, exp_iu, exp_rb) = match ev {
            ChurnEvent::Register { id, table, cost } => {
                index.register(id.clone(), table.clone(), *cost).unwrap();
                mirror.insert(id.clone(), (table.clone(), *cost));
                debt.insert(id.clone(), 0);
                (0, 0, 0)
            }
            ChurnEvent::Delta { id, delta } => {
                let touched = index.apply_delta(id, delta).unwrap();
                let n = touched as u64;
                match delta {
                    TableDelta::Append(rows) => {
                        mirror.get_mut(id).unwrap().0.append(rows).unwrap();
                        (n, n * MAINTAINED_COLS, 0)
                    }
                    TableDelta::Delete(idx) => {
                        mirror.get_mut(id).unwrap().0.delete_rows(idx).unwrap();
                        let d = debt.get_mut(id).unwrap();
                        *d += n;
                        if *d > DEBT_THRESHOLD {
                            *d = 0;
                            crossings += 1;
                            if first_crossing.is_none() {
                                first_crossing = Some(i);
                                rebuilds_before_crossing = rb_0 - rebuilds_0;
                            }
                            // one counted rebuild per maintained sketch
                            (n, 0, MAINTAINED_SKETCHES)
                        } else {
                            (n, n * MAINTAINED_COLS, 0)
                        }
                    }
                    TableDelta::Drop => {
                        mirror.remove(id);
                        debt.remove(id);
                        (0, 0, 0)
                    }
                }
            }
        };
        let kind = ev.kind();
        assert_eq!(
            counter("serve.delta.rows_applied") - ra_0,
            exp_rows,
            "event {i} ({kind}): rows applied"
        );
        assert_eq!(
            counter("sketch.incremental_updates") - iu_0,
            exp_iu,
            "event {i} ({kind}): warm-path work must be O(delta rows)"
        );
        assert_eq!(
            counter("sketch.rebuilds") - rb_0,
            exp_rb,
            "event {i} ({kind}): rebuilds only when debt crosses {DEBT_THRESHOLD}"
        );

        // Every query type, incremental vs cold-rebuilt, bit for bit.
        let target = mirror.keys().next().unwrap().clone();
        let batch = probe_batch(&query, &target);
        let (warm, inc_fp) = probe(index, &batch);
        index = warm;
        let (_, cold_fp) = probe(cold_index(&mirror), &batch);
        assert_eq!(
            inc_fp, cold_fp,
            "event {i} ({kind}): incremental answers diverged from cold rebuild"
        );
    }

    let rebuilds_total = counter("sketch.rebuilds") - rebuilds_0;
    assert!(crossings > 0, "stream never crossed the debt threshold");
    assert_eq!(
        rebuilds_before_crossing, 0,
        "no rebuilds before the first crossing"
    );
    assert_eq!(
        rebuilds_total,
        crossings * MAINTAINED_SKETCHES,
        "exactly one counted rebuild per maintained sketch per crossing"
    );
    let first = first_crossing.unwrap();
    print_table(
        &format!(
            "E20: {} churn events over {} initial tables (debt threshold {DEBT_THRESHOLD})",
            workload.events.len(),
            workload.tables.len()
        ),
        &["event kind", "count"],
        &kind_counts
            .iter()
            .map(|(k, v)| vec![k.to_string(), v.to_string()])
            .collect::<Vec<_>>(),
    );
    print_table(
        "E20b: warm-path work is O(delta), proven by counters",
        &["measure", "value"],
        &[
            vec![
                "rebuilds before first debt crossing".into(),
                format!("0 (first crossing at event {first})"),
            ],
            vec!["debt crossings".into(), crossings.to_string()],
            vec![
                "sketch.rebuilds (2 sketches/table)".into(),
                rebuilds_total.to_string(),
            ],
            vec![
                "incremental vs cold-rebuilt answers".into(),
                format!(
                    "bitwise identical for {} events x {} query types",
                    workload.events.len(),
                    4
                ),
            ],
        ],
    );

    // --- 2. shard layout: pure function of the id bytes ---
    let counts = index.shard_table_counts();
    let caps = index.shard_cache_capacities();
    assert_eq!(
        caps.iter().sum::<usize>(),
        index.config().cache_capacity_bytes,
        "per-shard capacities must partition the global budget"
    );
    print_table(
        "E20c: shard layout after churn (assignment = hash(id) % shards)",
        &["shard", "tables", "cache capacity (bytes)"],
        &counts
            .iter()
            .zip(&caps)
            .enumerate()
            .map(|(i, (t, c))| vec![i.to_string(), t.to_string(), c.to_string()])
            .collect::<Vec<_>>(),
    );

    // --- 3. UpdatableKmv absorbing the same stream, vs cold builds ---
    let kmv_id = "t00";
    let mut kmv_mirror = workload.tables[0].1.clone();
    let mut kmv =
        UpdatableKmv::build(&kmv_mirror, "key", Some("val"), 24, 8, DEBT_THRESHOLD).unwrap();
    let (mut absorbed, mut kmv_rebuilds) = (0u64, 0u64);
    for ev in &workload.events {
        let ChurnEvent::Delta { id, delta } = ev else {
            continue;
        };
        if id != kmv_id {
            continue;
        }
        match delta {
            TableDelta::Append(rows) => {
                let keys = rows.column("key").unwrap();
                let vals = rows.column("val").unwrap();
                for ri in 0..rows.num_rows() {
                    kmv.append_row(&keys.value(ri), Some(&vals.value(ri)));
                    absorbed += 1;
                }
                kmv_mirror.append(rows).unwrap();
            }
            TableDelta::Delete(idx) => {
                let removed = kmv_mirror.delete_rows(idx).unwrap();
                let keys = removed.column("key").unwrap();
                for ri in 0..removed.num_rows() {
                    kmv.delete_row(&keys.value(ri));
                    absorbed += 1;
                }
                if kmv.needs_rebuild() {
                    kmv.rebuild(&kmv_mirror, "key", Some("val")).unwrap();
                    kmv_rebuilds += 1;
                }
            }
            TableDelta::Drop => break,
        }
        let cold = KmvSketch::build(&kmv_mirror, "key", Some("val"), 24).unwrap();
        let live = kmv.sketch();
        assert_eq!(live.len(), cold.len(), "kmv: retained key count");
        for (a, b) in live.entries().iter().zip(cold.entries()) {
            assert_eq!(a.0.to_bits(), b.0.to_bits(), "kmv: unit hash");
            assert_eq!(a.1, b.1, "kmv: key");
            assert_eq!(a.2.to_bits(), b.2.to_bits(), "kmv: mean payload");
        }
    }
    assert!(absorbed > 0, "the stream never touched {kmv_id}");
    print_table(
        "E20d: UpdatableKmv (correlation sketch) vs cold KmvSketch::build",
        &["measure", "value"],
        &[
            vec!["rows absorbed".into(), absorbed.to_string()],
            vec!["debt-triggered rebuilds".into(), kmv_rebuilds.to_string()],
            vec![
                "entries after every event".into(),
                "bitwise identical".into(),
            ],
            vec![
                "distinct estimate".into(),
                format!("{:.1}", kmv.sketch().distinct_estimate()),
            ],
        ],
    );

    // --- 4. tiny byte budget: caches evict instead of overflowing ---
    // Six distinct queries (the probe's first 60, 50, 40, 30, 20 and
    // 10 rows) through a 2 KiB per-shard slice, which holds two
    // queries' union signatures and join profiles.
    let ev_0 = counter("serve.cache.evictions");
    let evb_0 = counter("serve.cache.evicted_bytes");
    let mut tiny = LakeIndex::new(LakeIndexConfig {
        minhash_k: 32,
        cache_capacity_bytes: 4096,
        shard_count: 2,
        deletion_debt_threshold: DEBT_THRESHOLD,
    });
    for (id, (t, cost)) in &mirror {
        tiny.register(id.clone(), t.clone(), *cost).unwrap();
    }
    for rows in [60, 50, 40, 30, 20, 10] {
        let q = query.take(&(0..rows).collect::<Vec<_>>());
        tiny.union_top_k(&q, 3).unwrap();
        tiny.joinable_top_k(&q, "key", 3).unwrap();
    }
    let evictions = counter("serve.cache.evictions") - ev_0;
    let evicted_bytes = counter("serve.cache.evicted_bytes") - evb_0;
    assert!(evictions > 0, "4 KiB budget must evict");
    assert!(evicted_bytes > 0, "evictions must account their bytes");
    assert!(
        tiny.cache_bytes() <= 4096,
        "cache bytes within the global budget"
    );
    print_table(
        "E20e: eviction under a 4 KiB budget (capacity pressure, not churn)",
        &["measure", "value"],
        &[
            vec!["serve.cache.evictions".into(), evictions.to_string()],
            vec![
                "serve.cache.evicted_bytes".into(),
                evicted_bytes.to_string(),
            ],
            vec![
                "resident bytes / budget".into(),
                format!("{} / 4096", tiny.cache_bytes()),
            ],
        ],
    );

    emit_metrics_snapshot();
}
