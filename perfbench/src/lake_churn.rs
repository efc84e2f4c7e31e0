//! `lake_churn`: seeded `churn` streams of register/append/delete/drop
//! events, each followed by a small union + join batch, over a lake whose
//! sketch working set is far above the cache budget.
//!
//! A run is a sequence of epochs, each a churn stream of its own over a
//! freshly registered lake. The generator drops tables more often than it
//! registers them, so one long stream would shrink the lake by a
//! seed-dependent amount and with it the cost of every query; short
//! epochs keep the lake near its initial size on every seed. At the end
//! of each epoch the step's answers must equal those of an index rebuilt
//! from scratch over the same tables.

use std::time::Instant;

use rdi_datagen::{churn_workload, ChurnConfig, ChurnEvent, ChurnWorkload};
use rdi_par::{stream_seed, Threads};
use rdi_serve::{
    AdmitConfig, LakeIndexConfig, ServeRequest, ServeSession, SessionConfig, TenantId,
};
use rdi_table::{Table, TableDelta};

use crate::common::{build_index, more_setups, same_answers, Answer, Counters, Outcome};
use crate::sys::{peak_rss_mb, Meter};
use crate::trace::Trace;

const TENANTS: &[&str] = &["default"];

/// Events per epoch.
const EPOCH_EVENTS: usize = 250;

/// One-at-a-time timings use the first this many query batches.
const SINGLE_BATCHES: usize = 200;

/// 160 tables of 600 rows; appends and deletes of up to 48 rows.
fn churn_config(events: usize) -> ChurnConfig {
    ChurnConfig {
        num_tables: 160,
        events,
        initial_rows: 600,
        append_rows_max: 48,
        delete_rows_max: 48,
        key_pool: 2000,
    }
}

/// A 64 KiB cache, far below the lake's sketch working set, so lookups
/// evict; a deletion-debt threshold of 32 rows, so maintained sketches
/// are rebuilt within every epoch.
fn index_config() -> LakeIndexConfig {
    LakeIndexConfig {
        cache_capacity_bytes: 64 << 10,
        deletion_debt_threshold: 32,
        ..LakeIndexConfig::default()
    }
}

/// One epoch's inputs: the churn stream, one query batch per event, and
/// the set-up query batch.
struct Epoch {
    churn: ChurnWorkload,
    batches: Vec<Vec<ServeRequest>>,
    warmup: Vec<ServeRequest>,
}

/// Epoch `e` draws its stream from `stream_seed(seed, 2e)` and its
/// ad-hoc query tables (8 rows over the same key pool, the initial
/// tables of a second churn workload) from `stream_seed(seed, 2e + 1)`.
fn epoch(seed: u64, e: usize, events: usize) -> Epoch {
    let churn = churn_workload(&churn_config(events), stream_seed(seed, 2 * e as u64));
    let queries = ChurnConfig {
        num_tables: events + 1,
        events: 0,
        initial_rows: 8,
        ..churn_config(0)
    };
    let mut batches: Vec<Vec<ServeRequest>> =
        churn_workload(&queries, stream_seed(seed, 2 * e as u64 + 1))
            .tables
            .iter()
            .map(|(_, q)| query_batch(q))
            .collect();
    let warmup = batches.pop().unwrap_or_default();
    Epoch {
        churn,
        batches,
        warmup,
    }
}

fn query_batch(q: &Table) -> Vec<ServeRequest> {
    vec![
        ServeRequest::UnionTopK {
            query: q.clone(),
            k: 5,
        },
        ServeRequest::JoinableTopK {
            query: q.clone(),
            column: "key".into(),
            k: 5,
        },
    ]
}

/// Set-up of one epoch: build, register, one cold union + join pass that
/// sketches every table.
fn set_up(epoch: &Epoch, config: SessionConfig) -> Result<ServeSession, String> {
    let mut session = ServeSession::new(
        build_index(index_config(), epoch.churn.tables.clone())?,
        config,
    );
    let warm = session.submit_batch(&epoch.warmup);
    if warm.responses.iter().any(Result::is_err) {
        return Err("cold pass failed".into());
    }
    Ok(session)
}

/// Run `lake_churn`: `steps` events in epochs of [`EPOCH_EVENTS`], all
/// replayed `passes` times from their set-up state.
pub fn run(
    seed: u64,
    steps: usize,
    passes: usize,
    setups: usize,
    threads: usize,
    mut trace: Trace,
) -> Result<Outcome, String> {
    let steps = steps.max(1);
    let config = SessionConfig {
        threads: Threads::fixed(threads),
        seed: crate::SESSION_SEED,
        ..SessionConfig::default()
    };
    let mut out = Outcome::default();
    // The first pass's answers; later passes must repeat them.
    let mut first_answers: Vec<Vec<Answer>> = Vec::new();
    let mut mismatches = 0usize;
    let mut step = 0u64;

    for pass in 0..passes.max(1) {
        let mut meter = Meter::default();
        out.begin_pass();
        for e in 0..steps.div_ceil(EPOCH_EVENTS) {
            let mut inputs = epoch(seed, e, EPOCH_EVENTS.min(steps - e * EPOCH_EVENTS));
            // The first epoch's first set-up is the measured one, repeated
            // for a median; other set-ups run untimed. Every repetition
            // must count alike.
            let measured = pass == 0 && e == 0;
            let mut session = None;
            let mut setup_counters: Option<Counters> = None;
            let mut times = Vec::new();
            while more_setups(&times, if measured { setups } else { 1 }) {
                let before = Counters::read(TENANTS);
                let t0 = Instant::now();
                let s = set_up(&inputs, config)?;
                times.push(t0.elapsed().as_secs_f64());
                let counted = Counters::read(TENANTS).since(&before);
                if setup_counters.as_ref().is_some_and(|c| *c != counted) {
                    out.errors
                        .push("set-up counters differ between repetitions".into());
                }
                setup_counters = Some(counted);
                session = Some(s);
            }
            if measured {
                out.setup_s = times;
            }
            let mut session = session.ok_or("no set-up ran")?;

            let events = std::mem::take(&mut inputs.churn.events);
            let before = out.resume(&mut meter, TENANTS)?;
            for (i, (event, batch)) in events.into_iter().zip(&inputs.batches).enumerate() {
                let whole = trace.enter("step", step);
                let t0 = Instant::now();
                let applied = match event {
                    ChurnEvent::Register { id, table, cost } => {
                        let call = trace.enter("serve.index.upsert", step);
                        let r = session.index_mut().register(id, table, cost);
                        trace.exit(call);
                        r.map(|_| ())
                    }
                    ChurnEvent::Delta { id, delta } => {
                        let name = match delta {
                            TableDelta::Append(_) => "serve.index.apply_delta.append",
                            TableDelta::Delete(_) => "serve.index.apply_delta.delete",
                            TableDelta::Drop => "serve.index.apply_delta.drop",
                        };
                        let call = trace.enter(name, step);
                        let r = session.index_mut().apply_delta(&id, &delta);
                        trace.exit(call);
                        r.map(|_| ())
                    }
                };
                let call = trace.enter("serve.session.submit_batch", step);
                let report = session.submit_batch(batch);
                trace.exit(call);
                out.step(t0.elapsed().as_secs_f64() * 1e3, &mut meter)?;

                out.attempted += 1 + report.responses.len() as u64;
                out.deltas += 1;
                let answered = report.responses.iter().filter(|r| r.is_ok()).count() as u64;
                out.ok += u64::from(applied.is_ok()) + answered;
                out.failed +=
                    u64::from(applied.is_err()) + report.responses.len() as u64 - answered;
                if pass == 0 {
                    first_answers.push(report.responses);
                } else if !first_answers
                    .get(e * EPOCH_EVENTS + i)
                    .is_some_and(|a| same_answers(a, &report.responses))
                {
                    mismatches += 1;
                }
                trace.exit(whole);
                step += 1;
            }
            out.pause(&mut meter, before, TENANTS)?;
            if pass == 0 {
                if let (Some(batch), Some(got)) = (inputs.batches.last(), first_answers.last()) {
                    if let Err(err) = check_against_rebuild(&session, batch, got) {
                        out.errors.push(format!("epoch {e}: {err}"));
                    }
                }
                if e == 0 {
                    out.probe.index = Some(session.into_index());
                    probe_inputs(&mut out, inputs, config);
                }
            }
        }
        out.end_pass(&meter);
    }
    out.peak_rss_mb = peak_rss_mb()?;
    if mismatches > 0 {
        out.errors
            .push(format!("{mismatches} replayed steps answer differently"));
    }
    if out.counters.get("sketch.rebuilds") == 0 || out.counters.get("serve.cache.evictions") == 0 {
        out.errors
            .push("the stream must cause both deletion-debt rebuilds and evictions".into());
    }
    out.trace = trace;
    Ok(out)
}

/// Per-layer timings reuse the first epoch's lake and queries.
fn probe_inputs(out: &mut Outcome, first: Epoch, config: SessionConfig) {
    out.probe.singles = first
        .batches
        .iter()
        .take(SINGLE_BATCHES)
        .flatten()
        .cloned()
        .collect();
    out.probe.admit = Some((
        AdmitConfig::from_session(&config),
        first
            .batches
            .iter()
            .map(|b| vec![TenantId::default(); b.len()])
            .collect(),
    ));
    out.probe.queries = first
        .batches
        .iter()
        .filter_map(|b| match b.first() {
            Some(ServeRequest::UnionTopK { query, .. }) => Some(query.clone()),
            _ => None,
        })
        .collect();
    out.probe.tables = first.churn.tables;
    out.probe.batch_len = 2;
}

/// Serve `batch` from an index rebuilt over the session's current tables
/// and compare with the answers the maintained index gave.
fn check_against_rebuild(
    session: &ServeSession,
    batch: &[ServeRequest],
    got: &[Answer],
) -> Result<(), String> {
    let index = session.index();
    let tables: Vec<(String, Table)> = index
        .table_ids()
        .into_iter()
        .filter_map(|id| index.table(id).map(|t| (id.to_string(), t.clone())))
        .collect();
    let fresh = build_index(LakeIndexConfig::default(), tables)?;
    let want = ServeSession::new(fresh, *session.config()).submit_batch(batch);
    if same_answers(got, &want.responses) {
        Ok(())
    } else {
        Err("answers differ from a freshly rebuilt index".into())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_seed_repeats_and_another_differs() {
        let inputs = |seed| {
            let e = epoch(seed, 0, 20);
            (e.churn, format!("{:?}", e.batches))
        };
        assert_eq!(inputs(1), inputs(1));
        assert_ne!(inputs(1), inputs(2));
        // One whole epoch, so that rebuilds and evictions occur.
        let out = crate::tests::repeats(run, 1, EPOCH_EVENTS);
        assert!(out.counters.get("sketch.rebuilds") > 0);
    }
}
