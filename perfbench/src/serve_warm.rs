//! `serve_warm`: a serial `ServeSession` replaying a seeded `sessions`
//! stream (all four request kinds, no poison) over a warm lake.
//!
//! Set-up builds the index and serves the stream once cold; the timed
//! phase replays it in fresh sessions over the warm index, so every
//! replay must answer bitwise like the cold pass.

use std::time::Instant;

use rdi_datagen::{session_workload, SessionOp, SessionWorkloadConfig};
use rdi_par::Threads;
use rdi_serve::{
    AdmitConfig, LakeIndexConfig, ServeRequest, ServeSession, SessionConfig, TenantId,
};

use crate::common::{
    all_same, build_index, more_setups, same_bits, to_request, Answer, Counters, Outcome, Probe,
};
use crate::sys::{peak_rss_mb, Meter};
use crate::trace::Trace;

const TENANTS: &[&str] = &["default"];

/// One-at-a-time timings use the stream's first this many requests.
const SINGLES: usize = 2000;

/// The seeded stream: 48 tables of 400 rows (their sketches fit the
/// default 4 MiB cache), up to 16 requests per batch, top-5.
fn workload_config(batches: usize) -> SessionWorkloadConfig {
    SessionWorkloadConfig {
        num_tables: 48,
        rows_per_table: 400,
        key_pool: 400,
        num_sessions: 1,
        batches_per_session: batches,
        requests_per_batch_max: 16,
        top_k: 5,
        poison_rate: 0.0,
    }
}

/// Run `serve_warm`: a stream of `steps` batches, served cold in set-up
/// and replayed warm `passes` times.
pub fn run(
    seed: u64,
    steps: usize,
    passes: usize,
    setups: usize,
    threads: usize,
    mut trace: Trace,
) -> Result<Outcome, String> {
    let w = session_workload(&workload_config(steps.max(1)), seed);
    let ops = &w.sessions[0].batches;
    let batches: Vec<Vec<ServeRequest>> = ops
        .iter()
        .map(|b| b.iter().map(to_request).collect())
        .collect();
    let config = SessionConfig {
        threads: Threads::fixed(threads),
        seed: crate::SESSION_SEED,
        ..SessionConfig::default()
    };
    let mut out = Outcome::default();

    // Set-up: build, register, serve the stream cold. Repeated so the
    // reported set-up time is a median; every repetition must count
    // and answer exactly like the first.
    let mut cold: Vec<Vec<Answer>> = Vec::new();
    let mut setup_counters: Option<Counters> = None;
    let mut index = None;
    while more_setups(&out.setup_s, setups) {
        let tables = w.tables.clone();
        let before = Counters::read(TENANTS);
        let t0 = Instant::now();
        let mut session =
            ServeSession::new(build_index(LakeIndexConfig::default(), tables)?, config);
        let answers: Vec<Vec<Answer>> = batches
            .iter()
            .map(|b| session.submit_batch(b).responses)
            .collect();
        let warm = session.into_index();
        out.setup_s.push(t0.elapsed().as_secs_f64());
        let counted = Counters::read(TENANTS).since(&before);
        if setup_counters.as_ref().is_some_and(|c| *c != counted) {
            out.errors
                .push("set-up counters differ between repetitions".into());
        }
        if !cold.is_empty() && !all_same(&cold, &answers) {
            out.errors.push("cold passes answer differently".into());
        }
        setup_counters = Some(counted);
        cold = answers;
        index = Some(warm);
    }
    let mut index = index.ok_or("no set-up ran")?;

    // Timed: each pass is a fresh session over the warm index, so it
    // replays the cold pass's per-request RNG streams.
    let mut mismatches = 0u64;
    for pass in 0..passes.max(1) {
        let mut session = ServeSession::new(index, config);
        let mut meter = Meter::default();
        out.begin_pass();
        let before = out.resume(&mut meter, TENANTS)?;
        for (bi, (batch, expected)) in batches.iter().zip(&cold).enumerate() {
            let step = (pass * batches.len() + bi) as u64;
            let whole = trace.enter("step", step);
            let t0 = Instant::now();
            let call = trace.enter("serve.session.submit_batch", step);
            let report = session.submit_batch(batch);
            trace.exit(call);
            out.step(t0.elapsed().as_secs_f64() * 1e3, &mut meter)?;
            for (got, want) in report.responses.iter().zip(expected) {
                out.attempted += 1;
                match got {
                    Ok(_) => out.ok += 1,
                    Err(_) => out.failed += 1,
                }
                mismatches += u64::from(!same_bits(got, want));
            }
            trace.exit(whole);
        }
        out.pause(&mut meter, before, TENANTS)?;
        out.end_pass(&meter);
        index = session.into_index();
    }
    out.peak_rss_mb = peak_rss_mb()?;
    if mismatches > 0 {
        out.errors.push(format!(
            "{mismatches} warm answers differ from the cold pass"
        ));
    }

    let queries = ops
        .iter()
        .flatten()
        .filter_map(|op| match op {
            SessionOp::Union { query, .. } | SessionOp::Joinable { query, .. } => {
                Some(query.clone())
            }
            _ => None,
        })
        .collect();
    let requests: usize = batches.iter().map(Vec::len).sum();
    out.probe = Probe {
        index: Some(index),
        singles: batches.iter().flatten().take(SINGLES).cloned().collect(),
        singles_expected: Some(cold.into_iter().flatten().take(SINGLES).collect()),
        admit: Some((
            AdmitConfig::from_session(&config),
            batches
                .iter()
                .map(|b| vec![TenantId::default(); b.len()])
                .collect(),
        )),
        tables: w.tables,
        queries,
        batch_len: requests.div_ceil(batches.len()),
    };
    out.trace = trace;
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_seed_repeats_and_another_differs() {
        let inputs = |seed| format!("{:?}", session_workload(&workload_config(20), seed));
        assert_eq!(inputs(1), inputs(1));
        assert_ne!(inputs(1), inputs(2));
        let out = crate::tests::repeats(run, 1, 20);
        assert!(out.ok > 0 && out.failed == 0);
    }
}
