//! `tenant_flood_actor`: a seeded `tenants` roster (two honest tenants,
//! a quota-limited flooder, a poisoner) served through a
//! `LakeActorGroup` and a `SessionActor` over a warm lake.
//!
//! Each closed-loop step submits one window with `SubmitTagged` and runs
//! the actor runtime to idle. The actor-path answers must equal a serial
//! `ServeSession` replay of the same windows.

use std::time::Instant;

use rdi_actor::{Addr, Runtime, RuntimeConfig};
use rdi_datagen::{tenant_workload, SessionOp, TenantSpec, TenantWorkload, TenantWorkloadConfig};
use rdi_par::Threads;
use rdi_serve::{
    AdmitConfig, LakeActorGroup, LakeIndex, LakeIndexConfig, ServeError, ServeRequest,
    ServeSession, SessionActor, SessionConfig, SessionMsg, TaggedRequest, TenantId, TenantPolicy,
};
use rdi_table::Table;

use crate::common::{
    all_same, build_index, is_shed, more_setups, to_request, Answer, Counters, Outcome, Probe,
};
use crate::sys::{peak_rss_mb, Meter};
use crate::trace::Trace;

const TENANTS: &[&str] = &["alice", "bob", "mallory", "petya"];
const POISONER: &str = "petya";

/// Windows served through a throwaway serial session to warm the lake.
const WARM_WINDOWS: usize = 16;

/// One-at-a-time timings use at most this many requests.
const SINGLES: usize = 400;

/// Actor scheduler seed.
const SCHEDULER_SEED: u64 = 17;

fn roster() -> Vec<TenantSpec> {
    vec![
        TenantSpec::honest("alice", 0, 2, 2),
        TenantSpec::honest("bob", 1, 2, 2),
        TenantSpec::flooder("mallory", 8, 1, 16).with_quota(2, 4),
        TenantSpec::poisoner(POISONER, 9, 1, 2),
    ]
}

/// The seeded windows over a 24-table lake.
fn inputs(seed: u64, windows: usize) -> TenantWorkload {
    tenant_workload(
        &TenantWorkloadConfig {
            num_tables: 24,
            rows_per_table: 200,
            key_pool: 300,
            windows: windows.max(1),
            top_k: 3,
            tenants: roster(),
        },
        seed,
    )
}

/// Capacity 8 shared by weight; breakers trip after 3 consecutive
/// failures and cool down for 4 ticks.
fn admit_config(config: &SessionConfig, specs: &[TenantSpec]) -> AdmitConfig {
    let mut admit = AdmitConfig::from_session(config);
    admit.queue_capacity = 8;
    admit.breaker_threshold = 3;
    admit.breaker_cooldown_ticks = 4;
    admit.with_tenants(
        specs
            .iter()
            .map(|s| {
                (
                    TenantId::new(&s.name),
                    TenantPolicy::limited(s.weight, s.quota_per_tick, s.burst),
                )
            })
            .collect(),
    )
}

/// Build the index and warm its table sketches with a throwaway serial
/// session over the first windows.
fn warm_index(
    tables: Vec<(String, Table)>,
    windows: &[Vec<TaggedRequest>],
    config: SessionConfig,
    admit: &AdmitConfig,
) -> Result<LakeIndex, String> {
    let index = build_index(LakeIndexConfig::default(), tables)?;
    let mut warm = ServeSession::with_admission(index, config, admit.clone());
    for w in windows.iter().take(WARM_WINDOWS) {
        warm.submit_batch_tagged(w);
    }
    Ok(warm.into_index())
}

/// A fresh actor runtime hosting `index`, with the flood session spawned.
fn host(
    index: LakeIndex,
    config: SessionConfig,
    admit: &AdmitConfig,
    threads: usize,
) -> (Runtime, LakeActorGroup, Addr<SessionMsg>) {
    let mut rt = Runtime::new(RuntimeConfig {
        seed: SCHEDULER_SEED,
        latency_spread: 4,
        threads: Threads::fixed(threads),
    });
    let group = LakeActorGroup::host(&mut rt, index);
    let addr = group.spawn_session_with_admission(&mut rt, "flood", config, admit.clone());
    (rt, group, addr)
}

/// Run `tenant_flood_actor`: `steps` windows, replayed `passes` times,
/// each pass on a freshly warmed and hosted lake.
pub fn run(
    seed: u64,
    steps: usize,
    passes: usize,
    setups: usize,
    threads: usize,
    mut trace: Trace,
) -> Result<Outcome, String> {
    let specs = roster();
    let workload = inputs(seed, steps);
    let windows: Vec<Vec<TaggedRequest>> = workload
        .windows
        .iter()
        .map(|w| {
            w.iter()
                .map(|(t, op)| to_request(op).tagged(TenantId::new(t.clone())))
                .collect()
        })
        .collect();
    let tenants: Vec<Vec<TenantId>> = windows
        .iter()
        .map(|w| w.iter().map(|r| r.tenant.clone()).collect())
        .collect();
    let config = SessionConfig {
        threads: Threads::fixed(threads),
        seed: crate::SESSION_SEED,
        ..SessionConfig::default()
    };
    let admit = admit_config(&config, &specs);
    let mut out = Outcome::default();
    let mut first: Vec<Vec<Answer>> = Vec::new();

    for pass in 0..passes.max(1) {
        // Set-up: build, register, warm, host the group, spawn the
        // session. The first pass's set-up is measured, repeated for a
        // median; every repetition must count alike.
        let mut setup_counters: Option<Counters> = None;
        let mut hosted = None;
        let mut times = Vec::new();
        while more_setups(&times, if pass == 0 { setups } else { 1 }) {
            let tables = workload.tables.clone();
            let before = Counters::read(TENANTS);
            let t0 = Instant::now();
            let index = warm_index(tables, &windows, config, &admit)?;
            let h = host(index, config, &admit, threads);
            times.push(t0.elapsed().as_secs_f64());
            let counted = Counters::read(TENANTS).since(&before);
            if setup_counters.as_ref().is_some_and(|c| *c != counted) {
                out.errors
                    .push("set-up counters differ between repetitions".into());
            }
            setup_counters = Some(counted);
            hosted = Some(h);
        }
        if pass == 0 {
            out.setup_s = times;
        }
        let (mut rt, group, addr) = hosted.ok_or("no set-up ran")?;

        let sends = windows.clone();
        let mut meter = Meter::default();
        out.begin_pass();
        let before = out.resume(&mut meter, TENANTS)?;
        for (i, (window, who)) in sends.into_iter().zip(&tenants).enumerate() {
            let step = (pass * windows.len() + i) as u64;
            let whole = trace.enter("step", step);
            let t0 = Instant::now();
            let call = trace.enter("actor.send", step);
            let sent = addr.send(SessionMsg::SubmitTagged(window));
            trace.exit(call);
            sent.map_err(|e| format!("send: {e}"))?;
            loop {
                let call = trace.enter("actor.step", step);
                let delivered = rt.step();
                trace.exit(call);
                if delivered == 0 {
                    break;
                }
            }
            out.step(t0.elapsed().as_secs_f64() * 1e3, &mut meter)?;
            let actor = rt
                .actor::<SessionActor>(addr.id())
                .ok_or("session actor missing")?;
            let report = actor.completed().last().ok_or("window not completed")?;
            for (answer, tenant) in report.responses.iter().zip(who) {
                out.attempted += 1;
                match answer {
                    Ok(_) => out.ok += 1,
                    Err(e) if is_shed(e) => out.refused += 1,
                    Err(ServeError::UnknownTable(_)) if tenant.name() == POISONER => {
                        out.refused += 1
                    }
                    Err(_) => out.failed += 1,
                }
            }
            trace.exit(whole);
        }
        out.pause(&mut meter, before, TENANTS)?;
        out.end_pass(&meter);
        if rt.delivery_errors() > 0 {
            out.errors
                .push(format!("{} dead letters", rt.delivery_errors()));
        }
        let answers: Vec<Vec<Answer>> = rt
            .take::<SessionActor>(addr.id())
            .ok_or("session actor missing")?
            .completed()
            .iter()
            .map(|r| r.responses.clone())
            .collect();
        if pass == 0 {
            out.layer.insert(
                "actor.event_log_entries_per_window",
                rt.event_log().len() as f64 / windows.len() as f64,
            );
            first = answers;
        } else if !all_same(&first, &answers) {
            out.errors
                .push(format!("pass {pass} answers differently from pass 0"));
        }
        drop((rt, group));
    }
    out.peak_rss_mb = peak_rss_mb()?;

    // Check: a serial session over an identically warmed index answers
    // every window bitwise like the actor path.
    let index = warm_index(workload.tables.clone(), &windows, config, &admit)?;
    let mut serial = ServeSession::with_admission(index, config, admit.clone());
    let mut serial_ms = 0.0;
    let mut want = Vec::with_capacity(windows.len());
    for window in &windows {
        let t0 = Instant::now();
        want.push(serial.submit_batch_tagged(window).responses);
        serial_ms += t0.elapsed().as_secs_f64() * 1e3;
    }
    if !all_same(&first, &want) {
        out.errors
            .push("actor path differs from the serial replay".into());
    }
    let actor_ms: f64 = out.step_ms.first().map_or(0.0, |p| p.iter().sum());
    out.layer
        .insert("serve.actors.overhead_frac", 1.0 - serial_ms / actor_ms);

    let singles: Vec<ServeRequest> = workload
        .windows
        .iter()
        .flatten()
        .filter(|(t, _)| t != POISONER)
        .map(|(_, op)| to_request(op))
        .take(SINGLES)
        .collect();
    let queries = workload
        .windows
        .iter()
        .flatten()
        .filter_map(|(_, op)| match op {
            SessionOp::Union { query, .. } | SessionOp::Joinable { query, .. } => {
                Some(query.clone())
            }
            _ => None,
        })
        .take(SINGLES)
        .collect();
    let requests: usize = windows.iter().map(Vec::len).sum();
    out.probe = Probe {
        index: Some(serial.into_index()),
        singles,
        singles_expected: None,
        admit: Some((admit, tenants)),
        tables: workload.tables,
        queries,
        batch_len: requests.div_ceil(windows.len()),
    };
    out.trace = trace;
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_seed_repeats_and_another_differs() {
        let windows = |seed| format!("{:?}", inputs(seed, 30));
        assert_eq!(windows(1), windows(1));
        assert_ne!(windows(1), windows(2));
        let out = crate::tests::repeats(run, 1, 30);
        assert!(out.refused > 0, "the flooder and poisoner are refused");
    }
}
