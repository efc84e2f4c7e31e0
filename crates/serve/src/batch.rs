//! One serving batch, written once for both serving paths: admission,
//! what each admitted request [`needs`] from which shard, the warm parts
//! per request, [`assemble`], splicing answers and decisions back in
//! slot order, breaker feedback, the cache-size gauges and the
//! [`BatchReport`]. A driver only reaches the shards and runs the
//! plans: the serial [`ServeSession`](crate::ServeSession) warms inline
//! and executes on its pool; the [`SessionActor`](crate::SessionActor)
//! warms through shard actors and executes in its handler.

use std::collections::BTreeMap;

use rdi_obs::ProvenanceEvent;
use rdi_policy::PolicySet;

use crate::admit::{AdmitVerdict, Admitter, TenantId};
use crate::cache::CacheGauges;
use crate::error::ServeError;
use crate::index::{assemble, needs, Prepared, WarmNeed, WarmPart};
use crate::request::{ServeRequest, ServeResponse};
use crate::session::BatchReport;

/// What running one plan yields: the answer and its ranking decisions.
pub(crate) type Executed = (Result<ServeResponse, ServeError>, Vec<ProvenanceEvent>);

/// An admitted request collecting its warm parts.
#[derive(Debug)]
struct Admitted {
    pos: usize,
    /// Execute seed on the owning tenant's stream.
    seed: u64,
    /// The error [`needs`] decided, held until the table counts are in
    /// because `EmptyIndex` takes precedence.
    local_error: Option<ServeError>,
    parts: Vec<WarmPart>,
}

/// One batch between admission and its report.
#[derive(Debug)]
pub(crate) struct Batch {
    tenants: Vec<TenantId>,
    /// Admitted requests in arrival order.
    admitted: Vec<Admitted>,
    /// Answers decided so far by position: the sheds, until `finish`.
    answers: BTreeMap<usize, Result<ServeResponse, ServeError>>,
    /// Registered tables across the shards that replied.
    tables: usize,
    /// The admitter's reserved-slot ranking.
    decisions: Vec<ProvenanceEvent>,
    /// Each replying shard's cache bytes and eviction decisions, by
    /// shard index.
    replies: BTreeMap<usize, (usize, Vec<ProvenanceEvent>)>,
}

impl Batch {
    /// Admit `requests` (one tick of `admitter`) and list every admitted
    /// request's `(position, shard, need)`, request-major in arrival
    /// order.
    pub(crate) fn start(
        admitter: &mut Admitter,
        tenants: Vec<TenantId>,
        requests: &[&ServeRequest],
        shard_count: usize,
    ) -> (Batch, Vec<(usize, usize, WarmNeed)>) {
        let verdicts = admitter.admit_batch(&tenants);
        let mut batch = Batch {
            tenants,
            admitted: Vec::new(),
            answers: BTreeMap::new(),
            tables: 0,
            decisions: admitter.drain_decisions(),
            replies: BTreeMap::new(),
        };
        let mut warm = Vec::new();
        for ((pos, verdict), request) in verdicts.into_iter().enumerate().zip(requests) {
            match verdict {
                AdmitVerdict::Shed(e) => {
                    batch.answers.insert(pos, Err(e));
                }
                AdmitVerdict::Admitted { seed, .. } => {
                    let (shard_needs, local_error) = needs(request, shard_count);
                    warm.extend(shard_needs.into_iter().map(|(si, need)| (pos, si, need)));
                    batch.admitted.push(Admitted {
                        pos,
                        seed,
                        local_error,
                        parts: Vec::new(),
                    });
                }
            }
        }
        (batch, warm)
    }

    /// Hand a shard's answer to one need back to the request at `pos`.
    pub(crate) fn warmed(&mut self, pos: usize, part: WarmPart) {
        if let Ok(i) = self.admitted.binary_search_by_key(&pos, |a| a.pos) {
            self.admitted[i].parts.push(part);
        }
    }

    /// Record one shard's registered-table count, the bytes its cache
    /// holds and the eviction decisions its cache made since it last
    /// replied.
    pub(crate) fn replied(
        &mut self,
        shard: usize,
        tables: usize,
        cache_bytes: usize,
        evictions: Vec<ProvenanceEvent>,
    ) {
        self.tables += tables;
        self.replies.insert(shard, (cache_bytes, evictions));
    }

    /// Publish the replying shards' cache bytes on `gauges`, assemble
    /// every admitted request's plan, run the `(seed, plan)` jobs with
    /// `run` (one result per job, in job order), feed each tenant's
    /// breaker its own outcomes in arrival order (sheds never count)
    /// and report. Decisions are listed admitter first, then evictions
    /// in shard order, then each plan's rankings in slot order.
    pub(crate) fn finish(
        self,
        admitter: &mut Admitter,
        requests: &[&ServeRequest],
        policies: &PolicySet,
        gauges: &mut CacheGauges,
        run: impl FnOnce(Vec<(u64, Prepared)>) -> Vec<Executed>,
    ) -> BatchReport {
        let Batch {
            tenants,
            admitted,
            mut answers,
            tables,
            mut decisions,
            replies,
        } = self;
        let shed = answers.len();
        let admitted_count = admitted.len();
        gauges.publish(replies.iter().map(|(&shard, (bytes, _))| (shard, *bytes)));
        decisions.extend(replies.into_values().flat_map(|(_, evictions)| evictions));
        let mut running = Vec::with_capacity(admitted_count);
        let mut jobs = Vec::with_capacity(admitted_count);
        for a in admitted {
            match assemble(requests[a.pos], a.parts, tables, a.local_error, policies) {
                Ok(plan) => {
                    running.push(a.pos);
                    jobs.push((a.seed, plan));
                }
                Err(e) => {
                    answers.insert(a.pos, Err(e));
                }
            }
        }
        for (pos, (result, plan_decisions)) in running.into_iter().zip(run(jobs)) {
            answers.insert(pos, result);
            decisions.extend(plan_decisions);
        }
        let responses: Vec<_> = answers.into_values().collect();
        let failed = admitter.note_outcomes(&tenants, &responses);
        BatchReport {
            responses,
            admitted: admitted_count,
            shed,
            degraded: shed > 0 || failed > 0,
            decisions,
        }
    }
}
