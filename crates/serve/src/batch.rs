//! One serving batch, written once for both serving paths: admission,
//! what each admitted request [`needs`] from which shard, the warm parts
//! per request, [`assemble`], running each plan in place and splicing
//! answers and decisions back in slot order, breaker feedback, the
//! memory gauges and the [`BatchReport`]. A driver only reaches the
//! shards: the serial [`ServeSession`](crate::ServeSession) warms
//! inline; the [`SessionActor`](crate::SessionActor) warms through
//! shard actors and finishes the batch in its handler.

use std::collections::BTreeMap;

use rdi_obs::ProvenanceEvent;
use rdi_policy::PolicySet;

use crate::admit::{AdmitVerdict, Admitter, TenantId};
use crate::cache::{CacheGauges, ShardBytes};
use crate::error::ServeError;
use crate::index::{assemble, execute, needs, WarmNeed, WarmPart};
use crate::request::{ServeRequest, ServeResponse};
use crate::session::BatchReport;

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
    /// Each replying shard's cache and maintained-store bytes and its
    /// eviction decisions, by shard index.
    replies: BTreeMap<usize, (ShardBytes, Vec<ProvenanceEvent>)>,
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
    /// and its maintained stores hold, and the eviction decisions its
    /// cache made since it last replied.
    pub(crate) fn replied(
        &mut self,
        shard: usize,
        tables: usize,
        bytes: ShardBytes,
        evictions: Vec<ProvenanceEvent>,
    ) {
        self.tables += tables;
        self.replies.insert(shard, (bytes, evictions));
    }

    /// Publish the replying shards' bytes on `gauges`, assemble every
    /// admitted request's plan and run it on the calling thread in slot
    /// order, feed each tenant's breaker its own outcomes in arrival
    /// order (sheds never count) and report. Decisions are listed
    /// admitter first, then evictions in shard order, then each plan's
    /// rankings in slot order.
    pub(crate) fn finish(
        self,
        admitter: &mut Admitter,
        requests: &[&ServeRequest],
        policies: &PolicySet,
        gauges: &mut CacheGauges,
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
        for a in admitted {
            let plan = assemble(requests[a.pos], a.parts, tables, a.local_error, policies);
            let result = plan.and_then(|plan| execute(&plan, a.seed, &mut decisions));
            answers.insert(a.pos, result);
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
