//! Actor hosting for the serving layer: the sharded [`LakeIndex`] as a
//! group of shard actors plus a maintenance actor, and serving
//! sessions as client actors — concurrent serving with every
//! interleaving replayable.
//!
//! ## Topology
//!
//! [`LakeActorGroup::host`] disassembles a [`LakeIndex`] and moves each
//! shard into its own [`ShardActor`]; a [`MaintActor`] absorbs
//! [`TableDelta`] streams and routes each to the owning shard (same
//! `hash(id) % shard_count` assignment as the inline index). Sessions
//! spawned with [`LakeActorGroup::spawn_session`] are [`SessionActor`]s
//! holding the same multi-tenant [`Admitter`]
//! (token buckets, queue shares, per-tenant half-open breakers) as the
//! serial [`ServeSession`](crate::ServeSession).
//!
//! ## The admit → warm → execute contract, per actor
//!
//! The serial session's three-phase batch protocol becomes a message
//! protocol with the same invariants:
//!
//! 1. **Admit** (session actor, serial in arrival order): the *same*
//!    shared [`Admitter`] entry point the
//!    serial session calls — per-tenant quota, queue share, then
//!    breaker verdict, on the identical tick clock (one tick per
//!    batch).
//! 2. **Warm** (shard actors, the only cache-mutating phase): the
//!    session fans one [`ShardMsg::Warm`] batch out per shard; each
//!    shard warms the sketches its tables need through the *same*
//!    [`Shard`](crate::index) methods the inline index uses and
//!    replies with plan parts.
//! 3. **Execute** (session actor, pure): once every contacted shard
//!    has replied, parts are assembled into the same `Prepared` plans
//!    the serial path builds — candidates merged in sorted-id order,
//!    error precedence identical to `LakeIndex::prepare` — and
//!    executed with the request's own RNG stream
//!    `stream_seed(session seed, arrival index)`.
//!
//! Because plans and seeds are identical, **responses are bitwise
//! identical to the equivalent serial [`ServeSession`](crate::ServeSession) runs** — for
//! any scheduler seed, any interleaving of sessions, and any
//! `RDI_THREADS` value. A session processes one batch at a time
//! (later submissions are backlogged in arrival order), so per-session
//! breaker and arrival state evolve exactly as they do serially.

use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::sync::Arc;

use rdi_actor::{Actor, ActorId, Addr, Ctx, Runtime};
use rdi_discovery::TableSignature;
use rdi_fault::RecoveryState;
use rdi_policy::{PolicyId, PolicySet};
use rdi_table::{Table, TableDelta};

use crate::admit::{lay_out, AdmitConfig, Admitter, TaggedRequest, TenantId};
use crate::cache::{CacheKey, KeyProfile};
use crate::error::ServeError;
use crate::fingerprint::table_fingerprint;
use crate::index::{
    check_query_shape, execute, shard_route, JoinPlan, LakeIndex, LakeIndexConfig, Prepared, Shard,
    UnionPlan,
};
use crate::request::{ServeRequest, ServeResponse};
use crate::session::{BatchReport, SessionConfig};

/// What one request needs from one shard during the warm phase.
#[derive(Debug)]
pub(crate) enum WarmNeed {
    /// Registered-table count only (the request's outcome is already
    /// decided locally, but `EmptyIndex` takes precedence and needs
    /// the global count).
    Count,
    /// Union candidates; on the query-owner shard also the query
    /// signature (fingerprint + table attached).
    Union { query: Option<(u64, Arc<Table>)> },
    /// Join candidates for `column`; on the query-owner shard also the
    /// query key profile.
    Join {
        column: String,
        query: Option<(u64, Arc<Table>)>,
    },
    /// Resolve a coverage probe (the target table lives here).
    Coverage {
        table: String,
        attributes: Vec<String>,
        threshold: usize,
    },
    /// Resolve tailoring sources owned by this shard, tagged with
    /// their position in the request's source list.
    Tailor { ids: Vec<(usize, String)> },
}

/// One shard's answer for one request.
#[derive(Debug)]
pub(crate) enum WarmPart {
    /// Table count came back in the reply header; nothing else needed.
    Count,
    /// Union candidates (+ query signature from the owner shard).
    Union {
        query: Option<Result<Arc<TableSignature>, ServeError>>,
        candidates: Vec<(String, Arc<TableSignature>)>,
    },
    /// Join candidates (+ query profile from the owner shard). Build
    /// failures are reported per candidate id so the session can apply
    /// the serial first-error-by-sorted-id precedence.
    Join {
        query: Option<Result<Arc<KeyProfile>, ServeError>>,
        candidates: Vec<(String, Arc<KeyProfile>)>,
        errors: Vec<(String, ServeError)>,
    },
    /// Everything a coverage plan needs, or the serial error.
    Coverage(Result<(String, Arc<Table>, Vec<String>, usize), ServeError>),
    /// Per-source resolutions, tagged with source-list positions.
    Tailor { resolved: Vec<ResolvedSource> },
}

/// One tailoring source resolved by its owning shard: the source-list
/// position plus `(id, table, cost)` or the serial error for that slot.
type ResolvedSource = (usize, Result<(String, Arc<Table>, f64), ServeError>);

/// A warm fan-out to one shard: the needs of every admitted request in
/// one batch that touches this shard (internal payload).
#[derive(Debug)]
pub struct WarmBatch {
    pub(crate) session: ActorId,
    pub(crate) batch: u64,
    pub(crate) needs: Vec<(usize, WarmNeed)>,
}

/// Messages a [`ShardActor`] consumes.
#[derive(Debug)]
pub enum ShardMsg {
    /// Warm sketches for a session's batch and reply with plan parts.
    Warm(WarmBatch),
    /// Apply one delta to a table owned by this shard.
    Apply {
        /// Target table id (must route to this shard).
        id: String,
        /// The mutation.
        delta: TableDelta,
        /// Who to ack (normally the maintenance actor).
        reply_to: ActorId,
    },
    /// Register or replace a table owned by this shard.
    Upsert {
        /// Table id (must route to this shard).
        id: String,
        /// Content.
        table: Table,
        /// Per-draw cost for tailoring.
        cost: f64,
        /// Who to ack.
        reply_to: ActorId,
    },
}

/// One shard of the lake index, hosted as an actor. Warm requests and
/// maintenance deltas interleave in scheduler order, so every cache
/// and sketch mutation is serialized per shard — the actor-model
/// restatement of the inline index's `&mut self` discipline.
#[derive(Debug)]
pub struct ShardActor {
    shard_index: usize,
    config: LakeIndexConfig,
    shard: Shard,
}

impl ShardActor {
    /// Registered tables currently in this shard.
    pub fn len(&self) -> usize {
        self.shard.len()
    }

    /// True when the shard holds no tables.
    pub fn is_empty(&self) -> bool {
        self.shard.len() == 0
    }

    fn warm_one(&mut self, need: WarmNeed) -> WarmPart {
        let k = self.config.minhash_k;
        match need {
            WarmNeed::Count => WarmPart::Count,
            WarmNeed::Union { query } => {
                let query = query.map(|(fp, t)| self.shard.query_union_signature(fp, &t, k));
                let ids: Vec<String> = self.shard.ids().cloned().collect();
                let mut candidates = Vec::with_capacity(ids.len());
                for id in ids {
                    if let Ok(sig) = self.shard.union_signature(&id, k) {
                        candidates.push((id, sig));
                    }
                    // the id came from this shard's own map, so the
                    // lookup cannot fail; nothing to report otherwise
                }
                WarmPart::Union { query, candidates }
            }
            WarmNeed::Join { column, query } => {
                let query = query.map(|(fp, t)| {
                    // same post-build check as the serial prepare: a
                    // key column with no non-null values cannot anchor
                    // a containment estimate
                    self.shard
                        .query_key_profile(fp, &t, &column, k)
                        .and_then(|p| {
                            if p.distinct == 0 {
                                Err(ServeError::EmptyQuery(format!(
                                    "query column `{column}` has no non-null values"
                                )))
                            } else {
                                Ok(p)
                            }
                        })
                });
                let ids: Vec<String> = self.shard.ids().cloned().collect();
                let mut candidates = Vec::with_capacity(ids.len());
                let mut errors = Vec::new();
                for id in ids {
                    // candidates without the key column are skipped,
                    // not errors — same rule as the serial path
                    let has_column = self
                        .shard
                        .registered(&id)
                        .is_some_and(|r| r.table.column(&column).is_ok());
                    if !has_column {
                        continue;
                    }
                    match self.shard.key_profile(&id, &column, k) {
                        Ok(p) => candidates.push((id, p)),
                        Err(e) => errors.push((id, e)),
                    }
                }
                WarmPart::Join {
                    query,
                    candidates,
                    errors,
                }
            }
            WarmNeed::Coverage {
                table,
                attributes,
                threshold,
            } => {
                let part = match self.shard.registered(&table) {
                    None => Err(ServeError::UnknownTable(table)),
                    Some(r) => {
                        let mut bad = None;
                        for a in &attributes {
                            if r.table.column(a).is_err() {
                                bad = Some(ServeError::UnknownColumn {
                                    table: table.clone(),
                                    column: a.clone(),
                                });
                                break;
                            }
                        }
                        match bad {
                            Some(e) => Err(e),
                            None => Ok((table, r.table.clone(), attributes, threshold)),
                        }
                    }
                };
                WarmPart::Coverage(part)
            }
            WarmNeed::Tailor { ids } => {
                let resolved = ids
                    .into_iter()
                    .map(|(pos, id)| {
                        let r = match self.shard.registered(&id) {
                            Some(r) => Ok((id, r.table.clone(), r.cost)),
                            None => Err(ServeError::UnknownTable(id)),
                        };
                        (pos, r)
                    })
                    .collect();
                WarmPart::Tailor { resolved }
            }
        }
    }
}

impl Actor for ShardActor {
    type Msg = ShardMsg;

    fn handle(&mut self, msg: ShardMsg, ctx: &mut Ctx<'_>) {
        match msg {
            ShardMsg::Warm(wb) => {
                let parts = wb
                    .needs
                    .into_iter()
                    .map(|(pos, need)| (pos, self.warm_one(need)))
                    .collect();
                ctx.send(
                    wb.session,
                    SessionMsg::Warm(WarmReply {
                        batch: wb.batch,
                        shard_index: self.shard_index,
                        tables_in_shard: self.shard.len(),
                        parts,
                    }),
                );
            }
            ShardMsg::Apply {
                id,
                delta,
                reply_to,
            } => {
                let rows = self.shard.apply_delta(
                    &id,
                    &delta,
                    self.config.minhash_k,
                    self.config.deletion_debt_threshold,
                );
                ctx.send(reply_to, MaintMsg::Applied(AppliedNote { id, rows }));
            }
            ShardMsg::Upsert {
                id,
                table,
                cost,
                reply_to,
            } => {
                let rows = self.shard.upsert(id.clone(), table, cost).map(|()| 0usize);
                ctx.send(reply_to, MaintMsg::Applied(AppliedNote { id, rows }));
            }
        }
    }
}

/// Shard ack for one maintenance operation (internal payload).
#[derive(Debug)]
pub struct AppliedNote {
    pub(crate) id: String,
    pub(crate) rows: Result<usize, ServeError>,
}

/// Messages a [`MaintActor`] consumes.
#[derive(Debug)]
pub enum MaintMsg {
    /// Apply one delta to its owning shard.
    Delta {
        /// Target table id.
        id: String,
        /// The mutation.
        delta: TableDelta,
    },
    /// Register or replace a table in its owning shard.
    Upsert {
        /// Table id.
        id: String,
        /// Content.
        table: Table,
        /// Per-draw cost for tailoring.
        cost: f64,
    },
    /// A shard's ack for a routed operation.
    Applied(AppliedNote),
}

/// Absorbs [`TableDelta`] streams: routes each operation to the owning
/// shard actor (the same pure-hash assignment the inline index uses)
/// and tallies acks.
#[derive(Debug)]
pub struct MaintActor {
    shards: Vec<ActorId>,
    applied: u64,
    rows_applied: u64,
    errors: Vec<(String, ServeError)>,
}

impl MaintActor {
    /// Operations acked so far (successes only).
    pub fn applied(&self) -> u64 {
        self.applied
    }

    /// Total rows touched by acked deltas.
    pub fn rows_applied(&self) -> u64 {
        self.rows_applied
    }

    /// Failed operations: `(table id, error)`, in ack order.
    pub fn errors(&self) -> &[(String, ServeError)] {
        &self.errors
    }

    fn route(&self, id: &str) -> ActorId {
        self.shards[shard_route(id, self.shards.len())]
    }
}

impl Actor for MaintActor {
    type Msg = MaintMsg;

    fn handle(&mut self, msg: MaintMsg, ctx: &mut Ctx<'_>) {
        match msg {
            MaintMsg::Delta { id, delta } => {
                let to = self.route(&id);
                let reply_to = ctx.self_id();
                ctx.send(
                    to,
                    ShardMsg::Apply {
                        id,
                        delta,
                        reply_to,
                    },
                );
            }
            MaintMsg::Upsert { id, table, cost } => {
                let to = self.route(&id);
                let reply_to = ctx.self_id();
                ctx.send(
                    to,
                    ShardMsg::Upsert {
                        id,
                        table,
                        cost,
                        reply_to,
                    },
                );
            }
            MaintMsg::Applied(note) => match note.rows {
                Ok(rows) => {
                    self.applied += 1;
                    self.rows_applied += rows as u64;
                }
                Err(e) => self.errors.push((note.id, e)),
            },
        }
    }
}

/// One shard's warm results for one batch (internal payload).
#[derive(Debug)]
pub struct WarmReply {
    pub(crate) batch: u64,
    pub(crate) shard_index: usize,
    pub(crate) tables_in_shard: usize,
    pub(crate) parts: Vec<(usize, WarmPart)>,
}

/// Messages a [`SessionActor`] consumes.
#[derive(Debug)]
pub enum SessionMsg {
    /// Submit one batch of default-tenant requests (external clients
    /// inject this).
    Submit(Vec<ServeRequest>),
    /// Submit one batch of tenant-tagged requests.
    SubmitTagged(Vec<TaggedRequest>),
    /// A shard's warm results (sent by shard actors).
    Warm(WarmReply),
}

/// Bookkeeping for the batch currently in flight.
#[derive(Debug)]
struct Inflight {
    batch: u64,
    requests: Vec<TaggedRequest>,
    tenants: Vec<TenantId>,
    responses: Vec<Option<Result<ServeResponse, ServeError>>>,
    admitted: Vec<(usize, u64)>, // (position, execute seed)
    shed: usize,
    /// Query-side errors decided locally, parked until shard counts
    /// arrive because `EmptyIndex` takes precedence.
    local_errors: BTreeMap<usize, ServeError>,
    /// Shard indices still owed a reply.
    pending: BTreeSet<usize>,
    /// Registered-table count per replying shard.
    counts: BTreeMap<usize, usize>,
    /// Plan parts per request position: `(shard index, part)`.
    parts: BTreeMap<usize, Vec<(usize, WarmPart)>>,
}

/// A serving session hosted as a client actor over a shard group.
///
/// Holds the same [`SessionConfig`] and the same multi-tenant
/// [`Admitter`] (per-tenant token buckets, aging credits, arrival
/// counters, and half-open breakers) as the serial
/// [`ServeSession`](crate::ServeSession); batches complete one at a
/// time (later [`SessionMsg::Submit`]s are backlogged), so per-session
/// state evolves exactly as it does serially and responses are bitwise
/// identical to the serial session run on a private index.
#[derive(Debug)]
pub struct SessionActor {
    config: SessionConfig,
    shard_count: usize,
    shards: Vec<ActorId>,
    admitter: Admitter,
    policies: PolicySet,
    batches: u64,
    inflight: Option<Inflight>,
    backlog: VecDeque<Vec<TaggedRequest>>,
    completed: Vec<BatchReport>,
}

impl SessionActor {
    fn new(
        config: SessionConfig,
        admit: AdmitConfig,
        shard_count: usize,
        shards: Vec<ActorId>,
        policies: PolicySet,
    ) -> Self {
        SessionActor {
            admitter: Admitter::new(admit, config.seed),
            config,
            shard_count,
            shards,
            policies,
            batches: 0,
            inflight: None,
            backlog: VecDeque::new(),
            completed: Vec::new(),
        }
    }

    /// Completed batch reports, in submission order.
    pub fn completed(&self) -> &[BatchReport] {
        &self.completed
    }

    /// The admission state machine (per-tenant buckets, aging credits,
    /// and breakers).
    pub fn admitter(&self) -> &Admitter {
        &self.admitter
    }

    /// The default tenant's breaker state.
    pub fn breaker_state(&self) -> RecoveryState {
        self.admitter.breaker_state(&TenantId::default())
    }

    /// Session clock: batches started so far.
    pub fn ticks(&self) -> u64 {
        self.admitter.ticks()
    }

    /// Requests seen so far (admitted or shed), across all tenants.
    pub fn arrivals(&self) -> u64 {
        self.admitter.arrivals()
    }

    /// The session configuration.
    pub fn config(&self) -> &SessionConfig {
        &self.config
    }

    fn owner_shard(&self) -> usize {
        shard_route(CacheKey::QUERY_OWNER, self.shard_count)
    }

    /// Phase 1 + warm fan-out. Runs the same shared [`Admitter`] entry
    /// point as `ServeSession::submit_batch` (one tick per batch,
    /// quota > queue > breaker shed precedence), so both paths stay
    /// bitwise identical by construction.
    fn start_batch(&mut self, requests: Vec<TaggedRequest>, ctx: &mut Ctx<'_>) {
        self.batches += 1;
        let tenants: Vec<TenantId> = requests.iter().map(|r| r.tenant.clone()).collect();
        let verdicts = self.admitter.admit_batch(&tenants);
        let layout = lay_out(verdicts);
        let mut responses = layout.responses;
        let admitted = layout.admitted;
        let shed = layout.shed;

        // Warm fan-out: translate each admitted request into per-shard
        // needs, resolving what can be decided locally. Error
        // precedence must match `LakeIndex::prepare` exactly: `ZeroK`
        // before `EmptyIndex` before query-shape errors.
        let owner = self.owner_shard();
        let mut needs: Vec<Vec<(usize, WarmNeed)>> =
            (0..self.shard_count).map(|_| Vec::new()).collect();
        let mut local_errors: BTreeMap<usize, ServeError> = BTreeMap::new();
        for &(pos, _) in &admitted {
            match &requests[pos].request {
                ServeRequest::UnionTopK { query, k } => {
                    if *k == 0 {
                        responses[pos] = Some(Err(ServeError::ZeroK));
                        continue;
                    }
                    match check_query_shape(query) {
                        Err(e) => {
                            // park: EmptyIndex still takes precedence
                            local_errors.insert(pos, e);
                            for n in needs.iter_mut() {
                                n.push((pos, WarmNeed::Count));
                            }
                        }
                        Ok(()) => {
                            let fp = table_fingerprint(query);
                            let q = Arc::new(query.clone());
                            for (si, n) in needs.iter_mut().enumerate() {
                                let query = (si == owner).then(|| (fp, q.clone()));
                                n.push((pos, WarmNeed::Union { query }));
                            }
                        }
                    }
                }
                ServeRequest::JoinableTopK { query, column, k } => {
                    if *k == 0 {
                        responses[pos] = Some(Err(ServeError::ZeroK));
                        continue;
                    }
                    let local = check_query_shape(query).err().or_else(|| {
                        query
                            .column(column)
                            .is_err()
                            .then(|| ServeError::UnknownColumn {
                                table: CacheKey::QUERY_OWNER.to_string(),
                                column: column.clone(),
                            })
                    });
                    match local {
                        Some(e) => {
                            local_errors.insert(pos, e);
                            for n in needs.iter_mut() {
                                n.push((pos, WarmNeed::Count));
                            }
                        }
                        None => {
                            let fp = table_fingerprint(query);
                            let q = Arc::new(query.clone());
                            for (si, n) in needs.iter_mut().enumerate() {
                                let query = (si == owner).then(|| (fp, q.clone()));
                                n.push((
                                    pos,
                                    WarmNeed::Join {
                                        column: column.clone(),
                                        query,
                                    },
                                ));
                            }
                        }
                    }
                }
                ServeRequest::CoverageProbe {
                    table,
                    attributes,
                    threshold,
                } => {
                    let si = shard_route(table, self.shard_count);
                    needs[si].push((
                        pos,
                        WarmNeed::Coverage {
                            table: table.clone(),
                            attributes: attributes.clone(),
                            threshold: *threshold,
                        },
                    ));
                }
                ServeRequest::TailorRun { sources, .. } => {
                    if sources.is_empty() {
                        responses[pos] = Some(Err(ServeError::EmptyQuery(
                            "no tailoring sources named".into(),
                        )));
                        continue;
                    }
                    let mut by_shard: BTreeMap<usize, Vec<(usize, String)>> = BTreeMap::new();
                    for (i, id) in sources.iter().enumerate() {
                        by_shard
                            .entry(shard_route(id, self.shard_count))
                            .or_default()
                            .push((i, id.clone()));
                    }
                    for (si, ids) in by_shard {
                        needs[si].push((pos, WarmNeed::Tailor { ids }));
                    }
                }
            }
        }

        let mut pending = BTreeSet::new();
        let session = ctx.self_id();
        let batch = self.batches;
        for (si, shard_needs) in needs.into_iter().enumerate() {
            if shard_needs.is_empty() {
                continue;
            }
            pending.insert(si);
            ctx.send(
                self.shards[si],
                ShardMsg::Warm(WarmBatch {
                    session,
                    batch,
                    needs: shard_needs,
                }),
            );
        }

        let done = pending.is_empty();
        self.inflight = Some(Inflight {
            batch,
            requests,
            tenants,
            responses,
            admitted,
            shed,
            local_errors,
            pending,
            counts: BTreeMap::new(),
            parts: BTreeMap::new(),
        });
        if done {
            self.finish_batch(ctx);
        }
    }

    /// Phase 3: assemble plans, execute, feed the breaker, report.
    fn finish_batch(&mut self, ctx: &mut Ctx<'_>) {
        let Some(mut fl) = self.inflight.take() else {
            return;
        };
        let total_tables: usize = fl.counts.values().sum();
        // Decision audit: admission ranking first, then per-request
        // ranking decisions in slot order. (Shard-side cache evictions
        // stay with their shard until the index is reassembled.)
        let mut decisions = self.admitter.drain_decisions();
        for &(pos, seed) in &fl.admitted {
            if fl.responses[pos].is_some() {
                continue;
            }
            let parts = fl.parts.remove(&pos).unwrap_or_default();
            let plan = assemble(
                &fl.requests[pos].request,
                parts,
                total_tables,
                fl.local_errors.remove(&pos),
                &self.policies,
            );
            let result = match plan {
                Ok(plan) => {
                    let (r, plan_decisions) = execute(&plan, seed);
                    decisions.extend(plan_decisions);
                    r
                }
                Err(e) => Err(e),
            };
            fl.responses[pos] = Some(result);
        }

        // Post phase: the same shared admitter entry point the serial
        // session uses — each tenant's breaker consumes its own
        // outcomes in arrival order, sheds never count.
        let failed = self.admitter.note_outcomes(&fl.tenants, &fl.responses);

        let responses: Vec<Result<ServeResponse, ServeError>> = fl
            .responses
            .into_iter()
            .map(|r| match r {
                Some(r) => r,
                None => Err(ServeError::EmptyQuery("request slot never resolved".into())),
            })
            .collect();
        let degraded = fl.shed > 0 || failed > 0;
        self.completed.push(BatchReport {
            admitted: fl.admitted.len(),
            responses,
            shed: fl.shed,
            degraded,
            decisions,
        });

        if let Some(next) = self.backlog.pop_front() {
            self.start_batch(next, ctx);
        }
    }
}

impl Actor for SessionActor {
    type Msg = SessionMsg;

    fn handle(&mut self, msg: SessionMsg, ctx: &mut Ctx<'_>) {
        match msg {
            SessionMsg::Submit(requests) => {
                let tagged: Vec<TaggedRequest> =
                    requests.into_iter().map(TaggedRequest::from).collect();
                self.handle(SessionMsg::SubmitTagged(tagged), ctx);
            }
            SessionMsg::SubmitTagged(requests) => {
                if self.inflight.is_some() {
                    // one batch at a time: serial per-session semantics
                    self.backlog.push_back(requests);
                } else {
                    self.start_batch(requests, ctx);
                }
            }
            SessionMsg::Warm(reply) => {
                let finished = match self.inflight.as_mut() {
                    Some(fl) if fl.batch == reply.batch => {
                        fl.counts.insert(reply.shard_index, reply.tables_in_shard);
                        for (pos, part) in reply.parts {
                            fl.parts
                                .entry(pos)
                                .or_default()
                                .push((reply.shard_index, part));
                        }
                        fl.pending.remove(&reply.shard_index);
                        fl.pending.is_empty()
                    }
                    // stale or unexpected reply: batches complete
                    // before their successors start, so drop it
                    _ => false,
                };
                if finished {
                    self.finish_batch(ctx);
                }
            }
        }
    }
}

/// Merge one request's shard parts into the same `Prepared` plan the
/// serial `LakeIndex::prepare` builds, with identical error
/// precedence.
fn assemble(
    request: &ServeRequest,
    parts: Vec<(usize, WarmPart)>,
    total_tables: usize,
    local_error: Option<ServeError>,
    policies: &PolicySet,
) -> Result<Prepared, ServeError> {
    match request {
        ServeRequest::UnionTopK { k, .. } => {
            if total_tables == 0 {
                return Err(ServeError::EmptyIndex);
            }
            if let Some(e) = local_error {
                return Err(e);
            }
            let mut query = None;
            let mut candidates = Vec::new();
            for (_, part) in parts {
                if let WarmPart::Union {
                    query: q,
                    candidates: c,
                } = part
                {
                    if q.is_some() {
                        query = q;
                    }
                    candidates.extend(c);
                }
            }
            // serial candidate order: globally sorted ids
            candidates.sort_by(|a, b| a.0.cmp(&b.0));
            match query {
                Some(Ok(query)) => Ok(Prepared::Union(UnionPlan {
                    k: *k,
                    query,
                    candidates,
                    params: policies.params_for(PolicyId::UNION_RANK),
                })),
                Some(Err(e)) => Err(e),
                None => Err(ServeError::EmptyQuery("query signature never built".into())),
            }
        }
        ServeRequest::JoinableTopK { k, .. } => {
            if total_tables == 0 {
                return Err(ServeError::EmptyIndex);
            }
            if let Some(e) = local_error {
                return Err(e);
            }
            let mut query = None;
            let mut candidates = Vec::new();
            let mut errors = Vec::new();
            for (_, part) in parts {
                if let WarmPart::Join {
                    query: q,
                    candidates: c,
                    errors: e,
                } = part
                {
                    if q.is_some() {
                        query = q;
                    }
                    candidates.extend(c);
                    errors.extend(e);
                }
            }
            // serial precedence: first failing candidate in sorted-id
            // order aborts the whole prepare
            errors.sort_by(|a, b| a.0.cmp(&b.0));
            candidates.sort_by(|a, b| a.0.cmp(&b.0));
            let query = match query {
                Some(Ok(q)) => q,
                Some(Err(e)) => return Err(e),
                None => return Err(ServeError::EmptyQuery("query profile never built".into())),
            };
            if let Some((_, e)) = errors.into_iter().next() {
                // serial prepare aborts at the first failing candidate
                // in sorted-id order, successes notwithstanding
                return Err(e);
            }
            Ok(Prepared::Join(JoinPlan {
                k: *k,
                query,
                candidates,
                params: policies.params_for(PolicyId::JOIN_RANK),
            }))
        }
        ServeRequest::CoverageProbe { .. } => {
            let mut it = parts.into_iter();
            match it.next() {
                Some((_, WarmPart::Coverage(Ok((table_id, table, attributes, threshold))))) => {
                    Ok(Prepared::Coverage {
                        table_id,
                        table,
                        attributes,
                        threshold,
                    })
                }
                Some((_, WarmPart::Coverage(Err(e)))) => Err(e),
                _ => Err(ServeError::EmptyQuery("coverage part never arrived".into())),
            }
        }
        ServeRequest::TailorRun {
            problem,
            max_draws,
            sources,
        } => {
            let mut resolved: Vec<ResolvedSource> = Vec::with_capacity(sources.len());
            for (_, part) in parts {
                if let WarmPart::Tailor { resolved: r } = part {
                    resolved.extend(r);
                }
            }
            // serial precedence: sources resolve in list order, first
            // error wins
            resolved.sort_by_key(|(pos, _)| *pos);
            let mut out = Vec::with_capacity(resolved.len());
            for (_, r) in resolved {
                out.push(r?);
            }
            Ok(Prepared::Tailor {
                problem: problem.clone(),
                sources: out,
                max_draws: *max_draws,
            })
        }
    }
}

/// Handles to a hosted lake: the shard actors plus the maintenance
/// actor. Create with [`LakeActorGroup::host`], add client sessions
/// with [`LakeActorGroup::spawn_session`], and recover the inline
/// index with [`LakeActorGroup::reassemble`] once the runtime is idle.
#[derive(Debug)]
pub struct LakeActorGroup {
    config: LakeIndexConfig,
    policies: PolicySet,
    shard_actors: Vec<ActorId>,
    maint: Addr<MaintMsg>,
}

impl LakeActorGroup {
    /// Disassemble `index` into one [`ShardActor`] per shard plus a
    /// [`MaintActor`], all spawned into `rt`.
    pub fn host(rt: &mut Runtime, index: LakeIndex) -> Self {
        let (config, policies, shards) = index.into_shards();
        let mut shard_actors = Vec::with_capacity(shards.len());
        for (i, shard) in shards.into_iter().enumerate() {
            let addr = rt.spawn(
                &format!("shard{i}"),
                ShardActor {
                    shard_index: i,
                    config,
                    shard,
                },
            );
            shard_actors.push(addr.id());
        }
        let maint = rt.spawn(
            "maint",
            MaintActor {
                shards: shard_actors.clone(),
                applied: 0,
                rows_applied: 0,
                errors: Vec::new(),
            },
        );
        LakeActorGroup {
            config,
            policies,
            shard_actors,
            maint,
        }
    }

    /// The hosted index configuration.
    pub fn config(&self) -> &LakeIndexConfig {
        &self.config
    }

    /// Shard actor ids, in shard order.
    pub fn shard_ids(&self) -> &[ActorId] {
        &self.shard_actors
    }

    /// External handle for maintenance traffic (deltas and upserts).
    pub fn maint(&self) -> &Addr<MaintMsg> {
        &self.maint
    }

    /// Spawn a client session over this shard group with single-tenant
    /// admission knobs derived from `config`.
    pub fn spawn_session(
        &self,
        rt: &mut Runtime,
        name: &str,
        config: SessionConfig,
    ) -> Addr<SessionMsg> {
        let admit = AdmitConfig::from_session(&config);
        self.spawn_session_with_admission(rt, name, config, admit)
    }

    /// Spawn a client session with explicit multi-tenant admission
    /// knobs (quotas, weights, aging); `config` still supplies the
    /// session seed.
    pub fn spawn_session_with_admission(
        &self,
        rt: &mut Runtime,
        name: &str,
        config: SessionConfig,
        admit: AdmitConfig,
    ) -> Addr<SessionMsg> {
        rt.spawn(
            name,
            SessionActor::new(
                config,
                admit,
                self.shard_actors.len(),
                self.shard_actors.clone(),
                self.policies.clone(),
            ),
        )
    }

    /// Take the shards back out of the runtime and reassemble the
    /// inline [`LakeIndex`] — e.g. to warm-replay a request stream
    /// serially against the exact post-run state. Returns `None` if
    /// any shard actor was already taken.
    pub fn reassemble(self, rt: &mut Runtime) -> Option<LakeIndex> {
        let mut shards = Vec::with_capacity(self.shard_actors.len());
        for id in self.shard_actors {
            shards.push(rt.take::<ShardActor>(id)?.shard);
        }
        Some(LakeIndex::from_shards(self.config, self.policies, shards))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::ServeSession;
    use rdi_actor::RuntimeConfig;
    use rdi_table::{DataType, Field, GroupKey, GroupSpec, Role, Schema, Value};
    use rdi_tailor::DtProblem;

    fn keyed(vals: &[&str]) -> Table {
        let schema = Schema::new(vec![Field::new("key", DataType::Str)]);
        let mut t = Table::new(schema);
        for v in vals {
            t.push_row(vec![Value::str(*v)]).unwrap();
        }
        t
    }

    fn grouped(rows: &[(&str, f64)]) -> Table {
        let schema = Schema::new(vec![
            Field::new("group", DataType::Str).with_role(Role::Sensitive),
            Field::new("x", DataType::Float),
        ]);
        let mut t = Table::new(schema);
        for (g, x) in rows {
            t.push_row(vec![Value::str(*g), Value::Float(*x)]).unwrap();
        }
        t
    }

    fn lake() -> LakeIndex {
        let mut idx = LakeIndex::default();
        idx.register("abc", keyed(&["a", "b", "c"]), 1.0).unwrap();
        idx.register("abx", keyed(&["a", "b", "x"]), 1.0).unwrap();
        let rows: Vec<(&str, f64)> = (0..60)
            .map(|i| (if i % 3 == 0 { "min" } else { "maj" }, i as f64))
            .collect();
        idx.register("pop", grouped(&rows), 1.0).unwrap();
        idx
    }

    fn problem() -> DtProblem {
        DtProblem::exact_counts(
            GroupSpec::new(vec!["group"]),
            vec![
                (GroupKey(vec![Value::str("maj")]), 5),
                (GroupKey(vec![Value::str("min")]), 5),
            ],
        )
    }

    fn mixed_batch() -> Vec<ServeRequest> {
        vec![
            ServeRequest::UnionTopK {
                query: keyed(&["a", "b", "c"]),
                k: 2,
            },
            ServeRequest::JoinableTopK {
                query: keyed(&["a", "b"]),
                column: "key".into(),
                k: 2,
            },
            ServeRequest::CoverageProbe {
                table: "pop".into(),
                attributes: vec!["group".into()],
                threshold: 10,
            },
            ServeRequest::TailorRun {
                problem: problem(),
                sources: vec!["pop".into()],
                max_draws: 5_000,
            },
        ]
    }

    fn error_batch() -> Vec<ServeRequest> {
        vec![
            ServeRequest::UnionTopK {
                query: keyed(&["a"]),
                k: 0,
            },
            ServeRequest::CoverageProbe {
                table: "missing".into(),
                attributes: vec![],
                threshold: 1,
            },
            ServeRequest::UnionTopK {
                query: Table::new(Schema::new(vec![Field::new("key", DataType::Str)])),
                k: 2,
            },
            ServeRequest::TailorRun {
                problem: problem(),
                sources: vec![],
                max_draws: 10,
            },
            ServeRequest::JoinableTopK {
                query: keyed(&["a"]),
                column: "nope".into(),
                k: 1,
            },
        ]
    }

    /// Responses from the actor-hosted session must be bitwise equal
    /// to the serial session fed the same stream.
    fn assert_matches_serial(batches: &[Vec<ServeRequest>]) {
        let mut serial = ServeSession::new(lake(), SessionConfig::default());
        let serial_reports: Vec<BatchReport> =
            batches.iter().map(|b| serial.submit_batch(b)).collect();

        let mut rt = Runtime::new(RuntimeConfig::default());
        let group = LakeActorGroup::host(&mut rt, lake());
        let session = group.spawn_session(&mut rt, "s0", SessionConfig::default());
        for b in batches {
            session.send(SessionMsg::Submit(b.clone())).unwrap();
        }
        rt.run_until_idle();
        let actor = rt.actor::<SessionActor>(session.id()).unwrap();
        assert_eq!(actor.completed().len(), serial_reports.len());
        for (got, want) in actor.completed().iter().zip(&serial_reports) {
            assert_eq!(got.admitted, want.admitted);
            assert_eq!(got.shed, want.shed);
            assert_eq!(got.degraded, want.degraded);
            assert_eq!(got.responses, want.responses);
        }
    }

    #[test]
    fn hosted_session_matches_serial_session_bitwise() {
        assert_matches_serial(&[mixed_batch(), mixed_batch()]);
    }

    #[test]
    fn error_precedence_matches_serial() {
        assert_matches_serial(&[error_batch(), mixed_batch()]);
    }

    #[test]
    fn breaker_arc_matches_serial_including_recovery() {
        let poison = ServeRequest::CoverageProbe {
            table: "missing".into(),
            attributes: vec!["group".into()],
            threshold: 1,
        };
        let threshold = SessionConfig::default().breaker_threshold as usize;
        let cooldown = SessionConfig::default().breaker_cooldown_ticks;
        let mut batches = vec![vec![poison; threshold]];
        for _ in 0..=cooldown {
            batches.push(mixed_batch());
        }
        assert_matches_serial(&batches);
    }

    /// Multi-tenant admission dedup regression: a tagged stream that
    /// exercises every shed kind (quota, queue, breaker) must produce
    /// bitwise-identical reports and identical per-tenant admission
    /// state on the serial and actor paths — both call the same
    /// `Admitter`, so any drift means the logic forked.
    #[test]
    fn tagged_multitenant_stream_matches_serial_bitwise() {
        use crate::admit::TenantPolicy;
        let config = SessionConfig::default();
        let mut admit = AdmitConfig::from_session(&config);
        admit.queue_capacity = 4;
        admit.breaker_threshold = 2;
        admit.breaker_cooldown_ticks = 2;
        let admit = admit.with_tenants(vec![
            (TenantId::new("metered"), TenantPolicy::limited(1, 1, 2)),
            (TenantId::new("greedy"), TenantPolicy::default()),
            (TenantId::new("pois"), TenantPolicy::default()),
        ]);
        let tenants = [
            TenantId::new("metered"),
            TenantId::new("greedy"),
            TenantId::new("pois"),
        ];
        let poison = ServeRequest::CoverageProbe {
            table: "missing".into(),
            attributes: vec!["group".into()],
            threshold: 1,
        };
        let window = |n: usize| -> Vec<TaggedRequest> {
            let mut w: Vec<TaggedRequest> = mixed_batch()
                .into_iter()
                .chain(mixed_batch())
                .map(|r| r.tagged(TenantId::new("greedy")))
                .collect();
            w.push(mixed_batch().remove(2).tagged(TenantId::new("metered")));
            w.push(mixed_batch().remove(0).tagged(TenantId::new("metered")));
            if n > 0 {
                w.push(poison.clone().tagged(TenantId::new("pois")));
            }
            w
        };
        let batches: Vec<Vec<TaggedRequest>> = (0..4).map(window).collect();

        let mut serial = ServeSession::with_admission(lake(), config, admit.clone());
        let serial_reports: Vec<BatchReport> = batches
            .iter()
            .map(|b| serial.submit_batch_tagged(b))
            .collect();

        let mut rt = Runtime::new(RuntimeConfig::default());
        let group = LakeActorGroup::host(&mut rt, lake());
        let session = group.spawn_session_with_admission(&mut rt, "s0", config, admit);
        for b in &batches {
            session.send(SessionMsg::SubmitTagged(b.clone())).unwrap();
        }
        rt.run_until_idle();
        let actor = rt.actor::<SessionActor>(session.id()).unwrap();
        assert_eq!(actor.completed().len(), serial_reports.len());
        for (got, want) in actor.completed().iter().zip(&serial_reports) {
            assert_eq!(got.admitted, want.admitted);
            assert_eq!(got.shed, want.shed);
            assert_eq!(got.degraded, want.degraded);
            assert_eq!(got.responses, want.responses);
        }
        for t in &tenants {
            assert_eq!(
                actor.admitter().breaker_state(t),
                serial.admitter().breaker_state(t),
                "breaker state diverged for {t}"
            );
            assert_eq!(actor.admitter().tokens(t), serial.admitter().tokens(t));
            assert_eq!(actor.admitter().aging(t), serial.admitter().aging(t));
            assert_eq!(
                actor.admitter().tenant_arrivals(t),
                serial.admitter().tenant_arrivals(t)
            );
        }
    }

    /// Shed requests never feed any tenant's breaker on the actor
    /// path: quota and queue sheds of would-fail requests leave the
    /// shedding tenants' breakers untouched, and once a breaker is
    /// open, `CircuitOpen` sheds do not grow its failure count.
    #[test]
    fn sheds_never_feed_breaker_on_actor_path() {
        use crate::admit::TenantPolicy;
        let config = SessionConfig::default();
        let mut admit = AdmitConfig::from_session(&config);
        admit.queue_capacity = 1;
        admit.breaker_threshold = 2;
        // Long cooldown: no probe fires inside this test, so an open
        // breaker's failure count can only change if sheds feed it.
        admit.breaker_cooldown_ticks = 64;
        let admit = admit.with_tenants(vec![
            (TenantId::new("zed"), TenantPolicy::limited(1, 0, 0)),
            (TenantId::new("vic"), TenantPolicy::default()),
            (TenantId::new("pois"), TenantPolicy::default()),
        ]);
        let poison = ServeRequest::CoverageProbe {
            table: "missing".into(),
            attributes: vec!["group".into()],
            threshold: 1,
        };
        let healthy = ServeRequest::CoverageProbe {
            table: "pop".into(),
            attributes: vec!["group".into()],
            threshold: 10,
        };

        let mut rt = Runtime::new(RuntimeConfig::default());
        let group = LakeActorGroup::host(&mut rt, lake());
        let session = group.spawn_session_with_admission(&mut rt, "s0", config, admit);
        // Windows 1-3: "zed" is quota-shed every window (its poison
        // would fail if executed), and with one slot for two eligible
        // tenants, "vic" and the default tenant trade queue sheds via
        // aging. If queue or quota sheds fed the breaker, three
        // windows would cross the threshold of 2 and trip one.
        for _ in 0..3 {
            session
                .send(SessionMsg::SubmitTagged(vec![
                    healthy.clone().tagged(TenantId::default()),
                    poison.clone().tagged(TenantId::new("zed")),
                    healthy.clone().tagged(TenantId::new("vic")),
                ]))
                .unwrap();
        }
        // Windows 4-5: "pois" alone gets admitted, fails twice, trips.
        for _ in 0..2 {
            session
                .send(SessionMsg::SubmitTagged(vec![poison
                    .clone()
                    .tagged(TenantId::new("pois"))]))
                .unwrap();
        }
        rt.run_until_idle();
        let actor = rt.actor::<SessionActor>(session.id()).unwrap();
        for name in ["zed", "vic"] {
            let t = TenantId::new(name);
            assert_eq!(
                actor.admitter().breaker_failures(&t),
                0,
                "sheds fed {name}'s breaker"
            );
            assert_eq!(actor.admitter().breaker_state(&t), RecoveryState::Closed);
        }
        let pois = TenantId::new("pois");
        assert!(actor.admitter().breaker_is_open(&pois));
        let failures_at_trip = actor.admitter().breaker_failures(&pois);

        // Windows 6-7: every "pois" request is a CircuitOpen shed;
        // the failure count must not move.
        for _ in 0..2 {
            session
                .send(SessionMsg::SubmitTagged(vec![
                    poison.clone().tagged(pois.clone()),
                    poison.clone().tagged(pois.clone()),
                ]))
                .unwrap();
        }
        rt.run_until_idle();
        let actor = rt.actor::<SessionActor>(session.id()).unwrap();
        let shed_batches = &actor.completed()[5..];
        assert_eq!(shed_batches.len(), 2);
        for report in shed_batches {
            assert_eq!(report.admitted, 0);
            assert_eq!(report.shed, 2);
        }
        assert!(actor.admitter().breaker_is_open(&pois));
        assert_eq!(actor.admitter().breaker_failures(&pois), failures_at_trip);
    }

    #[test]
    fn concurrent_sessions_each_match_their_serial_run() {
        let streams: Vec<Vec<Vec<ServeRequest>>> = vec![
            vec![mixed_batch(), error_batch()],
            vec![error_batch(), mixed_batch()],
            vec![mixed_batch(), mixed_batch()],
            vec![vec![ServeRequest::UnionTopK {
                query: keyed(&["x", "b"]),
                k: 3,
            }]],
        ];
        let mut rt = Runtime::new(RuntimeConfig::default());
        let group = LakeActorGroup::host(&mut rt, lake());
        let addrs: Vec<_> = (0..streams.len())
            .map(|i| {
                group.spawn_session(
                    &mut rt,
                    &format!("s{i}"),
                    SessionConfig {
                        seed: i as u64,
                        ..SessionConfig::default()
                    },
                )
            })
            .collect();
        // interleave: all sessions' batch 0, then all batch 1, ...
        let max_batches = streams.iter().map(Vec::len).max().unwrap_or(0);
        for b in 0..max_batches {
            for (s, stream) in streams.iter().enumerate() {
                if let Some(batch) = stream.get(b) {
                    addrs[s].send(SessionMsg::Submit(batch.clone())).unwrap();
                }
            }
        }
        rt.run_until_idle();
        for (s, stream) in streams.iter().enumerate() {
            let mut serial = ServeSession::new(
                lake(),
                SessionConfig {
                    seed: s as u64,
                    ..SessionConfig::default()
                },
            );
            let want: Vec<BatchReport> = stream.iter().map(|b| serial.submit_batch(b)).collect();
            let actor = rt.actor::<SessionActor>(addrs[s].id()).unwrap();
            assert_eq!(actor.completed().len(), want.len(), "session {s}");
            for (got, want) in actor.completed().iter().zip(&want) {
                assert_eq!(got.responses, want.responses, "session {s}");
            }
        }
    }

    #[test]
    fn maintenance_routes_deltas_and_reassembly_round_trips() {
        let mut rt = Runtime::new(RuntimeConfig::default());
        let group = LakeActorGroup::host(&mut rt, lake());
        let maint = group.maint().clone();
        maint
            .send(MaintMsg::Delta {
                id: "abc".into(),
                delta: TableDelta::Append(keyed(&["z", "w"])),
            })
            .unwrap();
        maint
            .send(MaintMsg::Upsert {
                id: "fresh".into(),
                table: keyed(&["q"]),
                cost: 1.0,
            })
            .unwrap();
        maint
            .send(MaintMsg::Delta {
                id: "ghost".into(),
                delta: TableDelta::Drop,
            })
            .unwrap();
        rt.run_until_idle();
        let m = rt.actor::<MaintActor>(maint.id()).unwrap();
        assert_eq!(m.applied(), 2);
        assert_eq!(m.rows_applied(), 2);
        assert_eq!(m.errors().len(), 1);
        assert_eq!(m.errors()[0].0, "ghost");

        let index = group.reassemble(&mut rt).unwrap();
        assert!(index.contains("fresh"));
        assert_eq!(index.table("abc").map(Table::num_rows), Some(5));

        // the reassembled index answers like one that saw the same
        // mutations inline
        let mut inline = lake();
        inline
            .apply_delta("abc", &TableDelta::Append(keyed(&["z", "w"])))
            .unwrap();
        inline.register("fresh", keyed(&["q"]), 1.0).unwrap();
        let mut a = inline;
        let mut b = index;
        let q = keyed(&["a", "z"]);
        assert_eq!(a.union_top_k(&q, 3).unwrap(), b.union_top_k(&q, 3).unwrap());
    }

    #[test]
    fn replay_is_bitwise_across_thread_counts_and_stable_across_seeds() {
        use rdi_par::Threads;
        let run = |scheduler_seed: u64, threads: Threads| {
            let mut rt = Runtime::new(RuntimeConfig {
                seed: scheduler_seed,
                latency_spread: 4,
                threads,
            });
            let group = LakeActorGroup::host(&mut rt, lake());
            let s0 = group.spawn_session(&mut rt, "s0", SessionConfig::default());
            let s1 = group.spawn_session(&mut rt, "s1", SessionConfig::default());
            s0.send(SessionMsg::Submit(mixed_batch())).unwrap();
            s1.send(SessionMsg::Submit(mixed_batch())).unwrap();
            s0.send(SessionMsg::Submit(error_batch())).unwrap();
            rt.run_until_idle();
            let log = rt.event_log().render();
            let r0 = format!(
                "{:?}",
                rt.actor::<SessionActor>(s0.id()).unwrap().completed()
            );
            let r1 = format!(
                "{:?}",
                rt.actor::<SessionActor>(s1.id()).unwrap().completed()
            );
            (log, r0, r1)
        };
        let base = run(7, Threads::fixed(1));
        assert_eq!(
            base,
            run(7, Threads::fixed(2)),
            "thread count must not matter"
        );
        assert_eq!(base, run(7, Threads::fixed(8)));
        // a different scheduler seed may reorder deliveries (log can
        // differ) but responses are schedule-independent
        let other = run(99, Threads::fixed(2));
        assert_eq!(base.1, other.1);
        assert_eq!(base.2, other.2);
    }
}
