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
//! ## One batch, driven by messages
//!
//! A session actor drives the same batch (`crate::batch`) as the serial
//! session: it admits through the shared [`Admitter`], sends each
//! contacted shard one [`ShardMsg::Warm`] holding its needs in arrival
//! order, hands each reply's parts, table count and eviction decisions
//! back to the batch, and once every contacted shard has replied runs
//! the plans inline in its handler. Plans, error precedence and seeds
//! therefore match the serial path by construction, so **responses are
//! bitwise identical to the equivalent serial
//! [`ServeSession`](crate::ServeSession) runs** — for any scheduler
//! seed, any interleaving of sessions, and any `RDI_THREADS` value. A
//! session processes one batch at a time (later submissions are
//! backlogged in arrival order), so per-session breaker and arrival
//! state evolve exactly as they do serially.

use std::collections::{BTreeSet, VecDeque};

use rdi_actor::{Actor, ActorId, Addr, Ctx, Runtime};
use rdi_fault::RecoveryState;
use rdi_obs::ProvenanceEvent;
use rdi_policy::PolicySet;
use rdi_table::{Table, TableDelta};

use crate::admit::{AdmitConfig, Admitter, TaggedRequest, TenantId};
use crate::batch::Batch;
use crate::cache::CacheGauges;
use crate::error::ServeError;
use crate::index::{execute, shard_route, LakeIndex, LakeIndexConfig, Shard, WarmNeed, WarmPart};
use crate::request::ServeRequest;
use crate::session::{BatchReport, SessionConfig};

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
}

impl Actor for ShardActor {
    type Msg = ShardMsg;

    fn handle(&mut self, msg: ShardMsg, ctx: &mut Ctx<'_>) {
        match msg {
            ShardMsg::Warm(wb) => {
                let parts = wb
                    .needs
                    .into_iter()
                    .map(|(pos, need)| (pos, self.shard.warm(need, self.config.minhash_k)))
                    .collect();
                ctx.send(
                    wb.session,
                    SessionMsg::Warm(WarmReply {
                        batch: wb.batch,
                        shard_index: self.shard_index,
                        tables_in_shard: self.shard.len(),
                        cache_bytes: self.shard.cache_bytes(),
                        parts,
                        evictions: self.shard.drain_decisions().collect(),
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
                let rows = self
                    .shard
                    .upsert(id.as_str().into(), table, cost)
                    .map(|()| 0usize);
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
pub struct WarmReply {
    pub(crate) batch: u64,
    pub(crate) shard_index: usize,
    pub(crate) tables_in_shard: usize,
    /// The bytes the shard's cache holds after the warm.
    pub(crate) cache_bytes: usize,
    pub(crate) parts: Vec<(usize, WarmPart)>,
    /// The shard cache's eviction decisions since its last reply.
    pub(crate) evictions: Vec<ProvenanceEvent>,
}

/// Leaves out `cache_bytes` and `evictions`: the actor event log
/// summarizes messages by their `Debug` text, and a reply renders as it
/// did before it carried the shard's cache size and decisions.
impl std::fmt::Debug for WarmReply {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WarmReply")
            .field("batch", &self.batch)
            .field("shard_index", &self.shard_index)
            .field("tables_in_shard", &self.tables_in_shard)
            .field("parts", &self.parts)
            .finish()
    }
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

/// The batch in flight (numbered by the admitter's tick): its requests,
/// the shards still owed a warm reply, and the [`Batch`] their replies
/// feed.
#[derive(Debug)]
struct Inflight {
    requests: Vec<TaggedRequest>,
    pending: BTreeSet<usize>,
    state: Batch,
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
    shards: Vec<ActorId>,
    admitter: Admitter,
    policies: PolicySet,
    inflight: Option<Inflight>,
    backlog: VecDeque<Vec<TaggedRequest>>,
    completed: Vec<BatchReport>,
    /// Publishes the replying shards' cache bytes at the end of every
    /// batch.
    gauges: CacheGauges,
}

impl SessionActor {
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

    /// Admit through [`Batch::start`] and send each contacted shard one
    /// [`ShardMsg::Warm`] holding its needs in arrival order.
    fn start_batch(&mut self, requests: Vec<TaggedRequest>, ctx: &mut Ctx<'_>) {
        let tenants = requests.iter().map(|r| r.tenant.clone()).collect();
        let refs: Vec<&ServeRequest> = requests.iter().map(|r| &r.request).collect();
        let (state, warm) = Batch::start(&mut self.admitter, tenants, &refs, self.shards.len());
        let mut per_shard: Vec<Vec<(usize, WarmNeed)>> =
            self.shards.iter().map(|_| Vec::new()).collect();
        for (pos, si, need) in warm {
            per_shard[si].push((pos, need));
        }
        let mut pending = BTreeSet::new();
        let (session, batch) = (ctx.self_id(), self.admitter.ticks());
        for (si, needs) in per_shard.into_iter().enumerate() {
            if !needs.is_empty() {
                pending.insert(si);
                let msg = WarmBatch {
                    session,
                    batch,
                    needs,
                };
                ctx.send(self.shards[si], ShardMsg::Warm(msg));
            }
        }
        let done = pending.is_empty();
        self.inflight = Some(Inflight {
            requests,
            pending,
            state,
        });
        if done {
            self.finish_batch(ctx);
        }
    }

    /// Once every contacted shard has replied: run the plans inline in
    /// this handler, keep the report and start the next backlogged
    /// batch.
    fn finish_batch(&mut self, ctx: &mut Ctx<'_>) {
        let Some(fl) = self.inflight.take() else {
            return;
        };
        let refs: Vec<&ServeRequest> = fl.requests.iter().map(|r| &r.request).collect();
        let report = fl.state.finish(
            &mut self.admitter,
            &refs,
            &self.policies,
            &mut self.gauges,
            |jobs| {
                jobs.iter()
                    .map(|(seed, plan)| execute(plan, *seed))
                    .collect()
            },
        );
        self.completed.push(report);
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
                    Some(fl) if reply.batch == self.admitter.ticks() => {
                        let state = &mut fl.state;
                        state.replied(
                            reply.shard_index,
                            reply.tables_in_shard,
                            reply.cache_bytes,
                            reply.evictions,
                        );
                        for (pos, part) in reply.parts {
                            state.warmed(pos, part);
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
    /// knobs (quotas, weights, aging); `config` supplies only the
    /// session seed: its `queue_capacity`, `breaker_threshold` and
    /// `breaker_cooldown_ticks` are ignored.
    pub fn spawn_session_with_admission(
        &self,
        rt: &mut Runtime,
        name: &str,
        config: SessionConfig,
        admit: AdmitConfig,
    ) -> Addr<SessionMsg> {
        let session = SessionActor {
            admitter: Admitter::new(admit, config.seed),
            config,
            shards: self.shard_actors.clone(),
            policies: self.policies.clone(),
            inflight: None,
            backlog: VecDeque::new(),
            completed: Vec::new(),
            gauges: CacheGauges::default(),
        };
        rt.spawn(name, session)
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
        lake_over(LakeIndexConfig::default().shard_count)
    }

    fn empty_lake(shard_count: usize) -> LakeIndex {
        LakeIndex::new(LakeIndexConfig {
            shard_count,
            ..LakeIndexConfig::default()
        })
    }

    fn lake_over(shard_count: usize) -> LakeIndex {
        let mut idx = empty_lake(shard_count);
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
            ServeRequest::JoinableTopK {
                query: {
                    let mut t = keyed(&[]);
                    t.push_row(vec![Value::Null]).unwrap();
                    t
                },
                column: "key".into(),
                k: 1,
            },
        ]
    }

    /// Default-tenant batches under the session's own admission knobs.
    fn untagged(batches: &[Vec<ServeRequest>]) -> (AdmitConfig, Vec<Vec<TaggedRequest>>) {
        let tagged = batches
            .iter()
            .map(|b| b.iter().cloned().map(TaggedRequest::from).collect())
            .collect();
        (AdmitConfig::from_session(&SessionConfig::default()), tagged)
    }

    /// The actor-hosted session must answer like the serial session fed
    /// the same stream over the same lake under the same admission: at
    /// shard counts {1, 8}, runtime threads {1, 8} and two scheduler
    /// seeds, every report matches bitwise (decisions included), every
    /// tenant's breaker, tokens, aging and arrivals match, and the
    /// hosted shards end up holding exactly the serial index's sketches.
    fn assert_matches_serial(
        lake: fn(usize) -> LakeIndex,
        admit: &AdmitConfig,
        batches: &[Vec<TaggedRequest>],
    ) {
        use rdi_par::Threads;
        let config = SessionConfig::default();
        let mut tenants: Vec<&TenantId> = batches.iter().flatten().map(|r| &r.tenant).collect();
        tenants.sort();
        tenants.dedup();
        for shards in [1, 8] {
            let mut serial = ServeSession::with_admission(lake(shards), config, admit.clone());
            let want: Vec<BatchReport> = batches
                .iter()
                .map(|b| serial.submit_batch_tagged(b))
                .collect();
            for (threads, seed) in [(1, 7), (1, 99), (8, 7), (8, 99)] {
                let at = format!("{shards} shards, {threads} threads, scheduler seed {seed}");
                let mut rt = Runtime::new(RuntimeConfig {
                    seed,
                    latency_spread: 4,
                    threads: Threads::fixed(threads),
                });
                let group = LakeActorGroup::host(&mut rt, lake(shards));
                let session =
                    group.spawn_session_with_admission(&mut rt, "s0", config, admit.clone());
                for b in batches {
                    session.send(SessionMsg::SubmitTagged(b.clone())).unwrap();
                }
                rt.run_until_idle();
                let actor = rt.actor::<SessionActor>(session.id()).unwrap();
                assert_eq!(actor.completed().len(), want.len(), "{at}");
                for (got, want) in actor.completed().iter().zip(&want) {
                    assert_eq!(got.admitted, want.admitted, "{at}");
                    assert_eq!(got.shed, want.shed, "{at}");
                    assert_eq!(got.degraded, want.degraded, "{at}");
                    assert_eq!(got.responses, want.responses, "{at}");
                    assert_eq!(got.decisions, want.decisions, "{at}");
                }
                let (got, want) = (actor.admitter(), serial.admitter());
                for t in &tenants {
                    assert_eq!(got.breaker_state(t), want.breaker_state(t), "{t}, {at}");
                    assert_eq!(got.tokens(t), want.tokens(t), "{t}, {at}");
                    assert_eq!(got.aging(t), want.aging(t), "{t}, {at}");
                    let arrivals = (got.tenant_arrivals(t), want.tenant_arrivals(t));
                    assert_eq!(arrivals.0, arrivals.1, "{t}, {at}");
                }
                let hosted = group.reassemble(&mut rt).unwrap();
                let index = serial.index();
                assert_eq!(hosted.cached_sketches(), index.cached_sketches(), "{at}");
                assert_eq!(hosted.cache_bytes(), index.cache_bytes(), "{at}");
            }
        }
    }

    #[test]
    fn hosted_session_matches_serial_session_bitwise() {
        let (admit, batches) = untagged(&[mixed_batch(), mixed_batch()]);
        assert_matches_serial(lake_over, &admit, &batches);
    }

    /// A lake whose sketches overflow a 4 KiB cache, so most warms
    /// evict.
    fn tight_lake(shard_count: usize) -> LakeIndex {
        let mut idx = LakeIndex::new(LakeIndexConfig {
            cache_capacity_bytes: 4 << 10,
            shard_count,
            ..LakeIndexConfig::default()
        });
        for i in 0..16 {
            let vals: Vec<String> = (0..8).map(|j| format!("v{}", i * 3 + j)).collect();
            let vals: Vec<&str> = vals.iter().map(String::as_str).collect();
            idx.register(format!("t{i:02}"), keyed(&vals), 1.0).unwrap();
        }
        idx
    }

    /// Eviction decisions travel back with each warm reply and land in
    /// the batch report in the serial order, so none pile up in the
    /// shard actors however long the session runs.
    #[test]
    fn eviction_decisions_are_reported_per_batch_not_hoarded() {
        let batch = |i: usize| {
            vec![ServeRequest::UnionTopK {
                query: keyed(&[&format!("v{i}"), "v1"]),
                k: 2,
            }]
        };
        let batches: Vec<Vec<ServeRequest>> = (0..4).map(batch).collect();
        let (admit, tagged) = untagged(&batches);
        assert_matches_serial(tight_lake, &admit, &tagged);

        let mut rt = Runtime::new(RuntimeConfig::default());
        let group = LakeActorGroup::host(&mut rt, tight_lake(8));
        let session = group.spawn_session(&mut rt, "s0", SessionConfig::default());
        for i in 0..1_000 {
            session.send(SessionMsg::Submit(batch(i))).unwrap();
        }
        rt.run_until_idle();
        let reported: usize = rt
            .actor::<SessionActor>(session.id())
            .unwrap()
            .completed()
            .iter()
            .flat_map(|r| &r.decisions)
            .filter(|e| matches!(e, ProvenanceEvent::PolicyDecision { policy, .. } if *policy == "serve.cache_evict"))
            .count();
        assert!(reported > 1_000, "the stream must evict: {reported}");
        let mut hosted = group.reassemble(&mut rt).unwrap();
        assert_eq!(hosted.drain_decisions().len(), 0, "undrained in the shards");
    }

    /// Pins ZeroK > EmptyIndex > query errors on both paths, over a
    /// populated and an empty lake. (`error_batch` trips the breaker,
    /// so on the empty lake the well-formed batch goes first.)
    #[test]
    fn error_precedence_matches_serial() {
        let (admit, batches) = untagged(&[error_batch(), mixed_batch()]);
        assert_matches_serial(lake_over, &admit, &batches);
        let (admit, batches) = untagged(&[mixed_batch(), error_batch()]);
        assert_matches_serial(empty_lake, &admit, &batches);
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
        let (admit, batches) = untagged(&batches);
        assert_matches_serial(lake_over, &admit, &batches);
    }

    /// Multi-tenant admission dedup regression: a tagged stream that
    /// exercises every shed kind (quota, queue, breaker) must produce
    /// bitwise-identical reports and identical per-tenant admission
    /// state on the serial and actor paths — both run the same `Batch`
    /// over the same `Admitter`, so any drift means the logic forked.
    #[test]
    fn tagged_multitenant_stream_matches_serial_bitwise() {
        use crate::admit::TenantPolicy;
        let mut admit = AdmitConfig::from_session(&SessionConfig::default());
        admit.queue_capacity = 4;
        admit.breaker_threshold = 2;
        admit.breaker_cooldown_ticks = 2;
        let admit = admit.with_tenants(vec![
            (TenantId::new("metered"), TenantPolicy::limited(1, 1, 2)),
            (TenantId::new("greedy"), TenantPolicy::default()),
            (TenantId::new("pois"), TenantPolicy::default()),
        ]);
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
        assert_matches_serial(lake_over, &admit, &batches);
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
