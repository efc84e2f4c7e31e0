//! The persistent lake index: registered tables, their maintained
//! sketch stores and a memoized query-sketch cache, sharded by table id
//! and maintained incrementally under lake churn.
//!
//! A [`LakeIndex`] owns every registered table (shared as `Arc` so
//! batch execution can read them without cloning) behind a fixed
//! number of **shards**: each table id is assigned to
//! `hash(id) % shard_count` — a pure function of the id, so the
//! assignment is identical across processes and thread counts. A
//! registered table's union signature and join profiles are read
//! straight from its own maintained store (module `maint`), which
//! lives exactly as long as the table; each shard's [`SketchCache`]
//! slice of the global byte budget holds ad-hoc query sketches only.
//! All mutation — registration, delta application, and sketch warming
//! — happens on `&mut self`; query *execution* runs over immutable
//! `Prepared` plans whose `Arc` handles were cloned out of the stores
//! and the caches during the serial warm pass, which is what lets a
//! batch fan out over `rdi-par` while staying bitwise identical to
//! serial execution.
//!
//! ## Incremental maintenance
//!
//! [`LakeIndex::apply_delta`] absorbs a [`TableDelta`] with sketch
//! work proportional to the delta, not the table: appends extend the
//! maintained per-column sketches value by value, deletes repair them
//! exactly through their multiplicity maps. A table's union signature
//! and join profiles read the same column sketches (one store per
//! table), so each column absorbs a delta once, and the next read
//! derives its snapshots from them without building a sketch. A
//! registered table carries no content fingerprint: an upsert keeps
//! the store only when the new table equals the old (`Table ==`, which
//! compares float cells bit for bit, as the sketches hash them), and
//! only ad-hoc query tables are fingerprinted, for their cache keys.
//! Deletion repair is exact but its signature-position repair cost
//! grows with accumulated churn, so once absorbed deletions exceed
//! [`LakeIndexConfig::deletion_debt_threshold`] the index rebuilds each
//! maintained column once (one `sketch.rebuilds` count per sketch kind)
//! and resets the debt — a cost policy only; answers are bitwise
//! identical on both sides.

use std::collections::BTreeMap;
use std::sync::Arc;

use rand::rngs::StdRng;
use rand::SeedableRng;
use rdi_coverage::{CoverageAnalyzer, PatternCounter};
use rdi_discovery::hash::hash_bytes;
use rdi_discovery::{rank_scored, ColumnMatcher, MinHash, TableSignature};
use rdi_obs::{Gauge, ProvenanceEvent};
use rdi_par::Threads;
use rdi_policy::{PolicyId, PolicyParams, PolicySet};
use rdi_table::{Encoded, EncodedColumns, Table, TableDelta};
use rdi_tailor::{DtProblem, RandomPolicy, TableSource};

use crate::batch::Executed;
use crate::cache::{
    self, CacheGauges, CacheKey, KeyProfile, ShardBytes, Sketch, SketchCache, SketchKind,
};
use crate::error::ServeError;
use crate::maint::Maintained;
use crate::metrics;
use crate::request::{CoverageReport, ServeRequest, ServeResponse, TailorReport};

/// Seed domain for shard assignment (distinct from every sketch seed).
const SHARD_SEED: u64 = 0x5348_4152_4421;

/// Deterministic shard assignment: a pure function of the id bytes and
/// the shard count, identical across processes and thread counts. Used
/// both by [`LakeIndex::shard_of`] and by the actor hosting layer
/// (`crate::actors`), which routes messages without owning an index.
pub(crate) fn shard_route(id: &str, shard_count: usize) -> usize {
    (hash_bytes(id.as_bytes(), SHARD_SEED) % shard_count.max(1) as u64) as usize
}

/// Sizing knobs for a [`LakeIndex`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LakeIndexConfig {
    /// MinHash signature length for union signatures and join profiles.
    pub minhash_k: usize,
    /// Total query-sketch cache capacity in accounted bytes, split
    /// across shards (remainder bytes go to the lowest-numbered shards).
    /// Registered tables' sketches live in their maintained stores and
    /// are not charged against it. Every query sketch is cached on the
    /// one shard that `"<query>"` routes to ([`LakeIndex::shard_of`]), so
    /// the query cache holds at most that shard's slice, about
    /// `1/shard_count` of this budget; the other slices stay empty.
    pub cache_capacity_bytes: usize,
    /// Number of index shards (≥ 1; table ids are assigned by hash).
    pub shard_count: usize,
    /// Deleted rows absorbed incrementally per table before one counted
    /// sketch rebuild resets the debt.
    pub deletion_debt_threshold: u64,
}

impl Default for LakeIndexConfig {
    fn default() -> Self {
        LakeIndexConfig {
            minhash_k: 128,
            cache_capacity_bytes: 4 << 20,
            shard_count: 8,
            deletion_debt_threshold: 512,
        }
    }
}

/// One registered table plus its maintained sketch state.
#[derive(Debug)]
struct Registered {
    table: Arc<Table>,
    cost: f64,
    /// Lazily-populated maintained sketch state (see `maint`).
    maint: Maintained,
    /// Dictionary-encoded columns by name, encoded the first time a
    /// coverage or tailoring need names them and dropped by every
    /// delta (see [`Registered::codes_for`]).
    codes: BTreeMap<String, Arc<Encoded>>,
}

impl Registered {
    /// The encoded columns among `attributes` that the table has, each
    /// encoded on first use and shared from then on. Attributes the
    /// table lacks are left out, so reading them from the result fails
    /// as reading them from the table would.
    fn codes_for<'a>(
        &mut self,
        attributes: impl IntoIterator<Item = &'a String>,
    ) -> EncodedColumns {
        attributes
            .into_iter()
            .filter_map(|a| {
                let codes = match self.codes.get(a) {
                    Some(codes) => Arc::clone(codes),
                    None => {
                        let codes = Arc::new(self.table.column(a).ok()?.encode());
                        self.codes.insert(a.clone(), Arc::clone(&codes));
                        codes
                    }
                };
                Some((a.clone(), codes))
            })
            .collect()
    }
}

/// A shard's union candidates: every registered table's id and union
/// signature, in sorted-id order.
type UnionList = Arc<[(Arc<str>, Arc<TableSignature>)]>;

/// A shard's join candidates on one key column: the id and key profile
/// of every registered table that has the column, in sorted-id order.
type JoinList = Arc<[(Arc<str>, Arc<KeyProfile>)]>;

/// One shard: its slice of the table map, each table with its
/// maintained sketch store, its candidate lists, and its slice of the
/// query-cache byte budget.
///
/// The candidate lists are the `Maintained` snapshot pattern one level
/// up: a list is built on the first read after a change to the shard
/// (from the tables' own shared snapshots) and dropped by every
/// [`Shard::upsert`] and [`Shard::apply_delta`], so between changes a
/// top-k request takes one `Arc` per shard, not one per candidate. Join
/// lists are kept only for columns that some table in the shard has.
///
/// Request preparation is three steps, written once: [`needs`] turns a
/// request into per-shard [`WarmNeed`]s without touching any shard,
/// [`Shard::warm`] serves one need from one shard (the only step that
/// reads sketches, and so the only one that builds them or touches the
/// cache), and [`assemble`] merges the shards'
/// [`WarmPart`]s into a [`Prepared`] plan. A serving batch
/// (`crate::batch`) runs `needs` and `assemble` around shards its driver
/// reaches inline, or as `ShardActor`s (`crate::actors`) by message.
/// Sizing knobs (`minhash_k`, `deletion_debt_threshold`) are passed per
/// call: the shard itself stays config-free so it can move between
/// hosts.
#[derive(Debug)]
pub(crate) struct Shard {
    /// Registered tables by id. The id is shared from here on: plan
    /// candidates and policy candidates clone the `Arc`.
    tables: BTreeMap<Arc<str>, Registered>,
    /// The union candidates as of the last change, built on first read.
    union: Option<UnionList>,
    /// Join candidates by key column as of the last change, each built
    /// on the first read that names its column.
    joins: BTreeMap<Arc<str>, JoinList>,
    cache: SketchCache,
}

impl Shard {
    fn new(cache_capacity: usize) -> Self {
        Shard {
            tables: BTreeMap::new(),
            union: None,
            joins: BTreeMap::new(),
            cache: SketchCache::new(cache_capacity),
        }
    }

    /// Drop the candidate lists: the next top-k read rebuilds them.
    fn changed(&mut self) {
        self.union = None;
        self.joins.clear();
    }

    /// Registered-table count in this shard.
    pub(crate) fn len(&self) -> usize {
        self.tables.len()
    }

    /// The accounted bytes this shard's query cache holds and the
    /// footprint of its tables' maintained stores.
    pub(crate) fn bytes(&self) -> ShardBytes {
        ShardBytes {
            cache: self.cache.bytes(),
            maint: self
                .tables
                .values()
                .map(|r| r.maint.bytes())
                .fold(0, usize::saturating_add),
        }
    }

    /// Take the cache's eviction decisions recorded since the last
    /// drain, oldest first.
    pub(crate) fn drain_decisions(&mut self) -> std::vec::Drain<'_, ProvenanceEvent> {
        self.cache.drain_decisions()
    }

    /// Register or replace a table (validation included). Replacing a
    /// table by equal content (`Table ==`, float cells bit for bit, the
    /// equality the sketches see) keeps its maintained store, so the
    /// next read builds no sketch; any other replacement starts an empty
    /// one. Either way the shard's candidate lists are dropped.
    pub(crate) fn upsert(
        &mut self,
        id: Arc<str>,
        table: Table,
        cost: f64,
    ) -> Result<(), ServeError> {
        if table.is_empty() {
            return Err(ServeError::EmptyTable(id.to_string()));
        }
        if cost.partial_cmp(&0.0) != Some(std::cmp::Ordering::Greater) {
            return Err(ServeError::InvalidCost(cost));
        }
        metrics::SHARD_ROUTED.inc();
        self.changed();
        let maint = match self.tables.remove(&id) {
            Some(old) if *old.table == table => old.maint,
            _ => Maintained::new(table.num_columns()),
        };
        self.tables.insert(
            id,
            Registered {
                table: Arc::new(table),
                cost,
                maint,
                codes: BTreeMap::new(),
            },
        );
        Ok(())
    }

    /// Apply a delta to a table registered in this shard (see
    /// [`LakeIndex::apply_delta`] for the maintenance contract),
    /// dropping the shard's candidate lists.
    pub(crate) fn apply_delta(
        &mut self,
        id: &str,
        delta: &TableDelta,
        k: usize,
        debt_threshold: u64,
    ) -> Result<usize, ServeError> {
        metrics::SHARD_ROUTED.inc();
        self.changed();

        if matches!(delta, TableDelta::Drop) {
            // the table's sketches go with its maintained store
            if self.tables.remove(id).is_none() {
                return Err(ServeError::UnknownTable(id.to_string()));
            }
            return Ok(0);
        }

        let r = self
            .tables
            .get_mut(id)
            .ok_or_else(|| ServeError::UnknownTable(id.to_string()))?;
        // codes are re-encoded on next use, not patched
        r.codes.clear();
        let rows_touched = match delta {
            TableDelta::Append(rows) => {
                Arc::make_mut(&mut r.table).append(rows)?;
                r.maint.append_rows(rows);
                rows.num_rows()
            }
            TableDelta::Delete(indices) => {
                let removed = Arc::make_mut(&mut r.table).delete_rows(indices)?;
                r.maint.remove_rows(&removed, &r.table, k, debt_threshold);
                removed.num_rows()
            }
            TableDelta::Drop => 0, // handled above
        };
        metrics::DELTA_ROWS_APPLIED.add(rows_touched as u64);
        Ok(rows_touched)
    }

    /// Serve one request's need from this shard: fetch or build every
    /// sketch it names, the query sketch first (on the query-owner
    /// shard only, through the cache), then the shard's candidate list,
    /// built on the first read after a change from each registered
    /// table's maintained store in sorted-id order. The only step of
    /// request preparation that reads sketches, so this order is what
    /// the cache's hit, miss and eviction accounting sees.
    pub(crate) fn warm(&mut self, need: WarmNeed, k: usize) -> WarmPart {
        match need {
            WarmNeed::Count => WarmPart::Count,
            WarmNeed::Union { query } => {
                let query = query.map(|(fp, t)| self.query_union_signature(fp, &t, k));
                let candidates = self.union_list(k);
                WarmPart::Union { query, candidates }
            }
            WarmNeed::Join { column, query } => {
                let query = query.map(|(fp, t)| self.query_key_profile(fp, &t, &column, k));
                let candidates = self.join_list(&column, k);
                WarmPart::Join { query, candidates }
            }
            WarmNeed::Coverage {
                table,
                attributes,
                threshold,
            } => WarmPart::Coverage(match self.tables.get_mut(table.as_str()) {
                None => Err(ServeError::UnknownTable(table)),
                Some(r) => match attributes.iter().find(|a| r.table.column(a).is_err()) {
                    Some(a) => Err(ServeError::UnknownColumn {
                        table: table.clone(),
                        column: a.clone(),
                    }),
                    None => {
                        let codes = r.codes_for(&attributes);
                        Ok((table, r.table.clone(), attributes, threshold, codes))
                    }
                },
            }),
            WarmNeed::Tailor { ids, attributes } => WarmPart::Tailor {
                resolved: ids
                    .into_iter()
                    .map(|(pos, id)| match self.tables.get_mut(id.as_str()) {
                        Some(r) => {
                            let codes = r.codes_for(attributes.iter());
                            (pos, Ok((id, r.table.clone(), r.cost, codes)))
                        }
                        None => (pos, Err(ServeError::UnknownTable(id))),
                    })
                    .collect(),
            },
        }
    }

    /// The shard's union candidates, built on the first read after a
    /// change.
    fn union_list(&mut self, k: usize) -> UnionList {
        let tables = &mut self.tables;
        Arc::clone(self.union.get_or_insert_with(|| {
            tables
                .iter_mut()
                .map(|(id, r)| (Arc::clone(id), r.maint.signature(id, &r.table, k)))
                .collect()
        }))
    }

    /// The shard's join candidates on `column`, built on the first read
    /// after a change and kept only when some table has the column. A
    /// table without the key column is skipped, not an error: that
    /// lookup is the profile's only fallible step.
    fn join_list(&mut self, column: &Arc<str>, k: usize) -> JoinList {
        if let Some(list) = self.joins.get(column) {
            return Arc::clone(list);
        }
        let list: JoinList = self
            .tables
            .iter_mut()
            .filter_map(|(id, r)| {
                Some((Arc::clone(id), r.maint.profile(&r.table, column, k).ok()?))
            })
            .collect();
        if !list.is_empty() {
            self.joins.insert(Arc::clone(column), Arc::clone(&list));
        }
        list
    }

    /// Union signature for an ad-hoc query table, cached (without
    /// maintenance).
    fn query_union_signature(
        &mut self,
        fingerprint: u64,
        query: &Table,
        k: usize,
    ) -> Result<Arc<TableSignature>, ServeError> {
        let key = CacheKey {
            fingerprint,
            kind: SketchKind::Union { k },
        };
        if let Some(Sketch::Union(sig)) = self.cache.get(&key) {
            return Ok(sig);
        }
        // A query has a few short columns: sketching them costs less
        // than a thread spawn, so the warm phase stays on this thread.
        // Signatures are schema-ordered, so the bytes do not depend on
        // the thread count.
        let sig = Arc::new(TableSignature::build_with(
            CacheKey::QUERY_OWNER,
            query,
            k,
            Threads::serial(),
        )?);
        self.cache.insert(key, Sketch::Union(sig.clone()));
        Ok(sig)
    }

    /// Join profile for one column of an ad-hoc query table, cached
    /// (without maintenance).
    fn query_key_profile(
        &mut self,
        fingerprint: u64,
        query: &Table,
        column: &Arc<str>,
        k: usize,
    ) -> Result<Arc<KeyProfile>, ServeError> {
        let key = CacheKey {
            fingerprint,
            kind: SketchKind::Join {
                column: Arc::clone(column),
                k,
            },
        };
        if let Some(Sketch::Join(p)) = self.cache.get(&key) {
            return Ok(p);
        }
        let distinct = query
            .distinct(column)?
            .iter()
            .filter(|v| !v.is_null())
            .count();
        let profile = Arc::new(KeyProfile {
            column: column.to_string(),
            minhash: MinHash::from_column(query, column, k)?,
            distinct,
        });
        self.cache.insert(key, Sketch::Join(profile.clone()));
        Ok(profile)
    }
}

/// A persistent, in-process index over a lake of registered tables.
#[derive(Debug)]
pub struct LakeIndex {
    config: LakeIndexConfig,
    shards: Vec<Shard>,
    policies: PolicySet,
    decisions: Vec<ProvenanceEvent>,
    /// Publishes the shards' cache and maintained-store bytes after a
    /// change or a one-shot query.
    gauges: CacheGauges,
    /// Each shard's `serve.shard.{i}.tables` gauge, in shard order:
    /// resolved on the first change, so an index that never changes
    /// publishes none, and kept from then on.
    table_gauges: Vec<Arc<Gauge>>,
}

impl Default for LakeIndex {
    fn default() -> Self {
        LakeIndex::new(LakeIndexConfig::default())
    }
}

impl LakeIndex {
    /// An empty index with the given sizing. A `shard_count` of 0 is
    /// treated as 1.
    pub fn new(config: LakeIndexConfig) -> Self {
        let n = config.shard_count.max(1);
        let total = config.cache_capacity_bytes;
        let shards = (0..n)
            .map(|i| Shard::new(total / n + usize::from(i < total % n)))
            .collect();
        LakeIndex {
            config,
            shards,
            policies: PolicySet::new(),
            decisions: Vec::new(),
            gauges: CacheGauges::default(),
            table_gauges: Vec::new(),
        }
    }

    /// Disassemble into the configuration, the policy overrides, and
    /// the owned shards, in shard order — the actor hosting layer
    /// (`crate::actors`) moves each shard into its own `ShardActor`.
    /// Drain decisions first; undrained audit records do not survive
    /// disassembly.
    pub(crate) fn into_shards(self) -> (LakeIndexConfig, PolicySet, Vec<Shard>) {
        (self.config, self.policies, self.shards)
    }

    /// The shards, in shard order: the serial session warms a batch's
    /// needs on them and drains their eviction decisions.
    pub(crate) fn shards_mut(&mut self) -> &mut [Shard] {
        &mut self.shards
    }

    /// Reassemble an index from shards previously produced by
    /// [`LakeIndex::into_shards`] (shard order must be preserved —
    /// routing is positional).
    pub(crate) fn from_shards(
        config: LakeIndexConfig,
        policies: PolicySet,
        shards: Vec<Shard>,
    ) -> Self {
        LakeIndex {
            config,
            shards,
            policies,
            decisions: Vec::new(),
            gauges: CacheGauges::default(),
            table_gauges: Vec::new(),
        }
    }

    /// Override one selection site's params for this index. The union /
    /// join rankers consult the set when a plan is prepared;
    /// [`PolicyId::CACHE_EVICT`] overrides are pushed down into every
    /// shard's [`SketchCache`]. An empty set (the default) is
    /// bitwise-identical to the historic inline rules — note the cache
    /// site's *documented default* is `dir=min` (LRU), applied by the
    /// cache itself, so an explicit empty override here flips it to the
    /// policy-level default `dir=max` (MRU).
    pub fn set_policy(&mut self, site: PolicyId, params: PolicyParams) {
        if site == PolicyId::CACHE_EVICT {
            for s in &mut self.shards {
                s.cache.set_evict_params(params.clone());
            }
        }
        self.policies.set(site, params);
    }

    /// The selection-policy overrides active on this index.
    pub fn policies(&self) -> &PolicySet {
        &self.policies
    }

    /// Take every [`ProvenanceEvent::PolicyDecision`] recorded since
    /// the last drain: ranking decisions from the one-shot query paths
    /// first, then each shard cache's eviction decisions, in shard
    /// order.
    pub fn drain_decisions(&mut self) -> Vec<ProvenanceEvent> {
        let mut out = std::mem::take(&mut self.decisions);
        for s in &mut self.shards {
            out.extend(s.drain_decisions());
        }
        out
    }

    /// The index configuration.
    pub fn config(&self) -> &LakeIndexConfig {
        &self.config
    }

    /// Number of shards (≥ 1).
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Deterministic shard assignment for a table id: a pure function
    /// of the id bytes and the shard count.
    pub fn shard_of(&self, id: &str) -> usize {
        shard_route(id, self.shards.len())
    }

    /// Registered-table count per shard, in shard order.
    pub fn shard_table_counts(&self) -> Vec<usize> {
        self.shards.iter().map(|s| s.tables.len()).collect()
    }

    /// Per-shard cache capacities, in shard order; they sum to the
    /// configured global budget. Only the slice of the shard that
    /// `"<query>"` routes to is ever filled, since every query sketch is
    /// cached there (see [`LakeIndexConfig::cache_capacity_bytes`]).
    pub fn shard_cache_capacities(&self) -> Vec<usize> {
        self.shards.iter().map(|s| s.cache.capacity()).collect()
    }

    fn registered(&self, id: &str) -> Option<&Registered> {
        self.shards[self.shard_of(id)].tables.get(id)
    }

    /// Register a table under a unique id with a per-draw cost (used by
    /// [`ServeRequest::TailorRun`]). Registration hashes no cell: the
    /// table's sketches are built on first read. Re-registering the same
    /// id is an error ([`ServeError::DuplicateTable`]) — use
    /// [`LakeIndex::upsert`] to replace — as are empty tables and
    /// non-positive costs.
    pub fn register(
        &mut self,
        id: impl Into<String>,
        table: Table,
        cost: f64,
    ) -> Result<(), ServeError> {
        let id = id.into();
        if self.contains(&id) {
            return Err(ServeError::DuplicateTable(id));
        }
        self.upsert(id, table, cost)
    }

    /// Register or replace a table. Replacing an id whose content
    /// changed drops its maintained sketch store with the old content;
    /// the next read builds and counts fresh sketches. Replacing it
    /// with equal content keeps the store, so the next read builds
    /// nothing.
    pub fn upsert(
        &mut self,
        id: impl Into<String>,
        table: Table,
        cost: f64,
    ) -> Result<(), ServeError> {
        let id: String = id.into();
        let si = self.shard_of(&id);
        self.shards[si].upsert(id.into(), table, cost)?;
        self.publish_stats();
        Ok(())
    }

    /// Apply a delta to a registered table, maintaining its
    /// materialized sketches with work proportional to the delta. Counts `serve.delta.rows_applied`; sketch maintenance
    /// counts `sketch.incremental_updates` per absorbed value and
    /// maintained column, and `sketch.rebuilds` per maintained sketch
    /// kind when deletion debt crosses the threshold.
    /// Returns the number of rows touched.
    ///
    /// `Drop` deregisters the table and drops its maintained sketch
    /// store; the id can be registered again later.
    pub fn apply_delta(&mut self, id: &str, delta: &TableDelta) -> Result<usize, ServeError> {
        let k = self.config.minhash_k;
        let debt_threshold = self.config.deletion_debt_threshold;
        let si = self.shard_of(id);
        let rows_touched = self.shards[si].apply_delta(id, delta, k, debt_threshold)?;
        self.publish_stats();
        Ok(rows_touched)
    }

    /// Publish index-level and per-shard gauges.
    fn publish_stats(&mut self) {
        metrics::INDEX_TABLES.set(self.len() as f64);
        if self.table_gauges.is_empty() {
            self.table_gauges = (0..self.shards.len()).map(metrics::shard_tables).collect();
        }
        for (gauge, s) in self.table_gauges.iter().zip(&self.shards) {
            gauge.set(s.tables.len() as f64);
        }
        self.publish_bytes();
    }

    /// Publish every shard's cache and maintained-store bytes and their
    /// sums.
    fn publish_bytes(&mut self) {
        let bytes = self.shards.iter().map(Shard::bytes).enumerate();
        self.gauges.publish(bytes);
    }

    /// Number of registered tables.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.tables.len()).sum()
    }

    /// True when no table is registered.
    pub fn is_empty(&self) -> bool {
        self.shards.iter().all(|s| s.tables.is_empty())
    }

    /// True when `id` is registered.
    pub fn contains(&self, id: &str) -> bool {
        self.registered(id).is_some()
    }

    /// Registered ids in deterministic (sorted) order.
    pub fn table_ids(&self) -> Vec<&str> {
        let mut ids: Vec<&str> = self
            .shards
            .iter()
            .flat_map(|s| s.tables.keys().map(|id| &**id))
            .collect();
        ids.sort_unstable();
        ids
    }

    /// A registered table by id.
    pub fn table(&self, id: &str) -> Option<&Table> {
        self.registered(id).map(|r| r.table.as_ref())
    }

    /// Accounted bytes currently held across all shard caches (query
    /// sketches only).
    pub fn cache_bytes(&self) -> usize {
        self.shards.iter().map(|s| s.cache.bytes()).sum()
    }

    /// Number of cached sketches across all shards: ad-hoc query
    /// sketches only, since registered tables' sketches live in their
    /// maintained stores.
    pub fn cached_sketches(&self) -> usize {
        self.shards.iter().map(|s| s.cache.len()).sum()
    }

    /// Charged footprint of every registered table's maintained sketch
    /// store, across all shards (published as `serve.maint.bytes`).
    pub fn maint_bytes(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.bytes().maint)
            .fold(0, usize::saturating_add)
    }

    /// Warm a one-shot request into its plan: [`needs`], then
    /// [`Shard::warm`] on each shard with a need, in shard order, then
    /// [`assemble`] (a session's batches take the same steps through
    /// `crate::batch`).
    pub(crate) fn prepare(&mut self, request: &ServeRequest) -> Result<Prepared, ServeError> {
        let (shard_needs, local_error) = needs(request, self.shards.len());
        let k = self.config.minhash_k;
        let parts = shard_needs
            .into_iter()
            .map(|(si, need)| self.shards[si].warm(need, k))
            .collect();
        assemble(request, parts, self.len(), local_error, &self.policies)
    }

    /// One-shot union top-k (`(table id, score)` descending, ties by
    /// name) — prepare + execute without a session. Degenerate inputs
    /// (`k = 0`, empty index, empty query) are typed errors.
    pub fn union_top_k(
        &mut self,
        query: &Table,
        k: usize,
    ) -> Result<Vec<(String, f64)>, ServeError> {
        self.top_k(&ServeRequest::UnionTopK {
            query: query.clone(),
            k,
        })
    }

    /// One-shot joinability top-k by estimated key containment.
    pub fn joinable_top_k(
        &mut self,
        query: &Table,
        column: &str,
        k: usize,
    ) -> Result<Vec<(String, f64)>, ServeError> {
        self.top_k(&ServeRequest::JoinableTopK {
            query: query.clone(),
            column: column.to_string(),
            k,
        })
    }

    fn top_k(&mut self, request: &ServeRequest) -> Result<Vec<(String, f64)>, ServeError> {
        let prepared = self.prepare(request);
        self.publish_bytes();
        Ok(match prepared? {
            Prepared::Union(plan) => execute_union(&plan, &mut self.decisions),
            Prepared::Join(plan) => execute_join(&plan, &mut self.decisions),
            // a top-k request prepares a top-k plan
            Prepared::Coverage { .. } | Prepared::Tailor { .. } => Vec::new(),
        })
    }
}

/// What one request needs from one shard during the warm step.
pub(crate) enum WarmNeed {
    /// Registered-table count only: [`needs`] already decided the
    /// request's error, but `EmptyIndex` takes precedence and needs the
    /// global count.
    Count,
    /// Union candidates; on the query-owner shard also the query
    /// signature (fingerprint + table attached).
    Union { query: Option<(u64, Arc<Table>)> },
    /// Join candidates for `column`; on the query-owner shard also the
    /// query key profile.
    Join {
        column: Arc<str>,
        query: Option<(u64, Arc<Table>)>,
    },
    /// Resolve a coverage probe (the target table lives here).
    Coverage {
        table: String,
        attributes: Vec<String>,
        threshold: usize,
    },
    /// Resolve tailoring sources owned by this shard, tagged with
    /// their position in the request's source list, and encode the
    /// problem's group `attributes` in each.
    Tailor {
        ids: Vec<(usize, String)>,
        attributes: Arc<[String]>,
    },
}

/// Written out so that a need renders as it did before tailoring needs
/// carried their group attributes: the actor event log summarizes
/// messages by their `Debug` text.
impl std::fmt::Debug for WarmNeed {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WarmNeed::Count => f.write_str("Count"),
            WarmNeed::Union { query } => f.debug_struct("Union").field("query", query).finish(),
            WarmNeed::Join { column, query } => f
                .debug_struct("Join")
                .field("column", column)
                .field("query", query)
                .finish(),
            WarmNeed::Coverage {
                table,
                attributes,
                threshold,
            } => f
                .debug_struct("Coverage")
                .field("table", table)
                .field("attributes", attributes)
                .field("threshold", threshold)
                .finish(),
            WarmNeed::Tailor { ids, .. } => f.debug_struct("Tailor").field("ids", ids).finish(),
        }
    }
}

/// One shard's answer to one [`WarmNeed`].
#[derive(Debug)]
pub(crate) enum WarmPart {
    /// Nothing beyond the shard's table count.
    Count,
    /// The shard's union candidate list (+ query signature from the
    /// owner shard).
    Union {
        query: Option<Result<Arc<TableSignature>, ServeError>>,
        candidates: UnionList,
    },
    /// The shard's join candidate list: the tables that have the key
    /// column (+ query profile from the owner shard).
    Join {
        query: Option<Result<Arc<KeyProfile>, ServeError>>,
        candidates: JoinList,
    },
    /// Everything a coverage plan needs, or why it cannot be built.
    Coverage(Result<CoverageTarget, ServeError>),
    /// Per-source resolutions, tagged with source-list positions.
    Tailor { resolved: Vec<ResolvedSource> },
}

/// A coverage probe's target resolved by its owning shard: table id,
/// table, attributes, threshold and the attributes' codes.
type CoverageTarget = (String, Arc<Table>, Vec<String>, usize, EncodedColumns);

/// One tailoring source resolved by its owning shard: the source-list
/// position plus `(id, table, cost, group attribute codes)` or the
/// error for that slot.
type ResolvedSource = (usize, Result<TailorSource, ServeError>);

/// A tailoring source in a plan: id, table, per-draw cost and the
/// codes of the problem's group attributes.
type TailorSource = (String, Arc<Table>, f64, EncodedColumns);

/// Translate one request into what each shard must warm for it, without
/// touching any shard: `(shard index, need)` pairs in shard order, and
/// the request's error when it can be decided from the request alone.
///
/// Decided here: `ZeroK`, a query table without columns or rows, an
/// unknown join column, a join key column without a non-null value, and
/// an empty tailoring source list. A top-k request failed here still
/// asks every shard for its table count, because `EmptyIndex` outranks
/// its error (see [`assemble`]). Top-k needs reach every shard, the
/// query sketch only the query-owner one; coverage and tailoring ids
/// go to their owning shards through [`shard_route`].
pub(crate) fn needs(
    request: &ServeRequest,
    shard_count: usize,
) -> (Vec<(usize, WarmNeed)>, Option<ServeError>) {
    match request {
        ServeRequest::UnionTopK { query, k } => top_k_needs(query, None, *k, shard_count),
        ServeRequest::JoinableTopK { query, column, k } => {
            top_k_needs(query, Some(column.as_str()), *k, shard_count)
        }
        ServeRequest::CoverageProbe {
            table,
            attributes,
            threshold,
        } => {
            let need = WarmNeed::Coverage {
                table: table.clone(),
                attributes: attributes.clone(),
                threshold: *threshold,
            };
            (vec![(shard_route(table, shard_count), need)], None)
        }
        ServeRequest::TailorRun {
            problem, sources, ..
        } => {
            if sources.is_empty() {
                let e = ServeError::EmptyQuery("no tailoring sources named".into());
                return (Vec::new(), Some(e));
            }
            let mut by_shard: BTreeMap<usize, Vec<(usize, String)>> = BTreeMap::new();
            for (i, id) in sources.iter().enumerate() {
                by_shard
                    .entry(shard_route(id, shard_count))
                    .or_default()
                    .push((i, id.clone()));
            }
            let attributes: Arc<[String]> = problem.spec.attributes.clone().into();
            let needs = by_shard
                .into_iter()
                .map(|(si, ids)| {
                    let attributes = Arc::clone(&attributes);
                    (si, WarmNeed::Tailor { ids, attributes })
                })
                .collect();
            (needs, None)
        }
    }
}

/// [`needs`] for a union (`column` = `None`) or join top-k request.
fn top_k_needs(
    query: &Table,
    column: Option<&str>,
    k: usize,
    shard_count: usize,
) -> (Vec<(usize, WarmNeed)>, Option<ServeError>) {
    if k == 0 {
        return (Vec::new(), Some(ServeError::ZeroK));
    }
    if let Err(e) = check_query_shape(query, column) {
        let counts = (0..shard_count).map(|si| (si, WarmNeed::Count)).collect();
        return (counts, Some(e));
    }
    let owner = shard_route(CacheKey::QUERY_OWNER, shard_count);
    let fp = cache::fingerprint(query);
    let query = Arc::new(query.clone());
    // shared by every shard's cache keys
    let column: Option<Arc<str>> = column.map(Arc::from);
    let needs = (0..shard_count)
        .map(|si| {
            let query = (si == owner).then(|| (fp, Arc::clone(&query)));
            let need = match &column {
                None => WarmNeed::Union { query },
                Some(column) => WarmNeed::Join {
                    column: Arc::clone(column),
                    query,
                },
            };
            (si, need)
        })
        .collect();
    (needs, None)
}

/// Reject query tables whose signature would be empty and join key
/// columns that are missing or hold no non-null value (no containment
/// estimate can be anchored on them).
fn check_query_shape(query: &Table, column: Option<&str>) -> Result<(), ServeError> {
    if query.num_columns() == 0 {
        return Err(ServeError::EmptyQuery("query table has no columns".into()));
    }
    if query.num_rows() == 0 {
        return Err(ServeError::EmptyQuery("query table has no rows".into()));
    }
    let Some(column) = column else {
        return Ok(());
    };
    let Ok(values) = query.column(column) else {
        return Err(ServeError::UnknownColumn {
            table: CacheKey::QUERY_OWNER.to_string(),
            column: column.to_string(),
        });
    };
    if values.null_count() == values.len() {
        return Err(ServeError::EmptyQuery(format!(
            "query column `{column}` has no non-null values"
        )));
    }
    Ok(())
}

/// Merge one request's warm parts (in any order) into its execution
/// plan. `total_tables` is the lake's registered-table count and
/// `local_error` what [`needs`] decided.
///
/// Error precedence, the same on both serving paths: `ZeroK` >
/// `EmptyIndex` (top-k requests only) > the local query error > the
/// owner shard's query-sketch error. Tailoring sources resolve in list
/// order, the first error winning. A top-k plan keeps the shards'
/// candidate lists in arrival order, unmerged: table ids are unique
/// across shards and the ranking orders by score and then by id, so no
/// candidate order can change a ranking or its decision event.
pub(crate) fn assemble(
    request: &ServeRequest,
    parts: Vec<WarmPart>,
    total_tables: usize,
    local_error: Option<ServeError>,
    policies: &PolicySet,
) -> Result<Prepared, ServeError> {
    let top_k = matches!(
        request,
        ServeRequest::UnionTopK { .. } | ServeRequest::JoinableTopK { .. }
    );
    match local_error {
        Some(ServeError::ZeroK) => return Err(ServeError::ZeroK),
        _ if top_k && total_tables == 0 => return Err(ServeError::EmptyIndex),
        Some(e) => return Err(e),
        None => {}
    }
    match request {
        ServeRequest::UnionTopK { k, .. } => {
            let mut query = None;
            let mut candidates = Vec::with_capacity(parts.len());
            for part in parts {
                if let WarmPart::Union {
                    query: q,
                    candidates: c,
                } = part
                {
                    query = query.or(q);
                    candidates.push(c);
                }
            }
            let never = || Err(ServeError::EmptyQuery("query signature never built".into()));
            let query = query.unwrap_or_else(never)?;
            Ok(Prepared::Union(UnionPlan {
                k: *k,
                query,
                candidates,
                params: policies.params_for(PolicyId::UNION_RANK),
            }))
        }
        ServeRequest::JoinableTopK { k, .. } => {
            let mut query = None;
            let mut candidates = Vec::with_capacity(parts.len());
            for part in parts {
                if let WarmPart::Join {
                    query: q,
                    candidates: c,
                } = part
                {
                    query = query.or(q);
                    candidates.push(c);
                }
            }
            let never = || Err(ServeError::EmptyQuery("query profile never built".into()));
            let query = query.unwrap_or_else(never)?;
            Ok(Prepared::Join(JoinPlan {
                k: *k,
                query,
                candidates,
                params: policies.params_for(PolicyId::JOIN_RANK),
            }))
        }
        ServeRequest::CoverageProbe { .. } => match parts.into_iter().next() {
            Some(WarmPart::Coverage(Ok((table_id, table, attributes, threshold, codes)))) => {
                Ok(Prepared::Coverage {
                    table_id,
                    table,
                    attributes,
                    threshold,
                    codes,
                })
            }
            Some(WarmPart::Coverage(Err(e))) => Err(e),
            _ => Err(ServeError::EmptyQuery("coverage part never arrived".into())),
        },
        ServeRequest::TailorRun {
            problem, max_draws, ..
        } => {
            let mut resolved: Vec<ResolvedSource> = Vec::new();
            for part in parts {
                if let WarmPart::Tailor { resolved: r } = part {
                    resolved.extend(r);
                }
            }
            resolved.sort_by_key(|(pos, _)| *pos);
            let sources = resolved
                .into_iter()
                .map(|(_, r)| r)
                .collect::<Result<Vec<_>, _>>()?;
            Ok(Prepared::Tailor {
                problem: problem.clone(),
                sources,
                max_draws: *max_draws,
            })
        }
    }
}

/// An immutable, `Send + Sync` execution plan produced by [`assemble`].
/// All shared state is behind `Arc`.
#[derive(Debug, Clone)]
pub(crate) enum Prepared {
    Union(UnionPlan),
    Join(JoinPlan),
    Coverage {
        table_id: String,
        table: Arc<Table>,
        attributes: Vec<String>,
        threshold: usize,
        codes: EncodedColumns,
    },
    Tailor {
        problem: DtProblem,
        sources: Vec<TailorSource>,
        max_draws: usize,
    },
}

/// A warmed union top-k request: the query signature and one union
/// candidate list per shard, in the order the shards' parts arrived.
#[derive(Debug, Clone)]
pub(crate) struct UnionPlan {
    k: usize,
    query: Arc<TableSignature>,
    candidates: Vec<UnionList>,
    params: PolicyParams,
}

/// A warmed joinability top-k request: the query key profile and one
/// join candidate list per shard, in the order the shards' parts
/// arrived.
#[derive(Debug, Clone)]
pub(crate) struct JoinPlan {
    k: usize,
    query: Arc<KeyProfile>,
    candidates: Vec<JoinList>,
    params: PolicyParams,
}

/// Execute a prepared plan. Pure: the response *and* the returned
/// [`ProvenanceEvent::PolicyDecision`] audit records are functions of
/// the plan and `seed` alone (the seed feeds the request's private RNG
/// stream; only tailoring consumes randomness), so execution order and
/// thread count cannot change any answer — or any rationale.
pub(crate) fn execute(plan: &Prepared, seed: u64) -> Executed {
    let mut decisions = Vec::new();
    let result = execute_inner(plan, seed, &mut decisions);
    (result, decisions)
}

fn execute_inner(
    plan: &Prepared,
    seed: u64,
    decisions: &mut Vec<ProvenanceEvent>,
) -> Result<ServeResponse, ServeError> {
    match plan {
        Prepared::Union(plan) => Ok(ServeResponse::UnionTopK(execute_union(plan, decisions))),
        Prepared::Join(plan) => Ok(ServeResponse::JoinableTopK(execute_join(plan, decisions))),
        Prepared::Coverage {
            table_id,
            table,
            attributes,
            threshold,
            codes,
        } => {
            let attrs: Vec<&str> = attributes.iter().map(String::as_str).collect();
            let counter = PatternCounter::from_codes(table.num_rows(), &attrs, codes)?;
            let analyzer = CoverageAnalyzer::from_counter(counter, *threshold);
            let mups = analyzer.maximal_uncovered_patterns();
            let uncovered_fraction = analyzer.uncovered_assignment_fraction(&mups);
            Ok(ServeResponse::Coverage(CoverageReport {
                table: table_id.clone(),
                mups: mups.iter().map(|p| analyzer.describe(p)).collect(),
                uncovered_fraction,
            }))
        }
        Prepared::Tailor {
            problem,
            sources,
            max_draws,
        } => {
            let mut table_sources = Vec::with_capacity(sources.len());
            for (id, table, cost, codes) in sources {
                table_sources.push(TableSource::with_codes(
                    id.clone(),
                    Arc::clone(table),
                    *cost,
                    problem,
                    codes,
                )?);
            }
            let mut policy = RandomPolicy::new(table_sources.len());
            #[allow(
                clippy::disallowed_methods,
                reason = "the session derives each request's private seed; execute only replays it"
            )]
            let mut rng = StdRng::seed_from_u64(seed);
            let built = rdi_core::PipelineBuilder::new(problem.clone())
                .max_draws(*max_draws)
                .span_root(metrics::TAILOR_SPAN)
                .build();
            let result = built
                .run(&mut table_sources, &mut policy, &mut rng)
                .map_err(|e| match e {
                    rdi_core::PipelineError::Table(t) => ServeError::Table(t),
                })?;
            decisions.extend(
                result
                    .provenance
                    .iter()
                    .filter(|e| matches!(e, ProvenanceEvent::PolicyDecision { .. }))
                    .cloned(),
            );
            Ok(ServeResponse::Tailored(TailorReport {
                rows: result.data.num_rows(),
                total_cost: result.total_cost,
                degraded: result.degraded,
                quarantined: result.quarantined,
                audit_passed: result.audit.passed(),
            }))
        }
    }
}

/// Score every candidate's unionability with the query, through one
/// matcher whose buffers every candidate reuses, and rank the top `k`,
/// recording the `discovery.union_rank` decision.
fn execute_union(plan: &UnionPlan, decisions: &mut Vec<ProvenanceEvent>) -> Vec<(String, f64)> {
    metrics::CANDIDATES_SCORED.add(candidate_count(&plan.candidates));
    let mut matcher = ColumnMatcher::new();
    let scored = plan
        .candidates
        .iter()
        .flat_map(|list| list.iter())
        .map(|(id, sig)| (Arc::clone(id), matcher.unionability(&plan.query, sig)));
    // under default params, identical ranking to the historic inline
    // sort and to `UnionSearchIndex::top_k`
    let (top, event) = rank_scored(PolicyId::UNION_RANK, scored, plan.k, &plan.params);
    decisions.push(event);
    owned_ids(top)
}

/// Score every candidate's estimated key containment of the query and
/// rank the top `k`, recording the `discovery.join_rank` decision.
fn execute_join(plan: &JoinPlan, decisions: &mut Vec<ProvenanceEvent>) -> Vec<(String, f64)> {
    metrics::CANDIDATES_SCORED.add(candidate_count(&plan.candidates));
    let scored = plan
        .candidates
        .iter()
        .flat_map(|list| list.iter())
        .map(|(id, p)| (Arc::clone(id), containment_estimate(&plan.query, p)));
    let (top, event) = rank_scored(PolicyId::JOIN_RANK, scored, plan.k, &plan.params);
    decisions.push(event);
    owned_ids(top)
}

/// Candidates across a plan's per-shard lists.
fn candidate_count<T>(lists: &[Arc<[T]>]) -> u64 {
    lists.iter().map(|list| list.len() as u64).sum()
}

/// The response form of a ranking: only the `k` returned ids are
/// copied out of the shared ones.
fn owned_ids(top: Vec<(Arc<str>, f64)>) -> Vec<(String, f64)> {
    top.into_iter().map(|(id, s)| (id.to_string(), s)).collect()
}

/// Estimated containment of the query key set in a candidate key set,
/// from the two MinHashes and exact distinct counts:
/// `|Q ∩ X| ≈ J/(1+J) · (|Q| + |X|)`, containment `= |Q ∩ X| / |Q|`,
/// clamped into `[0, 1]`.
fn containment_estimate(q: &KeyProfile, x: &KeyProfile) -> f64 {
    if x.distinct == 0 {
        return 0.0;
    }
    let j = q.minhash.jaccard(&x.minhash);
    let inter = j / (1.0 + j) * (q.distinct + x.distinct) as f64;
    (inter / q.distinct as f64).clamp(0.0, 1.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    use proptest::collection::vec;
    use proptest::prelude::*;
    use proptest::test_runner::TestCaseError;
    use rdi_table::{Column, DataType, Field, Schema, Value};

    fn str_table(col: &str, vals: &[&str]) -> Table {
        let schema = Schema::new(vec![Field::new(col, DataType::Str)]);
        let mut t = Table::new(schema);
        for v in vals {
            t.push_row(vec![Value::str(*v)]).unwrap();
        }
        t
    }

    fn index_with(tables: &[(&str, &[&str])]) -> LakeIndex {
        let mut idx = LakeIndex::default();
        for (id, vals) in tables {
            idx.register(*id, str_table("key", vals), 1.0).unwrap();
        }
        idx
    }

    /// Bitwise equality of two rankings.
    fn assert_ranking_eq(a: &[(String, f64)], b: &[(String, f64)]) {
        assert_eq!(a.len(), b.len());
        for ((ai, asc), (bi, bsc)) in a.iter().zip(b) {
            assert_eq!(ai, bi);
            assert_eq!(asc.to_bits(), bsc.to_bits(), "scores byte-identical");
        }
    }

    #[test]
    fn degenerate_inputs_are_typed_errors() {
        let mut empty = LakeIndex::default();
        let q = str_table("key", &["a"]);
        assert_eq!(
            empty.union_top_k(&q, 3).unwrap_err(),
            ServeError::EmptyIndex
        );

        let mut idx = index_with(&[("t1", &["a", "b"])]);
        assert_eq!(idx.union_top_k(&q, 0).unwrap_err(), ServeError::ZeroK);
        let no_rows = Table::new(Schema::new(vec![Field::new("key", DataType::Str)]));
        assert!(matches!(
            idx.union_top_k(&no_rows, 3).unwrap_err(),
            ServeError::EmptyQuery(_)
        ));
        assert!(matches!(
            idx.joinable_top_k(&q, "nope", 3).unwrap_err(),
            ServeError::UnknownColumn { .. }
        ));
    }

    #[test]
    fn registration_is_validated() {
        let mut idx = LakeIndex::default();
        idx.register("t", str_table("key", &["a"]), 1.0).unwrap();
        assert_eq!(
            idx.register("t", str_table("key", &["a"]), 1.0)
                .unwrap_err(),
            ServeError::DuplicateTable("t".into())
        );
        assert_eq!(
            idx.register("e", str_table("key", &[]), 1.0).unwrap_err(),
            ServeError::EmptyTable("e".into())
        );
        assert_eq!(
            idx.register("c", str_table("key", &["a"]), 0.0)
                .unwrap_err(),
            ServeError::InvalidCost(0.0)
        );
        // NaN != NaN under `assert_eq!`; match on the variant instead
        assert!(matches!(
            idx.register("n", str_table("key", &["a"]), f64::NAN)
                .unwrap_err(),
            ServeError::InvalidCost(c) if c.is_nan()
        ));
    }

    #[test]
    fn union_ranking_matches_uncached_union_search() {
        use rdi_discovery::UnionSearchIndex;
        let corpus: Vec<(&str, &[&str])> = vec![
            ("twin", &["a", "b", "c", "d"]),
            ("half", &["a", "b", "x", "y"]),
            ("none", &["p", "q", "r", "s"]),
        ];
        let mut idx = index_with(&corpus);
        let q = str_table("key", &["a", "b", "c", "d"]);
        let got = idx.union_top_k(&q, 3).unwrap();

        // uncached reference path: fresh signatures, fresh index
        let k = idx.config().minhash_k;
        let mut reference = UnionSearchIndex::new();
        for (id, vals) in &corpus {
            reference.insert(TableSignature::build(*id, &str_table("key", vals), k).unwrap());
        }
        let qsig = TableSignature::build(CacheKey::QUERY_OWNER, &q, k).unwrap();
        let want = reference.top_k(&qsig, 3);
        assert_ranking_eq(&got, &want);
    }

    // The exact counter deltas of the three maintenance tests below
    // (no sketch built by a warm query or a delta, a rebuild only past
    // the debt threshold) live in `tests/maintenance_counters.rs`: the
    // counters are process-global, and parallel tests here bump them.

    /// The rendered `discovery.union_rank` audit line of one query,
    /// pinned byte for byte: its fields may change type, its text may
    /// not.
    #[test]
    fn union_rank_decision_renders_byte_identically() {
        let mut idx = index_with(&[
            ("twin", &["a", "b", "c", "d"]),
            ("copy", &["a", "b", "c", "d"]),
            ("none", &["p", "q", "r", "s"]),
        ]);
        idx.union_top_k(&str_table("key", &["a", "b", "c", "d"]), 2)
            .unwrap();
        let rendered: Vec<String> = idx
            .drain_decisions()
            .iter()
            .map(ProvenanceEvent::render)
            .collect();
        assert_eq!(
            rendered,
            vec![
                "policy `discovery.union_rank` chose `copy` (score 1) from 3 candidate(s); \
                 ties=2 tie_break=key_asc params=∅ params_hash=af63bc4c8601b62c"
            ]
        );
    }

    #[test]
    fn repeat_queries_return_identical_answers() {
        let mut idx = index_with(&[("t1", &["a", "b", "c"]), ("t2", &["x", "y", "z"])]);
        let q = str_table("key", &["a", "b"]);
        let first = idx.union_top_k(&q, 2).unwrap();
        let second = idx.union_top_k(&q, 2).unwrap();
        assert_eq!(first, second);
    }

    #[test]
    fn joinable_ranking_tracks_containment() {
        let mut idx = index_with(&[
            ("full", &["a", "b", "c", "d"]),
            ("half", &["a", "b", "x", "y"]),
            ("none", &["p", "q", "r", "s"]),
        ]);
        let q = str_table("key", &["a", "b", "c", "d"]);
        let top = idx.joinable_top_k(&q, "key", 3).unwrap();
        assert_eq!(top[0].0, "full");
        assert!(top[0].1 > top[1].1);
        assert_eq!(top[2].0, "none");
    }

    #[test]
    fn candidates_without_the_key_column_are_skipped() {
        let mut idx = LakeIndex::default();
        idx.register("with", str_table("key", &["a", "b"]), 1.0)
            .unwrap();
        idx.register("without", str_table("other", &["a", "b"]), 1.0)
            .unwrap();
        let q = str_table("key", &["a", "b"]);
        let top = idx.joinable_top_k(&q, "key", 5).unwrap();
        assert_eq!(top.len(), 1);
        assert_eq!(top[0].0, "with");
    }

    #[test]
    fn shard_assignment_is_deterministic_and_budget_preserving() {
        let idx = index_with(&[
            ("a", &["1"]),
            ("b", &["2"]),
            ("c", &["3"]),
            ("d", &["4"]),
            ("e", &["5"]),
            ("f", &["6"]),
            ("g", &["7"]),
            ("h", &["8"]),
            ("i", &["9"]),
            ("j", &["10"]),
        ]);
        assert_eq!(idx.shard_count(), 8);
        assert_eq!(idx.shard_table_counts().iter().sum::<usize>(), 10);
        // assignment is a pure function of the id — identical on a
        // second index with the same config
        let other = LakeIndex::default();
        for id in idx.table_ids() {
            assert_eq!(idx.shard_of(id), other.shard_of(id));
        }
        // more than one shard is populated (the ids spread)
        let populated = idx.shard_table_counts().iter().filter(|&&n| n > 0).count();
        assert!(populated > 1, "counts={:?}", idx.shard_table_counts());
        // per-shard capacities partition the global budget exactly
        assert_eq!(
            idx.shard_cache_capacities().iter().sum::<usize>(),
            idx.config().cache_capacity_bytes
        );
        // uneven budgets distribute the remainder to the first shards
        let uneven = LakeIndex::new(LakeIndexConfig {
            cache_capacity_bytes: 1003,
            shard_count: 4,
            ..LakeIndexConfig::default()
        });
        assert_eq!(uneven.shard_cache_capacities(), vec![251, 251, 251, 250]);
    }

    #[test]
    fn append_delta_keeps_answers_bitwise_identical_to_cold_rebuild() {
        let mut idx = index_with(&[
            ("t1", &["a", "b", "c"]),
            ("t2", &["x", "y", "z"]),
            ("t3", &["a", "x", "q"]),
        ]);
        let q = str_table("key", &["a", "b", "x"]);
        // warm both sketch kinds so maintenance has something to do
        idx.union_top_k(&q, 3).unwrap();
        idx.joinable_top_k(&q, "key", 3).unwrap();

        let delta = TableDelta::Append(str_table("key", &["b", "w"]));
        assert_eq!(idx.apply_delta("t1", &delta).unwrap(), 2);
        let union_after = idx.union_top_k(&q, 3).unwrap();
        let join_after = idx.joinable_top_k(&q, "key", 3).unwrap();

        // cold reference: a fresh index registered with the final content
        let mut cold = index_with(&[
            ("t1", &["a", "b", "c", "b", "w"]),
            ("t2", &["x", "y", "z"]),
            ("t3", &["a", "x", "q"]),
        ]);
        assert_ranking_eq(&union_after, &cold.union_top_k(&q, 3).unwrap());
        assert_ranking_eq(&join_after, &cold.joinable_top_k(&q, "key", 3).unwrap());
    }

    #[test]
    fn delete_delta_repairs_incrementally_then_rebuilds_past_debt() {
        let config = LakeIndexConfig {
            deletion_debt_threshold: 2,
            ..LakeIndexConfig::default()
        };
        let mut idx = LakeIndex::new(config);
        idx.register("t1", str_table("key", &["a", "b", "c", "d", "e", "f"]), 1.0)
            .unwrap();
        idx.register("t2", str_table("key", &["a", "x"]), 1.0)
            .unwrap();
        let q = str_table("key", &["a", "b", "c"]);
        idx.union_top_k(&q, 2).unwrap();

        // 2 deleted rows: at the threshold, still incremental
        assert_eq!(
            idx.apply_delta("t1", &TableDelta::Delete(vec![4, 5]))
                .unwrap(),
            2
        );
        let mut cold = index_with(&[("t1", &["a", "b", "c", "d"]), ("t2", &["a", "x"])]);
        assert_ranking_eq(
            &idx.union_top_k(&q, 2).unwrap(),
            &cold.union_top_k(&q, 2).unwrap(),
        );

        // one more deleted row crosses the threshold → counted rebuild
        assert_eq!(
            idx.apply_delta("t1", &TableDelta::Delete(vec![3])).unwrap(),
            1
        );
        let mut cold = index_with(&[("t1", &["a", "b", "c"]), ("t2", &["a", "x"])]);
        assert_ranking_eq(
            &idx.union_top_k(&q, 2).unwrap(),
            &cold.union_top_k(&q, 2).unwrap(),
        );
    }

    /// A two-column table (`key` strings, `val` integers with nulls) of
    /// `(key, val)` codes drawn from small pools, so values repeat.
    fn coded_table(rows: &[(usize, usize)]) -> Table {
        let schema = Schema::new(vec![
            Field::new("key", DataType::Str),
            Field::new("val", DataType::Int),
        ]);
        let mut t = Table::new(schema);
        for &(key, val) in rows {
            let val = if val == 0 {
                Value::Null
            } else {
                Value::Int(val as i64)
            };
            t.push_row(vec![Value::str(format!("v{key}")), val])
                .unwrap();
        }
        t
    }

    /// A sketch kind read by one step of the maintenance property.
    #[derive(Debug, Clone, Copy, PartialEq)]
    enum Kind {
        Union,
        Join,
    }

    /// The orders in which a step reads the two kinds.
    const READ_ORDERS: [&[Kind]; 4] = [
        &[Kind::Union, Kind::Join],
        &[Kind::Join, Kind::Union],
        &[Kind::Join],
        &[Kind::Union],
    ];

    /// One step of the maintenance property: read `kinds` in order (the
    /// join on `column`) twice, check that the second reads
    /// share the first reads' `Arc`s and that every read equals a cold
    /// build over the current table bitwise, and that the store holds
    /// one column sketch per distinct column in `read` (which the step
    /// extends). No read touches the shard's cache.
    fn read_and_check(
        shard: &mut Shard,
        id: &Arc<str>,
        kinds: &[Kind],
        column: &Arc<str>,
        read: &mut BTreeSet<String>,
    ) -> Result<(), TestCaseError> {
        let k = 16;
        let r = shard.tables.get_mut(id).unwrap();
        let has_column = r.table.column(column).is_ok();
        let (mut sig, mut profile) = (None, None);
        for &kind in kinds {
            if kind == Kind::Union {
                sig = Some(r.maint.signature(id, &r.table, k));
                read.extend(r.table.schema().fields().iter().map(|f| f.name.clone()));
            } else if has_column {
                profile = Some(r.maint.profile(&r.table, column, k).unwrap());
                read.insert(column.to_string());
            } else {
                let err = r.maint.profile(&r.table, column, k).unwrap_err();
                prop_assert!(
                    matches!(err, rdi_table::TableError::UnknownColumn(_)),
                    "{:?}",
                    err
                );
            }
        }
        prop_assert_eq!(
            r.maint.sketch_count(),
            read.len(),
            "one sketch per column read"
        );
        // reread in the same order: each read shares the snapshot the
        // first read derived
        for &kind in kinds {
            if let (Kind::Union, Some(sig)) = (kind, &sig) {
                prop_assert!(Arc::ptr_eq(sig, &r.maint.signature(id, &r.table, k)));
            }
            if let (Kind::Join, Some(profile)) = (kind, &profile) {
                let again = r.maint.profile(&r.table, column, k).unwrap();
                prop_assert!(Arc::ptr_eq(profile, &again));
            }
        }
        prop_assert!(shard.cache.is_empty(), "registered reads cache nothing");

        if let Some(sig) = sig {
            let cold = TableSignature::build(&**id, &r.table, k).unwrap();
            prop_assert_eq!(&sig.name, &cold.name);
            prop_assert_eq!(&sig.columns, &cold.columns);
        }
        if let Some(profile) = profile {
            let cold = KeyProfile {
                column: column.to_string(),
                minhash: MinHash::from_column(&r.table, column, k).unwrap(),
                distinct: r
                    .table
                    .distinct(column)
                    .unwrap()
                    .iter()
                    .filter(|v| !v.is_null())
                    .count(),
            };
            prop_assert_eq!(&*profile, &cold);
        }
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Random append/delete streams through a shard with a
        /// deletion-debt threshold of 3, so deltas both repair
        /// incrementally and rebuild. Before every delta and after the
        /// last, the step reads the union signature and a join profile
        /// (on `key`, on `val` or on a column the table lacks) in a
        /// drawn order, or only one of them. Every read equals a cold
        /// build over the current table bitwise; two reads with no
        /// delta between them return the same `Arc`; and the table's
        /// store holds exactly one column sketch per distinct column
        /// read so far, so union and join reads share them.
        #[test]
        fn maintained_snapshots_match_cold_builds_and_are_shared(
            initial in vec((0usize..8, 0usize..4), 1..8),
            ops in vec((any::<bool>(), vec((0usize..8, 0usize..4), 1..4)), 1..16),
            reads in vec((0usize..4, 0usize..3), 17),
        ) {
            let id: Arc<str> = "t".into();
            let columns: [Arc<str>; 3] = ["key".into(), "val".into(), "missing".into()];
            let mut shard = Shard::new(1);
            shard.upsert(Arc::clone(&id), coded_table(&initial), 1.0).unwrap();
            let mut read = BTreeSet::new();
            for (step, &(order, column)) in reads.iter().enumerate() {
                let kinds = READ_ORDERS[order];
                read_and_check(&mut shard, &id, kinds, &columns[column], &mut read)
                    .map_err(|e| TestCaseError::fail(format!("step {step} ({kinds:?} on {}): {e}", columns[column])))?;

                let Some((append, rows)) = ops.get(step) else { break };
                let rows_now = shard.tables[&id].table.num_rows();
                let delta = if *append || rows_now <= rows.len() {
                    TableDelta::Append(coded_table(rows))
                } else {
                    TableDelta::Delete(rows.iter().map(|&(i, _)| i % rows_now).collect())
                };
                shard.apply_delta(&id, &delta, 16, 3).unwrap();
            }
        }
    }

    /// At the largest deletion-debt threshold the debt saturates instead
    /// of wrapping, the table never rebuilds, and answers stay equal to
    /// a cold index's.
    #[test]
    fn maximum_debt_threshold_never_rebuilds_and_matches_cold_answers() {
        let config = LakeIndexConfig {
            deletion_debt_threshold: u64::MAX,
            ..LakeIndexConfig::default()
        };
        let vals = ["a", "b", "c", "d", "e", "f", "g", "h"];
        let mut idx = LakeIndex::new(config);
        idx.register("t1", str_table("key", &vals), 1.0).unwrap();
        idx.register("t2", str_table("key", &["a", "x"]), 1.0)
            .unwrap();
        let q = str_table("key", &["a", "b", "c"]);
        idx.union_top_k(&q, 2).unwrap();
        idx.joinable_top_k(&q, "key", 2).unwrap();
        fn maint(idx: &mut LakeIndex) -> &mut Maintained {
            let si = idx.shard_of("t1");
            &mut idx.shards[si].tables.get_mut("t1").unwrap().maint
        }
        maint(&mut idx).set_debt(u64::MAX - 1);

        for left in [6, 4, 2] {
            idx.apply_delta("t1", &TableDelta::Delete(vec![0, 1]))
                .unwrap();
            assert_eq!(maint(&mut idx).debt(), u64::MAX, "saturated, never reset");
            let mut cold = index_with(&[("t1", &vals[vals.len() - left..]), ("t2", &["a", "x"])]);
            assert_ranking_eq(
                &idx.union_top_k(&q, 2).unwrap(),
                &cold.union_top_k(&q, 2).unwrap(),
            );
            assert_ranking_eq(
                &idx.joinable_top_k(&q, "key", 2).unwrap(),
                &cold.joinable_top_k(&q, "key", 2).unwrap(),
            );
        }
    }

    /// The maintained store of registered table `id`.
    fn store<'a>(idx: &'a LakeIndex, id: &str) -> &'a Maintained {
        &idx.registered(id).unwrap().maint
    }

    /// The union signature `idx` serves for registered table `id`.
    fn served_signature(idx: &mut LakeIndex, id: &str) -> Arc<TableSignature> {
        let (k, si) = (idx.config.minhash_k, idx.shard_of(id));
        let r = idx.shards[si].tables.get_mut(id).unwrap();
        r.maint.signature(id, &r.table, k)
    }

    #[test]
    fn drop_delta_deregisters_and_drops_the_store() {
        let mut idx = index_with(&[("t1", &["a", "b"]), ("t2", &["x", "y"])]);
        let q = str_table("key", &["a"]);
        idx.union_top_k(&q, 2).unwrap();
        assert_eq!(idx.cached_sketches(), 1, "only the query sketch is cached");
        assert_eq!(store(&idx, "t1").sketch_count(), 1);
        let maint_before = idx.maint_bytes();
        assert_eq!(idx.apply_delta("t1", &TableDelta::Drop).unwrap(), 0);
        assert!(!idx.contains("t1"));
        assert_eq!(idx.len(), 1);
        assert_eq!(idx.maint_bytes(), store(&idx, "t2").bytes());
        assert!(idx.maint_bytes() < maint_before, "t1's store went with it");
        assert_eq!(idx.cached_sketches(), 1, "the query sketch stays");
        assert_eq!(
            idx.apply_delta("t1", &TableDelta::Drop).unwrap_err(),
            ServeError::UnknownTable("t1".into())
        );
        // the id can be registered again, with an empty store
        idx.register("t1", str_table("key", &["fresh"]), 1.0)
            .unwrap();
        assert!(idx.contains("t1"));
        assert_eq!(store(&idx, "t1").sketch_count(), 0);
    }

    #[test]
    fn upsert_drops_the_store_on_changed_content_and_keeps_it_on_equal_content() {
        let mut idx = index_with(&[("t1", &["a", "b"])]);
        let q = str_table("key", &["a"]);
        idx.union_top_k(&q, 1).unwrap();
        let before = served_signature(&mut idx, "t1");
        assert_eq!(store(&idx, "t1").sketch_count(), 1);

        // changed content: a fresh, empty store; the next read builds
        idx.upsert("t1", str_table("key", &["a", "b", "c"]), 1.0)
            .unwrap();
        assert_eq!(store(&idx, "t1").sketch_count(), 0, "old store dropped");
        assert_eq!(idx.maint_bytes(), 0);
        let changed = served_signature(&mut idx, "t1");
        assert!(!Arc::ptr_eq(&before, &changed));
        assert_eq!(store(&idx, "t1").sketch_count(), 1, "rebuilt on read");

        // equal content (another cost): the store and its snapshot stay
        idx.upsert("t1", str_table("key", &["a", "b", "c"]), 2.0)
            .unwrap();
        assert!(Arc::ptr_eq(&changed, &served_signature(&mut idx, "t1")));
        assert_eq!(idx.cached_sketches(), 1, "only the query sketch is cached");

        // `-0.0` over `0.0` is changed content: the sketches hash value
        // bits, so a store built from `0.0` must not answer for `-0.0`
        let floats = |x: f64| {
            let schema = Schema::new(vec![Field::new("key", DataType::Float)]);
            Table::from_columns(schema, vec![Column::Float(vec![Some(x), Some(1.0)])]).unwrap()
        };
        idx.upsert("t2", floats(0.0), 1.0).unwrap();
        served_signature(&mut idx, "t2");
        idx.upsert("t2", floats(-0.0), 1.0).unwrap();
        assert_eq!(store(&idx, "t2").sketch_count(), 0, "-0.0 is not 0.0");
        let mut fresh = LakeIndex::default();
        for id in idx.table_ids() {
            fresh
                .register(id, idx.table(id).unwrap().clone(), 1.0)
                .unwrap();
        }
        let q = floats(-0.0);
        assert_ranking_eq(
            &idx.union_top_k(&q, 2).unwrap(),
            &fresh.union_top_k(&q, 2).unwrap(),
        );

        // NaN content of the same bits is equal content: the store stays
        idx.upsert("t2", floats(f64::NAN), 1.0).unwrap();
        let nan = served_signature(&mut idx, "t2");
        idx.upsert("t2", floats(f64::NAN), 1.0).unwrap();
        assert!(Arc::ptr_eq(&nan, &served_signature(&mut idx, "t2")));
    }

    /// After a union and a join over every registered table, the cache
    /// holds the query's two sketches and nothing else, while every
    /// table's store holds its sketches.
    #[test]
    fn the_cache_holds_only_query_sketches() {
        let mut idx = index_with(&[
            ("t1", &["a", "b"]),
            ("t2", &["x", "y"]),
            ("t3", &["a", "x"]),
            ("t4", &["b", "q"]),
        ]);
        let q = str_table("key", &["a", "b"]);
        idx.union_top_k(&q, 2).unwrap();
        idx.joinable_top_k(&q, "key", 2).unwrap();
        assert_eq!(
            idx.cached_sketches(),
            2,
            "the query's union and join sketches"
        );
        for id in ["t1", "t2", "t3", "t4"] {
            assert_eq!(store(&idx, id).sketch_count(), 1, "{id}");
        }
        let query_shard = idx.shard_of(CacheKey::QUERY_OWNER);
        for (si, s) in idx.shards.iter().enumerate() {
            assert_eq!(s.cache.is_empty(), si != query_shard, "shard {si}");
        }
    }

    /// One shard's stored candidate lists: the union list and the join
    /// lists by column.
    type Stored = (Option<UnionList>, BTreeMap<Arc<str>, JoinList>);

    fn stored(idx: &LakeIndex) -> Vec<Stored> {
        idx.shards
            .iter()
            .map(|s| (s.union.clone(), s.joins.clone()))
            .collect()
    }

    /// The same lists, by pointer.
    fn same_lists(a: &Stored, b: &Stored) -> bool {
        let union = match (&a.0, &b.0) {
            (Some(x), Some(y)) => Arc::ptr_eq(x, y),
            (x, y) => x.is_none() && y.is_none(),
        };
        union
            && a.1.len() == b.1.len()
            && a.1
                .iter()
                .zip(&b.1)
                .all(|((ca, la), (cb, lb))| ca == cb && Arc::ptr_eq(la, lb))
    }

    /// A union and a join ranking and the rendered rank decisions.
    type Answers = (Vec<(String, f64)>, Vec<(String, f64)>, Vec<String>);

    /// A union and a join on `key` through `idx`, with their rendered
    /// rank decisions.
    fn top_k_answers(idx: &mut LakeIndex) -> Answers {
        let q = str_table("key", &["a", "b", "c", "x"]);
        idx.drain_decisions();
        let union = idx.union_top_k(&q, 3).unwrap();
        let join = idx.joinable_top_k(&q, "key", 3).unwrap();
        let decisions = idx
            .drain_decisions()
            .iter()
            .map(ProvenanceEvent::render)
            .collect();
        (union, join, decisions)
    }

    /// Ten tables spread over the shards, with overlapping values so
    /// that scores differ and tie.
    fn lake() -> LakeIndex {
        let mut idx = LakeIndex::new(LakeIndexConfig {
            deletion_debt_threshold: 2,
            ..LakeIndexConfig::default()
        });
        let pool = ["a", "b", "c", "d", "x", "y"];
        for i in 0..10 {
            let vals: Vec<&str> = (0..4).map(|j| pool[(i + j * j) % pool.len()]).collect();
            idx.register(format!("t{i}"), str_table("key", &vals), 1.0)
                .unwrap();
        }
        idx
    }

    #[test]
    fn reads_without_a_change_share_the_candidate_lists() {
        let mut idx = lake();
        let first = top_k_answers(&mut idx);
        let lists = stored(&idx);
        for (si, (union, joins)) in lists.iter().enumerate() {
            assert!(union.is_some(), "shard {si} keeps its union list");
            let has_tables = !idx.shards[si].tables.is_empty();
            assert_eq!(joins.contains_key("key"), has_tables, "shard {si}");
        }
        let second = top_k_answers(&mut idx);
        assert_eq!(first, second);
        for (si, (a, b)) in lists.iter().zip(&stored(&idx)).enumerate() {
            assert!(same_lists(a, b), "shard {si} rebuilt a list with no change");
        }
    }

    /// Register, upsert with equal and with different content, append,
    /// delete (the second delete crosses the debt threshold and
    /// rebuilds) and drop: each change drops the candidate lists of the
    /// shard it routes to and no other's, and the answers that follow
    /// equal a fresh index's over the same tables bitwise, rank
    /// decisions included.
    #[test]
    fn each_change_drops_only_its_own_shards_lists() {
        type Change = Box<dyn Fn(&mut LakeIndex)>;
        let changes: Vec<(&str, Change)> = vec![
            (
                "n1",
                Box::new(|idx| {
                    idx.register("n1", str_table("key", &["a", "q"]), 1.0)
                        .unwrap()
                }),
            ),
            (
                "t3",
                Box::new(|idx| {
                    let same = idx.table("t3").unwrap().clone();
                    idx.upsert("t3", same, 2.0).unwrap();
                }),
            ),
            (
                "t3",
                Box::new(|idx| {
                    idx.upsert("t3", str_table("key", &["c", "x", "z"]), 1.0)
                        .unwrap()
                }),
            ),
            (
                "t4",
                Box::new(|idx| {
                    idx.apply_delta("t4", &TableDelta::Append(str_table("key", &["a", "w"])))
                        .unwrap();
                }),
            ),
            (
                "t5",
                Box::new(|idx| {
                    idx.apply_delta("t5", &TableDelta::Delete(vec![0, 2]))
                        .unwrap();
                }),
            ),
            (
                "t5",
                Box::new(|idx| {
                    idx.apply_delta("t5", &TableDelta::Delete(vec![1])).unwrap();
                }),
            ),
            (
                "t6",
                Box::new(|idx| {
                    idx.apply_delta("t6", &TableDelta::Drop).unwrap();
                }),
            ),
        ];
        let mut idx = lake();
        for (step, (id, change)) in changes.iter().enumerate() {
            top_k_answers(&mut idx);
            let before = stored(&idx);
            change(&mut idx);
            let owner = idx.shard_of(id);
            for (si, (b, a)) in before.iter().zip(&stored(&idx)).enumerate() {
                if si == owner {
                    assert!(
                        a.0.is_none() && a.1.is_empty(),
                        "step {step}: shard {si} kept its lists"
                    );
                } else {
                    assert!(same_lists(b, a), "step {step}: shard {si} lost its lists");
                }
            }
            let mut fresh = LakeIndex::default();
            for t in idx.table_ids() {
                fresh
                    .register(t, idx.table(t).unwrap().clone(), 1.0)
                    .unwrap();
            }
            let (union, join, decisions) = top_k_answers(&mut idx);
            let (fresh_union, fresh_join, fresh_decisions) = top_k_answers(&mut fresh);
            assert_ranking_eq(&union, &fresh_union);
            assert_ranking_eq(&join, &fresh_join);
            assert_eq!(decisions, fresh_decisions, "step {step}");
        }
    }

    /// A join on a column that no table has keeps no list on any shard;
    /// a column one table has keeps a list on that table's shard only.
    #[test]
    fn join_lists_are_kept_only_for_columns_a_table_has() {
        let mut idx = lake();
        let q = str_table("other", &["a", "b"]);
        assert!(idx.joinable_top_k(&q, "other", 3).unwrap().is_empty());
        assert!(idx.shards.iter().all(|s| !s.joins.contains_key("other")));

        idx.register("w", str_table("other", &["a", "z"]), 1.0)
            .unwrap();
        let top = idx.joinable_top_k(&q, "other", 3).unwrap();
        assert_eq!(top.len(), 1);
        let owner = idx.shard_of("w");
        for (si, s) in idx.shards.iter().enumerate() {
            assert_eq!(s.joins.contains_key("other"), si == owner, "shard {si}");
        }
    }

    #[test]
    fn deltas_to_unknown_tables_are_typed_errors() {
        let mut idx = index_with(&[("t1", &["a"])]);
        assert_eq!(
            idx.apply_delta("ghost", &TableDelta::Delete(vec![0]))
                .unwrap_err(),
            ServeError::UnknownTable("ghost".into())
        );
        // bad delete indices surface the table error and change nothing
        assert!(matches!(
            idx.apply_delta("t1", &TableDelta::Delete(vec![7]))
                .unwrap_err(),
            ServeError::Table(_)
        ));
        assert_eq!(idx.table("t1").map(Table::num_rows), Some(1));
    }
}
