//! The memoized sketch/signature cache behind [`crate::LakeIndex`].
//!
//! Entries are keyed by `(owner table id, content fingerprint, sketch
//! kind)` and evicted least-recently-used under a byte-accounted
//! capacity. Recency is a logical sequence number bumped on every hit,
//! so eviction order is a pure function of the access sequence — no
//! wall clocks, no hash-map iteration order (`BTreeMap` throughout).
//!
//! Ids are shared: a key's owner (and a join key's column) is an
//! `Arc<str>` cloned from the registered table id, and each entry's
//! [`CacheKey::render`]ed audit key is rendered once at insert and
//! kept as an `Arc<str>` in the recency map. A hit moves its recency
//! slot without touching a string. An eviction episode walks the
//! recency map in sequence order, so its candidates arrive already
//! ranked: building them costs one refcount bump per resident entry,
//! and [`RankByScore`]'s stable sort confirms the order in one linear
//! pass (descending under `dir=max`, which it reverses as one run).
//! The candidate and sequence buffers are kept across episodes, and the
//! episode's audit event names its winner through the candidate's
//! shared key, so an episode copies no string. Drained decisions leave
//! the event buffer's capacity in place for the next batch.
//!
//! On a miss, a registered table's sketch comes from its maintained
//! state's shared snapshot (module `maint`): the cache and the
//! maintained state hold the same `Arc`, so evicting an entry and
//! missing on it again re-inserts that `Arc` without copying a
//! signature.
//!
//! The cache reports itself through `rdi-obs`: `serve.cache.hits`,
//! `serve.cache.misses`, `serve.cache.evictions` (capacity pressure),
//! `serve.cache.invalidated` (explicit owner/fingerprint eviction) and
//! `serve.cache.evicted_bytes` (bytes released by either path)
//! counters. Each handle is resolved on its first use and kept (see
//! DESIGN.md, "Metric handles"). The bytes a cache holds are published
//! by its owner, which sees every shard (`CacheGauges`).

use std::collections::BTreeMap;
use std::sync::{Arc, OnceLock};

use rdi_discovery::{MinHash, TableSignature};
use rdi_obs::{Counter, Gauge, ProvenanceEvent};
use rdi_policy::{Candidate, PolicyId, PolicyParams, RankByScore, Score, SelectionPolicy};

/// What kind of sketch an entry holds (part of the cache key: the same
/// table content can carry a union signature *and* per-column join
/// profiles simultaneously).
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub enum SketchKind {
    /// Per-column MinHash signature set for union search, with
    /// signature length `k`.
    Union {
        /// MinHash signature length.
        k: usize,
    },
    /// Single-column key profile (MinHash + exact distinct count) for
    /// joinability ranking.
    Join {
        /// The profiled column, shared by every key of one request.
        column: Arc<str>,
        /// MinHash signature length.
        k: usize,
    },
}

/// Full cache key: which table, which content, which sketch. Cloning
/// one bumps refcounts only.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct CacheKey {
    /// Registered table id, or [`CacheKey::QUERY_OWNER`] for ad-hoc
    /// query tables.
    pub owner: Arc<str>,
    /// Content fingerprint ([`crate::fingerprint::table_fingerprint`]).
    pub fingerprint: u64,
    /// Sketch kind + parameters.
    pub kind: SketchKind,
}

impl CacheKey {
    /// Owner id used for ad-hoc query tables (not registered in the
    /// index); their fingerprint alone identifies the content.
    pub const QUERY_OWNER: &'static str = "<query>";

    /// Stable `owner#fingerprint#kind` rendering — the candidate key
    /// under which this entry appears in `serve.cache_evict` policy
    /// decisions.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.render_into(&mut out);
        out
    }

    /// Append [`CacheKey::render`]'s text to `out`, so a cache can
    /// render every audit key into one reused buffer.
    fn render_into(&self, out: &mut String) {
        use std::fmt::Write;
        let (owner, fingerprint) = (&self.owner, self.fingerprint);
        match &self.kind {
            SketchKind::Union { k } => write!(out, "{owner}#{fingerprint:016x}#union:{k}"),
            SketchKind::Join { column, k } => {
                write!(out, "{owner}#{fingerprint:016x}#join:{column}:{k}")
            }
        }
        // writing into a `String` cannot fail
        .unwrap_or_default();
    }
}

/// A single-column joinability profile: the column's MinHash plus its
/// exact distinct (non-null) count, enough to estimate containment of
/// one key set in another.
#[derive(Debug, Clone, PartialEq)]
pub struct KeyProfile {
    /// Profiled column name.
    pub column: String,
    /// MinHash over the column's distinct values.
    pub minhash: MinHash,
    /// Exact distinct non-null value count.
    pub distinct: usize,
}

/// A cached artifact, shared by `Arc` so batch execution can hold
/// references while later warm passes keep mutating the cache.
#[derive(Debug, Clone)]
pub enum Sketch {
    /// A full-table union-search signature.
    Union(Arc<TableSignature>),
    /// A single-column join profile.
    Join(Arc<KeyProfile>),
}

impl Sketch {
    /// Approximate heap footprint, charged against the cache capacity.
    fn bytes(&self) -> usize {
        const ENTRY_OVERHEAD: usize = 64;
        match self {
            Sketch::Union(sig) => {
                sig.name.len()
                    + sig
                        .columns
                        .iter()
                        .map(|(n, m)| n.len() + m.k() * 8 + 32)
                        .sum::<usize>()
                    + ENTRY_OVERHEAD
            }
            Sketch::Join(p) => p.column.len() + p.minhash.k() * 8 + ENTRY_OVERHEAD,
        }
    }
}

#[derive(Debug)]
struct Entry {
    sketch: Sketch,
    bytes: usize,
    last_used: u64,
}

/// One entry's place in the recency order.
#[derive(Debug, PartialEq)]
struct Slot {
    key: CacheKey,
    /// [`CacheKey::render`], rendered once at insert: the candidate key
    /// of this entry in every later eviction episode.
    audit_key: Arc<str>,
}

/// The cache's `serve.cache.*` handles, each resolved on its first use
/// — never eagerly, so a cache that never evicts adds no zero-valued
/// eviction counters to a metrics snapshot.
#[derive(Debug, Default)]
struct CacheMetrics {
    hits: OnceLock<Arc<Counter>>,
    misses: OnceLock<Arc<Counter>>,
    evictions: OnceLock<Arc<Counter>>,
    evicted_bytes: OnceLock<Arc<Counter>>,
    invalidated: OnceLock<Arc<Counter>>,
}

impl CacheMetrics {
    fn hits(&self) -> &Counter {
        self.hits
            .get_or_init(|| rdi_obs::counter("serve.cache.hits"))
    }

    fn misses(&self) -> &Counter {
        self.misses
            .get_or_init(|| rdi_obs::counter("serve.cache.misses"))
    }

    fn evictions(&self) -> &Counter {
        self.evictions
            .get_or_init(|| rdi_obs::counter("serve.cache.evictions"))
    }

    fn evicted_bytes(&self) -> &Counter {
        self.evicted_bytes
            .get_or_init(|| rdi_obs::counter("serve.cache.evicted_bytes"))
    }

    fn invalidated(&self) -> &Counter {
        self.invalidated
            .get_or_init(|| rdi_obs::counter("serve.cache.invalidated"))
    }
}

/// The cache-size gauges of a sharded index: `serve.cache.bytes`, the
/// sum over its shards, and each shard's `serve.shard.{i}.cache_bytes`.
/// It keeps the bytes each shard last reported, so a report from some
/// of the shards still publishes the sum over all of them. Each handle
/// is resolved when it is first published and kept.
#[derive(Debug, Default)]
pub(crate) struct CacheGauges {
    total: Option<Arc<Gauge>>,
    /// Per shard, by index: its gauge and the bytes it last reported.
    shards: Vec<(Arc<Gauge>, usize)>,
}

impl CacheGauges {
    /// Take each `(shard index, cache bytes)` report, publish those
    /// shards' gauges, then the sum over every shard reported so far.
    pub(crate) fn publish(&mut self, reports: impl IntoIterator<Item = (usize, usize)>) {
        for (shard, bytes) in reports {
            while self.shards.len() <= shard {
                let i = self.shards.len();
                let gauge = rdi_obs::gauge(&format!("serve.shard.{i}.cache_bytes"));
                self.shards.push((gauge, 0));
            }
            let (gauge, held) = &mut self.shards[shard];
            *held = bytes;
            gauge.set(bytes as f64);
        }
        let total: usize = self.shards.iter().map(|(_, bytes)| bytes).sum();
        self.total
            .get_or_insert_with(|| rdi_obs::gauge("serve.cache.bytes"))
            .set(total as f64);
    }
}

/// Byte-accounted LRU cache over [`Sketch`] artifacts.
#[derive(Debug)]
pub struct SketchCache {
    capacity: usize,
    entries: BTreeMap<CacheKey, Entry>,
    /// recency sequence → slot; the smallest sequence is the LRU victim.
    recency: BTreeMap<u64, Slot>,
    clock: u64,
    bytes: usize,
    /// `serve.cache_evict` params (default `dir=min` over the recency
    /// sequence = least-recently-used first).
    evict_params: PolicyParams,
    /// One `PolicyDecision` audit event per eviction episode, drained
    /// by the owning index/session.
    decisions: Vec<ProvenanceEvent>,
    /// An eviction episode's candidates and their recency sequences:
    /// buffers kept between episodes, empty outside one.
    candidates: Vec<Candidate>,
    ticks: Vec<u64>,
    /// Reused buffer each audit key is rendered into before it is
    /// copied into its one `Arc<str>` allocation.
    render_buf: String,
    metrics: CacheMetrics,
}

impl SketchCache {
    /// An empty cache holding at most `capacity_bytes` of accounted
    /// sketch bytes (one oversized entry is still admitted so progress
    /// is always possible).
    pub fn new(capacity_bytes: usize) -> Self {
        SketchCache {
            capacity: capacity_bytes,
            entries: BTreeMap::new(),
            recency: BTreeMap::new(),
            clock: 0,
            bytes: 0,
            evict_params: PolicyParams::new().with("dir", "min"),
            decisions: Vec::new(),
            candidates: Vec::new(),
            ticks: Vec::new(),
            render_buf: String::new(),
            metrics: CacheMetrics::default(),
        }
    }

    /// Configured capacity in accounted bytes.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Override the `serve.cache_evict` victim-ordering params. The
    /// site default is `dir=min` over each entry's recency sequence
    /// (LRU first); `dir=max` flips to MRU-first. The fresh entry of an
    /// insert is never a candidate regardless of params.
    pub fn set_evict_params(&mut self, params: PolicyParams) {
        self.evict_params = params;
    }

    /// Drain the accumulated `PolicyDecision` audit events (one per
    /// eviction episode), oldest first. The buffer keeps its capacity
    /// for the next batch's episodes.
    pub fn drain_decisions(&mut self) -> std::vec::Drain<'_, ProvenanceEvent> {
        self.decisions.drain(..)
    }

    /// Accounted bytes currently held.
    pub fn bytes(&self) -> usize {
        self.bytes
    }

    /// Number of cached sketches.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Look up a sketch, bumping its recency on hit. Counts
    /// `serve.cache.hits` / `serve.cache.misses`.
    pub fn get(&mut self, key: &CacheKey) -> Option<Sketch> {
        self.clock += 1;
        let clock = self.clock;
        match self.entries.get_mut(key) {
            Some(e) => {
                if let Some(slot) = self.recency.remove(&e.last_used) {
                    self.recency.insert(clock, slot);
                }
                e.last_used = clock;
                self.metrics.hits().inc();
                Some(e.sketch.clone())
            }
            None => {
                self.metrics.misses().inc();
                None
            }
        }
    }

    /// Insert a freshly built sketch, evicting least-recently-used
    /// entries until the capacity holds (the new entry itself is never
    /// evicted, even when oversized). Counts `serve.cache.evictions`
    /// and `serve.cache.evicted_bytes`.
    pub fn insert(&mut self, key: CacheKey, sketch: Sketch) {
        let fresh = self.admit(key, sketch);
        let evicted = self.evict_over_budget(fresh);
        if evicted > 0 {
            self.metrics.evictions().add(evicted as u64);
        }
    }

    /// Store `sketch` under `key` (replacing any previous entry) as the
    /// most recently used entry, and return its recency sequence.
    fn admit(&mut self, key: CacheKey, sketch: Sketch) -> u64 {
        let bytes = sketch.bytes();
        if let Some(old) = self.entries.remove(&key) {
            self.recency.remove(&old.last_used);
            self.bytes -= old.bytes;
        }
        self.clock += 1;
        self.bytes += bytes;
        self.render_buf.clear();
        key.render_into(&mut self.render_buf);
        let audit_key = Arc::from(self.render_buf.as_str());
        self.recency.insert(
            self.clock,
            Slot {
                key: key.clone(),
                audit_key,
            },
        );
        self.entries.insert(
            key,
            Entry {
                sketch,
                bytes,
                last_used: self.clock,
            },
        );
        self.clock
    }

    /// One `serve.cache_evict` episode, if the cache is over budget:
    /// rank every resident entry except the fresh one (recency
    /// sequence `fresh`, never a victim) by recency — default
    /// `dir=min` = LRU first — emit the audit event, then evict in
    /// ranked order until the budget holds. Returns the eviction count.
    ///
    /// The fresh entry holds the newest sequence, so the candidates are
    /// every recency slot before it, in sequence order, keyed by the
    /// audit keys rendered at insert. Sequences are unique, so the
    /// ranking is the one any candidate order would give; victims
    /// resolve through their sequence. The candidate and sequence
    /// buffers are reused across episodes, and the audit event's winner
    /// shares its candidate's key.
    fn evict_over_budget(&mut self, fresh: u64) -> usize {
        if self.bytes <= self.capacity || self.entries.len() <= 1 {
            return 0;
        }
        for (&tick, slot) in self.recency.range(..fresh) {
            self.candidates.push(Candidate::new(
                Arc::clone(&slot.audit_key),
                Score::U64(tick),
            ));
            self.ticks.push(tick);
        }
        let policy = RankByScore::new(PolicyId::CACHE_EVICT);
        let (event, ranking) = policy.choose(&self.candidates, &self.evict_params).record();
        self.decisions.push(event);
        // the audit keys are released with their slots, not held here
        self.candidates.clear();
        let mut evicted = 0;
        for &i in &ranking {
            if self.bytes <= self.capacity {
                break;
            }
            if let Some(e) = self
                .recency
                .remove(&self.ticks[i])
                .and_then(|slot| self.entries.remove(&slot.key))
            {
                self.bytes -= e.bytes;
                self.metrics.evicted_bytes().add(e.bytes as u64);
            }
            evicted += 1;
        }
        self.ticks.clear();
        evicted
    }

    /// Evict every entry owned by `owner`, regardless of fingerprint
    /// (the table was dropped). Counts `serve.cache.invalidated` per
    /// entry and `serve.cache.evicted_bytes`. Returns entries removed.
    pub fn evict_owner(&mut self, owner: &str) -> usize {
        self.evict_where(owner, |_| true)
    }

    /// Evict `owner`'s entries whose fingerprint is *not*
    /// `keep_fingerprint` — the content changed, so old-fingerprint
    /// entries are unreachable and must not squat in the byte budget.
    /// Counts `serve.cache.invalidated` per entry and
    /// `serve.cache.evicted_bytes`. Returns entries removed.
    pub fn evict_stale(&mut self, owner: &str, keep_fingerprint: u64) -> usize {
        self.evict_where(owner, |key| key.fingerprint != keep_fingerprint)
    }

    /// Shared owner-scoped eviction: `CacheKey` orders by owner first,
    /// so the owner's entries form one contiguous `BTreeMap` range.
    fn evict_where(&mut self, owner: &str, doomed: impl Fn(&CacheKey) -> bool) -> usize {
        let victims: Vec<CacheKey> = self
            .entries
            .range(
                CacheKey {
                    owner: owner.into(),
                    fingerprint: 0,
                    kind: SketchKind::Union { k: 0 },
                }..,
            )
            .take_while(|(k, _)| &*k.owner == owner)
            .filter(|(k, _)| doomed(k))
            .map(|(k, _)| k.clone())
            .collect();
        for key in &victims {
            if let Some(e) = self.entries.remove(key) {
                self.recency.remove(&e.last_used);
                self.bytes -= e.bytes;
                self.metrics.invalidated().inc();
                self.metrics.evicted_bytes().add(e.bytes as u64);
            }
        }
        victims.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rdi_table::{DataType, Field, Schema, Table, Value};

    fn sig(name: &str, k: usize) -> Sketch {
        let schema = Schema::new(vec![Field::new("c", DataType::Str)]);
        let mut t = Table::new(schema);
        t.push_row(vec![Value::str("x")]).unwrap();
        Sketch::Union(Arc::new(TableSignature::build(name, &t, k).unwrap()))
    }

    fn key(owner: &str) -> CacheKey {
        CacheKey {
            owner: owner.into(),
            fingerprint: 1,
            kind: SketchKind::Union { k: 8 },
        }
    }

    #[test]
    fn hit_returns_the_inserted_sketch() {
        let mut c = SketchCache::new(1 << 20);
        assert!(c.get(&key("a")).is_none());
        c.insert(key("a"), sig("a", 8));
        assert!(matches!(c.get(&key("a")), Some(Sketch::Union(_))));
        assert_eq!(c.len(), 1);
        assert!(c.bytes() > 0);
    }

    #[test]
    fn lru_eviction_is_by_last_touch() {
        // Each signature is ~160 bytes; capacity fits two of them.
        let mut c = SketchCache::new(340);
        c.insert(key("a"), sig("a", 8));
        c.insert(key("b"), sig("b", 8));
        assert_eq!(c.len(), 2);
        // touch `a` so `b` becomes the LRU victim
        assert!(c.get(&key("a")).is_some());
        c.insert(key("c"), sig("c", 8));
        assert!(c.get(&key("a")).is_some(), "recently touched survives");
        assert!(c.get(&key("b")).is_none(), "LRU evicted");
        assert!(c.get(&key("c")).is_some());
    }

    /// The rendered `serve.cache_evict` audit line of one episode,
    /// pinned byte for byte: its fields may change type, its text may
    /// not.
    #[test]
    fn eviction_decision_renders_byte_identically() {
        let mut c = SketchCache::new(340);
        c.insert(key("a"), sig("a", 8));
        c.insert(key("b"), sig("b", 8));
        assert!(c.get(&key("a")).is_some());
        c.insert(key("c"), sig("c", 8));
        let rendered: Vec<String> = c.drain_decisions().map(|e| e.render()).collect();
        assert_eq!(
            rendered,
            vec![
                "policy `serve.cache_evict` chose `b#0000000000000001#union:8` (score 2) from 2 \
                 candidate(s); ties=1 tie_break=none params=dir=min params_hash=9ec324015275699f"
            ]
        );
    }

    #[test]
    fn oversized_entry_still_admitted() {
        let mut c = SketchCache::new(1);
        c.insert(key("big"), sig("big", 64));
        assert_eq!(c.len(), 1, "a lone oversized entry is kept");
        assert!(c.bytes() > c.capacity());
        // the next insert evicts it
        c.insert(key("next"), sig("next", 64));
        assert_eq!(c.len(), 1);
        assert!(c.get(&key("big")).is_none());
    }

    fn key_fp(owner: &str, fingerprint: u64) -> CacheKey {
        CacheKey {
            owner: owner.into(),
            fingerprint,
            kind: SketchKind::Union { k: 8 },
        }
    }

    #[test]
    fn owner_eviction_releases_bytes_and_counts() {
        // counters are process-global; other tests may bump them
        // concurrently, so assert exact effects via return values and
        // monotone movement via the counters
        let invalidated = rdi_obs::counter("serve.cache.invalidated").get();
        let freed = rdi_obs::counter("serve.cache.evicted_bytes").get();
        let mut c = SketchCache::new(1 << 20);
        c.insert(key_fp("t1", 1), sig("t1", 8));
        c.insert(
            CacheKey {
                owner: "t1".into(),
                fingerprint: 1,
                kind: SketchKind::Join {
                    column: "c".into(),
                    k: 8,
                },
            },
            sig("t1", 8),
        );
        c.insert(key_fp("t2", 7), sig("t2", 8));
        let held = c.bytes();

        // stale eviction: t1's fingerprint moved 1 → 2; both kinds go
        assert_eq!(c.evict_stale("t1", 2), 2);
        assert_eq!(c.len(), 1, "t2 untouched");
        assert!(c.bytes() < held);
        // keep-fingerprint entries survive
        c.insert(key_fp("t2", 7), sig("t2", 8));
        assert_eq!(c.evict_stale("t2", 7), 0);
        assert_eq!(c.len(), 1);

        // owner eviction: drop removes everything t2 owns
        assert_eq!(c.evict_owner("t2"), 1);
        assert!(c.is_empty());
        assert_eq!(c.bytes(), 0);
        assert!(rdi_obs::counter("serve.cache.invalidated").get() >= invalidated + 3);
        assert!(rdi_obs::counter("serve.cache.evicted_bytes").get() > freed);
    }

    #[test]
    fn capacity_eviction_accounts_released_bytes() {
        let before = rdi_obs::counter("serve.cache.evicted_bytes").get();
        let mut c = SketchCache::new(340);
        c.insert(key("a"), sig("a", 8));
        c.insert(key("b"), sig("b", 8));
        c.insert(key("c"), sig("c", 8)); // evicts the LRU
        assert!(
            rdi_obs::counter("serve.cache.evicted_bytes").get() > before,
            "capacity eviction reports the bytes it released"
        );
    }

    /// The policy-routed eviction must replay the historic inline loop
    /// byte-for-byte: same victims, same order, same surviving bytes.
    /// The oracle below *is* the pre-refactor algorithm (pop the
    /// smallest recency sequence while over budget, never the fresh
    /// key, stop when one entry remains).
    #[test]
    fn eviction_order_is_byte_identical_to_the_pre_refactor_lru_loop() {
        struct Oracle {
            capacity: usize,
            entries: BTreeMap<CacheKey, (u64, usize)>,
            clock: u64,
            bytes: usize,
        }
        impl Oracle {
            fn get(&mut self, key: &CacheKey) -> bool {
                self.clock += 1;
                let clock = self.clock;
                match self.entries.get_mut(key) {
                    Some(e) => {
                        e.0 = clock;
                        true
                    }
                    None => false,
                }
            }
            fn insert(&mut self, key: CacheKey, bytes: usize) {
                if let Some(old) = self.entries.remove(&key) {
                    self.bytes -= old.1;
                }
                self.clock += 1;
                self.bytes += bytes;
                self.entries.insert(key.clone(), (self.clock, bytes));
                while self.bytes > self.capacity && self.entries.len() > 1 {
                    let victim = self
                        .entries
                        .iter()
                        .min_by_key(|(_, &(last_used, _))| last_used)
                        .map(|(k, _)| k.clone())
                        .expect("non-empty");
                    if victim == key {
                        break;
                    }
                    let e = self.entries.remove(&victim).expect("present");
                    self.bytes -= e.1;
                }
            }
        }

        let cap = 600;
        let mut c = SketchCache::new(cap);
        let mut oracle = Oracle {
            capacity: cap,
            entries: BTreeMap::new(),
            clock: 0,
            bytes: 0,
        };
        let names = ["a", "b", "c", "d", "e", "f", "g", "h"];
        for round in 0..3 {
            for (i, n) in names.iter().enumerate() {
                let s = sig(n, 8 + 8 * (i % 3));
                let b = s.bytes();
                c.insert(key(n), s);
                oracle.insert(key(n), b);
                // interleave touches so recency diverges from insertion
                let t = names[(i + round) % names.len()];
                assert_eq!(c.get(&key(t)).is_some(), oracle.get(&key(t)));
                let survivors: Vec<&CacheKey> = c.entries.keys().collect();
                let expected: Vec<&CacheKey> = oracle.entries.keys().collect();
                assert_eq!(survivors, expected, "round {round}, insert {n}");
                assert_eq!(c.bytes(), oracle.bytes);
            }
        }
        assert!(
            c.drain_decisions().count() > 0,
            "over-budget episodes were audited"
        );
        assert_eq!(c.drain_decisions().count(), 0, "drain empties the log");
    }

    /// The eviction episode as it ran before audit keys were kept in
    /// recency order: render and clone every resident key, in key
    /// order, on each episode, rank, then evict by key. Kept as the
    /// parity model for [`SketchCache::evict_over_budget`].
    fn reference_evict_over_budget(c: &mut SketchCache, fresh: &CacheKey) -> usize {
        if c.bytes <= c.capacity || c.entries.len() <= 1 {
            return 0;
        }
        let mut candidates = Vec::new();
        let mut keys = Vec::new();
        for (k, e) in &c.entries {
            if k == fresh {
                continue;
            }
            candidates.push(Candidate::new(k.render(), Score::U64(e.last_used)));
            keys.push(k.clone());
        }
        let policy = RankByScore::new(PolicyId::CACHE_EVICT);
        let (event, ranking) = policy.choose(&candidates, &c.evict_params).record();
        c.decisions.push(event);
        let mut evicted = 0;
        for &i in &ranking {
            if c.bytes <= c.capacity {
                break;
            }
            if let Some(e) = c.entries.remove(&keys[i]) {
                c.recency.remove(&e.last_used);
                c.bytes -= e.bytes;
            }
            evicted += 1;
        }
        evicted
    }

    const OWNERS: [&str; 5] = ["a", "b", "c", "d", "e"];

    /// Key `(owner, fingerprint, kind)` for the parity property: kind 0
    /// is a union signature, kind 1 a join profile of column `c`.
    fn op_key(owner: usize, fingerprint: u64, kind: usize) -> CacheKey {
        CacheKey {
            owner: OWNERS[owner].into(),
            fingerprint,
            kind: match kind {
                0 => SketchKind::Union { k: 8 },
                _ => SketchKind::Join {
                    column: "c".into(),
                    k: 8,
                },
            },
        }
    }

    /// One cache operation, decoded from `(op, owner, fingerprint,
    /// kind, size)`: half inserts (a one-column signature of length 8,
    /// 16 or 64, accounting 162, 226 or 610 bytes), then gets, stale
    /// evictions and owner evictions.
    #[derive(Debug, Clone, Copy)]
    enum Op {
        Insert(usize, u64, usize, usize),
        Get(usize, u64, usize),
        EvictStale(usize, u64),
        EvictOwner(usize),
    }

    fn decode(spec: (usize, usize, u64, usize, usize)) -> Op {
        let (op, owner, fp, kind, size) = spec;
        match op {
            0..=4 => Op::Insert(owner, fp, kind, [8, 16, 64][size]),
            5..=7 => Op::Get(owner, fp, kind),
            8 => Op::EvictStale(owner, fp),
            _ => Op::EvictOwner(owner),
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Random get/insert/invalidate sequences on two caches, one
        /// evicting through `evict_over_budget`, the other through the
        /// reference episode, under `dir=min` and `dir=max`: after
        /// every op the survivors, the recency order and the held
        /// bytes agree, and at the end so do the rendered decisions
        /// and the eviction counts.
        #[test]
        fn eviction_episodes_match_the_reference_model(
            spec in proptest::collection::vec((0usize..10, 0usize..5, 1u64..3, 0usize..2, 0usize..3), 0..48),
            capacity in prop_oneof![Just(1usize), Just(340), Just(700), Just(1200)],
            dir in 0usize..2,
        ) {
            let params = PolicyParams::new().with("dir", ["min", "max"][dir]);
            let mut new = SketchCache::new(capacity);
            let mut old = SketchCache::new(capacity);
            new.set_evict_params(params.clone());
            old.set_evict_params(params);
            let (mut new_evictions, mut old_evictions) = (0, 0);
            for (step, &s) in spec.iter().enumerate() {
                match decode(s) {
                    Op::Insert(owner, fp, kind, k) => {
                        let key = op_key(owner, fp, kind);
                        let fresh = new.admit(key.clone(), sig(OWNERS[owner], k));
                        new_evictions += new.evict_over_budget(fresh);
                        old.admit(key.clone(), sig(OWNERS[owner], k));
                        old_evictions += reference_evict_over_budget(&mut old, &key);
                    }
                    Op::Get(owner, fp, kind) => {
                        let key = op_key(owner, fp, kind);
                        prop_assert_eq!(new.get(&key).is_some(), old.get(&key).is_some());
                    }
                    Op::EvictStale(owner, fp) => {
                        prop_assert_eq!(
                            new.evict_stale(OWNERS[owner], fp),
                            old.evict_stale(OWNERS[owner], fp)
                        );
                    }
                    Op::EvictOwner(owner) => {
                        prop_assert_eq!(
                            new.evict_owner(OWNERS[owner]),
                            old.evict_owner(OWNERS[owner])
                        );
                    }
                }
                let survivors: Vec<&CacheKey> = new.entries.keys().collect();
                let expected: Vec<&CacheKey> = old.entries.keys().collect();
                prop_assert_eq!(survivors, expected, "step {}", step);
                prop_assert_eq!(&new.recency, &old.recency, "step {}", step);
                prop_assert_eq!(new.bytes(), old.bytes(), "step {}", step);
            }
            let rendered = |c: &mut SketchCache| -> Vec<String> {
                c.drain_decisions().map(|e| e.render()).collect()
            };
            prop_assert_eq!(rendered(&mut new), rendered(&mut old));
            prop_assert_eq!(new_evictions, old_evictions);
        }
    }

    #[test]
    fn reinsert_replaces_without_double_accounting() {
        let mut c = SketchCache::new(1 << 20);
        c.insert(key("a"), sig("a", 8));
        let b1 = c.bytes();
        c.insert(key("a"), sig("a", 8));
        assert_eq!(c.bytes(), b1);
        assert_eq!(c.len(), 1);
    }
}
