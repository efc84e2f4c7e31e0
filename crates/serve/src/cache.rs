//! The memoized query-sketch cache behind [`crate::LakeIndex`].
//!
//! It holds the sketches of ad-hoc query tables only, keyed by `(content
//! fingerprint, sketch kind)` and evicted least-recently-used under a
//! byte-accounted capacity. A registered table's union signature and
//! join profiles are not cached here: they live in its maintained store
//! (module `maint`) for as long as the table does, and a read takes
//! them from there. So every byte this cache accounts is a byte that
//! evicting its entry releases.
//!
//! Recency is a logical sequence number bumped on every hit, so
//! eviction order is a pure function of the access sequence — no wall
//! clocks, no hash-map iteration order (`BTreeMap` throughout). The
//! recency map holds the residents in ascending order of unique
//! sequences, which is the ranking an eviction episode needs, so an
//! episode decides through [`RankByScore::choose_ascending`]: it renders
//! the [`CacheKey::render`]ed audit key of the winner alone, builds that
//! one candidate, and walks the map from the winning end, evicting until
//! the budget holds. Its cost is one rendered key plus O(log n) per
//! victim, whatever the number of residents. Drained decisions leave the
//! event buffer's capacity in place for the next batch.
//!
//! The cache reports itself through `rdi-obs`: `serve.cache.hits`,
//! `serve.cache.misses`, `serve.cache.evictions` and
//! `serve.cache.evicted_bytes` counters. Each handle is resolved on its
//! first use and kept (see DESIGN.md, "Metric handles"). The bytes a
//! cache holds, and the bytes of the shard's maintained stores beside
//! it, are published by its owner, which sees every shard
//! (`CacheGauges`).
//!
//! Every integer operation here is checked or saturating (clippy's
//! `arithmetic_side_effects` is denied): below overflow the byte
//! accounting is the plain arithmetic's, and the recency clock, which
//! advances once per call, stops with a message rather than wrap and
//! reorder the residents.

#![deny(clippy::arithmetic_side_effects)]

use std::collections::BTreeMap;
use std::sync::{Arc, OnceLock};

use rdi_discovery::{MinHash, TableSignature};
use rdi_obs::{Counter, Gauge, ProvenanceEvent};
use rdi_policy::{Candidate, PolicyId, PolicyParams, RankByScore, Score, WinningEnd};

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

/// Full cache key of an ad-hoc query sketch: which content, which
/// sketch. Cloning one bumps refcounts only.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct CacheKey {
    /// Content fingerprint ([`crate::fingerprint::table_fingerprint`]).
    pub fingerprint: u64,
    /// Sketch kind + parameters.
    pub kind: SketchKind,
}

impl CacheKey {
    /// The name an ad-hoc query table goes by (it is not registered in
    /// the index): the prefix of every rendered key, the name of a query
    /// signature, and the table named by a query's errors.
    pub const QUERY_OWNER: &'static str = "<query>";

    /// Stable `<query>#fingerprint#kind` rendering — the candidate key
    /// under which this entry appears in `serve.cache_evict` policy
    /// decisions. Written by hand, not through `fmt`: a cache renders
    /// one key per eviction episode.
    pub fn render(&self) -> String {
        const HEX: &[u8; 16] = b"0123456789abcdef";
        let mut out = String::new();
        out.push_str(Self::QUERY_OWNER);
        out.push('#');
        for byte in self.fingerprint.to_be_bytes() {
            out.push(char::from(HEX[usize::from(byte >> 4)]));
            out.push(char::from(HEX[usize::from(byte & 0xf)]));
        }
        let k = match &self.kind {
            SketchKind::Union { k } => {
                out.push_str("#union:");
                k
            }
            SketchKind::Join { column, k } => {
                out.push_str("#join:");
                out.push_str(column);
                out.push(':');
                k
            }
        };
        rdi_obs::push_decimal(&mut out, *k as u64);
        out
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
    /// Approximate heap footprint, charged against the cache capacity
    /// (saturating: a footprint past `usize::MAX` reads as the maximum).
    fn bytes(&self) -> usize {
        const ENTRY_OVERHEAD: usize = 64;
        let column = |name: &str, m: &MinHash| name.len().saturating_add(m.k().saturating_mul(8));
        match self {
            Sketch::Union(sig) => sig
                .columns
                .iter()
                .map(|(n, m)| column(n, m).saturating_add(32))
                .fold(sig.name.len(), usize::saturating_add)
                .saturating_add(ENTRY_OVERHEAD),
            Sketch::Join(p) => column(&p.column, &p.minhash).saturating_add(ENTRY_OVERHEAD),
        }
    }
}

#[derive(Debug)]
struct Entry {
    sketch: Sketch,
    bytes: usize,
    last_used: u64,
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
}

/// One shard's report to [`CacheGauges`]: the accounted bytes its query
/// cache holds and the footprint of its maintained sketch stores.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct ShardBytes {
    pub(crate) cache: usize,
    pub(crate) maint: usize,
}

/// The memory gauges of a sharded index: `serve.cache.bytes` and
/// `serve.maint.bytes`, the sums over its shards, and each shard's
/// `serve.shard.{i}.cache_bytes` and `serve.shard.{i}.maint_bytes`. It
/// keeps what each shard last reported, so a report from some of the
/// shards still publishes the sums over all of them. Each handle is
/// resolved when it is first published and kept.
#[derive(Debug, Default)]
pub(crate) struct CacheGauges {
    totals: Option<[Arc<Gauge>; 2]>,
    /// Per shard, by index: its cache and maint gauges and the bytes it
    /// last reported.
    shards: Vec<([Arc<Gauge>; 2], ShardBytes)>,
}

impl CacheGauges {
    /// Take each `(shard index, bytes)` report, publish those shards'
    /// gauges, then the sums over every shard reported so far.
    pub(crate) fn publish(&mut self, reports: impl IntoIterator<Item = (usize, ShardBytes)>) {
        for (shard, bytes) in reports {
            while self.shards.len() <= shard {
                let i = self.shards.len();
                let gauges = [
                    rdi_obs::gauge(&format!("serve.shard.{i}.cache_bytes")),
                    rdi_obs::gauge(&format!("serve.shard.{i}.maint_bytes")),
                ];
                self.shards.push((gauges, ShardBytes::default()));
            }
            let ([cache, maint], held) = &mut self.shards[shard];
            *held = bytes;
            cache.set(bytes.cache as f64);
            maint.set(bytes.maint as f64);
        }
        let (cache, maint) = self
            .shards
            .iter()
            .fold((0usize, 0usize), |(c, m), (_, held)| {
                (c.saturating_add(held.cache), m.saturating_add(held.maint))
            });
        let [cache_total, maint_total] = self.totals.get_or_insert_with(|| {
            [
                rdi_obs::gauge("serve.cache.bytes"),
                rdi_obs::gauge("serve.maint.bytes"),
            ]
        });
        cache_total.set(cache as f64);
        maint_total.set(maint as f64);
    }
}

/// Byte-accounted LRU cache over [`Sketch`] artifacts.
#[derive(Debug)]
pub struct SketchCache {
    capacity: usize,
    entries: BTreeMap<CacheKey, Entry>,
    /// recency sequence → key; the smallest sequence is the LRU victim.
    recency: BTreeMap<u64, CacheKey>,
    clock: u64,
    bytes: usize,
    /// `serve.cache_evict` params (default `dir=min` over the recency
    /// sequence = least-recently-used first).
    evict_params: PolicyParams,
    /// One `PolicyDecision` audit event per eviction episode, drained
    /// by the owning index/session.
    decisions: Vec<ProvenanceEvent>,
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
        let clock = self.tick();
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
            self.bytes = self.bytes.saturating_sub(old.bytes);
        }
        let clock = self.tick();
        self.bytes = self.bytes.saturating_add(bytes);
        self.recency.insert(clock, key.clone());
        self.entries.insert(
            key,
            Entry {
                sketch,
                bytes,
                last_used: clock,
            },
        );
        clock
    }

    /// Advance the recency clock and return its new value. It advances
    /// once per call, so it would take 2^64 calls to run out; it stops
    /// there rather than wrap and rank new entries as the oldest.
    #[expect(
        clippy::expect_used,
        reason = "the clock advances by one per call from 0, so u64::MAX is out of reach"
    )]
    fn tick(&mut self) -> u64 {
        self.clock = self.clock.checked_add(1).expect("recency clock overflow");
        self.clock
    }

    /// One `serve.cache_evict` episode, if the cache is over budget:
    /// rank every resident entry except the fresh one (recency
    /// sequence `fresh`, never a victim) by recency — default
    /// `dir=min` = LRU first — emit the audit event, then evict in
    /// ranked order until the budget holds. Returns the eviction count.
    ///
    /// The fresh entry holds the newest sequence, so the candidates are
    /// every recency slot before it, already in ascending order of
    /// unique sequences. The policy names the winning end; only the
    /// winner's audit key is rendered, and victims are taken from that
    /// end of the map one at a time.
    fn evict_over_budget(&mut self, fresh: u64) -> usize {
        if self.bytes <= self.capacity || self.entries.len() <= 1 {
            return 0;
        }
        let residents = self.recency.len().saturating_sub(1);
        let (event, end) = RankByScore::new(PolicyId::CACHE_EVICT)
            .choose_ascending(
                residents,
                self.recency.range(..fresh),
                &self.evict_params,
                |(&tick, key)| Candidate::new(key.render(), Score::U64(tick)),
            )
            .record();
        self.decisions.push(event);
        let mut evicted: usize = 0;
        while self.bytes > self.capacity {
            let Some(tick) = resident_at(&self.recency, fresh, end).map(|(&tick, _)| tick) else {
                break;
            };
            if let Some(e) = self
                .recency
                .remove(&tick)
                .and_then(|key| self.entries.remove(&key))
            {
                self.bytes = self.bytes.saturating_sub(e.bytes);
                self.metrics.evicted_bytes().add(e.bytes as u64);
            }
            evicted = evicted.saturating_add(1);
        }
        evicted
    }
}

/// The resident at `end` of the recency order, leaving out the fresh
/// entry (sequence `fresh`, the newest).
fn resident_at(
    recency: &BTreeMap<u64, CacheKey>,
    fresh: u64,
    end: WinningEnd,
) -> Option<(&u64, &CacheKey)> {
    let mut residents = recency.range(..fresh);
    match end {
        WinningEnd::Lowest => residents.next(),
        WinningEnd::Highest => residents.next_back(),
    }
}

#[cfg(test)]
#[allow(
    clippy::arithmetic_side_effects,
    reason = "test fixtures count small, known quantities"
)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rdi_policy::SelectionPolicy;
    use rdi_table::{DataType, Field, Schema, Table, Value};

    fn sig(name: &str, k: usize) -> Sketch {
        let schema = Schema::new(vec![Field::new("c", DataType::Str)]);
        let mut t = Table::new(schema);
        t.push_row(vec![Value::str("x")]).unwrap();
        Sketch::Union(Arc::new(TableSignature::build(name, &t, k).unwrap()))
    }

    /// The union-signature key of query content `fingerprint`.
    fn key(fingerprint: u64) -> CacheKey {
        CacheKey {
            fingerprint,
            kind: SketchKind::Union { k: 8 },
        }
    }

    #[test]
    fn hit_returns_the_inserted_sketch() {
        let mut c = SketchCache::new(1 << 20);
        assert!(c.get(&key(1)).is_none());
        c.insert(key(1), sig("a", 8));
        assert!(matches!(c.get(&key(1)), Some(Sketch::Union(_))));
        assert_eq!(c.len(), 1);
        assert!(c.bytes() > 0);
    }

    #[test]
    fn lru_eviction_is_by_last_touch() {
        // Each signature is ~160 bytes; capacity fits two of them.
        let mut c = SketchCache::new(340);
        c.insert(key(1), sig("a", 8));
        c.insert(key(2), sig("b", 8));
        assert_eq!(c.len(), 2);
        // touch 1 so 2 becomes the LRU victim
        assert!(c.get(&key(1)).is_some());
        c.insert(key(3), sig("c", 8));
        assert!(c.get(&key(1)).is_some(), "recently touched survives");
        assert!(c.get(&key(2)).is_none(), "LRU evicted");
        assert!(c.get(&key(3)).is_some());
    }

    /// The rendered `serve.cache_evict` audit line of one episode,
    /// pinned byte for byte: its fields may change type, its text may
    /// not.
    #[test]
    fn eviction_decision_renders_byte_identically() {
        let mut c = SketchCache::new(340);
        c.insert(key(1), sig("a", 8));
        c.insert(key(2), sig("b", 8));
        assert!(c.get(&key(1)).is_some());
        c.insert(key(3), sig("c", 8));
        let rendered: Vec<String> = c.drain_decisions().map(|e| e.render()).collect();
        assert_eq!(
            rendered,
            vec![
                "policy `serve.cache_evict` chose `<query>#0000000000000002#union:8` (score 2) from 2 \
                 candidate(s); ties=1 tie_break=none params=dir=min params_hash=9ec324015275699f"
            ]
        );
    }

    #[test]
    fn oversized_entry_still_admitted() {
        let mut c = SketchCache::new(1);
        c.insert(key(1), sig("big", 64));
        assert_eq!(c.len(), 1, "a lone oversized entry is kept");
        assert!(c.bytes() > c.capacity());
        // the next insert evicts it
        c.insert(key(2), sig("next", 64));
        assert_eq!(c.len(), 1);
        assert!(c.get(&key(1)).is_none());
    }

    #[test]
    fn capacity_eviction_accounts_released_bytes() {
        let before = rdi_obs::counter("serve.cache.evicted_bytes").get();
        let mut c = SketchCache::new(340);
        c.insert(key(1), sig("a", 8));
        c.insert(key(2), sig("b", 8));
        c.insert(key(3), sig("c", 8)); // evicts the LRU
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
                let fp = i as u64;
                c.insert(key(fp), s);
                oracle.insert(key(fp), b);
                // interleave touches so recency diverges from insertion
                let t = ((i + round) % names.len()) as u64;
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

    /// Key `(fingerprint, kind)` for the parity property: kind 0 is a
    /// union signature, kind 1 a join profile of column `c`.
    fn op_key(fingerprint: u64, kind: usize) -> CacheKey {
        CacheKey {
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

    /// One cache operation on key `(fingerprint, kind)`. An insert's
    /// last field picks a one-column signature of length 8, 16 or 64
    /// (accounting 162, 226 or 610 bytes).
    #[derive(Debug, Clone, Copy)]
    enum Op {
        Insert(u64, usize, usize),
        Get(u64, usize),
    }

    /// Operation sequences of a length in `len` over `fingerprints`,
    /// mixed by `weights`: inserts and gets.
    fn ops(
        fingerprints: std::ops::Range<u64>,
        weights: [u32; 2],
        len: std::ops::Range<usize>,
    ) -> impl Strategy<Value = Vec<Op>> {
        let [insert, get] = weights;
        let op = prop_oneof![
            insert => (fingerprints.clone(), 0usize..2, 0usize..3)
                .prop_map(|(fp, kind, size)| Op::Insert(fp, kind, size)),
            get => (fingerprints, 0usize..2).prop_map(|(fp, kind)| Op::Get(fp, kind)),
        ];
        proptest::collection::vec(op, len)
    }

    /// `dir` values as a site may pass them: the policy reads every one
    /// other than `min` as `max`.
    const DIRS: [Option<&str>; 5] = [None, Some("min"), Some("max"), Some("MIN"), Some("")];

    /// The `considered` field of a `PolicyDecision` event.
    fn considered(event: &ProvenanceEvent) -> Option<usize> {
        match event {
            ProvenanceEvent::PolicyDecision { considered, .. } => Some(*considered),
            _ => None,
        }
    }

    /// Run `ops` on two caches, one evicting through
    /// `evict_over_budget`, the other through the reference episode:
    /// after every op the survivors, the recency order and the held
    /// bytes agree, and every episode's event considered every resident
    /// but the fresh entry; at the end the rendered decisions and the
    /// eviction counts agree. Returns the most residents an episode
    /// considered.
    fn match_reference(
        ops: &[Op],
        capacity: usize,
        dir: Option<&str>,
    ) -> Result<usize, TestCaseError> {
        let mut params = PolicyParams::new();
        if let Some(d) = dir {
            params.set("dir", d);
        }
        let mut new = SketchCache::new(capacity);
        let mut old = SketchCache::new(capacity);
        new.set_evict_params(params.clone());
        old.set_evict_params(params);
        // one sketch per length, shared by both caches
        let sketches: Vec<Sketch> = [8, 16, 64].map(|k| sig("q", k)).into();
        let (mut new_evictions, mut old_evictions, mut peak) = (0, 0, 0);
        for (step, &op) in ops.iter().enumerate() {
            match op {
                Op::Insert(fp, kind, size) => {
                    let key = op_key(fp, kind);
                    let sketch = &sketches[size];
                    let fresh = new.admit(key.clone(), sketch.clone());
                    let residents = new.len() - 1;
                    let episodes = new.decisions.len();
                    new_evictions += new.evict_over_budget(fresh);
                    if new.decisions.len() > episodes {
                        let event = new.decisions.last().expect("an episode was recorded");
                        prop_assert_eq!(considered(event), Some(residents), "step {}", step);
                        peak = peak.max(residents);
                    }
                    old.admit(key.clone(), sketch.clone());
                    old_evictions += reference_evict_over_budget(&mut old, &key);
                }
                Op::Get(fp, kind) => {
                    let key = op_key(fp, kind);
                    prop_assert_eq!(new.get(&key).is_some(), old.get(&key).is_some());
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
        Ok(peak)
    }

    /// Integers at both ends of their range, and in between.
    fn edge_u64() -> impl Strategy<Value = u64> {
        prop_oneof![Just(0u64), Just(u64::MAX), Just(9), Just(10), any::<u64>()]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The hand-written key rendering is byte-identical to the
        /// `format!` text it replaced, for columns holding `#`, `:` and
        /// non-ASCII text and for fingerprints and `k` at both ends of
        /// their range.
        #[test]
        fn key_render_matches_format(
            column in prop_oneof![Just(None), (0usize..5).prop_map(Some)],
            fingerprint in edge_u64(),
            k in edge_u64(),
        ) {
            let names = ["", "t#1", "<query>", "größe:é#", "表#𝔘"];
            let k = k as usize;
            let (kind, reference) = match column {
                None => (
                    SketchKind::Union { k },
                    format!("<query>#{fingerprint:016x}#union:{k}"),
                ),
                Some(c) => (
                    SketchKind::Join { column: names[c].into(), k },
                    format!("<query>#{fingerprint:016x}#join:{}:{k}", names[c]),
                ),
            };
            let key = CacheKey { fingerprint, kind };
            prop_assert_eq!(key.render(), reference);
        }

        /// Random get/insert sequences over a few keys and small
        /// capacities (at most about 7 residents) match the reference
        /// episode under every `dir` form.
        #[test]
        fn eviction_episodes_match_the_reference_model(
            ops in ops(0..10, [5, 3], 0..48),
            capacity in prop_oneof![Just(1usize), Just(340), Just(700), Just(1200)],
            dir in 0usize..5,
        ) {
            match_reference(&ops, capacity, DIRS[dir])?;
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// The same match at the size of a serving lake's query cache:
        /// 300 keys, capacities for about 120 and 150 residents of the
        /// mixed sizes, and enough inserts to fill them, so episodes
        /// rank 100 to 300 residents.
        #[test]
        fn large_eviction_episodes_match_the_reference_model(
            ops in ops(0..150, [600, 400], 600..900),
            capacity in prop_oneof![Just(40_000usize), Just(50_000)],
            dir in 0usize..5,
        ) {
            let peak = match_reference(&ops, capacity, DIRS[dir])?;
            prop_assert!((100..=300).contains(&peak), "peak {} residents", peak);
        }
    }

    #[test]
    fn reinsert_replaces_without_double_accounting() {
        let mut c = SketchCache::new(1 << 20);
        c.insert(key(1), sig("a", 8));
        let b1 = c.bytes();
        c.insert(key(1), sig("a", 8));
        assert_eq!(c.bytes(), b1);
        assert_eq!(c.len(), 1);
    }
}
