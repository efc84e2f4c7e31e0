//! The memoized sketch/signature cache behind [`crate::LakeIndex`].
//!
//! Entries are keyed by `(owner table id, content fingerprint, sketch
//! kind)` and evicted least-recently-used under a byte-accounted
//! capacity. Recency is a logical sequence number bumped on every hit,
//! so eviction order is a pure function of the access sequence — no
//! wall clocks, no hash-map iteration order (`BTreeMap` throughout).
//!
//! The cache reports itself through `rdi-obs`: `serve.cache.hits`,
//! `serve.cache.misses`, `serve.cache.evictions` (capacity pressure),
//! `serve.cache.invalidated` (explicit owner/fingerprint eviction) and
//! `serve.cache.evicted_bytes` (bytes released by either path)
//! counters, plus a `serve.cache.bytes` gauge.

use std::collections::BTreeMap;
use std::sync::Arc;

use rdi_discovery::{MinHash, TableSignature};
use rdi_obs::ProvenanceEvent;
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
        /// The profiled column.
        column: String,
        /// MinHash signature length.
        k: usize,
    },
}

/// Full cache key: which table, which content, which sketch.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct CacheKey {
    /// Registered table id, or [`CacheKey::QUERY_OWNER`] for ad-hoc
    /// query tables.
    pub owner: String,
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
        match &self.kind {
            SketchKind::Union { k } => {
                format!("{}#{:016x}#union:{k}", self.owner, self.fingerprint)
            }
            SketchKind::Join { column, k } => {
                format!("{}#{:016x}#join:{column}:{k}", self.owner, self.fingerprint)
            }
        }
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
    /// [`CacheKey::render`], rendered once at insert: the candidate key
    /// of this entry in every later eviction episode.
    audit_key: String,
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
    /// eviction episode), oldest first.
    pub fn drain_decisions(&mut self) -> Vec<ProvenanceEvent> {
        std::mem::take(&mut self.decisions)
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
                self.recency.remove(&e.last_used);
                e.last_used = clock;
                self.recency.insert(clock, key.clone());
                rdi_obs::counter("serve.cache.hits").inc();
                Some(e.sketch.clone())
            }
            None => {
                rdi_obs::counter("serve.cache.misses").inc();
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
            rdi_obs::counter("serve.cache.evictions").add(evicted as u64);
        }
        rdi_obs::gauge("serve.cache.bytes").set(self.bytes as f64);
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
        let audit_key = key.render();
        self.recency.insert(self.clock, key.clone());
        self.entries.insert(
            key,
            Entry {
                sketch,
                bytes,
                last_used: self.clock,
                audit_key,
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
    /// Candidates come in key order with the keys rendered at insert,
    /// and victims resolve through their recency sequence, so an
    /// episode clones one string per resident entry and no key.
    fn evict_over_budget(&mut self, fresh: u64) -> usize {
        if self.bytes <= self.capacity || self.entries.len() <= 1 {
            return 0;
        }
        let mut candidates = Vec::with_capacity(self.entries.len() - 1);
        let mut ticks = Vec::with_capacity(self.entries.len() - 1);
        for e in self.entries.values() {
            if e.last_used == fresh {
                continue;
            }
            candidates.push(Candidate::new(e.audit_key.clone(), Score::U64(e.last_used)));
            ticks.push(e.last_used);
        }
        let policy = RankByScore::new(PolicyId::CACHE_EVICT);
        let decision = policy.choose(&candidates, &self.evict_params);
        self.decisions.push(rdi_obs::policy_decision_event(
            &decision.rationale(&candidates, &self.evict_params),
        ));
        let mut evicted = 0;
        for &i in &decision.ranking {
            if self.bytes <= self.capacity {
                break;
            }
            if let Some(e) = self
                .recency
                .remove(&ticks[i])
                .and_then(|key| self.entries.remove(&key))
            {
                self.bytes -= e.bytes;
                rdi_obs::counter("serve.cache.evicted_bytes").add(e.bytes as u64);
            }
            evicted += 1;
        }
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
                    owner: owner.to_string(),
                    fingerprint: 0,
                    kind: SketchKind::Union { k: 0 },
                }..,
            )
            .take_while(|(k, _)| k.owner == owner)
            .filter(|(k, _)| doomed(k))
            .map(|(k, _)| k.clone())
            .collect();
        for key in &victims {
            if let Some(e) = self.entries.remove(key) {
                self.recency.remove(&e.last_used);
                self.bytes -= e.bytes;
                rdi_obs::counter("serve.cache.invalidated").inc();
                rdi_obs::counter("serve.cache.evicted_bytes").add(e.bytes as u64);
            }
        }
        rdi_obs::gauge("serve.cache.bytes").set(self.bytes as f64);
        victims.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rdi_table::{DataType, Field, Schema, Table, Value};

    fn sig(name: &str, k: usize) -> Sketch {
        let schema = Schema::new(vec![Field::new("c", DataType::Str)]);
        let mut t = Table::new(schema);
        t.push_row(vec![Value::str("x")]).unwrap();
        Sketch::Union(Arc::new(TableSignature::build(name, &t, k).unwrap()))
    }

    fn key(owner: &str) -> CacheKey {
        CacheKey {
            owner: owner.to_string(),
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
            owner: owner.to_string(),
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
                owner: "t1".to_string(),
                fingerprint: 1,
                kind: SketchKind::Join {
                    column: "c".to_string(),
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
            !c.drain_decisions().is_empty(),
            "over-budget episodes were audited"
        );
        assert!(c.drain_decisions().is_empty(), "drain empties the log");
    }

    /// The eviction episode as it ran before audit keys were stored in
    /// the entries: render and clone every resident key on each
    /// episode, rank, then evict by key. Kept as the parity reference
    /// for [`SketchCache::evict_over_budget`].
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
        let decision = policy.choose(&candidates, &c.evict_params);
        c.decisions.push(rdi_obs::policy_decision_event(
            &decision.rationale(&candidates, &c.evict_params),
        ));
        let mut evicted = 0;
        for &i in &decision.ranking {
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

    enum Op {
        /// Insert a one-column signature of length `k` owned by the name.
        Insert(&'static str, usize),
        /// Look the name's entry up (a hit bumps its recency).
        Get(&'static str),
    }

    /// Run `ops` on two caches, one evicting through
    /// `evict_over_budget`, the other through the reference episode,
    /// and require the same survivors and bytes after every op and the
    /// same decision events and eviction count at the end. Returns the
    /// survivors, the eviction count and the number of episodes.
    fn episode_parity(
        capacity: usize,
        params: Option<PolicyParams>,
        ops: &[Op],
    ) -> (Vec<String>, usize, usize) {
        let mut new = SketchCache::new(capacity);
        let mut old = SketchCache::new(capacity);
        if let Some(p) = params {
            new.set_evict_params(p.clone());
            old.set_evict_params(p);
        }
        let (mut new_evictions, mut old_evictions) = (0, 0);
        for (step, op) in ops.iter().enumerate() {
            match *op {
                Op::Insert(owner, k) => {
                    let fresh = new.admit(key(owner), sig(owner, k));
                    new_evictions += new.evict_over_budget(fresh);
                    old.admit(key(owner), sig(owner, k));
                    old_evictions += reference_evict_over_budget(&mut old, &key(owner));
                }
                Op::Get(owner) => {
                    assert_eq!(
                        new.get(&key(owner)).is_some(),
                        old.get(&key(owner)).is_some(),
                        "step {step}"
                    );
                }
            }
            let survivors: Vec<&CacheKey> = new.entries.keys().collect();
            let expected: Vec<&CacheKey> = old.entries.keys().collect();
            assert_eq!(survivors, expected, "step {step}");
            assert_eq!(new.recency, old.recency, "step {step}");
            assert_eq!(new.bytes(), old.bytes(), "step {step}");
        }
        let decisions = new.drain_decisions();
        assert_eq!(decisions, old.drain_decisions());
        assert_eq!(new_evictions, old_evictions);
        let survivors = new.entries.keys().map(|k| k.owner.clone()).collect();
        (survivors, new_evictions, decisions.len())
    }

    // A one-column signature of length 8 owned by a one-letter name
    // accounts 162 bytes; of length 64, 610 bytes.

    #[test]
    fn episode_parity_one_victim() {
        let ops = [Op::Insert("a", 8), Op::Insert("b", 8), Op::Insert("c", 8)];
        let (survivors, evictions, episodes) = episode_parity(340, None, &ops);
        assert_eq!(survivors, ["b", "c"]);
        assert_eq!((evictions, episodes), (1, 1));
    }

    #[test]
    fn episode_parity_several_victims_from_one_oversized_insert() {
        let ops = [
            Op::Insert("a", 8),
            Op::Insert("b", 8),
            Op::Insert("c", 8),
            Op::Insert("d", 8),
            Op::Insert("e", 64),
        ];
        let (survivors, evictions, episodes) = episode_parity(700, None, &ops);
        assert_eq!(survivors, ["e"]);
        assert_eq!((evictions, episodes), (4, 1));
    }

    #[test]
    fn episode_parity_under_a_dir_max_override() {
        let ops = [
            Op::Insert("a", 8),
            Op::Insert("b", 8),
            Op::Insert("c", 8),
            Op::Insert("d", 8),
        ];
        let params = PolicyParams::new().with("dir", "max");
        let (survivors, evictions, episodes) = episode_parity(340, Some(params), &ops);
        // most recently used first: b goes for c, then c goes for d
        assert_eq!(survivors, ["a", "d"]);
        assert_eq!((evictions, episodes), (2, 2));
    }

    #[test]
    fn episode_parity_with_a_lone_oversized_fresh_entry() {
        let ops = [Op::Insert("a", 64), Op::Insert("b", 64)];
        let (survivors, evictions, episodes) = episode_parity(1, None, &ops);
        // the lone entry opens no episode; the next insert evicts it
        assert_eq!(survivors, ["b"]);
        assert_eq!((evictions, episodes), (1, 1));
    }

    #[test]
    fn episode_parity_after_hits_reorder_recency() {
        let ops = [
            Op::Insert("a", 8),
            Op::Insert("b", 8),
            Op::Insert("c", 8),
            Op::Insert("d", 8),
            Op::Get("a"),
            Op::Get("b"),
            Op::Insert("e", 8),
            Op::Get("c"),
            Op::Insert("f", 8),
        ];
        let (survivors, evictions, episodes) = episode_parity(700, None, &ops);
        // c is least recently used at the first episode, d at the second
        assert_eq!(survivors, ["a", "b", "e", "f"]);
        assert_eq!((evictions, episodes), (2, 2));
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
