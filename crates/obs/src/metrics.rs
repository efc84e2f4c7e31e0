//! Named counters, gauges, and fixed-bucket histograms.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use serde_json::Value;

use crate::span::{SpanGuard, SpanRecord};

/// A monotonically increasing integer metric.
///
/// Increments are atomic integer additions, so the total is independent
/// of which thread performed each increment — the basis of the
/// determinism contract (see the crate docs).
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// Add `n` to the counter.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Add one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }

    fn reset(&self) {
        self.0.store(0, Ordering::Relaxed);
    }
}

/// A last-write-wins floating-point metric (plus a monotone
/// [`Gauge::set_max`] for peaks). Not covered by the determinism
/// contract except for `set_max` over schedule-independent values.
#[derive(Debug)]
pub struct Gauge(AtomicU64);

impl Default for Gauge {
    fn default() -> Self {
        Gauge(AtomicU64::new(0f64.to_bits()))
    }
}

impl Gauge {
    /// Set the gauge.
    pub fn set(&self, v: f64) {
        self.0.store(v.to_bits(), Ordering::Relaxed);
    }

    /// Raise the gauge to `v` if `v` exceeds the current value
    /// (compare-and-swap max; order-independent, so peaks recorded from
    /// parallel workers are deterministic).
    pub fn set_max(&self, v: f64) {
        let mut cur = self.0.load(Ordering::Relaxed);
        while v > f64::from_bits(cur) {
            match self.0.compare_exchange_weak(
                cur,
                v.to_bits(),
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => return,
                Err(seen) => cur = seen,
            }
        }
    }

    /// Current value.
    pub fn get(&self) -> f64 {
        f64::from_bits(self.0.load(Ordering::Relaxed))
    }

    fn reset(&self) {
        self.set(0.0);
    }
}

/// A histogram with fixed upper-bound buckets plus an overflow bucket.
///
/// A recorded value lands in the first bucket whose upper bound is
/// `>= value` (bounds are inclusive); values above the last bound land
/// in the overflow bucket. Bucket counts are integer atomics and share
/// the counter determinism guarantee; `sum` is a float accumulation
/// whose exact value may depend on accumulation order under
/// parallelism.
#[derive(Debug)]
pub struct Histogram {
    bounds: Vec<f64>,
    /// One count per bound, plus the overflow bucket.
    counts: Vec<AtomicU64>,
    total: AtomicU64,
    sum_bits: AtomicU64,
}

impl Histogram {
    fn new(bounds: &[f64]) -> Self {
        assert!(
            bounds.windows(2).all(|w| w[0] < w[1]),
            "histogram bounds must be strictly increasing"
        );
        Histogram {
            bounds: bounds.to_vec(),
            counts: (0..bounds.len() + 1).map(|_| AtomicU64::new(0)).collect(),
            total: AtomicU64::new(0),
            sum_bits: AtomicU64::new(0f64.to_bits()),
        }
    }

    /// Record one observation.
    pub fn record(&self, v: f64) {
        let idx = self
            .bounds
            .iter()
            .position(|&b| v <= b)
            .unwrap_or(self.bounds.len());
        self.counts[idx].fetch_add(1, Ordering::Relaxed);
        self.total.fetch_add(1, Ordering::Relaxed);
        let mut cur = self.sum_bits.load(Ordering::Relaxed);
        loop {
            let next = (f64::from_bits(cur) + v).to_bits();
            match self.sum_bits.compare_exchange_weak(
                cur,
                next,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => return,
                Err(seen) => cur = seen,
            }
        }
    }

    /// The configured upper bounds (overflow bucket excluded).
    pub fn bounds(&self) -> &[f64] {
        &self.bounds
    }

    /// Per-bucket counts: one entry per bound plus the overflow bucket.
    pub fn bucket_counts(&self) -> Vec<u64> {
        self.counts
            .iter()
            .map(|c| c.load(Ordering::Relaxed))
            .collect()
    }

    /// Total observations recorded.
    pub fn count(&self) -> u64 {
        self.total.load(Ordering::Relaxed)
    }

    /// Sum of all recorded values (order-dependent under parallelism).
    pub fn sum(&self) -> f64 {
        f64::from_bits(self.sum_bits.load(Ordering::Relaxed))
    }

    fn reset(&self) {
        for c in &self.counts {
            c.store(0, Ordering::Relaxed);
        }
        self.total.store(0, Ordering::Relaxed);
        self.sum_bits.store(0f64.to_bits(), Ordering::Relaxed);
    }
}

/// A registry of named metrics plus the span log.
///
/// Handles ([`Arc<Counter>`] etc.) are cheap to clone and stay valid for
/// the registry's lifetime — including across [`MetricsRegistry::reset`],
/// which zeroes values but never drops entries, so call sites may cache
/// handles in statics.
#[derive(Debug)]
pub struct MetricsRegistry {
    counters: Mutex<BTreeMap<String, Arc<Counter>>>,
    gauges: Mutex<BTreeMap<String, Arc<Gauge>>>,
    histograms: Mutex<BTreeMap<String, Arc<Histogram>>>,
    pub(crate) spans: Mutex<Vec<SpanRecord>>,
    clock: ClockSource,
}

/// Time source for span durations.
///
/// `Wall` (the default) reads the OS monotonic clock. `Fake` counts
/// ticks instead of time: a span takes one tick plus, for every span
/// that finishes directly inside it, that span's ticks and one more. On
/// one thread that is what a counter advanced by every clock read
/// gives. Spans opened under a carried stack (see
/// [`crate::with_span_stack`]) count toward the carrying span on
/// whichever thread they run, and no thread's ticks depend on what
/// other threads do meanwhile, so span "nanos" and snapshots are
/// byte-reproducible across runs and thread counts. Selected by
/// `RDI_FAKE_CLOCK=1` in the environment or
/// [`MetricsRegistry::with_fake_clock`].
#[derive(Debug)]
enum ClockSource {
    Wall,
    Fake,
}

impl Default for MetricsRegistry {
    fn default() -> Self {
        let fake = std::env::var("RDI_FAKE_CLOCK").is_ok_and(|v| v == "1");
        MetricsRegistry {
            counters: Mutex::default(),
            gauges: Mutex::default(),
            histograms: Mutex::default(),
            spans: Mutex::default(),
            clock: if fake {
                ClockSource::Fake
            } else {
                ClockSource::Wall
            },
        }
    }
}

/// Lock a registry mutex, recovering from poisoning: every value held
/// under these locks is a plain aggregate (map of handles, span log),
/// so a panic mid-update cannot leave a broken invariant — continuing
/// with the inner value is always safe.
pub(crate) fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

impl MetricsRegistry {
    /// An empty registry (tests and embedded uses; library
    /// instrumentation uses [`crate::global`]).
    pub fn new() -> Self {
        MetricsRegistry::default()
    }

    /// A registry whose span clock is the deterministic tick counter
    /// regardless of `RDI_FAKE_CLOCK` — for tests that assert on span
    /// durations.
    pub fn with_fake_clock() -> Self {
        MetricsRegistry {
            clock: ClockSource::Fake,
            ..MetricsRegistry::default()
        }
    }

    /// True when span durations are deterministic fake-clock tick
    /// counts rather than wall time.
    pub fn uses_fake_clock(&self) -> bool {
        matches!(self.clock, ClockSource::Fake)
    }

    /// The counter named `name`, created on first access.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        let mut map = lock(&self.counters);
        match map.get(name) {
            Some(c) => Arc::clone(c),
            None => {
                let c = Arc::new(Counter::default());
                map.insert(name.to_string(), Arc::clone(&c));
                c
            }
        }
    }

    /// The gauge named `name`, created on first access.
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        let mut map = lock(&self.gauges);
        match map.get(name) {
            Some(g) => Arc::clone(g),
            None => {
                let g = Arc::new(Gauge::default());
                map.insert(name.to_string(), Arc::clone(&g));
                g
            }
        }
    }

    /// The histogram named `name`, created with `bounds` on first
    /// access (later calls ignore `bounds` and return the existing
    /// histogram).
    pub fn histogram(&self, name: &str, bounds: &[f64]) -> Arc<Histogram> {
        let mut map = lock(&self.histograms);
        match map.get(name) {
            Some(h) => Arc::clone(h),
            None => {
                let h = Arc::new(Histogram::new(bounds));
                map.insert(name.to_string(), Arc::clone(&h));
                h
            }
        }
    }

    /// Open a timing span; the guard records into this registry's span
    /// log on drop. See [`crate::span`].
    pub fn span(&self, name: &str) -> SpanGuard<'_> {
        SpanGuard::enter(self, name)
    }

    /// All finished span records, in completion order (children before
    /// parents).
    pub fn span_records(&self) -> Vec<SpanRecord> {
        lock(&self.spans).clone()
    }

    /// Zero every metric and clear the span log. Entries (and therefore
    /// cached handles) survive.
    pub fn reset(&self) {
        for c in lock(&self.counters).values() {
            c.reset();
        }
        for g in lock(&self.gauges).values() {
            g.reset();
        }
        for h in lock(&self.histograms).values() {
            h.reset();
        }
        lock(&self.spans).clear();
    }

    /// The snapshot as a JSON tree:
    ///
    /// ```json
    /// {"counters": {"name": 3},
    ///  "gauges": {"name": 1.5},
    ///  "histograms": {"name": {"bounds": [..], "counts": [..],
    ///                          "count": 2, "sum": 3.0}},
    ///  "spans": {"path": {"count": 1, "total_ns": 120}}}
    /// ```
    ///
    /// Names are sorted, so the layout is deterministic.
    pub fn snapshot_value(&self) -> Value {
        let counters: Vec<(String, Value)> = lock(&self.counters)
            .iter()
            .map(|(k, c)| (k.clone(), Value::U64(c.get())))
            .collect();
        let gauges: Vec<(String, Value)> = lock(&self.gauges)
            .iter()
            .map(|(k, g)| (k.clone(), Value::F64(g.get())))
            .collect();
        let histograms: Vec<(String, Value)> = lock(&self.histograms)
            .iter()
            .map(|(k, h)| {
                let v = Value::Obj(vec![
                    (
                        "bounds".into(),
                        Value::Arr(h.bounds().iter().map(|&b| Value::F64(b)).collect()),
                    ),
                    (
                        "counts".into(),
                        Value::Arr(h.bucket_counts().into_iter().map(Value::U64).collect()),
                    ),
                    ("count".into(), Value::U64(h.count())),
                    ("sum".into(), Value::F64(h.sum())),
                ]);
                (k.clone(), v)
            })
            .collect();
        // Aggregate spans per path, sorted.
        let mut agg: BTreeMap<String, (u64, u64)> = BTreeMap::new();
        for r in lock(&self.spans).iter() {
            let e = agg.entry(r.path.clone()).or_insert((0, 0));
            e.0 += 1;
            e.1 += r.nanos;
        }
        let spans: Vec<(String, Value)> = agg
            .into_iter()
            .map(|(path, (count, ns))| {
                (
                    path,
                    Value::Obj(vec![
                        ("count".into(), Value::U64(count)),
                        ("total_ns".into(), Value::U64(ns)),
                    ]),
                )
            })
            .collect();
        Value::Obj(vec![
            ("counters".into(), Value::Obj(counters)),
            ("gauges".into(), Value::Obj(gauges)),
            ("histograms".into(), Value::Obj(histograms)),
            ("spans".into(), Value::Obj(spans)),
        ])
    }

    /// [`MetricsRegistry::snapshot_value`] as compact JSON text.
    #[expect(
        clippy::expect_used,
        reason = "serializing an in-memory Value tree built by snapshot_value cannot fail"
    )]
    pub fn snapshot_json(&self) -> String {
        serde_json::to_string(&self.snapshot_value()).expect("snapshot serializes")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_add_and_reset_keep_handles() {
        let reg = MetricsRegistry::new();
        let c = reg.counter("x.hits");
        c.add(3);
        c.inc();
        assert_eq!(c.get(), 4);
        assert_eq!(reg.counter("x.hits").get(), 4, "same entry by name");
        reg.reset();
        assert_eq!(c.get(), 0, "cached handle sees the reset");
        c.inc();
        assert_eq!(reg.counter("x.hits").get(), 1);
    }

    #[test]
    fn gauge_set_and_set_max() {
        let g = Gauge::default();
        g.set(2.5);
        assert_eq!(g.get(), 2.5);
        g.set_max(1.0);
        assert_eq!(g.get(), 2.5, "set_max never lowers");
        g.set_max(7.0);
        assert_eq!(g.get(), 7.0);
    }

    #[test]
    fn histogram_bucket_boundaries_are_inclusive_upper_bounds() {
        let reg = MetricsRegistry::new();
        let h = reg.histogram("lat", &[1.0, 10.0, 100.0]);
        // on-boundary values land in the bucket they bound
        for v in [0.0, 1.0] {
            h.record(v);
        }
        h.record(1.000001); // just above → second bucket
        h.record(10.0);
        h.record(100.0);
        h.record(100.5); // overflow
        assert_eq!(h.bucket_counts(), vec![2, 2, 1, 1]);
        assert_eq!(h.count(), 6);
        assert!((h.sum() - (0.0 + 1.0 + 1.000001 + 10.0 + 100.0 + 100.5)).abs() < 1e-9);
        assert_eq!(h.bounds(), &[1.0, 10.0, 100.0]);
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn histogram_rejects_unsorted_bounds() {
        MetricsRegistry::new().histogram("bad", &[2.0, 1.0]);
    }

    #[test]
    fn counter_totals_are_thread_invariant() {
        // The same 1000 increments, split across different numbers of
        // std threads, always total 1000.
        let mut totals = Vec::new();
        for threads in [1usize, 2, 8] {
            let reg = MetricsRegistry::new();
            let c = reg.counter("work.items");
            std::thread::scope(|s| {
                for t in 0..threads {
                    let c = Arc::clone(&c);
                    let per = 1000 / threads + usize::from(t < 1000 % threads);
                    s.spawn(move || {
                        for _ in 0..per {
                            c.inc();
                        }
                    });
                }
            });
            totals.push(c.get());
        }
        assert_eq!(totals, vec![1000, 1000, 1000]);
    }

    #[test]
    fn snapshot_round_trips_through_compat_serde_json() {
        let reg = MetricsRegistry::new();
        reg.counter("a.count").add(7);
        reg.gauge("a.cost").set(1.5);
        reg.histogram("a.lat", &[1.0, 2.0]).record(1.5);
        drop(reg.span("stage"));
        let text = reg.snapshot_json();
        let back: Value = serde_json::from_str(&text).unwrap();
        // the parser reads small integers back as I64 where the snapshot
        // holds U64, so round-trip equality is checked on the re-rendered
        // text (identical) and on the semantic accessors below
        assert_eq!(serde_json::to_string(&back).unwrap(), text);
        assert_eq!(back.member("counters").member("a.count").as_u64(), Some(7));
        assert_eq!(back.member("gauges").member("a.cost").as_f64(), Some(1.5));
        let h = back.member("histograms").member("a.lat");
        assert_eq!(h.member("count").as_u64(), Some(1));
        assert_eq!(
            back.member("spans")
                .member("stage")
                .member("count")
                .as_u64(),
            Some(1)
        );
    }

    #[test]
    fn global_registry_is_shared() {
        let c = crate::counter("obs_test.global_counter");
        let before = c.get();
        crate::counter("obs_test.global_counter").add(2);
        assert_eq!(c.get(), before + 2);
    }
}
