//! Deterministic fault-injecting source wrapper.

use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};
use rdi_table::Schema;
use rdi_tailor::{Draw, Source, SourceError};

use crate::metrics;

/// Wraps any [`Source`] and makes a configurable fraction of draws
/// fail.
///
/// Determinism contract:
///
/// * the fault schedule is sampled from the wrapper's **own** RNG,
///   seeded at construction — the run RNG passed to `try_draw` is never
///   consumed by injection, so the wrapped source sees exactly the
///   stream it would see unwrapped;
/// * at total rate 0.0 the fault RNG is never consumed either
///   ([`crate::FaultSpec::sample`] short-circuits), so a rate-0.0
///   wrapper is **bitwise identical** to the bare source;
/// * injected faults are tallied per mode (and mirrored to the global
///   `rdi-obs` counters `fault.injected.<kind>`), so experiments can
///   report exactly what was injected.
#[derive(Debug, Clone)]
pub struct FaultySource<S> {
    inner: S,
    spec: crate::FaultSpec,
    fault_rng: StdRng,
    injected: [u64; 4],
}

impl<S: Source> FaultySource<S> {
    /// Wrap `inner`, injecting faults per `spec` from a stream seeded
    /// with `seed`.
    pub fn new(inner: S, spec: crate::FaultSpec, seed: u64) -> Self {
        spec.validate();
        #[allow(
            clippy::disallowed_methods,
            reason = "the caller's seed is this fault stream's own seed, so injection replays from it"
        )]
        let fault_rng = StdRng::seed_from_u64(seed);
        FaultySource {
            inner,
            spec,
            fault_rng,
            injected: [0; 4],
        }
    }

    /// The injection spec.
    pub fn spec(&self) -> &crate::FaultSpec {
        &self.spec
    }

    /// Faults injected so far, per mode in [`SourceError::ALL`] order.
    pub fn injected(&self) -> [u64; 4] {
        self.injected
    }

    /// Total faults injected so far.
    pub fn injected_total(&self) -> u64 {
        self.injected.iter().sum()
    }

    /// Borrow the wrapped source.
    pub fn inner(&self) -> &S {
        &self.inner
    }

    /// Unwrap, discarding the fault state.
    pub fn into_inner(self) -> S {
        self.inner
    }
}

impl<S: Source> Source for FaultySource<S> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn cost(&self) -> f64 {
        self.inner.cost()
    }

    fn schema(&self) -> &Schema {
        self.inner.schema()
    }

    fn frequencies(&self) -> &[f64] {
        self.inner.frequencies()
    }

    fn try_draw(&mut self, rng: &mut dyn RngCore) -> Result<Draw, SourceError> {
        if let Some(e) = self.spec.sample(&mut self.fault_rng) {
            self.injected[e.index()] += 1;
            metrics::INJECTED[e.index()].inc();
            return Err(e);
        }
        self.inner.try_draw(rng)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::FaultSpec;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use rdi_table::{DataType, Field, GroupKey, GroupSpec, Role, Table, Value};
    use rdi_tailor::{DtProblem, TableSource};

    fn base_source(name: &str) -> TableSource {
        let schema = Schema::new(vec![
            Field::new("g", DataType::Str).with_role(Role::Sensitive)
        ]);
        let mut t = Table::new(schema);
        for i in 0..8 {
            t.push_row(vec![Value::str(if i % 2 == 0 { "a" } else { "b" })])
                .unwrap();
        }
        let problem = DtProblem::exact_counts(
            GroupSpec::new(vec!["g"]),
            vec![
                (GroupKey(vec![Value::str("a")]), 1),
                (GroupKey(vec![Value::str("b")]), 1),
            ],
        );
        TableSource::new(name, t, 1.0, &problem).unwrap()
    }

    /// Drain `n` draws, returning (ok results, per-mode fault tallies).
    fn drain(
        src: &mut FaultySource<TableSource>,
        run_seed: u64,
        n: usize,
    ) -> (Vec<Draw>, [u64; 4]) {
        let mut rng = StdRng::seed_from_u64(run_seed);
        let mut oks = Vec::new();
        for _ in 0..n {
            if let Ok(d) = src.try_draw(&mut rng) {
                oks.push(d);
            }
        }
        (oks, src.injected())
    }

    #[test]
    fn rate_zero_is_bitwise_identical_to_bare_source() {
        let bare = base_source("s");
        let mut wrapped = FaultySource::new(base_source("s"), FaultSpec::none(), 99);
        let mut rng_a = StdRng::seed_from_u64(5);
        let mut rng_b = StdRng::seed_from_u64(5);
        for _ in 0..500 {
            let a = TableSource::draw(&bare, &mut rng_a);
            let b = wrapped.try_draw(&mut rng_b).expect("rate 0 never fails");
            assert_eq!(a, b);
        }
        // run RNG streams stayed in lockstep too
        assert_eq!(rng_a.next_u64(), rng_b.next_u64());
        assert_eq!(wrapped.injected_total(), 0);
    }

    #[test]
    fn injection_never_perturbs_the_run_rng_stream() {
        // Faults fire *before* the base draw and consume no run RNG, so
        // a faulty source's k-th SUCCESS must be byte-identical to the
        // bare source's k-th draw under the same run seed.
        let mut quiet = FaultySource::new(base_source("s"), FaultSpec::none(), 1);
        let mut noisy = FaultySource::new(base_source("s"), FaultSpec::uniform(0.5), 1);
        let (oks_quiet, _) = drain(&mut quiet, 42, 300);
        let (oks_noisy, injected) = drain(&mut noisy, 42, 300);
        let n_faults: u64 = injected.iter().sum();
        assert!(n_faults > 0, "0.5 rate must inject something in 300 draws");
        assert_eq!(oks_noisy.len() as u64 + n_faults, 300);
        assert_eq!(oks_quiet[..oks_noisy.len()], oks_noisy[..]);
    }

    #[test]
    fn identical_seeds_identical_fault_schedules() {
        let run = |fault_seed: u64| -> (Vec<bool>, [u64; 4]) {
            let mut s = FaultySource::new(base_source("s"), FaultSpec::uniform(0.4), fault_seed);
            let mut rng = StdRng::seed_from_u64(7);
            let pattern = (0..400).map(|_| s.try_draw(&mut rng).is_ok()).collect();
            (pattern, s.injected())
        };
        assert_eq!(run(13), run(13));
        assert_ne!(run(13).0, run(14).0);
    }

    #[test]
    fn injection_rate_is_approximately_honoured() {
        let mut s = FaultySource::new(base_source("s"), FaultSpec::uniform(0.3), 21);
        let (_oks, injected) = drain(&mut s, 3, 10_000);
        let total: u64 = injected.iter().sum();
        let frac = total as f64 / 10_000.0;
        assert!((frac - 0.3).abs() < 0.02, "frac={frac}");
        // all four modes fire
        for (i, c) in injected.iter().enumerate() {
            assert!(*c > 0, "mode {i} never fired");
        }
    }

    #[test]
    fn dead_source_fails_every_draw() {
        let mut s = FaultySource::new(base_source("s"), FaultSpec::dead(), 2);
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..50 {
            assert_eq!(s.try_draw(&mut rng), Err(SourceError::Unavailable));
        }
        assert_eq!(s.injected(), [50, 0, 0, 0]);
    }

    #[test]
    fn metadata_delegates_to_inner() {
        let s = FaultySource::new(base_source("inner-name"), FaultSpec::none(), 0);
        assert_eq!(Source::name(&s), "inner-name");
        assert_eq!(Source::cost(&s), 1.0);
        assert_eq!(Source::frequencies(&s).len(), 2);
        assert_eq!(Source::schema(&s).fields().len(), 1);
    }
}
