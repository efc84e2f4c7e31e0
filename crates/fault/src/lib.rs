//! # rdi-fault
//!
//! Deterministic fault injection plus the resilience primitives a
//! gracefully-degrading integration pipeline is built from.
//!
//! The tutorial's motivating scenario (§1, Ex. 1) integrates records
//! from many autonomous sources — CAPriCORN-style federations — where
//! sources go down, return corrupt rows, or stall. A responsible
//! pipeline must treat those failures as first-class inputs: record
//! *what it could not collect* in provenance and audit output rather
//! than panic (Doan et al.'s system-building agenda; the RAIDS framing
//! of responsible data systems as infrastructure).
//!
//! This crate supplies the failure side of that contract:
//!
//! * [`spec`] — [`FaultSpec`]: per-mode injection rates over the
//!   [`rdi_tailor::SourceError`] taxonomy (`Unavailable`, `Corrupt`,
//!   `Truncated`, `Timeout`);
//! * [`inject`] — [`FaultySource`]: wraps any [`rdi_tailor::Source`]
//!   and injects each failure mode from its **own** seeded RNG stream,
//!   so the fault schedule is a pure function of `(spec, seed)` and the
//!   wrapped source's draw stream is untouched. At rate 0.0 the wrapper
//!   is bitwise identical to the bare source;
//! * [`backoff`] — [`Backoff`]: capped exponential retry delays
//!   measured in deterministic clock *ticks*, never wall time;
//! * [`breaker`] — [`RecoveringBreaker`]: quarantine a source after K
//!   consecutive failures, with deterministic half-open recovery after
//!   a tick-measured cooldown for long-lived serving paths (the
//!   resilient executor never admits a probe, so there a quarantine
//!   lasts the rest of the run);
//! * [`clock`] — [`TickClock`]: the virtual time the backoff delays
//!   accrue on, aligned with the `RDI_FAKE_CLOCK` span-timing
//!   discipline from `rdi-obs` so resilience runs snapshot
//!   byte-reproducibly;
//! * [`config`] — [`ResilienceConfig`]: the retry/backoff/breaker
//!   parameter bundle consumed by `rdi-core`'s resilient executor.
//!
//! Everything is zero-dependency (workspace compat crates only) and
//! seed-deterministic: identical seeds yield identical fault schedules
//! regardless of thread count.
//!
//! ## Example
//!
//! ```
//! use rand::SeedableRng;
//! use rdi_fault::{FaultSpec, FaultySource};
//! use rdi_tailor::prelude::*;
//! use rdi_table::{DataType, Field, Role, Schema, Table, Value};
//!
//! let schema = Schema::new(vec![Field::new("g", DataType::Str).with_role(Role::Sensitive)]);
//! let mut t = Table::new(schema);
//! for i in 0..10 {
//!     t.push_row(vec![Value::str(if i % 2 == 0 { "a" } else { "b" })]).unwrap();
//! }
//! let problem = DtProblem::exact_counts(
//!     GroupSpec::new(vec!["g"]),
//!     vec![(GroupKey(vec![Value::str("a")]), 1), (GroupKey(vec![Value::str("b")]), 1)],
//! );
//! let base = TableSource::new("s0", t, 1.0, &problem).unwrap();
//! // 30% of draws fail, split evenly across the four failure modes.
//! let mut faulty = FaultySource::new(base, FaultSpec::uniform(0.3), 7);
//! let mut rng = rand::rngs::StdRng::seed_from_u64(1);
//! let mut failures = 0;
//! for _ in 0..200 {
//!     if faulty.try_draw(&mut rng).is_err() { failures += 1; }
//! }
//! assert!(failures > 30 && failures < 90, "≈60 expected, got {failures}");
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod backoff;
pub mod breaker;
pub mod clock;
pub mod config;
pub mod inject;
mod metrics;
pub mod spec;

pub use backoff::Backoff;
pub use breaker::{Admission, RecoveringBreaker, RecoveryState, TripVerdict};
pub use clock::TickClock;
pub use config::ResilienceConfig;
pub use inject::FaultySource;
pub use spec::FaultSpec;

// Re-exported so fault-handling code can name the taxonomy without a
// separate rdi-tailor import.
pub use rdi_tailor::SourceError;
