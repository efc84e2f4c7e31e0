//! # rdi-actor
//!
//! A **deterministic actor runtime** for concurrent serving: typed
//! mailboxes on std `mpsc`, a seeded virtual-time scheduler that
//! delivers message cohorts on the thread that steps it, and an
//! append-only replayable event log.
//!
//! The paper's serving-time responsibility argument (and the RAIDS
//! "responsible intelligent infrastructure" agenda, PAPERS.md) requires
//! integration constraints to hold under concurrent, long-lived
//! traffic — *and* requires the system to account for what it did and
//! in what order. An ordinary actor framework gives concurrency but
//! surrenders replayability: delivery order depends on thread timing.
//! This crate keeps both:
//!
//! * **Typed mailboxes** — [`Runtime::spawn`] returns an [`Addr<M>`]
//!   (a cloneable `mpsc` sender) for external injection; actor-to-actor
//!   sends go through [`Ctx::send`] and are buffered per handler.
//! * **Seeded virtual time** — every message gets a global sequence
//!   number and a delivery time `now + 1 + stream_seed(seed, seq) %
//!   latency_spread`; the pending set is ordered by `(vtime, seq)`.
//!   Identical seeds and injection streams replay **bitwise for any
//!   `RDI_THREADS` value** — the same per-index stream-seeding trick
//!   `rdi-par` uses for RNG streams.
//! * **Replayable event log** — the runtime (never the handlers)
//!   appends one [`EventRecord`] per delivery; [`EventLog::render`] is
//!   byte-comparable across replays.
//!
//! Observability: the runtime feeds `actor.messages_delivered` and
//! `actor.scheduler_steps` counters and an `actor.mailbox_depth` peak
//! gauge in `rdi-obs`.
//!
//! ## Example
//!
//! ```
//! use rdi_actor::{Actor, Addr, Ctx, Runtime, RuntimeConfig};
//!
//! struct Adder { total: u64 }
//! impl Actor for Adder {
//!     type Msg = u64;
//!     fn handle(&mut self, msg: u64, _ctx: &mut Ctx<'_>) { self.total += msg; }
//! }
//!
//! let mut rt = Runtime::new(RuntimeConfig::default());
//! let adder = rt.spawn("adder", Adder { total: 0 });
//! for i in 1..=10 { adder.send(i).unwrap(); }
//! rt.run_until_idle();
//! assert_eq!(rt.actor::<Adder>(adder.id()).unwrap().total, 55);
//! assert_eq!(rt.event_log().len(), 10);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod log;
mod metrics;
pub mod runtime;

pub use crate::log::{EventLog, EventRecord};
pub use crate::runtime::{Actor, ActorError, ActorId, Addr, Ctx, Message, Runtime, RuntimeConfig};
