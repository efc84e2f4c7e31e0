//! The deterministic scheduler: typed mailboxes, virtual-time message
//! ordering, and cohort delivery over `rdi-par`.
//!
//! ## How determinism is achieved
//!
//! Every message — whether injected from outside through an [`Addr`]
//! or sent between actors via [`Ctx::send`] — is stamped with a global
//! **sequence number** at enqueue time and a **delivery virtual time**
//! `now + 1 + jitter`, where `jitter = stream_seed(seed, seq) %
//! latency_spread` (the same per-index stream-seeding trick `rdi-par`
//! uses for RNG streams). The pending queue is a `BTreeMap` keyed by
//! `(vtime, seq)`, so the delivery order is a pure function of the
//! scheduler seed and the injection stream — never of thread timing.
//! A per-target floor clamps each delivery time to be no earlier than
//! previously enqueued messages for the same actor, so per-actor
//! delivery is FIFO in enqueue order and jitter only reorders *across*
//! actors.
//!
//! One [`Runtime::step`] delivers the *cohort*: every envelope at the
//! minimal pending virtual time. The cohort is grouped by target actor
//! (targets in actor-id order, messages in sequence order within a
//! target) and the groups run as owned jobs on the runtime's
//! [`rdi_par::Pool`], which places each result at its job's index. Its
//! workers start with the first cohort that runs in parallel, serve
//! every later one and are joined when the runtime drops. Handlers
//! never touch shared state: sends go to a per-group outbox and the
//! event log is assembled by the runtime from the returned fragments,
//! in actor-id order, so any `RDI_THREADS` value replays bitwise.

use std::any::Any;
use std::collections::BTreeMap;
use std::fmt::{self, Write as _};
use std::panic::{self, AssertUnwindSafe};
use std::sync::{mpsc, Mutex, PoisonError};

use rdi_par::{stream_seed, Pool, Threads};

use crate::log::{EventLog, EventRecord};
use crate::metrics;

/// Maximum bytes of a message's `Debug` rendering kept in the event
/// log; a longer rendering is cut at the last char boundary at or below
/// it and marked with `…`.
const SUMMARY_MAX: usize = 96;

/// Bytes [`CappedWriter`] accepts before refusing: `SUMMARY_MAX` plus
/// one more (possibly 4-byte) char, enough to tell whether the rendering
/// runs past the cut and where the cut's char boundary lies.
const SUMMARY_CAP: usize = SUMMARY_MAX + 4;

/// Anything an actor can receive: `Debug` (for the event log), `Send`
/// (cohorts deliver on `rdi-par` workers), `'static` (type-erased in
/// flight). Blanket-implemented — never implement it by hand.
pub trait Message: fmt::Debug + Send + 'static {}

impl<T: fmt::Debug + Send + 'static> Message for T {}

/// A deterministic actor: single-threaded mutable state plus a typed
/// message handler. The runtime guarantees `handle` is never invoked
/// concurrently for the same actor, and that the sequence of messages
/// it sees is a pure function of the scheduler seed and the injection
/// stream.
pub trait Actor: Send + 'static {
    /// The message type this actor consumes.
    type Msg: Message;

    /// Consume one message. Sends issued through `ctx` are buffered and
    /// enqueued by the runtime after the whole cohort completes, in
    /// deterministic order.
    fn handle(&mut self, msg: Self::Msg, ctx: &mut Ctx<'_>);
}

/// Identity of a spawned actor: its spawn index, totally ordered so
/// cohort groups have a canonical order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ActorId(pub(crate) usize);

impl ActorId {
    /// The spawn index.
    pub fn index(self) -> usize {
        self.0
    }
}

impl fmt::Display for ActorId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "#{}", self.0)
    }
}

/// Errors surfaced by mailbox operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ActorError {
    /// The runtime owning the receiving mailbox was dropped.
    MailboxClosed,
}

impl fmt::Display for ActorError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ActorError::MailboxClosed => f.write_str("mailbox closed: runtime dropped"),
        }
    }
}

impl std::error::Error for ActorError {}

/// A typed external handle to one actor's mailbox (std `mpsc` sender).
///
/// Cloneable and `Send`: any thread may inject messages. Injected
/// messages are drained into the virtual-time queue at the start of the
/// next [`Runtime::step`], in actor-id order then send order — so a
/// deterministic injection order yields a deterministic schedule.
#[derive(Debug)]
pub struct Addr<M: Message> {
    id: ActorId,
    tx: mpsc::Sender<M>,
}

impl<M: Message> Addr<M> {
    /// The target actor.
    pub fn id(&self) -> ActorId {
        self.id
    }

    /// Inject one message from outside the runtime.
    pub fn send(&self, msg: M) -> Result<(), ActorError> {
        self.tx.send(msg).map_err(|_| ActorError::MailboxClosed)
    }
}

impl<M: Message> Clone for Addr<M> {
    fn clone(&self) -> Self {
        Addr {
            id: self.id,
            tx: self.tx.clone(),
        }
    }
}

/// Handler-side context: who am I, what time is it, and a buffered
/// outbox for deterministic sends.
pub struct Ctx<'a> {
    self_id: ActorId,
    now: u64,
    outbox: &'a mut Vec<(ActorId, Box<dyn AnyMessage>)>,
}

impl Ctx<'_> {
    /// The actor currently handling a message.
    pub fn self_id(&self) -> ActorId {
        self.self_id
    }

    /// Current virtual time (the delivery time of the message being
    /// handled).
    pub fn now(&self) -> u64 {
        self.now
    }

    /// Send `msg` to `to`. The send is buffered and enqueued by the
    /// runtime after the cohort completes; delivery lands at a seeded
    /// future virtual time. Sending to an id whose actor expects a
    /// different message type is not a panic: the delivery is dropped
    /// and recorded as an error in the event log.
    pub fn send<M: Message>(&mut self, to: ActorId, msg: M) {
        self.outbox.push((to, Box::new(msg)));
    }
}

/// Object-safe view of a message: downcastable payload plus a `Debug`
/// summary for the event log.
trait AnyMessage: Send {
    fn into_any(self: Box<Self>) -> Box<dyn Any>;
    fn summary(&self) -> String;
}

impl<M: Message> AnyMessage for M {
    fn into_any(self: Box<Self>) -> Box<dyn Any> {
        self
    }

    fn summary(&self) -> String {
        let mut out = CappedWriter {
            buf: String::with_capacity(SUMMARY_CAP),
            refused: false,
        };
        // `Err` means the writer refused text past its cap (or the Debug
        // impl failed); either way `out.buf` holds a prefix of the
        // rendering and is cut below.
        if write!(out, "{self:?}").is_ok() && out.buf.len() <= SUMMARY_MAX {
            return out.buf;
        }
        let mut cut = SUMMARY_MAX.min(out.buf.len());
        while !out.buf.is_char_boundary(cut) {
            cut -= 1;
        }
        out.buf.truncate(cut);
        out.buf.push('…');
        out.buf
    }
}

/// `fmt::Write` sink that keeps the first [`SUMMARY_CAP`] bytes of a
/// rendering and refuses the rest, so a summary costs time proportional
/// to the cap, not to the message. After its first refusal it refuses
/// every write, so a `Debug` impl that ignores the error cannot append
/// text after the cut.
struct CappedWriter {
    buf: String,
    refused: bool,
}

impl fmt::Write for CappedWriter {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        if self.refused {
            return Err(fmt::Error);
        }
        let room = SUMMARY_CAP - self.buf.len();
        if s.len() <= room {
            self.buf.push_str(s);
            return Ok(());
        }
        let mut end = room;
        while !s.is_char_boundary(end) {
            end -= 1;
        }
        self.buf.push_str(&s[..end]);
        self.refused = true;
        Err(fmt::Error)
    }
}

/// Object-safe view of an actor cell.
trait DynActor: Send {
    /// Deliver a type-erased message; `Err` is a human-readable
    /// description of a payload type mismatch.
    fn deliver(&mut self, msg: Box<dyn Any>, ctx: &mut Ctx<'_>) -> Result<(), String>;
    fn as_any(&self) -> &dyn Any;
    fn into_any(self: Box<Self>) -> Box<dyn Any>;
}

/// The typed cell a spawned actor lives in.
struct Cell<A: Actor>(A);

impl<A: Actor> DynActor for Cell<A> {
    fn deliver(&mut self, msg: Box<dyn Any>, ctx: &mut Ctx<'_>) -> Result<(), String> {
        match msg.downcast::<A::Msg>() {
            Ok(m) => {
                self.0.handle(*m, ctx);
                Ok(())
            }
            Err(_) => Err(format!(
                "payload is not the {} this actor consumes",
                std::any::type_name::<A::Msg>()
            )),
        }
    }

    fn as_any(&self) -> &dyn Any {
        self
    }

    fn into_any(self: Box<Self>) -> Box<dyn Any> {
        self
    }
}

/// Runtime-side view of one typed mailbox.
trait Mailbox: Send {
    fn drain(&mut self) -> Vec<Box<dyn AnyMessage>>;
}

struct TypedMailbox<M: Message>(mpsc::Receiver<M>);

impl<M: Message> Mailbox for TypedMailbox<M> {
    fn drain(&mut self) -> Vec<Box<dyn AnyMessage>> {
        let mut out: Vec<Box<dyn AnyMessage>> = Vec::new();
        while let Ok(m) = self.0.try_recv() {
            out.push(Box::new(m));
        }
        out
    }
}

/// An in-flight message.
struct Envelope {
    seq: u64,
    from: Option<ActorId>,
    to: ActorId,
    msg: Box<dyn AnyMessage>,
}

/// Scheduler knobs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RuntimeConfig {
    /// Master scheduler seed: message `seq` gets latency jitter
    /// `stream_seed(seed, seq) % latency_spread`.
    pub seed: u64,
    /// Width of the jitter window in virtual ticks (clamped to ≥ 1; a
    /// spread of 1 means no jitter — strict FIFO by sequence number).
    pub latency_spread: u64,
    /// Thread configuration for cohort delivery.
    pub threads: Threads,
}

impl Default for RuntimeConfig {
    fn default() -> Self {
        RuntimeConfig {
            seed: 0,
            latency_spread: 4,
            threads: Threads::auto(),
        }
    }
}

/// One job: all of a cohort's messages for one target, with the actor
/// taken out of its slot so the handler has exclusive mutable access on
/// whatever thread the job lands on.
struct Job {
    id: ActorId,
    actor: Option<Box<dyn DynActor>>,
    msgs: Vec<Envelope>,
}

/// What one job produced.
struct JobOut {
    id: ActorId,
    actor: Option<Box<dyn DynActor>>,
    delivered: Vec<Delivery>,
    outbox: Vec<(ActorId, Box<dyn AnyMessage>)>,
    /// The payload of the handler that panicked; the actor is lost
    /// with it.
    panic: Option<Box<dyn Any + Send>>,
}

/// Log fragment for one delivered message.
struct Delivery {
    seq: u64,
    from: Option<ActorId>,
    summary: String,
    /// The payload was dropped undelivered or its handler panicked (the
    /// ` !error: ` suffix is already in `summary`).
    failed: bool,
}

/// Deliver one job's messages in sequence order at virtual time `vtime`.
///
/// Each delivery catches its own unwind. A panicking handler loses the
/// actor and the sends of that delivery; its message and every later
/// one in the job are logged as failed deliveries, and the payload is
/// returned for [`Runtime::step`] to re-raise.
fn run_job(job: Job, vtime: u64) -> JobOut {
    let Job {
        id,
        mut actor,
        msgs,
    } = job;
    let mut outbox: Vec<(ActorId, Box<dyn AnyMessage>)> = Vec::new();
    let mut delivered: Vec<Delivery> = Vec::with_capacity(msgs.len());
    let mut panicked = None;
    for env in msgs {
        let mut summary = env.msg.summary();
        let outcome = match actor.as_mut() {
            Some(a) => {
                let sent = outbox.len();
                let mut ctx = Ctx {
                    self_id: id,
                    now: vtime,
                    outbox: &mut outbox,
                };
                let msg = env.msg.into_any();
                match panic::catch_unwind(AssertUnwindSafe(|| a.deliver(msg, &mut ctx))) {
                    Ok(outcome) => outcome,
                    Err(payload) => {
                        panicked = Some(payload);
                        actor = None;
                        outbox.truncate(sent);
                        Err(String::from("handler panicked; actor lost"))
                    }
                }
            }
            None if panicked.is_some() => Err(String::from("actor lost to an earlier panic")),
            None => Err(String::from("target actor was taken")),
        };
        if let Err(e) = &outcome {
            summary.push_str(" !error: ");
            summary.push_str(e);
        }
        delivered.push(Delivery {
            seq: env.seq,
            from: env.from,
            summary,
            failed: outcome.is_err(),
        });
    }
    JobOut {
        id,
        actor,
        delivered,
        outbox,
        panic: panicked,
    }
}

/// The deterministic actor runtime: a registry of actors, their
/// mailboxes, the pending virtual-time queue, and the event log.
///
/// See the [module docs](self) for the scheduling contract. Typical
/// use: [`spawn`](Runtime::spawn) actors, inject work through the
/// returned [`Addr`]s, [`run_until_idle`](Runtime::run_until_idle),
/// then inspect state via [`actor`](Runtime::actor) or reclaim it via
/// [`take`](Runtime::take).
pub struct Runtime {
    config: RuntimeConfig,
    actors: Vec<Option<Box<dyn DynActor>>>,
    names: Vec<String>,
    mailboxes: Vec<Box<dyn Mailbox>>,
    queue: BTreeMap<(u64, u64), Envelope>,
    /// Per-target floor on delivery time: a message to `t` never lands
    /// before one enqueued to `t` earlier, so per-actor delivery is
    /// FIFO in enqueue order and jitter only reorders *across* actors.
    target_floor: BTreeMap<ActorId, u64>,
    next_seq: u64,
    now: u64,
    steps: u64,
    delivery_errors: u64,
    log: EventLog,
    /// Cohort workers, sized by `config.threads`: started at the first
    /// parallel cohort, joined when the runtime drops.
    pool: Pool,
}

impl fmt::Debug for Runtime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Runtime")
            .field("config", &self.config)
            .field("actors", &self.names)
            .field("queued", &self.queue.len())
            .field("now", &self.now)
            .field("steps", &self.steps)
            .finish()
    }
}

impl Runtime {
    /// An empty runtime.
    pub fn new(config: RuntimeConfig) -> Self {
        Runtime {
            config,
            actors: Vec::new(),
            names: Vec::new(),
            mailboxes: Vec::new(),
            queue: BTreeMap::new(),
            target_floor: BTreeMap::new(),
            next_seq: 0,
            now: 0,
            steps: 0,
            delivery_errors: 0,
            log: EventLog::default(),
            pool: Pool::new(config.threads.min_len(2)),
        }
    }

    /// Register an actor under `name` (names are for the event log;
    /// they need not be unique). Returns the typed external handle.
    pub fn spawn<A: Actor>(&mut self, name: &str, actor: A) -> Addr<A::Msg> {
        let id = ActorId(self.actors.len());
        let (tx, rx) = mpsc::channel();
        self.actors.push(Some(Box::new(Cell(actor))));
        self.names.push(name.to_string());
        self.mailboxes.push(Box::new(TypedMailbox(rx)));
        Addr { id, tx }
    }

    /// The scheduler configuration.
    pub fn config(&self) -> &RuntimeConfig {
        &self.config
    }

    /// Number of spawned actors.
    pub fn actor_count(&self) -> usize {
        self.actors.len()
    }

    /// Spawn name of `id`.
    pub fn name(&self, id: ActorId) -> Option<&str> {
        self.names.get(id.0).map(String::as_str)
    }

    /// Current virtual time.
    pub fn now(&self) -> u64 {
        self.now
    }

    /// Scheduler steps taken so far.
    pub fn steps(&self) -> u64 {
        self.steps
    }

    /// Envelopes waiting in the virtual-time queue (external mailboxes
    /// not yet drained are not counted).
    pub fn queue_len(&self) -> usize {
        self.queue.len()
    }

    /// Deliveries dropped because the payload type did not match the
    /// target actor (each is also recorded in the event log).
    pub fn delivery_errors(&self) -> u64 {
        self.delivery_errors
    }

    /// The append-only delivery log.
    pub fn event_log(&self) -> &EventLog {
        &self.log
    }

    /// Borrow a spawned actor's state (None: unknown id or wrong type).
    pub fn actor<A: Actor>(&self, id: ActorId) -> Option<&A> {
        self.actors
            .get(id.0)?
            .as_ref()?
            .as_any()
            .downcast_ref::<Cell<A>>()
            .map(|c| &c.0)
    }

    /// Remove a spawned actor and reclaim its state (None: unknown id
    /// or wrong type; a wrong-type request leaves the actor in place).
    /// Messages later delivered to the vacated id are recorded as
    /// delivery errors, not panics.
    pub fn take<A: Actor>(&mut self, id: ActorId) -> Option<A> {
        let slot = self.actors.get_mut(id.0)?;
        if !slot.as_ref()?.as_any().is::<Cell<A>>() {
            return None;
        }
        let boxed = slot.take()?;
        boxed.into_any().downcast::<Cell<A>>().ok().map(|c| c.0)
    }

    /// Enqueue one envelope at a seeded future virtual time.
    fn enqueue(&mut self, from: Option<ActorId>, to: ActorId, msg: Box<dyn AnyMessage>) {
        let seq = self.next_seq;
        self.next_seq += 1;
        let spread = self.config.latency_spread.max(1);
        let jitter = stream_seed(self.config.seed, seq) % spread;
        let floor = self.target_floor.get(&to).copied().unwrap_or(0);
        let vtime = (self.now + 1 + jitter).max(floor);
        self.target_floor.insert(to, vtime);
        self.queue
            .insert((vtime, seq), Envelope { seq, from, to, msg });
    }

    /// Move externally injected messages into the virtual-time queue,
    /// in actor-id order then per-mailbox send order.
    fn drain_mailboxes(&mut self) {
        for i in 0..self.mailboxes.len() {
            for msg in self.mailboxes[i].drain() {
                // External sends target the mailbox owner; the sender is
                // outside the runtime.
                let to = ActorId(self.queue_owner(i));
                self.enqueue(None, to, msg);
            }
        }
    }

    /// Mailbox `i` belongs to actor `i` (parallel vectors).
    fn queue_owner(&self, i: usize) -> usize {
        i
    }

    /// Deliver the cohort at the minimal pending virtual time. Returns
    /// the number of messages delivered (0 = idle: nothing pending in
    /// mailboxes or queue).
    pub fn step(&mut self) -> usize {
        self.drain_mailboxes();
        let vtime = match self.queue.keys().next() {
            Some(&(t, _)) => t,
            None => return 0,
        };
        self.now = vtime;
        self.steps += 1;
        metrics::SCHEDULER_STEPS.inc();
        metrics::MAILBOX_DEPTH.set_max(self.queue.len() as f64);

        // Pop the cohort: every envelope at `vtime`, in sequence order.
        let mut cohort: Vec<Envelope> = Vec::new();
        loop {
            match self.queue.first_key_value() {
                Some((&(t, _), _)) if t == vtime => {
                    if let Some((_, env)) = self.queue.pop_first() {
                        cohort.push(env);
                    }
                }
                _ => break,
            }
        }

        // Group by target actor; BTreeMap gives actor-id order, pops
        // above give sequence order within each group.
        let mut groups: BTreeMap<ActorId, Vec<Envelope>> = BTreeMap::new();
        for env in cohort {
            groups.entry(env.to).or_default().push(env);
        }

        // One job per target, in actor-id order.
        let jobs: Vec<Mutex<Option<Job>>> = groups
            .into_iter()
            .map(|(id, msgs)| {
                let actor = self.actors.get_mut(id.0).and_then(Option::take);
                Mutex::new(Some(Job { id, actor, msgs }))
            })
            .collect();

        // Each delivery catches its own unwind, so one panicking
        // handler loses only its own actor: every job is spliced back
        // below before the panic goes on.
        let outs: Vec<Option<JobOut>> = self.pool.map(jobs, move |cell| {
            let job = lock_cell(cell).take()?;
            Some(run_job(job, vtime))
        });

        // Splice: the pool returns jobs in input (actor-id) order, so
        // log appends and outbox enqueues below are deterministic.
        let mut delivered_total = 0usize;
        let mut panicked = None;
        for out in outs.into_iter().flatten() {
            let JobOut {
                id,
                actor,
                delivered,
                outbox,
                panic,
            } = out;
            if let Some(payload) = panic {
                // the lowest actor id's payload is the one re-raised
                panicked.get_or_insert(payload);
            }
            if let Some(slot) = self.actors.get_mut(id.0) {
                *slot = actor;
            }
            let name = self.names.get(id.0).cloned().unwrap_or_default();
            for d in delivered {
                delivered_total += 1;
                if d.failed {
                    self.delivery_errors += 1;
                    metrics::DELIVERY_ERRORS.inc();
                }
                self.log.push(EventRecord {
                    step: self.steps,
                    vtime,
                    seq: d.seq,
                    from: d.from,
                    to: id,
                    actor: name.clone(),
                    summary: d.summary,
                });
            }
            for (to, msg) in outbox {
                self.enqueue(Some(id), to, msg);
            }
        }
        metrics::MESSAGES_DELIVERED.add(delivered_total as u64);
        if let Some(payload) = panicked {
            panic::resume_unwind(payload);
        }
        delivered_total
    }

    /// Step until both the queue and every mailbox are empty. Returns
    /// the total number of messages delivered.
    pub fn run_until_idle(&mut self) -> u64 {
        let mut total = 0u64;
        loop {
            let n = self.step();
            if n == 0 {
                return total;
            }
            total += n as u64;
        }
    }
}

/// Poison-recovering lock: a panicking handler on another job must not
/// cascade into a second panic here.
fn lock_cell<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::RefCell;
    use std::panic::{self, AssertUnwindSafe};
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::{Arc, Barrier, Condvar, MutexGuard};
    use std::thread;
    use std::time::Duration;

    /// Every test that steps a runtime feeds the global `actor.*`
    /// metrics; holding this lock keeps them out of the exact counts
    /// `fan_out_replays_at_any_thread_count` reads.
    static METRICS: Mutex<()> = Mutex::new(());

    fn metrics_lock() -> MutexGuard<'static, ()> {
        lock_cell(&METRICS)
    }

    /// Counts greetings; replies `Pong(count)` to the given id.
    struct Ping {
        count: u64,
    }

    #[derive(Debug)]
    struct Greet {
        reply_to: ActorId,
    }

    impl Actor for Ping {
        type Msg = Greet;
        fn handle(&mut self, msg: Greet, ctx: &mut Ctx<'_>) {
            self.count += 1;
            ctx.send(msg.reply_to, Pong(self.count));
        }
    }

    /// Collects pong payloads.
    struct Sink {
        seen: Vec<u64>,
    }

    #[derive(Debug)]
    struct Pong(u64);

    impl Actor for Sink {
        type Msg = Pong;
        fn handle(&mut self, msg: Pong, _ctx: &mut Ctx<'_>) {
            self.seen.push(msg.0);
        }
    }

    fn ping_pong(seed: u64, threads: Threads, n: u64) -> (String, Vec<u64>) {
        let _metrics = metrics_lock();
        let mut rt = Runtime::new(RuntimeConfig {
            seed,
            latency_spread: 4,
            threads,
        });
        let sink = rt.spawn("sink", Sink { seen: Vec::new() });
        let ping = rt.spawn("ping", Ping { count: 0 });
        for _ in 0..n {
            ping.send(Greet {
                reply_to: sink.id(),
            })
            .unwrap();
        }
        rt.run_until_idle();
        let seen = rt.take::<Sink>(sink.id()).unwrap().seen;
        (rt.event_log().render(), seen)
    }

    #[test]
    fn delivers_and_replies() {
        let (log, seen) = ping_pong(7, Threads::fixed(2), 5);
        assert_eq!(seen.len(), 5);
        // Pings are handled in sequence order, so counts arrive sorted.
        assert_eq!(seen, vec![1, 2, 3, 4, 5]);
        assert_eq!(log.lines().count(), 10, "5 greets + 5 pongs:\n{log}");
        assert!(log.contains("ext -> ping"), "{log}");
        assert!(log.contains("-> sink"), "{log}");
    }

    #[test]
    fn same_seed_replays_bitwise_for_any_thread_count() {
        let baseline = ping_pong(42, Threads::fixed(1), 8);
        assert_eq!(baseline, ping_pong(42, Threads::fixed(2), 8));
        assert_eq!(baseline, ping_pong(42, Threads::fixed(8), 8));
    }

    #[test]
    fn different_seeds_still_preserve_per_actor_order() {
        // Jitter reorders deliveries *between* actors, never within
        // one: per-target messages stay in sequence order.
        for seed in [0, 1, 99] {
            let (_, seen) = ping_pong(seed, Threads::fixed(4), 6);
            assert_eq!(seen, vec![1, 2, 3, 4, 5, 6], "seed {seed}");
        }
    }

    #[test]
    fn type_mismatch_is_logged_not_panicked() {
        struct Confused;
        impl Actor for Confused {
            type Msg = Pong;
            fn handle(&mut self, _msg: Pong, ctx: &mut Ctx<'_>) {
                // sends a Greet to itself — but it only consumes Pong
                let me = ctx.self_id();
                ctx.send(me, Greet { reply_to: me });
            }
        }
        let _metrics = metrics_lock();
        let mut rt = Runtime::new(RuntimeConfig::default());
        let a = rt.spawn("confused", Confused);
        a.send(Pong(1)).unwrap();
        rt.run_until_idle();
        assert_eq!(rt.delivery_errors(), 1);
        let suffix = format!(
            " !error: payload is not the {} this actor consumes",
            std::any::type_name::<Pong>()
        );
        let failed: Vec<&EventRecord> = rt
            .event_log()
            .records()
            .iter()
            .filter(|r| r.summary.ends_with(&suffix))
            .collect();
        assert_eq!(failed.len(), 1, "{}", rt.event_log().render());
    }

    #[test]
    fn error_text_in_a_payload_is_not_a_delivery_error() {
        struct Echo;
        impl Actor for Echo {
            type Msg = String;
            fn handle(&mut self, _msg: String, _ctx: &mut Ctx<'_>) {}
        }
        let _metrics = metrics_lock();
        let mut rt = Runtime::new(RuntimeConfig::default());
        let echo = rt.spawn("echo", Echo);
        echo.send(String::from(" !error: x")).unwrap();
        rt.run_until_idle();
        assert!(rt.event_log().render().contains(" !error: x"));
        assert_eq!(rt.delivery_errors(), 0);
    }

    /// The summary rendering before the capped writer: format the whole
    /// message, then cut. Kept as the byte-for-byte reference.
    fn reference_summary(msg: &dyn fmt::Debug) -> String {
        let full = format!("{msg:?}");
        if full.len() <= SUMMARY_MAX {
            return full;
        }
        let mut cut = SUMMARY_MAX;
        while !full.is_char_boundary(cut) {
            cut -= 1;
        }
        format!("{}…", &full[..cut])
    }

    /// Renders its pieces verbatim, one `write_str` each, counting the
    /// bytes accepted and the writes accepted after the first refusal.
    /// With `stubborn`, ignores write errors and keeps going.
    #[derive(Default)]
    struct Pieces {
        pieces: Vec<String>,
        stubborn: bool,
        accepted_bytes: AtomicUsize,
        accepted_after_refusal: AtomicUsize,
    }

    impl fmt::Debug for Pieces {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            let mut refused = false;
            for p in &self.pieces {
                match f.write_str(p) {
                    Ok(()) => {
                        self.accepted_bytes.fetch_add(p.len(), Ordering::Relaxed);
                        if refused {
                            self.accepted_after_refusal.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                    Err(e) if !self.stubborn => return Err(e),
                    Err(_) => refused = true,
                }
            }
            Ok(())
        }
    }

    fn pieces(parts: &[&str], stubborn: bool) -> Pieces {
        Pieces {
            pieces: parts.iter().map(|p| p.to_string()).collect(),
            stubborn,
            ..Pieces::default()
        }
    }

    #[test]
    fn capped_summary_matches_reference_around_the_cut() {
        let a = |n: usize| "a".repeat(n);
        // Shorter than, exactly at, one byte over, and far over the cap.
        for n in [
            0,
            1,
            SUMMARY_MAX - 1,
            SUMMARY_MAX,
            SUMMARY_MAX + 1,
            5 * SUMMARY_MAX,
        ] {
            let msg = pieces(&[&a(n)], false);
            assert_eq!(msg.summary(), reference_summary(&msg), "len {n}");
            assert_eq!(msg.summary().len() <= SUMMARY_MAX, n <= SUMMARY_MAX);
        }
        // A 2-, 3- or 4-byte char straddling the cut (and the writer's
        // cap), as one write or split over many small ones.
        for lead in SUMMARY_MAX - 4..=SUMMARY_CAP {
            for wide in ["é", "€", "😀"] {
                for tail in ["", "b", "bbbbbbbbbb"] {
                    let whole = pieces(&[&format!("{}{wide}{tail}", a(lead))], false);
                    let split = pieces(&[&a(lead), wide, tail], false);
                    let expected = reference_summary(&whole);
                    assert_eq!(whole.summary(), expected, "{lead} {wide} {tail:?}");
                    assert_eq!(split.summary(), expected, "{lead} {wide} {tail:?}");
                }
            }
        }
        // Derived Debug impls write in many small pieces.
        for len in 0..40u64 {
            let msg: Vec<u64> = (0..len).map(|i| i * 1_000_003).collect();
            assert_eq!(msg.summary(), reference_summary(&msg), "vec of {len}");
        }
    }

    #[test]
    fn capped_summary_refuses_every_write_after_the_first_refusal() {
        for lead in SUMMARY_MAX - 4..=SUMMARY_CAP {
            let msg = pieces(&[&"a".repeat(lead), "😀", "b", "c", "é", "dd"], true);
            assert_eq!(msg.summary(), reference_summary(&msg), "lead {lead}");
            assert_eq!(
                msg.accepted_after_refusal.load(Ordering::Relaxed),
                0,
                "lead {lead}"
            );
        }
    }

    #[test]
    fn capped_summary_rendering_is_bounded() {
        // About 1 MB of Debug text in ten-byte pieces.
        let parts = vec!["0123456789"; 100_000];
        for stubborn in [false, true] {
            let msg = pieces(&parts, stubborn);
            let summary = msg.summary();
            let accepted = msg.accepted_bytes.load(Ordering::Relaxed);
            assert!(accepted <= SUMMARY_CAP, "{accepted} bytes accepted");
            assert_eq!(summary, reference_summary(&pieces(&parts, stubborn)));
        }
    }

    #[test]
    fn take_is_type_checked_and_send_fails_after_drop() {
        let mut rt = Runtime::new(RuntimeConfig::default());
        let sink = rt.spawn("sink", Sink { seen: Vec::new() });
        assert!(rt.take::<Ping>(sink.id()).is_none(), "wrong type");
        assert!(rt.actor::<Sink>(sink.id()).is_some(), "still in place");
        assert!(rt.take::<Sink>(sink.id()).is_some());
        assert!(rt.actor::<Sink>(sink.id()).is_none());
        drop(rt);
        assert_eq!(sink.send(Pong(1)), Err(ActorError::MailboxClosed));
    }

    #[test]
    fn virtual_time_is_monotone_and_steps_counted() {
        let _metrics = metrics_lock();
        let mut rt = Runtime::new(RuntimeConfig {
            seed: 3,
            latency_spread: 8,
            threads: Threads::serial(),
        });
        let sink = rt.spawn("sink", Sink { seen: Vec::new() });
        for i in 0..10 {
            sink.send(Pong(i)).unwrap();
        }
        rt.run_until_idle();
        let mut last = 0;
        for r in rt.event_log().records() {
            assert!(r.vtime >= last);
            last = r.vtime;
        }
        assert!(rt.steps() >= 1);
        assert_eq!(rt.event_log().len(), 10);
    }

    /// Nodes in the fan-out graph.
    const NODES: u64 = 16;

    /// Where the first targets of one cohort wait for each other. The
    /// pool hands out a cohort's jobs in actor-id order and a waiting
    /// job holds its thread, so `targets.len()` threads run the cohort
    /// at once.
    struct Rendezvous {
        targets: Vec<ActorId>,
        arrived: Mutex<usize>,
        all_arrived: Condvar,
    }

    impl Rendezvous {
        fn meet(&self) {
            let mut arrived = lock_cell(&self.arrived);
            *arrived += 1;
            self.all_arrived.notify_all();
            // The bound only turns a changed schedule (a target that
            // never comes) into a failure instead of a hang.
            let (_arrived, wait) = self
                .all_arrived
                .wait_timeout_while(arrived, Duration::from_secs(30), |n| {
                    *n < self.targets.len()
                })
                .unwrap_or_else(PoisonError::into_inner);
            assert!(!wait.timed_out(), "cohort {:?} never met", self.targets);
        }
    }

    /// A node of a seeded fan-out graph: folds every hop into a digest
    /// and forwards it to zero to three seeded nodes while it has hops
    /// to live. Where it goes depends only on the hop, so every run
    /// has the same cohorts.
    struct Node {
        digest: u64,
        seen: u64,
        /// Rendezvous by delivery time.
        meet: Arc<BTreeMap<u64, Rendezvous>>,
        met_at: Option<u64>,
    }

    #[derive(Debug)]
    struct Hop {
        ttl: u32,
        key: u64,
    }

    impl Actor for Node {
        type Msg = Hop;
        fn handle(&mut self, hop: Hop, ctx: &mut Ctx<'_>) {
            if let Some(r) = self.meet.get(&ctx.now()) {
                if self.met_at != Some(ctx.now()) && r.targets.contains(&ctx.self_id()) {
                    self.met_at = Some(ctx.now());
                    r.meet();
                }
            }
            self.seen += 1;
            self.digest = stream_seed(self.digest ^ hop.key, ctx.now());
            if hop.ttl == 0 {
                return;
            }
            for k in 0..stream_seed(hop.key, 0) % 4 {
                let key = stream_seed(hop.key, k + 1);
                let to = ActorId((key % NODES) as usize);
                ctx.send(
                    to,
                    Hop {
                        ttl: hop.ttl - 1,
                        key,
                    },
                );
            }
        }
    }

    /// The metrics the runtime feeds, read from the global registry.
    fn actor_metrics() -> [u64; 4] {
        [
            rdi_obs::counter("actor.scheduler_steps").get(),
            rdi_obs::counter("actor.messages_delivered").get(),
            rdi_obs::counter("actor.delivery_errors").get(),
            rdi_obs::gauge("actor.mailbox_depth").get() as u64,
        ]
    }

    /// What a fan-out run leaves: the rendered log, each node's
    /// `(digest, seen)`, the `actor.*` metrics and each step's
    /// `(vtime, targets)`.
    type FanOut = (String, Vec<(u64, u64)>, [u64; 4], Vec<(u64, Vec<ActorId>)>);

    /// Run the fan-out graph from every node at once on zeroed metrics.
    fn fan_out(threads: Threads, meet: BTreeMap<u64, Rendezvous>) -> FanOut {
        rdi_obs::global().reset();
        let mut rt = Runtime::new(RuntimeConfig {
            seed: 11,
            latency_spread: 3,
            threads,
        });
        let meet = Arc::new(meet);
        let nodes: Vec<Addr<Hop>> = (0..NODES)
            .map(|i| {
                let node = Node {
                    digest: i,
                    seen: 0,
                    meet: Arc::clone(&meet),
                    met_at: None,
                };
                rt.spawn(&format!("n{i}"), node)
            })
            .collect();
        for (i, node) in nodes.iter().enumerate() {
            for round in 0..3 {
                let key = stream_seed(i as u64, round);
                let ttl = (key % 10) as u32;
                node.send(Hop { ttl, key }).unwrap();
            }
        }
        let mut cohorts = Vec::new();
        loop {
            let before = rt.event_log().len();
            if rt.step() == 0 {
                break;
            }
            let mut targets: Vec<ActorId> = rt.event_log().records()[before..]
                .iter()
                .map(|r| r.to)
                .collect();
            targets.dedup();
            cohorts.push((rt.now(), targets));
        }
        let states = nodes
            .iter()
            .map(|n| {
                let node = rt.actor::<Node>(n.id()).unwrap();
                (node.digest, node.seen)
            })
            .collect();
        (rt.event_log().render(), states, actor_metrics(), cohorts)
    }

    #[test]
    fn fan_out_replays_at_any_thread_count() {
        let _metrics = metrics_lock();
        let serial = fan_out(Threads::fixed(1), BTreeMap::new());
        let widths: Vec<usize> = serial.3.iter().map(|(_, t)| t.len()).collect();
        assert_eq!(widths.iter().min(), Some(&1), "{widths:?}");
        assert_eq!(widths.iter().max(), Some(&(NODES as usize)), "{widths:?}");
        let [steps, delivered, errors, _] = serial.2;
        assert_eq!(steps, widths.len() as u64);
        assert_eq!(delivered, serial.0.lines().count() as u64);
        assert_eq!(errors, 0);
        for t in [2, 8] {
            // Every cohort of two or more targets runs on
            // `min(targets, t)` threads at once.
            let meet = serial
                .3
                .iter()
                .filter(|(_, targets)| targets.len() > 1)
                .map(|(vtime, targets)| {
                    let rendezvous = Rendezvous {
                        targets: targets[..targets.len().min(t)].to_vec(),
                        arrived: Mutex::new(0),
                        all_arrived: Condvar::new(),
                    };
                    (*vtime, rendezvous)
                })
                .collect();
            assert!(serial == fan_out(Threads::fixed(t), meet), "{t} threads");
        }
    }

    thread_local! {
        /// A clone of the watched `Arc`, dropped when the thread exits.
        static HELD: RefCell<Option<Arc<()>>> = const { RefCell::new(None) };
    }

    /// Holds a clone of `watched` in [`HELD`] on any thread but
    /// `caller`; with a barrier, waits for as many handlers as it has
    /// parties, so that many threads run the cohort at once.
    struct Holder {
        caller: thread::ThreadId,
    }

    #[derive(Debug)]
    struct Hold {
        watched: Arc<()>,
        barrier: Option<Arc<Barrier>>,
    }

    impl Actor for Holder {
        type Msg = Hold;
        fn handle(&mut self, msg: Hold, _ctx: &mut Ctx<'_>) {
            if let Some(barrier) = &msg.barrier {
                barrier.wait();
            }
            if thread::current().id() != self.caller {
                HELD.with(|held| *held.borrow_mut() = Some(msg.watched));
            }
        }
    }

    #[test]
    fn cohort_workers_stay_within_threads_and_drop_joins_them() {
        let _metrics = metrics_lock();
        let t = 4;
        let watched = Arc::new(());
        // A spread of 1 adds no jitter: each round's messages land in
        // one cohort.
        let mut rt = Runtime::new(RuntimeConfig {
            seed: 5,
            latency_spread: 1,
            threads: Threads::fixed(t),
        });
        let caller = thread::current().id();
        let holders: Vec<Addr<Hold>> = (0..16)
            .map(|i| rt.spawn(&format!("h{i}"), Holder { caller }))
            .collect();
        // Cohorts of 1, 2 and 16 targets; a 16-target cohort waits on
        // a barrier of `t`, so it runs on the caller and `t − 1`
        // workers at once.
        for (width, parties) in [(1, None), (2, None), (16, Some(t)), (16, None)] {
            let barrier = parties.map(|n| Arc::new(Barrier::new(n)));
            for holder in &holders[..width] {
                holder
                    .send(Hold {
                        watched: Arc::clone(&watched),
                        barrier: barrier.clone(),
                    })
                    .unwrap();
            }
            assert_eq!(rt.step(), width);
            assert!(rt.pool.workers() < t, "{} workers", rt.pool.workers());
            if width == 1 {
                assert_eq!(rt.pool.workers(), 0, "a lone target runs serially");
            }
        }
        assert_eq!(rt.pool.workers(), t - 1);
        // Each worker holds one clone in a thread local.
        assert_eq!(Arc::strong_count(&watched), t);
        drop(rt);
        assert_eq!(Arc::strong_count(&watched), 1);
    }

    /// Panic payload naming the actor whose handler raised it.
    #[derive(Debug, PartialEq)]
    struct HandlerPanic(usize);

    /// Panics on its `explode_on`-th message (counting from 1); a
    /// `true` message first sends `false` to itself.
    struct Fragile {
        index: usize,
        explode_on: Option<usize>,
        seen: usize,
    }

    impl Fragile {
        fn new(index: usize, explode_on: Option<usize>) -> Self {
            Fragile {
                index,
                explode_on,
                seen: 0,
            }
        }
    }

    impl Actor for Fragile {
        type Msg = bool;
        fn handle(&mut self, echo: bool, ctx: &mut Ctx<'_>) {
            self.seen += 1;
            if echo {
                let me = ctx.self_id();
                ctx.send(me, false);
            }
            if self.explode_on == Some(self.seen) {
                panic::panic_any(HandlerPanic(self.index));
            }
        }
    }

    #[test]
    fn a_panicking_handler_reraises_its_payload_from_step() {
        let _metrics = metrics_lock();
        for threads in [1, 2, 8] {
            for bad in [0, 3, 7] {
                let mut rt = Runtime::new(RuntimeConfig {
                    seed: 1,
                    latency_spread: 1,
                    threads: Threads::fixed(threads),
                });
                // Actor 7 always explodes too: the lowest id's payload
                // is the one re-raised.
                let explodes = |index: usize| index == bad || index == 7;
                let addrs: Vec<Addr<bool>> = (0..8)
                    .map(|index| {
                        let explode_on = explodes(index).then_some(1);
                        rt.spawn("fragile", Fragile::new(index, explode_on))
                    })
                    .collect();
                for addr in &addrs {
                    addr.send(false).unwrap();
                }
                let caught = panic::catch_unwind(AssertUnwindSafe(|| rt.step()));
                let payload = caught.expect_err("a handler panicked");
                assert_eq!(
                    *payload
                        .downcast::<HandlerPanic>()
                        .expect("original payload"),
                    HandlerPanic(bad),
                    "{threads} threads"
                );
                // Only the exploding actors are lost; every other one
                // is back in its slot and takes further messages.
                for (index, addr) in addrs.iter().enumerate() {
                    let present = rt.actor::<Fragile>(addr.id()).is_some();
                    assert_eq!(
                        present,
                        !explodes(index),
                        "{threads} threads, actor {index}"
                    );
                }
                // the panicking deliveries are logged as failed
                let lost = (0..8).filter(|&i| explodes(i)).count() as u64;
                assert_eq!(rt.event_log().len(), 8, "{threads} threads");
                assert_eq!(rt.delivery_errors(), lost, "{threads} threads");
                let survivor = if bad == 0 { &addrs[1] } else { &addrs[0] };
                survivor.send(false).unwrap();
                assert_eq!(rt.step(), 1);
                assert_eq!(rt.delivery_errors(), lost, "{threads} threads");
            }
            // Three messages to one actor whose second delivery panics,
            // beside a healthy actor: the first delivery is logged and
            // its send enqueued, the panicking one and the third are
            // failed deliveries, and the panicking one's send is
            // dropped.
            let mut rt = Runtime::new(RuntimeConfig {
                seed: 1,
                latency_spread: 1,
                threads: Threads::fixed(threads),
            });
            let fragile = rt.spawn("fragile", Fragile::new(0, Some(2)));
            let healthy = rt.spawn("healthy", Fragile::new(1, None));
            for echo in [true, true, false] {
                fragile.send(echo).unwrap();
            }
            healthy.send(false).unwrap();
            let caught = panic::catch_unwind(AssertUnwindSafe(|| rt.step()));
            let payload = caught.expect_err("the second delivery panicked");
            assert_eq!(
                *payload
                    .downcast::<HandlerPanic>()
                    .expect("original payload"),
                HandlerPanic(0)
            );
            let summaries: Vec<(usize, String)> = rt
                .event_log()
                .records()
                .iter()
                .map(|r| (r.to.index(), r.summary.clone()))
                .collect();
            assert_eq!(
                summaries,
                vec![
                    (0, "true".to_string()),
                    (0, "true !error: handler panicked; actor lost".to_string()),
                    (
                        0,
                        "false !error: actor lost to an earlier panic".to_string()
                    ),
                    (1, "false".to_string()),
                ],
                "{threads} threads"
            );
            assert_eq!(rt.delivery_errors(), 2, "{threads} threads");
            assert_eq!(rt.queue_len(), 1, "{threads} threads");
            assert!(rt.actor::<Fragile>(fragile.id()).is_none());
            assert_eq!(rt.actor::<Fragile>(healthy.id()).map(|a| a.seen), Some(1));
            // the surviving send reaches the lost actor as an error
            assert_eq!(rt.run_until_idle(), 1);
            assert_eq!(rt.delivery_errors(), 3, "{threads} threads");
        }
    }
}
