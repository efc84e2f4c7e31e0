//! [`Pool`]: persistent workers that map owned jobs.
//!
//! [`par_map`](crate::par_map) spawns scoped threads on every call, so it
//! can borrow its input. A caller that maps owned jobs over and over (a
//! serving session executing batch after batch) keeps a `Pool` instead:
//! its workers start once and wait between calls.

use std::any::Any;
use std::fmt;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::{self, JoinHandle};

use crate::{metrics, Threads};

/// A pool of worker threads that maps `Vec`s of owned jobs.
///
/// Built from a [`Threads`], it starts no thread until a call runs in
/// parallel, never holds more than `threads − 1` workers, and joins
/// every one when it is dropped. [`Pool::map`] has the contract of
/// [`par_map`](crate::par_map): the output equals the serial map for
/// any thread count and timing, the serial fallback and the `par.*`
/// dispatch counts are the same, and a panicking job re-raises its
/// original payload on the caller.
pub struct Pool {
    threads: Threads,
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
}

/// What the owner and its workers share.
struct Shared {
    offer: Mutex<Offer>,
    /// Signalled when a batch is offered or the pool shuts down.
    wake: Condvar,
}

/// The batch on offer to the workers.
#[derive(Default)]
struct Offer {
    /// Bumped once per offered batch, so a worker joins each batch at
    /// most once.
    generation: u64,
    batch: Option<Arc<dyn Claim>>,
    shutdown: bool,
}

/// A batch whose jobs any thread may claim.
trait Claim: Send + Sync {
    /// Claim and run jobs, under the submitting thread's span stack,
    /// until none is left.
    fn help(&self);
}

/// One [`Pool::map`] call: the jobs, the shared claim cursor and one
/// result slot per job.
struct Batch<T, U, F> {
    jobs: Vec<T>,
    f: F,
    /// The submitting thread's open spans, so spans a worker opens nest
    /// as on the caller.
    stack: rdi_obs::SpanStack,
    /// The next unclaimed job. `Relaxed`: it hands out indices and
    /// publishes no data.
    next: AtomicUsize,
    results: Vec<Mutex<Option<U>>>,
    /// The panic of the lowest-indexed job that panicked.
    panic: Mutex<Option<(usize, Box<dyn Any + Send>)>>,
    /// Jobs finished, on any thread.
    done: Mutex<usize>,
    all_done: Condvar,
}

/// Lock `m`, taking the guard back from a poisoned lock: jobs run
/// outside these locks and nothing done under them panics, so a
/// poisoned one never guards half-updated data.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

impl<T, U, F> Batch<T, U, F>
where
    F: Fn(&T) -> U,
{
    /// Claim jobs one at a time until the cursor passes the end. Each
    /// result lands in its job's slot, so the output order is the input
    /// order whichever thread ran which job.
    fn claim(&self) {
        loop {
            let i = self.next.fetch_add(1, Ordering::Relaxed);
            let Some(job) = self.jobs.get(i) else {
                return;
            };
            match panic::catch_unwind(AssertUnwindSafe(|| (self.f)(job))) {
                Ok(out) => *lock(&self.results[i]) = Some(out),
                Err(payload) => {
                    let mut first = lock(&self.panic);
                    if first.as_ref().is_none_or(|(j, _)| i < *j) {
                        *first = Some((i, payload));
                    }
                }
            }
            let mut done = lock(&self.done);
            *done += 1;
            if *done == self.jobs.len() {
                self.all_done.notify_all();
            }
        }
    }

    /// Block until every job has run, on whichever thread claimed it.
    fn wait(&self) {
        let mut done = lock(&self.done);
        while *done < self.jobs.len() {
            done = self
                .all_done
                .wait(done)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }
}

impl<T, U, F> Claim for Batch<T, U, F>
where
    T: Send + Sync,
    U: Send,
    F: Fn(&T) -> U + Send + Sync,
{
    fn help(&self) {
        rdi_obs::with_span_stack(&self.stack, || self.claim());
    }
}

/// A worker's life: wait for a batch it has not joined yet, help with
/// it, repeat until shutdown.
fn work(shared: &Shared) {
    let mut seen = 0;
    loop {
        let batch = {
            let mut offer = lock(&shared.offer);
            loop {
                if offer.shutdown {
                    return;
                }
                if offer.generation != seen {
                    seen = offer.generation;
                    if let Some(batch) = &offer.batch {
                        break Arc::clone(batch);
                    }
                }
                offer = shared
                    .wake
                    .wait(offer)
                    .unwrap_or_else(PoisonError::into_inner);
            }
        };
        batch.help();
    }
}

impl Pool {
    /// A pool for `threads`; no worker starts until a call runs in
    /// parallel.
    pub fn new(threads: Threads) -> Self {
        Pool {
            threads,
            shared: Arc::new(Shared {
                offer: Mutex::new(Offer::default()),
                wake: Condvar::new(),
            }),
            workers: Vec::new(),
        }
    }

    /// Worker threads started and not yet joined (at most
    /// `threads − 1`).
    pub fn workers(&self) -> usize {
        self.workers.len()
    }

    /// Map `f` over `jobs`, returning the outputs in input order.
    ///
    /// Equal to `jobs.iter().map(f).collect()` for any thread count and
    /// any timing. Runs serially when `threads.get() <= 1` or there are
    /// fewer jobs than [`Threads::min_len`]. Otherwise the caller and up
    /// to `min(threads, jobs) − 1` workers claim jobs one at a time from
    /// a shared cursor, so a worker that wakes late holds nothing up:
    /// the caller takes what is left. Spans a job opens nest under the
    /// caller's open spans on every thread. A panicking job re-raises
    /// its original payload on the caller (the lowest-indexed one if
    /// several panic) once every job has finished, and the pool serves
    /// the next call as usual.
    pub fn map<T, U, F>(&mut self, jobs: Vec<T>, f: F) -> Vec<U>
    where
        T: Send + Sync + 'static,
        U: Send + 'static,
        F: Fn(&T) -> U + Send + Sync + 'static,
    {
        if !self.threads.is_parallel() || jobs.len() < self.threads.min_len {
            metrics::DISPATCH.serial_runs.inc();
            return jobs.iter().map(f).collect();
        }
        let tasks = self.threads.chunk_count(jobs.len());
        let c = &*metrics::DISPATCH;
        c.parallel_runs.inc();
        c.tasks_dispatched.add(tasks as u64);
        self.grow(tasks - 1);

        let batch = Arc::new(Batch {
            results: jobs.iter().map(|_| Mutex::new(None)).collect(),
            jobs,
            f,
            stack: rdi_obs::span_stack(),
            next: AtomicUsize::new(0),
            panic: Mutex::new(None),
            done: Mutex::new(0),
            all_done: Condvar::new(),
        });
        self.offer(Some(Arc::clone(&batch) as Arc<dyn Claim>), tasks - 1);
        batch.claim();
        batch.wait();
        // Withdraw the batch so a worker waking late finds nothing to
        // join and the jobs are freed now.
        self.offer(None, 0);

        let panicked = lock(&batch.panic).take();
        if let Some((_, payload)) = panicked {
            panic::resume_unwind(payload);
        }
        // Every job finished without a panic, so every slot is filled.
        batch
            .results
            .iter()
            .filter_map(|slot| lock(slot).take())
            .collect()
    }

    /// Start workers until there are `want` (never more than
    /// `threads − 1`).
    fn grow(&mut self, want: usize) {
        while self.workers.len() < want.min(self.threads.get() - 1) {
            let shared = Arc::clone(&self.shared);
            #[expect(
                clippy::disallowed_methods,
                reason = "rdi-par's one thread start: the pool joins every worker when it drops"
            )]
            let spawned = thread::Builder::new()
                .name("rdi-par-worker".into())
                .spawn(move || work(&shared));
            match spawned {
                Ok(handle) => self.workers.push(handle),
                // The caller claims whatever no worker takes, so a pool
                // short of workers is only slower.
                Err(_) => break,
            }
        }
    }

    /// Put `batch` on offer (or withdraw it) and wake `helpers` workers.
    fn offer(&self, batch: Option<Arc<dyn Claim>>, helpers: usize) {
        let mut offer = lock(&self.shared.offer);
        offer.generation += 1;
        offer.batch = batch;
        drop(offer);
        for _ in 0..helpers.min(self.workers.len()) {
            self.shared.wake.notify_one();
        }
    }
}

impl Drop for Pool {
    fn drop(&mut self) {
        lock(&self.shared.offer).shutdown = true;
        self.shared.wake.notify_all();
        for worker in self.workers.drain(..) {
            // Jobs run under `catch_unwind`, so a worker never panics
            // and its join has no payload to pass on.
            worker.join().unwrap_or_default();
        }
    }
}

impl fmt::Debug for Pool {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Pool")
            .field("threads", &self.threads)
            .field("workers", &self.workers.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::RefCell;
    use std::sync::Barrier;

    thread_local! {
        /// A clone of the watched `Arc`, dropped when the thread exits.
        static HELD: RefCell<Option<Arc<()>>> = const { RefCell::new(None) };
    }

    #[test]
    fn maps_like_serial_and_reuses_its_workers() {
        let mut pool = Pool::new(Threads::fixed(3).min_len(2));
        for n in [0usize, 1, 2, 5, 40] {
            let jobs: Vec<u64> = (0..n as u64).collect();
            assert_eq!(
                pool.map(jobs, |x| x * 7 + 1),
                (0..n as u64).map(|x| x * 7 + 1).collect::<Vec<_>>()
            );
        }
        assert_eq!(pool.workers(), 2);
        let mut serial = Pool::new(Threads::serial());
        assert_eq!(serial.map(vec![1, 2, 3], |x| x + 1), vec![2, 3, 4]);
        assert_eq!(serial.workers(), 0);
    }

    #[test]
    fn small_calls_start_only_the_workers_they_need() {
        let mut pool = Pool::new(Threads::fixed(8).min_len(2));
        pool.map(vec![1, 2], |x| x + 1);
        assert_eq!(pool.workers(), 1);
        pool.map((0..100).collect(), |x: &i32| x + 1);
        assert_eq!(pool.workers(), 7);
    }

    #[test]
    fn worker_spans_nest_under_the_callers() {
        let mut pool = Pool::new(Threads::fixed(4).min_len(2));
        let _caller = rdi_obs::span("caller");
        // Four jobs that wait for each other run on four threads at
        // once: the caller and every worker.
        let barrier = Arc::new(Barrier::new(4));
        let paths = pool.map(vec![(); 4], move |()| {
            barrier.wait();
            rdi_obs::span("probe").path().to_string()
        });
        assert_eq!(paths, vec!["caller/probe"; 4]);
    }

    /// Panic payload naming the job that raised it.
    #[derive(Debug, PartialEq)]
    struct JobPanic(usize);

    #[test]
    fn a_panicking_job_reraises_its_payload_and_the_pool_goes_on() {
        let mut pool = Pool::new(Threads::fixed(2).min_len(2));
        for bad in [vec![0], vec![1], vec![0, 1]] {
            let first = bad[0];
            // Both jobs wait for each other, so one runs on the caller
            // and the other on the worker.
            let barrier = Arc::new(Barrier::new(2));
            let caught = panic::catch_unwind(AssertUnwindSafe(|| {
                pool.map(vec![0usize, 1], move |&i| {
                    barrier.wait();
                    if bad.contains(&i) {
                        panic::panic_any(JobPanic(i));
                    }
                    i
                })
            }));
            let payload = caught.expect_err("a job panicked");
            // Several panics re-raise the lowest-indexed job's.
            assert_eq!(
                *payload.downcast::<JobPanic>().expect("original payload"),
                JobPanic(first)
            );
            assert_eq!(pool.map(vec![1, 2, 3], |x| x * 2), vec![2, 4, 6]);
        }
        assert_eq!(pool.workers(), 1);
    }

    #[test]
    fn drop_joins_every_worker() {
        let watched = Arc::new(());
        let t = 4;
        let mut pool = Pool::new(Threads::fixed(t).min_len(2));
        let caller = thread::current().id();
        let barrier = Arc::new(Barrier::new(t));
        let (w, b) = (Arc::clone(&watched), Arc::clone(&barrier));
        pool.map(vec![(); t], move |()| {
            b.wait();
            if thread::current().id() != caller {
                HELD.with(|held| *held.borrow_mut() = Some(Arc::clone(&w)));
            }
        });
        // Each of the three workers holds a clone in a thread local.
        assert!(Arc::strong_count(&watched) > t - 1);
        drop(pool);
        assert_eq!(Arc::strong_count(&watched), 1);
    }
}
