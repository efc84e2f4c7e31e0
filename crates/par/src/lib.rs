//! `rdi-par`: a deterministic parallel execution layer for RDI kernels.
//!
//! Built on `std` and the workspace's in-repo `rand` — no external
//! crates — this module gives the workspace's hot paths (column
//! sketching, lake-wide candidate scoring, MUP lattice search,
//! join-sampling trials, data generation, serving batches) a single,
//! deterministic way to fan work out across cores. It has two primitives:
//!
//! * [`par_map`] and its relatives run on [`std::thread::scope`], so
//!   they borrow their input; each parallel call spawns its threads.
//! * [`Pool`] keeps worker threads between calls and maps owned jobs;
//!   its owner pays the thread start once, not per call. Every thread
//!   a pool starts is joined when the pool drops.
//!
//! Work run on another thread nests its spans under the submitting
//! thread's open spans ([`rdi_obs::with_span_stack`]), so span paths do
//! not depend on which thread ran a job.
//!
//! # Determinism contract
//!
//! Every combinator here preserves *bitwise-identical* results with
//! respect to the serial execution:
//!
//! * [`par_map`] / [`par_map_indexed`] split the input into contiguous
//!   chunks — the calling thread maps the first chunk and `n − 1`
//!   scoped threads take the other `n − 1` — and splice the per-chunk
//!   outputs back **in input order**. The result is always exactly
//!   `items.iter().map(f).collect()`, independent of thread count or
//!   scheduling.
//! * [`Pool::map`] lets the caller and the workers claim jobs one at a
//!   time and places each result by its job's index, so it too returns
//!   exactly the serial map.
//! * [`par_reduce`] folds each chunk serially, then combines the
//!   per-chunk accumulators **left to right** in chunk order. With the
//!   chunk count fixed (see [`Threads::chunks_of`]) the combination
//!   tree is a function of the input alone, so associative-but-not-
//!   commutative combines (e.g. float sums) stay reproducible.
//! * Randomized kernels derive one RNG stream per *fixed-size block of
//!   work* via [`stream_rng`] (seeded by [`stream_seed`]), never per
//!   thread: block boundaries depend only on the input size, so
//!   estimates are bitwise identical whether the blocks run on 1
//!   thread or 8.
//!
//! # Thread-count resolution
//!
//! [`Threads`] resolves, in order: an explicit
//! [`Threads::fixed`] value, the `RDI_THREADS` environment variable,
//! then [`std::thread::available_parallelism`]. [`Threads::auto`]
//! reads `RDI_THREADS` on every call but the hardware count only once
//! per process. Any resolution `<= 1` (or an input below the parallel
//! cutoff) degrades to a plain serial loop with no thread spawns at
//! all.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

use std::num::NonZeroUsize;
use std::ops::Range;
use std::sync::OnceLock;
use std::thread;

use rand::rngs::StdRng;
use rand::SeedableRng;

mod metrics;
mod pool;

pub use pool::Pool;

/// Environment variable consulted by [`Threads::auto`].
pub const THREADS_ENV: &str = "RDI_THREADS";

/// Default serial cutoff: inputs smaller than this run serially even
/// when threads are available — for cheap per-item work, spawn
/// overhead dominates below it. Call sites doing heavy per-item work
/// (e.g. sketching a whole column per item) lower it via
/// [`Threads::min_len`].
const DEFAULT_MIN_PARALLEL_LEN: usize = 32;

/// Thread-count configuration for the parallel combinators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Threads {
    count: usize,
    min_len: usize,
}

impl Threads {
    /// Exactly `n` threads (`0` is treated as `1`).
    pub fn fixed(n: usize) -> Self {
        Threads {
            count: n.max(1),
            min_len: DEFAULT_MIN_PARALLEL_LEN,
        }
    }

    /// Override the serial cutoff: inputs shorter than `n` items run
    /// serially. Use a small cutoff when each item is expensive (a
    /// whole column scan, a lattice-level batch), keep the default for
    /// cheap per-item work.
    pub fn min_len(mut self, n: usize) -> Self {
        self.min_len = n.max(2);
        self
    }

    /// Serial execution (one thread).
    pub fn serial() -> Self {
        Threads::fixed(1)
    }

    /// Resolve from the environment: `RDI_THREADS` if set to a positive
    /// integer, otherwise [`std::thread::available_parallelism`],
    /// otherwise 1.
    ///
    /// `RDI_THREADS` is read on every call, so a process that changes
    /// it sees the new value at once. The hardware count is read once
    /// per process and remembered: on Linux each
    /// `available_parallelism` call reads cgroup files, a fixed cost
    /// that small serving requests would otherwise pay per call.
    pub fn auto() -> Self {
        if let Ok(v) = std::env::var(THREADS_ENV) {
            if let Ok(n) = v.trim().parse::<usize>() {
                if n >= 1 {
                    return Threads::fixed(n);
                }
            }
        }
        static HARDWARE: OnceLock<usize> = OnceLock::new();
        Threads::fixed(*HARDWARE.get_or_init(|| {
            thread::available_parallelism()
                .map(NonZeroUsize::get)
                .unwrap_or(1)
        }))
    }

    /// The resolved thread count (always `>= 1`).
    pub fn get(self) -> usize {
        self.count
    }

    /// Whether this configuration can run anything in parallel.
    pub fn is_parallel(self) -> bool {
        self.count > 1
    }

    /// Number of contiguous chunks to split `len` items into: enough
    /// for every thread, but never more chunks than items.
    fn chunk_count(self, len: usize) -> usize {
        self.count.min(len).max(1)
    }

    /// Deterministic chunk boundaries for `len` items: `count` chunks
    /// whose sizes differ by at most one, in input order. The split
    /// depends only on `len` and the thread count, never on timing.
    pub fn chunks_of(self, len: usize) -> Vec<std::ops::Range<usize>> {
        let chunks = self.chunk_count(len);
        let base = len / chunks;
        let extra = len % chunks;
        let mut out = Vec::with_capacity(chunks);
        let mut start = 0;
        for i in 0..chunks {
            let size = base + usize::from(i < extra);
            out.push(start..start + size);
            start += size;
        }
        out
    }
}

impl Default for Threads {
    fn default() -> Self {
        Threads::auto()
    }
}

/// Map `f` over `items` in parallel, returning outputs in input order.
///
/// Bitwise identical to `items.iter().map(f).collect()` for any thread
/// count; runs serially when `threads.get() <= 1` or the input is
/// small.
pub fn par_map<T, U, F>(threads: Threads, items: &[T], f: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    F: Fn(&T) -> U + Sync,
{
    par_map_indexed(threads, items, |_, item| f(item))
}

/// [`par_map`] variant whose mapper also receives the item's index in
/// `items`.
pub fn par_map_indexed<T, U, F>(threads: Threads, items: &[T], f: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    F: Fn(usize, &T) -> U + Sync,
{
    if !threads.is_parallel() || items.len() < threads.min_len {
        metrics::DISPATCH.serial_runs.inc();
        return items.iter().enumerate().map(|(i, x)| f(i, x)).collect();
    }
    let ranges = threads.chunks_of(items.len());
    let c = &*metrics::DISPATCH;
    c.parallel_runs.inc();
    c.tasks_dispatched.add(ranges.len() as u64);
    let mut per_chunk = run_chunks(ranges, |range| {
        let start = range.start;
        items[range]
            .iter()
            .enumerate()
            .map(|(i, x)| f(start + i, x))
            .collect::<Vec<U>>()
    });
    let mut out = Vec::with_capacity(items.len());
    for chunk in per_chunk.iter_mut() {
        out.append(chunk);
    }
    out
}

/// Fold `items` in parallel: each chunk is folded serially with `fold`
/// from a fresh `init()`, then the per-chunk accumulators are combined
/// **left to right** in chunk order with `combine`.
///
/// For a fixed thread count the result is a pure function of the
/// input. It equals the serial fold whenever `combine` is associative
/// and `init()` is its identity (e.g. sums, maxima, set unions); exact
/// floating-point results may differ across *different* thread counts
/// because the chunk boundaries move.
pub fn par_reduce<T, A, I, F, C>(threads: Threads, items: &[T], init: I, fold: F, combine: C) -> A
where
    T: Sync,
    A: Send,
    I: Fn() -> A + Sync,
    F: Fn(A, &T) -> A + Sync,
    C: Fn(A, A) -> A,
{
    if !threads.is_parallel() || items.len() < threads.min_len {
        metrics::DISPATCH.serial_runs.inc();
        return items.iter().fold(init(), fold);
    }
    let ranges = threads.chunks_of(items.len());
    let c = &*metrics::DISPATCH;
    c.parallel_runs.inc();
    c.tasks_dispatched.add(ranges.len() as u64);
    let per_chunk = run_chunks(ranges, |range| items[range].iter().fold(init(), &fold));
    let mut acc = per_chunk.into_iter();
    // chunks_of yields at least one range, so the fallback (the fold
    // identity, matching the serial fold of zero items) is unreachable.
    let first = acc.next().unwrap_or_else(&init);
    acc.fold(first, combine)
}

/// Run `job` once per range and return the results in range order.
/// The calling thread runs the first range itself and `ranges.len() - 1`
/// scoped threads take the rest, so a two-chunk split spawns one thread.
/// Every chunk runs under the caller's open spans. A panicking job
/// re-raises its original payload on the caller.
fn run_chunks<R, J>(ranges: Vec<Range<usize>>, job: J) -> Vec<R>
where
    R: Send,
    J: Fn(Range<usize>) -> R + Sync,
{
    let mut ranges = ranges.into_iter();
    let Some(first) = ranges.next() else {
        return Vec::new();
    };
    let stack = rdi_obs::span_stack();
    thread::scope(|scope| {
        let (job, stack) = (&job, &stack);
        let handles: Vec<_> = ranges
            .map(|r| scope.spawn(move || rdi_obs::with_span_stack(stack, || job(r))))
            .collect();
        let mut out = Vec::with_capacity(handles.len() + 1);
        out.push(job(first));
        // join errs only when the worker panicked — re-raise that panic
        // on the caller instead of a fresh unwrap panic.
        out.extend(
            handles
                .into_iter()
                .map(|h| h.join().unwrap_or_else(|e| std::panic::resume_unwind(e))),
        );
        out
    })
}

/// Run `n` independent jobs (`f(0) .. f(n-1)`) in parallel and return
/// their results in index order. Convenience wrapper over
/// [`par_map_indexed`] for index-driven work with no input slice.
pub fn par_run<U, F>(threads: Threads, n: usize, f: F) -> Vec<U>
where
    U: Send,
    F: Fn(usize) -> U + Sync,
{
    // A unit slice of length `n` drives the index range.
    let units = vec![(); n];
    par_map_indexed(threads, &units, |i, ()| f(i))
}

/// Derive the seed for work-block `index` from a master seed.
///
/// splitmix64 finalization over `master + golden_gamma * (index + 1)`:
/// cheap, stateless, and well-distributed, so randomized kernels can
/// give every fixed-size block of trials its own independent stream.
/// Block seeds depend only on `(master, index)` — never on which
/// thread runs the block — which is what keeps sampled estimates
/// bitwise identical across thread counts.
pub fn stream_seed(master: u64, index: u64) -> u64 {
    let mut z = master.wrapping_add(0x9e37_79b9_7f4a_7c15u64.wrapping_mul(index.wrapping_add(1)));
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The random stream of work-block `index` under a master seed:
/// `StdRng` seeded with [`stream_seed`]`(master, index)`.
///
/// This is the one constructor of a seeded RNG that library code may
/// call: the `--lib` clippy configuration bans `seed_from_u64`
/// elsewhere, so every library stream is a pure function of the
/// experiment seed and its block index.
#[allow(
    clippy::disallowed_methods,
    reason = "the sanctioned seeding site: every library stream is derived here"
)]
pub fn stream_rng(master: u64, index: u64) -> StdRng {
    StdRng::seed_from_u64(stream_seed(master, index))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn threads_resolution_and_clamping() {
        assert_eq!(Threads::fixed(0).get(), 1);
        assert_eq!(Threads::fixed(8).get(), 8);
        assert!(!Threads::serial().is_parallel());
        assert!(Threads::auto().get() >= 1);
    }

    #[test]
    fn chunks_cover_input_in_order() {
        for len in [0usize, 1, 5, 31, 32, 100, 101] {
            for t in [1usize, 2, 3, 8, 200] {
                let ranges = Threads::fixed(t).chunks_of(len);
                assert!(ranges.len() <= t.max(1));
                let mut next = 0;
                for r in &ranges {
                    assert_eq!(r.start, next);
                    next = r.end;
                }
                assert_eq!(next, len);
                let sizes: Vec<usize> = ranges.iter().map(|r| r.len()).collect();
                let (lo, hi) = (sizes.iter().min(), sizes.iter().max());
                if len > 0 {
                    assert!(hi.unwrap() - lo.unwrap() <= 1, "uneven split: {sizes:?}");
                }
            }
        }
    }

    #[test]
    fn par_map_matches_serial_for_all_thread_counts() {
        let items: Vec<u64> = (0..1000).collect();
        let serial: Vec<u64> = items.iter().map(|x| x * x + 1).collect();
        for t in [1usize, 2, 3, 4, 8, 64] {
            let par = par_map(Threads::fixed(t), &items, |x| x * x + 1);
            assert_eq!(par, serial, "mismatch at {t} threads");
        }
    }

    #[test]
    fn par_map_indexed_sees_global_indices() {
        let items: Vec<u8> = vec![0; 500];
        let idx = par_map_indexed(Threads::fixed(4), &items, |i, _| i);
        assert_eq!(idx, (0..500).collect::<Vec<usize>>());
    }

    #[test]
    fn par_reduce_is_deterministic_and_exact_for_ints() {
        let items: Vec<u64> = (1..=10_000).collect();
        let serial: u64 = items.iter().sum();
        for t in [1usize, 2, 5, 16] {
            let sum = par_reduce(
                Threads::fixed(t),
                &items,
                || 0u64,
                |a, x| a + x,
                |a, b| a + b,
            );
            assert_eq!(sum, serial);
        }
        // Same thread count twice => identical even for floats.
        let f: Vec<f64> = (0..5000).map(|i| (i as f64).sin()).collect();
        let r1 = par_reduce(Threads::fixed(3), &f, || 0.0, |a, x| a + x, |a, b| a + b);
        let r2 = par_reduce(Threads::fixed(3), &f, || 0.0, |a, x| a + x, |a, b| a + b);
        assert_eq!(r1.to_bits(), r2.to_bits());
    }

    #[test]
    fn par_run_orders_results() {
        let out = par_run(Threads::fixed(4), 100, |i| i * 3);
        assert_eq!(out, (0..100).map(|i| i * 3).collect::<Vec<usize>>());
    }

    #[test]
    fn small_inputs_stay_serial() {
        // Under the cutoff nothing is dispatched (counted in
        // tests/dispatch_counters.rs); here, just correctness.
        let out = par_map(Threads::fixed(8), &[1, 2, 3], |x| x + 1);
        assert_eq!(out, vec![2, 3, 4]);
        let empty: Vec<i32> = par_map(Threads::fixed(8), &[] as &[i32], |x| *x);
        assert!(empty.is_empty());
    }

    /// Panic payload naming the chunk that raised it.
    #[derive(Debug, PartialEq)]
    struct ChunkPanic(usize);

    /// Run `f` and return the payload it panicked with.
    fn panic_payload<R>(f: impl FnOnce() -> R) -> ChunkPanic {
        match std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)) {
            Ok(_) => panic!("expected a panic"),
            Err(e) => *e.downcast::<ChunkPanic>().expect("original payload"),
        }
    }

    #[test]
    fn caller_and_worker_chunk_panics_keep_their_payload() {
        let items: Vec<usize> = (0..400).collect();
        let threads = Threads::fixed(4);
        let ranges = threads.chunks_of(items.len());
        // Chunk 0 runs on the caller; the last chunk on a worker.
        for chunk in [0, ranges.len() - 1] {
            let bad = ranges[chunk].start;
            let boom = |x: usize| {
                if x == bad {
                    std::panic::panic_any(ChunkPanic(chunk));
                }
                x
            };
            assert_eq!(
                panic_payload(|| par_map(threads, &items, |&x| boom(x))),
                ChunkPanic(chunk)
            );
            assert_eq!(
                panic_payload(|| par_reduce(
                    threads,
                    &items,
                    || 0,
                    |a, &x| a + boom(x),
                    |a, b| a + b
                )),
                ChunkPanic(chunk)
            );
        }
    }

    #[test]
    fn caller_chunk_spans_nest_like_serial_ones() {
        let items = vec![(); 64];
        for threads in [Threads::serial(), Threads::fixed(2), Threads::fixed(8)] {
            let _caller = rdi_obs::span("caller");
            let paths = par_map_indexed(threads, &items, |i, ()| {
                (i == 0 || i == 63).then(|| rdi_obs::span("probe").path().to_string())
            });
            assert_eq!(paths[0].as_deref(), Some("caller/probe"));
            // In parallel the last item runs on a worker thread, which
            // carries the caller's span stack.
            assert_eq!(paths[63].as_deref(), Some("caller/probe"));
        }
    }

    #[test]
    fn stream_seeds_are_distinct_and_stable() {
        let a = stream_seed(42, 0);
        assert_eq!(a, stream_seed(42, 0));
        let seeds: std::collections::HashSet<u64> =
            (0..10_000).map(|i| stream_seed(42, i)).collect();
        assert_eq!(seeds.len(), 10_000);
        assert_ne!(stream_seed(42, 7), stream_seed(43, 7));
    }

    #[test]
    fn stream_rng_is_the_stream_seeded_std_rng() {
        use rand::RngCore;
        for (m, i) in [
            (0, 0),
            (0, u64::MAX),
            (u64::MAX, 0),
            (u64::MAX, u64::MAX),
            (42, 7),
            (0x5eed, 2000),
        ] {
            let mut ours = stream_rng(m, i);
            let mut direct = StdRng::seed_from_u64(stream_seed(m, i));
            for _ in 0..16 {
                assert_eq!(ours.next_u64(), direct.next_u64(), "({m}, {i})");
            }
        }
    }
}
