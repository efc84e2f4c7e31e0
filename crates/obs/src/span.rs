//! RAII span timers with per-thread parent/child nesting.
//!
//! Durations come from the registry's clock source: the wall clock by
//! default, or deterministic tick counts under `RDI_FAKE_CLOCK=1` (see
//! [`MetricsRegistry::with_fake_clock`]).

use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use crate::MetricsRegistry;

thread_local! {
    /// Names of the spans currently open on this thread, outermost
    /// first. Nesting is tracked per thread: work handed to another
    /// thread carries the stack along explicitly (see
    /// [`with_span_stack`]).
    static SPAN_STACK: RefCell<Vec<String>> = const { RefCell::new(Vec::new()) };
    /// One tally per fake-clock span open on this thread, outermost
    /// first: where the spans finishing inside it add their ticks.
    static FAKE_TALLIES: RefCell<Vec<Arc<AtomicU64>>> = const { RefCell::new(Vec::new()) };
}

/// The spans open on a thread when [`span_stack`] read them. Carried to
/// another thread with [`with_span_stack`], they are the parents of the
/// spans opened there.
#[derive(Debug, Clone, Default)]
pub struct SpanStack {
    names: Vec<String>,
    tallies: Vec<Arc<AtomicU64>>,
}

/// The spans open on the calling thread, outermost first.
pub fn span_stack() -> SpanStack {
    SpanStack {
        names: SPAN_STACK.with(|stack| stack.borrow().clone()),
        tallies: FAKE_TALLIES.with(|tallies| tallies.borrow().clone()),
    }
}

/// Run `f` with `stack` as the calling thread's open spans, so spans it
/// opens nest as they would on the thread that read `stack` (see
/// [`span_stack`]); under the fake clock their ticks count toward that
/// thread's innermost span. The thread's own stack is restored
/// afterwards, also when `f` panics.
pub fn with_span_stack<R>(stack: &SpanStack, f: impl FnOnce() -> R) -> R {
    /// Puts the saved stack back on drop.
    struct Restore(Vec<String>, Vec<Arc<AtomicU64>>);
    impl Drop for Restore {
        fn drop(&mut self) {
            SPAN_STACK.with(|stack| std::mem::swap(&mut *stack.borrow_mut(), &mut self.0));
            FAKE_TALLIES.with(|tallies| std::mem::swap(&mut *tallies.borrow_mut(), &mut self.1));
        }
    }
    let _restore = Restore(
        SPAN_STACK.with(|s| std::mem::replace(&mut *s.borrow_mut(), stack.names.clone())),
        FAKE_TALLIES.with(|t| std::mem::replace(&mut *t.borrow_mut(), stack.tallies.clone())),
    );
    f()
}

/// One finished span: its slash-separated nesting path and wall time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanRecord {
    /// `outer/inner` path of span names at completion time.
    pub path: String,
    /// Elapsed wall time in nanoseconds (fake-clock ticks under the
    /// fake clock).
    pub nanos: u64,
}

/// Guard returned by [`MetricsRegistry::span`] / [`crate::span()`]:
/// records a [`SpanRecord`] into the registry when dropped. Guards are
/// expected to drop in LIFO order (ordinary scoping guarantees this);
/// they are deliberately `!Send` so a span cannot close on a different
/// thread than it opened on.
pub struct SpanGuard<'r> {
    registry: &'r MetricsRegistry,
    path: String,
    start: Start,
    /// Keep the guard `!Send`: the thread-local stack entry must be
    /// popped by the opening thread.
    _not_send: std::marker::PhantomData<*const ()>,
}

/// When a span started, on the registry's clock.
enum Start {
    Wall(Instant),
    /// Under the fake clock: the ticks taken so far by the spans
    /// finished inside this one, added by whichever thread finished
    /// them.
    Fake(Arc<AtomicU64>),
}

impl<'r> SpanGuard<'r> {
    pub(crate) fn enter(registry: &'r MetricsRegistry, name: &str) -> Self {
        let path = SPAN_STACK.with(|stack| {
            let mut stack = stack.borrow_mut();
            stack.push(name.to_string());
            stack.join("/")
        });
        let start = if registry.uses_fake_clock() {
            let tally = Arc::new(AtomicU64::new(0));
            FAKE_TALLIES.with(|tallies| tallies.borrow_mut().push(Arc::clone(&tally)));
            Start::Fake(tally)
        } else {
            Start::Wall(Instant::now())
        };
        SpanGuard {
            registry,
            path,
            start,
            _not_send: std::marker::PhantomData,
        }
    }

    /// The span's full nesting path (`outer/inner`).
    pub fn path(&self) -> &str {
        &self.path
    }
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        let nanos = match &self.start {
            Start::Wall(t) => t.elapsed().as_nanos() as u64,
            Start::Fake(tally) => {
                // One tick of its own; the spans finished inside it
                // added theirs. Acquire pairs with their Release adds
                // below: they may have finished on other threads.
                let nanos = 1 + tally.load(Ordering::Acquire);
                FAKE_TALLIES.with(|tallies| {
                    let mut tallies = tallies.borrow_mut();
                    tallies.pop();
                    if let Some(parent) = tallies.last() {
                        parent.fetch_add(nanos + 1, Ordering::Release);
                    }
                });
                nanos
            }
        };
        SPAN_STACK.with(|stack| {
            stack.borrow_mut().pop();
        });
        crate::metrics::lock(&self.registry.spans).push(SpanRecord {
            path: std::mem::take(&mut self.path),
            nanos,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn names(stack: &SpanStack) -> Vec<&str> {
        stack.names.iter().map(String::as_str).collect()
    }

    #[test]
    fn nesting_paths_and_completion_order() {
        let reg = MetricsRegistry::new();
        {
            let outer = reg.span("pipeline");
            assert_eq!(outer.path(), "pipeline");
            {
                let inner = reg.span("tailor");
                assert_eq!(inner.path(), "pipeline/tailor");
                let deepest = reg.span("draw");
                assert_eq!(deepest.path(), "pipeline/tailor/draw");
            }
            let sibling = reg.span("audit");
            assert_eq!(sibling.path(), "pipeline/audit");
        }
        let records = reg.span_records();
        let paths: Vec<&str> = records.iter().map(|r| r.path.as_str()).collect();
        // children complete before parents; siblings in drop order
        assert_eq!(
            paths,
            vec![
                "pipeline/tailor/draw",
                "pipeline/tailor",
                "pipeline/audit",
                "pipeline"
            ]
        );
    }

    #[test]
    fn sibling_spans_do_not_nest() {
        let reg = MetricsRegistry::new();
        drop(reg.span("a"));
        drop(reg.span("b"));
        let paths: Vec<String> = reg.span_records().into_iter().map(|r| r.path).collect();
        assert_eq!(paths, vec!["a", "b"]);
    }

    #[test]
    fn fake_clock_spans_are_deterministic() {
        // Two independent registries replay the identical span structure
        // and must agree byte-for-byte — tick deltas, not wall time.
        let run = || {
            let reg = MetricsRegistry::with_fake_clock();
            assert!(reg.uses_fake_clock());
            {
                let _outer = reg.span("outer");
                let _inner = reg.span("inner");
            }
            reg.span_records()
        };
        let a = run();
        let b = run();
        assert_eq!(a, b);
        // outer opens at tick 1, inner spans ticks 2..3, outer closes at 4
        assert_eq!(
            a[0],
            SpanRecord {
                path: "outer/inner".into(),
                nanos: 1
            }
        );
        assert_eq!(
            a[1],
            SpanRecord {
                path: "outer".into(),
                nanos: 3
            }
        );
    }

    #[test]
    fn fake_clock_ignores_other_threads() {
        // Two threads open and close their spans in lockstep, so each
        // opens and closes spans inside the other's; each still counts
        // only its own.
        let reg = MetricsRegistry::with_fake_clock();
        let barrier = std::sync::Barrier::new(2);
        std::thread::scope(|s| {
            for _ in 0..2 {
                s.spawn(|| {
                    let _outer = reg.span("outer");
                    barrier.wait();
                    let _inner = reg.span("inner");
                    barrier.wait();
                });
            }
        });
        let mut nanos: Vec<(String, u64)> = reg
            .span_records()
            .into_iter()
            .map(|r| (r.path, r.nanos))
            .collect();
        nanos.sort();
        let expected = [
            ("outer", 3),
            ("outer", 3),
            ("outer/inner", 1),
            ("outer/inner", 1),
        ];
        assert_eq!(nanos, expected.map(|(p, n)| (p.to_string(), n)));
    }

    #[test]
    fn fake_ticks_of_carried_spans_count_toward_the_carrier() {
        // Two jobs, each a span with one nested span, run on two
        // threads under the caller's stack: every span reads as when
        // both jobs run on the caller (job 1 + 2, outer 1 + 2 × 4).
        let reg = MetricsRegistry::with_fake_clock();
        {
            let _outer = reg.span("outer");
            let stack = span_stack();
            let barrier = std::sync::Barrier::new(2);
            std::thread::scope(|s| {
                for _ in 0..2 {
                    s.spawn(|| {
                        with_span_stack(&stack, || {
                            let _job = reg.span("job");
                            barrier.wait();
                            let _step = reg.span("step");
                        })
                    });
                }
            });
        }
        let mut nanos: Vec<(String, u64)> = reg
            .span_records()
            .into_iter()
            .map(|r| (r.path, r.nanos))
            .collect();
        nanos.sort();
        let expected = [
            ("outer", 9),
            ("outer/job", 3),
            ("outer/job", 3),
            ("outer/job/step", 1),
            ("outer/job/step", 1),
        ];
        assert_eq!(nanos, expected.map(|(p, n)| (p.to_string(), n)));
    }

    #[test]
    fn fake_clock_snapshot_is_reproducible() {
        let snap = || {
            let reg = MetricsRegistry::with_fake_clock();
            {
                let _s = reg.span("work");
            }
            reg.counter("hits").inc();
            reg.snapshot_json()
        };
        assert_eq!(snap(), snap());
    }

    #[test]
    fn wall_clock_is_the_default() {
        assert!(!MetricsRegistry::new().uses_fake_clock());
    }

    #[test]
    fn worker_threads_start_fresh_stacks() {
        let reg = MetricsRegistry::new();
        let _outer = reg.span("outer");
        std::thread::scope(|s| {
            s.spawn(|| {
                let inner = reg.span("worker");
                // no inheritance across threads
                assert_eq!(inner.path(), "worker");
            });
        });
    }

    #[test]
    fn a_carried_stack_nests_worker_spans_and_is_restored() {
        let reg = MetricsRegistry::new();
        let _outer = reg.span("outer");
        let stack = span_stack();
        assert_eq!(names(&stack), ["outer"]);
        std::thread::scope(|s| {
            s.spawn(|| {
                let _own = reg.span("own");
                with_span_stack(&stack, || {
                    assert_eq!(reg.span("worker").path(), "outer/worker");
                });
                assert_eq!(names(&span_stack()), ["own"]);
                let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    with_span_stack(&stack, || panic!("job failed"))
                }));
                assert!(unwound.is_err());
                assert_eq!(names(&span_stack()), ["own"]);
            });
        });
    }
}
