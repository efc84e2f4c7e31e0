//! RAII span timers with per-thread parent/child nesting.
//!
//! Durations come from the registry's clock source: the wall clock by
//! default, or a deterministic tick counter under `RDI_FAKE_CLOCK=1`
//! (see [`MetricsRegistry::with_fake_clock`]).

use std::cell::RefCell;

use crate::metrics::ClockInstant;
use crate::MetricsRegistry;

thread_local! {
    /// Names of the spans currently open on this thread, outermost
    /// first. Nesting is tracked per thread: work handed to another
    /// thread carries the stack along explicitly (see
    /// [`with_span_stack`]).
    static SPAN_STACK: RefCell<Vec<String>> = const { RefCell::new(Vec::new()) };
}

/// The names of the spans open on the calling thread, outermost first.
pub fn span_stack() -> Vec<String> {
    SPAN_STACK.with(|stack| stack.borrow().clone())
}

/// Run `f` with `stack` as the calling thread's open spans, so spans it
/// opens nest as they would on the thread that read `stack` (see
/// [`span_stack`]). The thread's own stack is restored afterwards, also
/// when `f` panics.
pub fn with_span_stack<R>(stack: &[String], f: impl FnOnce() -> R) -> R {
    /// Puts the saved stack back on drop.
    struct Restore(Vec<String>);
    impl Drop for Restore {
        fn drop(&mut self) {
            SPAN_STACK.with(|stack| std::mem::swap(&mut *stack.borrow_mut(), &mut self.0));
        }
    }
    let _restore =
        Restore(SPAN_STACK.with(|s| std::mem::replace(&mut *s.borrow_mut(), stack.to_vec())));
    f()
}

/// One finished span: its slash-separated nesting path and wall time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanRecord {
    /// `outer/inner` path of span names at completion time.
    pub path: String,
    /// Elapsed wall time in nanoseconds.
    pub nanos: u64,
}

/// Guard returned by [`MetricsRegistry::span`] / [`crate::span`]:
/// records a [`SpanRecord`] into the registry when dropped. Guards are
/// expected to drop in LIFO order (ordinary scoping guarantees this);
/// they are deliberately `!Send` so a span cannot close on a different
/// thread than it opened on.
pub struct SpanGuard<'r> {
    registry: &'r MetricsRegistry,
    path: String,
    start: ClockInstant,
    /// Keep the guard `!Send`: the thread-local stack entry must be
    /// popped by the opening thread.
    _not_send: std::marker::PhantomData<*const ()>,
}

impl<'r> SpanGuard<'r> {
    pub(crate) fn enter(registry: &'r MetricsRegistry, name: &str) -> Self {
        let path = SPAN_STACK.with(|stack| {
            let mut stack = stack.borrow_mut();
            stack.push(name.to_string());
            stack.join("/")
        });
        SpanGuard {
            registry,
            path,
            start: registry.clock_now(),
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
        let nanos = self.registry.clock_elapsed(&self.start);
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
        assert_eq!(stack, vec!["outer"]);
        std::thread::scope(|s| {
            s.spawn(|| {
                let _own = reg.span("own");
                with_span_stack(&stack, || {
                    assert_eq!(reg.span("worker").path(), "outer/worker");
                });
                assert_eq!(span_stack(), vec!["own"]);
                let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    with_span_stack(&stack, || panic!("job failed"))
                }));
                assert!(unwound.is_err());
                assert_eq!(span_stack(), vec!["own"]);
            });
        });
    }
}
