//! In-memory spans recorded by the benchmark around its calls into each
//! layer. They are kept in the benchmark's own memory, not in `rdi_obs`,
//! whose span buffer is unbounded and would grow the measured process.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// One closed span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer call the span covers (`step` is the closed-loop step).
    pub name: &'static str,
    /// Nanoseconds since the trace began.
    pub start_ns: u64,
    /// Nanoseconds since the trace began.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Closed-loop step the span belongs to.
    pub step: u64,
}

/// Span recorder; a disabled trace records nothing and costs one branch
/// per call.
#[derive(Debug, Default)]
pub struct Trace {
    on: Option<(Instant, Vec<Span>, Vec<usize>)>,
}

/// Handle of an open span.
#[derive(Debug, Clone, Copy)]
pub struct Open(Option<usize>);

impl Trace {
    /// A recording trace.
    pub fn enabled() -> Self {
        Trace {
            on: Some((Instant::now(), Vec::new(), Vec::new())),
        }
    }

    /// A trace that records nothing.
    pub fn disabled() -> Self {
        Trace { on: None }
    }

    /// Open a span nested in the innermost open one.
    pub fn enter(&mut self, name: &'static str, step: u64) -> Open {
        let Some((origin, spans, stack)) = &mut self.on else {
            return Open(None);
        };
        let now = origin.elapsed().as_nanos() as u64;
        spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent: stack.last().copied(),
            step,
        });
        stack.push(spans.len() - 1);
        Open(Some(spans.len() - 1))
    }

    /// Close a span opened by [`Trace::enter`] (innermost first).
    pub fn exit(&mut self, open: Open) {
        if let (Some((origin, spans, stack)), Some(i)) = (&mut self.on, open.0) {
            spans[i].end_ns = origin.elapsed().as_nanos() as u64;
            stack.retain(|&j| j != i);
        }
    }

    /// Recorded spans, in opening order.
    pub fn spans(&self) -> &[Span] {
        self.on.as_ref().map_or(&[], |(_, s, _)| s)
    }

    /// Durations in microseconds of every span named `name`.
    pub fn durations_us(&self, name: &str) -> Vec<f64> {
        self.spans()
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e3)
            .collect()
    }

    /// Self time per span name in nanoseconds: each span's duration minus
    /// the time its direct children cover.
    pub fn self_ns(&self) -> BTreeMap<&'static str, u64> {
        let spans = self.spans();
        let mut child_ns = vec![0u64; spans.len()];
        for s in spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut out = BTreeMap::new();
        for (s, c) in spans.iter().zip(child_ns) {
            *out.entry(s.name).or_insert(0) += (s.end_ns - s.start_ns).saturating_sub(c);
        }
        out
    }

    /// Write the spans as CSV (`step,name,start_ns,end_ns,parent`).
    pub fn write_csv(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "step,name,start_ns,end_ns,parent")?;
        for s in self.spans() {
            let parent = s.parent.map_or(String::new(), |p| p.to_string());
            writeln!(
                out,
                "{},{},{},{},{parent}",
                s.step, s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut t = Trace::enabled();
        let outer = t.enter("step", 0);
        let inner = t.enter("child", 0);
        std::thread::sleep(std::time::Duration::from_millis(2));
        t.exit(inner);
        t.exit(outer);
        let spans = t.spans();
        assert_eq!(spans[1].parent, Some(0));
        let own = t.self_ns();
        let total = spans[0].end_ns - spans[0].start_ns;
        assert_eq!(own["step"] + own["child"], total);
        assert!(own["child"] >= 2_000_000);
    }

    #[test]
    fn disabled_trace_records_nothing() {
        let mut t = Trace::disabled();
        let s = t.enter("step", 0);
        t.exit(s);
        assert!(t.spans().is_empty());
    }
}
