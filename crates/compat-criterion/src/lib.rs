//! Offline API-compatible subset of `criterion` (see CONTRIBUTING.md,
//! "Offline builds").
//!
//! Provides the `Criterion` / `benchmark_group` / `Bencher::iter`
//! surface the workspace benches use, backed by a simple
//! warmup-then-sample timer. Reports mean and min/max per benchmark on
//! stdout; there is no statistical analysis, plotting, or HTML output.

#![warn(missing_docs)]
#![allow(
    clippy::disallowed_types,
    reason = "a benchmark timer measures wall-clock time by definition"
)]

use std::fmt;
use std::time::{Duration, Instant};

/// Prevent the optimizer from eliding a value or the work producing it.
pub fn black_box<T>(x: T) -> T {
    std::hint::black_box(x)
}

/// Benchmark manager handed to `criterion_group!` target functions.
pub struct Criterion {
    sample_size: usize,
    measurement_time: Duration,
}

impl Default for Criterion {
    fn default() -> Self {
        Criterion {
            sample_size: 20,
            measurement_time: Duration::from_millis(500),
        }
    }
}

impl Criterion {
    /// Set the number of timed samples collected per benchmark.
    pub fn sample_size(mut self, n: usize) -> Self {
        self.sample_size = n.max(2);
        self
    }

    /// Set the target total measurement time per benchmark.
    pub fn measurement_time(mut self, t: Duration) -> Self {
        self.measurement_time = t;
        self
    }

    /// Open a named group of related benchmarks.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            criterion: self,
            name: name.into(),
            sample_size: None,
        }
    }

    /// Run a single benchmark outside any group.
    pub fn bench_function<F: FnMut(&mut Bencher)>(&mut self, id: &str, f: F) -> &mut Self {
        let sample_size = self.sample_size;
        run_benchmark(id, sample_size, self.measurement_time, f);
        self
    }

    /// No-op finalizer for API parity.
    pub fn final_summary(&mut self) {}
}

/// A named group of benchmarks (result of [`Criterion::benchmark_group`]).
pub struct BenchmarkGroup<'a> {
    criterion: &'a mut Criterion,
    name: String,
    sample_size: Option<usize>,
}

impl BenchmarkGroup<'_> {
    /// Override the sample count for benchmarks in this group.
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.sample_size = Some(n.max(2));
        self
    }

    /// Override the target measurement time for this group (no-op knob
    /// beyond storing it; kept for API parity).
    pub fn measurement_time(&mut self, t: Duration) -> &mut Self {
        self.criterion.measurement_time = t;
        self
    }

    /// Run a benchmark identified by a plain name.
    pub fn bench_function<F: FnMut(&mut Bencher)>(
        &mut self,
        id: impl IntoBenchmarkId,
        f: F,
    ) -> &mut Self {
        let full = format!("{}/{}", self.name, id.into_benchmark_id());
        let n = self.sample_size.unwrap_or(self.criterion.sample_size);
        run_benchmark(&full, n, self.criterion.measurement_time, f);
        self
    }

    /// Run a benchmark over one input value.
    pub fn bench_with_input<I: ?Sized, F: FnMut(&mut Bencher, &I)>(
        &mut self,
        id: impl IntoBenchmarkId,
        input: &I,
        mut f: F,
    ) -> &mut Self {
        self.bench_function(id, |b| f(b, input))
    }

    /// Close the group.
    pub fn finish(self) {}
}

/// Benchmark identifier: a function name plus an optional parameter.
pub struct BenchmarkId {
    text: String,
}

impl BenchmarkId {
    /// Identifier `function/parameter`.
    pub fn new(function: impl Into<String>, parameter: impl fmt::Display) -> Self {
        BenchmarkId {
            text: format!("{}/{}", function.into(), parameter),
        }
    }

    /// Identifier from a parameter alone.
    pub fn from_parameter(parameter: impl fmt::Display) -> Self {
        BenchmarkId {
            text: parameter.to_string(),
        }
    }
}

/// Conversion into a benchmark id string (accepts `&str`, `String`,
/// and [`BenchmarkId`]).
pub trait IntoBenchmarkId {
    /// The display form of the id.
    fn into_benchmark_id(self) -> String;
}

impl IntoBenchmarkId for BenchmarkId {
    fn into_benchmark_id(self) -> String {
        self.text
    }
}

impl IntoBenchmarkId for &str {
    fn into_benchmark_id(self) -> String {
        self.to_string()
    }
}

impl IntoBenchmarkId for String {
    fn into_benchmark_id(self) -> String {
        self
    }
}

/// Timing harness passed to benchmark closures.
pub struct Bencher {
    iters: u64,
    elapsed: Duration,
}

impl Bencher {
    /// Time `routine`, running it `self.iters` times back to back.
    pub fn iter<O, R: FnMut() -> O>(&mut self, mut routine: R) {
        let start = Instant::now();
        for _ in 0..self.iters {
            black_box(routine());
        }
        self.elapsed = start.elapsed();
    }
}

fn run_benchmark<F: FnMut(&mut Bencher)>(id: &str, samples: usize, target: Duration, mut f: F) {
    // Warmup + calibration: find an iteration count that takes a
    // meaningful fraction of the per-sample budget.
    let mut iters = 1u64;
    let per_sample = (target / samples as u32).max(Duration::from_micros(200));
    loop {
        let mut b = Bencher {
            iters,
            elapsed: Duration::ZERO,
        };
        f(&mut b);
        if b.elapsed >= per_sample || iters >= 1 << 20 {
            break;
        }
        let grow = if b.elapsed.is_zero() {
            8
        } else {
            (per_sample.as_nanos() / b.elapsed.as_nanos().max(1)).clamp(2, 8) as u64
        };
        iters = iters.saturating_mul(grow);
    }

    let mut per_iter: Vec<f64> = Vec::with_capacity(samples);
    for _ in 0..samples {
        let mut b = Bencher {
            iters,
            elapsed: Duration::ZERO,
        };
        f(&mut b);
        per_iter.push(b.elapsed.as_secs_f64() / iters as f64);
    }
    per_iter.sort_by(|a, b| a.total_cmp(b));
    let mean = per_iter.iter().sum::<f64>() / per_iter.len() as f64;
    println!(
        "{id:<50} time: [{} {} {}]  ({} samples x {} iters)",
        fmt_time(per_iter[0]),
        fmt_time(mean),
        fmt_time(per_iter[per_iter.len() - 1]),
        samples,
        iters,
    );
}

fn fmt_time(secs: f64) -> String {
    if secs >= 1.0 {
        format!("{secs:.3} s")
    } else if secs >= 1e-3 {
        format!("{:.3} ms", secs * 1e3)
    } else if secs >= 1e-6 {
        format!("{:.3} us", secs * 1e6)
    } else {
        format!("{:.1} ns", secs * 1e9)
    }
}

/// Define a benchmark group: `criterion_group!(benches, f1, f2)` or the
/// `config = ...; targets = ...` form.
#[macro_export]
macro_rules! criterion_group {
    (name = $name:ident; config = $config:expr; targets = $($target:path),+ $(,)?) => {
        pub fn $name() {
            let mut criterion: $crate::Criterion = $config;
            $($target(&mut criterion);)+
        }
    };
    ($name:ident, $($target:path),+ $(,)?) => {
        $crate::criterion_group!(
            name = $name;
            config = $crate::Criterion::default();
            targets = $($target),+
        );
    };
}

/// Define the benchmark binary entry point.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $($group();)+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_api_surface_runs() {
        let mut c = Criterion::default()
            .sample_size(3)
            .measurement_time(Duration::from_millis(5));
        c.bench_function("smoke", |b| b.iter(|| black_box(1 + 1)));
        let mut group = c.benchmark_group("grp");
        group.sample_size(2);
        group.bench_with_input(BenchmarkId::new("add", 4), &4u64, |b, &n| {
            b.iter(|| black_box(n + 1))
        });
        group.bench_function("plain", |b| b.iter(|| black_box(2 * 2)));
        group.finish();
    }

    #[test]
    fn time_formatting() {
        assert_eq!(fmt_time(2.0), "2.000 s");
        assert_eq!(fmt_time(0.0025), "2.500 ms");
        assert!(fmt_time(2.5e-7).ends_with("ns"));
    }
}
