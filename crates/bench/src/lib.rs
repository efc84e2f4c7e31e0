//! # rdi-bench
//!
//! Experiment harnesses for the RDI toolkit.
//!
//! Each `exp_*` binary in `src/bin/` regenerates one experiment from
//! `EXPERIMENTS.md` and prints the result as markdown tables. An
//! experiment that ablates a kernel's runtime times it with
//! [`time_ms`], beside the quality numbers it reports. Everything is
//! seeded: reruns print the same bytes, except the wall-clock cells.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

/// Print a markdown table: header row + rows, all pre-formatted strings.
pub fn print_table(title: &str, header: &[&str], rows: &[Vec<String>]) {
    println!("\n### {title}\n");
    println!("| {} |", header.join(" | "));
    println!(
        "|{}|",
        header.iter().map(|_| "---").collect::<Vec<_>>().join("|")
    );
    for r in rows {
        println!("| {} |", r.join(" | "));
    }
}

/// Format a float to 3 decimals.
pub fn f3(x: f64) -> String {
    format!("{x:.3}")
}

/// Format a float to 1 decimal.
pub fn f1(x: f64) -> String {
    format!("{x:.1}")
}

/// Mean of a slice.
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// A compact, stable digest of a string for report tables: an
/// FNV-1a-shaped xor-multiply loop from the FNV offset basis, with the
/// multiplier `0x1000_0000_01b3` rather than the FNV prime
/// `0x100_0000_01b3` (so not FNV-1a; `rdi_policy::fnv1a` is). The E21
/// and E22 goldens pin digests made with this multiplier.
pub fn digest(s: &str) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in s.as_bytes() {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    h
}

/// Wall time of `f` in milliseconds: one warm-up call, then the best
/// of 3 timed calls. The one timer of every `exp_*` binary. A reading is
/// printed, never asserted on: it depends on the host. `f` must repeat
/// the same work on each call (clone any RNG it consumes), and its
/// result is kept opaque to the optimizer.
#[allow(
    clippy::disallowed_types,
    reason = "a runtime ablation measures wall-clock time by definition"
)]
pub fn time_ms<T>(mut f: impl FnMut() -> T) -> f64 {
    std::hint::black_box(f());
    (0..3)
        .map(|_| {
            let start = std::time::Instant::now();
            std::hint::black_box(f());
            start.elapsed().as_secs_f64() * 1000.0
        })
        .fold(f64::INFINITY, f64::min)
}

/// Marker prefixing the metrics line every `exp_*` binary prints last,
/// so scripts (and the `validate_metrics` CI helper) can find it
/// without parsing the human-readable tables above it.
pub const METRICS_MARKER: &str = "METRICS_SNAPSHOT ";

/// Print the global [`rdi_obs`] registry as one `METRICS_SNAPSHOT
/// {json}` line. Every `exp_*` binary calls this as its final
/// statement, making each experiment's counters machine-readable.
pub fn emit_metrics_snapshot() {
    println!("\n{}{}", METRICS_MARKER, rdi_obs::global().snapshot_json());
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_works() {
        assert_eq!(mean(&[1.0, 3.0]), 2.0);
        assert_eq!(mean(&[]), 0.0);
    }

    #[test]
    fn time_ms_warms_up_once_then_takes_three_readings() {
        let mut calls = 0;
        time_ms(|| calls += 1);
        assert_eq!(calls, 4);
    }

    #[test]
    fn formatters() {
        assert_eq!(f3(1.23456), "1.235");
        assert_eq!(f1(1.26), "1.3");
    }
}
