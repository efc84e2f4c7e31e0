//! Planted-violation fixture: an "algorithm crate" file. Never compiled —
//! the `fixtures/` directory is excluded from the workspace scan and from
//! every cargo target; it exists only for rdi-lint's own tests.

use std::collections::HashMap; // planted R1
use std::time::Instant; // planted R3

pub fn histogram(xs: &[u64]) -> Vec<(u64, usize)> {
    let mut counts: HashMap<u64, usize> = HashMap::new(); // planted R1 (x2 on one line, deduped per token)
    for &x in xs {
        *counts.entry(x).or_insert(0) += 1;
    }
    let started = Instant::now(); // planted R3
    let _elapsed = started.elapsed();
    let mut v: Vec<(u64, usize)> = counts.into_iter().collect();
    v.sort();
    v
}

pub fn suppressed_timing() -> u64 {
    // rdi-lint: allow(R3): fixture demonstrating a well-formed suppression
    let _t = Instant::now();
    7
}

pub fn suppressed_set(xs: &[u64]) -> usize {
    let set: std::collections::HashSet<u64> = xs.iter().copied().collect(); // rdi-lint: allow(R1): membership count only, order never escapes
    set.len()
}

pub fn missing_reason() -> u64 {
    // rdi-lint: allow(R3)
    let _t = Instant::now(); // planted R3: the reasonless directive above (planted R7) suppresses nothing
    7
}

pub fn innocuous() {
    // Rule-pattern text in non-code positions must NOT fire:
    let _s = "HashMap::new() and Instant::now() inside a string";
    let _r = r#"raw string with SystemTime::now() and "HashSet""#;
    let _c = 'H'; // not the start of a `HashMap` ident
    /* block comment: HashMap /* nested: Instant::now() */ all ignored */
}

#[cfg(test)]
mod tests {
    #[test]
    fn hash_and_clock_in_tests_are_fine() {
        let started = std::time::Instant::now(); // exempt: cfg(test)
        let _m: std::collections::HashMap<u64, u64> = std::collections::HashMap::new();
        let _e = started.elapsed();
    }
}
