//! Planted R12 fixture: metric updates. Never compiled — the
//! `fixtures/` directory is excluded from the workspace scan and from
//! every cargo target; it exists only for rdi-lint's own tests.

/// `serve.dup` is declared in `metrics.rs` (clean); `serve.unregistered`
/// is not (planted R12 at its line); `fixture.free` is outside the
/// registry prefixes. Names in strings and comments are not updates:
/// `counter("serve.in_comment")`.
pub fn instrumented() {
    rdi_obs::counter("serve.dup").inc();
    rdi_obs::counter("serve.unregistered").inc(); // planted R12
    rdi_obs::counter("fixture.free").inc();
    let _s = "rdi_obs::counter(\"serve.in_string\")";
    /* rdi_obs::counter("serve.in_block_comment") */
}

#[cfg(test)]
mod tests {
    #[test]
    fn test_code_is_exempt() {
        rdi_obs::counter("serve.unregistered_in_test").inc(); // exempt: cfg(test)
    }
}
