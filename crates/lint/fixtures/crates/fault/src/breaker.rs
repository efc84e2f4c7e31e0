//! Planted R10 fixture: `RecoveringBreaker::record_failure` is a
//! registered decision point (see `DECISION_POINTS` in rdi-lint), so
//! every return path must emit before exiting. The early `return false`
//! below deliberately does not. Never compiled.

pub struct RecoveringBreaker {
    open: bool,
    failures: u32,
    threshold: u32,
}

impl RecoveringBreaker {
    pub fn new(threshold: u32) -> Self {
        RecoveringBreaker {
            open: false,
            failures: 0,
            threshold,
        }
    }

    pub fn record_failure(&mut self) -> bool {
        if self.open {
            return false; // planted R10: exits without any emission
        }
        self.failures += 1;
        if self.failures >= self.threshold {
            self.open = true;
            rdi_obs::counter("fixture.breaker.opened").inc();
            return true; // covered: emission above in this block
        }
        rdi_obs::counter("fixture.breaker.failures").inc();
        false // covered: emission above in the function block
    }
}
