//! The per-source circuit breaker: [`RecoveringBreaker`], with
//! deterministic half-open recovery.

use crate::metrics;

/// State of a [`RecoveringBreaker`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecoveryState {
    /// Requests flow normally.
    Closed,
    /// Shedding; recovery is possible once the cooldown elapses.
    Open,
    /// One probe request is in flight; everything else is shed until
    /// its outcome is recorded.
    HalfOpen,
}

/// Admission verdict from [`RecoveringBreaker::admit`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Admission {
    /// The breaker is closed: admit normally.
    Admit,
    /// Cooldown elapsed: admit this one request as the recovery probe.
    Probe,
    /// Shed: open (cooling down) or waiting on an in-flight probe.
    Shed,
}

/// What one recorded failure did to a [`RecoveringBreaker`]: tripped
/// it open, or not.
///
/// Only [`RecoveringBreaker::record_failure`] builds one, through a
/// constructor that counts `fault.breaker.failures` and, for a trip,
/// `fault.breaker.opened`. Both trip paths (a closed breaker reaching
/// its threshold and a failed half-open probe) therefore share one
/// counted exit, so the goldens that pin the counters cover both.
#[must_use = "a trip quarantines the source: branch on `tripped()`"]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TripVerdict {
    tripped: bool,
}

impl TripVerdict {
    fn counted(tripped: bool) -> Self {
        metrics::BREAKER_FAILURES.inc();
        if tripped {
            metrics::BREAKER_OPENED.inc();
        }
        TripVerdict { tripped }
    }

    /// True exactly when this failure tripped (or re-tripped) the
    /// breaker.
    pub fn tripped(self) -> bool {
        self.tripped
    }
}

/// A circuit breaker with deterministic half-open recovery.
///
/// It opens after `threshold` consecutive failures (a success while
/// closed resets the count). An open breaker stays open until a caller
/// asks it to [`admit`](RecoveringBreaker::admit): once `cooldown`
/// virtual ticks have elapsed (ticks are supplied by the caller, e.g.
/// one per served batch — never wall clock) the next
/// [`admit`](RecoveringBreaker::admit) returns [`Admission::Probe`]:
/// exactly one request goes through. A recorded success closes the
/// breaker; a recorded failure re-opens it and restarts the cooldown.
/// All transitions are pure functions of the `(outcome, tick)` stream,
/// so a replay at any `RDI_THREADS` is bitwise identical.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecoveringBreaker {
    threshold: u32,
    cooldown: u64,
    consecutive: u32,
    state: RecoveryState,
    opened_at: u64,
}

impl RecoveringBreaker {
    /// A closed breaker that opens after `threshold` consecutive
    /// failures and probes one request after `cooldown` ticks. Both
    /// are clamped to ≥ 1: a zero threshold (e.g. from an unvalidated
    /// serving config) would otherwise trip on the very first failure,
    /// and a zero cooldown would let an open breaker shed nothing.
    pub fn new(threshold: u32, cooldown: u64) -> Self {
        RecoveringBreaker {
            threshold: threshold.max(1),
            cooldown: cooldown.max(1),
            consecutive: 0,
            state: RecoveryState::Closed,
            opened_at: 0,
        }
    }

    /// The configured consecutive-failure threshold (always ≥ 1).
    pub fn threshold(&self) -> u32 {
        self.threshold
    }

    /// The configured cooldown in ticks (always ≥ 1).
    pub fn cooldown(&self) -> u64 {
        self.cooldown
    }

    /// Current consecutive-failure count.
    pub fn consecutive_failures(&self) -> u32 {
        self.consecutive
    }

    /// Current state.
    pub fn state(&self) -> RecoveryState {
        self.state
    }

    /// True while the breaker sheds ordinary traffic (open or waiting
    /// on a probe).
    pub fn is_open(&self) -> bool {
        self.state != RecoveryState::Closed
    }

    /// Admission verdict for one request arriving at virtual tick
    /// `now`. At most one [`Admission::Probe`] is handed out per
    /// half-open episode; its outcome must be fed back through
    /// [`record_success`](RecoveringBreaker::record_success) or
    /// [`record_failure`](RecoveringBreaker::record_failure).
    pub fn admit(&mut self, now: u64) -> Admission {
        match self.state {
            RecoveryState::Closed => Admission::Admit,
            RecoveryState::Open => {
                if now >= self.opened_at.saturating_add(self.cooldown) {
                    self.state = RecoveryState::HalfOpen;
                    Admission::Probe
                } else {
                    Admission::Shed
                }
            }
            RecoveryState::HalfOpen => Admission::Shed,
        }
    }

    /// Record one failed attempt at virtual tick `now`. The verdict
    /// says whether this failure tripped (or re-tripped) the breaker;
    /// building it counts the failure, and the trip, in the
    /// `fault.breaker.*` counters.
    pub fn record_failure(&mut self, now: u64) -> TripVerdict {
        let tripped = match self.state {
            RecoveryState::Closed => {
                self.consecutive += 1;
                self.consecutive >= self.threshold
            }
            // the probe failed: re-open and restart the cooldown
            RecoveryState::HalfOpen => true,
            RecoveryState::Open => false,
        };
        if tripped {
            self.state = RecoveryState::Open;
            self.opened_at = now;
        }
        TripVerdict::counted(tripped)
    }

    /// Record one successful attempt. While closed this resets the
    /// consecutive count; in half-open it means the probe succeeded and
    /// the breaker closes (counted by `fault.breaker.closed`).
    pub fn record_success(&mut self) {
        match self.state {
            RecoveryState::Closed => self.consecutive = 0,
            RecoveryState::HalfOpen => {
                self.state = RecoveryState::Closed;
                self.consecutive = 0;
                metrics::BREAKER_CLOSED.inc();
            }
            RecoveryState::Open => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn opens_on_kth_consecutive_failure() {
        let mut b = RecoveringBreaker::new(3, 1);
        assert!(!b.record_failure(0).tripped());
        assert!(!b.record_failure(0).tripped());
        assert!(!b.is_open());
        assert!(b.record_failure(0).tripped(), "third failure newly trips");
        assert!(b.is_open());
        assert!(
            !b.record_failure(0).tripped(),
            "already open: not newly tripped"
        );
    }

    #[test]
    fn success_resets_consecutive_count() {
        let mut b = RecoveringBreaker::new(2, 1);
        assert!(!b.record_failure(0).tripped());
        b.record_success();
        assert_eq!(b.consecutive_failures(), 0);
        assert!(!b.record_failure(0).tripped());
        assert!(b.record_failure(0).tripped());
    }

    #[test]
    fn open_stays_open_until_admitted() {
        let mut b = RecoveringBreaker::new(1, u64::MAX);
        assert!(b.record_failure(0).tripped());
        b.record_success();
        assert!(b.is_open(), "success after opening must not close it");
        assert_eq!(b.state(), RecoveryState::Open);
        assert_eq!(b.admit(u64::MAX - 1), Admission::Shed, "no probe");
        assert_eq!(b.consecutive_failures(), 1);
    }

    #[test]
    fn zero_threshold_is_clamped_not_always_open() {
        // Direct construction (e.g. from an unvalidated serving config)
        // must behave like threshold 1 — closed until a failure — never
        // open-from-birth.
        let mut b = RecoveringBreaker::new(0, 0);
        assert_eq!((b.threshold(), b.cooldown()), (1, 1));
        assert_eq!(b.admit(0), Admission::Admit, "fresh breaker must admit");
        b.record_success();
        assert!(!b.is_open());
        assert!(
            b.record_failure(0).tripped(),
            "clamped threshold 1 trips on first"
        );
    }

    #[test]
    fn recovering_breaker_probes_after_cooldown() {
        let mut b = RecoveringBreaker::new(2, 3);
        assert!(!b.record_failure(0).tripped());
        assert!(
            b.record_failure(1).tripped(),
            "second consecutive failure trips"
        );
        assert_eq!(b.state(), RecoveryState::Open);
        // cooling: ticks 2..4 shed (opened at 1, cooldown 3)
        assert_eq!(b.admit(2), Admission::Shed);
        assert_eq!(b.admit(3), Admission::Shed);
        // tick 4 = opened_at + cooldown: one probe, then shed again
        assert_eq!(b.admit(4), Admission::Probe);
        assert_eq!(b.state(), RecoveryState::HalfOpen);
        assert_eq!(b.admit(4), Admission::Shed, "one probe per episode");
        // probe succeeds: closed, counters reset
        b.record_success();
        assert_eq!(b.state(), RecoveryState::Closed);
        assert_eq!(b.consecutive_failures(), 0);
        assert_eq!(b.admit(5), Admission::Admit);
    }

    #[test]
    fn failed_probe_reopens_and_restarts_cooldown() {
        let mut b = RecoveringBreaker::new(1, 2);
        assert!(b.record_failure(0).tripped());
        assert_eq!(b.admit(2), Admission::Probe);
        assert!(b.record_failure(2).tripped(), "probe failure re-trips");
        assert_eq!(b.state(), RecoveryState::Open);
        assert_eq!(b.admit(3), Admission::Shed, "cooldown restarted at 2");
        assert_eq!(b.admit(4), Admission::Probe);
        b.record_success();
        assert!(!b.is_open());
    }
}
