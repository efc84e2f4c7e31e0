//! `Threads::auto()` reads `RDI_THREADS` on every call, even though it
//! remembers the hardware count. The variable is process-global, so
//! this check lives in its own test binary with no other test running
//! beside it.

use std::num::NonZeroUsize;

use rdi_par::{Threads, THREADS_ENV};

#[test]
fn auto_follows_every_change_of_the_env_var() {
    let hardware = std::thread::available_parallelism()
        .map(NonZeroUsize::get)
        .unwrap_or(1);

    // Resolve once without the variable, so the hardware count is
    // already remembered before the variable changes.
    std::env::remove_var(THREADS_ENV);
    assert_eq!(Threads::auto().get(), hardware);

    std::env::set_var(THREADS_ENV, "3");
    assert_eq!(Threads::auto().get(), 3);
    std::env::set_var(THREADS_ENV, "5");
    assert_eq!(Threads::auto().get(), 5);

    for fallback in ["0", "x"] {
        std::env::set_var(THREADS_ENV, fallback);
        assert_eq!(Threads::auto().get(), hardware, "RDI_THREADS={fallback}");
    }

    std::env::set_var(THREADS_ENV, "3");
    assert_eq!(Threads::auto().get(), 3);
    std::env::remove_var(THREADS_ENV);
    assert_eq!(Threads::auto().get(), hardware);
}
