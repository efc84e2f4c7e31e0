//! Planted-violation fixture: a non-algorithm library crate. Never
//! compiled; see `planted.rs` for the convention.

// HashMap in a non-algorithm crate is allowed (R1 is scoped):
pub fn lookup_table() -> std::collections::HashMap<u64, u64> {
    std::collections::HashMap::new()
}

pub fn once_noisy() -> u64 {
    // rdi-lint: allow(R3): Instant::now() was here until the virtual-clock port
    7 // the directive above covers nothing now: planted R11
}
