//! Planted-violation fixture: a non-algorithm library crate. Never
//! compiled; see `planted.rs` for the convention.

// HashMap in a non-algorithm crate is allowed (R1 is scoped):
pub fn lookup_table() -> std::collections::HashMap<u64, u64> {
    std::collections::HashMap::new()
}
