//! Fixture: leftover stub/debug macros (retired R7: fails clippy's
//! `todo`, `dbg_macro` and `unimplemented`).

/// Unfinished branch.
pub fn later() {
    todo!()
}

/// Debug print left behind.
pub fn noisy(x: u32) -> u32 {
    dbg!(x)
}

/// Explicitly unimplemented arm.
pub fn never() {
    unimplemented!()
}
