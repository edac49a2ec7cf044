//! Fixture: bare `.unwrap()` in library code (retired R3: fails
//! `clippy::unwrap_used`).

/// Panics with no explanation of the violated invariant.
pub fn head(xs: &[u32]) -> u32 {
    *xs.first().unwrap()
}
