//! Fixture: wall-clock read inside simulated code (retired R2: fails
//! clippy's `disallowed_methods`).

use std::time::Instant;

/// Reads the host clock — results now depend on machine speed.
pub fn stamp() -> u128 {
    Instant::now().elapsed().as_nanos()
}
