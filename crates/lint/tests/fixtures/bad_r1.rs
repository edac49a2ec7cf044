//! Fixture: default-hasher map in a hot-path crate (retired R1: fails
//! clippy's `disallowed_types` under a hot crate root's deny).

use std::collections::HashMap;

/// Seeded SipHash map — iteration order varies per process.
pub fn build() -> HashMap<u64, u64> {
    HashMap::new()
}
