//! Fixture: default-hasher maps and sets in a hot-path crate (retired R1:
//! fails clippy's `disallowed_types` under a hot crate root's deny).

use std::collections::{HashMap, HashSet};

/// Seeded SipHash map — iteration order varies per process.
pub fn build() -> HashMap<u64, u64> {
    HashMap::new()
}

/// Seeded SipHash set — iteration order varies per process.
pub fn build_set() -> HashSet<u64> {
    HashSet::new()
}
