//! Fixture: hash-order iteration (retired R10: the `for` loop fails
//! `clippy::iter_over_hash_type`; every order-exposing accessor fails a
//! `disallowed-methods` entry).

use std::collections::{HashMap, HashSet};

/// Emits pages in hasher order — the output depends on the seed.
pub fn label_order(by_page: &HashMap<u64, u32>) -> Vec<(u64, u32)> {
    let mut out = Vec::new();
    for (&page, &count) in by_page {
        out.push((page, count));
    }
    out
}

/// Visits the map and the set through each accessor that yields hash order.
pub fn visit(map: &mut HashMap<u64, u32>, set: &mut HashSet<u64>) -> usize {
    map.iter().count()
        + map.iter_mut().count()
        + map.keys().count()
        + map.values_mut().count()
        + map.clone().into_keys().count()
        + map.clone().into_values().count()
        + map.drain().count()
        + set.iter().count()
        + set.drain().count()
}
