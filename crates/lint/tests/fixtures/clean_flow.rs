//! Clean-flow fixture: the sanctioned counterparts of rules R9, R10 and
//! R12. Linted under `crates/trace/src/io.rs`, a hot-crate parsing module.

use std::collections::BTreeMap;

use planaria_hash::FastHashMap;

/// No call path from here reaches a wall clock (R9 clean).
pub fn pure_step(x: u64) -> u64 {
    x.wrapping_mul(0x9e37_79b9_7f4a_7c15)
}

/// Ordered iteration: a `BTreeMap`, not a hash map (R10 clean).
pub fn ordered_values(tree: &BTreeMap<u64, u64>) -> Vec<u64> {
    let mut out = Vec::new();
    for (_k, v) in tree {
        out.push(*v);
    }
    out
}

/// Hash-map contents are sorted before the ordered sink (R10 clean).
pub fn sorted_pages(by_page: &FastHashMap<u64, u64>) -> Vec<u64> {
    let mut pages: Vec<u64> = by_page.keys().copied().collect();
    pages.sort_unstable();
    pages
}

/// Checked narrowing with a surfaced error.
pub fn checked_len(count: u64) -> Result<usize, String> {
    usize::try_from(count).map_err(|_| format!("count {count} exceeds usize"))
}

/// Bounded channel sized like the serve mailbox (R12 clean).
pub fn bounded() -> std::sync::mpsc::Receiver<u64> {
    let (tx, rx) = std::sync::mpsc::sync_channel::<u64>(64);
    drop(tx);
    rx
}
