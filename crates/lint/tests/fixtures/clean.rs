//! Fixture: a crate root using the sanctioned counterpart of every rule
//! — lints completely clean even as a hot crate.

use planaria_common::json;
use planaria_hash::FastHashMap;

/// Schema id, emitted through the shared json helpers below (R6-clean).
pub const SCHEMA: &str = "planaria-demo-v1";

/// Deterministic hashing and order-independent float accumulation: keys
/// are sorted before summing (R10-clean).
pub fn total(map: &FastHashMap<u32, f64>) -> f64 {
    let mut keys: Vec<u32> = map.keys().copied().collect();
    keys.sort_unstable();
    keys.iter().map(|k| *map.get(k).expect("key came from this map")).sum::<f64>()
}

/// `expect` with an invariant message is the sanctioned form.
pub fn head(xs: &[u32]) -> u32 {
    *xs.first().expect("caller guarantees a non-empty slice")
}

/// Escaping goes through the shared helper (R6-clean).
pub fn label(s: &str) -> String {
    json::escape(s)
}

#[cfg(test)]
mod tests {
    use std::collections::HashMap;

    // Tests may use std maps, wall clocks and unwrap freely.
    #[test]
    fn std_map_is_fine_here() {
        let mut m = HashMap::new();
        m.insert(1u32, 2u32);
        assert_eq!(m.get(&1).copied().unwrap(), 2);
        let _t = std::time::Instant::now();
    }
}
