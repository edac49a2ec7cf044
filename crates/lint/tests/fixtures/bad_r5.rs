//! Fixture: float accumulation in hash-map iteration order (fires only
//! R10, which absorbed the retired R5 — `HashMap` itself is legal in a
//! non-hot crate).

use std::collections::HashMap;

/// Sum depends on iteration order: float addition is not associative.
pub fn total(map: &HashMap<u32, f64>) -> f64 {
    map.values().sum::<f64>()
}

/// Same defect through a fold seeded with a float literal.
pub fn folded(map: &HashMap<u32, f64>) -> f64 {
    map.values().fold(0.0, |a, v| a + v)
}
