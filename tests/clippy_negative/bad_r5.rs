//! Fixture: a float sum in hash-map order (retired R5, folded into R10:
//! fails the `disallowed-methods` ban on `HashMap::values`).

use std::collections::HashMap;

/// Sum depends on iteration order: float addition is not associative.
pub fn total(map: &HashMap<u32, f64>) -> f64 {
    map.values().sum::<f64>()
}
