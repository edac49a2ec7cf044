//! Fixture: a narrowing `as` cast on an externally declared length
//! (retired R11: fails `clippy::cast_possible_truncation` where denied).

/// Truncates on 32-bit targets instead of failing.
pub fn declared_len(count: u64) -> usize {
    count as usize
}

/// Widening cast: `u32 → u64` cannot lose bits, so clippy stays silent.
pub fn widen(v: u32) -> u64 {
    v as u64
}
