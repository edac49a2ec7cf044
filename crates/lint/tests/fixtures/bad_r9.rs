//! R9 fixture: `entry` never names a clock, but reaches one through
//! `stamp`. Clippy's `disallowed_methods` sees only `stamp`; the
//! call-graph pass must taint `entry` too.

use std::time::Instant;

/// Direct wall-clock read — this site belongs to clippy, not R9.
pub fn stamp() -> Instant {
    Instant::now()
}

/// Calls `stamp` and is therefore transitively wall-clock tainted.
pub fn entry() -> Instant {
    stamp()
}
