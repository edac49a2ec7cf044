//! Fixture: wall-clock and ambient-environment reads inside simulated
//! code (retired R2 and R9: fail clippy's `disallowed_methods`).

use std::time::Instant;

/// Reads the host clock — results now depend on machine speed.
pub fn stamp() -> u128 {
    Instant::now().elapsed().as_nanos()
}

/// Reads the calendar clock, argv, the environment and host paths.
pub fn ambient() -> usize {
    let _ = std::time::SystemTime::now();
    let paths = [std::env::current_dir().ok(), std::env::current_exe().ok()];
    std::env::args().count()
        + std::env::args_os().count()
        + std::env::vars().count()
        + std::env::vars_os().count()
        + usize::from(std::env::var("HOME").is_ok())
        + usize::from(std::env::var_os("HOME").is_some())
        + usize::from(std::env::temp_dir().exists())
        + paths.len()
}
