//! R12 fixture: unbounded channel, `!Send` device state, and a hot-path
//! lock (clippy's `disallowed_types` in a hot crate, not R12). Which
//! checks fire depends on the crate the file lands in.

/// Queues work with no backpressure (fires in every first-party crate).
pub fn queue() -> std::sync::mpsc::Receiver<u64> {
    let (tx, rx) = std::sync::mpsc::channel();
    drop(tx);
    rx
}

/// Shares state without `Send` (fires in serve, the Send-state crate).
pub fn shared() -> std::rc::Rc<u32> {
    std::rc::Rc::new(7)
}

/// Serializes access behind a lock (clippy fires on it in hot crates).
pub fn guarded() -> std::sync::Mutex<u32> {
    std::sync::Mutex::new(0)
}
