//! Fixture: concurrency hygiene (retired R12: the unbounded channel fails
//! `disallowed_methods`; `Rc`, `RefCell` and the lock fail
//! `disallowed_types` under a hot crate root's or `serve`'s deny).

/// Queues work with no backpressure.
pub fn queue() -> std::sync::mpsc::Receiver<u64> {
    let (tx, rx) = std::sync::mpsc::channel();
    drop(tx);
    rx
}

/// Shares state without `Send`.
pub fn shared() -> std::rc::Rc<u32> {
    std::rc::Rc::new(7)
}

/// Hides aliasing from the borrow checker and is not `Sync`.
pub fn cell() -> std::cell::RefCell<u32> {
    std::cell::RefCell::new(0)
}

/// Serializes access behind locks.
pub fn guarded() -> (std::sync::Mutex<u32>, std::sync::RwLock<u32>, std::sync::Condvar) {
    (std::sync::Mutex::new(0), std::sync::RwLock::new(0), std::sync::Condvar::new())
}
