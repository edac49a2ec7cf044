//! Request and command records.

use core::fmt;

use planaria_common::{Cycle, PhysAddr};

/// Opaque identifier of an enqueued request.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct RequestId(pub(crate) u64);

impl RequestId {
    /// Raw id value (monotonically increasing per controller).
    pub const fn as_u64(self) -> u64 {
        self.0
    }
}

impl fmt::Display for RequestId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "req#{}", self.0)
    }
}

/// Scheduling class of a request.
///
/// FR-FCFS breaks ties in favour of earlier classes, so demand misses are
/// never starved by prefetch or writeback traffic.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Priority {
    /// A demand miss fill — someone is stalled on it.
    Demand,
    /// A speculative prefetch fill.
    Prefetch,
    /// A dirty-line writeback.
    Writeback,
}

impl fmt::Display for Priority {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Priority::Demand => "demand",
            Priority::Prefetch => "prefetch",
            Priority::Writeback => "writeback",
        })
    }
}

/// A finished request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Completion {
    /// Request identifier returned by `try_enqueue`.
    pub id: RequestId,
    /// Block address of the request.
    pub addr: PhysAddr,
    /// Whether it was a write.
    pub is_write: bool,
    /// Scheduling class.
    pub priority: Priority,
    /// Cycle the request entered the queue.
    pub enqueued: Cycle,
    /// Cycle the data transfer finished.
    pub finish: Cycle,
}

impl Completion {
    /// Queue-to-data latency of the request.
    pub fn latency(&self) -> u64 {
        self.finish.since(self.enqueued)
    }
}

/// DRAM command kinds (recorded in the command log when enabled).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CommandKind {
    /// Row activate.
    Activate,
    /// Precharge.
    Precharge,
    /// Column read.
    Read,
    /// Column write.
    Write,
    /// All-bank refresh.
    Refresh,
}

impl fmt::Display for CommandKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            CommandKind::Activate => "ACT",
            CommandKind::Precharge => "PRE",
            CommandKind::Read => "RD",
            CommandKind::Write => "WR",
            CommandKind::Refresh => "REF",
        })
    }
}

/// One issued command (log entry).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Command {
    /// Issue cycle.
    pub cycle: Cycle,
    /// Command kind.
    pub kind: CommandKind,
    /// Target bank (0 for refresh).
    pub bank: usize,
    /// Target row (0 for precharge/refresh).
    pub row: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn priority_order_for_tie_breaks() {
        assert!(Priority::Demand < Priority::Prefetch);
        assert!(Priority::Prefetch < Priority::Writeback);
    }

    #[test]
    fn completion_latency() {
        let c = Completion {
            id: RequestId(1),
            addr: PhysAddr::new(0x40),
            is_write: false,
            priority: Priority::Demand,
            enqueued: Cycle::new(100),
            finish: Cycle::new(180),
        };
        assert_eq!(c.latency(), 80);
    }

    #[test]
    fn displays() {
        assert_eq!(RequestId(7).to_string(), "req#7");
        assert_eq!(Priority::Demand.to_string(), "demand");
        assert_eq!(CommandKind::Activate.to_string(), "ACT");
    }
}
