//! Cycle-level LPDDR4 memory-controller model.
//!
//! The paper evaluates Planaria with a modified **DRAMSim2** configured as a
//! 4-channel LPDDR4 part (Table 1). This crate re-implements that substrate:
//!
//! * per-bank state machines with the full Table 1 timing set
//!   (`tRAS`/`tRCD`/`tRRD`/`tRC`/`tRP`/`tCCD`/`tRTP`/`tWTR`/`tWR`/`tRTRS`/
//!   `tRFC`/`tFAW`/`tCKE`/`tXP`/`tCMD`, burst length 16);
//! * one controller per channel with a bounded request queue (depth 64) and
//!   **FR-FCFS** scheduling (row hits first, then oldest; demand traffic
//!   ahead of prefetch traffic on ties);
//! * periodic all-bank refresh;
//! * a DRAMSim2-style activity-based energy model ([`power`]), which is what
//!   turns prefetch *traffic* into the paper's Figure 10 *power* numbers.
//!
//! The controller is event-jumping rather than tick-stepped: between
//! commands it advances directly to the next cycle at which any command can
//! legally issue, so simulating tens of millions of requests stays cheap
//! while every inter-command constraint is still enforced (and checked by
//! property tests over the recorded command log).
//!
//! # Examples
//!
//! ```
//! use planaria_dram::{DramConfig, MemoryController, Priority};
//! use planaria_common::{Cycle, PhysAddr};
//!
//! let mut mc = MemoryController::new(DramConfig::lpddr4());
//! let id = mc
//!     .try_enqueue(PhysAddr::new(0x4000), false, Priority::Demand, Cycle::new(0))
//!     .expect("queue has room");
//! // Hot-path callers reuse one completion buffer across calls; the
//! // `_collect` variants allocate a fresh one for convenience.
//! let done = mc.drain_collect();
//! assert_eq!(done.len(), 1);
//! assert_eq!(done[0].id, id);
//! assert!(done[0].finish.as_u64() > 0);
//! ```

#![deny(clippy::disallowed_types)]

mod bank;
mod channel;
mod config;
mod controller;
pub mod power;
mod request;

pub use config::{AddressMap, DramConfig, DramConfigError, PagePolicy, SchedulerKind, Timing};
pub use controller::{MemoryController, QueueFull};
pub use power::{DramStats, EnergyParams};
pub use request::{Command, CommandKind, Completion, Priority, RequestId};
