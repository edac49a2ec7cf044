//! Trace-driven full-memory-system simulator for the Planaria study.
//!
//! This crate glues the substrates together into the paper's evaluation
//! pipeline ("physical traces + trace-driven simulation"):
//!
//! ```text
//! trace ──▶ system cache ──miss──▶ MSHRs ──▶ LPDDR4 controller
//!             │   ▲                              │
//!             ▼   └── fills (demand/prefetch) ◀──┘
//!          prefetcher (learning on all accesses, issuing on misses)
//!             │
//!             ▼
//!        prefetch queue ──▶ LPDDR4 controller (low priority)
//! ```
//!
//! * [`MemorySystem`] — the event loop: demand lookups, miss handling with
//!   in-flight merging and late-prefetch upgrades, prefetch filtering
//!   (cache / in-flight / queue dedup), dirty writebacks, and final drain.
//!   Every open-loop run enters through [`MemorySystem::run_stream`] or
//!   [`MemorySystem::run_stream_telemetry`]; closed-loop runs through
//!   [`TrafficModel::run_stream_telemetry`]. A materialized trace passes
//!   its [`Trace::stream`](planaria_trace::Trace::stream) adapter.
//! * [`SystemConfig`] — Table 1 defaults (4 MB 16-way SC, 4-channel
//!   LPDDR4, queue depth 64).
//! * [`SimResult`] — hit rate, AMAT, traffic split, energy/power, prefetch
//!   accuracy/coverage and the SLP/TLP usefulness split (Figure 9).
//! * [`ipc`] — the analytic AMAT→IPC model documented in DESIGN.md.
//! * [`experiment`] — the prefetcher catalogue ([`PrefetcherKind`]) and
//!   one-call runners for single (application × prefetcher) cells.
//! * [`runner`] — the parallel engine every figure harness runs its grid
//!   on.
//!
//! Observability: set [`SystemConfig::telemetry`] (or pass `--telemetry`
//! to a figure harness) to capture decision traces and per-prefetch
//! lifecycle events; [`MemorySystem::run_stream_telemetry`] and
//! [`Cell::telemetry`] surface the merged [`TelemetryReport`]. See the
//! `planaria_telemetry` crate docs for the event taxonomy.
//!
//! # Examples
//!
//! ```
//! use planaria_sim::experiment::{run_app, PrefetcherKind};
//! use planaria_trace::apps::AppId;
//!
//! // A fast, scaled-down Planaria run on the HoK-like workload.
//! let result = run_app(AppId::HoK, PrefetcherKind::Planaria, 20_000);
//! assert!(result.hit_rate > 0.0 && result.hit_rate < 1.0);
//! assert!(result.amat_cycles > 0.0);
//! ```

#![deny(clippy::disallowed_types)]

pub mod experiment;
pub mod ipc;
mod metrics;
pub mod runner;
mod system;
pub mod table;
mod traffic;

pub use experiment::PrefetcherKind;
pub use metrics::{DeviceStat, SimResult, TrafficBreakdown};
pub use runner::{Cell, Job, ProgressEvent, RunReport, Runner};
pub use system::{GovernorConfig, MemorySystem, SystemConfig, STREAM_CHUNK};
pub use traffic::{
    ClosedLoopDriver, ClosedLoopReport, DeviceOutcome, Pump, TrafficConfig, TrafficModel,
};

// Observability layer: re-exported so simulator users can configure
// capture and consume reports without naming the telemetry crate.
pub use planaria_telemetry::{
    Event, EventData, EventKind, Telemetry, TelemetryConfig, TelemetryReport,
};
