//! Sharded long-running prefetch service.
//!
//! Everything below `planaria-serve` runs *batch* experiments: build or
//! stream a trace, drive one [`MemorySystem`](planaria_sim::MemorySystem)
//! to completion, report. This crate adds the *service* shape the ROADMAP
//! asks for: each simulated phone — system cache, Planaria prefetcher and
//! DRAM model — becomes a compact, snapshottable state machine
//! ([`ServedDevice`]), and a [`Service`] multiplexes very many of them
//! (100k–1M+) over a worker pool.
//!
//! The moving parts, in data-flow order:
//!
//! * **Ingress** — every device owns a seeded
//!   [`WorkloadSpec::stream()`](planaria_trace::WorkloadSpec) of its own
//!   demand traffic and pulls from it only inside [`ServedDevice::pump`]:
//!   at most one chunk of [`DeviceSpec::mailbox`] accesses per turn, and
//!   only when the driver asks for input.
//! * **Simulation** — each pull feeds the resumable
//!   [`ClosedLoopDriver`](planaria_sim::ClosedLoopDriver) exactly at its
//!   `NeedInput` boundaries, through the same
//!   [`refill`](planaria_sim::ClosedLoopDriver::refill) the batch
//!   [`TrafficModel`](planaria_sim::TrafficModel) uses, so a served
//!   device is bit-identical to a batch run over the same accesses
//!   (pinned by `tests/serve.rs`).
//! * **Sharding** — devices are partitioned by [`shard_of`] over their
//!   home page; shards are independent, so any worker count produces
//!   identical results. Scheduling inside a shard is round-based and
//!   driven purely by virtual time — no wall clock exists anywhere in
//!   this crate (invariant R2; `serve_load` measures wall-clock latency
//!   from the *outside* through the [`ShardObserver`] hooks).
//! * **Snapshot / restore** — [`ServedDevice::snapshot`] serialises a
//!   quiesced device to the versioned `planaria-serve-snapshot-v1` JSON
//!   document and [`ServedDevice::restore`] rebuilds it with a
//!   bit-identical continuation, so devices can migrate between shards
//!   or hosts. `SERVING.md` is the normative spec for all of the above.
//!
//! # Examples
//!
//! Serve two devices and compare with the batch closed loop:
//!
//! ```
//! use planaria_serve::{DeviceSpec, ServeConfig, ServedDevice, Service};
//! use planaria_trace::apps::AppId;
//!
//! let devices: Vec<ServedDevice> = (0..2)
//!     .map(|id| ServedDevice::from_spec(DeviceSpec::new(id, AppId::HoK).scaled(1_000)))
//!     .collect();
//! let report = Service::new(ServeConfig::default()).run(devices);
//! assert_eq!(report.devices(), 2);
//! assert_eq!(report.total_accesses(), 2_000);
//! ```

#![deny(clippy::disallowed_types)]

mod device;
mod service;
mod shard;
mod snapshot;

pub use device::{DevicePump, DeviceReport, DeviceSpec, ServedDevice};
pub use service::{NullObserver, ServeConfig, ServeReport, Service, ShardObserver, ShardSummary};
pub use shard::{mix64, shard_of};
pub use snapshot::SNAPSHOT_SCHEMA;
