//! Decision tracing and structured telemetry for the Planaria pipeline.
//!
//! The paper evaluates Planaria through end-of-run aggregates (hit rate,
//! AMAT, traffic); this crate adds the *per-event* visibility those
//! aggregates hide — why the coordinator chose SLP over TLP for a trigger,
//! which neighbour donated a pattern at what similarity score, and what
//! happened to each prefetch after it was issued. It maps onto the paper as
//! follows:
//!
//! * **SLP events** (§SLP: Filter Table → Accumulation Table → Pattern
//!   History Table) — allocations, promotions, snapshot captures and
//!   capacity spills of the FT/AT/PHT learning pipeline.
//! * **TLP events** (§TLP: Recent Page Table) — RPT allocations, lookups
//!   with the best neighbour-similarity score, and pattern-transfer
//!   accept/reject decisions with a typed reject reason.
//! * **Coordinator events** ("parallel training, serial issuing") — which
//!   sub-prefetcher won the issue slot for each trigger, and why.
//! * **Prefetch lifecycle events** — issued → filled → used /
//!   evicted-unused / late, each tagged with the originating
//!   sub-prefetcher, so coverage, accuracy and timeliness are attributable
//!   per sub-prefetcher rather than only in total.
//!
//! # Architecture
//!
//! Instrumented components own a [`Telemetry`] handle. The handle always
//! feeds a [`CountingSink`] (a count per [`EventKind`], plus each
//! [`LIFECYCLE`] stage counted per origin and per device — a handful of
//! integer increments per decision, cheap enough to leave on
//! unconditionally) and, only when [`TelemetryConfig::events`] is set,
//! additionally materialises full [`Event`] records into a bounded
//! [`RingBufferSink`]. The memory system's own sink is the one ledger of
//! prefetch outcomes: the simulator's useful, late, polluting and
//! filtered counts, accuracy and coverage are read from it.
//!
//! At the end of a run the handle condenses into a [`TelemetryReport`] —
//! counters plus any captured events — which merges deterministically
//! across experiment cells, answers [`TelemetryReport::count`],
//! [`TelemetryReport::by_origin`] and [`TelemetryReport::by_device`], and
//! exports as JSONL or CSV.
//!
//! # Examples
//!
//! ```
//! use planaria_telemetry::{EventKind, Telemetry, TelemetryConfig};
//! use planaria_common::{Cycle, DeviceId, PrefetchOrigin};
//!
//! // Event capture on (counting alone is always on).
//! let mut tel = Telemetry::from_config(&TelemetryConfig::events());
//! let (issued, slp, gpu) = (EventKind::PrefetchIssued, PrefetchOrigin::Slp, DeviceId::Gpu);
//! tel.lifecycle_for(issued, slp, gpu, 0x4000, Cycle::new(10));
//! let report = tel.report();
//! assert_eq!(report.count(issued), 1);
//! assert_eq!(report.by_origin(issued, slp), 1);
//! assert_eq!(report.by_device(issued, gpu), 1);
//! assert_eq!(report.events.len(), 1);
//! ```

mod event;
mod report;
mod sink;

pub use event::{ArbitrationWinner, Event, EventData, EventKind, TransferReject, LIFECYCLE};
pub use report::TelemetryReport;
pub use sink::{CountingSink, RingBufferSink, Telemetry, TelemetryConfig};
