//! Memory-bus traces and synthetic mobile workloads.
//!
//! The Planaria paper evaluates on memory-bus traces captured from a physical
//! mobile phone running ten commercial applications (Table 2). Those traces
//! are proprietary, so this crate provides a faithful *synthetic* substitute:
//! parameterised generators that reproduce the two access regularities the
//! paper identifies and measures —
//!
//! 1. **Intra-page footprint snapshots** (Observation 1, Figures 2 and 4):
//!    a stable group of blocks in a page is re-accessed together, in
//!    non-deterministic order, with long reuse distance between visits.
//! 2. **Inter-page pattern similarity** (Observation 2, Figure 5): pages
//!    close in address space often share similar footprints.
//!
//! plus the background traffic classes a system cache really sees (GPU
//! streaming, strided DMA, irregular pointer-chasing), which is what the
//! delta-based baselines BOP and SPP exploit or choke on.
//!
//! Entry points:
//!
//! * [`Trace`] — an in-memory trace with summary statistics.
//! * [`WorkloadSpec`] — a deterministic, seeded description of a workload as
//!   a weighted mix of [`synth`] components; [`WorkloadSpec::build`] renders
//!   it into a [`Trace`].
//! * [`apps`] — the ten per-application profiles standing in for Table 2.
//! * [`stream`] — pull-based [`stream::AccessStream`] chunked rendering
//!   and replay, for runs too large to materialize
//!   ([`WorkloadSpec::stream`], [`Trace::stream`]).
//! * [`io`] — the text and chunked binary `planaria-trace-v1` encodings
//!   of traces (see `TRACE_FORMAT.md`).
//!
//! # Examples
//!
//! ```
//! use planaria_trace::apps::{self, AppId};
//!
//! // A scaled-down Honor-of-Kings-like trace (deterministic for a seed).
//! let trace = apps::profile(AppId::HoK).scaled(10_000).build();
//! assert_eq!(trace.len(), trace.accesses().len());
//! assert!(trace.unique_pages() > 10);
//! ```

#![deny(clippy::disallowed_types)]

pub mod apps;
pub mod io;
pub mod stream;
pub mod synth;
mod trace;

pub use stream::{AccessStream, TraceStream, WorkloadStream};
pub use synth::{ComponentSpec, WeightedComponent, WorkloadSpec};
pub use trace::Trace;
