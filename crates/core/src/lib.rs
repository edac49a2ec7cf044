//! The Planaria composite prefetcher.
//!
//! Planaria is a memory-side, **PC-free** hardware prefetcher for the mobile
//! system cache. It is built from:
//!
//! * [`Slp`] — the *Self-Learning directed Prefetcher* (intra-page): learns
//!   each page's **footprint snapshot** through a Filter Table →
//!   Accumulation Table → Pattern History Table pipeline keyed purely by
//!   page number, and on a demand miss replays the snapshot as prefetches.
//! * [`Tlp`] — the *Transfer-Learning directed Prefetcher* (inter-page):
//!   keeps a 128-entry Recent Page Table with pairwise neighbour ("Ref")
//!   bits, and lets a page without history borrow the footprint of its most
//!   similar neighbour within a page-number distance threshold.
//! * [`Planaria`] — the coordinator implementing the paper's key insight:
//!   **decoupled phases** ("parallel training, serial issuing"). Both
//!   sub-prefetchers' *learning* phases observe every access; only one
//!   sub-prefetcher *issues* per trigger, SLP preferentially and TLP as the
//!   fallback when SLP has no metadata.
//!
//! Everything is sized per DRAM channel: the paper's SoC statically slices a
//! 4 KB page into four 16-block segments, one per channel, so per-channel
//! tables hold 16-bit bitmaps. [`Planaria`] instantiates one coordinator per
//! channel and routes accesses by [`planaria_common::PhysAddr::channel`].
//!
//! # Examples
//!
//! ```
//! use planaria_core::{Planaria, PlanariaConfig, Prefetcher};
//! use planaria_common::{Cycle, MemAccess, PhysAddr};
//!
//! let mut pf = Planaria::new(PlanariaConfig::default());
//! let mut out = Vec::new();
//! let access = MemAccess::read(PhysAddr::new(0x4000), Cycle::new(10));
//! pf.on_access(&access, /* sc hit: */ false, &mut out);
//! // A cold page with no history produces no prefetches yet.
//! assert!(out.is_empty());
//! assert!(pf.storage_bits() > 0);
//! ```

#![deny(clippy::disallowed_types)]

mod planaria;
mod recency;
pub mod slp;
pub mod storage;
mod tlp;
mod traits;

pub use planaria::{Planaria, PlanariaConfig};
pub use slp::{PatternMerge, Slp, SlpConfig};
pub use tlp::{Tlp, TlpConfig};
pub use traits::{NullPrefetcher, Prefetcher};

// Decision tracing: every instrumented prefetcher speaks these types (see
// the `planaria_telemetry` crate docs for the event taxonomy).
pub use planaria_telemetry::{Telemetry, TelemetryConfig, TelemetryReport};
