//! Set-associative system-cache (SC) simulator.
//!
//! The system cache is the memory-side, lowest-level cache of the paper's
//! mobile SoC: 4 MB, 16-way, 64 B blocks (Table 1), shared by every agent.
//! This crate models it with the bookkeeping a prefetching study needs:
//!
//! * every line carries a *prefetched* bit and the originating
//!   sub-prefetcher, so useful-prefetch, pollution and Figure 9 breakdown
//!   statistics fall out of the cache itself;
//! * pluggable replacement policies ([`ReplacementKind`]): LRU, FIFO,
//!   2-bit SRRIP and deterministic pseudo-random — used by the paper's
//!   "better replacement doesn't fix the SC" ablation;
//! * a bounded, deduplicating [`PrefetchQueue`].
//!
//! # Examples
//!
//! ```
//! use planaria_cache::{CacheConfig, SetAssocCache};
//! use planaria_common::{AccessKind, PhysAddr};
//!
//! let mut sc = SetAssocCache::new(CacheConfig::system_cache());
//! let addr = PhysAddr::new(0x4000);
//! assert!(!sc.access(addr, AccessKind::Read).is_hit()); // cold miss
//! sc.fill(addr, None);
//! assert!(sc.access(addr, AccessKind::Read).is_hit());
//! ```

#![deny(clippy::disallowed_types)]

mod cache;
mod config;
mod queue;
mod replacement;
mod stats;

pub use cache::{AccessResult, EvictedLine, SetAssocCache};
pub use config::{CacheConfig, ConfigError};
pub use queue::PrefetchQueue;
pub use replacement::ReplacementKind;
pub use stats::{CacheStats, DeviceCacheStats};
