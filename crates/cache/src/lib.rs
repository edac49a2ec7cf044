//! Set-associative system-cache (SC) simulator.
//!
//! The system cache is the memory-side, lowest-level cache of the paper's
//! mobile SoC: 4 MB, 16-way, 64 B blocks (Table 1), shared by every agent.
//! This crate models it with the bookkeeping a prefetching study needs:
//!
//! * every line carries a *prefetched* bit, the originating sub-prefetcher
//!   and the device that filled it, so a useful first touch
//!   ([`AccessResult::Hit`]) and pollution ([`EvictedLine`]) are reported
//!   per line, attributed for the Figure 9 breakdown; the cache itself
//!   counts only demand hits, misses and fills ([`CacheStats`]);
//! * pluggable replacement policies ([`ReplacementKind`]): LRU, FIFO,
//!   2-bit SRRIP, bimodal BRRIP, set-dueling DRRIP and deterministic
//!   pseudo-random — used by the paper's "better replacement doesn't fix
//!   the SC" ablation.
//!
//! # Examples
//!
//! ```
//! use planaria_cache::{AccessResult, CacheConfig, SetAssocCache};
//! use planaria_common::{AccessKind, DeviceId, PhysAddr, PrefetchOrigin};
//!
//! let mut sc = SetAssocCache::new(CacheConfig::system_cache());
//! let (addr, gpu) = (PhysAddr::new(0x4000), DeviceId::Gpu);
//! assert!(!sc.access_by(addr, AccessKind::Read, gpu).is_hit()); // cold miss
//! sc.fill_by(addr, Some(PrefetchOrigin::Slp), gpu);
//! let first_touch = sc.access_by(addr, AccessKind::Read, gpu);
//! let useful = AccessResult::Hit { first_use_of_prefetch: Some(PrefetchOrigin::Slp) };
//! assert_eq!(first_touch, useful);
//! ```

#![deny(clippy::disallowed_types)]

mod cache;
mod config;
mod replacement;
mod stats;

pub use cache::{AccessResult, EvictedLine, SetAssocCache};
pub use config::{CacheConfig, ConfigError};
pub use replacement::ReplacementKind;
pub use stats::{CacheStats, DeviceCacheStats};
