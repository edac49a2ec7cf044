//! Shared primitives for the Planaria memory-system simulator.
//!
//! This crate defines the vocabulary types used by every other crate in the
//! workspace:
//!
//! * [`addr`] — physical addresses, page numbers and block indices for the
//!   4 KB-page / 64 B-block geometry used throughout the paper.
//! * [`bitmap`] — fixed-width footprint bitmaps ([`Bitmap16`], [`Bitmap64`])
//!   that record which blocks of a page (or page segment) have been touched.
//! * [`access`] — demand-access records ([`MemAccess`]) carrying the fields a
//!   memory-side prefetcher can observe: physical address, read/write kind,
//!   originating device and arrival cycle. There is deliberately **no program
//!   counter**: the system cache sits on the memory side where a PC is
//!   unavailable, which is the core constraint Planaria is designed around.
//! * [`prefetch`] — prefetch request records produced by prefetchers.
//! * [`json`] — the shared JSON escape/writer/parser helpers every emitter
//!   in the workspace routes through (there is no `serde_json`; see the
//!   module docs and `planaria-lint` rule R6).
//!
//! # Geometry
//!
//! The paper's mobile SoC uses 4 KB pages, 64 B cache blocks (so 64 blocks
//! per page) and four DRAM channels. A page is statically partitioned into
//! four 16-block segments, one per channel, so the per-channel prefetcher
//! hardware tracks 16-bit footprint bitmaps.
//!
//! # Examples
//!
//! ```
//! use planaria_common::{PhysAddr, BLOCK_SIZE, BLOCKS_PER_PAGE};
//!
//! let addr = PhysAddr::new(0x1234_5678);
//! assert_eq!(addr.page().base_addr().as_u64(), 0x1234_5000);
//! assert_eq!(addr.block_index().as_usize(), (0x678 / BLOCK_SIZE as usize));
//! assert!(addr.block_index().as_usize() < BLOCKS_PER_PAGE);
//! ```

pub mod access;
pub mod addr;
pub mod bitmap;
pub mod json;
pub mod prefetch;

pub use access::{AccessKind, DeviceId, MemAccess};
pub use addr::{BlockIndex, ChannelId, Cycle, PageNum, PhysAddr, SegmentIndex};
pub use bitmap::{Bitmap16, Bitmap64};
pub use prefetch::{PrefetchOrigin, PrefetchRequest};

/// Size of a memory page in bytes (4 KB, as in the paper's mobile SoC).
pub const PAGE_SIZE: u64 = 4096;

/// Size of a cache block in bytes (64 B system-cache line).
pub const BLOCK_SIZE: u64 = 64;

/// Number of cache blocks in a page (`PAGE_SIZE / BLOCK_SIZE` = 64).
pub const BLOCKS_PER_PAGE: usize = (PAGE_SIZE / BLOCK_SIZE) as usize;

/// Number of DRAM channels in the baseline system (Table 1).
pub const NUM_CHANNELS: usize = 4;

/// Number of blocks in a page segment statically mapped to one channel.
pub const BLOCKS_PER_SEGMENT: usize = BLOCKS_PER_PAGE / NUM_CHANNELS;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geometry_constants_are_consistent() {
        assert_eq!(PAGE_SIZE, 4096);
        assert_eq!(BLOCK_SIZE, 64);
        assert_eq!(BLOCKS_PER_PAGE, 64);
        assert_eq!(NUM_CHANNELS, 4);
        assert_eq!(BLOCKS_PER_SEGMENT, 16);
        assert_eq!(BLOCKS_PER_SEGMENT * NUM_CHANNELS, BLOCKS_PER_PAGE);
    }
}
