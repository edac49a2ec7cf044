//! Physical address arithmetic for the 4 KB-page / 64 B-block geometry.

use core::fmt;
use core::ops::{Add, AddAssign, Sub};

use crate::{BLOCKS_PER_PAGE, BLOCKS_PER_SEGMENT, BLOCK_SIZE, NUM_CHANNELS, PAGE_SIZE};

/// A physical byte address on the memory bus.
///
/// All simulator components exchange `PhysAddr`s; helpers derive the page
/// number, block index and channel mapping from it.
///
/// # Examples
///
/// ```
/// use planaria_common::PhysAddr;
///
/// let a = PhysAddr::new(0x2000 + 3 * 64 + 7);
/// assert_eq!(a.page().as_u64(), 2);
/// assert_eq!(a.block_index().as_usize(), 3);
/// assert_eq!(a.block_base().as_u64(), 0x2000 + 3 * 64);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct PhysAddr(u64);

impl PhysAddr {
    /// Creates a physical address from a raw byte address.
    pub const fn new(raw: u64) -> Self {
        Self(raw)
    }

    /// Builds the address of a specific block within a page.
    ///
    /// # Panics
    ///
    /// Panics if `block.as_usize() >= BLOCKS_PER_PAGE` cannot occur because
    /// [`BlockIndex`] is validated on construction.
    pub const fn from_parts(page: PageNum, block: BlockIndex) -> Self {
        Self(page.0 * PAGE_SIZE + block.0 as u64 * BLOCK_SIZE)
    }

    /// Returns the raw byte address.
    pub const fn as_u64(self) -> u64 {
        self.0
    }

    /// Returns the page this address falls in.
    pub const fn page(self) -> PageNum {
        PageNum(self.0 / PAGE_SIZE)
    }

    /// Returns the index of the 64 B block within its page (0..64).
    pub const fn block_index(self) -> BlockIndex {
        BlockIndex(((self.0 % PAGE_SIZE) / BLOCK_SIZE) as u8)
    }

    /// Returns the address aligned down to its 64 B block boundary.
    pub const fn block_base(self) -> PhysAddr {
        Self(self.0 & !(BLOCK_SIZE - 1))
    }

    /// Returns the global block number (address / 64).
    pub const fn block_number(self) -> u64 {
        self.0 / BLOCK_SIZE
    }

    /// Returns the DRAM channel this address is statically mapped to.
    ///
    /// Per the paper, each 4 KB page is split into four 16-block segments
    /// and segment *i* always lives on channel *i*.
    pub const fn channel(self) -> ChannelId {
        ChannelId(self.block_index().segment().0)
    }
}

impl fmt::Display for PhysAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:#012x}", self.0)
    }
}

impl fmt::LowerHex for PhysAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::LowerHex::fmt(&self.0, f)
    }
}

impl From<u64> for PhysAddr {
    fn from(raw: u64) -> Self {
        Self(raw)
    }
}

impl From<PhysAddr> for u64 {
    fn from(addr: PhysAddr) -> u64 {
        addr.0
    }
}

/// A 4 KB physical page number.
///
/// The page number is the *only* signature Planaria uses to index its
/// pattern tables (no PC is available at the system-cache level).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct PageNum(u64);

impl PageNum {
    /// Creates a page number.
    pub const fn new(n: u64) -> Self {
        Self(n)
    }

    /// Returns the raw page number.
    pub const fn as_u64(self) -> u64 {
        self.0
    }

    /// Returns the byte address of the first block in the page.
    pub const fn base_addr(self) -> PhysAddr {
        PhysAddr(self.0 * PAGE_SIZE)
    }

    /// Absolute page-number distance to another page.
    ///
    /// TLP treats two pages as potential "learnable neighbours" when this
    /// distance is at most the configured distance threshold.
    pub const fn distance(self, other: PageNum) -> u64 {
        self.0.abs_diff(other.0)
    }

    /// Returns the page `delta` pages away, saturating at zero.
    pub const fn offset(self, delta: i64) -> PageNum {
        PageNum(self.0.saturating_add_signed(delta))
    }
}

impl fmt::Display for PageNum {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "page {:#x}", self.0)
    }
}

impl From<u64> for PageNum {
    fn from(n: u64) -> Self {
        Self(n)
    }
}

impl From<PageNum> for u64 {
    fn from(p: PageNum) -> u64 {
        p.0
    }
}

/// The index of a 64 B block within its 4 KB page (0..=63).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct BlockIndex(u8);

impl BlockIndex {
    /// Creates a block index.
    ///
    /// # Panics
    ///
    /// Panics if `idx >= BLOCKS_PER_PAGE` (64).
    pub fn new(idx: usize) -> Self {
        assert!(idx < BLOCKS_PER_PAGE, "block index {idx} out of range 0..{BLOCKS_PER_PAGE}");
        Self(idx as u8)
    }

    /// Returns the index as `usize`.
    pub const fn as_usize(self) -> usize {
        self.0 as usize
    }

    /// Returns the 16-block segment this block falls in (0..=3).
    pub const fn segment(self) -> SegmentIndex {
        SegmentIndex((self.0 as usize / BLOCKS_PER_SEGMENT) as u8)
    }

    /// Returns the block's position within its segment (0..=15).
    pub const fn index_in_segment(self) -> usize {
        self.0 as usize % BLOCKS_PER_SEGMENT
    }
}

impl fmt::Display for BlockIndex {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "block {}", self.0)
    }
}

/// A 16-block segment of a page (0..=3); segment *i* maps to channel *i*.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SegmentIndex(u8);

impl SegmentIndex {
    /// Creates a segment index.
    ///
    /// # Panics
    ///
    /// Panics if `idx >= NUM_CHANNELS` (4).
    pub fn new(idx: usize) -> Self {
        assert!(idx < NUM_CHANNELS, "segment index {idx} out of range 0..{NUM_CHANNELS}");
        Self(idx as u8)
    }

    /// Returns the index as `usize`.
    pub const fn as_usize(self) -> usize {
        self.0 as usize
    }

    /// Builds the page-level block index from this segment and a within-
    /// segment position.
    ///
    /// # Panics
    ///
    /// Panics if `pos >= BLOCKS_PER_SEGMENT` (16).
    pub fn block(self, pos: usize) -> BlockIndex {
        assert!(pos < BLOCKS_PER_SEGMENT, "segment position {pos} out of range");
        BlockIndex(self.0 * BLOCKS_PER_SEGMENT as u8 + pos as u8)
    }
}

impl fmt::Display for SegmentIndex {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "segment {}", self.0)
    }
}

/// A DRAM channel identifier (0..=3 in the baseline system).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct ChannelId(u8);

impl ChannelId {
    /// Creates a channel id.
    ///
    /// # Panics
    ///
    /// Panics if `idx >= NUM_CHANNELS`.
    pub fn new(idx: usize) -> Self {
        assert!(idx < NUM_CHANNELS, "channel {idx} out of range 0..{NUM_CHANNELS}");
        Self(idx as u8)
    }

    /// Returns the channel index as `usize`.
    pub const fn as_usize(self) -> usize {
        self.0 as usize
    }

    /// Iterates over all channels of the baseline system.
    pub fn all() -> impl Iterator<Item = ChannelId> {
        (0..NUM_CHANNELS as u8).map(ChannelId)
    }
}

impl fmt::Display for ChannelId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ch{}", self.0)
    }
}

/// A point in simulated time, measured in memory-controller cycles.
///
/// `Cycle` supports saturating-free plain arithmetic because the simulator
/// never runs long enough to overflow `u64` cycles.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Cycle(u64);

impl Cycle {
    /// Time zero.
    pub const ZERO: Cycle = Cycle(0);

    /// Creates a cycle timestamp.
    pub const fn new(c: u64) -> Self {
        Self(c)
    }

    /// Returns the raw cycle count.
    pub const fn as_u64(self) -> u64 {
        self.0
    }

    /// Cycles elapsed since `earlier`, saturating at zero if `earlier` is
    /// in the future.
    pub const fn since(self, earlier: Cycle) -> u64 {
        self.0.saturating_sub(earlier.0)
    }

    /// Returns the later of two timestamps.
    pub fn max(self, other: Cycle) -> Cycle {
        Cycle(self.0.max(other.0))
    }
}

impl Add<u64> for Cycle {
    type Output = Cycle;

    fn add(self, rhs: u64) -> Cycle {
        Cycle(self.0 + rhs)
    }
}

impl AddAssign<u64> for Cycle {
    fn add_assign(&mut self, rhs: u64) {
        self.0 += rhs;
    }
}

impl Sub<Cycle> for Cycle {
    type Output = u64;

    fn sub(self, rhs: Cycle) -> u64 {
        self.0.saturating_sub(rhs.0)
    }
}

impl fmt::Display for Cycle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "cycle {}", self.0)
    }
}

impl From<u64> for Cycle {
    fn from(c: u64) -> Self {
        Self(c)
    }
}

impl From<Cycle> for u64 {
    fn from(c: Cycle) -> u64 {
        c.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn addr_round_trip_through_parts() {
        for page in [0u64, 1, 7, 1 << 20] {
            for blk in [0usize, 1, 15, 16, 63] {
                let a = PhysAddr::from_parts(PageNum::new(page), BlockIndex::new(blk));
                assert_eq!(a.page(), PageNum::new(page));
                assert_eq!(a.block_index(), BlockIndex::new(blk));
            }
        }
    }

    #[test]
    fn block_base_aligns_down() {
        let a = PhysAddr::new(0x1234_5678);
        assert_eq!(a.block_base().as_u64() % BLOCK_SIZE, 0);
        assert!(a.as_u64() - a.block_base().as_u64() < BLOCK_SIZE);
    }

    #[test]
    fn segment_mapping_matches_static_channel_slicing() {
        // Blocks 0..16 -> segment/channel 0, 16..32 -> 1, etc.
        assert_eq!(BlockIndex::new(0).segment().as_usize(), 0);
        assert_eq!(BlockIndex::new(15).segment().as_usize(), 0);
        assert_eq!(BlockIndex::new(16).segment().as_usize(), 1);
        assert_eq!(BlockIndex::new(47).segment().as_usize(), 2);
        assert_eq!(BlockIndex::new(63).segment().as_usize(), 3);
        assert_eq!(BlockIndex::new(17).index_in_segment(), 1);
    }

    #[test]
    fn channel_follows_segment() {
        for blk in 0..BLOCKS_PER_PAGE {
            let a = PhysAddr::from_parts(PageNum::new(42), BlockIndex::new(blk));
            assert_eq!(a.channel().as_usize(), blk / BLOCKS_PER_SEGMENT);
        }
    }

    #[test]
    fn segment_block_round_trip() {
        for seg in 0..NUM_CHANNELS {
            for pos in 0..BLOCKS_PER_SEGMENT {
                let b = SegmentIndex::new(seg).block(pos);
                assert_eq!(b.segment().as_usize(), seg);
                assert_eq!(b.index_in_segment(), pos);
            }
        }
    }

    #[test]
    fn page_distance_is_symmetric() {
        let a = PageNum::new(100);
        let b = PageNum::new(164);
        assert_eq!(a.distance(b), 64);
        assert_eq!(b.distance(a), 64);
        assert_eq!(a.distance(a), 0);
    }

    #[test]
    fn page_offset_saturates_at_zero() {
        assert_eq!(PageNum::new(3).offset(-5), PageNum::new(0));
        assert_eq!(PageNum::new(3).offset(5), PageNum::new(8));
    }

    #[test]
    fn cycle_arithmetic() {
        let t0 = Cycle::new(100);
        let t1 = t0 + 50;
        assert_eq!(t1.since(t0), 50);
        assert_eq!(t0.since(t1), 0);
        assert_eq!(t1 - t0, 50);
        assert_eq!(t0.max(t1), t1);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn block_index_rejects_out_of_range() {
        let _ = BlockIndex::new(64);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn channel_rejects_out_of_range() {
        let _ = ChannelId::new(4);
    }

    #[test]
    fn display_formats_are_nonempty() {
        assert!(!format!("{}", PhysAddr::new(0xabc)).is_empty());
        assert!(!format!("{}", PageNum::new(1)).is_empty());
        assert!(!format!("{}", BlockIndex::new(2)).is_empty());
        assert!(!format!("{}", SegmentIndex::new(3)).is_empty());
        assert!(!format!("{}", ChannelId::new(1)).is_empty());
        assert!(!format!("{}", Cycle::new(9)).is_empty());
    }
}
