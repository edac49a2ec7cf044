//! DRAM configuration: geometry, timing and address mapping.

use planaria_common::{PhysAddr, BLOCKS_PER_SEGMENT, NUM_CHANNELS};

/// Inter-command timing constraints, in memory-controller cycles.
///
/// The values of [`Timing::lpddr4`] are exactly the paper's Table 1 set;
/// `tCL`/`tCWL` (CAS latencies) are not listed in the table and use standard
/// LPDDR4-3200 values.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[allow(missing_docs)] // the fields are the standard JEDEC parameter names
pub struct Timing {
    pub t_ras: u64,
    pub t_rcd: u64,
    pub t_rrd: u64,
    pub t_rc: u64,
    pub t_rp: u64,
    pub t_ccd: u64,
    pub t_rtp: u64,
    pub t_wtr: u64,
    pub t_wr: u64,
    pub t_rtrs: u64,
    pub t_rfc: u64,
    pub t_faw: u64,
    pub t_cke: u64,
    pub t_xp: u64,
    pub t_cmd: u64,
    pub t_cl: u64,
    pub t_cwl: u64,
    /// Burst length in beats; a 64 B block moves in `burst_length / 2`
    /// clock cycles on the DDR bus.
    pub burst_length: u64,
    /// All-bank refresh interval.
    pub t_refi: u64,
}

impl Timing {
    /// Table 1's LPDDR4 timing set.
    pub const fn lpddr4() -> Self {
        Self {
            t_ras: 51,
            t_rcd: 16,
            t_rrd: 12,
            t_rc: 76,
            t_rp: 16,
            t_ccd: 8,
            t_rtp: 9,
            t_wtr: 12,
            t_wr: 22,
            t_rtrs: 2,
            t_rfc: 216,
            t_faw: 48,
            t_cke: 9,
            t_xp: 9,
            t_cmd: 1,
            t_cl: 28,
            t_cwl: 14,
            burst_length: 16,
            t_refi: 6240,
        }
    }

    /// Data-transfer time of one 64 B burst on the DDR bus.
    pub const fn t_burst(&self) -> u64 {
        self.burst_length / 2
    }
}

impl Default for Timing {
    fn default() -> Self {
        Self::lpddr4()
    }
}

/// Maps a channel-local block to (bank, row, column-block).
///
/// The channel itself comes from the static page-segment slicing in
/// [`planaria_common::PhysAddr::channel`]: each 4 KB page contributes one
/// 16-block (1 KB) segment to each channel. Within a channel, consecutive
/// segments fill a 2 KB row (two pages' worth), and rows interleave across
/// banks — so a footprint prefetch burst within one page enjoys row-buffer
/// locality, which is where Planaria's power advantage comes from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AddressMap {
    /// Banks per channel (Table 1: 8).
    pub banks: usize,
    /// 64 B blocks per row (2 KB rows → 32 blocks).
    pub blocks_per_row: u64,
}

impl AddressMap {
    /// The Table 1 geometry.
    pub const fn lpddr4() -> Self {
        Self { banks: 8, blocks_per_row: 32 }
    }

    /// Decomposes an address into `(bank, row)` within its channel.
    pub fn locate(&self, addr: PhysAddr) -> (usize, u64) {
        // Channel-local block number: each page contributes
        // BLOCKS_PER_SEGMENT consecutive blocks to this channel.
        let page = addr.page().as_u64();
        let local = page * BLOCKS_PER_SEGMENT as u64 + addr.block_index().index_in_segment() as u64;
        let row_global = local / self.blocks_per_row;
        let bank = (row_global % self.banks as u64) as usize;
        let row = row_global / self.banks as u64;
        (bank, row)
    }
}

impl Default for AddressMap {
    fn default() -> Self {
        Self::lpddr4()
    }
}

/// Command-scheduling discipline of each channel controller.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum SchedulerKind {
    /// First-ready, first-come-first-served: row hits first, then age
    /// (the high-performance default).
    #[default]
    FrFcfs,
    /// Strict first-come-first-served (the ablation baseline).
    Fcfs,
}

impl core::fmt::Display for SchedulerKind {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str(match self {
            SchedulerKind::FrFcfs => "FR-FCFS",
            SchedulerKind::Fcfs => "FCFS",
        })
    }
}

/// Row-buffer management policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum PagePolicy {
    /// Keep rows open after column commands (bets on row-buffer locality;
    /// the default, and what pattern-bursting prefetchers feed).
    #[default]
    Open,
    /// Auto-precharge after a column command unless another queued request
    /// targets the same row (bets against locality; trades row hits for
    /// cheaper conflicts).
    Closed,
}

impl core::fmt::Display for PagePolicy {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str(match self {
            PagePolicy::Open => "open-page",
            PagePolicy::Closed => "closed-page",
        })
    }
}

/// Full controller configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DramConfig {
    /// Channel count (the common static mapping assumes 4).
    pub channels: usize,
    /// Timing parameters.
    pub timing: Timing,
    /// Address decomposition.
    pub map: AddressMap,
    /// Per-channel request-queue depth (Table 1: 64).
    pub queue_depth: usize,
    /// Command scheduling discipline.
    pub scheduler: SchedulerKind,
    /// Row-buffer management policy.
    pub page_policy: PagePolicy,
    /// Model CKE power-down: an idle rank (no pending work for `t_cke`)
    /// drops to reduced background power and pays `t_xp` to wake — the
    /// LPDDR low-power behaviour Table 1's tCKE/tXP parameters exist for.
    pub powerdown: bool,
    /// Energy model parameters.
    pub energy: crate::power::EnergyParams,
    /// Record the full command log (for tests; costs memory).
    pub record_log: bool,
}

impl DramConfig {
    /// The paper's Table 1 memory system.
    pub fn lpddr4() -> Self {
        Self {
            channels: NUM_CHANNELS,
            timing: Timing::lpddr4(),
            map: AddressMap::lpddr4(),
            queue_depth: 64,
            scheduler: SchedulerKind::default(),
            page_policy: PagePolicy::default(),
            powerdown: true,
            energy: crate::power::EnergyParams::lpddr4(),
            record_log: false,
        }
    }

    /// Enables command-log recording (builder style).
    #[must_use]
    pub fn with_log(mut self) -> Self {
        self.record_log = true;
        self
    }

    /// Selects the scheduler (builder style).
    #[must_use]
    pub fn with_scheduler(mut self, scheduler: SchedulerKind) -> Self {
        self.scheduler = scheduler;
        self
    }

    /// Selects the row-buffer policy (builder style).
    #[must_use]
    pub fn with_page_policy(mut self, page_policy: PagePolicy) -> Self {
        self.page_policy = page_policy;
        self
    }

    /// Checks the values a controller cannot run with: a channel count
    /// other than the static page-segment mapping's, an empty queue or
    /// geometry, and a refresh interval with no room between refreshes
    /// for an activate and its column command.
    ///
    /// # Errors
    ///
    /// Returns a [`DramConfigError`] naming the first offending field.
    pub fn validate(&self) -> Result<(), DramConfigError> {
        let err = |msg: String| Err(DramConfigError(msg));
        if self.channels != NUM_CHANNELS {
            return err(format!(
                "channels is {}, but the static page-segment mapping requires {NUM_CHANNELS}",
                self.channels
            ));
        }
        if self.queue_depth == 0 {
            return err("queue_depth must be non-zero".into());
        }
        if self.map.banks == 0 {
            return err("map.banks must be non-zero".into());
        }
        if self.map.blocks_per_row == 0 {
            return err("map.blocks_per_row must be non-zero".into());
        }
        // A refresh closes every row and holds the banks for t_rfc; the
        // next is due t_refi after the last. An ACT then needs t_rcd
        // before its column command, and a due refresh wins the tie, so
        // at or below this bound no request completes after the first
        // refresh.
        let (t_refi, min) = (self.timing.t_refi, self.timing.t_rfc + self.timing.t_rcd);
        if t_refi <= min {
            return err(format!(
                "timing.t_refi ({t_refi}) must exceed timing.t_rfc + timing.t_rcd ({min}), \
                 or no column command fits between refreshes"
            ));
        }
        Ok(())
    }
}

/// Error returned by [`DramConfig::validate`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DramConfigError(String);

impl core::fmt::Display for DramConfigError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "invalid dram config: {}", self.0)
    }
}

impl std::error::Error for DramConfigError {}

impl Default for DramConfig {
    fn default() -> Self {
        Self::lpddr4()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use planaria_common::{BLOCK_SIZE, PAGE_SIZE};

    #[test]
    fn table1_values() {
        let t = Timing::lpddr4();
        assert_eq!(t.t_ras, 51);
        assert_eq!(t.t_rcd, 16);
        assert_eq!(t.t_rc, 76);
        assert_eq!(t.t_rfc, 216);
        assert_eq!(t.t_faw, 48);
        assert_eq!(t.burst_length, 16);
        assert_eq!(t.t_burst(), 8);
    }

    #[test]
    fn same_page_segment_shares_a_row() {
        let map = AddressMap::lpddr4();
        // Blocks 0 and 15 of page 0 are both in channel 0's first segment
        // and must land in the same row.
        let a = PhysAddr::new(0);
        let b = PhysAddr::new(15 * BLOCK_SIZE);
        assert_eq!(a.channel(), b.channel());
        assert_eq!(map.locate(a), map.locate(b));
    }

    #[test]
    fn adjacent_pages_share_a_row_then_switch_banks() {
        let map = AddressMap::lpddr4();
        // 32-block rows hold two 16-block segments: pages 0 and 1 share a
        // row; page 2 starts a new row on the next bank.
        let p0 = PhysAddr::new(0);
        let p1 = PhysAddr::new(PAGE_SIZE);
        let p2 = PhysAddr::new(2 * PAGE_SIZE);
        assert_eq!(map.locate(p0), map.locate(p1));
        let (b0, r0) = map.locate(p0);
        let (b2, r2) = map.locate(p2);
        assert_ne!((b0, r0), (b2, r2));
        assert_eq!(b2, (b0 + 1) % map.banks);
    }

    #[test]
    fn rows_cycle_through_banks() {
        let map = AddressMap::lpddr4();
        let mut banks = Vec::new();
        for seg_pair in 0..8u64 {
            let addr = PhysAddr::new(seg_pair * 2 * PAGE_SIZE);
            banks.push(map.locate(addr).0);
        }
        assert_eq!(banks, vec![0, 1, 2, 3, 4, 5, 6, 7]);
    }

    #[test]
    fn config_defaults() {
        let c = DramConfig::lpddr4();
        assert_eq!(c.channels, 4);
        assert_eq!(c.queue_depth, 64);
        assert!(!c.record_log);
        assert!(c.with_log().record_log);
        assert_eq!(c.scheduler, SchedulerKind::FrFcfs);
        assert_eq!(c.with_scheduler(SchedulerKind::Fcfs).scheduler, SchedulerKind::Fcfs);
        assert_eq!(c.page_policy, PagePolicy::Open);
        assert_eq!(c.with_page_policy(PagePolicy::Closed).page_policy, PagePolicy::Closed);
        assert!(!PagePolicy::Closed.to_string().is_empty());
        assert!(c.powerdown);
        assert!(!SchedulerKind::Fcfs.to_string().is_empty());
    }

    #[test]
    fn table1_config_validates() {
        assert_eq!(DramConfig::lpddr4().validate(), Ok(()));
    }

    #[test]
    fn each_bad_field_is_rejected_by_name() {
        let rejects = |field: &str, spoil: fn(&mut DramConfig)| {
            let mut cfg = DramConfig::lpddr4();
            spoil(&mut cfg);
            let msg = cfg.validate().expect_err(field).to_string();
            assert!(msg.contains(field), "{field}: {msg}");
        };
        rejects("channels", |c| c.channels = 2);
        rejects("queue_depth", |c| c.queue_depth = 0);
        rejects("map.banks", |c| c.map.banks = 0);
        rejects("map.blocks_per_row", |c| c.map.blocks_per_row = 0);
        rejects("timing.t_refi", |c| c.timing.t_refi = 0);
        rejects("timing.t_refi", |c| c.timing.t_refi = c.timing.t_rfc + c.timing.t_rcd);
    }
}
