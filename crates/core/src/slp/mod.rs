//! SLP — the Self-Learning directed Prefetcher (intra-page).
//!
//! SLP exploits Observation 1: at the system-cache level a page's accessed
//! blocks form a stable *footprint snapshot* that repeats across visits with
//! long reuse distance and unpredictable intra-visit order. SLP therefore
//! learns the snapshot as a 16-bit bitmap (per channel segment) keyed by the
//! page number alone, and on a demand **miss** replays every not-yet-seen
//! block of the learned snapshot as prefetches.
//!
//! See the `tables` module for the FT → AT → PT learning pipeline.

mod tables;

use planaria_common::{
    Bitmap16, Cycle, MemAccess, PhysAddr, PrefetchOrigin, PrefetchRequest, NUM_CHANNELS,
};
use planaria_telemetry::{EventData, EventKind, Telemetry, TelemetryConfig, TelemetryReport};

use crate::traits::Prefetcher;
pub use tables::PatternMerge;
pub(crate) use tables::FT_PROMOTE_COUNT;
use tables::{AccumulationTable, FilterTable, FtOutcome, PatternTable};

/// SLP sizing parameters (per channel).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SlpConfig {
    /// Filter Table entries.
    pub ft_entries: usize,
    /// Accumulation Table entries.
    pub at_entries: usize,
    /// Pattern History Table entries.
    pub pt_entries: usize,
    /// Idle cycles after which an AT entry is deemed a complete snapshot.
    pub timeout: u64,
    /// Page-number tag width in bits (storage accounting).
    pub tag_bits: u64,
    /// Timestamp width in bits (storage accounting).
    pub timestamp_bits: u64,
    /// How the PT reconciles re-learned snapshots (paper: replace).
    pub pattern_merge: PatternMerge,
}

impl Default for SlpConfig {
    /// The sizing used for the paper's 345.2 KB storage budget.
    fn default() -> Self {
        Self {
            ft_entries: 128,
            at_entries: 256,
            pt_entries: 12288,
            timeout: 2000,
            tag_bits: 36,
            timestamp_bits: 32,
            pattern_merge: PatternMerge::Replace,
        }
    }
}

/// One channel's SLP instance, exposing decoupled learning and issuing
/// phases for the coordinator.
#[derive(Debug, Clone)]
pub(crate) struct ChannelSlp {
    /// Which page segment (= DRAM channel) this instance serves.
    segment: usize,
    ft: FilterTable,
    at: AccumulationTable,
    pt: PatternTable,
    scratch: Vec<(u64, Bitmap16)>,
}

impl ChannelSlp {
    pub(crate) fn new_for_segment(cfg: &SlpConfig, segment: usize) -> Self {
        Self {
            segment,
            ft: FilterTable::new(cfg.ft_entries, cfg.timeout),
            at: AccumulationTable::new(cfg.at_entries, cfg.timeout),
            pt: PatternTable::with_merge(cfg.pt_entries, cfg.pattern_merge),
            scratch: Vec::new(),
        }
    }

    /// Learning phase: observes (page, segment offset) at `now`.
    pub(crate) fn learn(&mut self, page: u64, offset: usize, now: Cycle, tel: &mut Telemetry) {
        let ch = self.segment as u8;
        // Step 4 first: expire finished snapshots into the PT.
        self.scratch.clear();
        self.at.sweep(now, &mut self.scratch);
        for i in 0..self.scratch.len() {
            let (p, bm) = self.scratch[i];
            tel.emit(EventKind::SlpSnapshotCapture, now, ch, || EventData::SlpSnapshotCapture {
                page: p,
                bits: bm.bits(),
            });
            self.pt.insert(p, bm);
        }
        // Step 1: accumulate if the page is already tracked.
        if self.at.record(page, offset, now) {
            // Fires on nearly every access — counted, never materialised.
            tel.count(EventKind::SlpAtAccumulate);
            return;
        }
        // Steps 2–3: filter, then promote after three distinct offsets.
        match self.ft.record(page, offset, now) {
            FtOutcome::Allocated => {
                tel.emit(EventKind::SlpFtAllocate, now, ch, || EventData::SlpFtAllocate { page });
            }
            FtOutcome::Recorded => tel.count(EventKind::SlpFtRecord),
            FtOutcome::Promoted(bitmap) => {
                tel.emit(EventKind::SlpFtPromote, now, ch, || EventData::SlpFtPromote {
                    page,
                    bits: bitmap.bits(),
                });
                if let Some((spill_page, spill_bm)) = self.at.insert(page, bitmap, now) {
                    tel.emit(EventKind::SlpAtSpill, now, ch, || EventData::SlpAtSpill {
                        page: spill_page,
                        bits: spill_bm.bits(),
                    });
                    self.pt.insert(spill_page, spill_bm);
                }
            }
        }
    }

    /// Whether SLP holds history for `page` (the coordinator's selection
    /// rule: TLP may issue only when this is `false`).
    pub(crate) fn has_pattern(&mut self, page: u64) -> bool {
        self.pt.contains(page)
    }

    /// Issuing phase (step 5): on a demand miss, prefetch every block of
    /// the learned snapshot not yet observed in the current visit.
    pub(crate) fn issue(
        &mut self,
        page: u64,
        offset: usize,
        triggered_at: Cycle,
        out: &mut Vec<PrefetchRequest>,
        tel: &mut Telemetry,
    ) {
        let Some(pattern) = self.pt.lookup(page) else { return };
        // Blocks already accessed in this visit — tracked by the AT once
        // promoted, or still sitting in the FT — plus the trigger itself.
        let observed = self
            .at
            .observed(page)
            .or_else(|| self.ft.observed(page))
            .unwrap_or(Bitmap16::EMPTY)
            .with(offset);
        let todo = pattern.minus(observed);
        tel.emit(EventKind::SlpIssue, triggered_at, self.segment as u8, || EventData::SlpIssue {
            page,
            pattern: pattern.bits(),
            issued: todo.bits(),
        });
        let page_num = planaria_common::PageNum::new(page);
        for pos in todo.iter_set() {
            // `offset` is a segment-local position; reconstruct the block
            // index within the page when materialising the address.
            let addr = addr_for(page_num, self.segment, pos);
            out.push(PrefetchRequest::new(addr, PrefetchOrigin::Slp, triggered_at));
        }
    }

    pub(crate) fn table_accesses(&self) -> u64 {
        self.ft.accesses + self.at.accesses + self.pt.accesses
    }

    pub(crate) fn occupancy(&self) -> (usize, usize, usize) {
        (self.ft.len(), self.at.len(), self.pt.len())
    }
}

/// Materialises the physical address of a segment-local position.
fn addr_for(page: planaria_common::PageNum, segment: usize, pos: usize) -> PhysAddr {
    let block = planaria_common::SegmentIndex::new(segment).block(pos);
    PhysAddr::from_parts(page, block)
}

/// The standalone four-channel SLP prefetcher.
///
/// Used directly for the paper's Figure 9 "SLP-only" ablation and as the
/// intra-page half of [`crate::Planaria`].
#[derive(Debug, Clone)]
pub struct Slp {
    cfg: SlpConfig,
    channels: Vec<ChannelSlp>,
    tel: Telemetry,
}

impl Slp {
    /// Creates a four-channel SLP.
    pub fn new(cfg: SlpConfig) -> Self {
        Self {
            channels: (0..NUM_CHANNELS).map(|s| ChannelSlp::new_for_segment(&cfg, s)).collect(),
            cfg,
            tel: Telemetry::counting_only(),
        }
    }

    /// The configuration in use.
    pub fn config(&self) -> &SlpConfig {
        &self.cfg
    }

    /// (FT, AT, PT) occupancy of one channel, for diagnostics.
    ///
    /// # Panics
    ///
    /// Panics if `channel >= 4`.
    pub fn occupancy(&self, channel: usize) -> (usize, usize, usize) {
        self.channels[channel].occupancy()
    }
}

impl Default for Slp {
    fn default() -> Self {
        Self::new(SlpConfig::default())
    }
}

impl Prefetcher for Slp {
    fn name(&self) -> &str {
        "SLP"
    }

    fn on_access(&mut self, access: &MemAccess, hit: bool, out: &mut Vec<PrefetchRequest>) {
        let ch = access.addr.channel().as_usize();
        let page = access.addr.page().as_u64();
        let offset = access.addr.block_index().index_in_segment();
        let slp = &mut self.channels[ch];
        slp.learn(page, offset, access.cycle, &mut self.tel);
        if !hit {
            slp.issue(page, offset, access.cycle, out, &mut self.tel);
        }
    }

    fn storage_bits(&self) -> u64 {
        crate::storage::slp_bits(&self.cfg) * NUM_CHANNELS as u64
    }

    fn table_accesses(&self) -> u64 {
        self.channels.iter().map(ChannelSlp::table_accesses).sum()
    }

    fn configure_telemetry(&mut self, cfg: &TelemetryConfig) {
        self.tel = Telemetry::from_config(cfg);
    }

    fn telemetry(&self) -> Option<&Telemetry> {
        Some(&self.tel)
    }

    fn telemetry_report(&mut self) -> Option<TelemetryReport> {
        Some(self.tel.report())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use planaria_common::{BlockIndex, PageNum};

    fn access(page: u64, block: usize, cycle: u64) -> MemAccess {
        MemAccess::read(
            PhysAddr::from_parts(PageNum::new(page), BlockIndex::new(block)),
            Cycle::new(cycle),
        )
    }

    /// Drives one full visit of `blocks` (all in segment 0) at ~10-cycle
    /// spacing starting at `t0`; returns requests generated.
    fn visit(
        slp: &mut Slp,
        page: u64,
        blocks: &[usize],
        t0: u64,
        hit: bool,
    ) -> Vec<PrefetchRequest> {
        let mut out = Vec::new();
        for (i, &b) in blocks.iter().enumerate() {
            slp.on_access(&access(page, b, t0 + 10 * i as u64), hit, &mut out);
        }
        out
    }

    #[test]
    fn no_prefetch_on_first_visit() {
        let mut slp = Slp::default();
        let out = visit(&mut slp, 42, &[0, 3, 5, 7, 9], 0, false);
        assert!(out.is_empty(), "no history yet");
    }

    #[test]
    fn second_visit_replays_snapshot() {
        let mut slp = Slp::default();
        let blocks = [0usize, 3, 5, 7, 9];
        visit(&mut slp, 42, &blocks, 0, false);
        // Long idle gap lets the AT entry time out into the PT.
        let out = visit(&mut slp, 42, &[3], 10_000, false);
        let mut got: Vec<usize> = out.iter().map(|r| r.addr.block_index().as_usize()).collect();
        got.sort();
        // Everything in the snapshot except the trigger block 3.
        assert_eq!(got, vec![0, 5, 7, 9]);
        for r in &out {
            assert_eq!(r.origin, PrefetchOrigin::Slp);
            assert_eq!(r.addr.page().as_u64(), 42);
        }
    }

    #[test]
    fn no_issue_on_hits() {
        let mut slp = Slp::default();
        visit(&mut slp, 42, &[0, 3, 5, 7], 0, false);
        let out = visit(&mut slp, 42, &[3], 10_000, true);
        assert!(out.is_empty(), "paper: issue only on cache miss");
    }

    #[test]
    fn filter_table_blocks_sparse_pages() {
        let mut slp = Slp::default();
        // Only two blocks: never promoted past the FT.
        visit(&mut slp, 42, &[0, 1], 0, false);
        let out = visit(&mut slp, 42, &[0], 10_000, false);
        assert!(out.is_empty(), "two-block page filtered out");
    }

    #[test]
    fn already_observed_blocks_not_reprefetched() {
        let mut slp = Slp::default();
        let blocks = [0usize, 3, 5, 7, 9];
        visit(&mut slp, 42, &blocks, 0, false);
        // Second visit: touch 0 and 3 (misses), then check the issue for 5.
        let mut out = Vec::new();
        slp.on_access(&access(42, 0, 10_000), false, &mut out);
        out.clear();
        slp.on_access(&access(42, 3, 10_010), false, &mut out);
        let got: Vec<usize> = out.iter().map(|r| r.addr.block_index().as_usize()).collect();
        assert!(!got.contains(&0), "block 0 already observed this visit");
    }

    #[test]
    fn channels_are_independent() {
        let mut slp = Slp::default();
        // Blocks 16..20 live in segment/channel 1.
        visit(&mut slp, 42, &[16, 17, 18, 19], 0, false);
        let out = visit(&mut slp, 42, &[17], 10_000, false);
        for r in &out {
            assert_eq!(r.addr.channel().as_usize(), 1);
            assert_eq!(r.addr.block_index().segment().as_usize(), 1);
        }
        assert_eq!(out.len(), 3);
        // Channel 0 never saw page 42.
        let out0 = visit(&mut slp, 42, &[0], 20_000, false);
        assert!(out0.is_empty());
    }

    #[test]
    fn storage_and_access_accounting() {
        let mut slp = Slp::default();
        assert!(slp.storage_bits() > 0);
        assert_eq!(slp.table_accesses(), 0);
        visit(&mut slp, 42, &[0, 3, 5], 0, false);
        assert!(slp.table_accesses() > 0);
        let (ft, at, _pt) = slp.occupancy(0);
        assert!(ft + at > 0);
    }

    #[test]
    fn pattern_follows_snapshot_drift() {
        let mut slp = Slp::default();
        visit(&mut slp, 42, &[0, 3, 5, 7], 0, false);
        // Drifted snapshot on the second visit (5 -> 6).
        visit(&mut slp, 42, &[0, 3, 6, 7], 10_000, false);
        // Third visit: the PT should reflect the latest complete visit.
        let out = visit(&mut slp, 42, &[0], 20_000, false);
        let mut got: Vec<usize> = out.iter().map(|r| r.addr.block_index().as_usize()).collect();
        got.sort();
        assert_eq!(got, vec![3, 6, 7]);
    }
}
