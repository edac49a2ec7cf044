//! Best-Offset Prefetching (Michaud, HPCA 2016).
//!
//! BOP learns a single *best offset* D and, while prefetching is on, issues
//! X + D for every triggering access X. Learning runs in rounds: each
//! access tests one candidate offset d (round-robin over the offset list)
//! by probing a Recent Requests (RR) table for X − d; a hit means "had we
//! been prefetching with offset d, X would have been covered in time" and
//! increments d's score. A round ends when an offset saturates at
//! `score_max` or every offset has been tested `round_max` times; the
//! winner becomes the active offset, and prefetch turns off entirely when
//! the winning score is below `bad_score` — BOP's built-in throttle.
//!
//! BOP is PC-free, which is why the paper can evaluate it at the system
//! cache. Its weakness there is structural: the SC's intra-page block
//! order is shuffled (Observation 1), so no single delta is consistently
//! right, and the offsets it does learn generate traffic with mediocre
//! accuracy — visible in the Figure 8/10 reproduction.

use std::collections::VecDeque;

#[cfg(test)]
use planaria_common::Cycle;
use planaria_common::{MemAccess, PhysAddr, PrefetchOrigin, PrefetchRequest, BLOCK_SIZE};
use planaria_core::Prefetcher;

/// The HPCA'16 offset list: every integer in 1..=256 whose prime factors
/// are all ≤ 5 (52 offsets), in block units.
pub const DEFAULT_OFFSETS: [i64; 52] = [
    1, 2, 3, 4, 5, 6, 8, 9, 10, 12, 15, 16, 18, 20, 24, 25, 27, 30, 32, 36, 40, 45, 48, 50, 54, 60,
    64, 72, 75, 80, 81, 90, 96, 100, 108, 120, 125, 128, 135, 144, 150, 160, 162, 180, 192, 200,
    216, 225, 240, 243, 250, 256,
];

/// BOP tuning parameters (HPCA'16 defaults).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BopConfig {
    /// Candidate offsets in block units.
    pub offsets: Vec<i64>,
    /// RR table entries (direct-mapped).
    pub rr_entries: usize,
    /// RR tag bits.
    pub rr_tag_bits: u64,
    /// Score that ends a round immediately.
    pub score_max: u32,
    /// Tests per offset before a round times out.
    pub round_max: u32,
    /// Minimum winning score to keep prefetch enabled.
    pub bad_score: u32,
    /// Cycles before an observed address becomes visible in the RR table.
    ///
    /// HPCA'16 inserts addresses at *fill completion*, not request time —
    /// that delay is what makes the offset scores timeliness-aware: an
    /// offset whose lead time is shorter than the memory latency never
    /// scores. Modelled here as a fixed fill-latency estimate.
    pub insert_delay: u64,
}

impl Default for BopConfig {
    fn default() -> Self {
        Self {
            offsets: DEFAULT_OFFSETS.to_vec(),
            rr_entries: 256,
            rr_tag_bits: 12,
            score_max: 31,
            round_max: 100,
            bad_score: 20,
            insert_delay: 60,
        }
    }
}

/// The Best-Offset prefetcher.
#[derive(Debug, Clone)]
pub struct Bop {
    cfg: BopConfig,
    /// Direct-mapped RR table of truncated block-address tags.
    rr: Vec<u64>,
    scores: Vec<u32>,
    /// Index of the offset tested by the next learning step.
    test_idx: usize,
    /// Completed test sweeps over the offset list in this round.
    sweeps: u32,
    /// Currently active best offset (None while prefetch is off).
    best: Option<i64>,
    /// Addresses awaiting their (modelled) fill before entering the RR.
    pending: VecDeque<(u64, u64)>,
    accesses: u64,
}

impl Bop {
    /// Creates a BOP instance.
    ///
    /// # Panics
    ///
    /// Panics if the offset list is empty or `rr_entries` is zero.
    pub fn new(cfg: BopConfig) -> Self {
        assert!(!cfg.offsets.is_empty(), "offset list must be non-empty");
        assert!(cfg.rr_entries > 0, "RR table must be non-empty");
        Self {
            rr: vec![u64::MAX; cfg.rr_entries],
            scores: vec![0; cfg.offsets.len()],
            test_idx: 0,
            sweeps: 0,
            best: Some(1), // boot with next-line until the first round ends
            pending: VecDeque::new(),
            accesses: 0,
            cfg,
        }
    }

    /// The currently active offset, if prefetching is on.
    pub fn active_offset(&self) -> Option<i64> {
        self.best
    }

    fn rr_index(&self, block: u64) -> usize {
        // Low bits index, next bits tag — as in the paper's direct-mapped RR.
        (block % self.cfg.rr_entries as u64) as usize
    }

    fn rr_tag(&self, block: u64) -> u64 {
        (block / self.cfg.rr_entries as u64) & ((1 << self.cfg.rr_tag_bits) - 1)
    }

    fn rr_probe(&self, block: u64) -> bool {
        self.rr[self.rr_index(block)] == self.rr_tag(block)
    }

    fn rr_insert(&mut self, block: u64) {
        let idx = self.rr_index(block);
        self.rr[idx] = self.rr_tag(block);
    }

    fn end_round(&mut self) {
        let (best_idx, &best_score) =
            self.scores.iter().enumerate().max_by_key(|(_, &s)| s).expect("non-empty scores");
        self.best = (best_score >= self.cfg.bad_score).then(|| self.cfg.offsets[best_idx]);
        self.scores.iter_mut().for_each(|s| *s = 0);
        self.test_idx = 0;
        self.sweeps = 0;
    }

    /// Moves pending addresses whose fill completed into the RR table.
    fn drain_pending(&mut self, now: u64) {
        while let Some(&(block, ready)) = self.pending.front() {
            if ready > now {
                break;
            }
            self.pending.pop_front();
            self.rr_insert(block);
        }
    }

    fn learn(&mut self, block: u64, now: u64) {
        self.drain_pending(now);
        let d = self.cfg.offsets[self.test_idx];
        if let Some(base) = block.checked_add_signed(-d) {
            if self.rr_probe(base) {
                self.scores[self.test_idx] += 1;
                if self.scores[self.test_idx] >= self.cfg.score_max {
                    self.best = Some(d);
                    self.scores.iter_mut().for_each(|s| *s = 0);
                    self.test_idx = 0;
                    self.sweeps = 0;
                    self.pending.push_back((block, now + self.cfg.insert_delay));
                    return;
                }
            }
        }
        self.test_idx += 1;
        if self.test_idx == self.cfg.offsets.len() {
            self.test_idx = 0;
            self.sweeps += 1;
            if self.sweeps >= self.cfg.round_max {
                self.end_round();
            }
        }
        self.pending.push_back((block, now + self.cfg.insert_delay));
    }
}

impl Default for Bop {
    fn default() -> Self {
        Self::new(BopConfig::default())
    }
}

impl Prefetcher for Bop {
    fn name(&self) -> &str {
        "BOP"
    }

    fn on_access(&mut self, access: &MemAccess, hit: bool, out: &mut Vec<PrefetchRequest>) {
        self.accesses += 1;
        let block = access.addr.block_number();
        // BOP learns and triggers on misses and on prefetched hits; a
        // trace-driven SC sees the former (the latter approximated by all
        // misses, as in the paper's trace methodology).
        if hit {
            return;
        }
        self.learn(block, access.cycle.as_u64());
        if let Some(d) = self.best {
            if let Some(target) = block.checked_add_signed(d) {
                out.push(PrefetchRequest::new(
                    PhysAddr::new(target * BLOCK_SIZE),
                    PrefetchOrigin::Baseline,
                    access.cycle,
                ));
            }
        }
    }

    fn storage_bits(&self) -> u64 {
        // RR tags + per-offset scores + best-offset register + round state.
        self.cfg.rr_entries as u64 * self.cfg.rr_tag_bits + self.cfg.offsets.len() as u64 * 6 + 16
    }

    fn table_accesses(&self) -> u64 {
        self.accesses
    }
}

/// Replays `blocks` as misses at `gap`-cycle spacing, collecting requests.
#[cfg(test)]
fn run_gap(bop: &mut Bop, blocks: impl IntoIterator<Item = u64>, gap: u64) -> Vec<PrefetchRequest> {
    let mut out = Vec::new();
    for (i, b) in blocks.into_iter().enumerate() {
        let access = MemAccess::read(PhysAddr::new(b * BLOCK_SIZE), Cycle::new(gap * i as u64));
        bop.on_access(&access, false, &mut out);
    }
    out
}

/// Replays `blocks` at a relaxed 100-cycle spacing (beyond the RR fill
/// delay, so even offset 1 is timely).
#[cfg(test)]
fn run(bop: &mut Bop, blocks: impl IntoIterator<Item = u64>) -> Vec<PrefetchRequest> {
    run_gap(bop, blocks, 100)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn learns_unit_stride() {
        let mut bop = Bop::default();
        // A long sequential stream: offset 1 should saturate.
        run(&mut bop, 0..4000u64);
        assert_eq!(bop.active_offset(), Some(1));
    }

    #[test]
    fn learns_larger_stride() {
        let mut bop = Bop::default();
        run(&mut bop, (0..6000u64).map(|i| i * 4));
        assert_eq!(bop.active_offset(), Some(4));
    }

    #[test]
    fn prefetches_with_active_offset() {
        let mut bop = Bop::default();
        run(&mut bop, 0..4000u64);
        let out = run(&mut bop, [100_000]);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].addr.block_number(), 100_001);
        assert_eq!(out[0].origin, PrefetchOrigin::Baseline);
    }

    #[test]
    fn no_requests_on_hits() {
        let mut bop = Bop::default();
        let mut out = Vec::new();
        bop.on_access(&MemAccess::read(PhysAddr::new(0x40), Cycle::new(0)), true, &mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn turns_off_on_random_traffic() {
        // Fast rounds for the test; scale the off-threshold to match.
        let cfg = BopConfig { round_max: 4, bad_score: 2, ..BopConfig::default() };
        let mut bop = Bop::new(cfg);
        // Spread-out pseudo-random blocks: no offset scores.
        let blocks = (0..2000u64).map(|i| (i * 2_654_435_761) % (1 << 30));
        run(&mut bop, blocks);
        assert_eq!(bop.active_offset(), None, "prefetch must switch off");
    }

    #[test]
    fn recovers_after_bad_phase() {
        // Short test rounds cap scores at 4, so scale the off-threshold too.
        let cfg = BopConfig { round_max: 4, bad_score: 2, ..BopConfig::default() };
        let mut bop = Bop::new(cfg);
        run(&mut bop, (0..2000u64).map(|i| (i * 2_654_435_761) % (1 << 30)));
        assert_eq!(bop.active_offset(), None);
        run(&mut bop, 1_000_000..1_010_000u64);
        // On a dense stream every positive offset covers; some offset wins.
        assert!(bop.active_offset().is_some(), "stream phase re-enables prefetch");
    }

    #[test]
    fn tight_streams_force_larger_timely_offsets() {
        // At 10-cycle spacing with a 60-cycle fill delay, offsets below 6
        // can never score: the RR table does not yet contain X - d when X
        // arrives. BOP must settle on a *timely* offset instead.
        let mut bop = Bop::default();
        run_gap(&mut bop, 0..4000u64, 10);
        let d = bop.active_offset().expect("stream keeps prefetch on");
        assert!(d >= 6, "offset {d} would be late at this spacing");
    }

    #[test]
    fn storage_is_small() {
        let bop = Bop::default();
        // BOP's selling point: tiny metadata (well under 1 KB).
        assert!(bop.storage_bits() < 8 * 1024);
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn rejects_empty_offsets() {
        let _ = Bop::new(BopConfig { offsets: vec![], ..BopConfig::default() });
    }
}
