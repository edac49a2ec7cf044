//! Signature Path Prefetcher (Kim, Pugsley, Gratz, Reddy, Wilkerson,
//! Chishti — MICRO 2016), PC-free as in the original.
//!
//! SPP compresses each page's recent *delta history* into a 12-bit
//! signature, learns a per-signature delta distribution in a pattern table,
//! and on each trigger walks the signature path speculatively: at every
//! step it multiplies the path confidence by the chosen delta's confidence
//! and keeps prefetching deeper until the product drops below a threshold.
//!
//! On the system cache the scheme inherits the same structural problem as
//! BOP: the intra-page order of footprint blocks is shuffled, so delta
//! histories rarely repeat and the signatures it builds splinter across
//! the pattern table. It still beats BOP there (it adapts per page), which
//! matches the paper's ordering of the two baselines.

use planaria_common::{
    MemAccess, PageNum, PhysAddr, PrefetchOrigin, PrefetchRequest, BLOCKS_PER_PAGE,
};
use planaria_core::Prefetcher;
use planaria_hash::FastHashMap;

/// Deltas per pattern-table entry.
const PT_WAYS: usize = 4;

/// SPP tuning parameters (MICRO'16 defaults scaled to one SC).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SppConfig {
    /// Signature-table entries (tracked pages).
    pub st_entries: usize,
    /// Pattern-table entries (signatures).
    pub pt_entries: usize,
    /// Signature width in bits.
    pub signature_bits: u32,
    /// Minimum per-step confidence to follow a delta.
    pub confidence_threshold: f64,
    /// Path confidence below which the lookahead stops.
    pub prefetch_threshold: f64,
    /// Maximum lookahead depth.
    pub max_depth: usize,
}

impl Default for SppConfig {
    fn default() -> Self {
        Self {
            st_entries: 256,
            pt_entries: 512,
            signature_bits: 12,
            confidence_threshold: 0.15,
            prefetch_threshold: 0.10,
            max_depth: 8,
        }
    }
}

/// Signature-table payload; the page tag (and validity) lives in the
/// dense `Spp::st_tags` array alongside.
#[derive(Debug, Clone, Copy, Default)]
struct StEntry {
    last_offset: u8,
    signature: u16,
    lru: u64,
}

#[derive(Debug, Clone, Copy, Default)]
struct PtDelta {
    delta: i8,
    count: u16,
}

#[derive(Debug, Clone, Copy, Default)]
struct PtEntry {
    c_sig: u16,
    deltas: [PtDelta; PT_WAYS],
}

/// The Signature Path Prefetcher.
///
/// The signature-table lookup runs on every access, so it is served by a
/// hash index (`page → slot`) rather than an associative scan; the dense
/// `st` array keeps the fixed-capacity table the storage model accounts
/// for.
#[derive(Debug, Clone)]
pub struct Spp {
    cfg: SppConfig,
    /// `page → slot` index mirroring `st` (pages are unique per table).
    st_index: FastHashMap<u64, u32>,
    /// Page of each ST slot (for index maintenance on eviction).
    st_pages: Vec<u64>,
    st: Vec<StEntry>,
    /// ST slots handed out so far; slots are never freed, so the first
    /// `st_filled` entries are exactly the valid ones.
    st_filled: usize,
    pt: Vec<PtEntry>,
    tick: u64,
    accesses: u64,
}

impl Spp {
    /// Creates an SPP instance.
    ///
    /// # Panics
    ///
    /// Panics if a table size is zero.
    pub fn new(cfg: SppConfig) -> Self {
        assert!(cfg.st_entries > 0 && cfg.pt_entries > 0, "tables must be non-empty");
        Self {
            st_index: FastHashMap::default(),
            st_pages: vec![0; cfg.st_entries],
            st_filled: 0,
            st: vec![StEntry::default(); cfg.st_entries],
            pt: vec![PtEntry::default(); cfg.pt_entries],
            tick: 0,
            accesses: 0,
            cfg,
        }
    }

    fn sig_mask(&self) -> u16 {
        ((1u32 << self.cfg.signature_bits) - 1) as u16
    }

    fn advance_sig(&self, sig: u16, delta: i8) -> u16 {
        ((sig << 3) ^ (delta as u16 & 0x3F)) & self.sig_mask()
    }

    fn pt_index(&self, sig: u16) -> usize {
        sig as usize % self.cfg.pt_entries
    }

    fn pt_update(&mut self, sig: u16, delta: i8) {
        let idx = self.pt_index(sig);
        let e = &mut self.pt[idx];
        // Saturate and halve: classic SPP counter management.
        if e.c_sig == u16::MAX {
            e.c_sig /= 2;
            for d in &mut e.deltas {
                d.count /= 2;
            }
        }
        e.c_sig += 1;
        if let Some(d) = e.deltas.iter_mut().find(|d| d.count > 0 && d.delta == delta) {
            d.count += 1;
            return;
        }
        // Allocate the way with the smallest count.
        let way = e
            .deltas
            .iter()
            .enumerate()
            .min_by_key(|(_, d)| d.count)
            .map(|(i, _)| i)
            .expect("PT_WAYS > 0");
        e.deltas[way] = PtDelta { delta, count: 1 };
    }

    fn st_lookup(&mut self, page: u64) -> Option<usize> {
        self.st_index.get(&page).map(|&i| i as usize)
    }

    fn st_allocate(&mut self, page: u64, offset: u8) {
        let victim = if self.st_filled < self.st.len() {
            let v = self.st_filled;
            self.st_filled += 1;
            v
        } else {
            let v = self
                .st
                .iter()
                .enumerate()
                .min_by_key(|(_, e)| e.lru)
                .map(|(i, _)| i)
                .expect("non-empty ST");
            self.st_index.remove(&self.st_pages[v]);
            v
        };
        self.st_index.insert(page, victim as u32);
        self.st_pages[victim] = page;
        self.st[victim] = StEntry { last_offset: offset, signature: 0, lru: self.tick };
    }

    /// Lookahead walk from the page's current state, pushing prefetches.
    fn issue(
        &mut self,
        page: u64,
        offset: u8,
        sig: u16,
        triggered_at: planaria_common::Cycle,
        out: &mut Vec<PrefetchRequest>,
    ) {
        let mut sig = sig;
        let mut cur = offset as i64;
        let mut confidence = 1.0f64;
        for _ in 0..self.cfg.max_depth {
            // Breadth: issue every delta of this signature that qualifies
            // (MICRO'16 prefetches all confident deltas per level), while
            // tracking the best delta for the depth step in the same pass
            // (ties resolve to the later way).
            let e = self.pt[self.pt_index(sig)];
            let mut best: Option<(i8, f64)> = None;
            for d in e.deltas.iter().filter(|d| e.c_sig > 0 && d.count > 0) {
                let conf = d.count as f64 / e.c_sig as f64;
                if best.is_none_or(|(_, c)| conf >= c) {
                    best = Some((d.delta, conf));
                }
                if conf < self.cfg.confidence_threshold
                    || confidence * conf < self.cfg.prefetch_threshold
                {
                    continue;
                }
                let target = cur + d.delta as i64;
                if !(0..BLOCKS_PER_PAGE as i64).contains(&target) {
                    continue;
                }
                let addr = PhysAddr::from_parts(
                    PageNum::new(page),
                    planaria_common::BlockIndex::new(target as usize),
                );
                out.push(PrefetchRequest::new(addr, PrefetchOrigin::Baseline, triggered_at));
            }
            // ...then depth: walk the lookahead path along the best delta.
            let Some((delta, conf)) = best else { break };
            if conf < self.cfg.confidence_threshold {
                break;
            }
            confidence *= conf;
            if confidence < self.cfg.prefetch_threshold {
                break;
            }
            cur += delta as i64;
            // SPP's base scheme stays within the page (cross-page needs the
            // global history register; see the paper's §related-work note
            // that such global state misfires at SC granularity).
            if !(0..BLOCKS_PER_PAGE as i64).contains(&cur) {
                break;
            }
            sig = self.advance_sig(sig, delta);
        }
    }
}

impl Default for Spp {
    fn default() -> Self {
        Self::new(SppConfig::default())
    }
}

impl Prefetcher for Spp {
    fn name(&self) -> &str {
        "SPP"
    }

    fn on_access(&mut self, access: &MemAccess, hit: bool, out: &mut Vec<PrefetchRequest>) {
        self.accesses += 1;
        self.tick += 1;
        let page = access.addr.page().as_u64();
        let offset = access.addr.block_index().as_usize() as u8;
        match self.st_lookup(page) {
            Some(i) => {
                let (old_sig, last) = (self.st[i].signature, self.st[i].last_offset);
                let delta = offset as i8 - last as i8;
                if delta != 0 {
                    self.pt_update(old_sig, delta);
                    let new_sig = self.advance_sig(old_sig, delta);
                    let e = &mut self.st[i];
                    e.signature = new_sig;
                    e.last_offset = offset;
                    e.lru = self.tick;
                    if !hit {
                        self.issue(page, offset, new_sig, access.cycle, out);
                    }
                } else {
                    self.st[i].lru = self.tick;
                }
            }
            None => {
                self.st_allocate(page, offset);
            }
        }
    }

    fn storage_bits(&self) -> u64 {
        let st_entry = 36 + 6 + self.cfg.signature_bits as u64 + 1 + 8; // tag+offset+sig+valid+lru
        let pt_entry = 16 + PT_WAYS as u64 * (7 + 16);
        self.cfg.st_entries as u64 * st_entry + self.cfg.pt_entries as u64 * pt_entry
    }

    fn table_accesses(&self) -> u64 {
        self.accesses
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use planaria_common::Cycle;

    fn run(spp: &mut Spp, seq: &[(u64, usize)]) -> Vec<PrefetchRequest> {
        let mut out = Vec::new();
        for (i, &(page, block)) in seq.iter().enumerate() {
            let addr =
                PhysAddr::from_parts(PageNum::new(page), planaria_common::BlockIndex::new(block));
            spp.on_access(&MemAccess::read(addr, Cycle::new(10 * i as u64)), false, &mut out);
        }
        out
    }

    #[test]
    fn learns_unit_stride_within_pages() {
        let mut spp = Spp::default();
        // Train on several pages walking +1.
        let mut seq = Vec::new();
        for p in 0..20u64 {
            for b in 0..32usize {
                seq.push((p, b));
            }
        }
        run(&mut spp, &seq);
        // A fresh page starting the same walk triggers lookahead.
        let out = run(&mut spp, &[(100, 0), (100, 1), (100, 2)]);
        assert!(!out.is_empty(), "trained SPP must prefetch on the stride");
        // Prefetches continue the +1 path.
        assert!(out.iter().all(|r| r.addr.page().as_u64() == 100));
        let blocks: Vec<usize> = out.iter().map(|r| r.addr.block_index().as_usize()).collect();
        assert!(blocks.iter().all(|&b| b >= 2), "{blocks:?}");
    }

    #[test]
    fn lookahead_depth_grows_with_confidence() {
        let mut spp = Spp::default();
        let mut seq = Vec::new();
        for p in 0..50u64 {
            for b in 0..40usize {
                seq.push((p, b));
            }
        }
        run(&mut spp, &seq);
        let out = run(&mut spp, &[(200, 0), (200, 1)]);
        assert!(out.len() >= 2, "high confidence should look ahead: {}", out.len());
        assert!(out.len() <= SppConfig::default().max_depth);
    }

    #[test]
    fn stays_within_page() {
        let mut spp = Spp::default();
        let mut seq = Vec::new();
        for p in 0..20u64 {
            for b in 0..BLOCKS_PER_PAGE {
                seq.push((p, b));
            }
        }
        run(&mut spp, &seq);
        // Trigger near the end of a page.
        let out = run(&mut spp, &[(300, 61), (300, 62), (300, 63)]);
        assert!(out.iter().all(|r| r.addr.page().as_u64() == 300));
        assert!(out.iter().all(|r| r.addr.block_index().as_usize() < BLOCKS_PER_PAGE));
    }

    #[test]
    fn shuffled_footprints_yield_little() {
        let mut spp = Spp::default();
        // Same footprint, different order each visit: signatures splinter.
        let orders: [[usize; 6]; 4] =
            [[0, 9, 4, 13, 2, 7], [13, 2, 9, 0, 7, 4], [4, 7, 0, 2, 13, 9], [9, 13, 7, 4, 0, 2]];
        let mut seq = Vec::new();
        for (v, order) in orders.iter().enumerate() {
            for &b in order {
                seq.push((40 + v as u64, b));
            }
        }
        let trained = run(&mut spp, &seq);
        // Compare against the stride case: shuffled deltas must produce far
        // fewer (often zero) confident prefetches.
        assert!(trained.len() < 6, "shuffled order should starve SPP: {}", trained.len());
    }

    #[test]
    fn no_issue_on_hits() {
        let mut spp = Spp::default();
        let mut out = Vec::new();
        let a1 = MemAccess::read(PhysAddr::new(0x0), Cycle::new(0));
        let a2 = MemAccess::read(PhysAddr::new(0x40), Cycle::new(10));
        spp.on_access(&a1, false, &mut out);
        spp.on_access(&a2, true, &mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn st_capacity_evicts_lru() {
        let mut spp = Spp::new(SppConfig { st_entries: 2, ..SppConfig::default() });
        run(&mut spp, &[(1, 0), (2, 0), (3, 0)]); // page 1 evicted
                                                  // Page 1 must re-allocate (no delta learned from its history).
        let out = run(&mut spp, &[(1, 5)]);
        assert!(out.is_empty());
    }

    #[test]
    fn storage_is_moderate() {
        let spp = Spp::default();
        // A few KB — far below Planaria's pattern storage.
        assert!(spp.storage_bits() < 100 * 8 * 1024);
        assert!(spp.storage_bits() > 0);
    }
}
