//! TLP — the Transfer-Learning directed Prefetcher (inter-page).
//!
//! TLP exploits Observation 2: significant fractions of pages can learn
//! their access pattern from *neighbouring* pages (close page numbers with
//! similar footprint bitmaps). Its single structure is the **Recent Page
//! Table (RPT)**: 128 entries, each holding a page tag, a 16-bit recently-
//! accessed-blocks bitmap, and one "Ref" bit per other entry that is
//! precomputed at allocation time as `|PN_i − PN_j| ≤ distance threshold`.
//!
//! On a demand miss to a tracked page, TLP scans the page's Ref-flagged
//! neighbours, picks the one whose bitmap shares the most set bits with the
//! blocks this page has already touched (at least
//! [`TlpConfig::min_common_bits`], the paper example's "four same bits"),
//! and prefetches the neighbour's remaining blocks on this page.
//!
//! A full RPT evicts its least recently touched entry, found at the head
//! of the recency list SLP's Filter and Accumulation Tables use too
//! (`crate::recency`); stamp ties break on the slot.

use planaria_common::{
    Bitmap16, Cycle, MemAccess, PageNum, PhysAddr, PrefetchOrigin, PrefetchRequest, SegmentIndex,
    NUM_CHANNELS,
};
use planaria_telemetry::{
    EventData, EventKind, Telemetry, TelemetryConfig, TelemetryReport, TransferReject,
};

use crate::recency::Recency;
use crate::traits::Prefetcher;

/// TLP sizing parameters (per channel).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TlpConfig {
    /// Recent Page Table entries (at most 128; Ref bits are a u128).
    pub entries: usize,
    /// Maximum page-number distance for two pages to be neighbours.
    pub distance_threshold: u64,
    /// Minimum shared set bits before a pattern transfer is trusted.
    pub min_common_bits: usize,
    /// Page-number tag width in bits (storage accounting).
    pub tag_bits: u64,
}

impl Default for TlpConfig {
    /// The paper's RPT: 128 entries, distance threshold 64. The confidence
    /// threshold is 2 common bits *per channel segment*: the paper's
    /// "four same bits" example is stated for a whole page, and each of
    /// the four channel-sliced coordinators sees a quarter of the page's
    /// footprint.
    fn default() -> Self {
        Self { entries: 128, distance_threshold: 64, min_common_bits: 2, tag_bits: 36 }
    }
}

/// One channel's TLP instance with decoupled learning/issuing phases.
///
/// The RPT is stored struct-of-arrays over slots (`pages`, `bitmaps`,
/// `lasts`) plus two orders over the occupied slots:
///
/// - `by_page`, every `(page, slot)` sorted by page. The associative page
///   lookup runs on every access and is a binary search behind a
///   one-entry memo.
/// - `recency`, the exact LRU list SLP's FT and AT share
///   ([`Recency`]), so allocation finds its victim at the list head
///   instead of scanning every timestamp. Stamp ties break on the slot,
///   as the paper's first-minimum scan does.
///
/// The paper's per-entry Ref bits are not materialised. The Ref matrix is
/// symmetric and fully determined by the live page numbers (`bit (i, j)` ⇔
/// `|PN_i − PN_j| ≤ distance`), so the hardware's allocation-time pairwise
/// recomputation — an O(entries) read-modify-write over every row's u128,
/// on ~a third of all accesses in the Table 2 mix — is replaced by reading
/// the row off `by_page` on the issue path: a page's neighbours are the
/// contiguous run of entries around it within the distance, typically
/// zero or one of them. The storage model still accounts the Ref bits (the
/// hardware holds them; the simulator derives them), and the derived row is
/// bit-identical to the maintained one.
#[derive(Debug, Clone)]
pub(crate) struct ChannelTlp {
    segment: usize,
    cfg: TlpConfig,
    /// `(page, slot)` of every occupied slot, sorted by page (pages are
    /// unique per table). Slots are never freed, so its length is the
    /// occupancy and the occupied slots are exactly `0..by_page.len()`.
    by_page: Vec<(u64, u32)>,
    /// Page number of each occupied slot.
    pages: Vec<u64>,
    /// Recently-accessed-blocks bitmap per slot.
    bitmaps: Vec<Bitmap16>,
    /// Last-touch cycle per slot (LRU victim selection).
    lasts: Vec<Cycle>,
    /// The occupied slots in `(last, touch order)` order.
    recency: Recency,
    /// One-entry lookup memo `(page, position in by_page)` exploiting
    /// page-burst locality: consecutive accesses overwhelmingly hit the
    /// same page, and `learn` + `issue` on a miss look the same page up
    /// twice. Positions only move on allocation, which refreshes the memo.
    /// `u64::MAX` is never a real page number (pages are `addr >> 12`).
    last_lookup: (u64, u32),
    pub(crate) accesses: u64,
}

impl ChannelTlp {
    pub(crate) fn new_for_segment(cfg: &TlpConfig, segment: usize) -> Self {
        assert!(
            (1..=128).contains(&cfg.entries),
            "RPT entries must be in 1..=128 (got {})",
            cfg.entries
        );
        Self {
            segment,
            cfg: *cfg,
            by_page: Vec::new(),
            pages: vec![0; cfg.entries],
            bitmaps: vec![Bitmap16::EMPTY; cfg.entries],
            lasts: vec![Cycle::ZERO; cfg.entries],
            recency: Recency::new(cfg.entries),
            last_lookup: (u64::MAX, 0),
            accesses: 0,
        }
    }

    /// `page`'s position in `by_page`, or the position it would be
    /// inserted at.
    #[inline]
    fn find(&mut self, page: u64) -> Result<usize, usize> {
        if self.last_lookup.0 == page {
            return Ok(self.last_lookup.1 as usize);
        }
        let found = self.by_page.binary_search_by_key(&page, |&(p, _)| p);
        if let Ok(at) = found {
            self.last_lookup = (page, at as u32);
        }
        found
    }

    /// Learning phase: record (page, segment offset) at `now`.
    pub(crate) fn learn(&mut self, page: u64, offset: usize, now: Cycle, tel: &mut Telemetry) {
        self.accesses += 1;
        let at = match self.find(page) {
            Ok(at) => {
                let i = self.by_page[at].1 as usize;
                self.bitmaps[i].set(offset);
                self.lasts[i] = now;
                self.recency.touch(i, &self.lasts);
                return;
            }
            Err(at) => at,
        };
        // Allocate: empty slot first, else LRU victim.
        let filled = self.by_page.len();
        let (victim, at, evicted) = if filled < self.pages.len() {
            self.by_page.insert(at, (page, filled as u32));
            (filled, at, false)
        } else {
            let v = self.recency.victim(&self.lasts, 0..self.lasts.len(), |s| s);
            self.recency.unlink(v);
            // Slide the victim's sorted entry to the newcomer's position:
            // one shift of the entries in between, instead of a removal
            // and an insertion that each move the whole tail.
            let from = self
                .by_page
                .binary_search_by_key(&self.pages[v], |&(p, _)| p)
                .expect("every occupied slot is in by_page");
            let at = if from < at {
                self.by_page[from..at].rotate_left(1);
                at - 1
            } else {
                self.by_page[at..=from].rotate_right(1);
                at
            };
            self.by_page[at] = (page, v as u32);
            (v, at, true)
        };
        tel.emit(EventKind::TlpRptAllocate, now, self.segment as u8, || {
            EventData::TlpRptAllocate { page, evicted }
        });
        // No Ref-bit maintenance here: the hardware recomputes the
        // newcomer's row and patches its column in every other row (paper
        // §4.2), but both are pure functions of the live page numbers, so
        // [`ChannelTlp::ref_row`] derives them on demand instead.
        // The victim slot's old page is gone; the newcomer owns the memo.
        self.last_lookup = (page, at as u32);
        self.pages[victim] = page;
        self.bitmaps[victim] = Bitmap16::EMPTY.with(offset);
        self.lasts[victim] = now;
        self.recency.link(victim, &self.lasts);
    }

    /// The Ref row of the entry at `by_page[at]`, derived from the live
    /// page numbers: bit `j` set ⇔ `|PN_i − PN_j| ≤ distance_threshold`
    /// and `j ≠ i`. Those entries are the contiguous run of `by_page`
    /// within `[PN_i − d, PN_i + d]`, so the row is built by walking out
    /// from `at` in both directions until the distance is exceeded — work
    /// proportional to the neighbour count, not to the table size.
    #[inline]
    fn ref_row(&self, at: usize) -> u128 {
        let page = self.by_page[at].0;
        let d = self.cfg.distance_threshold;
        let mut row = 0u128;
        for &(_, slot) in self.by_page[..at].iter().rev().take_while(|&&(p, _)| page - p <= d) {
            row |= 1u128 << slot;
        }
        for &(_, slot) in self.by_page[at + 1..].iter().take_while(|&&(p, _)| p - page <= d) {
            row |= 1u128 << slot;
        }
        row
    }

    /// Issuing phase: on a demand miss, transfer the most similar
    /// neighbour's pattern to this page.
    pub(crate) fn issue(
        &mut self,
        page: u64,
        _offset: usize,
        triggered_at: Cycle,
        out: &mut Vec<PrefetchRequest>,
        tel: &mut Telemetry,
    ) {
        self.accesses += 1;
        let ch = self.segment as u8;
        let reject = |tel: &mut Telemetry, reason: TransferReject| {
            tel.emit(EventKind::TlpTransferReject, triggered_at, ch, || {
                EventData::TlpTransferReject { page, reason }
            });
        };
        let Ok(at) = self.find(page) else {
            reject(tel, TransferReject::NoEntry);
            return;
        };
        let my_bitmap = self.bitmaps[self.by_page[at].1 as usize];
        let refs = self.ref_row(at);
        let neighbours = refs.count_ones() as u8;
        // Popcount best-candidate scan over the Ref-flagged set bits.
        // Seeding the running best at `min_common_bits − 1` folds the
        // confidence threshold into the strict `>` comparison, so "first
        // neighbour at the maximum wins" (the LRU-position tie-break) needs
        // no separate qualification test inside the loop. The update stays
        // a branch on purpose: it fires only when a new maximum appears
        // (rare), where an arithmetic select would chain a loop-carried
        // cmov dependency through every iteration.
        let mut best_c = self.cfg.min_common_bits as isize - 1;
        let mut best_j = usize::MAX;
        let mut best_any: usize = 0;
        // Ref bits only ever point at occupied slots: the row is built
        // from `by_page`, which holds exactly the live entries.
        let mut rest = refs;
        while rest != 0 {
            let j = rest.trailing_zeros() as usize;
            rest &= rest - 1;
            let common = my_bitmap.overlap(self.bitmaps[j]);
            best_any = best_any.max(common);
            if common as isize > best_c {
                best_c = common as isize;
                best_j = j;
            }
        }
        // Similarity is a popcount of two ANDed segment bitmaps, so it is
        // bounded by the bitmap width — no saturating narrowing needed.
        debug_assert!(best_any <= 16, "overlap exceeds the 16-bit segment bitmap");
        tel.emit(EventKind::TlpLookup, triggered_at, ch, || EventData::TlpLookup {
            page,
            neighbours,
            best_similarity: best_any as u16,
        });
        if best_j == usize::MAX {
            let reason = if neighbours == 0 {
                TransferReject::NoNeighbour
            } else {
                TransferReject::LowSimilarity
            };
            reject(tel, reason);
            return;
        }
        let (pattern, donor) = (self.bitmaps[best_j], self.pages[best_j]);
        let todo = pattern.minus(my_bitmap);
        if todo.is_empty() {
            reject(tel, TransferReject::NothingNew);
            return;
        }
        tel.emit(EventKind::TlpTransferAccept, triggered_at, ch, || EventData::TlpTransferAccept {
            page,
            donor,
            similarity: best_c as u16,
            issued: todo.bits(),
        });
        let page_num = PageNum::new(page);
        for pos in todo.iter_set() {
            let addr = PhysAddr::from_parts(page_num, SegmentIndex::new(self.segment).block(pos));
            out.push(PrefetchRequest::new(addr, PrefetchOrigin::Tlp, triggered_at));
        }
    }

    pub(crate) fn occupancy(&self) -> usize {
        self.by_page.len()
    }
}

/// The standalone four-channel TLP prefetcher (Figure 9's "TLP-only").
#[derive(Debug, Clone)]
pub struct Tlp {
    cfg: TlpConfig,
    channels: Vec<ChannelTlp>,
    tel: Telemetry,
}

impl Tlp {
    /// Creates a four-channel TLP.
    pub fn new(cfg: TlpConfig) -> Self {
        Self {
            channels: (0..NUM_CHANNELS).map(|s| ChannelTlp::new_for_segment(&cfg, s)).collect(),
            cfg,
            tel: Telemetry::counting_only(),
        }
    }

    /// The configuration in use.
    pub fn config(&self) -> &TlpConfig {
        &self.cfg
    }

    /// Valid RPT entries in one channel, for diagnostics.
    ///
    /// # Panics
    ///
    /// Panics if `channel >= 4`.
    pub fn occupancy(&self, channel: usize) -> usize {
        self.channels[channel].occupancy()
    }
}

impl Default for Tlp {
    fn default() -> Self {
        Self::new(TlpConfig::default())
    }
}

impl Prefetcher for Tlp {
    fn name(&self) -> &str {
        "TLP"
    }

    fn on_access(&mut self, access: &MemAccess, hit: bool, out: &mut Vec<PrefetchRequest>) {
        let ch = access.addr.channel().as_usize();
        let page = access.addr.page().as_u64();
        let offset = access.addr.block_index().index_in_segment();
        let tlp = &mut self.channels[ch];
        tlp.learn(page, offset, access.cycle, &mut self.tel);
        if !hit {
            tlp.issue(page, offset, access.cycle, out, &mut self.tel);
        }
    }

    fn storage_bits(&self) -> u64 {
        crate::storage::tlp_bits(&self.cfg) * NUM_CHANNELS as u64
    }

    fn table_accesses(&self) -> u64 {
        self.channels.iter().map(|c| c.accesses).sum()
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
    use proptest::prelude::*;

    use super::*;
    use crate::recency::lru_scan;
    use planaria_common::BlockIndex;

    /// Naive Ref row: the paper's pairwise predicate, slot by slot.
    fn pairwise_ref_row(ch: &ChannelTlp, i: usize) -> u128 {
        let mut row = 0u128;
        for j in 0..ch.occupancy() {
            if j != i && ch.pages[j].abs_diff(ch.pages[i]) <= ch.cfg.distance_threshold {
                row |= 1u128 << j;
            }
        }
        row
    }

    /// The slot holding `page`, looked up the way `learn` and `issue` do.
    fn slot_of(ch: &mut ChannelTlp, page: u64) -> Option<usize> {
        let at = ch.find(page).ok()?;
        Some(ch.by_page[at].1 as usize)
    }

    /// `slot`'s derived Ref row, looked up the way `issue` does.
    fn row_of(ch: &mut ChannelTlp, slot: usize) -> u128 {
        let at = ch.find(ch.pages[slot]).expect("an occupied slot is indexed");
        ch.ref_row(at)
    }

    /// Distance thresholds the property tests draw from: none, adjacent
    /// pages, the paper's default, and every page (the row range
    /// saturates at both ends).
    const DISTANCES: [u64; 4] = [0, 1, 64, u64::MAX];

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The RPT against a naive model: a dense slot vector with the
        /// same first-minimum LRU eviction, but plain linear search in
        /// place of the sorted index, the recency list and the memo.
        /// Stamps come from a small range, so LRU ties and time running
        /// backwards are common. Membership must agree after every learn,
        /// and every slot's derived Ref row must equal the scalar pairwise
        /// predicate.
        #[test]
        fn rpt_index_and_ref_rows_match_naive_model(
            steps in proptest::collection::vec((0u64..200, 0usize..16, 0u64..8), 1..300),
            distance in 0usize..DISTANCES.len(),
        ) {
            let cfg = TlpConfig {
                entries: 16,
                distance_threshold: DISTANCES[distance],
                ..TlpConfig::default()
            };
            let mut ch = ChannelTlp::new_for_segment(&cfg, 0);
            let mut tel = Telemetry::counting_only();
            // Model slots: (page, last). Same shape, naive operations.
            let mut model: Vec<(u64, Cycle)> = Vec::new();
            for &(page, offset, stamp) in &steps {
                let now = Cycle::new(stamp * 10);
                ch.learn(page, offset, now, &mut tel);
                if let Some(e) = model.iter_mut().find(|e| e.0 == page) {
                    e.1 = now;
                } else if model.len() < cfg.entries {
                    model.push((page, now));
                } else {
                    let v = model
                        .iter()
                        .enumerate()
                        .min_by_key(|(_, &(_, last))| last)
                        .map(|(s, _)| s)
                        .expect("model is full");
                    model[v] = (page, now);
                }
                prop_assert_eq!(ch.occupancy(), model.len());
                for (slot, &(page, _)) in model.iter().enumerate() {
                    prop_assert_eq!(ch.pages[slot], page, "slot contents diverged");
                    prop_assert_eq!(slot_of(&mut ch, page), Some(slot), "index lookup diverged");
                }
                for slot in 0..ch.occupancy() {
                    let want = pairwise_ref_row(&ch, slot);
                    prop_assert_eq!(row_of(&mut ch, slot), want, "derived Ref row diverged");
                }
            }
        }

        /// The popcount donor scan against a scalar reference: walk every
        /// other slot, apply the distance predicate, count common bits
        /// with nested loops, keep the first strict maximum at or above
        /// the confidence threshold. The prefetches `issue` emits must be
        /// exactly the reference donor's unseen blocks, whatever the
        /// stamps and the distance threshold.
        #[test]
        fn issue_matches_scalar_pairwise_reference(
            steps in proptest::collection::vec((0u64..40, 0usize..16, 0u64..8), 1..200),
            trigger in 0u64..40,
            distance in 0usize..DISTANCES.len(),
        ) {
            let cfg = TlpConfig {
                entries: 8,
                distance_threshold: DISTANCES[distance],
                ..TlpConfig::default()
            };
            let mut ch = ChannelTlp::new_for_segment(&cfg, 0);
            let mut tel = Telemetry::counting_only();
            for &(page, offset, stamp) in &steps {
                ch.learn(page, offset, Cycle::new(stamp * 10), &mut tel);
            }
            // Scalar reference over a snapshot of the table.
            let mut want: Vec<usize> = Vec::new();
            if let Some(i) = ch.pages[..ch.occupancy()].iter().position(|&p| p == trigger) {
                let my = ch.bitmaps[i];
                let mut best: Option<(usize, usize)> = None; // (common, slot)
                for j in 0..ch.occupancy() {
                    if j == i || ch.pages[j].abs_diff(trigger) > cfg.distance_threshold {
                        continue;
                    }
                    let mut common = 0usize;
                    for b in 0..16 {
                        if my.get(b) && ch.bitmaps[j].get(b) {
                            common += 1;
                        }
                    }
                    if common >= cfg.min_common_bits
                        && best.is_none_or(|(c, _)| common > c)
                    {
                        best = Some((common, j));
                    }
                }
                if let Some((_, j)) = best {
                    want = ch.bitmaps[j].minus(my).iter_set().collect();
                }
            }
            let mut out = Vec::new();
            ch.issue(trigger, 0, Cycle::new(1_000_000), &mut out, &mut tel);
            let got: Vec<usize> =
                out.iter().map(|r| r.addr.block_index().index_in_segment()).collect();
            prop_assert_eq!(got, want, "popcount scan diverged from the scalar reference");
        }

        /// The recency list against the timestamps it orders: after every
        /// learn it holds exactly the occupied slots in non-decreasing
        /// stamp order, and its victim is the linear scan's first minimum.
        #[test]
        fn recency_list_is_an_exact_lru_order(
            steps in proptest::collection::vec((0u64..24, 0u64..8), 1..300),
        ) {
            let cfg = TlpConfig { entries: 8, ..TlpConfig::default() };
            let mut ch = ChannelTlp::new_for_segment(&cfg, 0);
            let mut tel = Telemetry::counting_only();
            for &(page, stamp) in &steps {
                ch.learn(page, 0, Cycle::new(stamp * 10), &mut tel);
                let lasts = &ch.lasts[..ch.occupancy()];
                let mut order = ch.recency.order();
                prop_assert!(
                    order.windows(2).all(|w| lasts[w[0]] <= lasts[w[1]]),
                    "recency list out of stamp order"
                );
                prop_assert_eq!(
                    Some(ch.recency.victim(lasts, 0..lasts.len(), |s| s)),
                    lru_scan(0..lasts.len(), lasts, |s| s),
                    "victim diverged"
                );
                order.sort_unstable();
                prop_assert_eq!(order, (0..lasts.len()).collect::<Vec<_>>(), "list lost a slot");
            }
        }
    }

    fn access(page: u64, block: usize, cycle: u64) -> MemAccess {
        MemAccess::read(
            PhysAddr::from_parts(PageNum::new(page), BlockIndex::new(block)),
            Cycle::new(cycle),
        )
    }

    /// Touches `blocks` of `page` as misses, returning all requests.
    fn touch(tlp: &mut Tlp, page: u64, blocks: &[usize], t0: u64) -> Vec<PrefetchRequest> {
        let mut out = Vec::new();
        for (i, &b) in blocks.iter().enumerate() {
            tlp.on_access(&access(page, b, t0 + 10 * i as u64), false, &mut out);
        }
        out
    }

    #[test]
    fn transfers_pattern_from_neighbour() {
        // Pin the confidence threshold at the paper example's four bits so
        // the transfer fires exactly once, after the fourth common block.
        let mut tlp = Tlp::new(TlpConfig { min_common_bits: 4, ..TlpConfig::default() });
        // Page 100 establishes a pattern: blocks {0,2,4,6,8} (segment 0).
        touch(&mut tlp, 100, &[0, 2, 4, 6, 8], 0);
        // Page 101 (neighbour) touches 4 blocks shared with page 100.
        let out = touch(&mut tlp, 101, &[0, 2, 4, 6], 1000);
        let mut got: Vec<usize> = out.iter().map(|r| r.addr.block_index().as_usize()).collect();
        got.sort();
        got.dedup();
        assert_eq!(got, vec![8], "only the not-yet-touched common-pattern block");
        assert!(out.iter().all(|r| r.origin == PrefetchOrigin::Tlp));
        assert!(out.iter().all(|r| r.addr.page().as_u64() == 101));
    }

    #[test]
    fn default_threshold_transfers_after_two_common_bits() {
        let mut tlp = Tlp::default();
        touch(&mut tlp, 100, &[0, 2, 4, 6, 8], 0);
        // With the per-segment default (2 common bits) the transfer already
        // fires on the second shared block.
        let out = touch(&mut tlp, 101, &[0, 2], 1000);
        let got: std::collections::BTreeSet<usize> =
            out.iter().map(|r| r.addr.block_index().as_usize()).collect();
        assert!(got.contains(&4) && got.contains(&6) && got.contains(&8), "{got:?}");
    }

    #[test]
    fn far_pages_are_not_neighbours() {
        let mut tlp = Tlp::default();
        touch(&mut tlp, 100, &[0, 2, 4, 6, 8], 0);
        // Distance 65 > threshold 64.
        let out = touch(&mut tlp, 165, &[0, 2, 4, 6], 1000);
        assert!(out.is_empty());
    }

    #[test]
    fn distance_threshold_is_inclusive() {
        let mut tlp = Tlp::default();
        touch(&mut tlp, 100, &[0, 2, 4, 6, 8], 0);
        let out = touch(&mut tlp, 164, &[0, 2, 4, 6], 1000);
        assert!(!out.is_empty(), "distance exactly 64 is a neighbour");
    }

    #[test]
    fn requires_min_common_bits() {
        let mut tlp = Tlp::new(TlpConfig { min_common_bits: 4, ..TlpConfig::default() });
        touch(&mut tlp, 100, &[0, 2, 4, 6, 8], 0);
        // Only 3 common bits: below the configured 4-bit threshold.
        let out = touch(&mut tlp, 101, &[0, 2, 4], 1000);
        assert!(out.is_empty());
    }

    #[test]
    fn picks_most_similar_neighbour() {
        let mut tlp = Tlp::default();
        // Page B (=100): 6 blocks; page C (=102): different 5-block pattern
        // sharing only 4 bits with A's prefix.
        touch(&mut tlp, 100, &[0, 2, 4, 6, 8, 10], 0);
        touch(&mut tlp, 102, &[0, 2, 4, 6, 15], 500);
        // Page A (=101) touches five blocks common to B (5 with B, 4 with C).
        let out = touch(&mut tlp, 101, &[0, 2, 4, 6, 8], 1000);
        let got: std::collections::BTreeSet<usize> =
            out.iter().map(|r| r.addr.block_index().as_usize()).collect();
        assert!(got.contains(&10), "pattern must come from B: {got:?}");
        assert!(!got.contains(&15), "C must lose the similarity contest: {got:?}");
    }

    #[test]
    fn equal_similarity_ties_break_on_slot_order() {
        // Two donors with *identical* overlap against the trigger: the
        // winner must be the earlier-allocated RPT slot (first maximum in
        // Ref-bit order), regardless of which donor page number is larger.
        // Pinned because a saturating similarity cast could manufacture
        // exactly this tie between genuinely different scores.
        for &(first, second) in &[(100u64, 102u64), (102, 100)] {
            let mut tlp = Tlp::default();
            // Donors share blocks {0,2} with the upcoming trigger but
            // differ in their tails, so the transferred pattern reveals
            // the chosen donor.
            let tail = |p: u64| if p == 100 { 8usize } else { 10 };
            touch(&mut tlp, first, &[0, 2, tail(first)], 0);
            touch(&mut tlp, second, &[0, 2, tail(second)], 500);
            let out = touch(&mut tlp, 101, &[0, 2], 1000);
            let got: std::collections::BTreeSet<usize> =
                out.iter().map(|r| r.addr.block_index().as_usize()).collect();
            let want_tail = tail(first);
            assert!(
                got.contains(&want_tail),
                "first-allocated donor {first} must win the tie: {got:?}"
            );
        }
    }

    #[test]
    fn no_issue_on_hits() {
        let mut tlp = Tlp::default();
        touch(&mut tlp, 100, &[0, 2, 4, 6, 8], 0);
        let mut out = Vec::new();
        for (i, b) in [0usize, 2, 4, 6].into_iter().enumerate() {
            tlp.on_access(&access(101, b, 1000 + i as u64 * 10), true, &mut out);
        }
        assert!(out.is_empty());
    }

    #[test]
    fn rpt_eviction_clears_ref_bits() {
        let cfg = TlpConfig { entries: 2, ..TlpConfig::default() };
        let mut tlp = Tlp::new(cfg);
        touch(&mut tlp, 100, &[0, 2, 4, 6, 8], 0);
        touch(&mut tlp, 101, &[1, 3], 100);
        // Page 300 evicts the LRU entry (page 100).
        touch(&mut tlp, 300, &[5], 200);
        // Page 101 re-accessed: its old neighbour is gone; no transfer.
        let out = touch(&mut tlp, 101, &[0, 2, 4, 6], 300);
        assert!(out.is_empty(), "evicted neighbour must not donate a pattern");
        assert_eq!(tlp.occupancy(0), 2);
    }

    #[test]
    fn retouched_tail_with_an_earlier_stamp_becomes_lru() {
        // Page 101 is the most recent entry, then is touched again at a
        // stamp before page 100's: it is now the least recent, so the
        // next allocation must evict it even though it was touched last.
        let cfg = TlpConfig { entries: 2, ..TlpConfig::default() };
        let mut ch = ChannelTlp::new_for_segment(&cfg, 0);
        let mut tel = Telemetry::counting_only();
        ch.learn(100, 0, Cycle::new(10), &mut tel);
        ch.learn(101, 0, Cycle::new(20), &mut tel);
        ch.learn(101, 1, Cycle::new(5), &mut tel);
        ch.learn(102, 0, Cycle::new(30), &mut tel);
        assert!(slot_of(&mut ch, 100).is_some(), "page 100 is the more recent entry");
        assert!(slot_of(&mut ch, 101).is_none(), "page 101 must be the victim");
    }

    #[test]
    fn segment_routing() {
        let mut tlp = Tlp::default();
        // Segment 2 blocks (32..48).
        touch(&mut tlp, 100, &[32, 34, 36, 38, 40], 0);
        let out = touch(&mut tlp, 101, &[32, 34, 36, 38], 1000);
        assert!(!out.is_empty());
        for r in &out {
            assert_eq!(r.addr.channel().as_usize(), 2);
        }
    }

    #[test]
    #[should_panic(expected = "RPT entries")]
    fn rejects_oversized_rpt() {
        let _ = Tlp::new(TlpConfig { entries: 129, ..TlpConfig::default() });
    }

    #[test]
    fn storage_accounting() {
        let tlp = Tlp::default();
        assert!(tlp.storage_bits() > 0);
    }
}
