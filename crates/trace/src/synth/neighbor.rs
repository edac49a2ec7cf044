//! The neighbouring-page traffic component (Observation 2).
//!
//! Models the paper's Figure 5/6 behaviour: *clusters* of contiguous pages
//! share a common footprint pattern with small per-page noise. Pages within
//! a cluster are touched in address order and (by default) only once, so a
//! history-based intra-page prefetcher (SLP) never accumulates metadata for
//! them — but by the time page *i+1* is touched, page *i* already sits in
//! TLP's Recent Page Table with a near-identical bitmap, so TLP can transfer
//! the pattern across the page boundary after the first few confirming
//! blocks.

use planaria_common::{Bitmap64, BlockIndex, Cycle, MemAccess, PageNum, PhysAddr, BLOCKS_PER_PAGE};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::Rng;

use super::{emit_one, random_footprint, rng_for, sample_gap, swap_blocks, Envelope};

/// Parameters of the neighbouring-cluster component.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NeighborSpec {
    /// Contiguous pages per cluster.
    pub cluster_span: usize,
    /// Page-number gap between consecutive clusters.
    pub cluster_gap: u64,
    /// Blocks in the shared cluster pattern (out of 64).
    pub footprint_blocks: usize,
    /// Per-page deviation from the cluster pattern, in swapped blocks.
    /// The paper's learnability threshold is a bitmap difference of ≤ 4
    /// bits, i.e. `noise_bits ≤ 2` keeps neighbours learnable.
    pub noise_bits: usize,
    /// Visits per page (1 = one-shot pages, the pure TLP case).
    pub revisits: usize,
    /// Maximum page spacing within a cluster: each cluster draws a spacing
    /// uniformly from `1..=page_spacing_max`, so learnable pairs occur at a
    /// range of page distances (the paper's Figure 5 shows the learnable
    /// fraction growing from distance 4 to 64 — neighbours are not all
    /// adjacent).
    pub page_spacing_max: u64,
    /// Mean cycles between blocks within one visit.
    pub intra_gap: u64,
    /// Mean cycles between page visits.
    pub inter_gap: u64,
    /// Device / read-ratio envelope.
    pub envelope: Envelope,
}

impl Default for NeighborSpec {
    /// Clusters of 16 one-shot pages whose bitmaps differ by ≤ 2 blocks —
    /// learnable neighbours under the paper's 4-bit threshold.
    fn default() -> Self {
        Self {
            cluster_span: 16,
            cluster_gap: 48,
            footprint_blocks: 16,
            noise_bits: 1,
            revisits: 1,
            page_spacing_max: 1,
            intra_gap: 120,
            inter_gap: 800,
            envelope: Envelope::default(),
        }
    }
}

impl NeighborSpec {
    pub(crate) fn generate(
        &self,
        seed: u64,
        count: usize,
        region_base: PageNum,
        out: &mut Vec<MemAccess>,
    ) {
        let mut gen = self.generator(seed, region_base);
        out.reserve(count);
        for _ in 0..count {
            out.push(gen.next_access());
        }
    }

    pub(crate) fn generator(&self, seed: u64, region_base: PageNum) -> NeighborGen {
        assert!(self.cluster_span > 0, "cluster_span must be positive");
        assert!(
            self.footprint_blocks > 0 && self.footprint_blocks <= BLOCKS_PER_PAGE,
            "footprint_blocks out of range"
        );
        assert!(self.revisits > 0, "revisits must be positive");
        assert!(self.page_spacing_max > 0, "page_spacing_max must be positive");
        NeighborGen {
            spec: *self,
            rng: rng_for(seed, 0xBEEF),
            region_base,
            stride: self.cluster_span as u64 * self.page_spacing_max + self.cluster_gap,
            cluster_idx: 0,
            base_page: 0,
            spacing: 1,
            patterns: Vec::new(),
            visit_order: Vec::new(),
            // Zero rounds left and an exhausted (empty) visit order force a
            // fresh cluster on the first call.
            rounds_left: 0,
            next_vi: 0,
            page: PageNum::new(0),
            blocks: Vec::new(),
            block_pos: 0,
            clock: Cycle::ZERO,
            started: false,
        }
    }
}

/// Resumable [`NeighborSpec`] generator.
///
/// Cluster setup (spacing, base pattern, per-page noisy patterns) and the
/// per-round visit shuffle are drawn lazily, exactly when the bulk
/// `generate` loop would draw them, so any prefix of emitted accesses is
/// bit-identical to the materialized sequence.
pub(crate) struct NeighborGen {
    spec: NeighborSpec,
    rng: StdRng,
    region_base: PageNum,
    stride: u64,
    cluster_idx: u64,
    base_page: u64,
    spacing: u64,
    patterns: Vec<Bitmap64>,
    /// Visit order within the current cluster; reset to identity per
    /// cluster and shuffled in place each round (cumulative within the
    /// cluster), matching the bulk loop.
    visit_order: Vec<usize>,
    rounds_left: usize,
    next_vi: usize,
    page: PageNum,
    blocks: Vec<usize>,
    block_pos: usize,
    clock: Cycle,
    started: bool,
}

impl NeighborGen {
    pub(crate) fn next_access(&mut self) -> MemAccess {
        if self.block_pos == self.blocks.len() {
            // Between visits: close out the previous one, then advance to
            // the next page — starting a new round or cluster as needed.
            if self.started {
                self.clock += sample_gap(&mut self.rng, self.spec.inter_gap);
            }
            if self.next_vi == self.visit_order.len() {
                if self.rounds_left == 0 {
                    // Fresh cluster of similar pages, spaced `spacing` apart.
                    self.base_page = self.region_base.as_u64() + self.cluster_idx * self.stride;
                    self.spacing = self.rng.gen_range(1..=self.spec.page_spacing_max);
                    self.cluster_idx += 1;
                    let base_pattern = random_footprint(&mut self.rng, self.spec.footprint_blocks);
                    // Per-page bitmaps: base pattern, up to `noise_bits` swaps.
                    self.patterns.clear();
                    self.patterns.extend(
                        (0..self.spec.cluster_span).map(|_| {
                            swap_blocks(&mut self.rng, base_pattern, self.spec.noise_bits)
                        }),
                    );
                    self.visit_order.clear();
                    self.visit_order.extend(0..self.spec.cluster_span);
                    self.rounds_left = self.spec.revisits;
                }
                // Pages of a cluster are visited in *random* order: the RPT
                // still holds previously-visited neighbours (TLP's donor),
                // but there is no fixed cross-page stride for an offset
                // prefetcher to lock onto — matching the paper's premise
                // that neighbour similarity is a bitmap property, not an
                // address-sequence property.
                self.visit_order.shuffle(&mut self.rng);
                self.next_vi = 0;
                self.rounds_left -= 1;
            }
            let pi = self.visit_order[self.next_vi];
            self.next_vi += 1;
            self.page = PageNum::new(self.base_page + pi as u64 * self.spacing);
            self.blocks.clear();
            self.blocks.extend(self.patterns[pi].iter_set());
            self.blocks.shuffle(&mut self.rng);
            self.block_pos = 0;
            self.started = true;
        }
        let b = self.blocks[self.block_pos];
        self.block_pos += 1;
        let addr = PhysAddr::from_parts(self.page, BlockIndex::new(b));
        emit_one(&mut self.rng, &self.spec.envelope, addr, &mut self.clock, self.spec.intra_gap)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    fn gen(spec: &NeighborSpec, count: usize) -> Vec<MemAccess> {
        let mut out = Vec::new();
        spec.generate(5, count, PageNum::new(2 << 24), &mut out);
        out
    }

    #[test]
    fn generates_requested_count() {
        assert_eq!(gen(&NeighborSpec::default(), 700).len(), 700);
    }

    #[test]
    fn one_shot_pages_are_not_revisited_after_completion() {
        let spec = NeighborSpec { revisits: 1, ..NeighborSpec::default() };
        let out = gen(&spec, 2000);
        // Once a page's last access has happened, it never reappears:
        // page visit ranges must not interleave with later visits of the
        // same page (they are one-shot bursts).
        let mut last_seen: BTreeMap<u64, usize> = BTreeMap::new();
        let mut first_seen: BTreeMap<u64, usize> = BTreeMap::new();
        for (i, a) in out.iter().enumerate() {
            let p = a.addr.page().as_u64();
            first_seen.entry(p).or_insert(i);
            last_seen.insert(p, i);
        }
        for (p, &first) in &first_seen {
            let last = last_seen[p];
            // A one-shot visit of ≤16 blocks must span ≤16 trace slots.
            assert!(last - first < 16, "page {p} revisited: span {}", last - first);
        }
    }

    #[test]
    fn neighbouring_pages_have_similar_bitmaps() {
        let spec = NeighborSpec { noise_bits: 1, ..NeighborSpec::default() };
        let out = gen(&spec, 16 * 16); // one full cluster
        let mut bitmaps: BTreeMap<u64, Bitmap64> = BTreeMap::new();
        for a in &out {
            bitmaps
                .entry(a.addr.page().as_u64())
                .or_insert(Bitmap64::EMPTY)
                .set(a.addr.block_index().as_usize());
        }
        let pages: Vec<u64> = bitmaps.keys().copied().collect();
        let mut checked = 0;
        for w in pages.windows(2) {
            if w[1] == w[0] + 1 {
                let d = bitmaps[&w[0]].hamming_distance(bitmaps[&w[1]]);
                // One swap each from the base pattern => at most 4 differing bits.
                assert!(d <= 4, "adjacent pages differ by {d} bits");
                checked += 1;
            }
        }
        assert!(checked >= 4, "too few adjacent pairs to check ({checked})");
    }

    #[test]
    fn clusters_are_separated_in_address_space() {
        let spec = NeighborSpec { cluster_span: 4, cluster_gap: 100, ..NeighborSpec::default() };
        let out = gen(&spec, 800);
        let pages: std::collections::BTreeSet<u64> =
            out.iter().map(|a| a.addr.page().as_u64()).collect();
        let base = 2u64 << 24;
        for p in pages {
            let off = (p - base) % 104;
            assert!(off < 4, "page offset {off} outside cluster span");
        }
    }

    #[test]
    fn noisy_preserves_size() {
        let mut rng = rng_for(3, 4);
        let base = random_footprint(&mut rng, 16);
        let n = swap_blocks(&mut rng, base, 2);
        assert_eq!(n.count(), 16);
        assert!(base.hamming_distance(n) <= 4);
    }

    #[test]
    #[should_panic(expected = "revisits")]
    fn rejects_zero_revisits() {
        let spec = NeighborSpec { revisits: 0, ..NeighborSpec::default() };
        let _ = gen(&spec, 10);
    }
}
