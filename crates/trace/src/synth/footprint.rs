//! The footprint-snapshot traffic component (Observation 1).
//!
//! Models the paper's Figure 2 behaviour: a pool of pages, each with a
//! stable *footprint snapshot* (a fixed set of blocks). Pages are revisited
//! in rounds (long reuse distance); within a visit the snapshot's blocks
//! arrive in a **shuffled, non-deterministic order** over a brief interval,
//! which is exactly what defeats delta-sequence prefetchers while leaving
//! the bitmap pattern fully predictable for SLP.
//!
//! Snapshot *stability* is parameterised: with probability
//! [`FootprintSpec::mutation_prob`] a revisit first swaps
//! [`FootprintSpec::mutation_bits`] blocks of the snapshot for fresh ones.
//! The expected window-overlap rate measured by the Figure 4 methodology is
//! therefore roughly `1 − mutation_prob × mutation_bits / footprint_blocks`,
//! which is how the per-app overlap levels of Figure 4 are dialled in.

use planaria_common::{Bitmap64, BlockIndex, Cycle, MemAccess, PageNum, PhysAddr, BLOCKS_PER_PAGE};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::Rng;

use super::{emit_one, random_footprint, rng_for, sample_gap, swap_blocks, Envelope};

/// Parameters of the footprint component.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FootprintSpec {
    /// Number of pages in the revisited pool.
    pub pages: usize,
    /// Blocks per snapshot (out of 64).
    pub footprint_blocks: usize,
    /// Probability that a revisit mutates the snapshot first.
    pub mutation_prob: f64,
    /// Blocks swapped per mutation.
    pub mutation_bits: usize,
    /// Mean cycles between blocks within one visit.
    pub intra_gap: u64,
    /// Mean cycles between consecutive page visits.
    pub inter_gap: u64,
    /// Page-number spacing between pool pages (1 = contiguous).
    ///
    /// Physical pages of a mobile app's hot working set are scattered by
    /// the allocator; spacing the pool out removes the artificial
    /// cross-page adjacency that a contiguous pool would hand to offset
    /// prefetchers.
    pub page_spread: u64,
    /// Device / read-ratio envelope.
    pub envelope: Envelope,
}

impl Default for FootprintSpec {
    /// A medium-size pool whose snapshots overlap ≈94% between visits —
    /// in the middle of the paper's Figure 4 range.
    fn default() -> Self {
        Self {
            pages: 2048,
            footprint_blocks: 16,
            mutation_prob: 0.5,
            mutation_bits: 2,
            intra_gap: 60,
            inter_gap: 600,
            page_spread: 1,
            envelope: Envelope::default(),
        }
    }
}

impl FootprintSpec {
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

    pub(crate) fn generator(&self, seed: u64, region_base: PageNum) -> FootprintGen {
        assert!(self.pages > 0, "footprint pool must be non-empty");
        assert!(
            self.footprint_blocks > 0 && self.footprint_blocks <= BLOCKS_PER_PAGE,
            "footprint_blocks out of range"
        );
        assert!(self.page_spread > 0, "page_spread must be positive");
        let mut rng = rng_for(seed, 0x0F00);
        // Per-page stable snapshots.
        let snapshots: Vec<Bitmap64> =
            (0..self.pages).map(|_| random_footprint(&mut rng, self.footprint_blocks)).collect();
        let order: Vec<usize> = (0..self.pages).collect();
        FootprintGen {
            spec: *self,
            rng,
            region_base,
            snapshots,
            // `next_pi == order.len()` forces the round-start shuffle on
            // the first call, matching the bulk loop's draw order.
            next_pi: order.len(),
            order,
            page: PageNum::new(0),
            blocks: Vec::new(),
            block_pos: 0,
            clock: Cycle::ZERO,
            started: false,
        }
    }
}

/// Resumable [`FootprintSpec`] generator.
///
/// Visit boundaries are prepared lazily: the inter-visit gap, the per-round
/// pool shuffle and the snapshot mutation are all drawn exactly when the
/// bulk `generate` loop would draw them, so any prefix of emitted accesses
/// is bit-identical to the materialized sequence.
pub(crate) struct FootprintGen {
    spec: FootprintSpec,
    rng: StdRng,
    region_base: PageNum,
    snapshots: Vec<Bitmap64>,
    /// Visit order of the current round; shuffled in place each round, so
    /// its state is cumulative across rounds.
    order: Vec<usize>,
    next_pi: usize,
    page: PageNum,
    blocks: Vec<usize>,
    block_pos: usize,
    clock: Cycle,
    started: bool,
}

impl FootprintGen {
    pub(crate) fn next_access(&mut self) -> MemAccess {
        if self.block_pos == self.blocks.len() {
            // Between visits: close out the previous one, then prepare the
            // next page's shuffled block burst.
            if self.started {
                self.clock += sample_gap(&mut self.rng, self.spec.inter_gap);
            }
            if self.next_pi == self.order.len() {
                // A round visits every page once, in fresh random order:
                // the reuse distance of a snapshot is the whole pool.
                self.order.shuffle(&mut self.rng);
                self.next_pi = 0;
            }
            let pi = self.order[self.next_pi];
            self.next_pi += 1;
            // Occasional drift keeps the snapshot's overlap below 100%.
            if self.rng.gen_bool(self.spec.mutation_prob.clamp(0.0, 1.0)) {
                self.snapshots[pi] =
                    swap_blocks(&mut self.rng, self.snapshots[pi], self.spec.mutation_bits);
            }
            self.page = PageNum::new(self.region_base.as_u64() + pi as u64 * self.spec.page_spread);
            self.blocks.clear();
            self.blocks.extend(self.snapshots[pi].iter_set());
            self.blocks.shuffle(&mut self.rng); // non-deterministic intra-visit order
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

    fn gen(spec: &FootprintSpec, count: usize) -> Vec<MemAccess> {
        let mut out = Vec::new();
        spec.generate(99, count, PageNum::new(1 << 24), &mut out);
        out
    }

    #[test]
    fn generates_requested_count() {
        let out = gen(&FootprintSpec::default(), 1000);
        assert_eq!(out.len(), 1000);
    }

    #[test]
    fn addresses_stay_in_region_and_pool() {
        let spec = FootprintSpec { pages: 8, ..FootprintSpec::default() };
        let out = gen(&spec, 500);
        for a in &out {
            let p = a.addr.page().as_u64();
            assert!((1 << 24..(1 << 24) + 8).contains(&p), "page {p} outside pool");
        }
    }

    #[test]
    fn snapshot_is_stable_without_mutation() {
        let spec = FootprintSpec {
            pages: 4,
            mutation_prob: 0.0,
            footprint_blocks: 8,
            ..FootprintSpec::default()
        };
        let out = gen(&spec, 4 * 8 * 5); // five full rounds
                                         // Each page's set of blocks must be identical across visits.
        let mut per_page: BTreeMap<u64, Bitmap64> = BTreeMap::new();
        let mut counts: BTreeMap<u64, usize> = BTreeMap::new();
        for a in &out {
            let p = a.addr.page().as_u64();
            per_page.entry(p).or_insert(Bitmap64::EMPTY).set(a.addr.block_index().as_usize());
            *counts.entry(p).or_default() += 1;
        }
        for (p, bm) in per_page {
            // With zero mutation, total distinct blocks == footprint size.
            assert_eq!(bm.count(), 8, "page {p} drifted");
            assert!(counts[&p] >= 8, "page {p} was not revisited");
        }
    }

    #[test]
    fn mutation_changes_snapshot_but_keeps_size() {
        let mut rng = rng_for(1, 2);
        let before = random_footprint(&mut rng, 16);
        let fp = swap_blocks(&mut rng, before, 2);
        assert_eq!(fp.count(), 16);
        assert!(before.hamming_distance(fp) > 0);
        assert!(before.hamming_distance(fp) <= 4); // 2 swaps => at most 4 bits
    }

    #[test]
    fn cycles_are_monotonic() {
        let out = gen(&FootprintSpec::default(), 300);
        assert!(out.windows(2).all(|w| w[0].cycle <= w[1].cycle));
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn rejects_empty_pool() {
        let spec = FootprintSpec { pages: 0, ..FootprintSpec::default() };
        let _ = gen(&spec, 10);
    }
}
