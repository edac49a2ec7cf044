//! A PC-free adaptation of Spatial Memory Streaming (Somogyi et al.,
//! ISCA 2006) — the classic *spatial* prefetcher family the paper cites as
//! related work.
//!
//! Original SMS keys its spatial patterns by `(PC, trigger offset)`; no PC
//! exists at the system cache, so this adaptation keys by the **trigger
//! offset alone**: the block offset of the first access of a page
//! *generation*. All pages therefore share one global pattern table —
//! exactly the kind of small global history the paper argues misfires at
//! SC granularity (§related work: "making a prediction based on small
//! global history tables shared by all pages would incur many
//! mispredictions"). Having it as a baseline lets the repository measure
//! that argument instead of just citing it.
//!
//! Mechanism:
//!
//! * an **active generation table** accumulates the footprint bitmap of
//!   each recently touched page (ended by idle timeout or eviction);
//! * a finished generation stores its bitmap in the **pattern history
//!   table**, indexed by the generation's trigger offset;
//! * a *new* generation's trigger looks up that table and prefetches the
//!   predicted footprint in the new page.

use std::collections::{HashMap, VecDeque};

use planaria_common::{
    Bitmap64, BlockIndex, Cycle, MemAccess, PageNum, PhysAddr, PrefetchOrigin, PrefetchRequest,
    BLOCKS_PER_PAGE,
};
use planaria_core::Prefetcher;

/// SMS tuning parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SmsConfig {
    /// Active-generation table capacity (pages tracked concurrently).
    pub active_entries: usize,
    /// Idle cycles after which a generation is considered complete.
    pub generation_timeout: u64,
    /// Minimum blocks in a finished generation for it to train the PHT
    /// (single-block generations carry no spatial signal).
    pub min_pattern_blocks: usize,
}

impl Default for SmsConfig {
    fn default() -> Self {
        Self { active_entries: 256, generation_timeout: 2000, min_pattern_blocks: 3 }
    }
}

#[derive(Debug, Clone, Copy)]
struct Generation {
    trigger_offset: u8,
    bitmap: Bitmap64,
    last: Cycle,
}

/// The PC-free SMS prefetcher.
#[derive(Debug, Clone)]
pub struct Sms {
    cfg: SmsConfig,
    active: HashMap<u64, Generation>,
    expiry: VecDeque<(u64, Cycle)>,
    /// Pattern history indexed by trigger offset (0..64).
    pht: [Bitmap64; BLOCKS_PER_PAGE],
    pht_valid: [bool; BLOCKS_PER_PAGE],
    accesses: u64,
}

impl Sms {
    /// Creates an SMS instance.
    ///
    /// # Panics
    ///
    /// Panics if `active_entries` is zero.
    pub fn new(cfg: SmsConfig) -> Self {
        assert!(cfg.active_entries > 0, "active table must be non-empty");
        Self {
            active: HashMap::with_capacity(cfg.active_entries),
            expiry: VecDeque::new(),
            pht: [Bitmap64::EMPTY; BLOCKS_PER_PAGE],
            pht_valid: [false; BLOCKS_PER_PAGE],
            accesses: 0,
            cfg,
        }
    }

    fn train(&mut self, gen: Generation) {
        if gen.bitmap.count() >= self.cfg.min_pattern_blocks {
            self.pht[gen.trigger_offset as usize] = gen.bitmap;
            self.pht_valid[gen.trigger_offset as usize] = true;
        }
    }

    fn sweep(&mut self, now: Cycle) {
        while let Some(&(page, stamped)) = self.expiry.front() {
            if now.since(stamped) < self.cfg.generation_timeout {
                break;
            }
            self.expiry.pop_front();
            if let Some(gen) = self.active.get(&page).copied() {
                if now.since(gen.last) >= self.cfg.generation_timeout {
                    self.active.remove(&page);
                    self.train(gen);
                } else {
                    let last = gen.last;
                    self.expiry.push_back((page, last));
                }
            }
        }
    }

    fn evict_oldest(&mut self) {
        if let Some((&victim, _)) = self.active.iter().min_by_key(|(_, g)| g.last) {
            let gen = self.active.remove(&victim).expect("victim exists");
            self.train(gen);
        }
    }
}

impl Default for Sms {
    fn default() -> Self {
        Self::new(SmsConfig::default())
    }
}

impl Prefetcher for Sms {
    fn name(&self) -> &str {
        "SMS"
    }

    fn on_access(&mut self, access: &MemAccess, hit: bool, out: &mut Vec<PrefetchRequest>) {
        self.accesses += 1;
        let now = access.cycle;
        self.sweep(now);
        let page = access.addr.page().as_u64();
        let offset = access.addr.block_index().as_usize();
        match self.active.get_mut(&page) {
            Some(gen) => {
                gen.bitmap.set(offset);
                gen.last = now;
            }
            None => {
                // New generation: predict from the global trigger-offset
                // pattern, then start accumulating.
                if self.active.len() >= self.cfg.active_entries {
                    self.evict_oldest();
                }
                self.active.insert(
                    page,
                    Generation {
                        trigger_offset: offset as u8,
                        bitmap: Bitmap64::EMPTY.with(offset),
                        last: now,
                    },
                );
                self.expiry.push_back((page, now));
                if !hit && self.pht_valid[offset] {
                    let predicted = self.pht[offset];
                    let page_num = PageNum::new(page);
                    for b in predicted.iter_set() {
                        if b == offset {
                            continue;
                        }
                        let addr = PhysAddr::from_parts(page_num, BlockIndex::new(b));
                        out.push(PrefetchRequest::new(addr, PrefetchOrigin::Baseline, now));
                    }
                }
            }
        }
    }

    fn storage_bits(&self) -> u64 {
        // Active: tag + trigger + bitmap + timestamp; PHT: 64 x 64-bit + valid.
        let active_entry = 36 + 6 + 64 + 32;
        self.cfg.active_entries as u64 * active_entry + BLOCKS_PER_PAGE as u64 * 65
    }

    fn table_accesses(&self) -> u64 {
        self.accesses
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn access(page: u64, block: usize, cycle: u64) -> MemAccess {
        MemAccess::read(
            PhysAddr::from_parts(PageNum::new(page), BlockIndex::new(block)),
            Cycle::new(cycle),
        )
    }

    fn run(sms: &mut Sms, page: u64, blocks: &[usize], t0: u64) -> Vec<PrefetchRequest> {
        let mut out = Vec::new();
        for (i, &b) in blocks.iter().enumerate() {
            sms.on_access(&access(page, b, t0 + 10 * i as u64), false, &mut out);
        }
        out
    }

    #[test]
    fn learns_trigger_keyed_pattern_and_replays_cross_page() {
        let mut sms = Sms::default();
        // Page 1: generation triggered at offset 5, footprint {5,10,20}.
        run(&mut sms, 1, &[5, 10, 20], 0);
        // Idle past the timeout finishes the generation into the PHT.
        // A *different* page triggering at the same offset gets the pattern.
        let out = run(&mut sms, 9, &[5], 50_000);
        let mut got: Vec<usize> = out.iter().map(|r| r.addr.block_index().as_usize()).collect();
        got.sort();
        assert_eq!(got, vec![10, 20]);
        assert!(out.iter().all(|r| r.addr.page().as_u64() == 9));
    }

    #[test]
    fn different_trigger_offset_misses_pht() {
        let mut sms = Sms::default();
        run(&mut sms, 1, &[5, 10, 20], 0);
        let out = run(&mut sms, 9, &[6], 50_000);
        assert!(out.is_empty(), "offset 6 never trained");
    }

    #[test]
    fn global_table_cross_trains_unrelated_pages() {
        // The structural weakness the paper points at: two unrelated pages
        // with the same trigger offset clobber each other's pattern.
        let mut sms = Sms::default();
        run(&mut sms, 1, &[5, 10, 20], 0);
        run(&mut sms, 2, &[5, 30, 40], 50_000); // same trigger, other pattern
        let out = run(&mut sms, 9, &[5], 100_000);
        let got: std::collections::BTreeSet<usize> =
            out.iter().map(|r| r.addr.block_index().as_usize()).collect();
        // Page 2's generation overwrote page 1's: the prediction follows
        // the most recent generation, right or wrong.
        assert!(got.contains(&30) && got.contains(&40), "{got:?}");
        assert!(!got.contains(&10), "{got:?}");
    }

    #[test]
    fn sparse_generations_do_not_train() {
        let mut sms = Sms::default();
        run(&mut sms, 1, &[5, 10], 0); // below min_pattern_blocks
        let out = run(&mut sms, 9, &[5], 50_000);
        assert!(out.is_empty());
    }

    #[test]
    fn no_issue_on_hits() {
        let mut sms = Sms::default();
        run(&mut sms, 1, &[5, 10, 20], 0);
        let mut out = Vec::new();
        sms.on_access(&access(9, 5, 50_000), true, &mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn capacity_eviction_still_trains() {
        let mut sms = Sms::new(SmsConfig { active_entries: 2, ..SmsConfig::default() });
        run(&mut sms, 1, &[5, 10, 20], 0);
        run(&mut sms, 2, &[8, 9], 100);
        // Page 3 evicts page 1 (oldest), whose generation trains the PHT.
        run(&mut sms, 3, &[1], 200);
        let out = run(&mut sms, 9, &[5], 300);
        assert!(!out.is_empty(), "evicted generation must have trained");
    }

    #[test]
    fn storage_is_small() {
        let sms = Sms::default();
        assert!(sms.storage_bits() < 8 * 8 * 1024, "SMS metadata is a few KB");
    }
}
