//! Classic reference prefetchers: next-line and PC-free per-page stride.

use planaria_common::{MemAccess, PhysAddr, PrefetchOrigin, PrefetchRequest, BLOCK_SIZE};
use planaria_core::Prefetcher;

/// Next-line prefetching: on every miss to block X, prefetch X+1.
///
/// The simplest possible hardware prefetcher; it calibrates the harnesses
/// (any streaming workload must benefit) and anchors the traffic axis (it
/// fires on *every* miss).
#[derive(Debug, Clone, Copy, Default)]
pub struct NextLine {
    accesses: u64,
}

impl NextLine {
    /// Creates a next-line prefetcher.
    pub const fn new() -> Self {
        Self { accesses: 0 }
    }
}

impl Prefetcher for NextLine {
    fn name(&self) -> &str {
        "NextLine"
    }

    fn on_access(&mut self, access: &MemAccess, hit: bool, out: &mut Vec<PrefetchRequest>) {
        self.accesses += 1;
        if hit {
            return;
        }
        let next = access.addr.block_number() + 1;
        out.push(PrefetchRequest::new(
            PhysAddr::new(next * BLOCK_SIZE),
            PrefetchOrigin::Baseline,
            access.cycle,
        ));
    }

    fn storage_bits(&self) -> u64 {
        0
    }

    fn table_accesses(&self) -> u64 {
        self.accesses
    }
}

/// Stride-prefetcher tuning.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StrideConfig {
    /// Tracked pages.
    pub entries: usize,
    /// Prefetch degree once a stride is confirmed.
    pub degree: usize,
    /// Confirmations required before issuing.
    pub confidence: u8,
}

impl Default for StrideConfig {
    fn default() -> Self {
        Self { entries: 256, degree: 2, confidence: 2 }
    }
}

#[derive(Debug, Clone, Copy, Default)]
struct StrideEntry {
    page: u64,
    last_block: u64,
    stride: i64,
    count: u8,
    valid: bool,
    lru: u64,
}

/// PC-free per-page stride detection (a reference-prediction-table scheme
/// keyed by page number, since no PC exists at the system cache).
#[derive(Debug, Clone)]
pub struct StridePf {
    cfg: StrideConfig,
    table: Vec<StrideEntry>,
    tick: u64,
    accesses: u64,
}

impl StridePf {
    /// Creates a stride prefetcher.
    ///
    /// # Panics
    ///
    /// Panics if `entries` or `degree` is zero.
    pub fn new(cfg: StrideConfig) -> Self {
        assert!(cfg.entries > 0 && cfg.degree > 0, "entries and degree must be positive");
        Self { table: vec![StrideEntry::default(); cfg.entries], tick: 0, accesses: 0, cfg }
    }
}

impl Default for StridePf {
    fn default() -> Self {
        Self::new(StrideConfig::default())
    }
}

impl Prefetcher for StridePf {
    fn name(&self) -> &str {
        "Stride"
    }

    fn on_access(&mut self, access: &MemAccess, hit: bool, out: &mut Vec<PrefetchRequest>) {
        self.accesses += 1;
        self.tick += 1;
        let page = access.addr.page().as_u64();
        let block = access.addr.block_number();
        let slot = match self.table.iter().position(|e| e.valid && e.page == page) {
            Some(i) => i,
            None => {
                let victim = self.table.iter().position(|e| !e.valid).unwrap_or_else(|| {
                    self.table
                        .iter()
                        .enumerate()
                        .min_by_key(|(_, e)| e.lru)
                        .map(|(i, _)| i)
                        .expect("non-empty table")
                });
                self.table[victim] = StrideEntry {
                    page,
                    last_block: block,
                    stride: 0,
                    count: 0,
                    valid: true,
                    lru: self.tick,
                };
                return;
            }
        };
        let e = &mut self.table[slot];
        let stride = block as i64 - e.last_block as i64;
        if stride != 0 && stride == e.stride {
            e.count = e.count.saturating_add(1);
        } else if stride != 0 {
            e.stride = stride;
            e.count = 1;
        }
        e.last_block = block;
        e.lru = self.tick;
        let (count, stride) = (e.count, e.stride);
        if !hit && count >= self.cfg.confidence && stride != 0 {
            for k in 1..=self.cfg.degree as i64 {
                if let Some(target) = block.checked_add_signed(stride * k) {
                    out.push(PrefetchRequest::new(
                        PhysAddr::new(target * BLOCK_SIZE),
                        PrefetchOrigin::Baseline,
                        access.cycle,
                    ));
                }
            }
        }
    }

    fn storage_bits(&self) -> u64 {
        // tag + last block + stride + count + valid + lru
        self.cfg.entries as u64 * (36 + 30 + 8 + 2 + 1 + 8)
    }

    fn table_accesses(&self) -> u64 {
        self.accesses
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use planaria_common::Cycle;

    fn miss(pf: &mut dyn Prefetcher, block: u64, t: u64) -> Vec<PrefetchRequest> {
        let mut out = Vec::new();
        pf.on_access(
            &MemAccess::read(PhysAddr::new(block * BLOCK_SIZE), Cycle::new(t)),
            false,
            &mut out,
        );
        out
    }

    #[test]
    fn next_line_always_fires_on_miss() {
        let mut nl = NextLine::new();
        let out = miss(&mut nl, 100, 0);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].addr.block_number(), 101);
        let mut out2 = Vec::new();
        nl.on_access(&MemAccess::read(PhysAddr::new(0x40), Cycle::new(1)), true, &mut out2);
        assert!(out2.is_empty());
    }

    #[test]
    fn stride_confirms_then_issues_degree() {
        let mut s = StridePf::default();
        // Page 0, stride 3: blocks 0, 3, 6, 9 ...
        assert!(miss(&mut s, 0, 0).is_empty(), "allocation");
        assert!(miss(&mut s, 3, 10).is_empty(), "first stride observation (count 1)");
        // Second confirmation reaches the confidence threshold and issues.
        let out = miss(&mut s, 6, 20);
        assert_eq!(out.len(), 2);
        assert_eq!(out[0].addr.block_number(), 9);
        assert_eq!(out[1].addr.block_number(), 12);
    }

    #[test]
    fn stride_change_resets_confidence() {
        let mut s = StridePf::default();
        miss(&mut s, 0, 0);
        miss(&mut s, 3, 10);
        miss(&mut s, 6, 20);
        miss(&mut s, 9, 30);
        // Break the stride: first observation of the new stride (count 1).
        assert!(miss(&mut s, 11, 40).is_empty());
        // Second observation confirms and issues on the new stride.
        let out = miss(&mut s, 13, 50);
        assert!(!out.is_empty());
        assert_eq!(out[0].addr.block_number(), 15);
    }

    #[test]
    fn stride_entries_are_per_page() {
        let mut s = StridePf::default();
        // Interleave two pages with different strides; both must learn.
        let p0 = 0u64; // blocks 0,2,4...
        let p1 = 64u64 * 10; // page 10: blocks +1
        for i in 0..4 {
            miss(&mut s, p0 + 2 * i, i * 10);
            miss(&mut s, p1 + i, i * 10 + 5);
        }
        let a = miss(&mut s, p0 + 8, 100);
        let b = miss(&mut s, p1 + 4, 105);
        assert!(!a.is_empty() && !b.is_empty());
        assert_eq!(a[0].addr.block_number(), p0 + 10);
        assert_eq!(b[0].addr.block_number(), p1 + 5);
    }

    #[test]
    fn zero_stride_never_issues() {
        let mut s = StridePf::default();
        for i in 0..10 {
            let out = miss(&mut s, 5, i * 10);
            assert!(out.is_empty(), "repeated same block must not prefetch");
        }
    }

    #[test]
    fn storage_accounting() {
        assert_eq!(NextLine::new().storage_bits(), 0);
        assert!(StridePf::default().storage_bits() > 0);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn stride_rejects_zero_degree() {
        let _ = StridePf::new(StrideConfig { degree: 0, ..StrideConfig::default() });
    }
}
