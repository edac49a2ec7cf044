//! Property test: the LRU cache agrees access-for-access with a tiny,
//! obviously-correct reference model on arbitrary interleavings of
//! accesses and fills.

use std::collections::VecDeque;

use planaria_cache::{AccessResult, CacheConfig, ReplacementKind, SetAssocCache};
use planaria_common::{AccessKind, DeviceId, PhysAddr, PrefetchOrigin, BLOCK_SIZE};
use proptest::prelude::*;

/// The device every operation is attributed to.
const CPU: DeviceId = DeviceId::Cpu(0);

/// A straightforward LRU set-associative cache: per-set deque of block
/// numbers, front = most recent.
struct RefCache {
    sets: Vec<VecDeque<u64>>,
    ways: usize,
}

impl RefCache {
    fn new(sets: usize, ways: usize) -> Self {
        Self { sets: (0..sets).map(|_| VecDeque::new()).collect(), ways }
    }

    fn set_of(&self, block: u64) -> usize {
        (block % self.sets.len() as u64) as usize
    }

    fn access(&mut self, block: u64) -> bool {
        let set = self.set_of(block);
        if let Some(pos) = self.sets[set].iter().position(|&b| b == block) {
            let b = self.sets[set].remove(pos).expect("position valid");
            self.sets[set].push_front(b);
            true
        } else {
            false
        }
    }

    /// Fill; returns the evicted block, if any.
    fn fill(&mut self, block: u64) -> Option<u64> {
        let set = self.set_of(block);
        if self.sets[set].contains(&block) {
            return None;
        }
        self.sets[set].push_front(block);
        if self.sets[set].len() > self.ways {
            self.sets[set].pop_back()
        } else {
            None
        }
    }
}

#[derive(Debug, Clone, Copy)]
enum Op {
    /// Demand access; fill on miss (like the simulator's synchronous path).
    Access(u64),
    /// Speculative fill only.
    Fill(u64),
}

fn arb_op() -> impl Strategy<Value = Op> {
    // Small block range so sets collide and evict constantly.
    prop_oneof![(0u64..96).prop_map(Op::Access), (0u64..96).prop_map(Op::Fill),]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn lru_cache_matches_reference(ops in proptest::collection::vec(arb_op(), 1..400)) {
        // 8 sets x 2 ways.
        let cfg = CacheConfig {
            size_bytes: 8 * 2 * BLOCK_SIZE,
            ways: 2,
            replacement: ReplacementKind::Lru,
        };
        let mut dut = SetAssocCache::new(cfg);
        let mut reference = RefCache::new(8, 2);
        for (i, op) in ops.iter().enumerate() {
            match *op {
                Op::Access(block) => {
                    let addr = PhysAddr::new(block * BLOCK_SIZE);
                    let got = dut.access_by(addr, AccessKind::Read, CPU).is_hit();
                    let want = reference.access(block);
                    prop_assert_eq!(got, want, "op {}: access {} hit mismatch", i, block);
                    if !got {
                        let evicted = dut.fill_by(addr, None, CPU).map(|e| e.addr.block_number());
                        let ref_evicted = reference.fill(block);
                        prop_assert_eq!(evicted, ref_evicted, "op {}: eviction mismatch", i);
                    }
                }
                Op::Fill(block) => {
                    let addr = PhysAddr::new(block * BLOCK_SIZE);
                    let evicted = dut.fill_by(addr, None, CPU).map(|e| e.addr.block_number());
                    let ref_evicted = reference.fill(block);
                    prop_assert_eq!(evicted, ref_evicted, "op {}: fill eviction mismatch", i);
                }
            }
        }
        // Final contents agree.
        for set in 0..8u64 {
            for way_block in &reference.sets[set as usize] {
                prop_assert!(
                    dut.contains(PhysAddr::new(way_block * BLOCK_SIZE)),
                    "reference holds block {way_block}, cache does not"
                );
            }
        }
    }

    #[test]
    fn capacity_is_never_exceeded(ops in proptest::collection::vec(arb_op(), 1..300)) {
        for repl in ReplacementKind::ALL {
            let cfg = CacheConfig {
                size_bytes: 4 * 2 * BLOCK_SIZE,
                ways: 2,
                replacement: repl,
            };
            let mut dut = SetAssocCache::new(cfg);
            for op in &ops {
                let block = match *op { Op::Access(b) | Op::Fill(b) => b };
                let addr = PhysAddr::new(block * BLOCK_SIZE);
                match *op {
                    Op::Access(_) => {
                        if matches!(dut.access_by(addr, AccessKind::Read, CPU), AccessResult::Miss) {
                            dut.fill_by(addr, None, CPU);
                        }
                    }
                    Op::Fill(_) => {
                        dut.fill_by(addr, None, CPU);
                    }
                }
                prop_assert!(dut.valid_lines() <= 8, "{repl}: capacity exceeded");
            }
            // A resident block always hits, under every policy.
            let s = dut.stats();
            prop_assert_eq!(s.demand_accesses(), s.demand_hits + s.demand_misses);
        }
    }

    #[test]
    fn stats_are_conserved(ops in proptest::collection::vec(arb_op(), 1..300)) {
        let cfg = CacheConfig {
            size_bytes: 8 * 2 * BLOCK_SIZE,
            ways: 2,
            replacement: ReplacementKind::Lru,
        };
        let mut dut = SetAssocCache::new(cfg);
        let (mut accesses, mut fills, mut prefetch_fills) = (0u64, 0u64, 0u64);
        // Prefetch outcomes as the cache reports them, line by line.
        let (mut useful, mut polluting) = (0u64, 0u64);
        for op in &ops {
            let (Op::Access(block) | Op::Fill(block)) = *op;
            let addr = PhysAddr::new(block * BLOCK_SIZE);
            let origin = matches!(op, Op::Fill(_)).then_some(PrefetchOrigin::Slp);
            if origin.is_none() {
                accesses += 1;
                if let AccessResult::Hit { first_use_of_prefetch } =
                    dut.access_by(addr, AccessKind::Read, CPU)
                {
                    useful += u64::from(first_use_of_prefetch.is_some());
                    continue;
                }
            }
            if !dut.contains(addr) {
                fills += 1;
                prefetch_fills += u64::from(origin.is_some());
            }
            let evicted = dut.fill_by(addr, origin, CPU);
            polluting += u64::from(evicted.is_some_and(|e| e.was_unused_prefetch));
        }
        let s = dut.stats();
        prop_assert_eq!(s.demand_accesses(), accesses);
        prop_assert_eq!(s.fills, fills, "a duplicate fill is no fill");
        // Each prefetched line is used once, evicted unused once, or still
        // resident unused.
        prop_assert!(useful + polluting <= prefetch_fills);
    }
}
