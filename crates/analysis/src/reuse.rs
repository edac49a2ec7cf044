//! Block reuse-distance analysis.
//!
//! Observation 1's temporal half: "the reuse distance of the snapshots is
//! usually long, indicating a limited temporal locality". This module
//! measures it directly: for every demand access, the number of accesses
//! since the same block was last touched, bucketed in powers of two.
//!
//! The histogram explains two of the paper's motivation claims at once:
//! blocks whose reuse distance exceeds the cache's block capacity
//! (4 MB / 64 B = 65 536) cannot hit under LRU no matter the replacement
//! tweak, and growing the cache only helps the (thin) band of distances
//! between the old and new capacity.

use std::collections::HashMap;

use planaria_trace::Trace;

/// Number of power-of-two buckets (distances up to 2^31 and beyond).
pub const BUCKETS: usize = 32;

/// Result of the reuse-distance analysis on one trace.
#[derive(Debug, Clone, PartialEq)]
pub struct ReuseReport {
    /// Workload name.
    pub workload: String,
    /// `buckets[i]` counts reuses with distance in `[2^i, 2^(i+1))`.
    pub buckets: [u64; BUCKETS],
    /// First-ever touches (no reuse distance).
    pub cold: u64,
    /// Total accesses analysed.
    pub accesses: u64,
}

impl ReuseReport {
    /// Total reuses (accesses that touched a previously seen block).
    pub fn reuses(&self) -> u64 {
        self.buckets.iter().sum()
    }

    /// Median reuse distance (lower bound of the median's bucket), or
    /// `None` when nothing was reused.
    pub fn median_distance(&self) -> Option<u64> {
        let total = self.reuses();
        if total == 0 {
            return None;
        }
        let mut seen = 0;
        for (i, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen * 2 >= total {
                return Some(1u64 << i);
            }
        }
        None
    }

    /// Fraction of reuses whose distance is at least `min_distance` —
    /// e.g. `min_distance = cache blocks` bounds the LRU-hopeless share.
    pub fn fraction_at_least(&self, min_distance: u64) -> f64 {
        let total = self.reuses();
        if total == 0 {
            return 0.0;
        }
        let cut = (min_distance.max(1)).ilog2() as usize;
        let far: u64 = self.buckets[cut.min(BUCKETS - 1)..].iter().sum();
        far as f64 / total as f64
    }
}

/// Computes the access-count reuse-distance histogram of a trace.
///
/// Distance is measured in intervening accesses (an upper bound on stack
/// distance, cheap enough for paper-scale traces).
pub fn reuse_histogram(trace: &Trace) -> ReuseReport {
    let mut last_touch: HashMap<u64, u64> = HashMap::new();
    let mut buckets = [0u64; BUCKETS];
    let mut cold = 0u64;
    for (i, a) in trace.iter().enumerate() {
        let block = a.addr.block_number();
        match last_touch.insert(block, i as u64) {
            Some(prev) => {
                let dist = (i as u64 - prev).max(1);
                let bucket = (dist.ilog2() as usize).min(BUCKETS - 1);
                buckets[bucket] += 1;
            }
            None => cold += 1,
        }
    }
    ReuseReport { workload: trace.name().to_string(), buckets, cold, accesses: trace.len() as u64 }
}

#[cfg(test)]
mod tests {
    use super::*;
    use planaria_common::{Cycle, MemAccess, PhysAddr, BLOCK_SIZE};
    use planaria_trace::Trace;

    fn trace_of(blocks: &[u64]) -> Trace {
        let accesses = blocks
            .iter()
            .enumerate()
            .map(|(i, &b)| MemAccess::read(PhysAddr::new(b * BLOCK_SIZE), Cycle::new(i as u64)))
            .collect();
        Trace::new("t", accesses)
    }

    #[test]
    fn counts_cold_and_reuse() {
        // Block 1 reused at distance 2, block 2 at distance 2.
        let r = reuse_histogram(&trace_of(&[1, 2, 1, 2]));
        assert_eq!(r.cold, 2);
        assert_eq!(r.reuses(), 2);
        assert_eq!(r.buckets[1], 2, "distance 2 lands in bucket [2,4)");
    }

    #[test]
    fn immediate_reuse_is_distance_one() {
        let r = reuse_histogram(&trace_of(&[5, 5, 5]));
        assert_eq!(r.cold, 1);
        assert_eq!(r.buckets[0], 2);
        assert_eq!(r.median_distance(), Some(1));
    }

    #[test]
    fn long_distances_bucket_high() {
        let mut blocks: Vec<u64> = (0..1000).collect();
        blocks.push(0); // reuse of block 0 at distance 1000
        let r = reuse_histogram(&trace_of(&blocks));
        assert_eq!(r.reuses(), 1);
        assert_eq!(r.buckets[9], 1, "distance 1000 in [512,1024)");
        assert!((r.fraction_at_least(512) - 1.0).abs() < 1e-12);
        assert_eq!(r.fraction_at_least(2048), 0.0);
    }

    #[test]
    fn empty_trace_is_safe() {
        let r = reuse_histogram(&Trace::empty("e"));
        assert_eq!(r.cold, 0);
        assert_eq!(r.reuses(), 0);
        assert_eq!(r.median_distance(), None);
        assert_eq!(r.fraction_at_least(64), 0.0);
    }

    #[test]
    fn footprint_workloads_have_long_reuse() {
        use planaria_trace::synth::FootprintSpec;
        use planaria_trace::{ComponentSpec, WorkloadSpec};
        let spec = WorkloadSpec::new("fp", "fp", 5, 60_000).with(
            1.0,
            ComponentSpec::Footprint(FootprintSpec { pages: 1024, ..FootprintSpec::default() }),
        );
        let r = reuse_histogram(&spec.build());
        // Pool of 1024 pages x 16 blocks: revisits come roughly a full
        // round (~16 K accesses) later.
        let median = r.median_distance().expect("revisits exist");
        assert!(median >= 4096, "median reuse distance {median} suspiciously short");
    }
}
