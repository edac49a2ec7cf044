//! Upper-level cache filtering of raw traces.
//!
//! The paper's core premise is that "the high-level caches have already
//! filtered much spatial and temporal locality" by the time traffic reaches
//! the system cache. The bundled workload generators synthesise
//! *post-filter* traffic directly; this module provides the complementary
//! tool for users bringing **raw** (core-side) traces: pass them through a
//! model of each device's private last-level cache and keep only the
//! misses — what the memory bus actually sees.
//!
//! The filter models one private cache per [`DeviceId`] (mobile CPUs'
//! L2s, the GPU's L2, the accelerators' buffers), LRU, write-allocate,
//! tracking tags only.
//!
//! [`DeviceId`]: planaria_common::DeviceId

use std::collections::VecDeque;

use planaria_common::{DeviceId, MemAccess, BLOCK_SIZE};

use crate::Trace;

/// Geometry of one device's private filtering cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FilterConfig {
    /// Private-cache capacity per device, in bytes.
    pub size_bytes: u64,
    /// Associativity.
    pub ways: usize,
}

impl FilterConfig {
    /// Table 1's CPU big-core L2: 512 KB, 8-way.
    pub const fn cortex_l2() -> Self {
        Self { size_bytes: 512 << 10, ways: 8 }
    }

    fn sets(&self) -> usize {
        ((self.size_bytes / BLOCK_SIZE) as usize / self.ways).max(1)
    }
}

impl Default for FilterConfig {
    fn default() -> Self {
        Self::cortex_l2()
    }
}

/// A tag-only LRU cache used for filtering.
struct TagCache {
    sets: Vec<VecDeque<u64>>,
    ways: usize,
}

impl TagCache {
    fn new(cfg: FilterConfig) -> Self {
        Self { sets: (0..cfg.sets()).map(|_| VecDeque::new()).collect(), ways: cfg.ways }
    }

    /// Returns `true` on hit; allocates on miss.
    fn access(&mut self, block: u64) -> bool {
        let set = (block % self.sets.len() as u64) as usize;
        if let Some(pos) = self.sets[set].iter().position(|&b| b == block) {
            let b = self.sets[set].remove(pos).expect("position valid");
            self.sets[set].push_front(b);
            true
        } else {
            self.sets[set].push_front(block);
            if self.sets[set].len() > self.ways {
                self.sets[set].pop_back();
            }
            false
        }
    }
}

fn device_slot(device: DeviceId) -> usize {
    match device {
        // Each CPU core has its own cache hierarchy path.
        DeviceId::Cpu(i) => i as usize,
        DeviceId::Gpu => 8,
        DeviceId::Npu => 9,
        DeviceId::Isp => 10,
        DeviceId::Dsp => 11,
    }
}

/// Filters a raw trace through per-device private caches, keeping only the
/// accesses that miss (the memory-bus traffic).
///
/// Arrival times and device/kind fields are preserved for the surviving
/// accesses.
///
/// # Examples
///
/// ```
/// use planaria_common::{Cycle, MemAccess, PhysAddr};
/// use planaria_trace::filter::{filter_trace, FilterConfig};
/// use planaria_trace::Trace;
///
/// // The same block twice: the second access hits the private L2 and
/// // never reaches the memory bus.
/// let raw = Trace::new("raw", vec![
///     MemAccess::read(PhysAddr::new(0x1000), Cycle::new(0)),
///     MemAccess::read(PhysAddr::new(0x1000), Cycle::new(10)),
/// ]);
/// let filtered = filter_trace(&raw, FilterConfig::default());
/// assert_eq!(filtered.len(), 1);
/// ```
pub fn filter_trace(raw: &Trace, cfg: FilterConfig) -> Trace {
    let mut caches: Vec<Option<TagCache>> = (0..12).map(|_| None).collect();
    let mut kept: Vec<MemAccess> = Vec::new();
    for a in raw.iter() {
        let slot = device_slot(a.device);
        let cache = caches[slot].get_or_insert_with(|| TagCache::new(cfg));
        if !cache.access(a.addr.block_number()) {
            kept.push(*a);
        }
    }
    Trace::new(format!("{}|filtered", raw.name()), kept)
}

#[cfg(test)]
mod tests {
    use super::*;
    use planaria_common::{Cycle, DeviceId, PhysAddr};

    fn read(addr: u64, cycle: u64, device: DeviceId) -> MemAccess {
        MemAccess::new(
            PhysAddr::new(addr),
            planaria_common::AccessKind::Read,
            device,
            Cycle::new(cycle),
        )
    }

    #[test]
    fn repeated_blocks_are_filtered() {
        let raw =
            Trace::new("raw", (0..10).map(|i| read(0x1000, i * 10, DeviceId::Cpu(0))).collect());
        let f = filter_trace(&raw, FilterConfig::default());
        assert_eq!(f.len(), 1, "only the compulsory miss survives");
        assert!(f.name().contains("filtered"));
    }

    #[test]
    fn distinct_blocks_pass_through() {
        let raw =
            Trace::new("raw", (0..64u64).map(|i| read(i * 64, i * 10, DeviceId::Cpu(0))).collect());
        let f = filter_trace(&raw, FilterConfig::default());
        assert_eq!(f.len(), 64);
        assert_eq!(f.accesses(), raw.accesses());
    }

    #[test]
    fn devices_filter_independently() {
        // The same block from two devices: both are compulsory misses in
        // their own private caches.
        let raw = Trace::new(
            "raw",
            vec![
                read(0x1000, 0, DeviceId::Cpu(0)),
                read(0x1000, 10, DeviceId::Gpu),
                read(0x1000, 20, DeviceId::Cpu(0)),
                read(0x1000, 30, DeviceId::Gpu),
            ],
        );
        let f = filter_trace(&raw, FilterConfig::default());
        assert_eq!(f.len(), 2);
        assert!(f.iter().any(|a| a.device == DeviceId::Cpu(0)));
        assert!(f.iter().any(|a| a.device == DeviceId::Gpu));
    }

    #[test]
    fn capacity_evictions_resurface_traffic() {
        // A cyclic scan over more blocks than a tiny filter holds: every
        // access misses (thrash) and the whole trace passes through.
        let cfg = FilterConfig { size_bytes: 64, ways: 1 }; // 1 block
        let blocks = [0u64, 64, 128, 0, 64, 128];
        let raw = Trace::new(
            "raw",
            blocks
                .iter()
                .enumerate()
                .map(|(i, &b)| read(b, i as u64 * 10, DeviceId::Cpu(0)))
                .collect(),
        );
        let f = filter_trace(&raw, cfg);
        assert_eq!(f.len(), 6, "thrashing filter passes everything");
    }

    #[test]
    fn filtering_preserves_order_and_fields() {
        let raw =
            Trace::new("raw", vec![read(0x0, 5, DeviceId::Cpu(1)), read(0x40, 6, DeviceId::Dsp)]);
        let f = filter_trace(&raw, FilterConfig::default());
        assert_eq!(f.accesses(), raw.accesses());
    }

    #[test]
    fn filtered_traces_kill_temporal_locality() {
        // The premise quantified: the filter output has far lower
        // immediate-reuse than the raw stream.
        let mut raw_accs = Vec::new();
        for round in 0..50u64 {
            for b in 0..32u64 {
                raw_accs.push(read(b * 64, round * 1000 + b * 10, DeviceId::Cpu(0)));
            }
        }
        let raw = Trace::new("raw", raw_accs);
        let f = filter_trace(&raw, FilterConfig::default());
        assert_eq!(f.len(), 32, "all reuse absorbed by the private cache");
    }
}
