//! Demand and fill counters.

use planaria_common::DeviceId;

/// Counters maintained by [`crate::SetAssocCache`].
///
/// The cache counts demand outcomes and fills only. Prefetch outcomes
/// (a useful first touch, an unused eviction) are reported per line
/// through [`crate::AccessResult`] and [`crate::EvictedLine`], and
/// counted once by whoever consumes them.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Demand accesses that hit.
    pub demand_hits: u64,
    /// Demand accesses that missed.
    pub demand_misses: u64,
    /// Lines filled, by demand misses and prefetches alike.
    pub fills: u64,
}

impl CacheStats {
    /// Total demand accesses observed.
    pub fn demand_accesses(&self) -> u64 {
        self.demand_hits + self.demand_misses
    }

    /// Demand hit rate in `[0, 1]` (0 when no accesses).
    pub fn hit_rate(&self) -> f64 {
        let total = self.demand_accesses();
        if total == 0 {
            0.0
        } else {
            self.demand_hits as f64 / total as f64
        }
    }
}

/// Per-device demand counters, one row per [`DeviceId`].
///
/// Maintained by [`crate::SetAssocCache::access_by`] alongside the
/// aggregate [`CacheStats`]; each counter here is bumped if and only if
/// its aggregate twin is, so summing any column over all devices
/// reproduces the aggregate exactly (asserted by
/// [`DeviceCacheStats::conserves`] and the `tests/closed_loop.rs`
/// conservation tests).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DeviceCacheStats {
    /// Demand accesses from this device that hit.
    pub demand_hits: u64,
    /// Demand accesses from this device that missed.
    pub demand_misses: u64,
}

impl DeviceCacheStats {
    /// Demand accesses from this device.
    pub fn demand_accesses(&self) -> u64 {
        self.demand_hits + self.demand_misses
    }

    /// Checks that summing per-device rows reproduces the aggregate for
    /// every shared counter — the conservation invariant per-device
    /// attribution must never break.
    ///
    /// # Examples
    ///
    /// ```
    /// use planaria_cache::{CacheConfig, SetAssocCache};
    /// use planaria_common::{AccessKind, DeviceId, PhysAddr};
    ///
    /// let mut c = SetAssocCache::new(CacheConfig::system_cache());
    /// c.access_by(PhysAddr::new(0x40), AccessKind::Read, DeviceId::Gpu);
    /// c.access_by(PhysAddr::new(0x80), AccessKind::Read, DeviceId::Cpu(2));
    /// assert!(planaria_cache::DeviceCacheStats::conserves(
    ///     c.device_stats(),
    ///     c.stats(),
    /// ));
    /// ```
    pub fn conserves(rows: &[DeviceCacheStats; DeviceId::COUNT], total: &CacheStats) -> bool {
        let sum = |f: fn(&DeviceCacheStats) -> u64| rows.iter().map(f).sum::<u64>();
        sum(|r| r.demand_hits) == total.demand_hits
            && sum(|r| r.demand_misses) == total.demand_misses
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rates_handle_zero_denominators() {
        let s = CacheStats::default();
        assert_eq!(s.demand_accesses(), 0);
        assert_eq!(s.hit_rate(), 0.0, "no accesses, no rate");
    }

    #[test]
    fn rates_compute() {
        let s = CacheStats { demand_hits: 75, demand_misses: 25, ..CacheStats::default() };
        assert!((s.hit_rate() - 0.75).abs() < 1e-12);
    }
}
