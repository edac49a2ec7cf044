//! Cache statistics, including prefetch usefulness bookkeeping.

use core::fmt;

use planaria_common::{DeviceId, PrefetchOrigin};

/// Counters maintained by [`crate::SetAssocCache`].
///
/// Prefetch metrics follow the standard definitions:
///
/// * **useful** — first demand hit on a line filled by a prefetch;
/// * **pollution** — a prefetched line evicted without ever serving a
///   demand hit;
/// * **accuracy** = useful / prefetch fills;
/// * **coverage** = useful / (useful + demand misses).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Demand accesses that hit.
    pub demand_hits: u64,
    /// Demand accesses that missed.
    pub demand_misses: u64,
    /// Lines filled by demand misses.
    pub demand_fills: u64,
    /// Lines filled by prefetches.
    pub prefetch_fills: u64,
    /// First demand hits on prefetched lines.
    pub useful_prefetches: u64,
    /// First demand hits on lines prefetched by SLP.
    pub useful_slp: u64,
    /// First demand hits on lines prefetched by TLP.
    pub useful_tlp: u64,
    /// Prefetched lines evicted before any demand use.
    pub polluting_prefetches: u64,
    /// Dirty lines evicted (writeback traffic).
    pub writebacks: u64,
    /// Evictions of any kind.
    pub evictions: u64,
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

    /// Prefetch accuracy in `[0, 1]` (0 when nothing was prefetched).
    pub fn prefetch_accuracy(&self) -> f64 {
        if self.prefetch_fills == 0 {
            0.0
        } else {
            self.useful_prefetches as f64 / self.prefetch_fills as f64
        }
    }

    /// Prefetch coverage in `[0, 1]`: fraction of would-be misses that a
    /// prefetch converted into hits.
    pub fn prefetch_coverage(&self) -> f64 {
        let denom = self.useful_prefetches + self.demand_misses;
        if denom == 0 {
            0.0
        } else {
            self.useful_prefetches as f64 / denom as f64
        }
    }

    pub(crate) fn record_useful(&mut self, origin: Option<PrefetchOrigin>) {
        self.useful_prefetches += 1;
        match origin {
            Some(PrefetchOrigin::Slp) => self.useful_slp += 1,
            Some(PrefetchOrigin::Tlp) => self.useful_tlp += 1,
            _ => {}
        }
    }
}

/// Per-device demand and usefulness counters, one row per [`DeviceId`].
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
    /// First demand touches of prefetched lines, credited to the touching
    /// device (it is the one whose miss the prefetch hid).
    pub useful_prefetches: u64,
    /// Useful prefetches from SLP-filled lines (Figure 9 split).
    pub useful_slp: u64,
    /// Useful prefetches from TLP-filled lines (Figure 9 split).
    pub useful_tlp: u64,
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
            && sum(|r| r.useful_prefetches) == total.useful_prefetches
            && sum(|r| r.useful_slp) == total.useful_slp
            && sum(|r| r.useful_tlp) == total.useful_tlp
    }

    pub(crate) fn record_useful(&mut self, origin: Option<PrefetchOrigin>) {
        self.useful_prefetches += 1;
        match origin {
            Some(PrefetchOrigin::Slp) => self.useful_slp += 1,
            Some(PrefetchOrigin::Tlp) => self.useful_tlp += 1,
            _ => {}
        }
    }
}

impl fmt::Display for CacheStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "hits {} misses {} (hit rate {:.2}%), pf fills {} useful {} polluting {} \
             (accuracy {:.2}%, coverage {:.2}%), writebacks {}",
            self.demand_hits,
            self.demand_misses,
            self.hit_rate() * 100.0,
            self.prefetch_fills,
            self.useful_prefetches,
            self.polluting_prefetches,
            self.prefetch_accuracy() * 100.0,
            self.prefetch_coverage() * 100.0,
            self.writebacks,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rates_handle_zero_denominators() {
        let s = CacheStats::default();
        assert_eq!(s.hit_rate(), 0.0);
        assert_eq!(s.prefetch_accuracy(), 0.0);
        assert_eq!(s.prefetch_coverage(), 0.0);
    }

    #[test]
    fn rates_compute() {
        let s = CacheStats {
            demand_hits: 75,
            demand_misses: 25,
            prefetch_fills: 50,
            useful_prefetches: 40,
            ..CacheStats::default()
        };
        assert!((s.hit_rate() - 0.75).abs() < 1e-12);
        assert!((s.prefetch_accuracy() - 0.8).abs() < 1e-12);
        assert!((s.prefetch_coverage() - 40.0 / 65.0).abs() < 1e-12);
        assert!(!s.to_string().is_empty());
    }

    #[test]
    fn record_useful_attributes_origin() {
        let mut s = CacheStats::default();
        s.record_useful(Some(PrefetchOrigin::Slp));
        s.record_useful(Some(PrefetchOrigin::Tlp));
        s.record_useful(Some(PrefetchOrigin::Baseline));
        s.record_useful(None);
        assert_eq!(s.useful_prefetches, 4);
        assert_eq!(s.useful_slp, 1);
        assert_eq!(s.useful_tlp, 1);
    }
}
