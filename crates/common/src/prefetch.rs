//! Prefetch request records produced by prefetchers.

use core::fmt;

use crate::{Cycle, DeviceId, PhysAddr};

/// Which (sub-)prefetcher generated a request.
///
/// The simulator tags every prefetch with its origin so that the paper's
/// Figure 9 breakdown (SLP vs TLP contribution) can be measured directly on
/// the full composite prefetcher rather than only via ablation runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum PrefetchOrigin {
    /// The self-learning (intra-page) sub-prefetcher.
    Slp,
    /// The transfer-learning (inter-page) sub-prefetcher.
    Tlp,
    /// A monolithic baseline prefetcher (BOP, SPP, stride, ...).
    Baseline,
}

impl fmt::Display for PrefetchOrigin {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            PrefetchOrigin::Slp => "SLP",
            PrefetchOrigin::Tlp => "TLP",
            PrefetchOrigin::Baseline => "baseline",
        })
    }
}

/// A block-granular prefetch request.
///
/// Addresses are always block-aligned; constructing a request aligns the
/// address down to its 64 B block boundary.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PrefetchRequest {
    /// Block-aligned target address.
    pub addr: PhysAddr,
    /// Which sub-prefetcher produced the request.
    pub origin: PrefetchOrigin,
    /// The cycle of the demand access that triggered this prefetch.
    pub triggered_at: Cycle,
    /// The device whose demand access triggered this prefetch.
    ///
    /// Prefetchers construct requests with the default device; the memory
    /// system stamps the true trigger device centrally (every request in a
    /// batch comes from the access currently being processed), so per-device
    /// attribution needs no plumbing through the prefetcher implementations.
    pub device: DeviceId,
}

impl PrefetchRequest {
    /// Creates a prefetch request, aligning `addr` to its block base. The
    /// trigger device starts at [`DeviceId::default`]; the simulator
    /// overwrites it with the device of the triggering demand access.
    pub const fn new(addr: PhysAddr, origin: PrefetchOrigin, triggered_at: Cycle) -> Self {
        Self { addr: addr.block_base(), origin, triggered_at, device: DeviceId::Cpu(0) }
    }
}

impl fmt::Display for PrefetchRequest {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "PF[{}] {} @{}", self.origin, self.addr, self.triggered_at.as_u64())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_aligns_to_block() {
        let r = PrefetchRequest::new(PhysAddr::new(0x1047), PrefetchOrigin::Slp, Cycle::new(5));
        assert_eq!(r.addr.as_u64(), 0x1040);
        assert_eq!(r.origin, PrefetchOrigin::Slp);
        assert!(!r.to_string().is_empty());
    }

    #[test]
    fn origin_display() {
        assert_eq!(PrefetchOrigin::Slp.to_string(), "SLP");
        assert_eq!(PrefetchOrigin::Tlp.to_string(), "TLP");
        assert_eq!(PrefetchOrigin::Baseline.to_string(), "baseline");
    }
}
