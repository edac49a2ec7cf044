//! Demand-access records as observed on the memory bus.
//!
//! Each record mirrors one entry of the paper's bus-monitor trace format:
//! physical address, access type (read/write), requesting device id and
//! arrival time. No program counter is available — the defining constraint
//! of memory-side prefetching.

use core::fmt;

use crate::{Cycle, PhysAddr};

/// Whether an access reads or writes memory.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum AccessKind {
    /// A read (load / fetch / DMA-in) request.
    Read,
    /// A write (store / writeback / DMA-out) request.
    Write,
}

impl AccessKind {
    /// Returns `true` for [`AccessKind::Read`].
    pub const fn is_read(self) -> bool {
        matches!(self, AccessKind::Read)
    }

    /// Returns `true` for [`AccessKind::Write`].
    pub const fn is_write(self) -> bool {
        matches!(self, AccessKind::Write)
    }
}

impl fmt::Display for AccessKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            AccessKind::Read => "R",
            AccessKind::Write => "W",
        })
    }
}

/// The SoC agent that issued a memory request.
///
/// The system cache is shared by heterogeneous devices; the trace records
/// which device issued each request (the paper lists CPU, GPU, DSP, NPU and
/// ISP agents). Planaria itself ignores the device id — it cannot rely on
/// per-device state the way PC-indexed prefetchers rely on per-PC state —
/// but workload generators and statistics use it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum DeviceId {
    /// One of the eight CPU cores (index 0..=7).
    Cpu(u8),
    /// The Mali GPU.
    Gpu,
    /// The neural processing unit.
    Npu,
    /// The image signal processor.
    Isp,
    /// The digital signal processor.
    Dsp,
}

impl DeviceId {
    /// Number of distinct devices: eight CPU cores plus GPU/NPU/ISP/DSP.
    pub const COUNT: usize = 12;

    /// Every device, ordered by [`DeviceId::index`] (the canonical order
    /// for per-device statistics tables).
    pub const ALL: [DeviceId; DeviceId::COUNT] = [
        DeviceId::Cpu(0),
        DeviceId::Cpu(1),
        DeviceId::Cpu(2),
        DeviceId::Cpu(3),
        DeviceId::Cpu(4),
        DeviceId::Cpu(5),
        DeviceId::Cpu(6),
        DeviceId::Cpu(7),
        DeviceId::Gpu,
        DeviceId::Npu,
        DeviceId::Isp,
        DeviceId::Dsp,
    ];

    /// A dense index in `0..`[`DeviceId::COUNT`]: CPU cores map to their
    /// core number (clamped to 7), then GPU, NPU, ISP, DSP.
    ///
    /// # Examples
    ///
    /// ```
    /// use planaria_common::DeviceId;
    ///
    /// assert_eq!(DeviceId::Cpu(3).index(), 3);
    /// assert_eq!(DeviceId::Gpu.index(), 8);
    /// assert_eq!(DeviceId::ALL[DeviceId::Dsp.index()], DeviceId::Dsp);
    /// ```
    pub const fn index(self) -> usize {
        match self {
            DeviceId::Cpu(i) => {
                if i > 7 {
                    7
                } else {
                    i as usize
                }
            }
            DeviceId::Gpu => 8,
            DeviceId::Npu => 9,
            DeviceId::Isp => 10,
            DeviceId::Dsp => 11,
        }
    }

    /// Inverse of [`DeviceId::index`].
    ///
    /// # Panics
    ///
    /// Panics if `index >= DeviceId::COUNT`.
    pub const fn from_index(index: usize) -> DeviceId {
        DeviceId::ALL[index]
    }

    /// Stable short label (`"cpu0"`..`"cpu7"`, `"gpu"`, `"npu"`, `"isp"`,
    /// `"dsp"`), identical to the [`core::fmt::Display`] rendering but
    /// available as a `&'static str` for table headers and JSON keys.
    pub const fn label(self) -> &'static str {
        match self {
            DeviceId::Cpu(0) => "cpu0",
            DeviceId::Cpu(1) => "cpu1",
            DeviceId::Cpu(2) => "cpu2",
            DeviceId::Cpu(3) => "cpu3",
            DeviceId::Cpu(4) => "cpu4",
            DeviceId::Cpu(5) => "cpu5",
            DeviceId::Cpu(6) => "cpu6",
            DeviceId::Cpu(_) => "cpu7",
            DeviceId::Gpu => "gpu",
            DeviceId::Npu => "npu",
            DeviceId::Isp => "isp",
            DeviceId::Dsp => "dsp",
        }
    }
}

impl Default for DeviceId {
    fn default() -> Self {
        DeviceId::Cpu(0)
    }
}

impl fmt::Display for DeviceId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DeviceId::Cpu(i) => write!(f, "cpu{i}"),
            DeviceId::Gpu => f.write_str("gpu"),
            DeviceId::Npu => f.write_str("npu"),
            DeviceId::Isp => f.write_str("isp"),
            DeviceId::Dsp => f.write_str("dsp"),
        }
    }
}

/// One demand access observed at the system-cache boundary.
///
/// # Examples
///
/// ```
/// use planaria_common::{AccessKind, Cycle, DeviceId, MemAccess, PhysAddr};
///
/// let a = MemAccess::new(PhysAddr::new(0x4000), AccessKind::Read, DeviceId::Gpu, Cycle::new(10));
/// assert_eq!(a.addr.page().as_u64(), 4);
/// assert!(a.kind.is_read());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct MemAccess {
    /// Physical byte address of the request.
    pub addr: PhysAddr,
    /// Read or write.
    pub kind: AccessKind,
    /// Requesting SoC agent.
    pub device: DeviceId,
    /// Arrival time at the system cache, in memory-controller cycles.
    pub cycle: Cycle,
}

impl MemAccess {
    /// Creates an access record.
    pub const fn new(addr: PhysAddr, kind: AccessKind, device: DeviceId, cycle: Cycle) -> Self {
        Self { addr, kind, device, cycle }
    }

    /// Convenience constructor for a CPU read, the most common trace entry.
    pub const fn read(addr: PhysAddr, cycle: Cycle) -> Self {
        Self::new(addr, AccessKind::Read, DeviceId::Cpu(0), cycle)
    }

    /// Convenience constructor for a CPU write.
    pub const fn write(addr: PhysAddr, cycle: Cycle) -> Self {
        Self::new(addr, AccessKind::Write, DeviceId::Cpu(0), cycle)
    }
}

impl fmt::Display for MemAccess {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {} {} @{}", self.kind, self.addr, self.device, self.cycle.as_u64())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_predicates() {
        assert!(AccessKind::Read.is_read());
        assert!(!AccessKind::Read.is_write());
        assert!(AccessKind::Write.is_write());
    }

    #[test]
    fn device_display_and_cpu_check() {
        assert_eq!(DeviceId::Cpu(3).to_string(), "cpu3");
        assert_eq!(DeviceId::Gpu.to_string(), "gpu");
    }

    #[test]
    fn device_index_round_trips() {
        for (i, d) in DeviceId::ALL.into_iter().enumerate() {
            assert_eq!(d.index(), i);
            assert_eq!(DeviceId::from_index(i), d);
            assert_eq!(d.label(), d.to_string());
        }
        // Out-of-range core numbers clamp rather than collide with GPU+.
        assert_eq!(DeviceId::Cpu(200).index(), 7);
        assert_eq!(DeviceId::Cpu(200).label(), "cpu7");
    }

    #[test]
    fn convenience_constructors() {
        let r = MemAccess::read(PhysAddr::new(0x40), Cycle::new(1));
        assert!(r.kind.is_read());
        let w = MemAccess::write(PhysAddr::new(0x80), Cycle::new(2));
        assert!(w.kind.is_write());
        assert!(!w.to_string().is_empty());
    }
}
