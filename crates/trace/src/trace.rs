//! The in-memory trace container and its summary statistics.

use planaria_common::{DeviceId, MemAccess, PageNum};
use planaria_hash::FastHashSet;

/// An ordered sequence of demand accesses plus a workload name.
///
/// Accesses are kept sorted by arrival [`planaria_common::Cycle`];
/// [`Trace::new`] sorts its
/// input (stably) to guarantee this invariant.
#[derive(Debug, Clone, PartialEq)]
pub struct Trace {
    name: String,
    accesses: Vec<MemAccess>,
}

impl Trace {
    /// Creates a trace from a name and accesses, sorting them by cycle.
    pub fn new(name: impl Into<String>, mut accesses: Vec<MemAccess>) -> Self {
        accesses.sort_by_key(|a| a.cycle);
        Self { name: name.into(), accesses }
    }

    /// Creates an empty trace.
    pub fn empty(name: impl Into<String>) -> Self {
        Self { name: name.into(), accesses: Vec::new() }
    }

    /// The workload name (for tables/figures).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The accesses in arrival order.
    pub fn accesses(&self) -> &[MemAccess] {
        &self.accesses
    }

    /// Number of accesses.
    pub fn len(&self) -> usize {
        self.accesses.len()
    }

    /// Returns `true` if the trace has no accesses.
    pub fn is_empty(&self) -> bool {
        self.accesses.is_empty()
    }

    /// Iterates over the accesses.
    pub fn iter(&self) -> std::slice::Iter<'_, MemAccess> {
        self.accesses.iter()
    }

    /// Total simulated duration (first to last arrival), in cycles.
    pub fn duration(&self) -> u64 {
        match (self.accesses.first(), self.accesses.last()) {
            (Some(first), Some(last)) => last.cycle.since(first.cycle),
            _ => 0,
        }
    }

    /// Number of distinct 4 KB pages touched.
    pub fn unique_pages(&self) -> usize {
        let pages: FastHashSet<PageNum> = self.accesses.iter().map(|a| a.addr.page()).collect();
        pages.len()
    }

    /// Fraction of read accesses (0 when the trace is empty).
    pub fn read_fraction(&self) -> f64 {
        if self.accesses.is_empty() {
            return 0.0;
        }
        let reads = self.accesses.iter().filter(|a| a.kind.is_read()).count();
        reads as f64 / self.accesses.len() as f64
    }

    /// Truncates the trace to its first `n` accesses (no-op if shorter).
    pub fn truncate(&mut self, n: usize) {
        self.accesses.truncate(n);
    }

    /// The distinct devices present in the trace, in [`DeviceId::ALL`]
    /// order (the canonical device-index order).
    pub fn devices(&self) -> Vec<DeviceId> {
        let mut seen = [false; DeviceId::COUNT];
        for a in &self.accesses {
            seen[a.device.index()] = true;
        }
        DeviceId::ALL.into_iter().filter(|d| seen[d.index()]).collect()
    }

    /// Splits the trace into per-device request streams.
    ///
    /// Each [`DeviceStream`] holds the *indices* into [`Trace::accesses`]
    /// of that device's accesses, in arrival order — the closed-loop
    /// traffic model replays each stream independently while preserving
    /// the device's original inter-access gaps as think time. Streams are
    /// returned in [`DeviceId::ALL`] order; devices absent from the trace
    /// get no stream.
    ///
    /// # Examples
    ///
    /// ```
    /// use planaria_common::{AccessKind, Cycle, DeviceId, MemAccess, PhysAddr};
    /// use planaria_trace::Trace;
    ///
    /// let acc = |addr: u64, dev: DeviceId, cyc: u64| {
    ///     MemAccess::new(PhysAddr::new(addr), AccessKind::Read, dev, Cycle::new(cyc))
    /// };
    /// let t = Trace::new(
    ///     "t",
    ///     vec![
    ///         acc(0x0040, DeviceId::Cpu(0), 10),
    ///         acc(0x1040, DeviceId::Gpu, 20),
    ///         acc(0x0080, DeviceId::Cpu(0), 30),
    ///     ],
    /// );
    /// let streams = t.split_by_device();
    /// assert_eq!(streams.len(), 2);
    /// assert_eq!(streams[0].device, DeviceId::Cpu(0));
    /// assert_eq!(streams[0].indices, vec![0, 2]);
    /// assert_eq!(streams[1].device, DeviceId::Gpu);
    /// assert_eq!(streams[1].indices, vec![1]);
    /// ```
    pub fn split_by_device(&self) -> Vec<DeviceStream> {
        let mut per_dev: [Vec<usize>; DeviceId::COUNT] = Default::default();
        for (i, a) in self.accesses.iter().enumerate() {
            per_dev[a.device.index()].push(i);
        }
        let mut out = Vec::new();
        for (slot, indices) in per_dev.into_iter().enumerate() {
            if !indices.is_empty() {
                out.push(DeviceStream { device: DeviceId::from_index(slot), indices });
            }
        }
        out
    }
}

/// One device's request stream within a [`Trace`]: the indices of its
/// accesses in arrival order (see [`Trace::split_by_device`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeviceStream {
    /// The device that issued these accesses.
    pub device: DeviceId,
    /// Indices into the owning trace's access slice, ascending.
    pub indices: Vec<usize>,
}

impl DeviceStream {
    /// Number of accesses in the stream.
    pub fn len(&self) -> usize {
        self.indices.len()
    }

    /// Returns `true` if the stream has no accesses.
    pub fn is_empty(&self) -> bool {
        self.indices.is_empty()
    }
}

impl<'a> IntoIterator for &'a Trace {
    type Item = &'a MemAccess;
    type IntoIter = std::slice::Iter<'a, MemAccess>;

    fn into_iter(self) -> Self::IntoIter {
        self.accesses.iter()
    }
}

impl IntoIterator for Trace {
    type Item = MemAccess;
    type IntoIter = std::vec::IntoIter<MemAccess>;

    fn into_iter(self) -> Self::IntoIter {
        self.accesses.into_iter()
    }
}

impl Extend<MemAccess> for Trace {
    fn extend<I: IntoIterator<Item = MemAccess>>(&mut self, iter: I) {
        self.accesses.extend(iter);
        self.accesses.sort_by_key(|a| a.cycle);
    }
}

/// Returns the first cycle at which the trace is non-decreasing — used by
/// tests to assert the sortedness invariant.
#[cfg(test)]
pub(crate) fn is_sorted_by_cycle(accesses: &[MemAccess]) -> bool {
    accesses.windows(2).all(|w| w[0].cycle <= w[1].cycle)
}

#[cfg(test)]
mod tests {
    use super::*;
    use planaria_common::{AccessKind, Cycle, DeviceId, PhysAddr};

    fn acc(addr: u64, cycle: u64) -> MemAccess {
        MemAccess::read(PhysAddr::new(addr), Cycle::new(cycle))
    }

    #[test]
    fn new_sorts_by_cycle() {
        let t = Trace::new("t", vec![acc(0x40, 30), acc(0x80, 10), acc(0xc0, 20)]);
        assert!(is_sorted_by_cycle(t.accesses()));
        assert_eq!(t.accesses()[0].cycle.as_u64(), 10);
    }

    #[test]
    fn summary_counts() {
        let mut v = vec![acc(0x0000, 0), acc(0x1000, 5), acc(0x1040, 9)];
        v.push(MemAccess::new(
            PhysAddr::new(0x2000),
            AccessKind::Write,
            DeviceId::Gpu,
            Cycle::new(20),
        ));
        let t = Trace::new("s", v);
        assert_eq!(t.len(), 4);
        assert_eq!(t.unique_pages(), 3);
        assert_eq!(t.duration(), 20);
        assert!((t.read_fraction() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn empty_trace_is_safe() {
        let t = Trace::empty("e");
        assert!(t.is_empty());
        assert_eq!(t.duration(), 0);
        assert_eq!(t.unique_pages(), 0);
        assert_eq!(t.read_fraction(), 0.0);
    }

    #[test]
    fn extend_keeps_sorted() {
        let mut t = Trace::new("t", vec![acc(0x40, 100)]);
        t.extend(vec![acc(0x80, 50)]);
        assert!(is_sorted_by_cycle(t.accesses()));
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn split_by_device_partitions_in_order() {
        let dev_acc = |addr: u64, dev: DeviceId, cyc: u64| {
            MemAccess::new(PhysAddr::new(addr), AccessKind::Read, dev, Cycle::new(cyc))
        };
        let t = Trace::new(
            "t",
            vec![
                dev_acc(0x0040, DeviceId::Gpu, 5),
                dev_acc(0x1040, DeviceId::Cpu(1), 1),
                dev_acc(0x2040, DeviceId::Cpu(1), 9),
                dev_acc(0x3040, DeviceId::Dsp, 3),
            ],
        );
        let streams = t.split_by_device();
        // Streams come back in canonical device order, not arrival order.
        let devs: Vec<DeviceId> = streams.iter().map(|s| s.device).collect();
        assert_eq!(devs, vec![DeviceId::Cpu(1), DeviceId::Gpu, DeviceId::Dsp]);
        assert_eq!(devs, t.devices());
        // Every index is accounted for exactly once and stays ascending.
        let total: usize = streams.iter().map(DeviceStream::len).sum();
        assert_eq!(total, t.len());
        for s in &streams {
            assert!(!s.is_empty());
            assert!(s.indices.windows(2).all(|w| w[0] < w[1]));
            for &i in &s.indices {
                assert_eq!(t.accesses()[i].device, s.device);
            }
        }
    }

    #[test]
    fn truncate_shortens() {
        let mut t = Trace::new("t", vec![acc(0x40, 1), acc(0x80, 2), acc(0xc0, 3)]);
        t.truncate(2);
        assert_eq!(t.len(), 2);
        t.truncate(10);
        assert_eq!(t.len(), 2);
    }
}
