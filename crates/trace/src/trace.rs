//! The in-memory trace container and its summary statistics.

use planaria_common::{MemAccess, PageNum};
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
    fn truncate_shortens() {
        let mut t = Trace::new("t", vec![acc(0x40, 1), acc(0x80, 2), acc(0xc0, 3)]);
        t.truncate(2);
        assert_eq!(t.len(), 2);
        t.truncate(10);
        assert_eq!(t.len(), 2);
    }
}
